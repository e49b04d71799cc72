from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from weakconv import convergence, funcs
from weakconv import measure as measure_module
from weakconv.cli import main
from weakconv.measure import bl_distance

CUBE1 = {"kind": "cube", "dim": 1}
CUBE2 = {"kind": "cube", "dim": 2}
PAIR = {"kind": "finite", "labels": ["a", "b"], "dist": [[0.0, 1.0], [1.0, 0.0]]}


# 0 * (1e300 * (1e300 * tent)): the declared bound is 0 * inf = NaN, and
# the values are NaN wherever the tent is positive; the atom sits outside it
ZERO_SCALE = {
    "space": CUBE1,
    "measure": {"atoms": [{"point": [0.9], "weight": 1.0}]},
    "function": {"kind": "scale", "factor": 0.0,
                 "child": {"kind": "scale", "factor": 1e300,
                           "child": {"kind": "scale", "factor": 1e300,
                                     "child": {"kind": "tent", "point": [0.5],
                                               "radius": 0.1}}}},
}


# lip * distance overflows to inf away from the anchor, and inf - inf is NaN
MCSHANE_OVERFLOW = {
    "space": {"kind": "cube", "dim": 8},
    "measure": {"atoms": [{"point": [0.5] * 8, "weight": 1.0}]},
    "function": {"kind": "mcshane", "anchors": [[0.0] * 8], "values": [0.0], "lip": 1e308},
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def measure(*atoms):
    return {"atoms": [{"point": list(p), "weight": w} for p, w in atoms]}


class TestBL:
    def test_dirac_pair(self, tmp_path, capsys):
        path = write(tmp_path, "bl.json", {
            "space": CUBE1,
            "mu": measure(([0.2], 1.0)),
            "nu": measure(([0.9], 1.0)),
        })
        code, out = run(capsys, "bl", path)
        assert code == 0
        value = float(out.split("value = ")[1].split("\n")[0])
        assert value == pytest.approx(0.7, abs=1e-9)

    def test_witness_and_out(self, tmp_path, capsys):
        path = write(tmp_path, "bl.json", {
            "space": CUBE1,
            "mu": measure(([0.0], 0.5), ([1.0], 0.5)),
            "nu": measure(([0.5], 1.0)),
        })
        out_path = tmp_path / "bl_out.json"
        code, out = run(capsys, "bl", path, "--witness", "--out", str(out_path))
        assert code == 0
        assert out.count("witness (") == 3  # one line per support atom
        doc = json.loads(out_path.read_text())
        assert set(doc) == {"value", "support", "witness"}
        assert len(doc["support"]) == len(doc["witness"]) == 3

    def test_readme_example_output(self, tmp_path, capsys):
        path = write(tmp_path, "bl.json", {
            "space": CUBE1,
            "mu": measure(([0.0], 0.5), ([1.0], 0.5)),
            "nu": measure(([0.5], 1.0)),
        })
        code, out = run(capsys, "bl", path, "--witness")
        assert code == 0
        assert out == ("# weakconv bl\nvalue = 0.5\nsupport_size = 3\niterations = 0\n"
                       "witness (0.0,) -> 0.25\nwitness (0.5,) -> -0.25\n"
                       "witness (1.0,) -> 0.25\n")

    def test_finite_masses_off_by_8e_10(self, tmp_path, capsys):
        path = write(tmp_path, "bl.json", {
            "space": CUBE1,
            "mu": measure(([0.4], 1.0)),
            "nu": measure(([0.4], 1 - 8e-10)),
        })
        code, out = run(capsys, "bl", path)
        assert code == 0
        assert "value = 7.999999551699943e-10\n" in out

    @pytest.mark.parametrize("mu,nu,value", [
        ({"atoms": []}, {"atoms": []}, 0.0),
        ({"atoms": []}, measure(([0.1, 0.2], 0.25), ([0.7, 0.7], 3.0)), 3.25),
        (measure(([0.5, 0.5], 0.5)), {"atoms": []}, 0.5),
    ])
    def test_empty_measures(self, tmp_path, capsys, mu, nu, value):
        path = write(tmp_path, "bl.json", {"space": CUBE2, "mu": mu, "nu": nu})
        code, out = run(capsys, "bl", path, "--witness")
        assert code == 0
        assert f"value = {value!r}\nsupport_size = {len(nu['atoms']) + len(mu['atoms'])}\n" in out
        assert out.count("witness") == len(nu["atoms"]) + len(mu["atoms"])

    @pytest.mark.parametrize("mu,message", [
        ({"atoms": 5}, "measure JSON needs an 'atoms' list"),
        ({"atoms": [{"point": [0.5], "weight": "x"}]}, "atom weight must be a number, got 'x'"),
        ({"atoms": [{"point": [0.5], "weight": None}]}, "atom weight must be a number"),
        ({"atoms": [{"point": [0.5], "weight": 10 ** 400}]}, "atom weight must be a number"),
        ({"atoms": [[[0.5], 1.0]]}, "bad atom entry [[0.5], 1.0]"),
        ({"atoms": ["x"]}, "bad atom entry 'x'"),
        ({"atoms": [{"point": [0.5]}]}, "bad atom entry"),
        (measure(([0.1], 1e308), ([0.9], 1e308)), "the two total masses must have a finite sum"),
    ])
    def test_malformed_measure_exits_64(self, tmp_path, capsys, mu, message):
        path = write(tmp_path, "bl.json", {"space": CUBE1, "mu": mu, "nu": measure(([0.5], 1.0))})
        assert main(["bl", path]) == 64
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err


class TestNoRuntimeWarnings:
    """Documents the decoders accept print their error, not a numpy warning."""

    @pytest.mark.parametrize("command,doc,message", [
        ("bl", {"space": CUBE1, "mu": measure(([0.1], 1e308), ([0.9], 1e308)),
                "nu": measure(([0.5], 1.0))},
         "error: the two total masses must have a finite sum"),
        ("integrate", ZERO_SCALE, "error: declared bound nan violated by scale form"),
        ("integrate", MCSHANE_OVERFLOW,
         "error: declared Lipschitz constant 1e+308 violated by mcshane form"),
    ], ids=["mass-overflow", "nan-bound", "mcshane-overflow"])
    def test_exit_64_with_no_warning(self, tmp_path, capsys, command, doc, message):
        path = write(tmp_path, "doc.json", doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, path]) == 64
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err.splitlines()
        assert "Warning" not in captured.err


class TestImportCost:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        # the program runs on numpy alone; scipy.linalg alone would add about
        # 0.2 s and 28 MB to every command, scipy.optimize more
        probe = ("import sys, weakconv, weakconv.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestIntegrate:
    def test_certified_tent(self, tmp_path, capsys):
        path = write(tmp_path, "int.json", {
            "space": CUBE1,
            "measure": measure(([0.25], 0.5), ([0.75], 0.5)),
            "function": {"kind": "tent", "point": [0.5], "radius": 0.5},
        })
        out_path = tmp_path / "cert.csv"
        code, out = run(capsys, "integrate", path, "--out", str(out_path))
        assert code == 0
        assert "certified = True" in out
        lines = out_path.read_text().strip().split("\n")
        assert lines[0].startswith("h,pointwise_gap")
        assert len(lines) == 9  # header + the 8 default meshes

    def test_jump_not_certified(self, tmp_path, capsys):
        path = write(tmp_path, "jump.json", {
            "space": CUBE1,
            "measure": measure(([2.0 / 3.0], 1.0)),
            "function": {"kind": "step", "axis": 0, "threshold": 2.0 / 3.0},
        })
        code, out = run(capsys, "integrate", path)
        assert code == 1
        assert "certified = False" in out

    def test_overflow_not_integrable(self, tmp_path, capsys):
        blown = {"kind": "scale", "factor": 1e300,
                 "child": {"kind": "scale", "factor": 1e300,
                           "child": {"kind": "tent", "point": [0.5], "radius": 0.5}}}
        path = write(tmp_path, "blow.json", {
            "space": CUBE1,
            "measure": measure(([0.5], 1.0)),
            "function": blown,
        })
        code, out = run(capsys, "integrate", path)
        assert code == 1
        assert "integrable = False" in out
        assert "offending_atoms = [0]" in out

    def test_out_of_a_non_integrable_function_says_no_table_is_written(self, tmp_path,
                                                                        capsys):
        blown = {"kind": "scale", "factor": 1e308,
                 "child": {"kind": "scale", "factor": 1e308,
                           "child": {"kind": "const", "value": 1.0}}}
        path = write(tmp_path, "blow.json", {
            "space": CUBE1,
            "measure": measure(([0.5], 1.0)),
            "function": blown,
        })
        code, plain = run(capsys, "integrate", path)
        out_path = tmp_path / "OUT.csv"
        out_path.write_text("stale\n")
        assert main(["integrate", path, "--out", str(out_path)]) == code == 1
        captured = capsys.readouterr()
        assert captured.out == plain  # stdout as without --out
        assert (f"no table written to {out_path}: the function is not integrable"
                in captured.err.splitlines())
        assert out_path.read_text() == "stale\n"

    def test_an_under_declared_lipschitz_constant_exits_64(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(funcs.Tent, "lipschitz", lambda self, space: 0.5 / self.radius)
        path = write(tmp_path, "int.json", {
            "space": CUBE1,
            "measure": measure(([0.25], 0.5), ([0.75], 0.5)),
            "function": {"kind": "tent", "point": [0.5], "radius": 0.5},
        })
        out_path = tmp_path / "cert.csv"
        out_path.write_text("stale\n")
        assert main(["integrate", path, "--out", str(out_path)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: declared Lipschitz constant 1.0 violated by tent form" in captured.err
        assert out_path.read_text() == "stale\n"

    def test_vector_function_with_target(self, tmp_path, capsys):
        path = write(tmp_path, "vec.json", {
            "space": CUBE1,
            "measure": measure(([0.25], 1.0)),
            "function": {"coords": [{"kind": "coord", "axis": 0},
                                    {"kind": "const", "value": 0.5}]},
            "target": {"kind": "banach", "dim": 2, "family": "lp:2"},
        })
        code, out = run(capsys, "integrate", path)
        assert code == 0
        assert "value = [0.25" in out


    @pytest.mark.parametrize("schedule,code", [([0.5, 0.6], 64), ([1e-300], 65)])
    def test_bad_schedule_prints_nothing(self, tmp_path, capsys, schedule, code):
        path = write(tmp_path, "sched.json", {
            "space": CUBE1,
            "measure": measure(([0.25], 1.0)),
            "function": {"kind": "tent", "point": [0.5], "radius": 0.5},
            "schedule": schedule,
        })
        assert run(capsys, "integrate", path) == (code, "")

    def test_eight_cube_default_schedule_certifies(self, tmp_path, capsys):
        path = write(tmp_path, "cube8.json", {
            "space": {"kind": "cube", "dim": 8},
            "measure": measure(([0.3] * 8, 1.0)),
            "function": {"kind": "tent", "point": [0.5] * 8, "radius": 1.0},
        })
        start = time.perf_counter()
        code, out = run(capsys, "integrate", path)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert "certified = True" in out.splitlines()

    def test_eight_cube_tolerance_covers_the_half_diagonal(self, tmp_path, capsys):
        # the atom sits near a corner of its cell, 0.001 * sqrt(8) / 2 from the centre
        path = write(tmp_path, "corner8.json", {
            "space": {"kind": "cube", "dim": 8},
            "measure": measure(([0.3] * 8, 1.0)),
            "function": {"kind": "dist", "point": [0.3] * 8},
            "schedule": [0.001],
        })
        code, out = run(capsys, "integrate", path)
        assert code == 0
        assert "certified = True" in out.splitlines()
        line = next(x for x in out.splitlines() if x.startswith("final_pointwise_gap"))
        gap, tol = float(line.split()[2]), float(line.split()[4].rstrip(")"))
        assert 0.001 < gap <= tol <= 0.001 * 8 ** 0.5 / 2 + 1e-9


class TestCertify:
    def test_convergent_drift(self, tmp_path, capsys):
        path = write(tmp_path, "drift.json", {
            "space": CUBE1,
            "sequence": {"kind": "dirac_drift",
                         "params": {"s0": [0.2], "v": [0.5], "rate": "harmonic"}},
        })
        code, out = run(capsys, "certify", path)
        assert code == 0
        assert "status = convergent-evidence" in out
        assert "window = 49..64" in out

    def test_divergent_alternation(self, tmp_path, capsys):
        path = write(tmp_path, "alt.json", {
            "space": CUBE1,
            "sequence": {"kind": "alternating",
                         "params": {"a": [0.0], "b": [1.0]}},
        })
        code, out = run(capsys, "certify", path)
        assert code == 1
        assert "status = divergent" in out
        assert "witness = member=" in out

    def test_inconclusive_offset_candidate(self, tmp_path, capsys):
        path = write(tmp_path, "off.json", {
            "space": CUBE1,
            "sequence": {"kind": "constant",
                         "params": {"mu": measure(([0.3], 1.0))}},
            "candidate": measure(([0.2], 1.0)),
            "run": {"n": 16},
        })
        code, out = run(capsys, "certify", path)
        assert code == 2
        assert "status = inconclusive" in out
        assert "window = 13..16" in out  # run block sets the prefix

    def test_flag_overrides_run_block(self, tmp_path, capsys):
        path = write(tmp_path, "off.json", {
            "space": CUBE1,
            "sequence": {"kind": "constant",
                         "params": {"mu": measure(([0.5], 1.0))}},
            "candidate": measure(([0.5], 1.0)),
            "run": {"n": 16},
        })
        code, out = run(capsys, "certify", path, "--n", "8")
        assert code == 0
        assert "window = 7..8" in out

    @pytest.mark.parametrize("run_block,flags,normalize", [
        ({"normalize": True}, (), True),                   # the run block is read
        ({"normalize": False}, ("--normalize",), True),    # the flag still wins
        ({}, (), False),                                   # neither: the default
    ])
    def test_normalize_knob(self, tmp_path, capsys, run_block, flags, normalize):
        path = write(tmp_path, "split.json", {
            "space": CUBE1,
            "sequence": {"kind": "mass_split", "params": {"a": [0.1], "b": [0.9]}},
            "run": run_block,
        })
        code, out = run(capsys, "certify", path, *flags)
        assert code == 0
        assert out.splitlines()[0].endswith(f"normalize={normalize}")
        assert ("member total_mass" in out) is normalize

    def test_vector_battery_and_json_out(self, tmp_path, capsys):
        path = write(tmp_path, "vec.json", {
            "space": CUBE1,
            "sequence": {"kind": "dirac_drift",
                         "params": {"s0": [0.2], "v": [0.4], "rate": "quadratic"}},
            "targets": [{"kind": "frechet", "family": "omega_max", "dim": 3}],
            "battery": {"tents": 2, "distances": 1, "mcshanes": 1,
                        "vector_members": 2},
            "run": {"n": 16},
        })
        out_path = tmp_path / "verdict.json"
        code, out = run(capsys, "certify", path, "--out", str(out_path))
        assert code == 0
        assert "member vec[0]" in out
        doc = json.loads(out_path.read_text())
        assert doc["status"] == "convergent-evidence"

    def test_label_reference_is_default_candidate(self, tmp_path, capsys):
        path = write(tmp_path, "emp.json", {
            "space": CUBE1,
            "sequence": {"kind": "empirical", "seed": 7,
                         "params": {"law": measure(([0.45], 0.5), ([0.55], 0.5))}},
        })
        code, out = run(capsys, "certify", path)
        assert code == 0  # candidate defaults to the law the label carries
        assert "status = convergent-evidence" in out


class TestScenarioRun:
    def test_divergent_exit_code_and_agreement(self, tmp_path, capsys):
        path = write(tmp_path, "alt.json", {
            "space": CUBE1,
            "sequence": {"kind": "alternating",
                         "params": {"a": [0.0], "b": [1.0]}},
            "run": {"n": 16},
        })
        out_path = tmp_path / "report.json"
        code, out = run(capsys, "scenario", "run", path, "--out", str(out_path))
        assert code == 1
        assert "oracle = divergent" in out
        assert "agreement = True" in out
        doc = json.loads(out_path.read_text())
        assert doc["agreement"] is True

    def test_a_target_without_a_base_exits_64(self, tmp_path, capsys):
        # the oracle's witnesses are lifted through each target's base, with
        # or without vector members of the target's own
        doc = {"space": CUBE1,
               "sequence": {"kind": "alternating", "params": {"a": [0.0], "b": [1.0]}},
               "targets": [{"kind": "banach", "family": "lp:2", "dim": 2, "base": None}]}
        for battery in ({"vector_members": 0}, None):
            if battery is not None:
                doc["battery"] = battery
            path = write(tmp_path, "baseless.json", doc)
            assert main(["scenario", "run", path]) == 64
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: vector members need a target with a base\n")


class TestSelftest:
    def test_quick_passes_and_is_deterministic(self, capsys):
        code1, out1 = run(capsys, "selftest", "--quick")
        code2, out2 = run(capsys, "selftest", "--quick")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "selftest: OK (9/9)" in out1

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "weakconv.cli", "selftest", "--quick"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "selftest: OK" in proc.stdout
        assert "# wall-clock" in proc.stderr  # timing stays off stdout


class TestClosedStdout:
    """A reader that closes stdout early ends the command with exit 141."""

    @pytest.mark.parametrize("atoms", [1, 150])
    def test_closed_reader(self, tmp_path, atoms):
        # 150 + 150 atoms print about 50 KB, so the pipe breaks inside a
        # print; one atom each breaks it at the final flush
        rng = np.random.default_rng(atoms)
        path = write(tmp_path, "bl.json", {
            "space": {"kind": "cube", "dim": 8},
            "mu": {"atoms": [{"point": list(p), "weight": 1.0 / atoms}
                             for p in rng.random((atoms, 8))]},
            "nu": {"atoms": [{"point": list(p), "weight": 1.0 / atoms}
                             for p in rng.random((atoms, 8))]},
        })
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the command writes
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "weakconv.cli", "bl", path, "--witness"],
                stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert "error" not in proc.stderr
        assert "# wall-clock" in proc.stderr


class TestCertificateFailure:
    """An answer that fails its own certificate check exits 3, printing no verdict."""

    def check(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert f"error: {message}" in captured.err
        assert "internal error" not in captured.err

    def test_bl(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(measure_module, "_CERT_TOL", -1.0)
        path = write(tmp_path, "bl.json", {
            "space": CUBE1, "mu": measure(([0.2], 1.0)), "nu": measure(([0.9], 1.0))})
        self.check(capsys, ["bl", path], "BL certificate failed")

    def test_certify(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(convergence, "_WITNESS_RECHECK_TOL", -1.0)
        path = write(tmp_path, "alt.json", {
            "space": CUBE1,
            "sequence": {"kind": "alternating", "params": {"a": [0.0], "b": [1.0]}},
        })
        self.check(capsys, ["certify", path], "divergence witness failed recheck")

    def test_certify_with_a_halved_tent_lipschitz_constant(self, tmp_path, capsys, monkeypatch):
        # the verdict checks each window gap against max(B, L) * BL_n, so a
        # tent that declares half its Lipschitz constant is caught there
        lipschitz = funcs.Tent.lipschitz
        monkeypatch.setattr(funcs.Tent, "lipschitz", lambda self, space: lipschitz(self, space) / 2)
        path = write(tmp_path, "drift.json", {
            "space": CUBE1,
            "sequence": {"kind": "dirac_drift", "params": {"s0": [0.2], "v": [0.5]}},
        })
        self.check(capsys, ["certify", path], "member tent[0] breaks gap <= max(B, L) * BL at n=")


class TestUnwritableOut:
    """An --out path that cannot be written exits 64 with nothing printed."""

    DOCS = {
        "bl": ({"space": CUBE1, "mu": measure(([0.2], 1.0)), "nu": measure(([0.9], 1.0))},
               ("bl",)),
        "integrate": ({"space": CUBE1, "measure": measure(([0.25], 0.5), ([0.75], 0.5)),
                       "function": {"kind": "tent", "point": [0.5], "radius": 0.5}},
                      ("integrate",)),
        "certify": ({"space": CUBE1, "run": {"n": 8},
                     "sequence": {"kind": "alternating", "params": {"a": [0.1], "b": [0.9]}},
                     "battery": {"tents": 1, "distances": 0, "mcshanes": 0}},
                    ("certify",)),
        "scenario run": ({"space": CUBE1, "run": {"n": 8}, "targets": [],
                          "sequence": {"kind": "alternating",
                                       "params": {"a": [0.1], "b": [0.9]}},
                          "battery": {"tents": 1, "distances": 0, "mcshanes": 0,
                                      "vector_members": 0}},
                         ("scenario", "run")),
    }

    @pytest.mark.parametrize("command", DOCS)
    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_exit_64_and_empty_stdout(self, tmp_path, capsys, command, where):
        doc, argv = self.DOCS[command]
        path = write(tmp_path, "doc.json", doc)
        out_path = tmp_path / "missing" / "out.json" if where == "missing" else tmp_path
        code = main([*argv, path, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert f"error: cannot write {out_path}: " in captured.err
        assert "internal error" not in captured.err
        # the same command with a writable path prints its verdict
        code = main([*argv, path, "--out", str(tmp_path / "out.json")])
        assert code in (0, 1, 2)
        assert capsys.readouterr().out.startswith(f"# weakconv {command}")


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code = main(["bl", "/nonexistent/input.json"])
        err = capsys.readouterr().err
        assert code == 64
        assert "no such file" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["bl", str(path)])
        assert code == 64

    def test_top_level_must_be_object(self, tmp_path, capsys):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]")
        code = main(["bl", str(path)])
        assert code == 64

    def test_capacity_exit(self, tmp_path, capsys):
        path = write(tmp_path, "big.json", {
            "space": {"kind": "cube", "dim": 9},
            "mu": measure(([0.0] * 9, 1.0)),
            "nu": measure(([0.0] * 9, 1.0)),
        })
        code = main(["bl", path])
        assert code == 65

    def test_unknown_scenario_kind(self, tmp_path, capsys):
        path = write(tmp_path, "kind.json", {
            "space": CUBE1,
            "sequence": {"kind": "levy_flight", "params": {}},
        })
        code = main(["certify", path])
        assert code == 64

    @pytest.mark.parametrize("space, function", [
        (CUBE2, {"kind": "tent", "point": [0.5, 0.5, 0.5], "radius": 0.5}),
        (CUBE2, {"kind": "tent", "point": [0.5], "radius": 0.5}),
        (PAIR, {"kind": "dist", "point": 5}),
    ])
    def test_form_anchor_outside_the_carrier(self, tmp_path, capsys, space, function):
        point = [0.5, 0.5] if space is CUBE2 else 0
        path = write(tmp_path, "anchor.json", {
            "space": space,
            "measure": {"atoms": [{"point": point, "weight": 1.0}]},
            "function": function,
        })
        assert main(["integrate", path]) == 64

    def test_finite_anchor_by_label(self, tmp_path, capsys):
        path = write(tmp_path, "label.json", {
            "space": PAIR,
            "measure": {"atoms": [{"point": "a", "weight": 1.0}]},
            "function": {"kind": "tent", "point": "b", "radius": 2.0},
        })
        code, out = run(capsys, "integrate", path)
        assert code == 0
        assert "value = [0.5]" in out

    def test_sequence_point_outside_the_carrier(self, tmp_path, capsys):
        path = write(tmp_path, "alt.json", {
            "space": PAIR,
            "sequence": {"kind": "alternating", "params": {"a": 0, "b": 7}},
        })
        assert main(["certify", path]) == 64

    def test_non_finite_base(self, tmp_path, capsys):
        path = write(tmp_path, "base.json", {
            "space": CUBE1,
            "measure": measure(([0.5], 1.0)),
            "function": {"coords": [{"kind": "coord", "axis": 0},
                                    {"kind": "const", "value": 0.5}]},
            "target": {"kind": "banach", "dim": 2, "family": "lp:2",
                       "base": [[1.0, float("nan")], [0.0, 1.0]]},
        })
        assert main(["integrate", path]) == 64

    def test_scenario_run_with_empty_prefix(self, tmp_path, capsys):
        path = write(tmp_path, "alt.json", {
            "space": CUBE1,
            "sequence": {"kind": "alternating", "params": {"a": [0.0], "b": [1.0]}},
        })
        assert main(["scenario", "run", path, "--n", "0"]) == 64
        assert "at least 8 terms" in capsys.readouterr().err

    def test_sequence_needs_kind(self, tmp_path, capsys):
        path = write(tmp_path, "seq.json", {
            "space": CUBE1,
            "sequence": {"params": {}},
        })
        code = main(["certify", path])
        assert code == 64

    def test_tent_radius_not_a_number(self, tmp_path, capsys):
        path = write(tmp_path, "tent.json", {
            "space": CUBE1,
            "measure": measure(([0.5], 1.0)),
            "function": {"kind": "tent", "point": [0.5], "radius": "wide"},
        })
        assert main(["integrate", path]) == 64
        assert "internal error" not in capsys.readouterr().err

    def test_drift_start_not_a_list(self, tmp_path, capsys):
        path = write(tmp_path, "drift.json", {
            "space": CUBE1,
            "sequence": {"kind": "dirac_drift", "params": {"s0": 0.2, "v": [0.1]}},
        })
        assert main(["certify", path]) == 64
        assert "internal error" not in capsys.readouterr().err

    def test_normalize_not_a_bool(self, tmp_path, capsys):
        path = write(tmp_path, "run.json", {
            "space": CUBE1,
            "sequence": {"kind": "mass_split", "params": {"a": [0.1], "b": [0.9]}},
            "run": {"normalize": "false"},
        })
        assert main(["certify", path]) == 64
        assert "'normalize' must be true or false" in capsys.readouterr().err

    def test_run_length_not_an_integer(self, tmp_path, capsys):
        path = write(tmp_path, "run.json", {
            "space": CUBE1,
            "sequence": {"kind": "alternating", "params": {"a": [0.0], "b": [1.0]}},
            "run": {"n": "many"},
        })
        assert main(["certify", path]) == 64
        assert "'n' must be an integer" in capsys.readouterr().err


DRIFT = {"kind": "dirac_drift", "params": {"s0": [0.2], "v": [0.5]}}


class TestMalformedBatteryTargetAndSeed:
    """Each of these exits 64 with a message, never 70 and never silently."""

    @pytest.mark.parametrize("extra,message", [
        ({"battery": {"tent_radius": "wide"}}, "'tent_radius' must be two finite numbers"),
        ({"battery": {"tent_radius": [0.5]}}, "'tent_radius' must be two finite numbers"),
        ({"battery": {"mcshane_lip": [0.5, float("inf")]}},
         "'mcshane_lip' must be two finite numbers"),
        ({"battery": {"tents": "four"}}, "'tents' must be a non-negative integer"),
        ({"battery": {"tents": -1}}, "'tents' must be a non-negative integer"),
        ({"battery": {"distances": True}}, "'distances' must be a non-negative integer"),
        ({"battery": [4]}, "battery spec must be a JSON object"),
        ({"targets": [{"kind": "banach", "dim": "two", "family": "lp:2"}]},
         "bad target spec"),
        ({"run": {"seed": -5}}, "'seed' must be a non-negative integer"),
    ])
    def test_certify_file(self, tmp_path, capsys, extra, message):
        path = write(tmp_path, "drift.json", {"space": CUBE1, "sequence": DRIFT, **extra})
        assert main(["certify", path]) == 64
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err

    def test_scenario_run_negative_seed_flag(self, tmp_path, capsys):
        path = write(tmp_path, "drift.json", {"space": CUBE1, "sequence": DRIFT})
        assert main(["scenario", "run", path, "--seed", "-3"]) == 64
        assert "'seed' must be a non-negative integer" in capsys.readouterr().err

    def test_empirical_sequence_negative_seed(self, tmp_path, capsys):
        law = {"atoms": [{"point": [0.4], "weight": 0.5}, {"point": [0.6], "weight": 0.5}]}
        path = write(tmp_path, "emp.json", {
            "space": CUBE1,
            "sequence": {"kind": "empirical", "seed": -2, "params": {"law": law}},
        })
        assert main(["certify", path]) == 64
        assert "'seed' must be a non-negative integer" in capsys.readouterr().err

    def test_selftest_negative_seed(self, capsys):
        assert main(["selftest", "--quick", "--seed", "-1"]) == 64
        assert "'seed' must be a non-negative integer" in capsys.readouterr().err


SEED_CAP = 2**128  # Philox keys lie below it


class TestSeedBound:
    """A seed whose derived stream keys reach 2**128 exits 64, naming the bound."""

    def test_run_seed_at_the_key_bound(self, tmp_path, capsys):
        path = write(tmp_path, "drift.json", {"space": CUBE1, "sequence": DRIFT,
                                              "run": {"seed": SEED_CAP}})
        assert main(["certify", path]) == 64
        err = capsys.readouterr().err
        assert f"'seed' must be below 2**128, got {SEED_CAP}" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("targets", [0, 1, 2])
    def test_certify_leaves_room_for_each_target(self, tmp_path, capsys, targets):
        doc = {"space": CUBE1, "sequence": DRIFT,
               "targets": [{"kind": "frechet", "family": "omega_max", "dim": 2}] * targets}
        below = write(tmp_path, "below.json", {**doc, "run": {"seed": SEED_CAP - 1 - targets}})
        assert main(["certify", below]) == 0
        at = write(tmp_path, "at.json", {**doc, "run": {"seed": SEED_CAP - targets}})
        assert main(["certify", at, "--n", "8"]) == 64
        bound = f"2**128 - {targets}" if targets else "2**128"
        assert f"'seed' must be below {bound}" in capsys.readouterr().err

    def test_empirical_sequence_seed(self, tmp_path, capsys):
        law = {"atoms": [{"point": [0.4], "weight": 0.5}, {"point": [0.6], "weight": 0.5}]}

        def doc(seed):
            return {"space": CUBE1,
                    "sequence": {"kind": "empirical", "seed": seed, "params": {"law": law}}}

        assert main(["certify", write(tmp_path, "below.json", doc(SEED_CAP - 1))]) in (0, 2)
        assert main(["certify", write(tmp_path, "at.json", doc(SEED_CAP))]) == 64
        assert "'seed' must be below 2**128" in capsys.readouterr().err

    def test_scenario_run_seed_flag(self, tmp_path, capsys):
        path = write(tmp_path, "drift.json", {"space": CUBE1, "sequence": DRIFT})
        assert main(["scenario", "run", path, "--seed", str(SEED_CAP - 1)]) == 0
        assert main(["scenario", "run", path, "--seed", str(SEED_CAP)]) == 64
        assert "'seed' must be below 2**128" in capsys.readouterr().err

    def test_selftest_leaves_room_for_the_agreement_table(self, capsys):
        last = SEED_CAP - 1020  # scenario 19 is keyed by seed + 1019
        assert main(["selftest", "--seed", str(last + 1)]) == 64
        assert "'seed' must be below 2**128 - 1019" in capsys.readouterr().err
        assert main(["selftest", "--seed", str(last)]) == 0
        assert main(["selftest", "--quick", "--seed", str(SEED_CAP - 1)]) == 0
        assert main(["selftest", "--quick", "--seed", str(SEED_CAP)]) == 64


class TestTargetDimension:
    @pytest.mark.parametrize("dim", [2.7, True, 2.5, float("nan")])
    def test_fractional_or_bool_dim_exits_64(self, tmp_path, capsys, dim):
        path = write(tmp_path, "drift.json", {
            "space": CUBE1, "sequence": DRIFT,
            "targets": [{"kind": "frechet", "family": "omega_max", "dim": dim}]})
        assert main(["certify", path]) == 64
        err = capsys.readouterr().err
        assert f"bad target spec: 'dim' must be an integer, got {dim!r}" in err

    def test_integral_float_dim_still_runs(self, tmp_path):
        path = write(tmp_path, "drift.json", {
            "space": CUBE1, "sequence": DRIFT,
            "targets": [{"kind": "frechet", "family": "omega_max", "dim": 2.0}]})
        assert main(["certify", path]) == 0


class TestCertifySolvesTheWindowOnly:
    def test_empirical_8_cube(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(5)
        law = {"atoms": [{"point": list(rng.random(8)), "weight": 0.125} for _ in range(8)]}
        path = write(tmp_path, "emp8.json", {
            "space": {"kind": "cube", "dim": 8},
            "sequence": {"kind": "empirical", "seed": 3, "params": {"law": law}}})
        code, expected = run(capsys, "certify", path)
        calls = []

        def counted(mu, nu):
            calls.append(mu)
            return bl_distance(mu, nu)

        monkeypatch.setattr(convergence, "bl_distance", counted)
        assert run(capsys, "certify", path) == (code, expected)
        keys = {(mu.points.tobytes(), mu.weights.tobytes()) for mu in calls}
        assert len(keys) == len(calls) == 16  # terms 49..64, each a distinct law
        window = [line for line in expected.splitlines() if line.startswith("window")]
        assert window == ["window = 49..64"]

