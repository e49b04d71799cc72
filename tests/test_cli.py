from __future__ import annotations

import json
import subprocess
import sys

import pytest

from weakconv.cli import main

CUBE1 = {"kind": "cube", "dim": 1}
CUBE2 = {"kind": "cube", "dim": 2}
PAIR = {"kind": "finite", "labels": ["a", "b"], "dist": [[0.0, 1.0], [1.0, 0.0]]}


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

    def test_run_length_not_an_integer(self, tmp_path, capsys):
        path = write(tmp_path, "run.json", {
            "space": CUBE1,
            "sequence": {"kind": "alternating", "params": {"a": [0.0], "b": [1.0]}},
            "run": {"n": "many"},
        })
        assert main(["certify", path]) == 64
        assert "'n' must be an integer" in capsys.readouterr().err
