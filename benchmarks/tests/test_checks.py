"""Each checker accepts a correct output and rejects a corrupted one."""

import copy

import numpy as np
import pytest

import weakconv
from checks import check_bl, check_cli, check_report, parse_bl_stdout
from workloads import bl_ladder_specs, cli_mix_specs, run_cli


def _bl_output(spec):
    """A genuine bl_distance result for a bl-ladder spec."""
    carrier = spec["carrier"]
    if carrier["kind"] == "cube":
        space = weakconv.unit_cube(carrier["dim"])
        convert = lambda p: tuple(float(x) for x in p)  # noqa: E731
    else:
        space = weakconv.finite_space([f"p{i}" for i in range(len(carrier["dist"]))],
                                      carrier["dist"])
        convert = int
    mu, nu = (weakconv.finite_measure(space, [(convert(p), float(w)) for p, w in zip(*raw)])
              for raw in (spec["mu"], spec["nu"]))
    res = weakconv.bl_distance(mu, nu)
    return {"value": res.value, "support": list(res.support),
            "witness": list(res.witness_values)}


@pytest.fixture(scope="module")
def ladder():
    specs = bl_ladder_specs(0, 0)
    wanted = [s for s in specs if s["cls"] in ("dirac", "m25")]
    wanted.append(next(s for s in specs if s["cls"] == "finite64"))
    return [(spec, _bl_output(spec)) for spec in wanted]


class TestSuiteAgreement:
    spec = {"name": "alternating-1d", "expected": "divergent", "battery_seed": 1,
            "targets": 3}
    good = {"oracle": "divergent", "scalar": "divergent",
            "vector": ["divergent", "divergent", "divergent"]}

    def test_accepts_agreement(self):
        assert check_report(self.spec, self.good) == []

    def test_rejects_flipped_verdict(self):
        bad = copy.deepcopy(self.good)
        bad["vector"][1] = "convergent-evidence"
        assert check_report(self.spec, bad)

    def test_rejects_missing_vector_verdict(self):
        bad = copy.deepcopy(self.good)
        bad["vector"].pop()
        assert check_report(self.spec, bad)


class TestBLLadder:
    def test_accepts_genuine_results(self, ladder):
        for spec, out in ladder:
            assert check_bl(spec, out) == [], spec["cls"]

    def test_rejects_witness_outside_lipschitz_constraint(self, ladder):
        spec, out = next((s, o) for s, o in ladder if s["cls"] == "m25")
        pts = np.asarray(out["support"])
        rho = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)) + np.eye(len(pts)) * 9
        i, j = np.unravel_index(np.argmin(rho), rho.shape)
        step = rho[i, j] + 1e-3  # just past the constraint |f_i - f_j| <= rho_ij
        bad = copy.deepcopy(out)
        f_j = bad["witness"][j]
        bad["witness"][i] = f_j + step if f_j + step <= 1.0 else f_j - step
        problems = check_bl(spec, bad)
        assert any("Lipschitz" in p for p in problems)

    def test_rejects_wrong_value(self, ladder):
        for spec, out in ladder:
            bad = dict(out, value=out["value"] + 1e-6)
            assert check_bl(spec, bad), spec["cls"]

    def test_rejects_wrong_support(self, ladder):
        spec, out = ladder[0]
        bad = dict(out, support=out["support"][:1], witness=out["witness"][:1])
        assert check_bl(spec, bad)


class TestCliMix:
    @pytest.fixture(scope="class")
    def ran(self, tmp_path_factory):
        import json
        import weakconv.cli  # noqa: F401
        workdir = tmp_path_factory.mktemp("cli")
        specs = cli_mix_specs(0, 0)
        picked = {}
        for spec in specs:
            picked.setdefault((spec["cls"], spec["label"]), spec)
        out = []
        for i, spec in enumerate(picked.values()):
            path = workdir / f"op{i}.json"
            path.write_text(json.dumps(spec["doc"]))
            argv = [str(path) if a is None else a for a in spec["args"]]
            out.append((spec, run_cli(weakconv, argv)))
        return out

    def test_accepts_genuine_outputs(self, ran):
        for spec, out in ran:
            assert check_cli(spec, out) == [], spec["cls"]

    def test_rejects_simulated_exit_70(self, ran):
        spec, out = ran[0]
        bad = dict(out, code=70)
        assert check_cli(spec, bad)

    def test_rejects_divergent_exit_0(self, ran):
        spec, out = next((s, o) for s, o in ran if s["label"] == "diverges")
        assert check_cli(spec, dict(out, code=0))

    def test_rejects_convergent_exit_1(self, ran):
        spec, out = next((s, o) for s, o in ran if s["label"] == "converges_to")
        assert check_cli(spec, dict(out, code=1))

    def test_rejects_uncertified_integral(self, ran):
        spec, out = next((s, o) for s, o in ran if s["cls"] == "integrate")
        bad = dict(out, stdout=out["stdout"].replace("certified = True", "certified = False"))
        assert check_cli(spec, bad)

    def test_rejects_nondeterministic_stdout(self, ran):
        spec, out = ran[0]
        assert check_cli(spec, dict(out, repeat_stdout=out["stdout"] + " "))

    def test_bl_output_is_certificate_checked(self, ran):
        spec, out = next((s, o) for s, o in ran if s["cls"] == "bl")
        parsed = parse_bl_stdout(out["stdout"])
        assert len(parsed["support"]) == len(parsed["witness"]) > 0
        lines = out["stdout"].splitlines()
        rows = [i for i, line in enumerate(lines) if line.startswith("witness ")]
        k = max(rows, key=lambda i: abs(float(lines[i].rsplit(" -> ", 1)[1])))
        point, value = lines[k].rsplit(" -> ", 1)
        lines[k] = f"{point} -> {-float(value)!r}"
        assert check_cli(spec, dict(out, stdout="\n".join(lines)))
