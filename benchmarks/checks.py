"""Output checkers, one per workload.

Each checker takes an op's raw inputs (``spec``) and its summarised output
and returns a list of problems; an empty list means the output passed.
They use numpy and scipy only, never weakconv, so a defect in the program
cannot hide in its own checker.
"""

from __future__ import annotations

import ast

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

FEASIBILITY_TOL = 1e-9   # witness bounds, Lipschitz constraints and value
CLOSED_FORM_TOL = 1e-9   # Dirac pairs and the one-dimensional CDF form
INDEPENDENT_LP_TOL = 1e-7  # transport LP on the metric truncated at 2
BAD_EXITS = (64, 65, 70)


def check_report(spec: dict, out: dict) -> list:
    """suite-agreement: oracle, scalar and every vector verdict match the label."""
    problems = []
    if len(out["vector"]) != spec["targets"]:
        problems.append(f"{spec['name']}: {len(out['vector'])} vector verdicts "
                        f"for {spec['targets']} targets")
    verdicts = [("oracle", out["oracle"]), ("scalar", out["scalar"])]
    verdicts += [(f"vector[{i}]", s) for i, s in enumerate(out["vector"])]
    for who, status in verdicts:
        if status != spec["expected"]:
            problems.append(f"{spec['name']}: {who} says {status}, "
                            f"expected {spec['expected']}")
    return problems


# ---------------------------------------------------------------------------
# bounded-Lipschitz certificates
# ---------------------------------------------------------------------------


def _key(carrier: dict, point):
    if carrier["kind"] == "finite":
        return int(point)
    return tuple(float(x) for x in np.atleast_1d(point))


def _distances(carrier: dict, a: list, b: list) -> np.ndarray:
    if carrier["kind"] == "finite":
        dist = np.asarray(carrier["dist"], dtype=float)
        return dist[np.ix_(a, b)]
    pa, pb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=-1))


def _merged(carrier: dict, raw) -> dict:
    out: dict = {}
    for p, w in zip(*raw):
        key = _key(carrier, p)
        out[key] = out.get(key, 0.0) + float(w)
    return out


def transport_value(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """min <cost, plan> over couplings of a and b, solved by scipy's HiGHS."""
    k, n = cost.shape
    a_eq = sparse.vstack([sparse.kron(sparse.eye(k), np.ones((1, n))),
                          sparse.kron(np.ones((1, k)), sparse.eye(n))])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"independent transport LP failed: {res.message}")
    return float(res.fun)


def check_bl(spec: dict, out: dict) -> list:
    """Certificate and closed-form checks of one bl_distance result.

    ``out`` holds ``value``, ``support`` and ``witness`` (f on the support).
    """
    carrier = spec["carrier"]
    mu, nu = _merged(carrier, spec["mu"]), _merged(carrier, spec["nu"])
    diff = dict(mu)
    for key, w in nu.items():
        diff[key] = diff.get(key, 0.0) - w
    support = [_key(carrier, p) for p in out["support"]]
    if sorted(support) != sorted(diff):
        return ["support differs from the union of the input supports"]
    f = np.asarray(out["witness"], dtype=float)
    d = np.array([diff[p] for p in support])
    value = float(out["value"])
    rho = _distances(carrier, support, support)

    problems = []
    if np.any(np.abs(f) > 1.0 + FEASIBILITY_TOL):
        problems.append(f"witness leaves [-1, 1] by {np.max(np.abs(f)) - 1.0:.3g}")
    excess = np.max(np.abs(f[:, None] - f[None, :]) - rho)
    if excess > FEASIBILITY_TOL:
        problems.append(f"witness breaks its Lipschitz constraint by {excess:.3g}")
    if abs(float(f @ d) - value) > FEASIBILITY_TOL:
        problems.append(f"sum f_i (mu_i - nu_i) = {float(f @ d)!r} but value = {value!r}")
    if carrier["kind"] == "cube" and carrier["dim"] == 1:
        xs = np.array([p[0] for p in support])
        order = np.argsort(xs)
        cdf_gap = float(np.abs(np.cumsum(d[order])[:-1]) @ np.diff(xs[order]))
        if abs(cdf_gap - value) > CLOSED_FORM_TOL:
            problems.append(f"value {value!r} differs from the CDF form {cdf_gap!r}")
    if len(mu) == 1 and len(nu) == 1:
        closed = min(2.0, float(_distances(carrier, list(mu), list(nu))[0, 0]))
        if abs(closed - value) > CLOSED_FORM_TOL:
            problems.append(f"Dirac pair: value {value!r}, min(2, rho) = {closed!r}")
    cost = np.minimum(_distances(carrier, list(mu), list(nu)), 2.0)
    lp = transport_value(cost, np.array(list(mu.values())), np.array(list(nu.values())))
    if abs(lp - value) > INDEPENDENT_LP_TOL:
        problems.append(f"independent transport LP gives {lp!r}, oracle {value!r}")
    return problems


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------


def _raw_measure(node: dict) -> tuple:
    atoms = node["atoms"]
    return [a["point"] for a in atoms], [a["weight"] for a in atoms]


def parse_bl_stdout(stdout: str) -> dict:
    """value, support and witness from ``weakconv bl --witness`` output."""
    out = {"support": [], "witness": []}
    for line in stdout.splitlines():
        if line.startswith("value = "):
            out["value"] = float(line[len("value = "):])
        elif line.startswith("witness "):
            point, value = line[len("witness "):].rsplit(" -> ", 1)
            out["support"].append(ast.literal_eval(point))
            out["witness"].append(float(value))
    return out


def check_cli(spec: dict, out: dict) -> list:
    """cli-mix: exit codes, labels, integration, BL certificates, determinism."""
    code, stdout = out["code"], out["stdout"]
    if code in BAD_EXITS:
        return [f"{spec['cls']} exited {code} on valid input"]
    problems = []
    if spec["label"] == "diverges" and code == 0:
        problems.append(f"{spec['cls']}: divergent-labelled sequence exited 0")
    if spec["label"] == "converges_to" and code == 1:
        problems.append(f"{spec['cls']}: convergent-labelled sequence exited 1")
    if spec["cls"] == "integrate" and (code != 0 or "certified = True" not in stdout):
        problems.append(f"integrate did not certify (exit {code})")
    if spec["cls"] == "bl":
        if code != 0:
            problems.append(f"bl exited {code}")
        else:
            doc = spec["doc"]
            raw = {"carrier": doc["space"], "mu": _raw_measure(doc["mu"]),
                   "nu": _raw_measure(doc["nu"])}
            problems += check_bl(raw, parse_bl_stdout(stdout))
    if "repeat_stdout" in out and out["repeat_stdout"] != stdout:
        problems.append(f"{spec['cls']}: stdout differs when the op is repeated")
    return problems


CHECKERS = {"suite-agreement": check_report, "bl-ladder": check_bl, "cli-mix": check_cli}
