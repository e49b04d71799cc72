"""Seeded inputs and the user-level operations the benchmark times.

Each pass of a workload draws its inputs from (workload seed, pass index)
alone: one seed gives the same passes on every run, and no pass repeats an
earlier pass's batteries or measure pairs.  Raw inputs (``Op.spec``) are
plain numbers, arrays and JSON documents built without weakconv, so the
checkers can read them; ``build_pass`` turns them into weakconv objects and
zero-argument calls.  Calls look the weakconv function up when they run,
so the tracer's wrappers are seen.

Workloads
---------
suite-agreement  one op = one ``equivalence_report`` on a ``bundled_suite()``
                 entry with ``suite_targets()``, N=64, tol 0.05; 20 ops a
                 pass, battery seeds derived from (seed, pass, entry).
bl-ladder        one op = one ``bl_distance`` on a seeded probability pair:
                 Dirac pairs, union support 25 and 50 on cubes of dimension
                 1, 2 and 8, 64 atoms on 64-point planar carriers whose
                 distances reach about 4, and one support-100 pair on the
                 8-cube.
cli-mix          one op = one in-process ``weakconv.cli.main(argv)`` call on
                 a generated JSON file; the mix in ``CLI_MIX`` is a guess,
                 as no traffic data exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("suite-agreement", "bl-ladder", "cli-mix")

# wall time of one pass (fresh interpreter and checks included) on a 2-vCPU
# Xeon VM; a run of --seconds S makes round(S / nominal) passes, the same on
# every commit
NOMINAL_PASS_S = {"suite-agreement": 9.2, "bl-ladder": 14.0, "cli-mix": 6.7}

SUITE_N, SUITE_TOL = 64, 0.05

# bl-ladder: (op class, union support, pairs per cube dimension)
LADDER_CUBES = (("m25", 25, 2), ("m50", 50, 4))
LADDER_DIMS = (1, 2, 8)
FINITE_POINTS = 64
FINITE_SIDE = 3.0  # planar points in [0, 3]^2: distances reach about 4
FINITE_PAIRS = 4
# The pivot count of one LP is a jumpy function of its random input, and a
# run holds few of the largest LPs, which take most of its op time.  So the
# support-100 pair sits on the 8-cube, where its pivot count varies least
# (a coefficient of variation of about 0.13, against about 0.25 on the 1-
# and 2-cube), and every support-64 pair gets a plane of its own: pairs that
# share a plane also share most of their pivot count's variation.
M100_DIM = 8

# cli-mix ops per pass, by command (a guess: no traffic data exists)
CLI_MIX = (("certify", 12), ("scenario_run", 3), ("bl", 4), ("integrate", 8))
CLI_TARGETS = ({"kind": "banach", "dim": 2, "family": "lp:2"},
               {"kind": "frechet", "dim": 3, "family": "omega_max"},
               {"kind": "frechet", "dim": 3, "family": "cumulative_l1"})


@dataclass
class Op:
    cls: str                          # op class, e.g. "m50" or "certify"
    spec: dict                        # raw inputs, read by the checkers
    call: Callable[[], object]        # the timed user-level call
    summarize: Callable[[object], dict]  # picklable output, built untimed
    repeat: bool = False              # re-run untimed to compare stdout


def _rng(seed: int, pass_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, pass_index, stream]))


def battery_seed(seed: int, pass_index: int, entry: int) -> int:
    return int(np.random.SeedSequence([seed, pass_index, 1000 + entry]).generate_state(1)[0])


def _weights(rng: np.random.Generator, k: int) -> np.ndarray:
    w = rng.random(k) + 0.05
    return w / w.sum()


# ---------------------------------------------------------------------------
# suite-agreement
# ---------------------------------------------------------------------------


def _report_summary(report) -> dict:
    return {"oracle": report.oracle_status.value,
            "scalar": report.scalar_verdict.status.value,
            "vector": [v.status.value for _, v in report.vector_verdicts]}


def _suite_ops(wc, seed: int, pass_index: int, workdir: str) -> list:
    targets = wc.suite_targets()
    ops = []
    for idx, entry in enumerate(wc.bundled_suite()):
        bseed = battery_seed(seed, pass_index, idx)
        spec = {"name": entry.name, "expected": entry.expected.value,
                "battery_seed": bseed, "targets": len(targets)}

        def call(family=entry.family, bseed=bseed):
            return wc.equivalence_report(family, targets, n_terms=SUITE_N,
                                         tol=SUITE_TOL, seed=bseed)

        ops.append(Op("report", spec, call, _report_summary))
    return ops


# ---------------------------------------------------------------------------
# bl-ladder
# ---------------------------------------------------------------------------


def _cube_pair(rng, cls: str, dim: int, m: int) -> dict:
    pts = rng.random((m, dim))
    k = m // 2
    return {"cls": cls, "carrier": {"kind": "cube", "dim": dim},
            "mu": (pts[:k], _weights(rng, k)), "nu": (pts[k:], _weights(rng, m - k))}


def _dirac(carrier: dict, x, y) -> dict:
    one = np.ones(1)
    return {"cls": "dirac", "carrier": carrier,
            "mu": (np.asarray([x]), one), "nu": (np.asarray([y]), one)}


def _plane(rng) -> tuple:
    """A 64-point planar carrier, and its points in order of x."""
    xy = rng.random((FINITE_POINTS, 2)) * FINITE_SIDE
    plane = {"kind": "finite",
             "dist": np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=-1))}
    return plane, np.argsort(xy[:, 0], kind="stable")


def bl_ladder_specs(seed: int, pass_index: int) -> list:
    rng = _rng(seed, pass_index, 1)
    plane, by_x = _plane(rng)
    specs = [_dirac({"kind": "cube", "dim": 1}, rng.random(1), rng.random(1)),
             _dirac({"kind": "cube", "dim": 8}, rng.uniform(0.0, 0.2, 8),
                    rng.uniform(0.8, 1.0, 8)),
             _dirac(plane, by_x[0], by_x[-1])]
    for cls, m, per_dim in LADDER_CUBES:
        for dim in LADDER_DIMS:
            specs += [_cube_pair(rng, cls, dim, m) for _ in range(per_dim)]
    # mu on the left half of the plane and nu on the right, so mass must
    # travel beyond the truncation at 2
    half = FINITE_POINTS // 2
    for _ in range(FINITE_PAIRS):
        plane, by_x = _plane(rng)
        specs.append({"cls": "finite64", "carrier": plane,
                      "mu": (by_x[:half], _weights(rng, half)),
                      "nu": (by_x[half:], _weights(rng, half))})
    specs.append(_cube_pair(rng, "m100", M100_DIM, 100))
    return specs


def _bl_summary(res) -> dict:
    return {"value": res.value, "support": list(res.support),
            "witness": list(res.witness_values)}


def _bl_ops(wc, seed: int, pass_index: int, workdir: str) -> list:
    spaces: dict = {}

    def space_of(carrier: dict):
        key = id(carrier) if carrier["kind"] == "finite" else carrier["dim"]
        if key not in spaces:
            if carrier["kind"] == "cube":
                spaces[key] = wc.unit_cube(carrier["dim"])
            else:
                n = len(carrier["dist"])
                spaces[key] = wc.finite_space(tuple(f"p{i}" for i in range(n)),
                                              carrier["dist"])
        return spaces[key]

    def measure(space, raw):
        pts, wts = raw
        if space.kind == "finite":
            atoms = [(int(p), float(w)) for p, w in zip(pts, wts)]
        else:
            atoms = [(tuple(float(x) for x in p), float(w)) for p, w in zip(pts, wts)]
        return wc.finite_measure(space, atoms)

    ops = []
    for spec in bl_ladder_specs(seed, pass_index):
        space = space_of(spec["carrier"])
        mu, nu = measure(space, spec["mu"]), measure(space, spec["nu"])
        ops.append(Op(spec["cls"], spec,
                      lambda mu=mu, nu=nu: wc.bl_distance(mu, nu), _bl_summary))
    return ops


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------


def _pt(rng, dim: int, lo: float = 0.0, hi: float = 1.0) -> list:
    return [float(x) for x in rng.uniform(lo, hi, dim)]


def _atoms(points, weights) -> dict:
    return {"atoms": [{"point": p, "weight": float(w)} for p, w in zip(points, weights)]}


def _sequence(rng, kind: str, dim: int, k: int) -> tuple:
    """(sequence JSON, label) for a labelled scenario kind on a cube."""
    if kind == "dirac_drift":
        rate = ("harmonic", "quadratic", "geometric")[k % 3]
        return ({"kind": kind, "params": {"s0": _pt(rng, dim, 0.25, 0.75),
                                          "v": _pt(rng, dim, -0.2, 0.2), "rate": rate}},
                "converges_to")
    if kind == "mass_split":
        return {"kind": kind, "params": {"a": _pt(rng, dim), "b": _pt(rng, dim)}}, "converges_to"
    if kind == "alternating":
        return ({"kind": kind, "params": {"a": _pt(rng, dim, 0.0, 0.3),
                                          "b": _pt(rng, dim, 0.7, 1.0)}}, "diverges")
    atoms = int(rng.integers(8, 13))
    law = _atoms([_pt(rng, dim) for _ in range(atoms)], _weights(rng, atoms))
    return ({"kind": "empirical", "seed": int(rng.integers(0, 2**31)),
             "params": {"law": law}}, "converges_to")


def _certify_spec(rng, k: int) -> dict:
    kind = ("dirac_drift", "mass_split", "alternating", "empirical")[k % 4]
    dim = 1 + k % 8
    sequence, label = _sequence(rng, kind, dim, k // 4)
    doc = {"space": {"kind": "cube", "dim": dim}, "sequence": sequence,
           "targets": [CLI_TARGETS[k % 3]], "run": {"seed": int(rng.integers(0, 2**31))}}
    flags = ["--normalize"] if kind == "mass_split" and k % 8 == 1 else []
    return {"cls": "certify", "args": ["certify", None, *flags], "doc": doc, "label": label}


def _scenario_spec(rng, k: int) -> dict:
    kind = ("dirac_drift", "alternating", "mass_split")[k % 3]
    dim = 8
    sequence, label = _sequence(rng, kind, dim, k)
    doc = {"space": {"kind": "cube", "dim": dim}, "sequence": sequence,
           "run": {"seed": int(rng.integers(0, 2**31))}}
    return {"cls": "scenario_run", "args": ["scenario", "run", None], "doc": doc,
            "label": label}


def _bl_spec(rng, k: int) -> dict:
    dim = (1, 2, 3, 8)[k % 4]
    m = (10, 20, 30, 40)[k % 4]
    half = m // 2
    pts = [_pt(rng, dim) for _ in range(m)]
    doc = {"space": {"kind": "cube", "dim": dim},
           "mu": _atoms(pts[:half], _weights(rng, half)),
           "nu": _atoms(pts[half:], _weights(rng, m - half))}
    return {"cls": "bl", "args": ["bl", None, "--witness"], "doc": doc, "label": None}


def _form(rng, shape: str, point) -> dict:
    if shape == "tent":
        return {"kind": "tent", "point": point, "radius": float(rng.uniform(0.3, 1.0))}
    if shape == "dist":
        return {"kind": "clamp", "lo": -1.0, "hi": 1.0,
                "child": {"kind": "dist", "point": point}}
    return {"kind": "scale", "factor": float(rng.uniform(-1.0, 1.0)),
            "child": {"kind": "coord", "axis": 0}}


def _integrate_spec(rng, k: int) -> dict:
    atoms = int(rng.integers(2, 7))
    if k % 4 == 3:
        xy = rng.random((6, 2)) * 1.5
        dist = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=-1))
        space = {"kind": "finite", "labels": [f"q{i}" for i in range(6)],
                 "dist": dist.tolist()}
        points = [int(i) for i in rng.choice(6, size=min(atoms, 6), replace=False)]
        anchor = int(rng.integers(0, 6))
        doc = {"space": space, "measure": _atoms(points, _weights(rng, len(points))),
               "function": _form(rng, ("tent", "dist")[k // 4 % 2], anchor)}
    else:
        dim = 1 + k % 3
        points = [_pt(rng, dim) for _ in range(atoms)]
        doc = {"space": {"kind": "cube", "dim": dim},
               "measure": _atoms(points, _weights(rng, atoms))}
        if k % 2:
            doc["function"] = {"coords": [_form(rng, "tent", _pt(rng, dim)),
                                          _form(rng, "dist", _pt(rng, dim)),
                                          _form(rng, "coord", None)]}
            doc["target"] = CLI_TARGETS[1 + k // 4 % 2]
        else:
            doc["function"] = _form(rng, ("tent", "dist", "coord")[k // 2 % 3], _pt(rng, dim))
    return {"cls": "integrate", "args": ["integrate", None], "doc": doc, "label": None}


_CLI_BUILDERS = {"certify": _certify_spec, "scenario_run": _scenario_spec,
                 "bl": _bl_spec, "integrate": _integrate_spec}


def cli_mix_specs(seed: int, pass_index: int) -> list:
    """The commands of one pass, interleaved round-robin by command.

    Kinds, dimensions, targets and support sizes follow k, so every pass
    has the same shape and only the points, weights and seeds are drawn.
    In pass 0 the first op of each command is marked to be run again
    (untimed) for the byte-identical stdout check.
    """
    rng = _rng(seed, pass_index, 2)
    specs = []
    for k in range(max(count for _, count in CLI_MIX)):
        for cls, count in CLI_MIX:
            if k < count:
                spec = _CLI_BUILDERS[cls](rng, k)
                spec["repeat"] = k == 0 and pass_index == 0
                specs.append(spec)
    return specs


def run_cli(wc, argv: list) -> dict:
    """One in-process ``weakconv.cli.main`` call with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = wc.cli.main(argv)
    return {"code": code, "stdout": out.getvalue()}


def _cli_ops(wc, seed: int, pass_index: int, workdir: str) -> list:
    ops = []
    for i, spec in enumerate(cli_mix_specs(seed, pass_index)):
        path = os.path.join(workdir, f"op{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec["doc"], fh)
        argv = [path if a is None else a for a in spec["args"]]
        ops.append(Op(spec["cls"], spec, lambda argv=argv: run_cli(wc, argv),
                      lambda out: out, repeat=spec["repeat"]))
    return ops


_BUILDERS = {"suite-agreement": _suite_ops, "bl-ladder": _bl_ops, "cli-mix": _cli_ops}


def build_pass(wc, workload: str, seed: int, pass_index: int, workdir: str) -> list:
    """The ops of one pass, with their inputs built and files written."""
    return _BUILDERS[workload](wc, seed, pass_index, workdir)
