"""Command line front end.

Subcommands
-----------

* ``bl FILE``            exact bounded-Lipschitz distance of two measures
* ``integrate FILE``     certified integration of a function
* ``certify FILE``       convergence verdict for a measure sequence
* ``scenario run FILE``  oracle/battery agreement on a labeled scenario
* ``selftest``           structural invariants + bundled scenario suite

Exit codes encode the verdict where there is one: 0 for the positive
outcome (certified / convergent-evidence / selftest pass), 1 for the
established negative (not certified / divergent / selftest failure), 2
for inconclusive.  Malformed input and domain violations exit 64,
capacity overruns 65, internal failures 70.

Standard output is byte-deterministic for a fixed input and flag set;
the wall-clock note goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from .carrier import point_from_json, space_from_json
from .convergence import (DEFAULT_PREFIX, DEFAULT_TOL, Battery, BatterySpec,
                          Status, _scalar_members, _vector_members, certify,
                          equivalence_report)
from .errors import CapacityError, DomainError, UnsupportedError
from .funcs import ValidationDraws, form_from_json, vector_function
from .integral import integrability_report, integrate
from .measure import bl_distance, measure_from_json, scenario
from .suite import selftest, suite_targets
from .target import target_from_json

EX_OK, EX_NEGATIVE, EX_INCONCLUSIVE = 0, 1, 2
EX_DATAERR, EX_CAPACITY, EX_SOFTWARE = 64, 65, 70

_STATUS_EXIT = {Status.CONVERGENT_EVIDENCE: EX_OK, Status.DIVERGENT: EX_NEGATIVE,
                Status.INCONCLUSIVE: EX_INCONCLUSIVE}


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise DomainError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DomainError(f"top level of {path} must be a JSON object")
    return doc


def _need(doc: dict, key: str) -> dict:
    if key not in doc:
        raise DomainError(f"input needs a {key!r} field")
    return doc[key]


def _write_out(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _sequence_from_json(space, node) -> "MeasureFamily":
    if not isinstance(node, dict) or "kind" not in node:
        raise DomainError("sequence JSON needs a 'kind'")
    params = dict(node.get("params", {}))
    decoded = {"space": space}
    for key, value in params.items():
        if key in ("a", "b"):
            decoded[key] = point_from_json(space, value)
        elif key == "points":
            decoded[key] = [point_from_json(space, p) for p in value]
        elif key in ("law", "mu"):
            decoded[key] = measure_from_json(space, value)
        elif key in ("s0", "v"):
            if not isinstance(value, list):
                raise DomainError(f"sequence param {key!r} must be a list of numbers")
            decoded[key] = [_convert(float, x, key) for x in value]
        else:
            decoded[key] = value
    return scenario(node["kind"], decoded, seed=_convert(int, node.get("seed", 0), "seed"))


def _convert(kind, value, key: str):
    """``kind(value)``, with a malformed value reported as a ``DomainError``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{key!r} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}") from exc


def _run_knob(args, doc: dict, key: str, default):
    """CLI flag wins over the file's run block wins over the default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    run = doc.get("run", {})
    return run.get(key, default) if isinstance(run, dict) else default


def _battery_from_doc(space, doc: dict, seed: int, targets) -> Battery:
    spec = BatterySpec.from_json(doc["battery"]) if "battery" in doc else BatterySpec()
    # one validation draw and memo for every battery build of the command
    draws = ValidationDraws()
    scalars = _scalar_members(space, spec, seed, draws)
    vectors = []
    for k, target in enumerate(targets):
        vectors.extend(_vector_members(space, target, spec, seed + 1 + k, draws))
    return Battery(space=space, target=None, scalar_members=scalars,
                   vector_members=tuple(vectors))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_bl(args) -> int:
    doc = _load_json(args.file)
    space = space_from_json(_need(doc, "space"))
    mu = measure_from_json(space, _need(doc, "mu"))
    nu = measure_from_json(space, _need(doc, "nu"))
    res = bl_distance(mu, nu)
    print("# weakconv bl")
    print(f"value = {res.value!r}")
    print(f"support_size = {len(res.support)}")
    print(f"iterations = {res.iterations}")
    if args.witness:
        for point, value in res.witness():
            print(f"witness {point!r} -> {value!r}")
    if args.out:
        _write_out(args.out, json.dumps(
            {"value": res.value, "support": [list(p) if isinstance(p, tuple) else p
                                             for p in res.support],
             "witness": list(res.witness_values)}, indent=2) + "\n")
    return EX_OK


def cmd_integrate(args) -> int:
    doc = _load_json(args.file)
    space = space_from_json(_need(doc, "space"))
    mu = measure_from_json(space, _need(doc, "measure"))
    fn_node = _need(doc, "function")
    if isinstance(fn_node, dict) and "coords" in fn_node:
        target = target_from_json(_need(doc, "target"))
        forms = tuple(form_from_json(c, space) for c in fn_node["coords"])
        g = vector_function(space, target, forms, validate=False)
    else:
        g = form_from_json(fn_node, space)

    report = integrability_report(g, mu)
    print("# weakconv integrate")
    print(f"integrable = {report.integrable}")
    if not report.integrable:
        print(f"offending_atoms = {list(report.offending_atoms)}")
        print(f"level_integrals = {[float(v) for v in report.level_integrals]!r}")
        return EX_NEGATIVE
    cert = integrate(g, mu, doc.get("schedule"))
    print(f"value = {[float(v) for v in cert.value]!r}")
    print(f"certified = {cert.certified}")
    last = cert.rows[-1]
    print(f"final_pointwise_gap = {last.pointwise_gap!r} "
          f"(tolerance {cert.pointwise_tolerance!r})")
    for n, (gap, tol) in enumerate(zip(last.mean_gaps, cert.mean_tolerances), start=1):
        print(f"final_mean_gap[{n}] = {gap!r} (tolerance {tol!r})")
    if args.out:
        _write_out(args.out, cert.to_csv())
    return EX_OK if cert.certified else EX_NEGATIVE


def cmd_certify(args) -> int:
    doc = _load_json(args.file)
    space = space_from_json(_need(doc, "space"))
    family = _sequence_from_json(space, _need(doc, "sequence"))
    if "candidate" in doc:
        candidate = measure_from_json(space, doc["candidate"])
    elif family.label.reference is not None:
        candidate = family.label.reference
    else:
        raise DomainError("no candidate limit: add a 'candidate' measure "
                          "or use a labeled sequence kind")
    n_terms = _convert(int, _run_knob(args, doc, "n", DEFAULT_PREFIX), "n")
    tol = _convert(float, _run_knob(args, doc, "tol", DEFAULT_TOL), "tol")
    seed = _convert(int, _run_knob(args, doc, "seed", 0), "seed")
    normalize = bool(args.normalize or _run_knob(args, doc, "normalize", False))
    targets = [target_from_json(t) for t in doc.get("targets", [])]
    battery = _battery_from_doc(space, doc, seed, targets)

    verdict = certify(family, candidate, battery, n_terms=n_terms, tol=tol,
                      normalize_inputs=normalize)
    print(f"# weakconv certify | n={n_terms} tol={tol!r} seed={seed} "
          f"normalize={normalize}")
    print(f"sequence = {family.name}")
    print(f"status = {verdict.status.value}")
    print(f"window = {verdict.window_start}..{n_terms}")
    tail = max(verdict.bl_values[verdict.window_start - 1:])
    print(f"bl_tail_max = {tail!r}")
    for name, series, (lo, hi) in zip(verdict.member_names, verdict.gaps,
                                      verdict.thresholds):
        gap = max(series[verdict.window_start - 1:])
        print(f"member {name}: tail_max={gap!r} thresholds=({lo!r}, {hi!r})")
    if verdict.witness is not None:
        w = verdict.witness
        print(f"witness = member={w.member} n1={w.n1} n2={w.n2} gap={w.gap!r}")
    if args.out:
        _write_out(args.out, json.dumps(verdict.to_json(), indent=2) + "\n")
    return _STATUS_EXIT[verdict.status]


def cmd_scenario_run(args) -> int:
    doc = _load_json(args.file)
    space = space_from_json(_need(doc, "space"))
    family = _sequence_from_json(space, _need(doc, "sequence"))
    n_terms = _convert(int, _run_knob(args, doc, "n", DEFAULT_PREFIX), "n")
    tol = _convert(float, _run_knob(args, doc, "tol", DEFAULT_TOL), "tol")
    seed = _convert(int, _run_knob(args, doc, "seed", 0), "seed")
    if "targets" in doc:
        targets = [target_from_json(t) for t in doc["targets"]]
    else:
        targets = list(suite_targets())
    spec = BatterySpec.from_json(doc["battery"]) if "battery" in doc else None

    report = equivalence_report(family, targets, n_terms=n_terms, tol=tol,
                                seed=seed, spec=spec)
    print(f"# weakconv scenario run | n={n_terms} tol={tol!r} seed={seed}")
    print(f"sequence = {family.name}")
    print(f"label = {family.label.kind}")
    print(f"oracle = {report.oracle_status.value}")
    print(f"scalar_battery = {report.scalar_verdict.status.value}")
    for name, verdict in report.vector_verdicts:
        print(f"vector_battery[{name}] = {verdict.status.value}")
    print(f"agreement = {report.agreement}")
    if args.out:
        _write_out(args.out, json.dumps(report.to_json(), indent=2) + "\n")
    return _STATUS_EXIT[report.oracle_status]


def cmd_selftest(args) -> int:
    report = selftest(seed=args.seed, quick=args.quick)
    print(report.render())
    return EX_OK if report.ok else EX_NEGATIVE


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakconv",
        description="Certified weak convergence of atomic measures on "
                    "compact carriers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bl", help="bounded-Lipschitz distance of two measures")
    p.add_argument("file", help="JSON with 'space', 'mu', 'nu'")
    p.add_argument("--witness", action="store_true",
                   help="print the optimal test function on the support")
    p.add_argument("--out", help="write the result as JSON")
    p.set_defaults(func=cmd_bl)

    p = sub.add_parser("integrate", help="certified integral of a function")
    p.add_argument("file", help="JSON with 'space', 'measure', 'function' "
                                "(and 'target' for vector functions)")
    p.add_argument("--out", help="write the certificate table as CSV")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("certify", help="convergence verdict for a sequence")
    p.add_argument("file", help="JSON with 'space', 'sequence' and options")
    p.add_argument("--n", type=int, help="prefix length (default 64)")
    p.add_argument("--tol", type=float, help="tolerance (default 0.05)")
    p.add_argument("--seed", type=int, help="battery seed (default 0)")
    p.add_argument("--normalize", action="store_true",
                   help="admit finite measures by normalizing (the total-mass "
                        "gap joins the battery)")
    p.add_argument("--out", help="write the verdict as JSON")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("scenario", help="labeled scenario harnesses")
    ssub = p.add_subparsers(dest="scenario_command", required=True)
    r = ssub.add_parser("run", help="oracle/battery agreement on a scenario file")
    r.add_argument("file")
    r.add_argument("--n", type=int)
    r.add_argument("--tol", type=float)
    r.add_argument("--seed", type=int)
    r.add_argument("--out", help="write the report as JSON")
    r.set_defaults(func=cmd_scenario_run)

    p = sub.add_parser("selftest", help="invariant suites and bundled scenarios")
    p.add_argument("--quick", action="store_true",
                   help="skip the scenario agreement table")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
    except (DomainError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EX_DATAERR
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EX_CAPACITY
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        code = EX_SOFTWARE
    print(f"# wall-clock {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
