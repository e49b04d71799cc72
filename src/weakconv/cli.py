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
capacity overruns 65, internal failures 70.  A form read from a document
whose values break its declared bound or Lipschitz constant is a domain
violation: ``integrate`` checks the function it certifies.  An ``--out``
file that cannot be written (a missing directory, a directory, no
permission) exits 64 with ``cannot write PATH: ...``; the file is
written before anything is printed, so a failed write leaves standard
output empty.  A computed answer that fails its own certificate check (a
``CertificateError``: a BL plan and witness that do not check, a
divergence witness that a fresh per-term evaluation does not reproduce,
or a battery member whose window gap exceeds max(B, L) times the BL
distance) exits 3, with no verdict printed.  A reader that closes
standard output early (``weakconv bl FILE --witness | head``) ends the
command with exit 141, 128 + SIGPIPE, as a shell reports a process that
SIGPIPE stopped; the rest of the output is discarded.

Standard output is byte-deterministic for a fixed input and flag set;
the wall-clock note goes to standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Optional, Sequence

from .carrier import (choice, integer, items, known, need, number, numbers, point_from_json,
                      point_to_json, space_from_json)
from .convergence import (DEFAULT_PREFIX, DEFAULT_TOL, MAX_PREFIX, Battery, BatterySpec,
                          Status, battery_members, certify, equivalence_report)
from .errors import CapacityError, CertificateError, DomainError, UnsupportedError
from .funcs import VectorFunction, form_from_json
from .integral import integrability_report, integrate
from .measure import bl_distance, measure_from_json, scenario
from .suite import AGREEMENT_SEED_OFFSET, bundled_suite, selftest, suite_targets
from .target import target_from_json

EX_OK, EX_NEGATIVE, EX_INCONCLUSIVE, EX_CERTIFICATE = 0, 1, 2, 3
EX_DATAERR, EX_CAPACITY, EX_SOFTWARE = 64, 65, 70
EX_PIPE = 141  # 128 + SIGPIPE

_STATUS_EXIT = {Status.CONVERGENT_EVIDENCE: EX_OK, Status.DIVERGENT: EX_NEGATIVE,
                Status.INCONCLUSIVE: EX_INCONCLUSIVE}


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise DomainError(f"no such file: {path}") from exc
    except OSError as exc:  # a directory, a file without read permission
        raise DomainError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an integer of over 4300 digits
        raise DomainError(f"invalid JSON in {path}: {exc}") from exc
    return doc  # each command's first field read checks that it is an object


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a missing directory, a directory, no write permission
        raise DomainError(f"cannot write {path}: {exc.strerror}") from exc


def _sequence_from_json(space, node) -> "MeasureFamily":
    known(node, ("kind", "params", "seed"), "sequence")
    kind = need(node, "kind", "sequence")
    params = node.get("params", {})
    if not isinstance(params, dict):
        raise DomainError(f"sequence 'params' must be a JSON object, got {params!r}")
    decoded = {"space": space}
    for key, value in params.items():
        if key in ("a", "b"):
            decoded[key] = point_from_json(space, value)
        elif key == "points":
            decoded[key] = [point_from_json(space, p) for p in items(value, "'points'")]
        elif key in ("law", "mu"):
            decoded[key] = measure_from_json(space, value)
        elif key in ("s0", "v"):
            decoded[key] = numbers(value, f"sequence param {key!r}")
        else:
            decoded[key] = value
    return scenario(kind, decoded, seed=_seed(node.get("seed", 0)))


def _seed(value, derived: int = 0) -> int:
    """A seed: a non-negative integer, as every random stream needs.

    A command keys Philox streams with seeds up to ``seed + derived``,
    and a Philox key lies below 2**128.
    """
    seed = integer(value, "'seed'", lo=0)
    if seed + derived >= 2 ** 128:
        bound = f"2**128 - {derived}" if derived else "2**128"
        raise DomainError(f"'seed' must be below {bound}, got {value!r}")
    return seed


def _run_knob(args, run: dict, key: str, default):
    """CLI flag wins over the file's run block wins over the default."""
    flag = getattr(args, key, None)
    return run.get(key, default) if flag is None else flag


def _sequence_doc(args, fields: tuple, knobs: tuple) -> tuple:
    """A certify or scenario file: the document (which may have only the
    ``fields`` the command reads), its run block (which may set only the
    ``knobs`` the command reads), carrier, sequence, n and tol."""
    doc = known(_load_json(args.file), fields, f"{args.command} document")
    space = space_from_json(need(doc, "space"))
    family = _sequence_from_json(space, need(doc, "sequence"))
    run = doc.get("run", {})
    if not isinstance(run, dict):
        raise DomainError(f"'run' must be a JSON object, got {run!r}")
    unread = [key for key in run if key not in knobs]
    if unread:
        raise DomainError(f"'run' has no {unread[0]!r} setting for this command; "
                          f"it reads {', '.join(map(repr, knobs))}")
    return (doc, run, space, family,
            integer(_run_knob(args, run, "n", DEFAULT_PREFIX), "'n'", cap=MAX_PREFIX),
            number(_run_knob(args, run, "tol", DEFAULT_TOL), "'tol'"))


def _targets(doc: dict) -> list:
    return [target_from_json(t) for t in items(doc.get("targets", []), "'targets'")]


def _battery_from_doc(space, doc: dict, seed: int, targets) -> Battery:
    spec = BatterySpec.from_json(doc["battery"], targets) if "battery" in doc else BatterySpec()
    # target k's vector members are keyed by seed + 1 + k
    scalars, vectors = battery_members(space, spec, seed,
                                       [(target, seed + 1 + k) for k, target in enumerate(targets)])
    return Battery(space=space, target=None, scalar_members=scalars,
                   vector_members=sum(vectors, ()))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_bl(args) -> int:
    doc = known(_load_json(args.file), ("space", "mu", "nu"), "bl document")
    space = space_from_json(need(doc, "space"))
    mu = measure_from_json(space, need(doc, "mu"))
    nu = measure_from_json(space, need(doc, "nu"))
    res = bl_distance(mu, nu)
    if args.out:
        _write_out(args.out, json.dumps(
            {"value": res.value, "support": [point_to_json(p) for p in res.support],
             "witness": list(res.witness_values)}, indent=2) + "\n")
    print("# weakconv bl")
    print(f"value = {res.value!r}")
    print(f"support_size = {len(res.support)}")
    print(f"iterations = {res.iterations}")
    if args.witness:
        for point, value in res.witness():
            print(f"witness {point!r} -> {value!r}")
    return EX_OK


def cmd_integrate(args) -> int:
    doc = known(_load_json(args.file), ("space", "measure", "function", "target", "schedule"),
                "integrate document")
    space = space_from_json(need(doc, "space"))
    mu = measure_from_json(space, need(doc, "measure"))
    fn_node = need(doc, "function")
    if isinstance(fn_node, dict) and "coords" in fn_node:
        known(fn_node, ("coords",), "vector function")
        target = target_from_json(need(doc, "target"))
        forms = tuple(form_from_json(c, space) for c in items(fn_node["coords"], "'coords'"))
        g = VectorFunction(space=space, target=target, forms=forms)  # integrate checks it
    elif "target" in doc:
        raise DomainError("integrate document with a scalar function has no 'target' "
                          "field; a vector function gives 'coords'")
    else:
        g = form_from_json(fn_node, space)
    if space.kind == "finite" and "schedule" in doc:
        raise DomainError("integrate document on a finite carrier has no 'schedule' "
                          "field; a finite carrier is integrated on its own points")
    schedule = doc.get("schedule")
    if schedule is not None:
        schedule = numbers(schedule, "'schedule'")

    report = integrability_report(g, mu)
    # a bad schedule, a grid past its cap or broken metadata fails here,
    # before any output
    cert = integrate(g, mu, schedule) if report.integrable else None
    if args.out:
        if cert is not None:
            _write_out(args.out, cert.to_csv())
        else:
            print(f"no table written to {args.out}: the function is not integrable",
                  file=sys.stderr)
    print("# weakconv integrate")
    print(f"integrable = {report.integrable}")
    if cert is None:
        print(f"offending_atoms = {list(report.offending_atoms)}")
        print(f"level_integrals = {[float(v) for v in report.level_integrals]!r}")
        return EX_NEGATIVE
    print(f"value = {[float(v) for v in cert.value]!r}")
    print(f"certified = {cert.certified}")
    last = cert.rows[-1]
    print(f"final_pointwise_gap = {last.pointwise_gap!r} "
          f"(tolerance {cert.pointwise_tolerance!r})")
    for n, (gap, tol) in enumerate(zip(last.mean_gaps, cert.mean_tolerances), start=1):
        print(f"final_mean_gap[{n}] = {gap!r} (tolerance {tol!r})")
    return EX_OK if cert.certified else EX_NEGATIVE


def cmd_certify(args) -> int:
    doc, run, space, family, n_terms, tol = _sequence_doc(
        args, ("space", "sequence", "run", "candidate", "targets", "battery"),
        ("n", "tol", "seed", "normalize"))
    if "candidate" in doc:
        candidate = measure_from_json(space, doc["candidate"])
    elif family.label.reference is not None:
        candidate = family.label.reference
    else:
        raise DomainError("no candidate limit: add a 'candidate' measure "
                          "or use a labeled sequence kind")
    targets = _targets(doc)
    # target k's vector members are keyed by seed + 1 + k
    seed = _seed(_run_knob(args, run, "seed", 0), derived=len(targets))
    normalize = choice(_run_knob(args, run, "normalize", False), (True, False), "'normalize'")
    battery = _battery_from_doc(space, doc, seed, targets)

    verdict = certify(family, candidate, battery, n_terms=n_terms, tol=tol,
                      normalize_inputs=normalize)
    if args.out:
        _write_out(args.out, json.dumps(verdict.to_json(), indent=2) + "\n")
    print(f"# weakconv certify | n={n_terms} tol={tol!r} seed={seed} "
          f"normalize={normalize}")
    print(f"sequence = {family.name}")
    print(f"status = {verdict.status.value}")
    print(f"window = {verdict.window_start}..{n_terms}")
    print(f"bl_tail_max = {max(verdict.window_bl)!r}")
    for name, series, (lo, hi) in zip(verdict.member_names, verdict.window_gaps,
                                      verdict.thresholds):
        gap = max(series)
        print(f"member {name}: tail_max={gap!r} thresholds=({lo!r}, {hi!r})")
    if verdict.witness is not None:
        w = verdict.witness
        print(f"witness = member={w.member} n1={w.n1} n2={w.n2} gap={w.gap!r}")
    return _STATUS_EXIT[verdict.status]


def cmd_scenario_run(args) -> int:
    doc, run, space, family, n_terms, tol = _sequence_doc(
        args, ("space", "sequence", "run", "targets", "battery"), ("n", "tol", "seed"))
    seed = _seed(_run_knob(args, run, "seed", 0))
    targets = _targets(doc) if "targets" in doc else list(suite_targets())
    spec = BatterySpec.from_json(doc["battery"], targets) if "battery" in doc else None

    report = equivalence_report(family, targets, n_terms=n_terms, tol=tol,
                                seed=seed, spec=spec)
    if args.out:
        _write_out(args.out, json.dumps(report.to_json(), indent=2) + "\n")
    print(f"# weakconv scenario run | n={n_terms} tol={tol!r} seed={seed}")
    print(f"sequence = {family.name}")
    print(f"label = {family.label.kind}")
    print(f"oracle = {report.oracle_status.value}")
    print(f"scalar_battery = {report.scalar_verdict.status.value}")
    for name, verdict in report.vector_verdicts:
        print(f"vector_battery[{name}] = {verdict.status.value}")
    print(f"agreement = {report.agreement}")
    return _STATUS_EXIT[report.oracle_status]


def cmd_selftest(args) -> int:
    # scenario i of the agreement table is keyed by seed + AGREEMENT_SEED_OFFSET + i
    derived = 0 if args.quick else AGREEMENT_SEED_OFFSET + len(bundled_suite()) - 1
    report = selftest(seed=_seed(args.seed, derived), quick=args.quick)
    print(report.render())
    return EX_OK if report.ok else EX_NEGATIVE


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    A subcommand names its function, which ``main`` looks up when it runs,
    so a command rebound after the parser was built is the one called.
    """
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
    p.set_defaults(command_fn="cmd_bl")

    p = sub.add_parser("integrate", help="certified integral of a function")
    p.add_argument("file", help="JSON with 'space', 'measure', 'function' "
                                "(and 'target' for vector functions)")
    p.add_argument("--out", help="write the certificate table as CSV")
    p.set_defaults(command_fn="cmd_integrate")

    p = sub.add_parser("certify", help="convergence verdict for a sequence")
    p.add_argument("file", help="JSON with 'space', 'sequence' and options")
    p.add_argument("--n", type=int, help="prefix length (default 64)")
    p.add_argument("--tol", type=float, help="tolerance (default 0.05)")
    p.add_argument("--seed", type=int, help="battery seed (default 0)")
    p.add_argument("--normalize", action="store_true", default=None,
                   help="admit finite measures (the constant 1 joins the "
                        "battery as total_mass)")
    p.add_argument("--out", help="write the verdict as JSON")
    p.set_defaults(command_fn="cmd_certify")

    p = sub.add_parser("scenario", help="labeled scenario harnesses")
    ssub = p.add_subparsers(dest="scenario_command", required=True)
    r = ssub.add_parser("run", help="oracle/battery agreement on a scenario file")
    r.add_argument("file")
    r.add_argument("--n", type=int)
    r.add_argument("--tol", type=float)
    r.add_argument("--seed", type=int)
    r.add_argument("--out", help="write the report as JSON")
    r.set_defaults(command_fn="cmd_scenario_run")

    p = sub.add_parser("selftest", help="invariant suites and bundled scenarios")
    p.add_argument("--quick", action="store_true",
                   help="skip the scenario agreement table")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(command_fn="cmd_selftest")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = globals()[args.command_fn](args)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
    except BrokenPipeError:
        # the recipe of Python's signal docs: stdout goes to devnull, so the
        # flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EX_PIPE
    except (DomainError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EX_DATAERR
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EX_CAPACITY
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EX_CERTIFICATE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        code = EX_SOFTWARE
    print(f"# wall-clock {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
