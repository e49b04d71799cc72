"""weakconv benchmark: one workload, one seed, end to end or traced.

    python3 benchmarks/run.py --workload suite-agreement --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each workload is a single closed-loop client with no think time: a desk
user runs a command and waits for the verdict.  Every pass runs in a
fresh interpreter (``worker.py``).  A run makes as many passes as fill
``--seconds`` at the workload's nominal pass time (``NOMINAL_PASS_S``), so
both commits of a comparison time the same inputs.

``--trace 0`` reports the end-to-end metrics:

* ``ops_per_s``        successful ops / total op time
* ``latency_p50_ms``   median op latency
* ``latency_tail_ms``  the highest percentile with ten samples beyond it,
                       i.e. the 11th-largest latency (percentile and
                       sample count are printed beside it)
* ``setup_s``          fresh interpreter to first timed op (import weakconv
                       and build the pass's inputs), median over passes
* ``peak_rss_mb``      largest ``ru_maxrss`` among the pass processes

``failed_share`` (failed ops / ops attempted) and the median latency of
each op class (for cli-mix, of each command) are printed too; an op fails
if it raises or if its output fails its checker (``checks.py``).

Passes stop at a time limit of ``time_limit()``; a run cut there reports
the passes that finished, so a large regression shows as measured figures,
not as an error.  Only a run in which no pass finished exits 1.

``--trace 1`` runs each pass twice, untraced and then traced, and reports
the per-layer metrics of ``layers.py`` plus ``trace.overhead_share``.
The spans are written to ``benchmarks/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CHECKERS
from layers import METRICS as LAYER_METRICS, layer_metrics, op_time, save_spans
from workloads import NOMINAL_PASS_S, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_LIMIT_S = 160.0  # passes stop by then at least; checks and the report follow
SLOWDOWN_ALLOWED = 3  # or at this many times the planned pass time, if longer
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class PassCut(BenchError):
    """A pass was stopped, or not started, at the run's time limit."""


def run_worker(args, pass_index: int, traced: bool, scratch: Path, deadline: float) -> dict:
    out = scratch / f"pass{pass_index}-{int(traced)}.pkl"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--pass", str(pass_index),
           "--trace", str(int(traced)), "--out", str(out)]
    t0 = time.monotonic()
    if deadline - t0 < 1.0:
        raise PassCut(f"pass {pass_index} not started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=deadline - t0)
    except subprocess.TimeoutExpired as exc:
        raise PassCut(f"pass {pass_index} stopped") from exc
    if proc.returncode != 0 or not out.exists():
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"pass {pass_index} worker exited {proc.returncode}: {tail}")
    with open(out, "rb") as fh:
        record = pickle.load(fh)
    record["setup_s"] = record["ready"] - t0
    return record


def pass_count(workload: str, seconds: float, trace: int) -> int:
    """Passes that fill ``seconds`` at the workload's nominal pass time.

    Fixing the count (rather than stopping on the clock) gives every commit
    the same inputs and the same op mix, so percentiles compare.  A traced
    run makes each pass twice.
    """
    return max(1, round(seconds / (NOMINAL_PASS_S[workload] * (2 if trace else 1))))


def time_limit(workload: str, seconds: float, trace: int) -> float:
    """Seconds after which no pass runs on: a run may be this much slower than planned."""
    planned = (pass_count(workload, seconds, trace) * NOMINAL_PASS_S[workload]
               * (2 if trace else 1))
    return max(MIN_LIMIT_S, SLOWDOWN_ALLOWED * planned)


def check_ops(workload: str, passes: list) -> list:
    """Run the workload's checker on every op; one list of problems per op."""
    checker = CHECKERS[workload]
    for p in passes:
        for op in p["ops"]:
            if op["error"] is not None:
                op["problems"] = [f"raised {op['error']}"]
                continue
            try:
                op["problems"] = checker(op["spec"], op["output"])
            except Exception as exc:  # a malformed output fails its op
                op["problems"] = [f"checker could not read the output: {exc!r}"]
    return [op for p in passes for op in p["ops"]]


def tail_latency(latencies: list) -> tuple:
    """(value, percentile): the order statistic with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(passes: list) -> tuple:
    ops = [op for p in passes for op in p["ops"]]
    latencies = [op["latency"] for op in ops]
    ok = sum(1 for op in ops if not op["problems"])
    tail, pct = tail_latency(latencies)
    metrics = {
        "ops_per_s": (ok / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "latency_tail_ms": (tail * 1000.0, "ms"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
    }
    by_class: dict = {}
    for op in ops:
        by_class.setdefault(op["cls"], []).append(op["latency"])
    notes = {
        "latency_p50_ms": "by op class: " + ", ".join(
            f"{cls} {statistics.median(v) * 1000.0:.1f}" for cls, v in by_class.items()),
        "ops_per_s": "op time per pass " + ", ".join(
            f"{sum(op['latency'] for op in p['ops']):.2f}" for p in passes),
        "latency_tail_ms": f"p{pct:.1f} of {len(latencies)} ops, {TAIL_BEYOND} beyond",
        "setup_s": "median of " + ", ".join(f"{p['setup_s']:.3f}" for p in passes),
        "peak_rss_mb": "max of " + ", ".join(f"{p['rss_mb']:.0f}" for p in passes),
    }
    return metrics, notes


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved ({name})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = {var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas["library"] = f"{dep['name']} {dep.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas["library"] = "unknown"
    try:
        from threadpoolctl import threadpool_info
        blas["pools"] = [f"{p['internal_api']}:{p['num_threads']}" for p in threadpool_info()]
    except ImportError:
        blas["pools"] = "threadpoolctl not installed"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "blas_threads": blas, "commit": _git_commit(),
            "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "weakconv" / "__init__.py").is_file():
        print(f"error: no weakconv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    planned = pass_count(args.workload, args.seconds, args.trace)
    limit = time_limit(args.workload, args.seconds, args.trace)
    deadline = time.monotonic() + limit
    scratch = HERE / "out" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    plain, traced, cut = [], [], None
    try:
        for k in range(planned):
            record = run_worker(args, k, False, scratch, deadline)
            if args.trace:
                traced.append(run_worker(args, k, True, scratch, deadline))
            plain.append(record)
    except PassCut as exc:
        cut = f"{exc} at the time limit of {limit:.0f} s"
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not plain:
        print(f"error: no pass finished: {cut}", file=sys.stderr)
        return 1

    checked = check_ops(args.workload, plain + traced)
    failed = [op for op in checked if op["problems"]]
    print(f"# weakconv benchmark | workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={len(plain)} of {planned}"
          + (" (traced and untraced each)" if args.trace else ""))
    print(f"# env {json.dumps(environment(args.seed), sort_keys=True)}")
    if cut:
        print(f"# cut short: {cut}; figures are from the passes that finished")
    print(f"ops {len(checked)}, failed {len(failed)}, "
          f"failed_share {len(failed) / len(checked):.4f}")
    for op in failed[:20]:
        print(f"FAILED {op['cls']}: {'; '.join(op['problems'])}")

    if args.trace:
        values = layer_metrics(plain, traced)
        metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
        per_pass = op_time(traced) / len(traced)
        notes = {name: f"{100.0 * value / per_pass:.1f}% of traced op time"
                 for name, (value, unit) in metrics.items() if unit == "s/pass"}
        absent = traced[0]["trace"]["absent"]
        if absent:
            print(f"# not defined in this checkout, so not traced: {', '.join(absent)}")
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.npz"
        save_spans(spans_path, traced)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(plain)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:45} {value:14.6f} {unit}{note}")
    print(json.dumps({"correct": not failed, "attempted": len(checked),
                      "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
