"""Run one pass of one workload in a fresh interpreter.

Started by ``run.py`` once per pass, so every pass pays the import and
input set-up a user pays, and no in-process cache outlives a pass.  The
worker imports weakconv from the checkout's ``src/``, builds the pass's
inputs, times each op, then (untimed) summarises outputs for the checkers
and writes everything to ``--out`` as a pickle.

    python3 benchmarks/worker.py --workload W --seed S --pass K --trace 0|1 --out FILE
"""

from __future__ import annotations

import argparse
import pickle
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_weakconv():
    sys.path.insert(0, str(ROOT / "src"))
    import weakconv
    import weakconv.cli  # noqa: F401  (the cli module is not imported by the package)
    if Path(weakconv.__file__).resolve().parent != ROOT / "src" / "weakconv":
        raise SystemExit(f"weakconv imported from {weakconv.__file__}, not from the checkout")
    return weakconv


def run_pass(wc, workload: str, seed: int, pass_index: int, workdir: Path,
             tracer=None) -> dict:
    """Build and time one pass in ``workdir`` (removed after); returns the pass record."""
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if tracer is not None:
            tracer.install()
        try:
            ops = workloads.build_pass(wc, workload, seed, pass_index, str(workdir))
            ready = time.monotonic()
            timed = []
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = i
                start = time.perf_counter()
                try:
                    result, error = op.call(), None
                except Exception as exc:  # an op that raises is a failed op
                    result, error = None, repr(exc)
                timed.append((result, error, time.perf_counter() - start))
        finally:
            if tracer is not None:
                tracer.op = -1
                tracer.uninstall()
        records = []
        for op, (result, error, latency) in zip(ops, timed):
            output = None
            if error is None:
                output = op.summarize(result)
                if op.repeat:
                    output["repeat_stdout"] = op.call()["stdout"]
            records.append({"cls": op.cls, "spec": op.spec, "latency": latency,
                            "error": error, "output": output})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"ready": ready, "ops": records,
            "trace": tracer.export() if tracer is not None else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    wc = _import_weakconv()
    tracer = Tracer() if args.trace else None
    # beside --out, so run.py removes it even if this process is killed
    workdir = Path(args.out).with_suffix(".work")
    record = run_pass(wc, args.workload, args.seed, args.pass_index, workdir, tracer)
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "wb") as fh:
        pickle.dump(record, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
