"""Per-layer metrics from the spans of a traced run.

Work counts and times are per pass (units ``count/pass`` and ``s/pass``),
so they compare across commits however many passes fit in a run.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import numpy as np

# span name -> which of calls / time_s / self_s are reported
SPAN_METRICS = (
    ("convergence.integral_gap", ("calls", "time_s")),
    ("integral.atomic_oracle", ("calls", "time_s")),
    ("target.gap_value", ("calls", "time_s")),
    ("funcs.validate_metadata", ("calls", "time_s")),
    ("convergence.generate_battery", ("calls", "time_s", "self_s")),
    ("measure.prefix", ("calls", "time_s")),
    ("simplex.solve_max", ("calls", "time_s")),
    ("measure.bl_distance", ("calls", "time_s", "self_s")),
    ("carrier.distance", ("calls",)),
    ("integral.integrate", ("calls", "time_s")),
    ("integral.integrability_report", ("calls", "time_s")),
    ("convergence.certify", ("calls", "time_s", "self_s")),
    ("convergence.equivalence_report", ("calls", "time_s")),
    ("suite.bundled_suite", ("time_s",)),
    ("cli.main", ("self_s",)),
)
BL_CLASSES = ("m25", "m50", "m100", "finite64")
CLI_COMMANDS = ("bl", "certify", "integrate", "scenario_run")
_UNITS = {"calls": "count/pass", "time_s": "s/pass", "self_s": "s/pass"}

# every per-layer metric with its unit, in report order
METRICS = (
    [(f"{span}.{kind}", _UNITS[kind]) for span, kinds in SPAN_METRICS for kind in kinds]
    + [("measure.prefix_builds_per_report", "ratio"),
       ("simplex.pivots", "count/pass"),
       ("simplex.tableau_mb_computed", "MB")]
    + [(f"measure.bl_distance.{cls}.p50_ms", "ms") for cls in BL_CLASSES]
    + [(f"cli.cmd_{cmd}.p50_ms", "ms") for cmd in CLI_COMMANDS]
    + [("measure.bl_distance.errors", "count"),
       ("cli.exit_70.count", "count"),
       ("trace.overhead_share", "ratio")]
)


def _pass_spans(trace: dict, op_classes: list) -> dict:
    names = np.asarray(trace["name_ids"], dtype=np.int64)
    parents = np.asarray(trace["parents"], dtype=np.int64)
    dur = np.asarray(trace["ends"]) - np.asarray(trace["starts"])
    nested = parents >= 0
    child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
    ops = np.asarray(trace["ops"], dtype=np.int64)
    classes = np.array([op_classes[i] if i >= 0 else "" for i in ops], dtype=object)
    return {"name": names, "dur": dur, "self": dur - child, "cls": classes,
            "raised": np.asarray(trace["raised"], dtype=bool)}


def _median_ms(values: np.ndarray) -> float:
    return float(np.median(values)) * 1000.0 if len(values) else 0.0


def op_time(passes: list) -> float:
    """Total op latency over the passes, in seconds."""
    return sum(op["latency"] for p in passes for op in p["ops"])


def layer_metrics(plain: list, traced: list) -> dict:
    """Per-layer metrics from paired passes (same inputs, untraced and traced)."""
    names = traced[0]["trace"]["names"]
    ident = {name: i for i, name in enumerate(names)}
    parts = [_pass_spans(p["trace"], [op["cls"] for op in p["ops"]]) for p in traced]
    spans = {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
    n_pass = len(traced)

    def of(name):
        return spans["name"] == ident[name]

    out = {}
    for span, kinds in SPAN_METRICS:
        sel = of(span)
        values = {"calls": float(sel.sum()), "time_s": float(spans["dur"][sel].sum()),
                  "self_s": float(spans["self"][sel].sum())}
        for kind in kinds:
            out[f"{span}.{kind}"] = values[kind] / n_pass
    reports = out["convergence.equivalence_report.calls"]
    out["measure.prefix_builds_per_report"] = (
        out["measure.prefix.calls"] / reports if reports else 0.0)
    out["simplex.pivots"] = sum(p["trace"]["pivots"] for p in traced) / n_pass
    out["simplex.tableau_mb_computed"] = max(p["trace"]["tableau_mb"] for p in traced)
    bl = of("measure.bl_distance")
    for cls in BL_CLASSES:
        out[f"measure.bl_distance.{cls}.p50_ms"] = _median_ms(
            spans["dur"][bl & (spans["cls"] == cls)])
    for cmd in CLI_COMMANDS:
        out[f"cli.cmd_{cmd}.p50_ms"] = _median_ms(spans["dur"][of(f"cli.cmd_{cmd}")])
    out["measure.bl_distance.errors"] = float((bl & spans["raised"]).sum())
    out["cli.exit_70.count"] = float(sum(
        1 for p in plain + traced for op in p["ops"]
        if isinstance(op["output"], dict) and op["output"].get("code") == 70))
    out["trace.overhead_share"] = op_time(traced) / op_time(plain) - 1.0
    return out


def save_spans(path, traced: list) -> None:
    """Write every span of the traced passes to one compressed ``.npz`` file."""
    columns = {key: [] for key in ("pass_index", "name_id", "parent", "op", "start", "end",
                                   "raised")}
    for k, p in enumerate(traced):
        t = p["trace"]
        columns["pass_index"].append(np.full(len(t["starts"]), k, dtype=np.int32))
        for key, src in (("name_id", "name_ids"), ("parent", "parents"), ("op", "ops"),
                         ("start", "starts"), ("end", "ends"), ("raised", "raised")):
            columns[key].append(np.asarray(t[src]))
    np.savez_compressed(path, names=np.array(traced[0]["trace"]["names"]),
                        **{key: np.concatenate(parts) for key, parts in columns.items()})
