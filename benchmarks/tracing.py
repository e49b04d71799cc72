"""Span tracing around weakconv's public functions, from outside the package.

The tracer replaces every binding of a wrapped function in every loaded
``weakconv`` module (the defining module, the package namespace and each
module that imported the name), so a call site cannot slip past it; the
benchmark's own tests check this with exact call counts.  Two methods are
wrapped on their classes: ``CompactSpace.distance`` and
``MeasureFamily.prefix``.  A wrapped name that the checked-out program no
longer defines (say, after a layer is removed) is skipped and listed in
``Tracer.absent``; its metrics then read 0.

Each wrapped call records a span (name, start, end, parent span, op id)
into flat in-memory arrays; nothing is written until the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (layer, attribute) pairs; "Class.method" entries are patched on the class
WRAPPED = (
    ("carrier", "CompactSpace.distance"),
    ("funcs", "validate_metadata"),
    ("target", "gap_value"),
    ("measure", "bl_distance"),
    ("measure", "MeasureFamily.prefix"),
    ("simplex", "solve_max"),
    ("integral", "atomic_oracle"),
    ("integral", "integrate"),
    ("integral", "integrability_report"),
    ("convergence", "integral_gap"),
    ("convergence", "generate_battery"),
    ("convergence", "certify"),
    ("convergence", "equivalence_report"),
    ("suite", "bundled_suite"),
    ("cli", "main"),
    ("cli", "cmd_bl"),
    ("cli", "cmd_certify"),
    ("cli", "cmd_integrate"),
    ("cli", "cmd_scenario_run"),
)


class Tracer:
    """Records nested spans of wrapped calls for one process."""

    def __init__(self):
        # "measure.MeasureFamily.prefix" is recorded as "measure.prefix"
        self.names = [f"{layer}.{attr.rsplit('.', 1)[-1]}" for layer, attr in WRAPPED]
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.raised = array("b")
        self.absent = []      # wrapped names this checkout does not define
        self.op = -1          # id of the op in progress; -1 outside ops
        self.pivots = 0       # simplex pivots, summed over solve_max results
        self.tableau_mb = 0.0  # largest dense tableau, computed from shapes
        self._stack = [-1]
        self._restore = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name_id: int, fn):
        name_ids, parents, ops = self.name_ids, self.parents, self.ops
        starts, ends, raised, stack = self.starts, self.ends, self.raised, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ops.append(tracer.op)
            raised.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _wrap_solver(self, name_id: int, fn):
        """Also count pivots and the dense tableau size, where the solver exposes them."""
        tracer = self

        def observed(*args, **kwargs):
            sol = fn(*args, **kwargs)
            shape = np.shape(args[1] if len(args) > 1 else kwargs.get("a"))
            if len(shape) == 2:
                rows, cols = shape
                tracer.tableau_mb = max(tracer.tableau_mb,
                                        (rows + 1) * (cols + 1) * 8 / 2**20)
            iterations = getattr(sol, "iterations", None)
            if isinstance(iterations, int):
                tracer.pivots += iterations
            return sol

        return self._wrap(name_id, observed)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every wrapped name in all loaded weakconv modules."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "weakconv" or key.startswith("weakconv."))]
        for name_id, (layer, attr) in enumerate(WRAPPED):
            home = sys.modules.get(f"weakconv.{layer}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                original = vars(cls).get(meth) if isinstance(cls, type) else None
                if not callable(original):
                    self.absent.append(self.names[name_id])
                    continue
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name_id, original))
                continue
            original = getattr(home, attr, None)
            if not callable(original):
                self.absent.append(self.names[name_id])
                continue
            wrapper = (self._wrap_solver(name_id, original) if attr == "solve_max"
                       else self._wrap(name_id, original))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def export(self) -> dict:
        """The recorded spans and solver counters, ready to pickle."""
        return {"names": list(self.names), "absent": list(self.absent),
                "name_ids": self.name_ids,
                "parents": self.parents, "ops": self.ops, "starts": self.starts,
                "ends": self.ends, "raised": self.raised, "pivots": self.pivots,
                "tableau_mb": self.tableau_mb}
