"""Closed-form test functions with certified bound and Lipschitz metadata.

Scalar functions on a carrier are built from a small expression
vocabulary: constants, coordinate projections, distance-to-point, tent
bumps, McShane forms min_i(v_i + L * rho(s, s_i)), clamping, finite sums
and scalar multiples.  Every node knows a valid (possibly loose) upper
bound B on |f| and a Lipschitz constant L, computed bottom-up, so
integral gap bounds downstream never rely on sampling.

A step form (an indicator of a coordinate half-space) is also
constructible.  It is deliberately discontinuous and excluded from the
continuous vocabulary; it exists so that negative tests can exercise the
failure paths of the integral construction.

Vector-valued functions into a target space are tuples of scalar forms,
one per coordinate of the target.

``validate_metadata`` checks the declared metadata of forms, one form
at a time: exhaustively on a finite carrier (every point and every
pair), and on one seeded draw of samples on the cube.  It checks forms
that come from outside the program: ``integral.integrate`` checks the
function it certifies, and ``vector_function`` always checks.  Battery
members are not checked here: a certification verdict checks each of
their window gaps against max(B, L) times the BL distance, which fails
loudly (``convergence``).  The kernels are plain numpy expressions;
README lists the batched and in-place variants that were slower.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .carrier import (CompactSpace, Point, integer, items, known, need, number, numbers,
                      point_from_json, point_to_json)
from .errors import DomainError, UnsupportedError


class Form(ABC):
    """A scalar closed-form function on a carrier."""

    kind: str = ""
    continuous: bool = True

    @abstractmethod
    def evaluate(self, space: CompactSpace, pts: np.ndarray) -> np.ndarray:
        """Vectorised evaluation on a bulk point array.

        Returns a new array, which the caller may overwrite.
        """

    @abstractmethod
    def bound(self, space: CompactSpace) -> float:
        """A valid upper bound for |f| on the carrier."""

    @abstractmethod
    def lipschitz(self, space: CompactSpace) -> float:
        """A valid Lipschitz constant (math.inf for discontinuous forms)."""

    @abstractmethod
    def to_json(self) -> dict:
        ...

    def __call__(self, space: CompactSpace, point: Point) -> float:
        pts = space.points_array([point])
        return float(self.evaluate(space, pts)[0])


@dataclass(frozen=True)
class Const(Form):
    value: float
    kind = "const"

    def evaluate(self, space, pts):
        return np.full(np.asarray(pts).shape[0], self.value, dtype=float)

    def bound(self, space):
        return abs(self.value)

    def lipschitz(self, space):
        return 0.0

    def to_json(self):
        return {"kind": "const", "value": self.value}


@dataclass(frozen=True)
class Coord(Form):
    """Projection onto one cube coordinate (1-Lipschitz, bounded by 1)."""

    axis: int
    kind = "coord"

    def evaluate(self, space, pts):
        if space.kind != "cube":
            raise UnsupportedError("coordinate projections need a cube carrier")
        if not 0 <= self.axis < space.dim:
            raise DomainError(f"axis {self.axis} out of range for dim {space.dim}")
        return np.asarray(pts, dtype=float)[:, self.axis].copy()

    def bound(self, space):
        return 1.0

    def lipschitz(self, space):
        return 1.0

    def to_json(self):
        return {"kind": "coord", "axis": self.axis}


@dataclass(frozen=True)
class DistTo(Form):
    """rho(s, anchor); 1-Lipschitz by the triangle inequality."""

    anchor: Point
    kind = "dist"

    def evaluate(self, space, pts):
        return space.dist_to(pts, self.anchor)

    def bound(self, space):
        if space.kind == "finite":
            return float(np.max(space.dist_to(self.anchor, np.arange(space.n_points))))
        # exact: the farthest cube point from the anchor is a corner
        a = np.asarray(self.anchor, dtype=float)
        return float(np.sqrt(np.sum(np.maximum(a, 1.0 - a) ** 2)))

    def lipschitz(self, space):
        return 1.0

    def to_json(self):
        return {"kind": "dist", "point": point_to_json(self.anchor)}


@dataclass(frozen=True)
class Tent(Form):
    """max(0, 1 - rho(s, center)/radius): a bump of height 1, Lipschitz 1/r."""

    center: Point
    radius: float
    kind = "tent"

    def __post_init__(self):
        if not self.radius > 0:
            raise DomainError("tent radius must be positive")

    def evaluate(self, space, pts):
        return np.maximum(0.0, 1.0 - space.dist_to(pts, self.center) / self.radius)

    def bound(self, space):
        return 1.0

    def lipschitz(self, space):
        return 1.0 / self.radius

    def to_json(self):
        return {"kind": "tent", "point": point_to_json(self.center), "radius": self.radius}


@dataclass(frozen=True)
class McShane(Form):
    """min_i(v_i + L * rho(s, s_i)): the standard Lipschitz extension form.

    When the anchor values are themselves L-compatible (|v_i - v_j| <=
    L * rho(s_i, s_j)) this extends them exactly; otherwise it is still a
    valid L-Lipschitz function, just not an interpolant.
    """

    anchors: tuple
    values: tuple
    lip: float
    kind = "mcshane"

    def __post_init__(self):
        if len(self.anchors) != len(self.values) or not self.anchors:
            raise DomainError("mcshane needs matching, nonempty anchors and values")
        if not self.lip >= 0:
            raise DomainError("mcshane Lipschitz constant must be nonnegative")

    def evaluate(self, space, pts):
        out = None
        # lip * distance past the float range is inf, a value the checks report
        with np.errstate(over="ignore"):
            for value, anchor in zip(self.values, self.anchors):
                col = value + self.lip * space.dist_to(pts, anchor)
                out = col if out is None else np.minimum(out, col)
        return out

    def bound(self, space):
        lo = min(self.values)
        hi = min(v + self.lip * space.diameter() for v in self.values)
        return max(abs(lo), abs(hi))

    def lipschitz(self, space):
        return self.lip

    def to_json(self):
        return {"kind": "mcshane",
                "anchors": [point_to_json(a) for a in self.anchors],
                "values": list(self.values), "lip": self.lip}


@dataclass(frozen=True)
class Clamp(Form):
    lo: float
    hi: float
    child: Form
    kind = "clamp"

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise DomainError("clamp bounds out of order")

    @property
    def continuous(self):  # type: ignore[override]
        return self.child.continuous

    def evaluate(self, space, pts):
        return np.clip(self.child.evaluate(space, pts), self.lo, self.hi)

    def bound(self, space):
        return max(abs(self.lo), abs(self.hi))

    def lipschitz(self, space):
        return self.child.lipschitz(space)

    def to_json(self):
        return {"kind": "clamp", "lo": self.lo, "hi": self.hi, "child": self.child.to_json()}


@dataclass(frozen=True)
class Sum(Form):
    children: tuple
    kind = "sum"

    def __post_init__(self):
        if not self.children:
            raise DomainError("sum needs at least one child")

    @property
    def continuous(self):  # type: ignore[override]
        return all(c.continuous for c in self.children)

    def evaluate(self, space, pts):
        out = self.children[0].evaluate(space, pts)
        for c in self.children[1:]:
            out = out + c.evaluate(space, pts)
        return out

    def bound(self, space):
        return float(sum(c.bound(space) for c in self.children))

    def lipschitz(self, space):
        return float(sum(c.lipschitz(space) for c in self.children))

    def to_json(self):
        return {"kind": "sum", "children": [c.to_json() for c in self.children]}


@dataclass(frozen=True)
class Scale(Form):
    factor: float
    child: Form
    kind = "scale"

    @property
    def continuous(self):  # type: ignore[override]
        return self.child.continuous

    def evaluate(self, space, pts):
        # overflow to inf and 0 * inf = NaN are values, not faults: the
        # integrability and metadata checks report them
        with np.errstate(over="ignore", invalid="ignore"):
            return self.factor * self.child.evaluate(space, pts)

    def bound(self, space):
        with np.errstate(over="ignore"):
            return abs(self.factor) * self.child.bound(space)

    def lipschitz(self, space):
        with np.errstate(over="ignore"):
            return abs(self.factor) * self.child.lipschitz(space)

    def to_json(self):
        return {"kind": "scale", "factor": self.factor, "child": self.child.to_json()}


@dataclass(frozen=True)
class Step(Form):
    """Indicator of {s : s_axis >= threshold}.  Discontinuous, test-only."""

    axis: int
    threshold: float
    kind = "step"
    continuous = False

    def evaluate(self, space, pts):
        if space.kind != "cube":
            raise UnsupportedError("step forms need a cube carrier")
        if not 0 <= self.axis < space.dim:
            raise DomainError(f"axis {self.axis} out of range for dim {space.dim}")
        return (np.asarray(pts, dtype=float)[:, self.axis] >= self.threshold).astype(float)

    def bound(self, space):
        return 1.0

    def lipschitz(self, space):
        return math.inf

    def to_json(self):
        return {"kind": "step", "axis": self.axis, "threshold": self.threshold}


_FORM_FIELDS = {"const": ("value",), "coord": ("axis",), "dist": ("point",),
                "tent": ("point", "radius"), "mcshane": ("anchors", "values", "lip"),
                "clamp": ("lo", "hi", "child"), "sum": ("children",),
                "scale": ("factor", "child"), "step": ("axis", "threshold")}


def form_from_json(node: dict, space: CompactSpace) -> Form:
    """Parse an expression tree from its JSON dict encoding on ``space``.

    Anchor points are decoded by ``point_from_json``, so they must lie in
    the carrier, and finite-carrier anchors may be given by label.
    """
    kind = need(node, "kind", "function node")
    if not (isinstance(kind, str) and kind in _FORM_FIELDS):
        raise DomainError(f"unknown function node kind {kind!r}")
    known(node, ("kind",) + _FORM_FIELDS[kind], f"function node {kind!r}")

    def field(key: str):
        return need(node, key, f"function node {kind!r}")

    def num(key: str) -> float:
        return number(field(key), repr(key))

    if kind == "const":
        return Const(num("value"))
    if kind == "coord":
        return Coord(integer(field("axis"), "'axis'", lo=0))
    if kind == "dist":
        return DistTo(point_from_json(space, field("point")))
    if kind == "tent":
        return Tent(point_from_json(space, field("point")), num("radius"))
    if kind == "mcshane":
        anchors = items(field("anchors"), "'anchors'")
        return McShane(tuple(point_from_json(space, a) for a in anchors),
                       numbers(field("values"), "'values'"), num("lip"))
    if kind == "clamp":
        return Clamp(num("lo"), num("hi"), form_from_json(field("child"), space))
    if kind == "sum":
        children = items(field("children"), "'children'")
        return Sum(tuple(form_from_json(c, space) for c in children))
    if kind == "scale":
        return Scale(num("factor"), form_from_json(field("child"), space))
    return Step(integer(field("axis"), "'axis'", lo=0), num("threshold"))


# ---------------------------------------------------------------------------
# metadata validation
# ---------------------------------------------------------------------------

_VALIDATION_SAMPLES = 10_000
_METADATA_SLACK = 1.01  # declared constants may be loose, never violated by >1%


def _exceeds(vals: np.ndarray, cap: float) -> bool:
    """Whether |vals| <= cap fails somewhere, read off the extremes; a NaN
    value (or a NaN cap) fails it."""
    return vals.size > 0 and not (np.maximum.reduce(vals) <= cap
                                  and -cap <= np.minimum.reduce(vals))


def validate_metadata(space: CompactSpace, *forms: Form, seed: int = 0) -> None:
    """Check the declared (B, L) metadata of ``forms`` on the carrier.

    The bounds are computed, not fitted, so a failure here means a bug in
    the bound propagation rather than bad luck.  Raises ``DomainError``
    for the first form that fails.  |f| must stay within the bound at
    every checked point, and the Lipschitz ratio must hold on every
    checked pair farther apart than 1e-9, each with 1% slack.  A NaN value
    breaks the bound, and a NaN difference any finite Lipschitz constant.
    On a finite carrier the check is exhaustive: a form is evaluated once
    on every point, and every ordered pair is checked.  On the cube it is a spot
    check on 10,000 + 10,000 samples drawn from ``default_rng(seed)``,
    paired in order; ``seed`` affects only the cube.

    The points are laid out once per call and are read-only, so a form
    cannot alter what the next one sees.  ``seed`` is keyword-only: a
    positional argument after ``space`` that is not a ``Form`` raises
    ``TypeError``.
    """
    for form in forms:
        if not isinstance(form, Form):
            raise TypeError(f"validate_metadata takes forms after the space, not "
                            f"{type(form).__name__}; pass seed= by keyword")
    if not forms:
        return
    if space.kind == "finite":  # the pairs are (pts[p[i]], pts[q[i]])
        pts, qts = np.arange(space.n_points), None
        p, q = np.nonzero(space.dist_matrix > 1e-9)
        dists = space.dist_to(p, q)
    else:  # the pairs are (pts[i], qts[i])
        rng = np.random.default_rng(seed)
        # column-major: dist_to reads each coordinate column contiguously
        pts = np.asfortranarray(space.sample_points(rng, _VALIDATION_SAMPLES))
        qts = np.asfortranarray(space.sample_points(rng, _VALIDATION_SAMPLES))
        qts.setflags(write=False)
        dists = space.dist_to(pts, qts)
    pts.setflags(write=False)
    near = dists <= 1e-9
    for form in forms:
        vals = form.evaluate(space, pts)
        b = form.bound(space)
        if _exceeds(vals, b * _METADATA_SLACK + 1e-12):
            raise DomainError(f"declared bound {b} violated by {form.kind} form")
        lip = form.lipschitz(space)
        if not math.isfinite(lip):
            continue
        if qts is None:
            left, right = vals[p], vals[q]
        else:
            left, right = vals, form.evaluate(space, qts)
        # a NaN difference fails the comparison, as inf - inf does
        with np.errstate(over="ignore", invalid="ignore"):
            ok = np.abs(left - right) <= lip * dists * _METADATA_SLACK + 1e-12
        if not (ok | near).all():
            raise DomainError(f"declared Lipschitz constant {lip} violated by "
                              f"{form.kind} form")


# ---------------------------------------------------------------------------
# vector-valued functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorFunction:
    """g: carrier -> target, one scalar form per target coordinate."""

    space: CompactSpace
    target: "TargetSpace"  # noqa: F821  (import cycle kept out on purpose)
    forms: tuple

    def __post_init__(self):
        if len(self.forms) != self.target.dim:
            raise DomainError("need exactly one coordinate form per target dimension")

    @property
    def continuous(self) -> bool:
        return all(f.continuous for f in self.forms)

    def bounds(self) -> np.ndarray:
        return np.array([f.bound(self.space) for f in self.forms])

    def lipschitz_constants(self) -> np.ndarray:
        return np.array([f.lipschitz(self.space) for f in self.forms])

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Values as an array of shape ``(n_points, target.dim)``.

        A form object that fills several coordinates (a lifted scalar
        repeats one form in each) is evaluated once.
        """
        done: dict = {}
        for f in self.forms:
            if id(f) not in done:
                done[id(f)] = f.evaluate(self.space, pts)
        return np.stack([done[id(f)] for f in self.forms], axis=-1)

    def to_json(self) -> dict:
        return {"coords": [f.to_json() for f in self.forms]}


def vector_function(space: CompactSpace, target, forms: Sequence[Form]) -> VectorFunction:
    """A vector function whose coordinate forms' metadata is checked."""
    vf = VectorFunction(space=space, target=target, forms=tuple(forms))
    validate_metadata(space, *vf.forms)
    return vf
