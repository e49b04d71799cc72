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
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .carrier import CompactSpace, Point, point_from_json
from .errors import DomainError, UnsupportedError


class Form(ABC):
    """A scalar closed-form function on a carrier."""

    kind: str = ""
    continuous: bool = True

    @abstractmethod
    def evaluate(self, space: CompactSpace, pts: np.ndarray) -> np.ndarray:
        """Vectorised evaluation on a bulk point array."""

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


def _point_json(p: Point):
    if isinstance(p, (int, np.integer)):
        return int(p)
    return [float(x) for x in p]


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
            return float(np.max(space.dist_matrix[int(self.anchor)]))
        # exact: the farthest cube point from the anchor is a corner
        a = np.asarray(self.anchor, dtype=float)
        return float(np.sqrt(np.sum(np.maximum(a, 1.0 - a) ** 2)))

    def lipschitz(self, space):
        return 1.0

    def to_json(self):
        return {"kind": "dist", "point": _point_json(self.anchor)}


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
        d = space.dist_to(pts, self.center)
        return np.maximum(0.0, 1.0 - d / self.radius)

    def bound(self, space):
        return 1.0

    def lipschitz(self, space):
        return 1.0 / self.radius

    def to_json(self):
        return {"kind": "tent", "point": _point_json(self.center), "radius": self.radius}


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
                "anchors": [_point_json(a) for a in self.anchors],
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
        # overflow to inf is intentional behaviour for the negative tests
        with np.errstate(over="ignore"):
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
        return (np.asarray(pts, dtype=float)[:, self.axis] >= self.threshold).astype(float)

    def bound(self, space):
        return 1.0

    def lipschitz(self, space):
        return math.inf

    def to_json(self):
        return {"kind": "step", "axis": self.axis, "threshold": self.threshold}


def form_from_json(node: dict, space: CompactSpace) -> Form:
    """Parse an expression tree from its JSON dict encoding on ``space``.

    Anchor points are decoded by ``point_from_json``, so they must lie in
    the carrier, and finite-carrier anchors may be given by label.
    """
    if not isinstance(node, dict) or "kind" not in node:
        raise DomainError("function node must be a dict with a 'kind'")
    kind = node["kind"]
    try:
        if kind == "const":
            return Const(float(node["value"]))
        if kind == "coord":
            return Coord(int(node["axis"]))
        if kind == "dist":
            return DistTo(point_from_json(space, node["point"]))
        if kind == "tent":
            return Tent(point_from_json(space, node["point"]), float(node["radius"]))
        if kind == "mcshane":
            return McShane(tuple(point_from_json(space, a) for a in node["anchors"]),
                           tuple(float(v) for v in node["values"]),
                           float(node["lip"]))
        if kind == "clamp":
            return Clamp(float(node["lo"]), float(node["hi"]),
                         form_from_json(node["child"], space))
        if kind == "sum":
            return Sum(tuple(form_from_json(c, space) for c in node["children"]))
        if kind == "scale":
            return Scale(float(node["factor"]), form_from_json(node["child"], space))
        if kind == "step":
            return Step(int(node["axis"]), float(node["threshold"]))
    except DomainError:
        raise
    except KeyError as exc:
        raise DomainError(f"function node {kind!r} is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"function node {kind!r} has a malformed field: {exc}") from exc
    raise DomainError(f"unknown function node kind {kind!r}")


# ---------------------------------------------------------------------------
# metadata validation
# ---------------------------------------------------------------------------

_VALIDATION_SAMPLES = 10_000
_METADATA_SLACK = 1.01  # declared constants may be loose, never violated by >1%


class ValidationDraws:
    """Seeded validation samples drawn once per carrier, and the forms that passed.

    Every form validated on one carrier with one seed sees the same two
    sample sets, so a battery build can draw them (and the distances
    between paired samples) once instead of once per form.  The draws are
    keyed by (carrier, seed, sample count), so equal carriers share them
    and unequal ones never do.  The arrays are read-only, so a form
    cannot alter what the next one sees.

    A form that passes on a draw is remembered with its key, and
    :func:`validate_metadata` skips an equal form on the same key: forms
    are frozen values, so an equal form gives the same verdict.  A form
    that cannot be hashed is checked every time.  Everything lives only
    as long as the owner, one battery build, report or CLI command, so
    nothing is cached across commands.
    """

    def __init__(self):
        self._draws: dict = {}
        self._passed: set = set()

    def get(self, space: CompactSpace, seed: int, samples: int):
        """The two sample sets and the distance between each pair of samples."""
        return self._draw(space, seed, samples)[:3]

    def _draw(self, space: CompactSpace, seed: int, samples: int):
        key = (space, seed, samples)
        if key not in self._draws:
            self._draws[key] = _draw_validation_samples(space, seed, samples)
        return self._draws[key]


def _draw_validation_samples(space: CompactSpace, seed: int, samples: int):
    """The two seeded sample sets every form on this carrier is checked on,
    the distance between each pair of samples and the mask of pairs far
    enough apart to bound a Lipschitz ratio."""
    rng = np.random.default_rng(seed)
    pts = space.sample_points(rng, samples)
    qts = space.sample_points(rng, samples)
    if space.kind == "finite":
        dists = space.dist_matrix[np.asarray(pts, int), np.asarray(qts, int)]
    else:
        dists = np.linalg.norm(np.asarray(pts) - np.asarray(qts), axis=1)
    apart = dists > 1e-9
    for arr in (pts, qts, dists, apart):
        arr.setflags(write=False)
    return pts, qts, dists, apart


def validate_metadata(space: CompactSpace, form: Form, seed: int = 0,
                      samples: int = _VALIDATION_SAMPLES,
                      draws: Optional[ValidationDraws] = None) -> None:
    """Spot-check the declared (B, L) metadata by dense sampling.

    The bounds are computed, not fitted, so a failure here means a bug in
    the bound propagation rather than bad luck.  Raises ``DomainError``.
    ``draws`` lends samples drawn for an earlier form; they are exactly
    the samples a fresh ``default_rng(seed)`` would give.  A form equal
    to one that already passed on ``draws`` with the same carrier, seed
    and sample count returns at once.
    """
    key = None
    if draws is None:
        pts, qts, dists, apart = _draw_validation_samples(space, seed, samples)
    else:
        try:
            key = (space, seed, samples, form)
            if key in draws._passed:
                return
        except TypeError:  # an unhashable form is checked every time
            key = None
        pts, qts, dists, apart = draws._draw(space, seed, samples)
    vals = form.evaluate(space, pts)
    b = form.bound(space)
    if np.any(np.abs(vals) > b * _METADATA_SLACK + 1e-12):
        raise DomainError(f"declared bound {b} violated by {form.kind} form")
    lip = form.lipschitz(space)
    if math.isfinite(lip):
        wals = form.evaluate(space, qts)
        if np.any((np.abs(vals - wals) > lip * dists * _METADATA_SLACK + 1e-12) & apart):
            raise DomainError(f"declared Lipschitz constant {lip} violated by {form.kind} form")
    if key is not None:
        draws._passed.add(key)


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
        """Values as an array of shape ``(n_points, target.dim)``."""
        return np.stack([f.evaluate(self.space, pts) for f in self.forms], axis=-1)

    def at_point(self, point: Point) -> np.ndarray:
        return self.evaluate(self.space.points_array([point]))[0]

    def validate(self, seed: int = 0, draws: Optional[ValidationDraws] = None) -> None:
        for f in self.forms:
            validate_metadata(self.space, f, seed=seed, draws=draws)

    def to_json(self) -> dict:
        return {"coords": [f.to_json() for f in self.forms]}


def vector_function(space: CompactSpace, target, forms: Sequence[Form],
                    validate: bool = True) -> VectorFunction:
    vf = VectorFunction(space=space, target=target, forms=tuple(forms))
    if validate:
        vf.validate()
    return vf
