"""Compact carrier spaces at desk scale.

Two kinds of carrier are supported: a finite metric space given by an
explicit distance matrix, and the unit cube [0, 1]^d with the Euclidean
metric.  Both are compact, which is what the downstream convergence and
tightness machinery relies on.

Points are plain values: an ``int`` index into a finite carrier, or a
tuple of floats for a cube carrier.  Bulk operations accept numpy arrays
(shape ``(n,)`` of indices, or ``(n, d)`` of coordinates) so that test
functions can be evaluated vectorised.

``CompactSpace.dist_to`` is the carrier's one distance formula, and the
BL oracle's cost matrix reads it too.  On the cube it takes no dot
product, so distances and BL values do not depend on the BLAS build.

The one measurable set built here is the closed metric ball, which is
what tightness witnesses return.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import CapacityError, DomainError, UnsupportedError

Point = Union[int, tuple]

MAX_FINITE_POINTS = 64
MAX_CUBE_DIM = 8
_FLOAT_MAX = sys.float_info.max
# a grid cell's coordinates are floor(x * m), taken in float64 and cast to
# int64: with at most 2**62 cells per axis they cannot reach 2**63
MAX_CELLS_PER_AXIS = 2 ** 62

# Exhaustive triangle checks are only feasible on small finite carriers.
_TRIPLE_SAMPLES = 10_000

# Below this, a 1-D gap's square may underflow, so |x - a| and
# sqrt((x - a)^2) can differ; dist_to then takes the square root.
_TINY_GAP = 2.0 ** -500
_TINY_ANCHOR = 2.0 ** -440


# ---------------------------------------------------------------------------
# carrier spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CompactSpace:
    """A finite metric space or the unit cube with the Euclidean metric."""

    kind: str  # "finite" | "cube"
    dim: int = 0
    labels: tuple = ()
    dist_matrix: np.ndarray | None = field(default=None, repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompactSpace):
            return NotImplemented
        if self is other:
            return True
        if self.kind != other.kind:
            return False
        if self.kind == "cube":
            return self.dim == other.dim
        return (self.labels == other.labels
                and np.array_equal(self.dist_matrix, other.dist_matrix))

    def __hash__(self) -> int:
        # equal carriers hash alike; __eq__ tells apart finite ones of one size
        return hash((self.kind, self.dim if self.kind == "cube" else len(self.labels)))

    @property
    def n_points(self) -> int:
        if self.kind != "finite":
            raise UnsupportedError("n_points is only defined for finite carriers")
        return len(self.labels)

    def contains(self, point: Point) -> bool:
        if self.kind == "finite":
            return isinstance(point, (int, np.integer)) and 0 <= point < self.n_points
        coords = np.asarray(point, dtype=float)
        if coords.shape != (self.dim,):
            return False
        return bool(np.all(coords >= 0.0) and np.all(coords <= 1.0))

    def distance(self, a: Point, b: Point) -> float:
        return float(self.dist_to(a, b))

    def diameter(self) -> float:
        if self.kind == "finite":
            return float(self.dist_matrix.max())
        return math.sqrt(self.dim)

    # -- bulk helpers -------------------------------------------------------

    def points_array(self, points: Sequence[Point]) -> np.ndarray:
        """Stack points into the array layout used by vectorised evaluators."""
        if self.kind == "finite":
            arr = np.asarray(points, dtype=int)
            if arr.ndim != 1:
                raise DomainError("finite-carrier points must be scalar indices")
            return arr
        arr = np.asarray(points, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise DomainError(f"expected points of dimension {self.dim}")
        return arr

    def point_at(self, row) -> Point:
        if self.kind == "finite":
            return int(row)
        return tuple(float(x) for x in np.atleast_1d(row))

    def dist_to(self, pts: np.ndarray, other) -> np.ndarray:
        """Distances from the points ``pts`` to ``other``: one point, or
        points that broadcast against ``pts`` (``dist_to(P[:, None], P)`` is
        the matrix of pairwise distances).

        On a finite carrier it reads ``dist_matrix[pts, other]``.  On the
        cube one coordinate at a time is subtracted, squared and added, so
        no block of all d gaps is built; the coordinates are contiguous
        when ``pts`` is column-major.  The squares are summed in the order
        ``np.add.reduce`` takes over a contiguous last axis, so every
        distance is bit-identical to
        ``np.sqrt(np.sum((pts - other) ** 2, axis=-1))`` on C-ordered
        arrays up to ``MAX_CUBE_DIM``, on any BLAS build.  In one dimension
        the distance is |x - a|, which equals sqrt((x - a)^2) bit for bit
        unless the square underflows (cube coordinates lie in [0, 1], so
        none overflows); when some nonzero gap is below 2^-500 the whole
        array takes the square root instead.  Two single points give a
        scalar.
        """
        if self.kind == "finite":
            return self.dist_matrix[np.asarray(pts, dtype=int), np.asarray(other, dtype=int)]
        pts = np.asarray(pts, dtype=float)
        other = np.asarray(other, dtype=float)
        if pts.ndim == other.ndim == 1:
            return self.dist_to(pts[None, :], other)[0]

        def square_gap(k: int, out=None) -> np.ndarray:
            out = np.subtract(pts[..., k], other[..., k], out=out)
            return np.multiply(out, out, out=out)

        d = pts.shape[-1]
        if d == 1:
            gap = np.subtract(pts[..., 0], other[..., 0])
            np.abs(gap, out=gap)
            # a nonzero difference of doubles at or above 2^-441 is a multiple
            # of 2^-493, so a gap below 2^-500 needs |other| below 2^-440
            if (np.abs(other[..., 0]).min() < _TINY_ANCHOR
                    and np.any((gap > 0.0) & (gap < _TINY_GAP))):
                return np.sqrt(square_gap(0, out=gap), out=gap)
            return gap
        total = _sum_in_reduce_order(square_gap, d)
        return np.sqrt(total, out=total)

    def sample_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "finite":
            return rng.integers(0, self.n_points, size=n)
        return rng.random((n, self.dim))


def _sum_in_reduce_order(square_gap, d: int) -> np.ndarray:
    """square_gap(0) + ... + square_gap(d - 1), added as ``np.add.reduce`` adds
    a last axis of d terms: one after another below eight, and by its
    pairwise tree ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)) at eight.

    ``square_gap(k, out=None)`` returns the k-th term, written into
    ``out`` when one is given; the sum is built in the arrays it returns.
    """
    if d == 8:
        left, tmp = square_gap(0), square_gap(1)
        left += tmp
        right = square_gap(2)
        right += square_gap(3, out=tmp)
        left += right
        right = square_gap(4, out=right)
        right += square_gap(5, out=tmp)
        last = square_gap(6)
        last += square_gap(7, out=tmp)
        right += last
        left += right
        return left
    total, tmp = square_gap(0), None
    for k in range(1, d):
        tmp = square_gap(k, out=tmp)
        total += tmp
    return total


def unit_cube(dim: int) -> CompactSpace:
    if not 1 <= dim <= MAX_CUBE_DIM:
        raise CapacityError(f"cube dimension must be in 1..{MAX_CUBE_DIM}, got {dim}")
    return CompactSpace(kind="cube", dim=dim)


def finite_space(labels: Iterable, dist: np.ndarray, validate: bool = True) -> CompactSpace:
    """Build a finite carrier from labels and a distance matrix.

    With ``validate`` (the default) the matrix is checked exhaustively for
    the metric axioms and a violation raises ``DomainError``.  Passing
    ``validate=False`` admits a broken matrix so that
    :func:`metric_axioms_report` can describe what is wrong with it.
    """
    labels = tuple(labels)
    if len(labels) == 0:
        raise DomainError("finite carrier needs at least one point")
    if len(labels) > MAX_FINITE_POINTS:
        raise CapacityError(f"finite carriers are capped at {MAX_FINITE_POINTS} points")
    matrix = np.asarray(dist, dtype=float)
    if matrix.shape != (len(labels), len(labels)):
        raise DomainError("distance matrix shape does not match the label count")
    space = CompactSpace(kind="finite", dim=0, labels=labels, dist_matrix=matrix)
    if validate:
        report = metric_axioms_report(space)
        if not report.ok:
            raise DomainError("not a metric: " + "; ".join(report.violations[:3]))
    return space


# ---------------------------------------------------------------------------
# JSON decoding: every field of a document is read through one of these.  A
# wrong type is a DomainError; a bool, a string, NaN, an infinity or an integer
# past the float range is never a number.  A count past its cap is a CapacityError.
# ---------------------------------------------------------------------------

_COUNTS = dict(enumerate("no one two three four five six seven eight nine".split()))


def need(node, key: str, what: str = "input"):
    """``node[key]``, where ``node`` must be a JSON object with that key."""
    if not isinstance(node, dict):
        raise DomainError(f"{what} must be a JSON object, got {node!r}")
    if key not in node:
        raise DomainError(f"{what} needs a {key!r} field")
    return node[key]


def known(node, keys: tuple, what: str = "input") -> dict:
    """``node``, a JSON object whose every key is one of ``keys``, so that a
    misspelt field is an error rather than a default."""
    if not isinstance(node, dict):
        raise DomainError(f"{what} must be a JSON object, got {node!r}")
    for key in node:
        if key not in keys:
            raise DomainError(f"{what} has no {key!r} field; it reads "
                              f"{', '.join(map(repr, keys))}")
    return node


def _is_number(x) -> bool:
    # int-float comparisons are exact, so an integer past the float range fails
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= _FLOAT_MAX


def number(value, name: str) -> float:
    """A finite number, as a float."""
    if not _is_number(value):
        raise DomainError(f"{name} must be a number, got {value!r}")
    return float(value)


def integer(value, name: str, lo: int | None = None, cap: int | None = None) -> int:
    """An integral number: a DomainError below ``lo``, a CapacityError above ``cap``."""
    what = "a non-negative integer" if lo == 0 else "an integer"
    if not (_is_number(value) and value == int(value)):
        raise DomainError(f"{name} must be {what}, got {value!r}")
    if lo is not None and value < lo:
        raise DomainError(f"{name} must be {what if lo == 0 else f'at least {lo}'}, got {value!r}")
    if cap is not None and value > cap:
        raise CapacityError(f"{name} is capped at {cap}, got {value!r}")
    return int(value)


def numbers(value, name: str, length: int | None = None) -> tuple:
    """A list of numbers, of ``length`` entries if one is given."""
    if not (isinstance(value, (list, tuple)) and length in (None, len(value))
            and all(map(_is_number, value))):
        count = "a list of" if length is None else _COUNTS.get(length, length)
        raise DomainError(f"{name} must be {count} finite number{'' if length == 1 else 's'}, "
                          f"got {value!r}")
    return tuple(map(float, value))


def items(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise DomainError(f"{name} must be a list, got {value!r}")
    return list(value)


def choice(value, options: tuple, name: str):
    """The option equal to ``value`` in type as well as value, so 1 is not true."""
    for option in options:
        if type(option) is type(value) and option == value:
            return option
    raise DomainError(f"{name} must be {' or '.join(map(json.dumps, options))}, got {value!r}")


def space_from_json(node: dict) -> CompactSpace:
    """Decode a carrier description.

    ``{"kind": "cube", "dim": d}`` or
    ``{"kind": "finite", "labels": [...], "dist": [[...], ...]}``.
    """
    kind = choice(need(node, "kind", "space"), ("cube", "finite"), "space 'kind'")
    if kind == "cube":
        known(node, ("kind", "dim"), "cube space")
        return unit_cube(integer(need(node, "dim", "cube space"), "cube 'dim'"))
    known(node, ("kind", "labels", "dist"), "finite space")
    labels = tuple(items(need(node, "labels", "finite space"), "'labels'"))
    dist = [numbers(row, "'dist' row", len(labels))
            for row in items(need(node, "dist", "finite space"), "'dist'")]
    return finite_space(labels, np.array(dist))


def point_from_json(space: CompactSpace, p) -> Point:
    """Decode a JSON point: coordinates for cubes, index or label otherwise.

    A point that does not lie in the carrier is a ``DomainError``.
    """
    if space.kind == "cube":
        point = numbers(p, "cube point", space.dim)
    elif isinstance(p, str):
        if p not in space.labels:
            raise DomainError(f"unknown point label {p!r}")
        point = space.labels.index(p)
    else:
        point = integer(p, "finite-carrier point")
    if not space.contains(point):
        raise DomainError(f"point {p!r} lies outside the carrier")
    return point


def point_to_json(p: Point):
    """The JSON form of a point, as ``point_from_json`` reads it."""
    return int(p) if isinstance(p, (int, np.integer)) else [float(x) for x in p]


# ---------------------------------------------------------------------------
# metric axiom checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricAxiomsReport:
    ok: bool
    checked_pairs: int
    checked_triples: int
    violations: tuple


def metric_axioms_report(space: CompactSpace, samples: int = _TRIPLE_SAMPLES,
                         seed: int = 0) -> MetricAxiomsReport:
    """Check nonnegativity, identity, symmetry and the triangle inequality.

    Finite carriers are checked exhaustively (their point count is capped,
    so all n^3 triples fit comfortably), once every entry of the matrix is
    finite: a NaN or infinite entry is the only violation reported.  Cube
    carriers are spot-checked on ``samples`` seeded random triples through
    ``dist_to``, the kernel every caller uses; the Euclidean metric is
    exact, so this is a guard against representation bugs rather than a
    proof.
    """
    violations: list[str] = []
    if space.kind == "finite":
        m = space.dist_matrix
        n = space.n_points
        if not np.all(np.isfinite(m)):
            # NaN compares False with everything and inf - inf is NaN, so the
            # checks below would pass such a matrix, or warn on it
            i, j = np.argwhere(~np.isfinite(m))[0]
            return MetricAxiomsReport(ok=False, checked_pairs=n * n, checked_triples=0,
                                      violations=(f"non-finite distance at ({i},{j})",))
        if np.any(m < 0):
            i, j = np.argwhere(m < 0)[0]
            violations.append(f"negative distance at ({i},{j})")
        if np.any(np.abs(np.diag(m)) > 0):
            i = int(np.argmax(np.abs(np.diag(m)) > 0))
            violations.append(f"nonzero self-distance at point {i}")
        off = m.copy()
        np.fill_diagonal(off, np.inf)
        if np.any(off <= 0):
            i, j = np.argwhere(off <= 0)[0]
            violations.append(f"zero distance between distinct points ({i},{j})")
        asym = np.abs(m - m.T)
        if np.any(asym > 0):
            i, j = np.argwhere(asym > 0)[0]
            violations.append(f"symmetry violated at ({i},{j})")
        # d(i,k) <= d(i,j) + d(j,k) for every triple, fully vectorised
        slack = m[:, None, :] - (m[:, :, None] + m[None, :, :])
        if np.any(slack > 1e-12):
            i, j, k = np.argwhere(slack > 1e-12)[0]
            violations.append(f"triangle violated for ({i},{j},{k})")
        return MetricAxiomsReport(ok=not violations, checked_pairs=n * n,
                                  checked_triples=n ** 3,
                                  violations=tuple(violations))

    rng = np.random.default_rng(seed)
    a = rng.random((samples, space.dim))
    b = rng.random((samples, space.dim))
    c = rng.random((samples, space.dim))
    dab, dba = space.dist_to(a, b), space.dist_to(b, a)
    dac, dcb = space.dist_to(a, c), space.dist_to(c, b)
    if np.any(dab < 0):
        violations.append("negative distance on sampled pair")
    if np.any(np.abs(dab - dba) > 0):
        violations.append("symmetry violated on sampled pair")
    if np.any(dab - (dac + dcb) > 1e-12):
        violations.append("triangle violated on sampled triple")
    return MetricAxiomsReport(ok=not violations, checked_pairs=samples,
                              checked_triples=samples,
                              violations=tuple(violations))


# ---------------------------------------------------------------------------
# measurable sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasurableSet:
    """A closed metric ball; the shape tightness witnesses take."""

    center: Point
    radius: float

    def contains(self, space: CompactSpace, pts: np.ndarray) -> np.ndarray:
        pts = space.points_array(pts) if not isinstance(pts, np.ndarray) else pts
        # tiny additive slack so that "radius equal to an atom distance"
        # keeps that atom inside despite rounding in the norm
        return space.dist_to(pts, self.center) <= self.radius + 1e-12


def ball_set(center: Point, radius: float) -> MeasurableSet:
    return MeasurableSet(center, float(radius))


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Finite disjoint cover of the carrier with a representative per cell.

    On the cube the cells are the boxes of a grid of side 1/m, named by
    their per-axis integer coordinates: half-open on each axis, except that
    the outermost upper face is closed, with the centre as representative.
    On a finite carrier each point is its own cell and representative.
    Cells are only named for the points asked about, so no grid is ever
    built, whatever its number of cells.
    """

    space: CompactSpace
    cells_per_axis: int = 0  # m on the cube; 0 on a finite carrier

    @property
    def side(self) -> float:
        if self.space.kind != "cube":
            raise UnsupportedError("side is only defined for grid partitions")
        return 1.0 / self.cells_per_axis

    def cell_of(self, pts: np.ndarray) -> np.ndarray:
        """The cell of each point: the (n, d) coordinates clip(floor(x * m), 0, m - 1)
        on the cube, the point itself on a finite carrier."""
        if self.space.kind == "finite":
            return np.asarray(pts, dtype=int)
        m = self.cells_per_axis
        return np.clip(np.floor(np.asarray(pts, dtype=float) * m).astype(int), 0, m - 1)

    def rep_of(self, cells: np.ndarray) -> np.ndarray:
        """The representative of each cell: the centre (cells + 0.5) / m on the
        cube, the point itself on a finite carrier."""
        if self.space.kind == "finite":
            return cells
        return (cells + 0.5) / self.cells_per_axis


def grid_partition(space: CompactSpace, h: float) -> Partition:
    """Uniform grid with cells of side at most ``h`` on the unit cube.

    The number of cells per axis is ceil(1/h); each cell is half-open with
    the outermost upper face closed, so the cells are pairwise disjoint and
    cover the cube exactly.  Representatives are the cell centers.
    """
    if space.kind != "cube":
        raise UnsupportedError("grid partitions are defined on cube carriers only")
    if not (h > 0):
        raise DomainError("mesh size must be positive")
    if not 1.0 / h <= MAX_CELLS_PER_AXIS:
        raise CapacityError(f"a grid of mesh {h!r} has more than 2**62 cells per axis")
    # 1/h may land just past the integer it stands for (1 / (1 / 47503) is
    # 47503.00000000001), so a count within 1e-12 relative is that integer
    cells = 1.0 / h
    near = round(cells)
    m = max(near if abs(cells - near) <= 1e-12 * cells else math.ceil(cells), 1)
    return Partition(space=space, cells_per_axis=m)


def trivial_partition(space: CompactSpace) -> Partition:
    """One cell per point of a finite carrier (each point represents itself)."""
    if space.kind != "finite":
        raise UnsupportedError("trivial partitions are defined on finite carriers only")
    return Partition(space=space)
