"""Atomic finite measures and the bounded-Lipschitz metric.

A finite measure here is a nonnegative weighted sum of Dirac masses on a
compact carrier.  Atoms are kept in a canonical form (lexicographically
sorted, duplicates merged, zero weights dropped), which makes equality,
serialisation and support bookkeeping deterministic.

The bounded-Lipschitz (Dudley) distance between probability measures,

    bl(mu, nu) = sup { integral f d(mu - nu) : |f| <= 1, Lip(f) <= 1 },

restricts, for atomic measures, to an exact finite linear program over
the function values on the union support: any feasible assignment of
values extends to the whole carrier by a clamped McShane extension, so
nothing is lost by optimising over the support alone.  The LP is solved
by the in-house dense simplex.  Useful closed forms for tests:
bl(delta_x, delta_y) = min(2, rho(x, y)), and the value never exceeds 2.

Tightness witnesses search closed balls centered at the atom nearest the
family's weighted barycenter, with radii taken from the finite set of
atom distances; for a finite family of atomic measures this search is
exhaustive, so a returned witness is minimal among that candidate set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .carrier import CompactSpace, MeasurableSet, Point, ball_set
from .errors import CapacityError, DomainError, UnsupportedError
from .simplex import solve_max

MAX_BL_SUPPORT = 200
_PROB_TOL = 1e-9


# ---------------------------------------------------------------------------
# finite measures
# ---------------------------------------------------------------------------


def _canonical_atoms(space: CompactSpace, points: np.ndarray,
                     weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort lexicographically, merge exact duplicates, drop zero weights."""
    if len(weights) == 0:
        return points, weights
    if space.kind == "finite":
        order = np.argsort(points, kind="stable")
    else:
        order = np.lexsort(tuple(points[:, k] for k in reversed(range(points.shape[1]))))
    points = points[order]
    weights = weights[order]
    if space.kind == "finite":
        same = points[1:] == points[:-1]
    else:
        same = np.all(points[1:] == points[:-1], axis=1)
    keep = np.concatenate(([True], ~same))
    group = np.cumsum(keep) - 1
    merged_w = np.bincount(group, weights=weights)
    merged_p = points[keep]
    alive = merged_w > 0
    return merged_p[alive], merged_w[alive]


@dataclass(frozen=True, eq=False)
class FiniteMeasure:
    """Finitely supported nonnegative measure in canonical atom order."""

    space: CompactSpace
    points: np.ndarray
    weights: np.ndarray

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= _PROB_TOL

    def atoms(self) -> List[Tuple[Point, float]]:
        return [(self.space.point_at(self.points[i]), float(self.weights[i]))
                for i in range(self.n_atoms)]

    def to_json(self) -> dict:
        out = []
        for p, w in self.atoms():
            out.append({"point": list(p) if isinstance(p, tuple) else p, "weight": w})
        return {"atoms": out}

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMeasure):
            return NotImplemented
        return (self.space == other.space
                and np.array_equal(self.points, other.points)
                and np.array_equal(self.weights, other.weights))


def finite_measure(space: CompactSpace, atoms: Sequence[Tuple[Point, float]]) -> FiniteMeasure:
    """Build a measure from (point, weight) pairs; weights must be >= 0."""
    pts: list = []
    wts: list = []
    for point, weight in atoms:
        w = float(weight)
        if not math.isfinite(w) or w < 0:
            raise DomainError(f"atom weight must be finite and nonnegative, got {weight}")
        if not space.contains(point):
            raise DomainError(f"atom {point!r} lies outside the carrier")
        pts.append(point)
        wts.append(w)
    if pts:
        points = space.points_array(pts)
        weights = np.asarray(wts, dtype=float)
    else:
        shape = (0,) if space.kind == "finite" else (0, space.dim)
        points = np.zeros(shape, dtype=int if space.kind == "finite" else float)
        weights = np.zeros(0)
    points, weights = _canonical_atoms(space, points, weights)
    return FiniteMeasure(space=space, points=points, weights=weights)


def dirac(space: CompactSpace, point: Point, weight: float = 1.0) -> FiniteMeasure:
    return finite_measure(space, [(point, weight)])


def point_from_json(space: CompactSpace, p) -> Point:
    """Decode a JSON point: coordinates for cubes, index or label otherwise."""
    if space.kind == "cube":
        if not isinstance(p, (list, tuple)) or len(p) != space.dim:
            raise DomainError(f"cube point must be a list of {space.dim} coordinates")
        return tuple(float(x) for x in p)
    if isinstance(p, str):
        if p not in space.labels:
            raise DomainError(f"unknown point label {p!r}")
        return space.labels.index(p)
    return int(p)


def measure_from_json(space: CompactSpace, node: dict) -> FiniteMeasure:
    if not isinstance(node, dict) or "atoms" not in node:
        raise DomainError("measure JSON needs an 'atoms' list")
    atoms = []
    for entry in node["atoms"]:
        try:
            p = entry["point"]
            w = entry["weight"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"bad atom entry {entry!r}") from exc
        atoms.append((point_from_json(space, p), float(w)))
    return finite_measure(space, atoms)


def measure_of(mu: FiniteMeasure, a: MeasurableSet) -> float:
    """mu(A): total weight of the atoms inside A (exact for atomic mu)."""
    if mu.n_atoms == 0:
        return 0.0
    mask = a.contains(mu.space, mu.points)
    return float(mu.weights[mask].sum())


def normalize(mu: FiniteMeasure) -> FiniteMeasure:
    """Scale to total mass one.  Idempotent; zero measures are rejected."""
    mass = mu.total_mass
    if mass <= 0:
        raise DomainError("cannot normalize a measure with zero total mass")
    if mass == 1.0:
        return mu
    return FiniteMeasure(space=mu.space, points=mu.points, weights=mu.weights / mass)


def pushforward(mu: FiniteMeasure, point_map: Callable[[Point], Point],
                into: Optional[CompactSpace] = None) -> FiniteMeasure:
    """Image measure under a point map; images must land in the carrier."""
    space = into if into is not None else mu.space
    atoms = []
    for p, w in mu.atoms():
        q = point_map(p)
        if not space.contains(q):
            raise DomainError(f"pushforward image {q!r} lies outside the carrier")
        atoms.append((q, w))
    return finite_measure(space, atoms)


# ---------------------------------------------------------------------------
# bounded-Lipschitz distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BLResult:
    """Optimal value and the optimising function values on the support."""

    value: float
    support: tuple          # union support points, canonical order
    witness_values: tuple   # f at each support point, in [-1, 1]
    iterations: int

    def witness(self) -> List[Tuple[Point, float]]:
        return list(zip(self.support, self.witness_values))


def _union_support(mu: FiniteMeasure, nu: FiniteMeasure):
    """Merged support with signed weight differences d_i = mu_i - nu_i."""
    pts = [p for p, _ in mu.atoms()] + [p for p, _ in nu.atoms()]
    seen: dict = {}
    for p in pts:
        seen.setdefault(p, len(seen))
    support = sorted(seen.keys())
    index = {p: i for i, p in enumerate(support)}
    d = np.zeros(len(support))
    for p, w in mu.atoms():
        d[index[p]] += w
    for p, w in nu.atoms():
        d[index[p]] -= w
    return support, d


def bl_distance(mu: FiniteMeasure, nu: FiniteMeasure) -> BLResult:
    """Exact bounded-Lipschitz distance between atomic probability measures.

    Maximises sum_i f_i (mu_i - nu_i) over |f_i| <= 1 and
    |f_i - f_j| <= rho(s_i, s_j), as a dense LP in the shifted variables
    g = f + 1 (so the origin is feasible).  The shift leaves the
    objective unchanged because the weight differences sum to zero.
    """
    if mu.space != nu.space:
        raise DomainError("measures live on different carriers")
    if not (mu.is_probability and nu.is_probability):
        raise DomainError("bl_distance is defined for probability measures; "
                          "normalize first")
    support, d = _union_support(mu, nu)
    m = len(support)
    if m > MAX_BL_SUPPORT:
        raise CapacityError(f"union support {m} exceeds the cap {MAX_BL_SUPPORT}")

    # canonical orientation for exact symmetry: flip so the first nonzero
    # weight difference is positive, and flip the witness back afterwards
    flip = False
    for di in d:
        if di > 0:
            break
        if di < 0:
            flip = True
            break
    sign = -1.0 if flip else 1.0

    space = mu.space
    pair_rows = m * (m - 1)  # both directions for each unordered pair
    a = np.zeros((m + pair_rows, m))
    b = np.zeros(m + pair_rows)
    a[:m] = np.eye(m)
    b[:m] = 2.0
    row = m
    for i in range(m):
        for j in range(i + 1, m):
            rho = space.distance(support[i], support[j])
            a[row, i] = 1.0
            a[row, j] = -1.0
            b[row] = rho
            a[row + 1, i] = -1.0
            a[row + 1, j] = 1.0
            b[row + 1] = rho
            row += 2

    sol = solve_max(sign * d, a, b)
    f = sol.x - 1.0
    return BLResult(value=float(sol.value),
                    support=tuple(support),
                    witness_values=tuple(float(sign * v) for v in f),
                    iterations=sol.iterations)


# ---------------------------------------------------------------------------
# tightness
# ---------------------------------------------------------------------------


def tightness_witness(family: Sequence[FiniteMeasure], eps: float) -> MeasurableSet:
    """A closed ball A with mu(complement of A) <= eps for every family member.

    The center is the atom (over the whole family) nearest the weighted
    barycenter on cube carriers, or the weighted medoid on finite
    carriers where no linear structure exists.  Radii are searched over
    the exact distances from the center to the family's atoms, smallest
    first, so the result is the least such ball; the largest radius
    always succeeds because atomic mass cannot escape its own support.
    """
    family = list(family)
    if not family:
        raise DomainError("tightness needs a nonempty family")
    if not eps > 0:
        raise DomainError("eps must be positive")
    space = family[0].space
    if any(mu.space != space for mu in family):
        raise DomainError("family members live on different carriers")

    all_points = np.concatenate([mu.points for mu in family if mu.n_atoms])
    all_weights = np.concatenate([mu.weights for mu in family if mu.n_atoms])
    if all_weights.size == 0:
        return ball_set(space.point_at(np.zeros(space.dim)) if space.kind == "cube" else 0, 0.0)

    if space.kind == "cube":
        bary = np.average(all_points, axis=0, weights=all_weights)
        dists = np.linalg.norm(all_points - bary[None, :], axis=1)
    else:
        # weighted medoid: atom minimising the mass-weighted distance sum
        totals = space.dist_matrix[np.asarray(all_points, int)][:, np.asarray(all_points, int)]
        dists = totals @ all_weights
    center = space.point_at(all_points[int(np.argmin(dists))])

    radii = np.unique(space.dist_to(all_points, center))
    for r in radii:
        candidate = ball_set(center, float(r))
        worst = max(mu.total_mass - measure_of(mu, candidate) for mu in family)
        if worst <= eps + 1e-12:
            return candidate
    raise RuntimeError("tightness search exhausted its candidates")  # unreachable


# ---------------------------------------------------------------------------
# measure families and scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyLabel:
    """Ground-truth annotation: converges_to / diverges / unknown.

    Divergent families still carry a reference measure: the candidate
    limit the certification harness is asked to (rightly) reject.
    """

    kind: str
    reference: Optional[FiniteMeasure] = None

    def __post_init__(self):
        if self.kind not in ("converges_to", "diverges", "unknown"):
            raise DomainError(f"unknown label kind {self.kind!r}")
        if self.kind != "unknown" and self.reference is None:
            raise DomainError(f"label {self.kind!r} needs a reference measure")


UNLABELED = FamilyLabel(kind="unknown")


@dataclass(frozen=True)
class MeasureFamily:
    """An indexed sequence n -> mu_n of finite measures (1-indexed)."""

    space: CompactSpace
    measure_fn: Callable[[int], FiniteMeasure]
    label: FamilyLabel = UNLABELED
    name: str = "family"

    def measure(self, n: int) -> FiniteMeasure:
        if n < 1:
            raise DomainError("family indices start at 1")
        return self.measure_fn(n)

    def prefix(self, count: int) -> List[FiniteMeasure]:
        return [self.measure(n) for n in range(1, count + 1)]


@dataclass(frozen=True)
class BuiltPrefixFamily(MeasureFamily):
    """A family whose first terms are already built.

    ``prefix`` slices the built terms instead of rebuilding them, so one
    build can serve several certifications; ``measure`` still builds
    from ``measure_fn``, which keeps single-term rechecks independent of
    the built list.
    """

    built: tuple = ()

    def prefix(self, count: int) -> List[FiniteMeasure]:
        if count <= len(self.built):
            return list(self.built[:count])
        return super().prefix(count)


def _inverse_cdf_draws(law: FiniteMeasure, seed: int, count: int) -> np.ndarray:
    """Atom indices of the first ``count`` i.i.d. draws from ``law``.

    Counter-based (Philox) seeding: the first n draws never depend on how
    many were requested, so prefixes of the draw are consistent.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random(count)
    idx = np.searchsorted(np.cumsum(law.weights), u, side="right")
    return np.minimum(idx, law.n_atoms - 1)


_DRIFT_RATES = {
    "harmonic": lambda n: 1.0 / n,
    "quadratic": lambda n: 1.0 / (n * n),
    "geometric": lambda n: 2.0 ** (-n),
}


def scenario(kind: str, params: dict, seed: int = 0) -> MeasureFamily:
    """Built-in labeled measure sequences used by the certification suites.

    Kinds: ``dirac_drift`` (a Dirac sliding to its limit at a chosen
    rate), ``mass_split`` (mass 1/n defecting to a second atom),
    ``alternating`` (two Diracs in alternation; divergent),
    ``empirical`` (i.i.d. draws from an atomic law, counter-based
    seeding), and ``constant``.
    """
    try:
        space: CompactSpace = params["space"]
    except KeyError as exc:
        raise DomainError("scenario params need a 'space'") from exc

    if kind == "dirac_drift":
        if space.kind != "cube":
            raise UnsupportedError("dirac_drift needs a cube carrier")
        s0 = np.asarray(params["s0"], dtype=float)
        v = np.asarray(params["v"], dtype=float)
        rate = params.get("rate", "harmonic")
        if rate not in _DRIFT_RATES:
            raise DomainError(f"unknown drift rate {rate!r}")
        c = _DRIFT_RATES[rate]
        for probe in (s0, s0 + c(1) * v):
            if not space.contains(tuple(probe)):
                raise DomainError("drift path leaves the carrier")
        limit = dirac(space, tuple(s0))

        def fn(n: int, _s0=s0, _v=v, _c=c) -> FiniteMeasure:
            return dirac(space, tuple(_s0 + _c(n) * _v))

        return MeasureFamily(space, fn, FamilyLabel("converges_to", limit),
                             name=f"dirac_drift[{rate}]")

    if kind == "mass_split":
        a, b_pt = params["a"], params["b"]
        limit = dirac(space, a)

        def fn(n: int) -> FiniteMeasure:
            return finite_measure(space, [(a, 1.0 - 1.0 / n), (b_pt, 1.0 / n)])

        return MeasureFamily(space, fn, FamilyLabel("converges_to", limit),
                             name="mass_split")

    if kind == "alternating":
        a, b_pt = params["a"], params["b"]
        if space.distance(a, b_pt) <= 0:
            raise DomainError("alternating needs two distinct points")
        candidate = dirac(space, a)

        def fn(n: int) -> FiniteMeasure:
            return dirac(space, a if n % 2 == 1 else b_pt)

        return MeasureFamily(space, fn, FamilyLabel("diverges", candidate),
                             name="alternating")

    if kind == "empirical":
        law: FiniteMeasure = params["law"]
        if not law.is_probability:
            raise DomainError("empirical sampling needs a probability law")

        def fn(n: int) -> FiniteMeasure:
            idx = _inverse_cdf_draws(law, seed, n)
            counts = np.bincount(idx, minlength=law.n_atoms) / n
            return FiniteMeasure(space=space, points=law.points[counts > 0],
                                 weights=counts[counts > 0])

        return MeasureFamily(space, fn, FamilyLabel("converges_to", law),
                             name="empirical")

    if kind == "constant":
        mu: FiniteMeasure = params["mu"]

        def fn(n: int) -> FiniteMeasure:
            return mu

        return MeasureFamily(space, fn, FamilyLabel("converges_to", mu),
                             name="constant")

    if kind == "position_cycle":
        pts = list(params["points"])
        if len(pts) < 2:
            raise DomainError("position_cycle needs at least two points")
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                if space.distance(p, q) <= 0:
                    raise DomainError("position_cycle points must be distinct")
        candidate = dirac(space, pts[0])

        def fn(n: int) -> FiniteMeasure:
            return dirac(space, pts[(n - 1) % len(pts)])

        return MeasureFamily(space, fn, FamilyLabel("diverges", candidate),
                             name=f"position_cycle[k={len(pts)}]")

    if kind == "oscillating_mixture":
        a, b_pt = params["a"], params["b"]
        w_hi = float(params.get("w_hi", 0.9))
        if space.distance(a, b_pt) <= 0:
            raise DomainError("oscillating_mixture needs two distinct points")
        if not 0.5 < w_hi <= 1.0:
            raise DomainError("w_hi must lie in (0.5, 1]")

        def mix(w: float) -> FiniteMeasure:
            return finite_measure(space, [(a, w), (b_pt, 1.0 - w)])

        candidate = mix(w_hi)  # the odd-parity phase

        def fn(n: int) -> FiniteMeasure:
            return mix(w_hi if n % 2 == 1 else 1.0 - w_hi)

        return MeasureFamily(space, fn, FamilyLabel("diverges", candidate),
                             name="oscillating_mixture")

    raise DomainError(f"unknown scenario kind {kind!r}")


# ---------------------------------------------------------------------------
# random elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomElement:
    """A seeded sampler with an atomic law; draws are inverse-CDF."""

    law: FiniteMeasure
    seed: int = 0

    def __post_init__(self):
        if not self.law.is_probability:
            raise DomainError("random elements need a probability law")

    def sample(self, count: int) -> np.ndarray:
        return self.law.points[_inverse_cdf_draws(self.law, self.seed, count)]
