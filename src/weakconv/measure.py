"""Atomic finite measures and the bounded-Lipschitz metric.

A finite measure here is a nonnegative weighted sum of Dirac masses on a
compact carrier.  Atoms are kept in a canonical form (lexicographically
sorted, duplicates merged, zero weights dropped), which makes equality,
serialisation and support bookkeeping deterministic.

The bounded-Lipschitz (Dudley) distance between finite measures,

    bl(mu, nu) = sup { integral f d(mu - nu) : |f| <= 1, Lip(f) <= 1 },

restricts, for atomic measures, to an exact finite linear program over
the function values on the union support: any feasible assignment of
values extends to the whole carrier by a clamped McShane extension, so
nothing is lost by optimising over the support alone.  Its dual is a
transport problem under the truncated metric min(rho, 2), with one
ground node at distance 1 from every atom taking up any difference of
the total masses, solved by an in-house network simplex; every result
carries a checked primal-dual certificate.  The cost matrix comes from
the carrier's one elementwise distance kernel, ``CompactSpace.dist_to``,
so BL values do not depend on the BLAS build.  Useful closed forms for
tests: bl(delta_x, delta_y) = min(2, rho(x, y)) to the last bit, and the
value never exceeds 2.

Tightness witnesses search closed balls centered at the atom nearest the
family's weighted barycenter, with radii taken from the finite set of
atom distances; for a finite family of atomic measures this search is
exhaustive, so a returned witness is minimal among that candidate set.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .carrier import (CompactSpace, MeasurableSet, Point, ball_set, choice, known,
                      number, point_from_json, point_to_json)
from .errors import CapacityError, CertificateError, DomainError, UnsupportedError

MAX_BL_SUPPORT = 400
_PROB_TOL = 1e-9
_CERT_TOL = 1e-9      # BL certificate: gap, witness feasibility, marginals
_ROUNDING = float(np.finfo(float).eps)  # per atom, for a mass difference within rounding
_PRICE_TOL = 1e-12    # a transport cell enters below this reduced cost


# ---------------------------------------------------------------------------
# finite measures
# ---------------------------------------------------------------------------


def _canonical_atoms(space: CompactSpace, points: np.ndarray,
                     weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort lexicographically, merge exact duplicates, drop zero weights."""
    if len(weights) <= 1:  # one atom is already sorted and merged
        alive = weights > 0
        return points[alive], weights[alive]
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

    @cached_property
    def total_mass(self) -> float:
        # weights that are each finite may sum to inf: callers report that
        with np.errstate(over="ignore"):
            return float(self.weights.sum())

    @property
    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= _PROB_TOL

    def atoms(self) -> List[Tuple[Point, float]]:
        return [(self.space.point_at(self.points[i]), float(self.weights[i]))
                for i in range(self.n_atoms)]

    def to_json(self) -> dict:
        return {"atoms": [{"point": point_to_json(p), "weight": w} for p, w in self.atoms()]}

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMeasure):
            return NotImplemented
        return (self.space == other.space
                and np.array_equal(self.points, other.points)
                and np.array_equal(self.weights, other.weights))


def atom_sums(weights: np.ndarray, columns, starts: Sequence[int] = (0,)) -> np.ndarray:
    """sum_i w_i v_i over each run of atoms: one row a run, one column a column.

    ``columns`` holds each column's values, one per atom (a list of arrays
    or the rows of a 2-D array).  Run k is the atoms ``starts[k]`` up to
    ``starts[k + 1]``, the last to the end; ``starts`` does not decrease.
    The products fill one atoms x columns array, and ``np.add.reduceat``
    sums each run along the atom axis by numpy's pairwise sum, which no
    BLAS kernel touches: a run's sum depends on its own products alone, so
    a sweep over many measures gives the bits of one call per measure.  An
    empty run sums to 0.0; past the float range a sum is +-inf, and
    inf - inf is nan, with no warning.
    """
    starts = np.asarray(starts, dtype=np.intp)
    products = np.empty((len(weights), len(columns)), order="F")
    sums = np.zeros((len(starts), len(columns)))
    # reduceat returns the product at the index for an empty run
    full = starts < np.concatenate((starts[1:], [len(weights)]))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, col in enumerate(columns):
            np.multiply(weights, col, out=products[:, j])
        sums[full] = np.add.reduceat(products, starts[full], axis=0)
    return sums


def finite_measure(space: CompactSpace, atoms: Sequence[Tuple[Point, float]]) -> FiniteMeasure:
    """Build a measure from (point, weight) pairs; weights must be >= 0.

    All weights are checked with one array test and all points with
    another.  When a check fails, the atoms are checked again one at a
    time, so the error names the first offending atom.
    """
    atoms = list(atoms)
    arrays = _checked_arrays(space, atoms)
    if arrays is None:
        arrays = _checked_atoms(space, atoms)
    points, weights = _canonical_atoms(space, *arrays)
    return FiniteMeasure(space=space, points=points, weights=weights)


def _checked_arrays(space: CompactSpace, atoms: list) -> Optional[tuple]:
    """The atoms' points and weights as arrays if every atom passes the
    checks of ``_checked_atoms``, else None."""
    if not atoms:
        return None
    try:
        wts = [float(w) for _, w in atoms]
        pts = [p for p, _ in atoms]
        # a finite sum has no NaN or infinite term, so min sees every weight
        if not (math.isfinite(sum(wts)) and min(wts) >= 0):
            return None
        if space.kind == "finite":
            # what CompactSpace.contains accepts: integer indices in range
            if not (all(issubclass(t, (int, np.integer)) for t in set(map(type, pts)))
                    and min(pts) >= 0 and max(pts) < space.n_points):
                return None
            points = np.asarray(pts, dtype=int)
        else:
            points = np.asarray(pts, dtype=float)
            # a NaN coordinate makes min and max NaN, which fails both tests
            if not (points.ndim == 2 and points.shape[1] == space.dim
                    and points.min() >= 0.0 and points.max() <= 1.0):
                return None
    except (TypeError, ValueError, OverflowError):  # _checked_atoms raises it at its atom
        return None
    return points, np.array(wts)


def _checked_atoms(space: CompactSpace, atoms: list) -> tuple:
    """The atoms' points and weights as arrays, checked one atom at a time."""
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
        return space.points_array(pts), np.asarray(wts, dtype=float)
    shape = (0,) if space.kind == "finite" else (0, space.dim)
    return np.zeros(shape, dtype=int if space.kind == "finite" else float), np.zeros(0)


def dirac(space: CompactSpace, point: Point, weight: float = 1.0) -> FiniteMeasure:
    return finite_measure(space, [(point, weight)])


def measure_from_json(space: CompactSpace, node: dict) -> FiniteMeasure:
    if not (isinstance(node, dict) and isinstance(node.get("atoms"), list)):
        raise DomainError("measure JSON needs an 'atoms' list")
    known(node, ("atoms",), "measure")
    atoms = []
    for entry in node["atoms"]:
        if not (isinstance(entry, dict) and "point" in entry and "weight" in entry):
            raise DomainError(f"bad atom entry {entry!r}")
        known(entry, ("point", "weight"), "atom")
        atoms.append((point_from_json(space, entry["point"]),
                      number(entry["weight"], "atom weight")))
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


# ---------------------------------------------------------------------------
# bounded-Lipschitz distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BLResult:
    """Optimal value and the optimising function values on the support."""

    value: float
    support: tuple          # union support points, canonical order
    witness_values: tuple   # f at each support point, in [-1, 1]
    iterations: int         # transport simplex pivots

    def witness(self) -> List[Tuple[Point, float]]:
        return list(zip(self.support, self.witness_values))


def _union_support(mu: FiniteMeasure, nu: FiniteMeasure):
    """Merged support with signed weight differences d_i = mu_i - nu_i."""
    keys = [m.points.tolist() if m.space.kind == "finite"
            else list(map(tuple, m.points.tolist())) for m in (mu, nu)]
    support = sorted(set(keys[0]).union(keys[1]))
    index = {p: i for i, p in enumerate(support)}
    d = [0.0] * len(support)
    for p, w in zip(keys[0], mu.weights.tolist()):
        d[index[p]] += w
    for p, w in zip(keys[1], nu.weights.tolist()):
        d[index[p]] -= w
    return support, d


def _northwest_corner(supply: list, demand: list) -> dict:
    """The northwest-corner basis {(i, j): amount}, in sorted cell order."""
    k, n = len(supply), len(demand)
    flow = {}
    ra, rb = list(supply), list(demand)
    i = j = 0
    while i < k and j < n:
        x = min(ra[i], rb[j])
        ra[i] -= x
        rb[j] -= x
        flow[i, j] = x
        if j == n - 1 or (i < k - 1 and ra[i] <= rb[j]):
            i += 1
        else:
            j += 1
    return flow


def _cheapest_cells(cost: np.ndarray, supply: list, demand: list) -> dict:
    """The matrix-minimum basis: cells in (cost, index) order take what they can.

    Each cell taken closes its row or its column, and the last one both, so
    the k + n - 1 cells form a spanning tree.  A cell that exhausts its row
    and its column at once closes only the row (only the column once one row
    is left), and the line left open joins the tree through a later,
    zero-flow cell.
    """
    k, n = cost.shape
    ra, rb = list(supply), list(demand)
    open_row, open_col = [True] * k, [True] * n
    rows, cols = k, n
    flow = {}
    order = np.argsort(cost, axis=None, kind="stable")
    for i, j in zip((order // n).tolist(), (order % n).tolist()):
        if open_row[i] and open_col[j]:
            x = min(ra[i], rb[j])
            ra[i] -= x
            rb[j] -= x
            flow[i, j] = x
            if len(flow) == k + n - 1:
                break
            if rows > 1 and (ra[i] == 0.0 or cols == 1):
                open_row[i] = False
                rows -= 1
            else:
                open_col[j] = False
                cols -= 1
    return flow


class _Basis:
    """A spanning-tree transport basis rooted at source 0, kept across pivots.

    Nodes are the sources 0..k-1 and the sinks k..k+n-1.  Every node keeps
    its parent, its depth and its potential, with u_i + v_j = c_ij on each
    basic cell.  A potential is always set by the walk formula
    pot[x] = c - pot[parent[x]], so it equals a fresh walk of the tree from
    source 0 bit for bit, however many pivots came before.  The potentials
    live in one ``array("d")`` buffer, and ``u`` (a column) and ``v`` are
    zero-copy numpy views of it, so pricing reads them with no conversion.
    """

    def __init__(self, cost: np.ndarray, flow: dict):
        k, n = cost.shape
        # row x of c lists node x's cell costs: c[i][j] for source i, c[k + j][i] for sink j
        self.k, self.cost, self.c, self.flow = k, cost, cost.tolist() + cost.T.tolist(), flow
        self.adj = [[] for _ in range(k + n)]
        for i, j in flow:
            self.adj[i].append(k + j)
            self.adj[k + j].append(i)
        self.parent, self.depth = [-1] * (k + n), [0] * (k + n)
        self.pot = array("d", [0.0]) * (k + n)
        view = np.frombuffer(self.pot)
        self.u, self.v = view[:k, None], view[k:]
        self.reduced = np.empty_like(cost)
        self._hang(0, -1)
        self._price()

    def _price(self) -> None:
        np.subtract(self.cost, self.u, out=self.reduced)
        np.subtract(self.reduced, self.v, out=self.reduced)

    def _hang(self, x: int, y: int) -> None:
        """Hang the subtree at x under y, or the whole tree at the root when y < 0."""
        k, c, adj, parent, depth, pot = self.k, self.c, self.adj, self.parent, self.depth, self.pot
        parent[x] = y
        if y >= 0:
            depth[x] = depth[y] + 1
            pot[x] = c[y][x - (k if y < k else 0)] - pot[y]
        order = [x]
        for node in order:
            row, off, par = c[node], (k if node < k else 0), parent[node]
            below, base = depth[node] + 1, pot[node]
            for nb in adj[node]:
                if nb != par:
                    parent[nb], depth[nb], pot[nb] = node, below, row[nb - off] - base
                    order.append(nb)

    def entering(self, bland: bool):
        """The entering cell (i, j): the most negative reduced cost, or under
        Bland's rule the smallest improving cell; None at an optimum."""
        if bland:
            improving = np.flatnonzero(self.reduced < -_PRICE_TOL)
            e = int(improving[0]) if improving.size else -1
        else:
            e = int(self.reduced.argmin())
            e = e if self.reduced.flat[e] < -_PRICE_TOL else -1
        return divmod(e, self.reduced.shape[1]) if e >= 0 else None

    def pivot(self, i: int, j: int) -> float:
        """Bring (i, j) into the basis; return the amount moved round its cycle."""
        k, parent, depth, flow, adj = self.k, self.parent, self.depth, self.flow, self.adj
        # the cycle closed by (i, j): the tree cells from its sink and from its
        # source up to where the two paths meet; on either path the first
        # cell and every second one after it give up what (i, j) takes
        p, q = i, k + j
        up_p, up_q = [], []
        while p != q:
            if depth[p] >= depth[q]:
                up_p.append((p, parent[p] - k) if p < k else (parent[p], p - k))
                p = parent[p]
            else:
                up_q.append((q, parent[q] - k) if q < k else (parent[q], q - k))
                q = parent[q]
        losing = up_q[0::2] + up_p[0::2]
        theta, leave = min(zip(map(flow.__getitem__, losing), losing))
        for cell in losing:
            flow[cell] -= theta
        for cell in up_q[1::2] + up_p[1::2]:
            flow[cell] += theta
        del flow[leave]
        flow[i, j] = theta
        adj[leave[0]].remove(k + leave[1])
        adj[k + leave[1]].remove(leave[0])
        adj[i].append(k + j)
        adj[k + j].append(i)
        # the cut-off subtree holds the sink of (i, j) when the leaving cell
        # lies on the sink's side of the cycle, and its source otherwise
        self._hang(*((k + j, i) if leave in up_q else (i, k + j)))
        self._price()
        return theta


def _transport(cost: np.ndarray, src: list, snk: list, supply: list, demand: list):
    """Cheapest plan moving ``supply`` at atoms ``src`` onto ``demand`` at ``snk``.

    Network simplex on a spanning-tree basis.  The northwest corner is
    priced first, without building a basis: its cells form a staircase
    from source 0 on which each cell brings in one new source or sink, so
    one pass down the staircase gives the potentials of a walk from source
    0.  It is returned if nothing improves on it; otherwise the simplex
    starts from the cheapest cells.  A pivot re-hangs only the subtree it
    cuts off; pricing stays one vectorised pass over all k x n cells, on
    numpy views of the potentials.  The most negative reduced cost enters
    (Dantzig) until k + n degenerate pivots in a row; from then on the
    smallest improving cell enters (Bland).  Leaving ties go to the
    smallest cell, so the Bland phase cannot cycle and no pivot cap is
    needed.  Returns the basic cells {(i, j): amount} in sorted order (i
    indexes ``src``, j ``snk``), the sink potentials v of a walk from
    source 0 and the pivot count.
    """
    k, n = len(src), len(snk)
    if not (k and n):
        return {}, np.zeros(n), 0
    flow = _northwest_corner(supply, demand)
    if k == 1 or n == 1:    # a forced plan: the walk from source 0 gives v_j = c_0j
        return flow, cost[src[0], snk], 0
    cost = cost[np.ix_(src, snk)]
    pot, row = array("d", [0.0]) * (k + n), 0
    for (i, j), c in zip(flow, cost[tuple(zip(*flow))].tolist()):
        if i == row:        # the cell brings in sink j
            pot[k + j] = c - pot[i]
        else:               # the cell brings in source i
            pot[i], row = c - pot[k + j], i
    view = np.frombuffer(pot)
    if ((cost - view[:k, None]) - view[k:]).min() >= -_PRICE_TOL:
        return flow, view[k:], 0
    basis = _Basis(cost, _cheapest_cells(cost, supply, demand))
    pivots = 0
    degenerate = 0                  # stops resetting once at k + n
    while (cell := basis.entering(bland=degenerate >= k + n)) is not None:
        theta = basis.pivot(*cell)
        pivots += 1
        degenerate = degenerate + 1 if theta == 0.0 or degenerate >= k + n else 0
    return dict(sorted(basis.flow.items())), basis.v, pivots


def bl_distance(mu: FiniteMeasure, nu: FiniteMeasure) -> BLResult:
    """Exact bounded-Lipschitz distance between atomic finite measures.

    BL is the Wasserstein-1 distance under the truncated metric
    c = min(rho, 2) (Dudley, Real Analysis and Probability, 11.8) once the
    masses agree: a transport problem from the atoms where mu - nu is
    positive to those where it is negative.  The witness is the
    c-transform of the sink potentials over the whole union support,
    centred into [-1, 1].  When the masses differ by more than rounding,
    the excess mu(X) - nu(X) moves to (or from) one ground node g at
    cost 1 from every atom (Hanin 1992; Piccoli & Rossi 2014), which makes
    the transport exact for finite measures; the witness is then the
    c-transform minus its value at g.  A result is returned only once its
    certificate holds: a nonnegative plan with the right marginals and
    equal primal and dual values within 1e-9 * max(1, mu(X), nu(X)), and
    a witness with |f| <= 1 and |f_i - f_j| <= rho_ij within 1e-9; one that
    fails it raises ``CertificateError``.
    """
    check_bl_inputs(mu, nu)
    support, d = _union_support(mu, nu)
    m = len(support)
    if not m:
        return BLResult(value=0.0, support=(), witness_values=(), iterations=0)

    # canonical orientation for exact symmetry: flip so the first nonzero
    # weight difference is positive, and flip the witness back afterwards
    sign = -1.0 if next((di for di in d if di != 0.0), 0.0) < 0 else 1.0
    d = [sign * di for di in d]
    src = [i for i in range(m) if d[i] > 0]
    snk = [i for i in range(m) if d[i] < 0]
    supply, demand = [d[i] for i in src], [-d[j] for j in snk]
    pts = np.array(support)
    rho = mu.space.dist_to(pts[:, None], pts)
    cost = np.minimum(rho, 2.0)
    # masses that agree up to the rounding of the sum need no ground node
    masses, excess = (mu.total_mass, nu.total_mass), sum(d)
    ground = abs(excess) > m * _ROUNDING * sum(masses)
    if ground:  # node m: a sink for a positive excess, a source for a negative one
        cost = np.pad(cost, (0, 1), constant_values=1.0)
        cost[m, m] = 0.0
        nodes, amounts = (snk, demand) if excess > 0 else (src, supply)
        nodes.append(m)
        amounts.append(abs(excess))
    plan, v, pivots = _transport(cost, src, snk, supply, demand)
    f = (cost[:, snk] - v).min(axis=1) if snk else np.zeros(m)
    f = f[:m] - f[m] if ground else f - (f.max() + f.min()) / 2.0
    witness = f.tolist()

    value = 0.0
    out, into = [0.0] * len(src), [0.0] * len(snk)
    for (i, j), x in plan.items():
        out[i] += x
        into[j] += x
        value += x * float(cost[src[i], snk[j]])
    tol = _CERT_TOL * max(1.0, *masses)
    failed = [name for name, bad in (
        ("negative plan", min(plan.values(), default=0.0) < 0.0),
        ("marginals", sum(abs(x - y) for x, y in zip(out + into, supply + demand)) > tol),
        ("witness bound", max(map(abs, witness)) > 1.0 + _CERT_TOL),
        ("witness Lipschitz", (np.abs(f[:, None] - f) - rho).max() > _CERT_TOL),
        ("duality gap", abs(sum(x * y for x, y in zip(d, witness)) - value) > tol)) if bad]
    if failed:
        raise CertificateError(f"BL certificate failed: {', '.join(failed)}")
    return BLResult(value=value, support=tuple(support),
                    witness_values=tuple(sign * fi for fi in witness),
                    iterations=pivots)


def check_bl_inputs(mu: FiniteMeasure, nu: FiniteMeasure) -> None:
    """Raise what ``bl_distance(mu, nu)`` raises before it solves, if anything.

    A caller that solves later checks here first, so a bad input fails
    when it is handed over; only a certificate failure waits for the solve.
    """
    if mu.space != nu.space:
        raise DomainError("measures live on different carriers")
    if not math.isfinite(mu.total_mass + nu.total_mass):
        raise DomainError("the two total masses must have a finite sum")
    if mu.n_atoms + nu.n_atoms > MAX_BL_SUPPORT:  # else the union is within the cap
        m = len(_union_support(mu, nu)[0])
        if m > MAX_BL_SUPPORT:
            raise CapacityError(f"union support {m} exceeds the cap {MAX_BL_SUPPORT}")


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

    all_points = np.concatenate([mu.points for mu in family])
    all_weights = np.concatenate([mu.weights for mu in family])
    if all_weights.size == 0:
        return ball_set(space.point_at(np.zeros(space.dim)) if space.kind == "cube" else 0, 0.0)

    if space.kind == "cube":
        dists = space.dist_to(all_points, np.average(all_points, axis=0, weights=all_weights))
    else:
        # weighted medoid: atom minimising the mass-weighted distance sum
        dists = atom_sums(all_weights, space.dist_to(all_points[:, None], all_points))[0]
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
    seeding), and ``constant``.  A missing param, or one the kind does
    not read, is a ``DomainError``.
    """
    if isinstance(kind, str) and kind in _SCENARIO_PARAMS:  # _scenario reports the rest
        unread = [key for key in params if key not in ("space", *_SCENARIO_PARAMS[kind])]
        if unread:
            raise DomainError(f"scenario {kind!r} reads no {unread[0]!r} param")
    try:
        return _scenario(kind, params, seed)
    except KeyError as exc:
        raise DomainError(f"scenario {kind!r} needs a {exc.args[0]!r} param") from exc


# the params each scenario kind reads, besides the carrier "space"
_SCENARIO_PARAMS = {
    "dirac_drift": ("s0", "v", "rate"),
    "mass_split": ("a", "b"),
    "alternating": ("a", "b"),
    "empirical": ("law",),
    "constant": ("mu",),
    "position_cycle": ("points",),
    "oscillating_mixture": ("a", "b", "w_hi"),
}


def _scenario(kind: str, params: dict, seed: int) -> MeasureFamily:
    space: CompactSpace = params["space"]
    if kind == "dirac_drift":
        if space.kind != "cube":
            raise UnsupportedError("dirac_drift needs a cube carrier")
        s0 = np.asarray(params["s0"], dtype=float)
        v = np.asarray(params["v"], dtype=float)
        rate = choice(params.get("rate", "harmonic"), tuple(_DRIFT_RATES), "drift 'rate'")
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
        a, b_pt = _distinct(space, [params["a"], params["b"]], kind)
        return _cycle(space, [dirac(space, a), dirac(space, b_pt)], kind)

    if kind == "empirical":
        law: FiniteMeasure = params["law"]
        if not law.is_probability:
            raise DomainError("empirical sampling needs a probability law")

        drawn = np.zeros(0, dtype=np.intp)

        def fn(n: int) -> FiniteMeasure:
            # term n counts the first n draws; the draws are kept and grown by
            # doubling, so a prefix of N terms costs O(N) draws, not O(N^2)
            nonlocal drawn
            if n > len(drawn):
                drawn = _inverse_cdf_draws(law, seed, max(n, 2 * len(drawn)))
            counts = np.bincount(drawn[:n], minlength=law.n_atoms) / n
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
        pts = _distinct(space, list(params["points"]), kind)
        return _cycle(space, [dirac(space, p) for p in pts], f"position_cycle[k={len(pts)}]")

    if kind == "oscillating_mixture":
        a, b_pt = _distinct(space, [params["a"], params["b"]], kind)
        w_hi = number(params.get("w_hi", 0.9), "'w_hi'")
        if not 0.5 < w_hi <= 1.0:
            raise DomainError("w_hi must lie in (0.5, 1]")
        # the odd and even phases
        return _cycle(space, [finite_measure(space, [(a, w), (b_pt, 1.0 - w)])
                              for w in (w_hi, 1.0 - w_hi)], kind)

    raise DomainError(f"unknown scenario kind {kind!r}")


def _distinct(space: CompactSpace, pts: list, kind: str) -> list:
    """``pts``, which must be at least two pairwise distinct points."""
    if len(pts) < 2:
        raise DomainError(f"{kind} needs at least two points")
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            if space.distance(p, q) <= 0:
                raise DomainError(f"{kind} needs distinct points")
    return pts


def _cycle(space: CompactSpace, phases: list, name: str) -> MeasureFamily:
    """The divergent family that takes the distinct ``phases`` in turn."""
    def fn(n: int) -> FiniteMeasure:
        return phases[(n - 1) % len(phases)]

    return MeasureFamily(space, fn, FamilyLabel("diverges", phases[0]), name=name)
