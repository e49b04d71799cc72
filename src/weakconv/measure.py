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
nothing is lost by optimising over the support alone.  Its dual is a
transport problem under the truncated metric min(rho, 2), solved by an
in-house network simplex; every result carries a checked primal-dual
certificate.  Useful closed forms for tests:
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

from .carrier import CompactSpace, MeasurableSet, Point, ball_set, point_from_json
from .errors import CapacityError, DomainError, UnsupportedError

MAX_BL_SUPPORT = 400
_PROB_TOL = 1e-9
_CERT_TOL = 1e-9      # BL certificate: gap, witness feasibility, marginals
_PRICE_TOL = 1e-12    # a transport cell enters below this reduced cost


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
    for e in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(e, n)
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
    source 0 bit for bit, however many pivots came before.
    """

    def __init__(self, cost: np.ndarray, flow: dict):
        k, n = cost.shape
        # row x of c lists node x's cell costs: c[i][j] for source i, c[k + j][i] for sink j
        self.k, self.cost, self.c, self.flow = k, cost, cost.tolist() + cost.T.tolist(), flow
        self.adj = [[] for _ in range(k + n)]
        for i, j in flow:
            self.adj[i].append(k + j)
            self.adj[k + j].append(i)
        self.parent, self.depth, self.pot = [-1] * (k + n), [0] * (k + n), [0.0] * (k + n)
        self.reduced = np.empty_like(cost)
        self._hang(0, -1)
        self._price()

    def _price(self) -> None:
        k, pot, reduced = self.k, self.pot, self.reduced
        np.subtract(self.cost, np.array(pot[:k])[:, None], out=reduced)
        np.subtract(reduced, np.array(pot[k:]), out=reduced)

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
        # the cycle closed by (i, j): tree path from its sink back to its source
        p, q = i, k + j
        up_p, up_q = [], []
        while p != q:
            if depth[p] >= depth[q]:
                up_p.append(p)
                p = parent[p]
            else:
                up_q.append(q)
                q = parent[q]
        cells = [(x, parent[x] - k) if x < k else (parent[x], x - k)
                 for x in up_q + up_p[::-1]]
        out = min(range(0, len(cells), 2), key=lambda t: (flow[cells[t]], cells[t]))
        leave = cells[out]
        theta = flow[leave]
        for cell in cells[0::2]:
            flow[cell] -= theta
        for cell in cells[1::2]:
            flow[cell] += theta
        del flow[leave]
        flow[i, j] = theta
        adj[leave[0]].remove(k + leave[1])
        adj[k + leave[1]].remove(leave[0])
        adj[i].append(k + j)
        adj[k + j].append(i)
        # the cut-off subtree holds the sink of (i, j) when the leaving cell
        # lies on the sink's side of the cycle, and its source otherwise
        self._hang(*((k + j, i) if out < len(up_q) else (i, k + j)))
        self._price()
        return theta


def _transport(cost: np.ndarray, src: list, snk: list, supply: list, demand: list):
    """Cheapest plan moving ``supply`` at atoms ``src`` onto ``demand`` at ``snk``.

    Network simplex on a spanning-tree basis.  The northwest corner is
    priced first and returned if nothing improves on it; otherwise the
    simplex restarts from the cheapest cells.  A pivot re-hangs only the
    subtree it cuts off; pricing stays one vectorised pass over all k x n
    cells.  The most negative reduced cost enters (Dantzig) until k + n
    degenerate pivots in a row; from then on the smallest improving cell
    enters (Bland).  Leaving ties go to the smallest cell, so the Bland
    phase cannot cycle and no pivot cap is needed.  Returns the basic
    cells {(i, j): amount} in sorted order (i indexes ``src``, j
    ``snk``), the sink potentials v of a walk from source 0 and the pivot
    count.
    """
    k, n = len(src), len(snk)
    if not (k and n):
        return {}, np.zeros(n), 0
    flow = _northwest_corner(supply, demand)
    if k == 1 or n == 1:    # a forced plan: the walk from source 0 gives v_j = c_0j
        return flow, cost[src[0], snk], 0
    cost = cost[src][:, snk]
    basis = _Basis(cost, flow)
    pivots = 0
    if basis.entering(bland=False) is not None:
        basis = _Basis(cost, _cheapest_cells(cost, supply, demand))
        degenerate = 0                  # stops resetting once at k + n
        while (cell := basis.entering(bland=degenerate >= k + n)) is not None:
            theta = basis.pivot(*cell)
            pivots += 1
            degenerate = degenerate + 1 if theta == 0.0 or degenerate >= k + n else 0
    return dict(sorted(basis.flow.items())), np.array(basis.pot[k:]), pivots


def bl_distance(mu: FiniteMeasure, nu: FiniteMeasure) -> BLResult:
    """Exact bounded-Lipschitz distance between atomic probability measures.

    For probability measures BL is the Wasserstein-1 distance under the
    truncated metric c = min(rho, 2) (Dudley, Real Analysis and
    Probability, 11.8): a transport problem from the atoms where mu - nu
    is positive to those where it is negative.  The witness is the
    c-transform of the sink potentials over the whole union support,
    centred into [-1, 1].  A result is returned only once its certificate
    holds within 1e-9: a nonnegative plan with the right marginals, a
    witness with |f| <= 1 and |f_i - f_j| <= rho_ij, and equal primal and
    dual values.  No plan can match unequal total masses, so their
    imbalance (at most 2e-9) widens the marginal and gap tolerances.
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
    sign = -1.0 if next((di for di in d if di != 0.0), 0.0) < 0 else 1.0
    d = [sign * di for di in d]
    src = [i for i in range(m) if d[i] > 0]
    snk = [i for i in range(m) if d[i] < 0]
    supply, demand = [d[i] for i in src], [-d[j] for j in snk]
    pts = np.array(support)
    if mu.space.kind == "finite":
        rho = mu.space.dist_matrix[np.ix_(pts, pts)]
    else:  # dot products, as in CompactSpace.distance, so Dirac values match it
        diff = pts[:, None] - pts
        rho = np.sqrt(diff[..., None, :] @ diff[..., None])[..., 0, 0]
    cost = np.minimum(rho, 2.0)
    plan, v, pivots = _transport(cost, src, snk, supply, demand)
    f = (cost[:, snk] - v).min(axis=1) if snk else np.zeros(m)
    f -= (f.max() + f.min()) / 2.0
    witness = f.tolist()

    value = 0.0
    out, into = [0.0] * len(src), [0.0] * len(snk)
    for (i, j), x in plan.items():
        out[i] += x
        into[j] += x
        value += x * float(cost[src[i], snk[j]])
    slack = _CERT_TOL + abs(sum(d))
    failed = [name for name, bad in (
        ("negative plan", min(plan.values(), default=0.0) < 0.0),
        ("marginals", sum(abs(x - y) for x, y in zip(out + into, supply + demand)) > slack),
        ("witness bound", max(map(abs, witness)) > 1.0 + _CERT_TOL),
        ("witness Lipschitz", (np.abs(f[:, None] - f) - rho).max() > _CERT_TOL),
        ("duality gap", abs(sum(x * y for x, y in zip(d, witness)) - value) > slack)) if bad]
    if failed:
        raise RuntimeError(f"BL certificate failed: {', '.join(failed)}")
    return BLResult(value=value, support=tuple(support),
                    witness_values=tuple(sign * fi for fi in witness),
                    iterations=pivots)


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
