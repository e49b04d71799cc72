"""The transport simplex behind the BL oracle (``measure._transport``).

Known instances are solved directly and their plans checked against the
dual: the sink potentials v give u_i = min_j (c_ij - v_j), and an optimal
plan costs exactly sum supply * u + sum demand * v.  Random instances are
checked through ``bl_distance`` against independent HiGHS routes, and the
basis the simplex keeps across pivots against a fresh walk of its tree.
"""

from __future__ import annotations

import hashlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import weakconv.measure as measure_module
from test_measure import (assert_certified, cube_pairs, finite_pairs, linprog_transport,
                          pairwise, planar_space, random_pair, signed_difference, transport_lp)
from weakconv.carrier import unit_cube
from weakconv.measure import (_Basis, _cheapest_cells, _northwest_corner, _transport,
                              bl_distance, finite_measure)


def solve(cost, supply, demand):
    """Run the transport simplex on a k x n cost; return (plan, value, pivots)."""
    cost = np.asarray(cost, dtype=float)
    k, n = cost.shape
    plan, v, pivots = _transport(cost, list(range(k)), list(range(n)), supply, demand)
    value = sum(x * cost[i, j] for (i, j), x in plan.items())
    # the plan is feasible and its cost equals the value of the dual the
    # potentials define, so it is optimal
    out, into = np.zeros(k), np.zeros(n)
    for (i, j), x in plan.items():
        assert x >= 0.0
        out[i] += x
        into[j] += x
    np.testing.assert_allclose(out, supply, atol=1e-12)
    np.testing.assert_allclose(into, demand, atol=1e-12)
    u = (cost - v).min(axis=1)
    assert abs(np.dot(supply, u) + np.dot(demand, v) - value) <= 1e-12
    return {cell: x for cell, x in plan.items() if x > 0.0}, value, pivots


def linprog_function_side(space, res, d):
    """Independent route: max f.d over |f| <= 1, |f_i - f_j| <= rho_ij."""
    m = len(d)
    rho = pairwise(space, list(res.support))
    rows, rhs = [], []
    for i in range(m):
        for j in range(i + 1, m):
            row = np.zeros(m)
            row[i], row[j] = 1.0, -1.0
            rows += [row, -row]
            rhs += [rho[i, j], rho[i, j]]
    out = linprog(-d, A_ub=np.array(rows) if rows else None, b_ub=rhs or None,
                  bounds=[(-1.0, 1.0)] * m, method="highs")
    assert out.status == 0, out.message
    return -out.fun


class TestKnownInstances:
    def test_tiny(self):
        # the northwest corner is already the cheapest plan
        plan, value, pivots = solve([[1.0, 3.0], [2.0, 1.0]], [0.5, 0.5], [0.5, 0.5])
        assert value == pytest.approx(1.0)
        assert plan == {(0, 0): 0.5, (1, 1): 0.5}
        assert pivots == 0

    def test_zero_objective(self):
        plan, value, pivots = solve(np.zeros((2, 3)), [0.5, 0.5], [0.2, 0.3, 0.5])
        assert value == 0.0
        assert pivots == 0

    def test_binding_mixture(self):
        # neither start is optimal: the northwest corner costs 3.3, and the
        # cheapest cells cost 1.6, because row 1 fills column 0 first and
        # leaves column 1 to row 0 at cost 4; one pivot reaches 1.4
        plan, value, pivots = solve([[3.0, 4.0, 1.0], [1.0, 1.0, 3.0]], [0.6, 0.4],
                                    [0.3, 0.3, 0.4])
        assert value == pytest.approx(1.4)
        assert pivots >= 1
        assert plan.keys() == {(0, 0), (0, 2), (1, 0), (1, 1)}
        assert plan[0, 0] == pytest.approx(0.2)
        assert plan[0, 2] == pytest.approx(0.4)
        assert plan[1, 0] == pytest.approx(0.1)
        assert plan[1, 1] == pytest.approx(0.3)

    def test_degenerate_instance_terminates(self):
        # three equal atoms: the cheapest cells carry the unique optimal plan
        # (the diagonal), and each of them closes a row and a column at once;
        # the zero-flow cells that complete the tree come from row 0 and
        # price cell (1, 2) below zero, so the simplex must pivot, and every
        # pivot moves nothing
        cost = np.array([[1.0, 1.0, 2.0], [2.0, 0.0, 0.0], [2.0, 2.0, 0.0]])
        weights = np.full(3, 1.0 / 3)
        start = _cheapest_cells(cost, list(weights), list(weights))
        diagonal = {(i, i): 1.0 / 3 for i in range(3)}
        assert {cell: x for cell, x in start.items() if x > 0.0} == diagonal
        plan, value, pivots = solve(cost, weights, weights)
        assert pivots > 0
        assert plan == diagonal
        assert value == pytest.approx(transport_lp(cost, weights, weights), abs=1e-9)
        assert value == pytest.approx(1.0 / 3, abs=1e-12)


def transport_instance(mu, nu):
    """The arguments ``bl_distance(mu, nu)`` hands the transport simplex, and its result."""
    calls = []

    def record(*args):
        calls.append((args, _transport(*args)))
        return calls[-1][1]

    with mock.patch.object(measure_module, "_transport", record):
        bl_distance(mu, nu)
    return calls[0]


def walk(cost, cells, k, n):
    """Source and sink potentials of a fresh walk of the basis tree from source 0."""
    adj = [[] for _ in range(k + n)]
    for i, j in cells:
        adj[i].append(k + j)
        adj[k + j].append(i)
    pot, seen, queue = [0.0] * (k + n), {0}, [0]
    for node in queue:
        for nb in adj[node]:
            if nb not in seen:
                i, j = (node, nb - k) if node < k else (nb, node - k)
                pot[nb] = cost[i, j] - pot[node]
                seen.add(nb)
                queue.append(nb)
    assert len(seen) == k + n        # the basis spans every source and sink
    return np.array(pot[:k]), np.array(pot[k:])


class TestBasisTree:
    @given(st.one_of(cube_pairs(), finite_pairs()))
    @settings(max_examples=25, deadline=None)
    def test_potentials_equal_a_fresh_walk(self, pair):
        # the tree is re-hung piece by piece across pivots, yet its sink
        # potentials match a walk of the final basis bit for bit
        (cost, src, snk, supply, demand), (plan, v, _) = transport_instance(*pair)
        k, n = len(src), len(snk)
        assert len(plan) == k + n - 1
        assert list(plan) == sorted(plan)
        assert np.array_equal(v, walk(cost[np.ix_(src, snk)], plan, k, n)[1])

    @given(st.one_of(cube_pairs(), finite_pairs()), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_reduced_costs_equal_a_fresh_walk_after_every_pivot(self, pair, bland):
        # pricing reads the potentials through views of one buffer; after
        # every pivot it equals a pricing of a fresh walk, bit for bit
        (cost, src, snk, supply, demand), _ = transport_instance(*pair)
        cost = cost[np.ix_(src, snk)]
        k, n = cost.shape
        basis = _Basis(cost, _cheapest_cells(cost, supply, demand))
        while True:
            u, v = walk(cost, basis.flow, k, n)
            assert basis.reduced.tobytes() == ((cost - u[:, None]) - v).tobytes()
            if (cell := basis.entering(bland)) is None:
                break
            basis.pivot(*cell)


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        space = unit_cube(int(rng.integers(1, 9))) if seed % 3 else planar_space(rng, 12)
        mu, nu = random_pair(space, rng, int(rng.integers(2, 13)))
        res = bl_distance(mu, nu)
        assert_certified(res, mu, nu)
        assert abs(res.value - linprog_transport(mu, nu)) <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_bl_shaped_instances(self, seed):
        # the function-side LP: box rows and both directions of each pair row
        rng = np.random.default_rng(100 + seed)
        space = unit_cube(int(rng.integers(1, 4)))
        mu, nu = random_pair(space, rng, int(rng.integers(2, 7)))
        res = bl_distance(mu, nu)
        ref = linprog_function_side(space, res, signed_difference(res, mu, nu))
        assert abs(res.value - ref) <= 1e-9


def bland_start(start, dim, side, seed):
    """Equal weights on halves of a grid, and a basis at the given start."""
    grid = np.array(list(itertools.product(np.linspace(0.0, 1.0, side), repeat=dim)))
    order = np.random.default_rng(seed).permutation(len(grid))
    k = len(grid) // 2
    src, snk = grid[order[:k]], grid[order[k:2 * k]]
    cost = np.minimum(np.linalg.norm(src[:, None] - snk[None], axis=-1), 2.0)
    weights = [1.0 / k] * k
    flow = (_northwest_corner(weights, weights) if start == "northwest"
            else _cheapest_cells(cost, weights, weights))
    return cost, weights, _Basis(cost, flow)


class TestBlandPhase:
    """Bland's rule from the first pivot, on ties that force degenerate pivots.

    ``_transport`` turns to Bland's rule only after k + n degenerate pivots
    in a row, which no small instance reaches, so the basis is driven here
    with ``entering(bland=True)`` throughout.  Equal weights on a grid make
    many cells cost the same and many starting cells carry no flow.
    """

    @pytest.mark.parametrize("start", ["northwest", "cheapest"])
    @pytest.mark.parametrize("dim,side", [(1, 17), (2, 4), (2, 5)])
    @pytest.mark.parametrize("seed", range(4))
    def test_terminates_at_the_optimum(self, start, dim, side, seed):
        cost, weights, basis = bland_start(start, dim, side, seed)
        k = len(weights)
        pivots = degenerate = 0
        while (cell := basis.entering(bland=True)) is not None:
            degenerate += basis.pivot(*cell) == 0.0
            pivots += 1
            assert pivots <= k * k * k   # far past any of these runs: a cycle fails here
        assert degenerate > 0
        assert (basis.reduced >= -1e-12).all()
        value = sum(x * cost[i, j] for (i, j), x in basis.flow.items())
        assert abs(value - transport_lp(cost, weights, weights)) <= 1e-9


def grid_pair(dim, side, seed):
    """Equal-weight halves of a grid: many equal costs, many empty starting cells."""
    grid = list(itertools.product(np.linspace(0.0, 1.0, side).tolist(), repeat=dim))
    order = np.random.default_rng(seed).permutation(len(grid))
    k = len(grid) // 2
    space = unit_cube(dim)
    return tuple(finite_measure(space, [(grid[t], 1.0 / k) for t in half])
                 for half in (order[:k], order[k:2 * k]))


def pinned_case(name):
    kind, *args = name.split("-")
    if kind == "cube":
        dim, m = map(int, args)
        return random_pair(unit_cube(dim), np.random.default_rng(10 * m + dim), m)
    if kind == "plane":
        rng = np.random.default_rng(int(args[0]))
        return random_pair(planar_space(rng, 64), rng, 64)
    if kind == "ground":                 # masses 1 and 1.5: the ground node is a sink
        mu, nu = random_pair(unit_cube(2), np.random.default_rng(7), 40)
        return finite_measure(mu.space, [(p, 1.5 * w) for p, w in mu.atoms()]), nu
    dim, side, seed = map(int, args)
    return grid_pair(dim, side, seed)


# sha256 prefixes of each case's plan, sink potentials and pivot count and
# of its BL value, witness and iteration count: a change to the simplex that
# moves any pivot or any bit fails here
PINNED = {
    "cube-1-25": "c32569c51e6a483b", "cube-1-50": "9947113e3b601ac6",
    "cube-1-100": "d44c16d5d5806643", "cube-1-200": "818d9508e909e5d0",
    "cube-2-25": "ede389a360935efe", "cube-2-50": "28f8763496100758",
    "cube-2-100": "f32705aa03ef1c75", "cube-2-200": "7db2d7d129c6cd96",
    "cube-8-25": "82abd9511d735166", "cube-8-50": "47462a6ea14d4ad4",
    "cube-8-100": "2039539f94a83185", "cube-8-200": "0c174fd52f55169f",
    "plane-0": "912d9f3944213e02", "plane-1": "5a33b518e88af1ae",
    "ground": "065506443ac5282a", "grid-1-17-0": "17a172d915a4b369",
    "grid-2-5-1": "616dfc8d719e5d11", "grid-2-8-2": "3aafd41f60d9025b",
    "grid-3-4-3": "d9143debd849cbfd",
}


class TestBitIdentity:
    """Every plan, potential, pivot count and BL bit stays as pinned."""

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_transport_and_oracle_outputs_are_pinned(self, name):
        mu, nu = pinned_case(name)
        _, (plan, v, pivots) = transport_instance(mu, nu)
        res = bl_distance(mu, nu)
        blob = repr((list(plan.items()), v.tobytes(), pivots,
                     res.value, res.witness_values, res.iterations))
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == PINNED[name]

    @pytest.mark.parametrize("start,dim,side,seed,digest", [
        ("northwest", 2, 5, 1, "06acf9c38bb93f13"), ("northwest", 3, 4, 2, "f7a4ea04d5d43bba"),
        ("cheapest", 2, 5, 1, "87d9d78bce9173e7"), ("cheapest", 3, 4, 2, "bed4133153721626")])
    def test_bland_phase_is_pinned(self, start, dim, side, seed, digest):
        _, _, basis = bland_start(start, dim, side, seed)
        pivots = 0
        while (cell := basis.entering(bland=True)) is not None:
            basis.pivot(*cell)
            pivots += 1
        blob = repr((sorted(basis.flow.items()), basis.reduced.tobytes(), pivots))
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest
