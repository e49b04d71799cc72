"""The transport simplex behind the BL oracle (``measure._transport``).

Known instances are solved directly and their plans checked against the
dual: the sink potentials v give u_i = min_j (c_ij - v_j), and an optimal
plan costs exactly sum supply * u + sum demand * v.  Random instances are
checked through ``bl_distance`` against independent HiGHS routes, and the
basis the simplex keeps across pivots against a fresh walk of its tree.
"""

from __future__ import annotations

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
from weakconv.measure import _cheapest_cells, _transport, bl_distance


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
    """Sink potentials of a fresh walk of the basis tree from source 0."""
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
    return np.array(pot[k:])


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
        assert np.array_equal(v, walk(cost[np.ix_(src, snk)], plan, k, n))


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
