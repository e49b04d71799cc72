"""The transport simplex behind the BL oracle (``measure._transport``).

Known instances are solved directly and their plans checked against the
dual: the sink potentials v give u_i = min_j (c_ij - v_j), and an optimal
plan costs exactly sum supply * u + sum demand * v.  Random instances are
checked through ``bl_distance`` against independent HiGHS routes.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from test_measure import (assert_certified, linprog_transport, pairwise, planar_space,
                          random_pair, signed_difference, transport_lp)
from weakconv.carrier import unit_cube
from weakconv.measure import _transport, bl_distance


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
        # the northwest corner costs 1.7; the optimum fills the cheap
        # off-diagonal cells up to their row and column bounds
        plan, value, pivots = solve([[2.0, 1.0], [1.0, 2.0]], [0.6, 0.4], [0.3, 0.7])
        assert value == pytest.approx(1.1)
        assert pivots >= 1
        assert plan.keys() == {(0, 1), (1, 0), (1, 1)}
        assert plan[0, 1] == pytest.approx(0.6)
        assert plan[1, 0] == pytest.approx(0.3)
        assert plan[1, 1] == pytest.approx(0.1)

    def test_degenerate_instance_terminates(self):
        # equal weights: every northwest-corner step exhausts a row and a
        # column at once, and the reversed cost makes that start the worst
        n = 6
        idx = np.arange(n)
        cost = np.abs(idx[:, None] - (n - 1 - idx[None, :])).astype(float)
        weights = np.full(n, 1.0 / n)
        plan, value, pivots = solve(cost, weights, weights)
        assert pivots > 0
        assert value == pytest.approx(transport_lp(cost, weights, weights), abs=1e-9)
        assert value == pytest.approx(0.0, abs=1e-12)


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
