from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.optimize import linprog

import weakconv.measure as measure_module
from weakconv import CapacityError, DomainError
from weakconv.carrier import ball_set, box_set, finite_space, unit_cube
from weakconv.convergence import bl_witness_function
from weakconv.measure import (MAX_BL_SUPPORT, RandomElement, bl_distance, dirac, finite_measure,
                              measure_from_json, measure_of, normalize,
                              point_from_json, pushforward, scenario,
                              tightness_witness)

CUBE1 = unit_cube(1)
CUBE2 = unit_cube(2)
PAIR = finite_space(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
_XY = np.array([[0.0, 0.0], [2.5, 0.0], [0.0, 1.0], [2.5, 2.0]])
PLANE = finite_space(("p", "q", "r", "s"), np.linalg.norm(_XY[:, None] - _XY[None], axis=-1))


def brute_force_bl(space, mu, nu, step=0.05):
    """Independent grid-search route: maximise sum f_i d_i over all grid
    vectors f in [-1,1]^m satisfying the pairwise Lipschitz constraints."""
    pts = sorted({p for p, _ in mu.atoms()} | {p for p, _ in nu.atoms()})
    index = {p: i for i, p in enumerate(pts)}
    d = np.zeros(len(pts))
    for p, w in mu.atoms():
        d[index[p]] += w
    for p, w in nu.atoms():
        d[index[p]] -= w
    grid = np.linspace(-1.0, 1.0, int(round(2.0 / step)) + 1)
    mesh = np.meshgrid(*([grid] * len(pts)), indexing="ij")
    f = np.stack([g.ravel() for g in mesh], axis=1)
    feasible = np.ones(len(f), dtype=bool)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            rho = space.distance(pts[i], pts[j])
            feasible &= np.abs(f[:, i] - f[:, j]) <= rho + 1e-9
    return float((f[feasible] @ d).max())


class TestConstruction:
    def test_atoms_canonicalised(self):
        mu = finite_measure(CUBE1, [((0.7,), 0.25), ((0.2,), 0.5), ((0.7,), 0.25)])
        assert mu.n_atoms == 2
        assert_allclose(mu.points[:, 0], [0.2, 0.7])  # sorted
        assert_allclose(mu.weights, [0.5, 0.5])       # duplicates merged

    def test_zero_weights_dropped(self):
        mu = finite_measure(CUBE1, [((0.3,), 0.0), ((0.6,), 1.0)])
        assert mu.n_atoms == 1

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            finite_measure(CUBE1, [((0.3,), -0.1)])

    def test_outside_carrier_rejected(self):
        with pytest.raises(DomainError):
            finite_measure(CUBE1, [((1.5,), 1.0)])
        with pytest.raises(DomainError):
            finite_measure(PAIR, [(7, 1.0)])

    def test_probability_flag(self):
        assert dirac(CUBE1, (0.5,)).is_probability
        assert not finite_measure(CUBE1, [((0.5,), 0.25)]).is_probability

    def test_equality_is_structural(self):
        a = finite_measure(CUBE1, [((0.2,), 0.5), ((0.8,), 0.5)])
        b = finite_measure(CUBE1, [((0.8,), 0.5), ((0.2,), 0.5)])
        assert a == b  # canonical order makes permutations equal

    def test_json_round_trip(self):
        mu = finite_measure(CUBE2, [((0.25, 0.5), 0.6), ((0.75, 0.25), 0.4)])
        again = measure_from_json(CUBE2, mu.to_json())
        assert again == mu

    def test_labels_resolved_in_json(self):
        mu = measure_from_json(PAIR, {"atoms": [{"point": "b", "weight": 1.0}]})
        assert mu == dirac(PAIR, 1)
        with pytest.raises(DomainError):
            point_from_json(PAIR, "z")

    @pytest.mark.parametrize("space, p", [
        (PAIR, 2), (PAIR, -1), (PAIR, [0.5]), (PAIR, 0.5),
        (CUBE2, [0.5]), (CUBE2, [0.5, 0.5, 0.5]), (CUBE2, [0.5, 1.5]),
        (CUBE2, [0.5, "x"]), (CUBE2, 0.5),
    ])
    def test_points_outside_the_carrier_rejected(self, space, p):
        with pytest.raises(DomainError):
            point_from_json(space, p)


class TestMeasureOf:
    def test_box(self):
        mu = finite_measure(CUBE1, [((0.1,), 0.3), ((0.6,), 0.7)])
        assert measure_of(mu, box_set([0.0], [0.5])) == pytest.approx(0.3)

    def test_ball(self):
        mu = finite_measure(CUBE2, [((0.5, 0.5), 0.9), ((0.95, 0.95), 0.1)])
        a = ball_set((0.5, 0.5), 0.1)
        assert measure_of(mu, a) == pytest.approx(0.9)

    def test_normalize(self):
        mu = finite_measure(CUBE1, [((0.5,), 0.2), ((0.7,), 0.3)])
        nu = normalize(mu)
        assert nu.is_probability
        assert_allclose(nu.weights, [0.4, 0.6])
        assert normalize(nu) == nu

    def test_normalize_zero_rejected(self):
        with pytest.raises(DomainError):
            normalize(finite_measure(CUBE1, []))

    def test_pushforward(self):
        mu = finite_measure(CUBE1, [((0.2,), 0.5), ((0.4,), 0.5)])
        nu = pushforward(mu, lambda p: (p[0] / 2.0,))
        assert_allclose(nu.points[:, 0], [0.1, 0.2])

    def test_pushforward_escaping_rejected(self):
        mu = dirac(CUBE1, (0.9,))
        with pytest.raises(DomainError):
            pushforward(mu, lambda p: (p[0] + 0.5,))


class TestBLDistance:
    @pytest.mark.parametrize("x,y", [(0.0, 1.0), (0.2, 0.9), (0.5, 0.5), (0.3, 0.35)])
    def test_dirac_closed_form_1d(self, x, y):
        got = bl_distance(dirac(CUBE1, (x,)), dirac(CUBE1, (y,))).value
        assert got == pytest.approx(abs(x - y), abs=1e-9)

    def test_dirac_clamps_at_two(self):
        far = finite_space(("a", "b"), np.array([[0.0, 3.5], [3.5, 0.0]]))
        got = bl_distance(dirac(far, 0), dirac(far, 1)).value
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_identical_measures(self):
        mu = finite_measure(CUBE1, [((0.25,), 0.5), ((0.75,), 0.5)])
        assert bl_distance(mu, mu).value == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_exact(self):
        mu = finite_measure(CUBE1, [((0.2,), 0.3), ((0.5,), 0.3), ((0.9,), 0.4)])
        nu = finite_measure(CUBE1, [((0.1,), 0.5), ((0.8,), 0.5)])
        assert bl_distance(mu, nu).value == bl_distance(nu, mu).value

    def test_non_probability_rejected(self):
        mu = finite_measure(CUBE1, [((0.5,), 0.5)])
        with pytest.raises(DomainError):
            bl_distance(mu, dirac(CUBE1, (0.5,)))

    def test_support_cap(self):
        # one atom past the cap: mu on the even grid points, nu on the odd ones
        xs = np.linspace(0.0, 1.0, MAX_BL_SUPPORT + 1)
        even, odd = xs[0::2], xs[1::2]
        mu = finite_measure(CUBE1, [((x,), 1.0 / len(even)) for x in even])
        nu = finite_measure(CUBE1, [((x,), 1.0 / len(odd)) for x in odd])
        with pytest.raises(CapacityError, match=f"union support {MAX_BL_SUPPORT + 1} "):
            bl_distance(mu, nu)

    @pytest.mark.parametrize("seed", range(12))
    def test_brute_force_agreement_cube(self, seed):
        rng = np.random.default_rng(seed)
        pts = [(x,) for x in np.sort(rng.random(3))]
        w1 = rng.dirichlet(np.ones(3))
        w2 = rng.dirichlet(np.ones(3))
        mu = finite_measure(CUBE1, list(zip(pts, w1)))
        nu = finite_measure(CUBE1, list(zip(pts, w2)))
        lp = bl_distance(mu, nu).value
        brute = brute_force_bl(CUBE1, mu, nu, step=0.05)
        assert brute <= lp + 1e-9            # grid points are feasible
        assert lp - brute <= 2 * 0.05        # grid resolves the optimum

    @pytest.mark.parametrize("seed", range(6))
    def test_brute_force_agreement_finite(self, seed):
        rng = np.random.default_rng(50 + seed)
        d = np.array([[0.0, 0.6, 1.1], [0.6, 0.0, 0.7], [1.1, 0.7, 0.0]])
        space = finite_space(("x", "y", "z"), d)
        w1 = rng.dirichlet(np.ones(3))
        w2 = rng.dirichlet(np.ones(3))
        mu = finite_measure(space, list(zip(range(3), w1)))
        nu = finite_measure(space, list(zip(range(3), w2)))
        lp = bl_distance(mu, nu).value
        brute = brute_force_bl(space, mu, nu, step=0.05)
        assert brute <= lp + 1e-9
        assert lp - brute <= 2 * 0.05

    @pytest.mark.parametrize("seed", range(10))
    def test_witness_feasible_and_achieves_value(self, seed):
        rng = np.random.default_rng(200 + seed)
        pts = [tuple(p) for p in rng.random((4, 2))]
        mu = finite_measure(CUBE2, list(zip(pts, rng.dirichlet(np.ones(4)))))
        nu = finite_measure(CUBE2, list(zip(pts, rng.dirichlet(np.ones(4)))))
        res = bl_distance(mu, nu)
        f = np.array(res.witness_values)
        assert np.all(np.abs(f) <= 1.0 + 1e-9)
        for i in range(len(res.support)):
            for j in range(i + 1, len(res.support)):
                rho = CUBE2.distance(res.support[i], res.support[j])
                assert abs(f[i] - f[j]) <= rho + 1e-9
        d = np.zeros(len(res.support))
        index = {p: i for i, p in enumerate(res.support)}
        for p, w in mu.atoms():
            d[index[p]] += w
        for p, w in nu.atoms():
            d[index[p]] -= w
        assert f @ d == pytest.approx(res.value, abs=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        pool = [(x,) for x in np.linspace(0.05, 0.95, 7)]
        measures = []
        for _ in range(3):
            k = int(rng.integers(1, 4))
            chosen = rng.choice(len(pool), size=k, replace=False)
            w = rng.dirichlet(np.ones(k))
            measures.append(finite_measure(CUBE1, [(pool[c], wi)
                                                   for c, wi in zip(chosen, w)]))
        a, b, c = measures
        ab = bl_distance(a, b).value
        ac = bl_distance(a, c).value
        cb = bl_distance(c, b).value
        assert ab <= ac + cb + 1e-9


def pairwise(space, pts):
    """Support distances, computed apart from the oracle's own matrix."""
    if space.kind == "finite":
        return space.dist_matrix[np.ix_(pts, pts)]
    p = np.asarray(pts, dtype=float)
    return np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)


def cross_cost(mu, nu):
    """min(rho, 2) between the atoms of mu (rows) and of nu (columns)."""
    if mu.space.kind == "finite":
        return np.minimum(mu.space.dist_matrix[np.ix_(mu.points, nu.points)], 2.0)
    return np.minimum(np.linalg.norm(mu.points[:, None] - nu.points[None], axis=-1), 2.0)


def signed_difference(res, mu, nu):
    index = {p: i for i, p in enumerate(res.support)}
    d = np.zeros(len(res.support))
    for p, w in mu.atoms():
        d[index[p]] += w
    for p, w in nu.atoms():
        d[index[p]] -= w
    return d


def assert_certified(res, mu, nu):
    """The witness is feasible and attains the value, within 1e-9."""
    f = np.array(res.witness_values)
    rho = pairwise(mu.space, list(res.support))
    assert np.max(np.abs(f)) <= 1.0 + 1e-9
    assert np.max(np.abs(f[:, None] - f[None, :]) - rho) <= 1e-9
    assert abs(f @ signed_difference(res, mu, nu) - res.value) <= 1e-9


def transport_lp(cost, supply, demand):
    """Optimal cost of moving ``supply`` onto ``demand``, solved by HiGHS."""
    k, n = cost.shape
    a_eq = sparse.vstack([sparse.kron(sparse.eye(k), np.ones((1, n))),
                          sparse.kron(np.ones((1, k)), sparse.eye(n))])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([supply, demand]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return res.fun


def linprog_transport(mu, nu):
    """Independent route: the Kantorovich LP between mu and nu under min(rho, 2)."""
    return transport_lp(cross_cost(mu, nu), mu.weights, nu.weights)


def distinct_points(space, rng, m):
    """``m`` distinct random points of the carrier."""
    if space.kind == "finite":
        return [int(p) for p in rng.choice(space.n_points, size=m, replace=False)]
    return [space.point_at(p) for p in space.sample_points(rng, m)]


def random_pair(space, rng, m, share=0.3):
    """Probability measures whose union support is ``m`` random points."""
    pts = distinct_points(space, rng, m)
    side = rng.random(m)
    on_mu = side < 0.5 + share / 2
    on_nu = side >= 0.5 - share / 2
    on_mu[0], on_nu[-1] = True, True

    def build(mask):
        chosen = [p for p, keep in zip(pts, mask) if keep]
        return finite_measure(space, list(zip(chosen, rng.dirichlet(np.ones(len(chosen))))))
    return build(on_mu), build(on_nu)


def planar_space(rng, n, scale=3.0):
    """A finite carrier of ``n`` planar points whose distances reach past 2."""
    xy = rng.random((n, 2)) * scale
    dist = np.linalg.norm(xy[:, None] - xy[None], axis=-1)
    return finite_space(tuple(f"p{i}" for i in range(n)), dist)


@st.composite
def cube_pairs(draw):
    dim = draw(st.integers(1, 8))
    m = draw(st.integers(2, MAX_BL_SUPPORT))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_pair(unit_cube(dim), rng, m)


@st.composite
def finite_pairs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = planar_space(rng, draw(st.integers(2, 64)))
    return random_pair(space, rng, draw(st.integers(2, space.n_points)))


class TestBLProperties:
    """The oracle at the support cap, checked by routes that share none of its code."""

    @given(cube_pairs())
    @example(random_pair(unit_cube(8), np.random.default_rng(0), MAX_BL_SUPPORT))
    @settings(max_examples=20, deadline=None)
    def test_cube_pairs_certified_symmetric_and_match_linprog(self, pair):
        mu, nu = pair
        res, back = bl_distance(mu, nu), bl_distance(nu, mu)
        assert res.value == back.value
        assert back.witness_values == tuple(-f for f in res.witness_values)
        assert_certified(res, mu, nu)
        assert abs(res.value - linprog_transport(mu, nu)) <= 1e-9

    @given(finite_pairs())
    @settings(max_examples=25, deadline=None)
    def test_finite_pairs_past_the_truncation(self, pair):
        mu, nu = pair
        res, back = bl_distance(mu, nu), bl_distance(nu, mu)
        assert res.value == back.value
        assert_certified(res, mu, nu)
        assert abs(res.value - linprog_transport(mu, nu)) <= 1e-9

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_dirac_form(self, dim, seed, finite):
        rng = np.random.default_rng(seed)
        space = planar_space(rng, 8) if finite else unit_cube(dim)
        x, y = distinct_points(space, rng, 2)
        got = bl_distance(dirac(space, x), dirac(space, y)).value
        assert abs(got - min(2.0, space.distance(x, y))) <= 1e-12

    @given(st.integers(2, MAX_BL_SUPPORT), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cdf_form_on_the_line(self, m, seed):
        mu, nu = random_pair(CUBE1, np.random.default_rng(seed), m)
        res = bl_distance(mu, nu)
        xs = np.array([p[0] for p in res.support])
        cdf_gap = np.abs(np.cumsum(signed_difference(res, mu, nu))[:-1]) @ np.diff(xs)
        assert abs(res.value - cdf_gap) <= 1e-12
        assert res.iterations == 0  # the northwest corner is the monotone, optimal plan

    @given(st.integers(1, 8), st.integers(3, MAX_BL_SUPPORT), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_triangle_inequality_at_the_cap(self, dim, m, seed):
        rng = np.random.default_rng(seed)
        space = unit_cube(dim)
        pool = distinct_points(space, rng, m)
        measures = []
        for _ in range(3):
            chosen = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
            w = rng.dirichlet(np.ones(len(chosen)))
            measures.append(finite_measure(space, [(pool[c], wi) for c, wi in zip(chosen, w)]))
        a, b, c = measures
        assert bl_distance(a, b).value <= bl_distance(a, c).value + bl_distance(c, b).value + 1e-9


class TestBLEdgeCases:
    @pytest.mark.parametrize("dim", [1, 2, 8])
    def test_equal_weight_assignment_at_the_cap(self, dim):
        # every northwest-corner step exhausts a row and a column at once:
        # the start is as degenerate as a transport basis can be
        rng = np.random.default_rng(dim)
        space = unit_cube(dim)
        half = MAX_BL_SUPPORT // 2
        pts = distinct_points(space, rng, MAX_BL_SUPPORT)
        mu = finite_measure(space, [(p, 1.0 / half) for p in pts[:half]])
        nu = finite_measure(space, [(p, 1.0 / half) for p in pts[half:]])
        res = bl_distance(mu, nu)
        assert len(res.support) == MAX_BL_SUPPORT
        assert_certified(res, mu, nu)
        assert abs(res.value - linprog_transport(mu, nu)) <= 1e-9

    def test_identical_measures_give_zero(self):
        mu = finite_measure(CUBE2, [((0.1, 0.2), 0.25), ((0.7, 0.4), 0.75)])
        res = bl_distance(mu, mu)
        assert res.value == 0.0 and res.iterations == 0
        assert res.witness_values == (0.0, 0.0)

    def test_known_split_instance(self):
        mu = finite_measure(CUBE1, [((0.0,), 0.5), ((1.0,), 0.5)])
        res = bl_distance(mu, dirac(CUBE1, (0.5,)))
        assert res.value == 0.5 and res.iterations == 0
        assert res.witness_values == (0.25, -0.25, 0.25)

    @pytest.mark.parametrize("space", [CUBE2, PLANE], ids=["cube", "finite"])
    def test_shared_atoms_with_equal_weight_stay_feasible(self, space):
        # d_i = 0 at the shared atoms; the McShane extension of the witness
        # must reproduce every support value, those atoms included
        a, b, c, e = ([space.point_at(p) for p in ((0.5, 0.5), (0.0, 0.0), (1.0, 0.2), (0.3, 1.0))]
                      if space.kind == "cube" else [0, 1, 2, 3])
        mu = finite_measure(space, [(a, 0.3), (b, 0.5), (c, 0.2)])
        nu = finite_measure(space, [(a, 0.3), (c, 0.2), (e, 0.5)])
        res = bl_distance(mu, nu)
        assert_certified(res, mu, nu)
        assert abs(res.value - linprog_transport(mu, nu)) <= 1e-9
        member = bl_witness_function(mu, nu, result=res)
        pts = space.points_array(list(res.support))
        assert_allclose(member.form.evaluate(space, pts), res.witness_values, atol=1e-12)

    def test_truncation_binds_on_finite_pair(self):
        space = finite_space(("a", "b", "c"), np.array([[0.0, 3.0, 2.5],
                                                        [3.0, 0.0, 1.0],
                                                        [2.5, 1.0, 0.0]]))
        mu = finite_measure(space, [(0, 0.5), (2, 0.5)])
        res = bl_distance(mu, dirac(space, 1))
        assert abs(res.value - (0.5 * 2.0 + 0.5 * 1.0)) <= 1e-12  # not 0.5 * 3 + 0.5 * 1
        assert_certified(res, mu, dirac(space, 1))

    @pytest.mark.parametrize("flip", [False, True])
    def test_one_source_or_one_sink_needs_no_pivots(self, flip):
        rng = np.random.default_rng(3)
        space = unit_cube(8)
        many = finite_measure(space, list(zip(distinct_points(space, rng, 40),
                                              rng.dirichlet(np.ones(40)))))
        one = dirac(space, space.point_at(rng.random(8)))
        mu, nu = (one, many) if flip else (many, one)
        res = bl_distance(mu, nu)
        assert res.iterations == 0
        assert_certified(res, mu, nu)
        assert abs(res.value - float(many.weights @ cross_cost(many, one)[:, 0])) <= 1e-12

    def test_masses_off_by_the_probability_tolerance(self):
        # both masses within 1e-9 of one, in opposite directions
        mu = finite_measure(CUBE1, [((0.2,), 0.5 + 4e-10), ((0.7,), 0.5 + 4e-10)])
        nu = finite_measure(CUBE1, [((0.4,), 1.0 - 8e-10)])
        assert abs(bl_distance(mu, nu).value - 0.25) <= 2e-9
        lone = finite_measure(CUBE1, [((0.4,), 1.0 - 8e-10)])
        assert bl_distance(dirac(CUBE1, (0.4,)), lone).value <= 1e-9  # nothing to move

    def test_certificate_rejects_a_wrong_plan(self, monkeypatch):
        solve = measure_module._transport

        def halved(*args):
            plan, v, pivots = solve(*args)
            return {cell: x / 2 for cell, x in plan.items()}, v, pivots

        monkeypatch.setattr(measure_module, "_transport", halved)
        mu = finite_measure(CUBE2, [((0.1, 0.2), 0.4), ((0.9, 0.3), 0.6)])
        with pytest.raises(RuntimeError, match="certificate failed: marginals"):
            bl_distance(mu, dirac(CUBE2, (0.5, 0.5)))


class TestTightness:
    def test_two_diracs_need_radius_one(self):
        witness = tightness_witness([dirac(CUBE1, (0.0,)), dirac(CUBE1, (1.0,))],
                                    eps=0.5)
        cell = witness.cells[0]
        assert cell.radius == pytest.approx(1.0)

    def test_concentrated_family_radius_zero(self):
        family = [finite_measure(CUBE1, [((0.5,), 0.95), ((0.1,), 0.05)]),
                  finite_measure(CUBE1, [((0.5,), 0.95), ((0.9,), 0.05)])]
        witness = tightness_witness(family, eps=0.05)
        cell = witness.cells[0]
        assert cell.center == (0.5,)
        assert cell.radius == 0.0
        for mu in family:
            outside = mu.total_mass - measure_of(mu, witness)
            assert outside <= 0.05 + 1e-12

    def test_medoid_center_on_finite_space(self):
        d = np.array([[0.0, 0.2, 1.0], [0.2, 0.0, 1.0], [1.0, 1.0, 0.0]])
        space = finite_space(("x", "y", "z"), d)
        family = [finite_measure(space, [(0, 0.6), (1, 0.35), (2, 0.05)])]
        witness = tightness_witness(family, eps=0.1)
        cell = witness.cells[0]
        assert cell.center in (0, 1)
        assert cell.radius == pytest.approx(0.2)

    def test_eps_validation(self):
        with pytest.raises(DomainError):
            tightness_witness([dirac(CUBE1, (0.5,))], eps=0.0)
        with pytest.raises(DomainError):
            tightness_witness([], eps=0.1)


class TestScenarios:
    def test_dirac_drift_positions(self):
        fam = scenario("dirac_drift", {"space": CUBE1, "s0": [0.0], "v": [1.0],
                                       "rate": "harmonic"})
        assert fam.measure(1) == dirac(CUBE1, (1.0,))
        assert fam.measure(4) == dirac(CUBE1, (0.25,))
        assert fam.label.kind == "converges_to"
        assert fam.label.reference == dirac(CUBE1, (0.0,))

    def test_dirac_drift_leaving_carrier_rejected(self):
        with pytest.raises(DomainError):
            scenario("dirac_drift", {"space": CUBE1, "s0": [0.5], "v": [2.0]})

    def test_mass_split_weights(self):
        fam = scenario("mass_split", {"space": PAIR, "a": 0, "b": 1})
        mu = fam.measure(4)
        assert_allclose(mu.weights, [0.75, 0.25])

    def test_alternating_is_periodic(self):
        fam = scenario("alternating", {"space": CUBE1, "a": (0.0,), "b": (1.0,)})
        assert fam.label.kind == "diverges"
        assert fam.measure(1) == fam.measure(3)
        assert fam.measure(2) == dirac(CUBE1, (1.0,))

    def test_alternating_needs_distinct_points(self):
        with pytest.raises(DomainError):
            scenario("alternating", {"space": CUBE1, "a": (0.5,), "b": (0.5,)})

    def test_position_cycle(self):
        fam = scenario("position_cycle",
                       {"space": CUBE1, "points": [(0.0,), (0.5,), (1.0,)]})
        assert fam.measure(1) == dirac(CUBE1, (0.0,))
        assert fam.measure(5) == dirac(CUBE1, (0.5,))
        assert fam.label.reference == dirac(CUBE1, (0.0,))

    def test_oscillating_mixture(self):
        fam = scenario("oscillating_mixture",
                       {"space": CUBE1, "a": (0.1,), "b": (0.9,), "w_hi": 0.9})
        assert_allclose(fam.measure(1).weights, [0.9, 0.1])
        assert_allclose(fam.measure(2).weights, [0.1, 0.9])
        with pytest.raises(DomainError):
            scenario("oscillating_mixture",
                     {"space": CUBE1, "a": (0.1,), "b": (0.9,), "w_hi": 0.4})

    def test_empirical_deterministic_and_probability(self):
        law = finite_measure(CUBE1, [((0.3,), 0.5), ((0.7,), 0.5)])
        fam1 = scenario("empirical", {"space": CUBE1, "law": law}, seed=9)
        fam2 = scenario("empirical", {"space": CUBE1, "law": law}, seed=9)
        for n in (1, 7, 64):
            mu = fam1.measure(n)
            assert mu == fam2.measure(n)
            assert mu.is_probability
            assert_allclose(np.round(mu.weights * n), mu.weights * n)

    @pytest.mark.parametrize("law,seed", [
        (finite_measure(CUBE1, [((0.45,), 0.5), ((0.55,), 0.5)]), 7),
        (finite_measure(CUBE2, [((0.4, 0.4), 0.4), ((0.46, 0.4), 0.3),
                                ((0.4, 0.48), 0.3)]), 3),
        (finite_measure(PAIR, [(0, 0.3), (1, 0.7)]), 1),
    ])
    def test_empirical_prefixes_bitwise_stable(self, law, seed):
        # reference: the scenario's own inverse-CDF draw, written out in full
        fam = scenario("empirical", {"space": law.space, "law": law}, seed=seed)
        for n in range(1, 65):
            rng = np.random.Generator(np.random.Philox(key=seed))
            idx = np.searchsorted(np.cumsum(law.weights), rng.random(n), side="right")
            idx = np.minimum(idx, law.n_atoms - 1)
            counts = np.bincount(idx, minlength=law.n_atoms) / n
            mu = fam.measure(n)
            assert np.array_equal(mu.points, law.points[counts > 0])
            assert np.array_equal(mu.weights, counts[counts > 0])
            assert np.array_equal(RandomElement(law, seed=seed).sample(n),
                                  law.points[idx])

    def test_indices_start_at_one(self):
        fam = scenario("constant", {"space": CUBE1, "mu": dirac(CUBE1, (0.5,))})
        with pytest.raises(DomainError):
            fam.measure(0)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            scenario("brownian", {"space": CUBE1})


class TestRandomElements:
    def test_prefix_consistent_sampling(self):
        law = finite_measure(CUBE1, [((0.2,), 0.25), ((0.8,), 0.75)])
        elem = RandomElement(law, seed=4)
        long = elem.sample(100)
        short = elem.sample(40)
        assert_allclose(long[:40], short)

    def test_law_frequencies(self):
        law = finite_measure(CUBE1, [((0.2,), 0.25), ((0.8,), 0.75)])
        draws = RandomElement(law, seed=4).sample(4000)
        frac = np.mean(draws[:, 0] > 0.5)
        assert frac == pytest.approx(0.75, abs=0.03)

    def test_needs_probability_law(self):
        with pytest.raises(DomainError):
            RandomElement(finite_measure(CUBE1, [((0.2,), 0.25)]))
