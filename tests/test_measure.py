from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from weakconv import CapacityError, DomainError
from weakconv.carrier import ball_set, box_set, finite_space, unit_cube
from weakconv.measure import (RandomElement, bl_distance, dirac, finite_measure,
                              measure_from_json, measure_of, normalize,
                              point_from_json, pushforward, scenario,
                              tightness_witness)

CUBE1 = unit_cube(1)
CUBE2 = unit_cube(2)
PAIR = finite_space(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))


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
        xs = np.linspace(0.0, 1.0, 101)
        mu = finite_measure(CUBE1, [((x,), 1.0 / 101) for x in xs])
        nu = finite_measure(CUBE1, [((x + 0.001,), 1.0 / 101) for x in xs[:-1]]
                            + [((0.9995,), 1.0 / 101)])
        with pytest.raises(CapacityError):
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
