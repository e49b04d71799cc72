from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from weakconv import DomainError, UnsupportedError
from weakconv.carrier import unit_cube
from weakconv.convergence import generate_battery
from weakconv.suite import suite_targets
from weakconv.target import (_FAMILY_BUILDERS, BaseCriterionReport, SchauderBase,
                             SeminormFamily, TargetSpace, banach_space,
                             base_criterion_report, constant_lp_family,
                             convergence_equivalence_report, cumulative_l1_space,
                             gap_value, omega_max_family, omega_space, paranorm,
                             paranorm_axioms_report, seminorm, target_from_json)

OMEGA4 = omega_space(4)
CUM3 = cumulative_l1_space(3)
SKEW = np.array([[1.0, 0.0], [1.0, 0.1]])  # base vectors (1, 0) and (1, 0.1)


class TestSeminorms:
    def test_omega_levels(self):
        x = np.array([1.0, 2.0, 0.0, 0.5])
        assert seminorm(OMEGA4, 1, x) == 1.0
        assert seminorm(OMEGA4, 2, x) == 2.0
        assert seminorm(OMEGA4, 4, x) == 2.0

    def test_levels_clamp_at_depth(self):
        x = np.array([1.0, 2.0, 0.0, 0.5])
        assert seminorm(OMEGA4, 9, x) == seminorm(OMEGA4, 4, x)

    def test_level_zero_rejected(self):
        with pytest.raises(DomainError):
            seminorm(OMEGA4, 0, np.ones(4))

    def test_cumulative_levels(self):
        x = np.array([1.0, 0.5, 0.25])
        assert seminorm(CUM3, 1, x) == 1.0
        assert seminorm(CUM3, 2, x) == 1.5
        assert seminorm(CUM3, 3, x) == 1.75

    @pytest.mark.parametrize("p,expected", [(1, 7.0), (2, 5.0), (np.inf, 4.0)])
    def test_lp_norms(self, p, expected):
        space = banach_space(3, p=p)
        assert gap_value(space, np.array([3.0, 4.0, 0.0])) == pytest.approx(expected)


class TestParanorm:
    def test_all_ones_is_exactly_half(self):
        # every level equals 1, so the clamped dyadic tail telescopes to
        # 1/2 in exact binary arithmetic
        assert paranorm(OMEGA4, np.ones(4)) == 0.5
        assert paranorm(CUM3, np.array([1.0, 0.0, 0.0])) == 0.5

    def test_frozen_value_omega(self):
        # levels 1, 2, 2, 2 -> 1/4 + 1/6 + 1/12 + 1/12 = 7/12
        x = np.array([1.0, 2.0, 0.0, 0.5])
        assert paranorm(OMEGA4, x) == pytest.approx(7.0 / 12.0, abs=1e-15)

    def test_frozen_value_cumulative(self):
        # levels 1, 1.5, 1.75 -> 1/4 + 3/20 + 7/44
        x = np.array([1.0, 0.5, 0.25])
        assert paranorm(CUM3, x) == pytest.approx(0.25 + 3.0 / 20.0 + 7.0 / 44.0,
                                                  abs=1e-15)

    def test_saturation_below_one(self):
        assert paranorm(OMEGA4, np.full(4, 1e12)) < 1.0

    def test_zero(self):
        assert paranorm(OMEGA4, np.zeros(4)) == 0.0

    @given(st.lists(st.floats(-50, 50), min_size=4, max_size=4),
           st.lists(st.floats(-50, 50), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_subadditive(self, xs, ys):
        x, y = np.array(xs), np.array(ys)
        assert paranorm(OMEGA4, x + y) <= paranorm(OMEGA4, x) + paranorm(OMEGA4, y) + 1e-12

    def test_axioms_reports_pass(self):
        for space in (OMEGA4, CUM3, banach_space(2)):
            rep = paranorm_axioms_report(space, samples=1000, seed=0)
            assert rep.ok, rep.violations

    def test_scalar_limit_tail_recorded(self):
        rep = paranorm_axioms_report(OMEGA4, samples=100, seed=0)
        assert rep.tail_values
        assert rep.tail_values[-1] <= 1e-6


class TestSchauderBase:
    def test_biorthogonality(self):
        base = SchauderBase(np.array([[1.0, 1.0], [0.0, 0.1]]))
        f = base.functional_matrix()
        assert_allclose(f @ base.matrix, np.eye(2), atol=1e-12)

    def test_expand_reconstruct_round_trip(self):
        # the coefficients of x in the base, summed against the base vectors,
        # give x back
        space = banach_space(3, base=np.array([[1.0, 0.0, 0.0],
                                               [1.0, 1.0, 0.0],
                                               [0.5, 0.0, 2.0]]))
        rng = np.random.default_rng(2)
        for x in rng.standard_normal((50, 3)):
            coeffs = space.base.expand(x)
            assert_allclose(space.base.matrix @ coeffs, x, atol=1e-10)

    def test_coordinate_functional_is_coefficient(self):
        # on the coordinate base the i-th coefficient functional reads x_i
        space = omega_space(3)
        x = np.array([0.3, -0.7, 2.0])
        coeffs = space.base.expand(x)
        for i in range(1, 4):
            assert coeffs[i - 1] == pytest.approx(x[i - 1])
            assert space.base.functional_matrix()[i - 1] @ x == pytest.approx(x[i - 1])

    def test_dependent_base_rejected(self):
        with pytest.raises(DomainError):
            SchauderBase(np.array([[1.0, 2.0], [2.0, 4.0]]))

    @pytest.mark.parametrize("vectors", [
        [[0.0, 0.0], [0.0, 0.0]],
        [[1.0, np.nan], [0.0, 1.0]],
        [[1.0, 0.0], [np.inf, 1.0]],
    ])
    def test_zero_or_non_finite_base_rejected(self, vectors):
        with pytest.raises(DomainError):
            SchauderBase(np.array(vectors))

    def test_baseless_target_cannot_expand(self):
        # vector members are expansions sum_k f_k x_k, so a target without a
        # base refuses them
        space = banach_space(2, base=None)
        assert space.base is None
        with pytest.raises(UnsupportedError, match="base"):
            generate_battery(unit_cube(1), target=space, seed=0)

    def test_continuity_probe(self):
        # the coefficient functionals are bounded, so moving x by 2^-40 v
        # moves its coefficients by about 2^-40 too
        base = omega_space(4).base
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, v = rng.standard_normal(4), rng.standard_normal(4)
            moved = base.expand(x + 2.0 ** -40 * v)
            assert np.max(np.abs(moved - base.expand(x))) <= 1e-9


class TestBaseCriterion:
    def test_coordinate_base_passes_all_levels(self):
        for n in range(1, OMEGA4.family.depth + 1):
            rep = base_criterion_report(OMEGA4, p_level=n, q_level=n, bound=1.0,
                                        samples=300, seed=0)
            assert rep.passed, rep.worst_ratio

    def test_skewed_base_fails_with_known_ratio(self):
        # base vectors (1,0) and (1,0.1): expanding e2 gives coefficients
        # (-10, 10), so the one-term partial sum has norm 10 while the full
        # sum has norm 1
        space = banach_space(2, p=2, base=np.array([[1.0, 0.0], [1.0, 0.1]]))
        rep = base_criterion_report(space, p_level=1, q_level=1, bound=1.0,
                                    samples=300, seed=0)
        assert not rep.passed
        assert rep.worst_ratio >= 9.9

    def test_needs_a_base(self):
        with pytest.raises(UnsupportedError):
            base_criterion_report(banach_space(2, base=None), 1, 1)

    @pytest.mark.parametrize("space", [*suite_targets(),
                                       banach_space(2, p=2, base=SKEW),
                                       omega_space(2, base=SKEW)],
                             ids=["lp2", "omega4", "cum3", "skew-lp2", "skew-omega2"])
    def test_batched_report_equals_the_loop(self, space):
        for p_level, q_level in {(1, 1), (1, space.family.depth),
                                 (space.family.depth, space.family.depth)}:
            got = base_criterion_report(space, p_level, q_level, samples=200, seed=4)
            assert got == looped_base_criterion(space, p_level, q_level, samples=200, seed=4)

    @given(st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.sampled_from(["lp:1", "lp:2", "lp:inf", "omega_max", "cumulative_l1"]))
    @settings(max_examples=40, deadline=None)
    def test_batched_report_equals_the_loop_on_random_bases(self, dim, seed, family):
        rng = np.random.default_rng(seed)
        base = np.eye(dim) + rng.standard_normal((dim, dim)) * rng.choice([0.01, 0.3, 3.0])
        kind = "banach" if family.startswith("lp") else "frechet"
        try:
            space = target_from_json({"kind": kind, "dim": dim, "family": family,
                                      "base": base.T.tolist()})
        except DomainError:  # numerically dependent
            return
        depth = space.family.depth
        levels = (int(rng.integers(1, depth + 1)), int(rng.integers(1, depth + 1)))
        got = base_criterion_report(space, *levels, samples=50, seed=seed)
        assert got == looped_base_criterion(space, *levels, samples=50, seed=seed)

    def test_a_zero_over_zero_ratio_is_0_and_a_positive_over_zero_is_inf(self):
        # probe e2 of omega_2: S_1 = 0 and S_2 = e2, so p_1(S_1) / p_1(S_2) is 0 / 0
        # and p_2(S_2) / p_1(S_2) is 1 / 0
        rep = base_criterion_report(omega_space(2), p_level=2, q_level=1, samples=0)
        assert rep == looped_base_criterion(omega_space(2), 2, 1, samples=0)
        assert (rep.worst_ratio, rep.worst_coeffs, rep.worst_pair) == (np.inf, (0.0, 1.0), (2, 2))

    def test_no_ratio_above_0_leaves_no_witness(self):
        zero = SeminormFamily(name="zero", depth=1, level_fn=lambda n, x: np.zeros(x.shape[:-1]),
                              vector_lip_fn=lambda n, lips: 0.0)
        space = TargetSpace(dim=2, family=zero, base=SchauderBase(np.eye(2)))
        rep = base_criterion_report(space, p_level=1, q_level=1, samples=20)
        assert rep == looped_base_criterion(space, 1, 1, samples=20)
        assert (rep.worst_ratio, rep.worst_coeffs, rep.worst_pair) == (0.0, (), (0, 0))


def looped_base_criterion(space, p_level, q_level, bound=1.0, samples=1000, seed=0):
    """base_criterion_report as one seminorm call per partial sum and one
    ratio per (alpha, m, n); the reference the batched report must equal."""
    rng = np.random.default_rng(seed)
    dim = space.dim
    probes = [space.base.expand(e) for e in np.eye(dim)]
    coeff_sets = list(rng.standard_normal((samples, dim))) + probes

    worst = 0.0
    worst_coeffs: tuple = ()
    worst_pair = (0, 0)
    for alpha in coeff_sets:
        partials = np.cumsum(space.base.matrix * alpha[None, :], axis=1)
        p_vals = np.array([seminorm(space, p_level, partials[:, m]) for m in range(dim)])
        q_vals = np.array([seminorm(space, q_level, partials[:, n]) for n in range(dim)])
        for m in range(dim):
            for n in range(m, dim):
                q = q_vals[n]
                p = p_vals[m]
                ratio = p / q if q > 1e-300 else (0.0 if p <= 1e-300 else np.inf)
                if ratio > worst:
                    worst = float(ratio)
                    worst_coeffs = tuple(float(a) for a in alpha)
                    worst_pair = (m + 1, n + 1)
    return BaseCriterionReport(passed=bool(worst <= bound + 1e-9), worst_ratio=worst,
                               worst_coeffs=worst_coeffs, worst_pair=worst_pair,
                               samples=len(coeff_sets))


class TestConvergenceEquivalence:
    def test_decisive_sequences_agree(self):
        rng = np.random.default_rng(3)
        sequences = []
        labels = []
        for k in range(10):
            v = rng.standard_normal(4)
            limit = rng.standard_normal(4)
            conv = np.array([limit + (2.0 ** -j) * v for j in range(1, 46)])
            div = np.array([limit + ((-1) ** j) * v for j in range(1, 46)])
            sequences += [(conv, limit), (div, limit)]
            labels += [True, False]
        rep = convergence_equivalence_report(OMEGA4, sequences, tol=1e-6)
        assert rep.all_agree
        got = [r.by_paranorm for r in rep.records]
        assert got == labels


class TestTargetJson:
    @pytest.mark.parametrize("space", [banach_space(2), OMEGA4, CUM3])
    def test_round_trip(self, space):
        again = target_from_json(space.to_json())
        assert again.kind == space.kind
        assert again.dim == space.dim
        assert again.family.name == space.family.name

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("build", [
        lambda d: banach_space(d, p=1), lambda d: banach_space(d, p=2),
        lambda d: banach_space(d, p=np.inf), omega_space, cumulative_l1_space],
        ids=["lp:1", "lp:2", "lp:inf", "omega_max", "cumulative_l1"])
    def test_every_builtin_family_round_trips(self, build, dim):
        # a one-level omega_max or cumulative_l1 family is still frechet,
        # scored by the paranorm, as its builder made it
        space = build(dim)
        again = target_from_json(space.to_json())
        assert again.to_json() == space.to_json()
        x = np.linspace(0.5, -1.5, dim)
        assert gap_value(again, x) == gap_value(space, x)

    def test_family_implies_kind(self):
        with pytest.raises(DomainError):
            target_from_json({"kind": "banach", "dim": 4, "family": "omega_max"})

    @pytest.mark.parametrize("family,kind", [("omega_max", "banach"),
                                             ("cumulative_l1", "banach"), ("lp:2", "frechet")])
    def test_family_implies_kind_at_dim_1(self, family, kind):
        with pytest.raises(DomainError, match=f"family '{family}' implies kind"):
            target_from_json({"kind": kind, "dim": 1, "family": family})

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            target_from_json({"kind": "banach", "dim": 2, "family": "lp:3"})

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_every_builtin_family_has_the_kind_json_requires(self, dim):
        kinds = {"lp:1": "banach", "lp:2": "banach", "lp:inf": "banach",
                 "omega_max": "frechet", "cumulative_l1": "frechet"}
        assert set(kinds) == set(_FAMILY_BUILDERS)
        for family, kind in kinds.items():
            space = TargetSpace(dim=dim, family=_FAMILY_BUILDERS[family](dim))
            assert space.kind == kind
            assert target_from_json({"kind": kind, "dim": dim, "family": family}).kind == kind

    def test_an_api_target_scores_as_its_family_does(self):
        # the kind follows the family, so no target can be scored as the other kind
        api = TargetSpace(dim=1, family=omega_max_family(1))
        assert gap_value(api, np.array([0.5])) == gap_value(omega_space(1), np.array([0.5]))
        assert gap_value(api, np.array([0.5])) == pytest.approx(1 / 3)
        lp2 = TargetSpace(dim=2, family=constant_lp_family(2, 2))
        assert gap_value(lp2, np.array([3.0, 4.0])) == 5.0
