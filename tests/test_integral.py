from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from weakconv import DomainError
from weakconv.carrier import finite_space, grid_partition, unit_cube
from weakconv.funcs import (Clamp, Coord, Const, DistTo, Scale, Step, Sum,
                            Tent, VectorFunction, vector_function)
from weakconv.integral import (SimpleFunction, approximate_by_simple,
                               as_vector_function, atomic_oracle,
                               continuity_integrability_harness, integrate,
                               integrate_simple, integrability_report,
                               seminorm_mean_gap)
from weakconv.measure import atom_sums, dirac, finite_measure
from weakconv.target import banach_space, omega_space

from test_funcs import Declared

CUBE1 = unit_cube(1)
CUBE2 = unit_cube(2)
LINE = banach_space(1, p=1)


def scalar(form, space=CUBE1):
    return VectorFunction(space=space, target=LINE, forms=(form,))


class TestSimpleFunctions:
    def test_exact_integral_frozen(self):
        part = grid_partition(CUBE1, 0.5)
        mu = finite_measure(CUBE1, [((0.25,), 0.3), ((0.75,), 0.7)])
        sf = SimpleFunction(partition=part, measure=mu, target=LINE,
                            values=np.array([[0.2], [0.8]]))
        # 0.3 * 0.2 + 0.7 * 0.8
        assert integrate_simple(sf)[0] == pytest.approx(0.62, abs=1e-15)

    def test_value_shape_checked(self):
        part = grid_partition(CUBE1, 0.5)
        mu = finite_measure(CUBE1, [((0.25,), 0.3), ((0.75,), 0.7)])
        with pytest.raises(DomainError):
            SimpleFunction(partition=part, measure=mu, target=LINE, values=np.zeros((3, 1)))

    def test_approximation_takes_representative_values(self):
        g = scalar(Coord(0))
        mu = finite_measure(CUBE1, [((0.0,), 0.25), ((0.3,), 0.25), ((0.5,), 0.25),
                                    ((1.0,), 0.25)])
        sf = approximate_by_simple(g, grid_partition(CUBE1, 0.25), mu)
        assert_allclose(sf.values[:, 0], [0.125, 0.375, 0.625, 0.875])

    def test_empty_measure_integrates_to_zero(self):
        g = scalar(Const(1.0))
        sf = approximate_by_simple(g, grid_partition(CUBE1, 0.5), finite_measure(CUBE1, []))
        assert_allclose(integrate_simple(sf), [0.0])

    def test_mean_gap_frozen(self):
        g = scalar(Coord(0))
        mu = dirac(CUBE1, (0.2,))
        sf = approximate_by_simple(g, grid_partition(CUBE1, 0.5), mu)
        # representative 0.25 vs exact 0.2
        assert seminorm_mean_gap(sf, g.evaluate(mu.points), level=1) == pytest.approx(0.05)


@st.composite
def grid_cases(draw):
    """A cube, a mesh whose grid has at most 1e5 cells, and atoms of which
    some coordinates lie on a face of the grid: an interior face j/m, the
    bottom face 0 or the top face 1."""
    d = draw(st.integers(1, 7))
    m = draw(st.integers(1, int(1e5 ** (1.0 / d) + 1e-9)))
    n = draw(st.integers(1, 12))
    coord = st.one_of(st.floats(0.0, 1.0), st.integers(0, m).map(lambda j: j / m),
                      st.sampled_from([0.0, 1.0]))
    pts = [tuple(draw(coord) for _ in range(d)) for _ in range(n)]
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    anchor = tuple(draw(st.floats(0.0, 1.0)) for _ in range(d))
    return d, m, pts, weights, anchor


class TestOccupiedCells:
    @given(grid_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_dense_grid(self, case):
        # reference: every cell's centre from a meshgrid, looked up by the
        # flat C-order index of the atom's cell
        d, m, pts, weights, anchor = case
        space = unit_cube(d)
        g = VectorFunction(space=space, target=omega_space(3),
                           forms=(Tent(anchor, 0.7), DistTo(anchor), Coord(d - 1)))
        mu = finite_measure(space, list(zip(pts, weights)))
        part = grid_partition(space, 1.0 / m)
        assert part.cells_per_axis == m
        centres = (np.arange(m) + 0.5) / m
        grid = np.stack(np.meshgrid(*[centres] * d, indexing="ij"), axis=-1).reshape(-1, d)
        axes = np.clip(np.floor(mu.points * m).astype(int), 0, m - 1)
        flat = np.ravel_multi_index(tuple(axes.T), (m,) * d)
        # each atom lies in the closed box around its cell's centre
        assert np.all(np.abs(mu.points - grid[flat]) <= 0.5 / m + 1e-12)
        dense = g.evaluate(grid)[flat]

        sf = approximate_by_simple(g, part, mu)
        assert np.array_equal(sf.values, dense)
        assert np.array_equal(integrate_simple(sf), atom_sums(mu.weights, dense.T)[0])
        exact = g.evaluate(mu.points)
        for level in (1, 2, 3):
            assert seminorm_mean_gap(sf, exact, level) == atom_sums(
                mu.weights, [np.max(np.abs(dense - exact)[:, :level], axis=-1)])[0, 0]

    def test_eight_cube_default_schedule(self):
        space = unit_cube(8)
        g = scalar(Tent((0.5,) * 8, 1.0), space=space)
        mu = dirac(space, (0.3,) * 8)
        start = time.perf_counter()
        cert = integrate(g, mu)
        assert time.perf_counter() - start < 1.0
        assert cert.certified
        assert [row.h for row in cert.rows] == [2.0 ** -k for k in range(1, 9)]
        assert grid_partition(space, 2.0 ** -8).cells_per_axis == 256
        # within d * L_max * 2^-8 of the closed form
        assert abs(cert.value[0] - atomic_oracle(g, mu)[0]) <= 8 * 1.0 * 2.0 ** -8


class TestAtomicOracle:
    def test_matches_hand_sum(self):
        g = scalar(Tent((0.5,), 0.5))
        mu = finite_measure(CUBE1, [((0.25,), 0.3), ((0.75,), 0.7)])
        assert atomic_oracle(g, mu)[0] == pytest.approx(0.5)

    def test_accepts_bare_forms(self):
        assert atomic_oracle(Const(2.0), dirac(CUBE1, (0.1,)))[0] == 2.0

    def test_rejects_non_functions(self):
        with pytest.raises(DomainError):
            as_vector_function("tent", CUBE1)

    def test_vector_valued(self):
        target = banach_space(2, p=2)
        g = vector_function(CUBE2, target, (Coord(0), Coord(1)))
        mu = finite_measure(CUBE2, [((0.2, 0.8), 0.5), ((0.6, 0.4), 0.5)])
        assert_allclose(atomic_oracle(g, mu), [0.4, 0.6])


class TestRefiningSchedule:
    def test_coarse_mesh_frozen_row(self):
        g = scalar(Tent((0.0,), 1.0))  # f(x) = 1 - x, Lipschitz 1
        cert = integrate(g, dirac(CUBE1, (0.0,)), schedule=[0.5])
        row = cert.rows[0]
        assert row.value[0] == pytest.approx(0.75)       # f(0.25)
        assert row.pointwise_gap == pytest.approx(0.25)  # |f(0.25) - f(0)|
        assert row.pointwise_bound == pytest.approx(0.25)
        # tolerance is L * h_final = 0.5, which the 0.25 gap clears
        assert cert.pointwise_tolerance == pytest.approx(0.5, abs=1e-9)
        assert cert.certified

    def test_default_schedule_certifies_tent(self):
        g = scalar(Tent((0.0,), 1.0))
        cert = integrate(g, dirac(CUBE1, (0.0,)))
        assert cert.certified
        assert len(cert.rows) == 8
        assert cert.value[0] == pytest.approx(511.0 / 512.0, abs=1e-15)

    def test_measured_gaps_can_rise_while_envelope_shrinks(self):
        g = scalar(Coord(0))
        cert = integrate(g, dirac(CUBE1, (0.2,)), schedule=[0.5, 0.25, 0.125])
        gaps = [row.pointwise_gap for row in cert.rows]
        assert_allclose(gaps, [0.05, 0.075, 0.0125], atol=1e-12)
        assert gaps[1] > gaps[0]  # refinement worsened the measured gap
        bounds = [row.pointwise_bound for row in cert.rows]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
        assert cert.certified

    def test_value_close_to_oracle(self):
        rng = np.random.default_rng(3)
        target = banach_space(2, p=2)
        g = vector_function(CUBE2, target, (Tent((0.3, 0.3), 0.5), Coord(1)))
        pts = [tuple(p) for p in rng.random((5, 2))]
        mu = finite_measure(CUBE2, list(zip(pts, rng.dirichlet(np.ones(5)))))
        cert = integrate(g, mu)
        assert cert.certified
        exact = atomic_oracle(g, mu)
        assert np.max(np.abs(cert.value - exact)) <= cert.pointwise_tolerance

    def test_finite_carrier_is_exact(self):
        d = np.array([[0.0, 0.4], [0.4, 0.0]])
        space = finite_space(("a", "b"), d)
        g = scalar(DistTo(0), space=space)
        mu = finite_measure(space, [(0, 0.25), (1, 0.75)])
        cert = integrate(g, mu)
        assert cert.certified
        assert len(cert.rows) == 1
        assert cert.rows[0].pointwise_gap == 0.0
        assert_allclose(cert.value, atomic_oracle(g, mu))

    def test_empty_measure(self):
        cert = integrate(scalar(Coord(0)), finite_measure(CUBE1, []))
        assert cert.certified
        assert_allclose(cert.value, [0.0])

    def test_discontinuous_fails_certification(self):
        g = scalar(Step(0, 2.0 / 3.0))
        cert = integrate(g, dirac(CUBE1, (2.0 / 3.0,)))
        assert not cert.certified
        assert cert.pointwise_tolerance == pytest.approx(1e-12)

    def test_overflow_is_a_domain_error(self):
        g = scalar(Scale(1e300, Scale(1e300, Tent((0.5,), 0.5))))
        with pytest.raises(DomainError):
            integrate(g, dirac(CUBE1, (0.5,)))

    @pytest.mark.parametrize("schedule", [[], [0.0], [-0.5], [0.25, 0.5], [0.5, 0.5]])
    def test_schedule_validation(self, schedule):
        with pytest.raises(DomainError):
            integrate(scalar(Coord(0)), dirac(CUBE1, (0.5,)), schedule=schedule)

    def test_mismatched_carrier(self):
        with pytest.raises(DomainError):
            integrate(scalar(Coord(0)), dirac(CUBE2, (0.5, 0.5)))

    def test_csv_round_trip_shape(self):
        cert = integrate(scalar(Coord(0)), dirac(CUBE1, (0.4,)), schedule=[0.5, 0.25])
        lines = cert.to_csv().strip().split("\n")
        assert lines[0].startswith("h,pointwise_gap")
        assert len(lines) == 3

    def test_omega_target_mean_levels(self):
        target = omega_space(3)
        g = vector_function(CUBE1, target, (Coord(0), Tent((0.5,), 0.5), Const(0.25)))
        mu = finite_measure(CUBE1, [((0.1,), 0.5), ((0.9,), 0.5)])
        cert = integrate(g, mu)
        assert cert.certified
        assert len(cert.rows[-1].mean_gaps) == target.family.depth
        for gap, tol in zip(cert.rows[-1].mean_gaps, cert.mean_tolerances):
            assert gap <= tol


class TestMetadataCheck:
    """integrate checks the declared metadata its tolerances are built from."""

    TENT = Tent((0.5,), 0.5)  # bound 1, Lipschitz 2
    MU = finite_measure(CUBE1, [((0.25,), 0.5), ((0.75,), 0.5)])

    def test_an_under_declared_lipschitz_constant_raises(self):
        assert integrate(scalar(Declared(self.TENT, 1.0, 2.0)), self.MU).certified
        liar = Declared(self.TENT, 1.0, 1.0)
        for g in (scalar(liar), liar,
                  VectorFunction(space=CUBE1, target=omega_space(2), forms=(self.TENT, liar))):
            with pytest.raises(DomainError, match="Lipschitz constant 1.0 violated"):
                integrate(g, self.MU)

    def test_an_under_declared_bound_raises(self):
        with pytest.raises(DomainError, match="declared bound 0.5 violated"):
            integrate(scalar(Declared(self.TENT, 0.5, 2.0)), self.MU)

    def test_a_liar_on_a_finite_carrier_raises(self):
        space = finite_space(("a", "b"), np.array([[0.0, 0.4], [0.4, 0.0]]))
        mu = finite_measure(space, [(0, 0.25), (1, 0.75)])
        assert integrate(scalar(Declared(DistTo(0), 0.4, 1.0), space), mu).certified
        with pytest.raises(DomainError, match="Lipschitz constant 0.5 violated"):
            integrate(scalar(Declared(DistTo(0), 0.4, 0.5), space), mu)

    def test_carrier_and_non_finite_checks_come_first(self):
        liar = Declared(self.TENT, 1.0, 1.0)
        with pytest.raises(DomainError, match="different carriers"):
            integrate(scalar(liar), dirac(CUBE2, (0.5, 0.5)))
        blown = Declared(Scale(1e300, Scale(1e300, self.TENT)), 1.0, 1.0)
        with pytest.raises(DomainError, match="non-finite value"):
            integrate(scalar(blown), dirac(CUBE1, (0.5,)))

    def test_the_report_and_the_oracle_read_no_metadata(self):
        liar = scalar(Declared(self.TENT, 0.5, 1.0))
        assert integrability_report(liar, self.MU).integrable
        assert_allclose(atomic_oracle(liar, self.MU), [0.5])


class TestIntegrability:
    def test_continuous_bounded_is_integrable(self):
        rep = integrability_report(scalar(Tent((0.5,), 0.5)), dirac(CUBE1, (0.5,)))
        assert rep.integrable
        assert rep.offending_atoms == ()
        assert rep.finite_image == ((1.0,),)
        assert all(np.isfinite(rep.level_integrals))

    def test_overflow_flags_offenders(self):
        g = scalar(Scale(1e300, Scale(1e300, Tent((0.5,), 0.5))))
        mu = finite_measure(CUBE1, [((0.0,), 0.5), ((0.5,), 0.5)])
        rep = integrability_report(g, mu)
        assert not rep.integrable
        assert rep.offending_atoms == (1,)

    def test_harness_skips_discontinuous(self):
        funcs = [scalar(Tent((0.5,), 0.5)), scalar(Step(0, 0.5)),
                 scalar(Sum((Coord(0), Const(-0.5))))]
        measures = [dirac(CUBE1, (0.25,)),
                    finite_measure(CUBE1, [((0.1,), 0.4), ((0.9,), 0.6)])]
        report = continuity_integrability_harness(funcs, measures)
        assert report.all_ok
        by_func = {}
        for rec in report.records:
            by_func.setdefault(rec.function_index, []).append(rec)
        assert all(rec.skipped for rec in by_func[1])
        assert all(rec.certified for rec in by_func[0] + by_func[2])

    def test_harness_catches_overflow(self):
        bad = scalar(Scale(1e300, Scale(1e300, Tent((0.5,), 0.5))))
        report = continuity_integrability_harness([bad], [dirac(CUBE1, (0.5,))])
        assert not report.all_ok
        assert not report.records[0].integrable

    def test_clamped_overflow_recovers(self):
        g = scalar(Clamp(-1.0, 1.0, Scale(1e300, Scale(1e300, Tent((0.5,), 0.5)))))
        rep = integrability_report(g, dirac(CUBE1, (0.5,)))
        assert rep.integrable
