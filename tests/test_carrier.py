from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from weakconv import CapacityError, DomainError
from weakconv.carrier import (ball_set, finite_space, grid_partition, metric_axioms_report,
                              space_from_json, trivial_partition, unit_cube)
from weakconv.measure import finite_measure, measure_of


def three_point_space():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    return finite_space(("a", "b", "c"), d)


class TestSpaces:
    def test_cube_basics(self):
        s = unit_cube(2)
        assert s.kind == "cube" and s.dim == 2
        assert s.contains((0.5, 0.5))
        assert s.contains((0.0, 1.0))
        assert not s.contains((1.2, 0.5))
        assert_allclose(s.distance((0.0, 0.0), (1.0, 1.0)), np.sqrt(2.0))
        assert_allclose(s.diameter(), np.sqrt(2.0))

    def test_cube_dim_limits(self):
        with pytest.raises(CapacityError):
            unit_cube(0)
        with pytest.raises(CapacityError):
            unit_cube(9)
        assert unit_cube(8).dim == 8

    def test_finite_basics(self):
        s = three_point_space()
        assert s.n_points == 3
        assert s.contains(0) and s.contains(2) and not s.contains(3)
        assert s.distance(0, 2) == 2.0
        assert s.diameter() == 2.0

    def test_finite_point_cap(self):
        n = 65
        with pytest.raises(CapacityError):
            finite_space(range(n), np.zeros((n, n)))

    def test_broken_matrix_rejected(self):
        bad = np.array([[0.0, 5.0], [5.0, 0.1]])  # nonzero self-distance
        with pytest.raises(DomainError):
            finite_space(("a", "b"), bad)

    def test_triangle_violation_rejected(self):
        bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(DomainError):
            finite_space(("a", "b", "c"), bad)

    def test_space_equality(self):
        assert unit_cube(2) == unit_cube(2)
        assert unit_cube(2) != unit_cube(3)
        assert three_point_space() == three_point_space()
        assert three_point_space() != unit_cube(1)

    @pytest.mark.parametrize("matrix,where", [
        ([[0.0, math.nan], [math.nan, 0.0]], "(0,1)"),
        ([[math.nan, 1.0], [1.0, 0.0]], "(0,0)"),
        ([[0.0, math.inf], [math.inf, 0.0]], "(0,1)")], ids=["nan", "nan-diagonal", "inf"])
    def test_non_finite_matrix_rejected(self, matrix, where):
        # NaN compares False with everything, so every axiom check passed it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=re.escape(f"non-finite distance at {where}")):
                finite_space(("a", "b"), np.array(matrix))
            rep = metric_axioms_report(finite_space(("a", "b"), np.array(matrix),
                                                    validate=False))
        assert not rep.ok
        assert rep.violations == (f"non-finite distance at {where}",)

    def test_equality_is_reflexive_without_comparing_matrices(self, monkeypatch):
        space = finite_space(("a", "b"), np.array([[0.0, math.nan], [math.nan, 0.0]]),
                             validate=False)

        def unused(*args, **kwargs):
            raise AssertionError("compared the matrices of one carrier")

        monkeypatch.setattr(np, "array_equal", unused)
        assert space == space


# a coordinate of [0, 1], with the cube's faces drawn often
_unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def cube_points_and_anchor(draw):
    d = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    pts = draw(st.lists(st.lists(_unit, min_size=d, max_size=d), min_size=n, max_size=n))
    anchor = draw(st.lists(_unit, min_size=d, max_size=d))
    return unit_cube(d), np.array(pts), tuple(anchor)


class TestDistTo:
    @given(cube_points_and_anchor())
    @settings(max_examples=200, deadline=None)
    def test_cube_kernel_equals_the_axis_sum(self, case):
        space, pts, anchor = case
        diff = pts - np.asarray(anchor)
        reference = np.sqrt(np.sum(diff * diff, axis=-1))
        assert np.array_equal(space.dist_to(pts, anchor), reference)
        assert space.dist_to(pts[0], anchor) == reference[0]

    @pytest.mark.parametrize("d", range(1, 9))
    def test_cube_kernel_equals_the_axis_sum_on_corners(self, d):
        space = unit_cube(d)
        corners = np.array(np.meshgrid(*[[0.0, 1.0]] * d, indexing="ij")).reshape(d, -1).T
        rng = np.random.default_rng(d)
        for anchor in [tuple(corners[-1]), tuple(rng.random(d))]:
            pts = np.vstack([corners, rng.random((500, d))])
            diff = pts - np.asarray(anchor)
            assert np.array_equal(space.dist_to(pts, anchor),
                                  np.sqrt(np.sum(diff * diff, axis=-1)))

    @given(cube_points_and_anchor(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_cube_kernel_equals_the_axis_sum_for_arrays_of_points(self, case, fortran):
        space, pts, anchor = case
        if fortran:
            pts = np.asfortranarray(pts)
        others = np.ascontiguousarray(pts[::-1])
        for a, b in [(pts, others), (pts[:, None], pts), (np.asarray(anchor), pts)]:
            # np.sum adds a last axis in np.add.reduce's order only when it is contiguous
            diff = np.ascontiguousarray(a - b)
            assert np.array_equal(space.dist_to(a, b), np.sqrt(np.sum(diff * diff, axis=-1)))

    def test_finite_kernel_reads_the_matrix_for_arrays_of_points(self):
        space = three_point_space()
        pts = np.array([2, 0, 1, 1])
        assert np.array_equal(space.dist_to(pts[:, None], pts),
                              space.dist_matrix[np.ix_(pts, pts)])
        assert np.array_equal(space.dist_to(pts, pts[::-1]),
                              space.dist_matrix[pts, pts[::-1]])
        assert space.dist_to(0, 2) == 2.0 and space.dist_to(2, np.arange(3)).tolist() == [
            2.0, 1.5, 0.0]


def block_dist_to(pts, other):
    """The cube kernel as it was: one block of squared gaps with the d
    coordinates on its first axis, then the sum.

    Kept as the reference the row-wise kernel must equal bit for bit.
    """
    pts, other = np.broadcast_arrays(np.asarray(pts, dtype=float),
                                     np.asarray(other, dtype=float))
    sq = np.subtract(np.moveaxis(pts, -1, 0), np.moveaxis(other, -1, 0), order="C")
    np.multiply(sq, sq, out=sq)
    if len(sq) == 8:
        return np.sqrt(((sq[0] + sq[1]) + (sq[2] + sq[3]))
                       + ((sq[4] + sq[5]) + (sq[6] + sq[7])))
    return np.sqrt(np.add.reduce(sq, axis=0))


# 1-D gaps around 2^-500, the threshold of the kernel's |x - a| shortcut
_tiny = st.sampled_from([0.0, 2.0 ** -1074, 2.0 ** -600, 2.0 ** -520, 2.0 ** -511,
                         2.0 ** -501, 2.0 ** -500, 2.0 ** -499, 2.0 ** -480,
                         2.0 ** -441, 2.0 ** -440, 2.0 ** -439, 2.0 ** -400])


@st.composite
def kernel_cases(draw):
    d = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    pts = np.array(draw(st.lists(st.lists(_unit, min_size=d, max_size=d),
                                 min_size=n, max_size=n)))
    anchor = np.array(draw(st.lists(_unit, min_size=d, max_size=d)))
    if draw(st.booleans()):  # the anchor is one of the sample points
        anchor = pts[draw(st.integers(0, n - 1))].copy()
    other = draw(st.sampled_from(["point", "rows", "pairs"]))
    if other == "rows":  # a second point for each row
        anchor = np.array(draw(st.lists(st.lists(_unit, min_size=d, max_size=d),
                                        min_size=n, max_size=n)))
    if d == 1 and draw(st.booleans()):  # gaps on both sides of 2^-500
        if other == "rows":
            anchor[:, 0] = [draw(_tiny) for _ in range(n)]
        else:
            anchor[0] = draw(_tiny)
        pts[:, 0] = anchor[..., 0] + [draw(_tiny) for _ in range(n)]
    if draw(st.booleans()):
        pts = np.asfortranarray(pts)
    if other == "pairs":  # the matrix of pairwise distances
        return unit_cube(d), pts[:, None], pts
    if other == "rows":
        return unit_cube(d), pts, anchor
    return unit_cube(d), pts, tuple(float(a) for a in anchor)


class TestRowKernel:
    @given(kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_row_kernel_equals_the_block_kernel_bit_for_bit(self, case):
        space, pts, other = case
        got, ref = space.dist_to(pts, other), block_dist_to(pts, other)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()  # the sign of zero included
        if isinstance(other, tuple):
            one, ref_one = space.dist_to(pts[0], other), block_dist_to(pts[0], other)
            assert type(one) is type(ref_one)
            assert np.asarray(one).tobytes() == np.asarray(ref_one).tobytes()

    def test_tiny_one_dimensional_gaps_take_the_square_root(self):
        # the square of this gap is subnormal, so its root is not the gap
        gap = 0.7 * 2.0 ** -520
        assert math.sqrt(gap * gap) != gap
        pts = np.array([[gap], [0.5], [0.0]])
        got = unit_cube(1).dist_to(pts, (0.0,))
        assert got.tobytes() == block_dist_to(pts, (0.0,)).tobytes()
        assert got[0] == math.sqrt(gap * gap) and got[1] == 0.5
        # the same gap between two arrays of points, and in a pairwise matrix
        rows = unit_cube(1).dist_to(pts, np.zeros((3, 1)))
        assert rows.tobytes() == got.tobytes()
        pairs = unit_cube(1).dist_to(pts[:, None], pts)
        assert pairs.tobytes() == block_dist_to(pts[:, None], pts).tobytes()
        assert pairs[0, 2] == math.sqrt(gap * gap)


class TestMetricAxioms:
    def test_finite_exhaustive_pass(self):
        rep = metric_axioms_report(three_point_space())
        assert rep.ok
        assert rep.checked_triples == 27

    def test_finite_reports_violation(self):
        bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        space = finite_space(("a", "b", "c"), bad, validate=False)
        rep = metric_axioms_report(space)
        assert not rep.ok
        assert any("triangle" in v for v in rep.violations)

    def test_asymmetry_reported(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        space = finite_space(("a", "b"), bad, validate=False)
        rep = metric_axioms_report(space)
        assert not rep.ok
        assert any("symmetry" in v for v in rep.violations)

    def test_cube_sampled_pass(self):
        rep = metric_axioms_report(unit_cube(3), samples=200, seed=1)
        assert rep.ok
        assert rep.checked_triples == 200


class TestMeasurableSets:
    def test_box_half_open(self):
        # the cells of a grid are half-open boxes: a point on an inner edge
        # belongs to the cell above it on that axis, never to both
        s = unit_cube(2)
        part = grid_partition(s, 0.5)
        pts = s.points_array([(0.0, 0.0), (0.25, 0.49), (0.5, 0.25), (0.49, 0.5), (0.5, 0.5)])
        assert part.cell_of(pts).tolist() == [[0, 0], [0, 0], [1, 0], [0, 1], [1, 1]]

    def test_box_closed_top_edge(self):
        # on the line a closed ball is the closed box [c - r, c + r]
        s = unit_cube(1)
        a = ball_set((0.75,), 0.25)
        pts = s.points_array([(0.5,), (1.0,), (0.49,)])
        assert list(a.contains(s, pts)) == [True, True, False]

    def test_point_set_and_complement(self):
        # on a finite carrier a ball is a point set; its complement holds
        # the rest of the mass
        s = three_point_space()
        a = ball_set(0, 1.0)
        pts = s.points_array([0, 1, 2])
        assert list(a.contains(s, pts)) == [True, True, False]
        assert list(ball_set(2, 0.0).contains(s, pts)) == [False, False, True]
        mu = finite_measure(s, [(0, 0.5), (1, 0.3), (2, 0.2)])
        assert mu.total_mass - measure_of(mu, a) == pytest.approx(0.2)

    def test_ball_set(self):
        s = unit_cube(2)
        a = ball_set((0.5, 0.5), 0.25)
        pts = s.points_array([(0.5, 0.5), (0.75, 0.5), (0.9, 0.9)])
        got = list(a.contains(s, pts))
        assert got == [True, True, False]  # boundary included (closed ball)


class TestPartitions:
    def test_grid_cell_count(self):
        s = unit_cube(2)
        part = grid_partition(s, 0.25)
        assert part.cells_per_axis == 4
        assert part.side == 0.25

    def test_mesh_one_over_m_has_m_cells(self):
        # 1 / (1 / 47503) is 47503.00000000001, which once made 47504 cells
        s = unit_cube(1)
        assert [m for m in range(1, 100_001)
                if grid_partition(s, 1.0 / m).cells_per_axis != m] == []
        assert grid_partition(s, 2.0 ** -60).cells_per_axis == 2 ** 60
        assert grid_partition(s, 0.3).cells_per_axis == 4

    def test_grid_indexing_covers(self):
        s = unit_cube(2)
        part = grid_partition(s, 0.5)
        rng = np.random.default_rng(0)
        pts = rng.random((500, 2))
        cells = part.cell_of(pts)
        assert cells.shape == (500, 2)
        assert cells.min() >= 0 and cells.max() < part.cells_per_axis

    def test_top_edge_lands_in_last_cell(self):
        s = unit_cube(2)
        part = grid_partition(s, 0.25)
        cells = part.cell_of(s.points_array([(1.0, 1.0), (1.0, 0.0)]))
        assert cells.tolist() == [[3, 3], [3, 0]]

    def test_representatives_inside_cells(self):
        s = unit_cube(2)
        part = grid_partition(s, 0.5)
        every = np.indices((2, 2)).reshape(2, -1).T
        assert np.array_equal(part.cell_of(part.rep_of(every)), every)

    def test_rep_of_matches_the_grid_centres(self):
        s = unit_cube(2)
        part = grid_partition(s, 0.25)
        centres = np.stack(np.meshgrid(*[(np.arange(4) + 0.5) / 4] * 2, indexing="ij"),
                           axis=-1).reshape(-1, 2)
        some = np.array([0, 3, 7, 15])
        cells = np.stack(np.unravel_index(some, (4, 4)), axis=-1)
        assert_allclose(part.rep_of(cells), centres[some])

    def test_trivial_partition_on_finite(self):
        s = three_point_space()
        part = trivial_partition(s)
        pts = s.points_array([2, 0, 1])
        assert list(part.cell_of(pts)) == [2, 0, 1]
        assert list(part.rep_of(part.cell_of(pts))) == [2, 0, 1]

    def test_cells_partition_the_cube(self):
        # a point lies in the box [c/4, (c+1)/4) of cell c, closed at 1 for
        # the last, exactly when cell_of names c, so the boxes are disjoint
        # and their union is all of the cube
        s = unit_cube(1)
        part = grid_partition(s, 0.25)
        pts = s.points_array([(x,) for x in np.linspace(0.0, 1.0, 101)])
        x = pts[:, 0]
        member = np.stack([(c / 4 <= x) & ((x <= 1.0) if c == 3 else (x < (c + 1) / 4))
                           for c in range(4)])
        assert_allclose(member.sum(axis=0), 1.0)
        assert np.array_equal(np.argmax(member, axis=0), part.cell_of(pts)[:, 0])


class TestJson:
    def test_cube_round_trip(self):
        s = space_from_json({"kind": "cube", "dim": 3})
        assert s == unit_cube(3)

    def test_finite_round_trip(self):
        node = {"kind": "finite", "labels": ["a", "b"],
                "dist": [[0.0, 1.0], [1.0, 0.0]]}
        s = space_from_json(node)
        assert s.labels == ("a", "b")
        assert s.distance(0, 1) == 1.0

    @pytest.mark.parametrize("node", [
        {}, {"kind": "torus"}, {"kind": "cube"},
        {"kind": "finite", "labels": ["a"]},
    ])
    def test_bad_nodes_rejected(self, node):
        with pytest.raises(DomainError):
            space_from_json(node)
