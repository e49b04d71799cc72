from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from weakconv import DomainError
from weakconv.carrier import CompactSpace, finite_space, unit_cube
from weakconv.convergence import ScalarMember, _battery_gaps, _domination_caps, _Prefix
from weakconv.funcs import (Clamp, Const, Coord, DistTo, Form, McShane, Scale,
                            Step, Sum, Tent, VectorFunction, form_from_json, validate_metadata, vector_function)
from weakconv.measure import finite_measure
from weakconv.target import banach_space, omega_space

from test_convergence import planar_carriers

CUBE1 = unit_cube(1)
CUBE2 = unit_cube(2)
PAIR = finite_space(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestEvaluation:
    def test_const(self):
        f = Const(0.3)
        pts = CUBE2.points_array([(0.1, 0.2), (0.9, 0.9)])
        assert_allclose(f.evaluate(CUBE2, pts), [0.3, 0.3])

    def test_coord(self):
        f = Coord(1)
        pts = CUBE2.points_array([(0.1, 0.2), (0.9, 0.7)])
        assert_allclose(f.evaluate(CUBE2, pts), [0.2, 0.7])

    def test_dist_to(self):
        f = DistTo((0.0, 0.0))
        pts = CUBE2.points_array([(0.3, 0.4), (0.0, 0.0)])
        assert_allclose(f.evaluate(CUBE2, pts), [0.5, 0.0])

    def test_tent_values(self):
        f = Tent((0.5,), 0.25)
        pts = CUBE1.points_array([(0.5,), (0.375,), (0.25,), (0.0,)])
        assert_allclose(f.evaluate(CUBE1, pts), [1.0, 0.5, 0.0, 0.0])

    def test_mcshane_interpolates_compatible_values(self):
        # values are 1-Lipschitz compatible, so the extension hits them
        f = McShane(anchors=((0.0,), (1.0,)), values=(0.0, 1.0), lip=1.0)
        pts = CUBE1.points_array([(0.0,), (1.0,), (0.5,)])
        assert_allclose(f.evaluate(CUBE1, pts), [0.0, 1.0, 0.5])

    def test_mcshane_frozen_midpoint(self):
        # min(0.2 + 0.5*|s|, 1.0 + 0.5*|s-1|) at s=0.5 is 0.45
        f = McShane(anchors=((0.0,), (1.0,)), values=(0.2, 1.0), lip=0.5)
        assert f(CUBE1, (0.5,)) == pytest.approx(0.45)

    def test_mcshane_matches_stacked_minimum(self):
        # reference: the minimum over a stacked anchor-by-point matrix
        rng = np.random.default_rng(3)
        space = unit_cube(3)
        anchors = tuple(tuple(a) for a in rng.random((5, 3)))
        values = tuple(rng.uniform(-1.0, 1.0, 5))
        f = McShane(anchors, values, 1.7)
        pts = rng.random((200, 3))
        cols = [v + 1.7 * space.dist_to(pts, a) for a, v in zip(anchors, values)]
        assert np.array_equal(f.evaluate(space, pts), np.min(np.stack(cols), axis=0))

    def test_clamp(self):
        f = Clamp(-0.5, 0.5, Scale(2.0, Coord(0)))
        pts = CUBE1.points_array([(0.1,), (0.5,), (1.0,)])
        assert_allclose(f.evaluate(CUBE1, pts), [0.2, 0.5, 0.5])

    def test_sum_scale(self):
        f = Sum((Const(1.0), Scale(-2.0, Coord(0))))
        assert f(CUBE1, (0.25,)) == pytest.approx(0.5)

    def test_step(self):
        f = Step(axis=0, threshold=0.5)
        pts = CUBE1.points_array([(0.4,), (0.5,), (0.6,)])
        assert_allclose(f.evaluate(CUBE1, pts), [0.0, 1.0, 1.0])
        assert not f.continuous
        assert f.lipschitz(CUBE1) == math.inf

    def test_forms_on_finite_space(self):
        f = Tent(0, 1.0)
        pts = PAIR.points_array([0, 1])
        assert_allclose(f.evaluate(PAIR, pts), [1.0, 0.0])

    def test_overflow_propagates_to_inf(self):
        f = Scale(1e300, Scale(1e300, Tent((0.5,), 0.5)))
        pts = CUBE1.points_array([(0.5,)])
        assert np.isinf(f.evaluate(CUBE1, pts))[0]


class TestMetadata:
    @pytest.mark.parametrize("form,b,lip", [
        (Const(-2.0), 2.0, 0.0),
        (Coord(0), 1.0, 1.0),
        (Tent((0.5, 0.5), 0.5), 1.0, 2.0),
        (Clamp(-1.0, 1.0, DistTo((0.0, 0.0))), 1.0, 1.0),
        (Sum((Coord(0), Coord(1))), 2.0, 2.0),
        (Scale(-3.0, Coord(0)), 3.0, 3.0),
    ])
    def test_declared_constants(self, form, b, lip):
        assert form.bound(CUBE2) == pytest.approx(b)
        assert form.lipschitz(CUBE2) == pytest.approx(lip)

    def test_dist_bound_is_farthest_corner(self):
        f = DistTo((0.25, 0.25))
        assert f.bound(CUBE2) == pytest.approx(np.sqrt(2 * 0.75 ** 2))

    def test_mcshane_bound(self):
        f = McShane(anchors=((0.0,),), values=(-0.5,), lip=2.0)
        # ranges over [-0.5, -0.5 + 2*diam] = [-0.5, 1.5]
        assert f.bound(CUBE1) == pytest.approx(1.5)

    def test_validate_metadata_passes_for_library_forms(self):
        for form in (Tent((0.3,), 0.5), Clamp(-1, 1, DistTo((0.9,))),
                     McShane(((0.2,), (0.8,)), (0.1, -0.4), 1.5)):
            validate_metadata(CUBE1, form, seed=5)

    def test_validate_metadata_catches_lying_bound(self):
        class Liar(Tent):
            def bound(self, space):
                return 0.1

        with pytest.raises(DomainError):
            validate_metadata(CUBE1, Liar((0.5,), 0.5), seed=5)

    def test_validate_metadata_catches_lying_lipschitz(self):
        class Liar(Tent):
            def lipschitz(self, space):
                return 0.01

        with pytest.raises(DomainError):
            validate_metadata(CUBE1, Liar((0.5,), 0.5), seed=5)


class LyingBound(Tent):
    def bound(self, space):
        return 0.1


class LyingLipschitz(Tent):
    def lipschitz(self, space):
        return 0.01


class TestSharedValidationDraws:
    """The forms of one ``validate_metadata`` call share one seeded draw."""

    # the last form has the same fields as both liars, so a check that
    # skipped forms equal to one already passed would let them through
    HONEST = (Tent((0.3,), 0.5), Clamp(-1, 1, DistTo((0.9,))),
              McShane(((0.2,), (0.8,)), (0.1, -0.4), 1.5), Tent((0.5,), 0.5))

    @pytest.fixture
    def drawn(self, monkeypatch):
        """The carrier and size of every ``CompactSpace.sample_points`` call."""
        calls = []

        def counted(space, rng, n):
            calls.append((space, n))
            return draw(space, rng, n)

        draw = CompactSpace.sample_points
        monkeypatch.setattr(CompactSpace, "sample_points", counted)
        return calls

    @pytest.mark.parametrize("liar", [LyingBound((0.5,), 0.5),
                                      LyingLipschitz((0.5,), 0.5)])
    def test_liar_after_honest_forms_still_caught(self, liar):
        validate_metadata(CUBE1, *self.HONEST, seed=7)
        with pytest.raises(DomainError):
            validate_metadata(CUBE1, *self.HONEST, liar, seed=7)

    @pytest.mark.parametrize("space", [CUBE2, unit_cube(8), PAIR])
    def test_memoised_samples_equal_a_fresh_draw(self, space):
        # every form of a call is evaluated on default_rng(seed)'s first
        # 10,000 points, and on the next 10,000 for the Lipschitz check;
        # on a finite carrier on every point, once
        seen = []

        class Recording(Const):
            def evaluate(self, space, pts):
                seen.append(np.array(pts))
                return super().evaluate(space, pts)

        validate_metadata(space, Recording(0.0), Recording(1.0), seed=7)
        if space.kind == "finite":
            assert [p.tolist() for p in seen] == [[0, 1], [0, 1]]
            return
        rng = np.random.default_rng(7)
        pts, qts = space.sample_points(rng, 10_000), space.sample_points(rng, 10_000)
        assert len(seen) == 4
        for got, want in zip(seen, [pts, qts, pts, qts]):
            assert np.array_equal(got, want)

    def test_samples_are_read_only(self):
        class Scribbler(Const):
            def evaluate(self, space, pts):
                pts[0] = 0.0
                return super().evaluate(space, pts)

        with pytest.raises(ValueError):
            validate_metadata(CUBE1, Const(0.0), Scribbler(0.0), seed=7)

    def test_draws_are_not_shared_between_unequal_carriers(self):
        # two 2-point carriers: a liar that passes at distance 1 must still
        # be caught at distance 0.1 by the next call
        class SteepTent(Tent):
            def lipschitz(self, space):
                return 1.0

        near = finite_space(("a", "b"), np.array([[0.0, 0.1], [0.1, 0.0]]))
        validate_metadata(PAIR, SteepTent(0, 0.1), seed=7)
        with pytest.raises(DomainError):
            validate_metadata(near, SteepTent(0, 0.1), seed=7)

    def test_a_positional_seed_is_rejected(self, drawn):
        with pytest.raises(TypeError, match="pass seed= by keyword"):
            validate_metadata(CUBE1, Const(0.0), 5)
        assert drawn == []

    def test_one_draw_per_call(self, drawn):
        # the cube draws its two sample sets once, whatever the number of forms
        target = omega_space(3)
        forms = (Tent((0.5,) * 8, 0.5), Clamp(-1, 1, DistTo((0.1,) * 8)), Coord(3))
        vector_function(unit_cube(8), target, forms)
        assert drawn == [(unit_cube(8), 10_000)] * 2
        validate_metadata(CUBE1, seed=7)
        assert len(drawn) == 2  # no forms, no draw
        validate_metadata(PAIR, Const(0.0), Tent(0, 0.5), seed=7)
        assert len(drawn) == 2  # a finite carrier draws nothing
        validate_metadata(CUBE1, *self.HONEST, seed=7)
        assert drawn[2:] == [(CUBE1, 10_000)] * 2


class TestJsonRoundTrip:
    @pytest.mark.parametrize("form", [
        Const(0.5),
        Coord(1),
        DistTo((0.25, 0.75)),
        Tent((0.5, 0.5), 0.75),
        McShane(((0.0, 0.0), (1.0, 1.0)), (0.0, 0.5), 1.25),
        Clamp(-1.0, 1.0, Sum((Coord(0), Scale(0.5, Coord(1))))),
        Step(axis=0, threshold=2.0 / 3.0),
    ])
    def test_round_trip(self, form):
        again = form_from_json(form.to_json(), CUBE2)
        assert again == form

    def test_round_trip_on_finite_points(self):
        form = Tent(1, 0.5)
        assert form_from_json(form.to_json(), PAIR) == form

    def test_finite_anchors_by_label(self):
        node = {"kind": "mcshane", "anchors": ["b", 0], "values": [0.0, 1.0], "lip": 1.0}
        assert form_from_json(node, PAIR) == McShane((1, 0), (0.0, 1.0), 1.0)

    @pytest.mark.parametrize("node", [
        {"kind": "nope"},
        {"kind": "tent", "point": [0.5]},           # missing radius
        {"kind": "clamp", "lo": 0.0, "hi": 1.0},    # missing child
        "tent",
        {"kind": "tent", "point": [0.5, 0.5], "radius": 0.5},   # wrong dimension
        {"kind": "dist", "point": [1.5]},                       # outside the cube
        {"kind": "scale", "factor": 2.0,
         "child": {"kind": "dist", "point": 0}},                # an index on a cube
    ])
    def test_bad_nodes_rejected(self, node):
        with pytest.raises(DomainError):
            form_from_json(node, CUBE1)


@st.composite
def form_trees(draw, space):
    """The JSON node of a random form tree on ``space``, from the whole
    vocabulary (coordinates and steps on the cube only)."""
    cube = space.kind == "cube"
    point = (st.lists(st.floats(0.0, 1.0), min_size=space.dim, max_size=space.dim) if cube
             else st.integers(0, space.n_points - 1))
    value = st.floats(-10.0, 10.0)

    def mcshane(pairs, lip):
        return {"kind": "mcshane", "anchors": [a for a, _ in pairs],
                "values": [v for _, v in pairs], "lip": lip}

    leaves = [st.builds(lambda v: {"kind": "const", "value": v}, value),
              st.builds(lambda p: {"kind": "dist", "point": p}, point),
              st.builds(lambda p, r: {"kind": "tent", "point": p, "radius": r},
                        point, st.floats(1e-3, 10.0)),
              st.builds(mcshane, st.lists(st.tuples(point, value), min_size=1, max_size=4),
                        st.floats(0.0, 100.0))]
    if cube:
        axis = st.integers(0, space.dim - 1)
        leaves += [st.builds(lambda a: {"kind": "coord", "axis": a}, axis),
                   st.builds(lambda a, t: {"kind": "step", "axis": a, "threshold": t},
                             axis, st.floats(0.0, 1.0))]

    def extend(children):
        return st.one_of(
            st.builds(lambda lo_hi, c: {"kind": "clamp", "lo": min(lo_hi), "hi": max(lo_hi),
                                        "child": c}, st.tuples(value, value), children),
            st.builds(lambda cs: {"kind": "sum", "children": cs},
                      st.lists(children, min_size=1, max_size=3)),
            st.builds(lambda f, c: {"kind": "scale", "factor": f, "child": c}, value, children))

    return draw(st.recursive(st.one_of(leaves), extend, max_leaves=8))


@st.composite
def carriers_and_trees(draw):
    """A carrier (the 1-, 2- or 8-cube, or a planar finite carrier) and 1-3 form trees on it."""
    space = draw(st.one_of(st.sampled_from([CUBE1, CUBE2, unit_cube(8)]), planar_carriers()))
    return space, draw(st.lists(form_trees(space), min_size=1, max_size=3))


def subtrees(form):
    """``form`` and every form below it."""
    kids = (form.children if isinstance(form, Sum)
            else (form.child,) if isinstance(form, (Clamp, Scale)) else ())
    return [form, *(sub for kid in kids for sub in subtrees(kid))]


class TestValidDocuments:
    @given(carriers_and_trees(), st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_every_form_tree_passes_the_check(self, case, seed):
        # declared metadata is computed, never fitted, so no valid document
        # can fail the check that integrate and vector_function run;
        # every subtree is checked too, so a leaf's rule cannot hide under
        # a clamp or a sum
        space, nodes = case
        forms = [sub for n in nodes for sub in subtrees(form_from_json(n, space))]
        validate_metadata(space, *forms, seed=seed)


@st.composite
def measure_pairs(draw, space):
    """Two measures of 1-4 atoms on ``space``, of weights in [0.01, 2], so
    their masses may differ; the second moves some of the first's atoms a
    little, where a Lipschitz bound is tight."""
    if space.kind == "cube":
        point = st.lists(st.floats(0.0, 1.0), min_size=space.dim, max_size=space.dim)
    else:
        point = st.integers(0, space.n_points - 1)
    weight = st.floats(0.01, 2.0)
    mu = draw(st.lists(st.tuples(point, weight), min_size=1, max_size=4))
    nu = draw(st.lists(st.tuples(point, weight), min_size=0, max_size=3))
    for p, _ in mu[:draw(st.integers(0, len(mu)))]:
        if space.kind == "cube":
            step = draw(st.lists(st.floats(-1e-3, 1e-3), min_size=space.dim,
                                 max_size=space.dim))
            p = [min(1.0, max(0.0, x + dx)) for x, dx in zip(p, step)]
        nu.append((p, draw(weight)))
    if not nu:
        nu.append(draw(st.tuples(point, weight)))
    return tuple(finite_measure(space, [(tuple(p) if space.kind == "cube" else p, w)
                                        for p, w in atoms]) for atoms in (mu, nu))


class TestBLDomination:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_form_tree_is_dominated_by_the_oracle(self, data):
        # |integral f d mu - integral f d nu| <= max(B, L) * BL(mu, nu), up to
        # the certificate's tolerance and the float bound, for every subtree
        # of a valid document: the cap the verdict checks every window gap by
        space, nodes = data.draw(carriers_and_trees())
        mu, nu = data.draw(measure_pairs(space))
        forms = [sub for n in nodes for sub in subtrees(form_from_json(n, space))]
        members = [ScalarMember(f"f{i}", f, bound=f.bound(space), lip=f.lipschitz(space))
                   for i, f in enumerate(forms)]
        prefix, ts = _Prefix([mu], nu), np.array([0])
        gaps = _battery_gaps(members, prefix, nu, ts)
        caps = _domination_caps(members, prefix, ts)
        assert not (gaps > caps).any(), (gaps.ravel(), caps.ravel())

    def test_subnormal_values_are_dominated(self):
        # 6 * 1.33e-76 * 3.83e-247 is 62 units of 2^-1074; the products
        # w_i * v_i round 0.75 * 62 to 46, so the gap is 124 - 92 = 32 units, one more
        # than max(B, L) * BL with every relative term added
        space = finite_space((0, 1), np.array([[0.0, 3e-6], [3e-6, 0.0]]))
        f = Scale(3.828004257036245e-247, Scale(1.3328884019795029e-76, Const(6.0)))
        mu = finite_measure(space, [(0, 0.75), (1, 0.75)])
        nu = finite_measure(space, [(0, 2.0)])
        members = [ScalarMember("f", f, bound=f.bound(space), lip=f.lipschitz(space))]
        prefix, ts = _Prefix([mu], nu), np.array([0])
        gaps = _battery_gaps(members, prefix, nu, ts)
        assert gaps[0, 0] == 32 * 2.0 ** -1074
        assert gaps[0, 0] <= _domination_caps(members, prefix, ts)[0, 0]


class TestVectorFunctions:
    def test_shapes_and_values(self):
        target = banach_space(2)
        g = vector_function(CUBE2, target, (Coord(0), Coord(1)))
        pts = CUBE2.points_array([(0.25, 0.75), (1.0, 0.0)])
        assert g.evaluate(pts).shape == (2, 2)
        assert_allclose(g.evaluate(pts), [[0.25, 0.75], [1.0, 0.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            vector_function(CUBE2, banach_space(3), (Coord(0), Coord(1)))

    def test_continuity_flag(self):
        target = omega_space(2)
        cont = vector_function(CUBE1, target, (Coord(0), Const(1.0)))
        disc = vector_function(CUBE1, target, (Coord(0), Step(0, 0.5)))
        assert cont.continuous
        assert not disc.continuous

    def test_metadata_arrays(self):
        g = vector_function(CUBE1, banach_space(2), (Tent((0.5,), 0.5), Const(2.0)))
        assert_allclose(g.bounds(), [1.0, 2.0])
        assert_allclose(g.lipschitz_constants(), [2.0, 0.0])

    def test_json_round_trip(self):
        g = vector_function(CUBE1, banach_space(2), (Coord(0), Tent((0.1,), 1.0)))
        node = g.to_json()
        forms = tuple(form_from_json(c, CUBE1) for c in node["coords"])
        assert forms == g.forms


def dense_validate(space, form):
    """The check as a plain exhaustive route: every point, and every ordered pair.

    The reference the finite-carrier route of ``validate_metadata`` must
    agree with, pass for pass and message for message.
    """
    vals = form.evaluate(space, np.arange(space.n_points))
    b = form.bound(space)
    if not np.all(np.abs(vals) <= b * 1.01 + 1e-12):
        raise DomainError(f"declared bound {b} violated by {form.kind} form")
    lip = form.lipschitz(space)
    if math.isfinite(lip):
        dists = space.dist_matrix
        diffs = np.abs(vals[:, None] - vals[None, :])
        if np.any(~(diffs <= lip * dists * 1.01 + 1e-12) & (dists > 1e-9)):
            raise DomainError(f"declared Lipschitz constant {lip} violated by {form.kind} form")


class Declared(Form):
    """A child form under declared (B, L) metadata, which may lie."""

    kind = "declared"

    def __init__(self, child, b, lip):
        self.child, self.b, self.lip = child, b, lip

    def evaluate(self, space, pts):
        return self.child.evaluate(space, pts)

    def bound(self, space):
        return self.b

    def lipschitz(self, space):
        return self.lip

    def to_json(self):
        return {}


def plane_space(n, seed):
    plane = np.random.default_rng(seed).random((n, 2)) * 3.0
    return finite_space(tuple(range(n)), np.linalg.norm(plane[:, None] - plane[None], axis=-1))


def outcome(check, space, form):
    try:
        check(space, form)
    except DomainError as exc:
        return str(exc)
    return None


class TestFiniteCarrierRoute:
    """On a finite carrier every point and every ordered pair is checked."""

    SPACES = {"pair": PAIR,
              "three": finite_space(("a", "b", "c"), np.array([[0.0, 1.0, 2.0],
                                                               [1.0, 0.0, 1.5],
                                                               [2.0, 1.5, 0.0]])),
              "sixty-four": plane_space(64, 3)}

    @pytest.mark.parametrize("name", SPACES)
    def test_raises_for_exactly_the_liars_the_dense_route_raises_for(self, name):
        space = self.SPACES[name]
        n = space.n_points
        children = [Tent(0, 0.7), Clamp(-1.0, 1.0, DistTo(n - 1)),
                    McShane((0, n - 1), (0.4, -0.3), 1.3), Scale(-2.0, DistTo(1))]
        dists = space.dist_matrix
        apart = dists > 1e-9
        seen = set()
        for child in children:
            vals = child.evaluate(space, np.arange(n))
            top = float(np.max(np.abs(vals)))
            steep = float(np.max(np.abs(vals[:, None] - vals[None, :])[apart] / dists[apart]))
            # declared constants on both sides of the true ones
            for b in (0.0, 0.5 * top, (top - 1e-12) / 1.01 * (1 - 1e-12),
                      (top - 1e-12) / 1.01 * (1 + 1e-12), top, 2.0 * top):
                for lip in (0.0, 0.5 * steep, steep / 1.01 * (1 - 1e-9),
                            steep / 1.01 * (1 + 1e-9), steep, math.inf):
                    form = Declared(child, b, lip)
                    want = outcome(dense_validate, space, form)
                    seen.add(None if want is None else want.split()[1])
                    assert outcome(lambda s, f: validate_metadata(s, f, seed=7),
                                   space, form) == want
                    # and after honest forms that share its points
                    assert outcome(lambda s, f: validate_metadata(s, *children, f, seed=7),
                                   space, form) == want
        assert seen == {None, "bound", "Lipschitz"}

    @pytest.mark.parametrize("name", SPACES)
    def test_a_form_is_evaluated_once_on_the_distinct_points(self, name):
        space = self.SPACES[name]
        seen = []

        class Counted(Tent):
            def evaluate(self, space, pts):
                seen.append(np.array(pts))
                return super().evaluate(space, pts)

        validate_metadata(space, Counted(0, 0.5), seed=7)
        assert len(seen) == 1
        assert np.array_equal(seen[0], np.arange(space.n_points))

    def test_each_ordered_pair_is_checked_at_its_own_distance(self):
        # not a metric: d(a, b) = 1 but d(b, a) = 0.1, so f = 1 at b and 0 at
        # a has ratio 1 from a to b and 10 from b to a
        space = finite_space(("a", "b"), np.array([[0.0, 1.0], [0.1, 0.0]]), validate=False)
        form = Tent(1, 0.5)
        validate_metadata(space, Declared(form, 1.0, 10.0), seed=7)
        with pytest.raises(DomainError, match="Lipschitz constant 2.0 violated"):
            validate_metadata(space, Declared(form, 1.0, 2.0), seed=7)

    def test_a_liar_on_one_pair_of_sixty_four_points_is_caught(self):
        # d(0, 31) = 1 and every other distance 2: f = 1.5 at point 31 and 0
        # elsewhere has Lipschitz constant 1.5 on pair (0, 31) and 0.75 on
        # every other pair.  The 10,000 seed-7 pairs a sampled check would
        # draw never hold that pair.
        dist = np.full((64, 64), 2.0)
        np.fill_diagonal(dist, 0.0)
        dist[0, 31] = dist[31, 0] = 1.0
        space = finite_space(tuple(range(64)), dist)
        form = Scale(1.5, Tent(31, 1.0))
        assert np.array_equal(np.flatnonzero(form.evaluate(space, np.arange(64))), [31])
        validate_metadata(space, Declared(form, 1.5, 1.5), seed=7)
        with pytest.raises(DomainError, match="Lipschitz constant 1.0 violated"):
            validate_metadata(space, Declared(form, 1.5, 1.0), seed=7)


class Pattern(Form):
    """The values ``pattern`` repeated over the points, in order."""

    kind = "pattern"

    def __init__(self, *pattern):
        self.pattern = np.array(pattern)

    def evaluate(self, space, pts):
        return np.resize(self.pattern, len(pts))

    def bound(self, space):
        return math.inf

    def lipschitz(self, space):
        return math.inf

    def to_json(self):
        return {}


class TestNaNAndThresholds:
    """A NaN breaks every finite declared constant; a value on a threshold meets it."""

    @pytest.mark.parametrize("space", [CUBE2, PAIR], ids=["cube2", "pair"])
    @pytest.mark.parametrize("pattern", [(math.nan,), (0.0, math.nan)], ids=["nan", "half-nan"])
    def test_a_nan_value_breaks_the_declared_bound(self, space, pattern):
        with pytest.raises(DomainError, match="declared bound 1.0 violated"):
            validate_metadata(space, Declared(Pattern(*pattern), 1.0, 2.0), seed=7)

    @pytest.mark.parametrize("space", [CUBE2, PAIR], ids=["cube2", "pair"])
    def test_a_nan_difference_breaks_a_finite_lipschitz_constant(self, space):
        # inf - inf is NaN on every pair, while the declared bound inf holds
        with np.errstate(invalid="ignore"), pytest.raises(
                DomainError, match="declared Lipschitz constant 1.0 violated"):
            validate_metadata(space, Declared(Pattern(math.inf), math.inf, 1.0), seed=7)
        validate_metadata(space, Declared(Pattern(math.inf), math.inf, math.inf), seed=7)

    def test_values_on_the_thresholds_pass(self):
        # f(a) = 1 * 1.01 + 1e-12 is the cap of the bound B = 1, and
        # |f(a) - f(b)| the cap of the Lipschitz constant L = 1 at d(a, b) = 1
        top = 1.0 * 1.0 * 1.01 + 1e-12
        validate_metadata(PAIR, Declared(Pattern(top, 0.0), 1.0, 1.0), seed=7)
        above = float(np.nextafter(top, 2.0))
        with pytest.raises(DomainError, match="declared bound 1.0 violated"):
            validate_metadata(PAIR, Declared(Pattern(above, 0.0), 1.0, math.inf), seed=7)
        with pytest.raises(DomainError, match="declared Lipschitz constant 1.0 violated"):
            validate_metadata(PAIR, Declared(Pattern(above, 0.0), 2.0, 1.0), seed=7)


def spiky_space():
    """A 'carrier' whose distances to point 0 are the awkward floats."""
    col = np.array([0.0, -0.0, np.nan, np.inf, 1e308, 5e-324, 0.3])
    m = np.zeros((len(col), len(col)))
    m[:, 0] = m[0, :] = col
    return finite_space(tuple(range(len(col))), m, validate=False)


class TestInPlaceKernels:
    """The kernels equal their reference expressions, on ±0, NaN and overflow."""

    SPACE = spiky_space()
    PTS = np.arange(7)

    @pytest.mark.parametrize("radius", [1e-300, 0.5, 1.0, math.inf])
    def test_tent(self, radius):
        with np.errstate(all="ignore"):
            got = Tent(0, radius).evaluate(self.SPACE, self.PTS)
            d = self.SPACE.dist_to(self.PTS, 0)
            want = np.maximum(0.0, 1.0 - d / radius)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("values,lip", [((-0.0,), 0.0), ((-0.0, 0.0), 1.0),
                                            ((0.5, -0.0), 1e308), ((-1e308, 1.0), 2.0)])
    def test_mcshane(self, values, lip):
        anchors = (0, 6)[:len(values)]
        with np.errstate(all="ignore"):
            got = McShane(anchors, values, lip).evaluate(self.SPACE, self.PTS)
            want = None
            for value, anchor in zip(values, anchors):
                col = value + lip * self.SPACE.dist_to(self.PTS, anchor)
                want = col if want is None else np.minimum(want, col)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lo,hi,factor", [(-1.0, 1.0, -1.0), (-0.0, 0.0, 1.0),
                                              (-0.0, 0.0, -1.0), (-1.0, 1.0, 1e308)])
    def test_clamp(self, lo, hi, factor):
        child = Scale(factor, DistTo(0))
        with np.errstate(all="ignore"):
            got = Clamp(lo, hi, child).evaluate(self.SPACE, self.PTS)
            want = np.clip(child.evaluate(self.SPACE, self.PTS), lo, hi)
        assert got.tobytes() == want.tobytes()

    def test_a_single_cube_point_gives_a_scalar(self):
        point = np.array([0.25, 0.5])
        for form in (Tent((0.5, 0.5), 0.5), McShane(((0.0, 0.0),), (0.1,), 1.0),
                     Clamp(-0.2, 0.2, DistTo((1.0, 1.0)))):
            got = form.evaluate(CUBE2, point)
            assert np.ndim(got) == 0
            assert got == form.evaluate(CUBE2, point[None, :])[0]

    def test_a_vector_function_evaluates_a_repeated_form_once(self):
        calls = []

        class Counted(Tent):
            def evaluate(self, space, pts):
                calls.append(self)
                return super().evaluate(space, pts)

        form = Counted((0.5,), 0.5)
        g = VectorFunction(space=CUBE1, target=omega_space(4), forms=(form,) * 4)
        pts = CUBE1.points_array([(0.1,), (0.5,), (0.9,)])
        vals = g.evaluate(pts)
        assert len(calls) == 1
        assert np.array_equal(vals, np.stack([Tent((0.5,), 0.5).evaluate(CUBE1, pts)] * 4,
                                             axis=-1))


class TestValidationDrawDistances:
    """``dist_to`` on the column-major pairs that ``validate_metadata``
    lays out on the cube equals the row norms of C-ordered copies."""

    @staticmethod
    def assert_row_norms(d, seed, samples):
        rng = np.random.default_rng(seed)
        pts, qts = rng.random((samples, d)), rng.random((samples, d))
        got = unit_cube(d).dist_to(np.asfortranarray(pts), np.asfortranarray(qts))
        ref = np.linalg.norm(pts - qts, axis=1)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @given(st.integers(1, 8), st.integers(0, 2**64 - 1), st.integers(1, 400))
    @settings(deadline=None)
    def test_bit_for_bit(self, d, seed, samples):
        self.assert_row_norms(d, seed, samples)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_bit_for_bit_at_the_validation_size(self, d):
        self.assert_row_norms(d, 7, 10_000)

