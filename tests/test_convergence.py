from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakconv import (CapacityError, CertificateError, DomainError, UnsupportedError,
                      cli, convergence, funcs, integral)
from weakconv.carrier import finite_space, unit_cube
from weakconv.convergence import (DEFAULT_PREFIX, Battery, BatterySpec, ScalarMember,
                                  Status, Verdict, VectorMember, _Prefix, _battery_gaps,
                                  _lift_through_base, battery_members,
                                  bl_witness_function, certify, equivalence_report,
                                  generate_battery, integral_gap)
from weakconv.funcs import Const, Coord, Tent, validate_metadata, vector_function
from weakconv.measure import (FamilyLabel, FiniteMeasure, MeasureFamily, atom_sums, bl_distance,
                              dirac, finite_measure, scenario)
from weakconv.suite import bundled_suite, suite_targets
from weakconv.target import (banach_space, cumulative_l1_space, gap_value,
                             omega_space, target_from_json)

CUBE1 = unit_cube(1)
CUBE2 = unit_cube(2)
FINITE4 = finite_space(("a", "b", "c", "d"), np.array(
    [[0.0, 1.0, 2.0, 1.5], [1.0, 0.0, 1.0, 2.0], [2.0, 1.0, 0.0, 1.0], [1.5, 2.0, 1.0, 0.0]]))


TOTAL_MASS = ScalarMember("total_mass", Const(1.0), bound=1.0, lip=0.0)


def wobbling_family():
    """Finite masses whose atom count alternates, and their finite limit."""
    def masses(n):
        return finite_measure(CUBE2, [((0.5, 0.1 / n), 1.0 + 1.0 / n),
                                      ((0.2, 0.9), 0.5 + (n % 3) / 7.0)][: 1 + n % 2])

    fam = MeasureFamily(space=CUBE2, measure_fn=masses, name="wobbling")
    return fam, finite_measure(CUBE2, [((0.5, 0.0), 2.0)])


SHEARED_TARGET = {"kind": "frechet", "dim": 3, "family": "omega_max",
                  "base": [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, -2.0, 1.0]]}


@st.composite
def planar_carriers(draw):
    """A finite carrier of 2-64 distinct points of [0, 3]^2, Euclidean."""
    grid = draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
                         min_size=2, max_size=64, unique=True))
    plane = np.array(grid) * 3e-6
    return finite_space(tuple(range(len(grid))),
                        np.linalg.norm(plane[:, None] - plane[None], axis=-1))


@st.composite
def battery_specs(draw):
    """The JSON node of a battery spec, with small counts and valid ranges."""
    def pair(lo, hi):
        return sorted(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2)))

    count = st.integers(0, 6)
    return {"tents": draw(count), "distances": draw(count), "mcshanes": draw(count),
            "vector_members": draw(st.integers(0, 3)),
            "mcshane_anchors": draw(st.integers(1, 6)),
            "tent_radius": pair(1e-3, 10.0), "mcshane_lip": pair(0.0, 100.0)}


def constant_family(mu):
    return MeasureFamily(space=mu.space, measure_fn=lambda n: mu, name="const")


@pytest.fixture
def bl_calls(monkeypatch):
    """The first argument of every oracle call the certification makes."""
    calls = []

    def counted(mu, nu):
        calls.append(mu)
        return bl_distance(mu, nu)

    monkeypatch.setattr(convergence, "bl_distance", counted)
    return calls


def distinct_terms(prefix, start=1):
    """The distinct terms that indices start..N reference, in order of first appearance."""
    def key(mu):
        return mu.points.tobytes(), mu.weights.tobytes()

    referenced = {key(mu) for mu in prefix[start - 1:]}
    out, seen = [], set()
    for mu in prefix:
        if key(mu) not in seen:
            seen.add(key(mu))
            if key(mu) in referenced:
                out.append(mu)
    return out


def all_term_gaps(members, terms, limit):
    """``_battery_gaps`` on every distinct term of ``terms``, expanded to its N terms."""
    ts = np.arange(len(terms.distinct))
    return tuple(map(tuple, _battery_gaps(members, terms, limit, ts)[:, terms.where].tolist()))


def probe_battery(space):
    """One hand-built member: the unit tent anchored at the origin."""
    member = ScalarMember(name="probe", form=Tent((0.0,) * space.dim, 1.0),
                          bound=1.0, lip=1.0)
    return Battery(space=space, target=None, scalar_members=(member,),
                   vector_members=())


class TestBatteryGeneration:
    def test_deterministic_across_calls(self):
        spec = BatterySpec(vector_members=0)
        b1 = generate_battery(CUBE2, spec=spec, seed=42)
        b2 = generate_battery(CUBE2, spec=spec, seed=42)
        assert [m.form.to_json() for m in b1.scalar_members] \
            == [m.form.to_json() for m in b2.scalar_members]

    def test_seed_changes_battery(self):
        spec = BatterySpec(vector_members=0)
        b1 = generate_battery(CUBE2, spec=spec, seed=1)
        b2 = generate_battery(CUBE2, spec=spec, seed=2)
        assert [m.form.to_json() for m in b1.scalar_members] \
            != [m.form.to_json() for m in b2.scalar_members]

    def test_counts_and_names(self):
        batt = generate_battery(CUBE1, target=banach_space(2, p=2), seed=0)
        assert len(batt.scalar_members) == 10  # 4 tents + 3 dists + 3 mcshanes
        assert len(batt.vector_members) == 3
        names = [m.name for m in batt.members]
        assert len(set(names)) == len(names)

    def test_metadata_honest(self):
        batt = generate_battery(CUBE1, spec=BatterySpec(vector_members=0), seed=5)
        for m in batt.scalar_members:
            validate_metadata(CUBE1, m.form, seed=11)
            assert m.bound <= 1.0 + 1e-12  # members live in the unit ball

    @given(planar_carriers(), battery_specs(), st.integers(0, 2**64 - 1))
    @settings(deadline=None)
    def test_members_on_finite_carriers_pass_the_exhaustive_check(self, space, node, seed):
        # a member the builder draws is honest, so the exhaustive finite
        # check must never turn a valid certify or scenario input into exit 64
        self.check_members(space, node, seed)

    @given(st.sampled_from([CUBE1, CUBE2, unit_cube(8)]), battery_specs(),
           st.integers(0, 2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_members_on_cubes_pass_the_sampled_check(self, space, node, seed):
        self.check_members(space, node, seed)

    @staticmethod
    def check_members(space, node, seed):
        targets = [*suite_targets(), target_from_json(SHEARED_TARGET)]
        spec = BatterySpec.from_json(node, targets)
        scalars, vectors = battery_members(space, spec, seed,
                                           [(t, seed + 1 + k) for k, t in enumerate(targets)])
        validate_metadata(space, *(m.form for m in scalars),
                          *(f for members in vectors for m in members for f in m.function.forms),
                          seed=7)

    def test_vector_members_need_a_base(self):
        with pytest.raises(UnsupportedError):
            generate_battery(CUBE1, target=None, seed=0)  # default spec wants 3

    def test_spec_from_json(self):
        spec = BatterySpec.from_json({"tents": 1, "tent_radius": [0.5, 0.75]})
        assert spec.tents == 1
        assert spec.tent_radius == (0.5, 0.75)
        with pytest.raises(DomainError):
            BatterySpec.from_json({"tornadoes": 3})

    @pytest.mark.parametrize("space,target,seed", [
        (CUBE1, banach_space(2, p=2), 0),
        (CUBE2, omega_space(4), 9),
        (CUBE2, cumulative_l1_space(3), 4),
        (finite_space(("a", "b", "c"), 1.0 - np.eye(3)), omega_space(3), 2),
    ])
    def test_vector_members_helper_matches_generate_battery(self, space, target, seed):
        # a target built after another one still resumes the stream past the scalar forms
        full = generate_battery(space, target=target, seed=seed).vector_members
        _, (_, alone) = battery_members(space, BatterySpec(), seed,
                                        [(omega_space(2), seed), (target, seed)])
        assert [m.function.to_json() for m in alone] == [m.function.to_json() for m in full]
        assert [(m.name, m.bounds, m.lips) for m in alone] \
            == [(m.name, m.bounds, m.lips) for m in full]

    @pytest.mark.parametrize("space", [CUBE1, CUBE2, FINITE4, unit_cube(8)])
    def test_resumed_vector_members_equal_a_fresh_draw(self, space):
        # a report resumes the battery seed's stream for every target; the command
        # line gives target k the stream seed + 1 + k, each past its scalar forms
        for seed in range(5):
            for route in ("report", "cli"):
                self.check_fresh_draw(space, seed, route)

    @staticmethod
    def check_fresh_draw(space, seed, route):
        spec = BatterySpec()
        targets = suite_targets() + (target_from_json({"kind": "banach", "dim": 2,
                                                       "family": "lp:2"}),)
        if route == "report":
            keys = [seed] * len(targets)
            scalars, built = battery_members(space, spec, seed, [(t, seed) for t in targets])
        else:
            keys = [seed + 1 + k for k in range(len(targets))]
            battery = cli._battery_from_doc(space, {}, seed, targets)
            scalars, n = battery.scalar_members, spec.vector_members
            built = [battery.vector_members[k * n:(k + 1) * n] for k in range(len(targets))]

        def fresh(key):
            # the fresh draw, spelled out: the scalar forms, then each member's
            rng = np.random.Generator(np.random.Philox(key=key))
            forms = [(f"{shape}[{i}]", convergence._random_scalar_form(space, rng, spec, shape))
                     for shape, count in (("tent", spec.tents), ("dist", spec.distances),
                                          ("mcshane", spec.mcshanes))
                     for i in range(count)]
            return forms, rng

        assert [(m.name, m.form.to_json(), m.bound, m.lip) for m in scalars] \
            == [(name, f.to_json(), f.bound(space), f.lipschitz(space))
                for name, f in fresh(seed)[0]]
        shapes = ("tent", "mcshane", "dist")
        for target, key, resumed in zip(targets, keys, built):
            rng = fresh(key)[1]
            drawn = [_lift_through_base(space, target, [
                convergence._random_scalar_form(space, rng, spec, shapes[(i + k) % 3])
                for k in range(target.dim)]) for i in range(spec.vector_members)]
            assert [(m.name, m.function.to_json(), m.bounds, m.lips) for m in resumed] \
                == [(f"vec[{i}]", g.to_json(), tuple(g.bounds()), tuple(g.lipschitz_constants()))
                    for i, g in enumerate(drawn)]

    def test_works_on_finite_spaces(self):
        from weakconv.carrier import finite_space
        space = finite_space(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        batt = generate_battery(space, spec=BatterySpec(vector_members=0), seed=2)
        assert len(batt.scalar_members) == 10


class TestIntegralGap:
    def test_scalar_frozen(self):
        gap = integral_gap(Coord(0), dirac(CUBE1, (0.7,)), dirac(CUBE1, (0.2,)))
        assert gap == pytest.approx(0.5)

    def test_vector_uses_target_scale(self):
        g = vector_function(CUBE1, banach_space(2, p=2), (Coord(0), Coord(0)))
        gap = integral_gap(g, dirac(CUBE1, (0.7,)), dirac(CUBE1, (0.2,)))
        assert gap == pytest.approx(0.5 * math.sqrt(2.0))

    def test_zero_for_equal_measures(self):
        mu = finite_measure(CUBE1, [((0.3,), 0.5), ((0.6,), 0.5)])
        assert integral_gap(Coord(0), mu, mu) == 0.0


def per_term_gaps(battery, prefix, limit):
    """Reference: one integral_gap call per member and term."""
    return tuple(
        tuple(integral_gap(m.function if isinstance(m, VectorMember) else m.form,
                           mu_n, limit) for mu_n in prefix)
        for m in battery.members)


@st.composite
def carrier_prefixes(draw):
    """A carrier, a battery on it and a prefix with repeated terms of mixed atom counts."""
    if draw(st.booleans()):
        space = unit_cube(draw(st.integers(1, 8)))
        point = st.lists(st.floats(0.0, 1.0), min_size=space.dim, max_size=space.dim)
    else:
        n = draw(st.integers(2, 8))
        plane = np.array(draw(st.lists(
            st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
            min_size=n, max_size=n, unique=True)))
        dist = np.linalg.norm(plane[:, None, :] - plane[None, :, :], axis=-1)
        assume(np.all(dist + np.eye(n) > 1e-6))
        space = finite_space(tuple(range(n)), dist)
        point = st.integers(0, n - 1)
    weight = st.floats(0.01, 1.0)

    def measure():
        k = draw(st.integers(1, 6))
        rows = draw(st.lists(point, min_size=k, max_size=k))
        weights = draw(st.lists(weight, min_size=k, max_size=k))
        return finite_measure(space, [(space.point_at(r), w) for r, w in zip(rows, weights)])

    # terms come from a small pool, so a prefix repeats terms, sometimes as
    # equal copies rather than the same object, and mixes atom counts
    pool = [measure() for _ in range(draw(st.integers(1, 4)))]
    prefix = []
    for t in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12)):
        mu = pool[t]
        if draw(st.booleans()):
            mu = FiniteMeasure(space, mu.points.copy(), mu.weights.copy())
        prefix.append(mu)
    target = draw(st.sampled_from(suite_targets()))
    spec = BatterySpec(tents=1, distances=1, mcshanes=1, vector_members=1)
    battery = generate_battery(space, target=target, spec=spec,
                               seed=draw(st.integers(0, 2**16)))
    return battery, prefix, measure()


class TestBatchedGapsExact:
    """The batched sweep equals the per-term route exactly (==, not approx)."""

    @pytest.mark.parametrize("idx", range(20))
    def test_bundled_suite(self, idx):
        entry = bundled_suite()[idx]
        fam, limit = entry.family, entry.family.label.reference
        batteries = [generate_battery(fam.space, None,
                                      BatterySpec(vector_members=0), seed=idx)]
        batteries += [generate_battery(fam.space, t, seed=idx) for t in suite_targets()]
        prefix = fam.prefix(DEFAULT_PREFIX)
        for battery in batteries:
            assert_window_series(certify(fam, limit, battery), battery.members, prefix, limit)

    def test_normalizing_path(self):
        # finite inputs are scored raw, with the constant 1 as the last member
        fam, limit = wobbling_family()
        battery = generate_battery(CUBE2, omega_space(3), seed=4)
        verdict = certify(fam, limit, battery, n_terms=16, normalize_inputs=True)
        assert verdict.member_names[-1] == "total_mass"
        assert_window_series(verdict, battery.members + (TOTAL_MASS,), fam.prefix(16), limit)

    @given(carrier_prefixes())
    @settings(max_examples=30, deadline=None)
    def test_property_cube_and_finite(self, case):
        battery, prefix, limit = case
        terms = _Prefix(prefix, limit)
        # equal terms share one distinct term, unequal ones never do
        for mu, t in zip(prefix, terms.where):
            assert mu == terms.distinct[t]
        assert len({(mu.points.tobytes(), mu.weights.tobytes()) for mu in prefix}) \
            == len(terms.distinct)
        assert all_term_gaps(battery.members, terms, limit) \
            == per_term_gaps(battery, prefix, limit)
        # scoring the terms apart, as verdicts on different windows do, changes no bit
        ts = np.arange(len(terms.distinct))
        whole = _battery_gaps(battery.members, terms, limit, ts)
        for part in (ts[::2], ts[1::2]):
            if part.size:
                assert _battery_gaps(battery.members, terms, limit, part).tolist() \
                    == whole[:, part].tolist()


class TestRepeatedCoordinateForms:
    """A lifted scalar repeats one form in every coordinate; the sweep stays exact."""

    @pytest.mark.parametrize("target", [omega_space(4), banach_space(2, p=2),
                                        cumulative_l1_space(3, base=np.triu(np.ones((3, 3))))])
    @pytest.mark.parametrize("idx", [0, 10, 14, 16])
    def test_gaps_equal_per_term_integrals(self, target, idx):
        entry = bundled_suite()[idx]
        fam, limit = entry.family, entry.family.label.reference
        space = fam.space
        scalars = generate_battery(space, None, BatterySpec(vector_members=0),
                                   seed=idx).scalar_members
        members = tuple(
            VectorMember(name=m.name, bounds=(m.bound,) * target.dim,
                         lips=(m.lip,) * target.dim,
                         function=_lift_through_base(space, target, [m.form] * target.dim))
            for m in scalars)
        prefix = fam.prefix(16)
        gaps = all_term_gaps(members, _Prefix(prefix, limit), limit)

        def integral(g, mu):
            # each coordinate form evaluated on its own, repeats included
            return atom_sums(mu.weights, [f.evaluate(space, mu.points) for f in g.forms])[0]

        for member, series in zip(members, gaps):
            g = member.function
            want = tuple(gap_value(target, integral(g, mu) - integral(g, limit))
                         for mu in prefix)
            assert series == want
            assert series == tuple(integral_gap(g, mu, limit) for mu in prefix)


def window_oracle(fam, limit, start):
    """Reference: one bl_distance call per term, at indices start..DEFAULT_PREFIX."""
    return tuple(bl_distance(mu, limit).value for mu in fam.prefix(DEFAULT_PREFIX)[start - 1:])


class TestDistinctTerms:
    """The oracle runs once per distinct term, and its window values are the per-term ones."""

    @pytest.mark.parametrize("idx", range(20))
    def test_bl_values_equal_per_term_oracle(self, idx):
        entry = bundled_suite()[idx]
        fam, limit = entry.family, entry.family.label.reference
        spec = BatterySpec(tents=1, distances=1, mcshanes=1, vector_members=1)
        battery = generate_battery(fam.space, None, dataclasses.replace(spec, vector_members=0),
                                   seed=idx)
        verdict = certify(fam, limit, battery)
        per_term = window_oracle(fam, limit, verdict.window_start)
        assert verdict.window_bl == per_term
        rep = equivalence_report(fam, suite_targets(), seed=idx, spec=spec)
        for verdict in verdicts_of(rep):
            assert verdict.window_bl == per_term

    @pytest.mark.parametrize("name,period", [("alternating-1d", 2), ("cycle4-1d", 4)])
    def test_one_oracle_call_per_distinct_term(self, bl_calls, name, period):
        entry = next(e for e in bundled_suite() if e.name == name)
        fam, limit = entry.family, entry.family.label.reference
        spec = BatterySpec(tents=1, distances=1, mcshanes=1, vector_members=1)
        rep = equivalence_report(fam, suite_targets(), seed=3, spec=spec)
        assert rep.oracle_status == Status.DIVERGENT
        # every phase recurs in the window, so the window solves them all
        assert bl_calls == fam.prefix(period)
        bl_calls.clear()
        per_term = window_oracle(fam, limit, rep.scalar_verdict.window_start)
        for verdict in verdicts_of(rep):
            assert verdict.window_bl == per_term
        verdict = certify(fam, limit, generate_battery(fam.space, None,
                                                       BatterySpec(vector_members=0), seed=3))
        assert bl_calls == fam.prefix(period)
        assert verdict.window_bl == per_term


def verdicts_of(report):
    return (report.scalar_verdict,) + tuple(v for _, v in report.vector_verdicts)


def report_members(fam, report, targets, seed):
    """The members of each verdict of ``report``, rebuilt from the battery
    seed and the names of the oracle's witnesses."""
    candidate = fam.label.reference
    scalars = generate_battery(fam.space, None, BatterySpec(vector_members=0),
                               seed=seed).scalar_members
    witnesses = tuple(
        dataclasses.replace(bl_witness_function(fam.measure(int(name[len("bl_witness[n="):-1])),
                                                candidate), name=name)
        for name in report.scalar_verdict.member_names[len(scalars):])
    members = [scalars + witnesses]
    for target in targets:
        lifted = tuple(
            VectorMember(name=f"{m.name}:lift", bounds=(1.0,) * target.dim,
                         lips=(1.0,) * target.dim,
                         function=_lift_through_base(fam.space, target, [m.form] * target.dim))
            for m in witnesses)
        members.append(generate_battery(fam.space, target, seed=seed).vector_members + lifted)
    return members


def assert_window_series(verdict, members, prefix, limit):
    """The window of ``verdict`` holds the per-term route's values, whose every
    term the batched sweep reproduces."""
    battery = Battery(limit.space, None, tuple(members), ())
    gaps = per_term_gaps(battery, prefix, limit)
    assert verdict.member_names == tuple(m.name for m in members)
    assert all_term_gaps(battery.members, _Prefix(prefix, limit), limit) == gaps
    start = verdict.window_start
    assert verdict.window_gaps == tuple(series[start - 1:] for series in gaps)
    assert verdict.window_bl == tuple(bl_distance(mu, limit).value for mu in prefix[start - 1:])


def read_every_way(verdict):
    """Compare, hash, print and serialise ``verdict``."""
    assert verdict == dataclasses.replace(verdict)
    hash(verdict)
    repr(verdict)
    verdict.to_json()


class TestWindowFirst:
    """The oracle solves, and the battery scores, the window's distinct terms
    only; no read of a verdict solves another term."""

    @pytest.mark.parametrize("idx", range(20))
    def test_bundled_reports(self, bl_calls, idx):
        entry = bundled_suite()[idx]
        fam, limit = entry.family, entry.family.label.reference
        targets, seed = suite_targets(), 1000 + idx
        rep = equivalence_report(fam, targets, seed=seed)
        prefix = fam.prefix(DEFAULT_PREFIX)
        start = rep.scalar_verdict.window_start
        assert bl_calls == distinct_terms(prefix, start)
        members = report_members(fam, rep, targets, seed)  # solves its witnesses afresh
        bl_calls.clear()
        for verdict, verdict_members in zip(verdicts_of(rep), members):
            assert_window_series(verdict, verdict_members, prefix, limit)
            read_every_way(verdict)
        assert bl_calls == []

    @pytest.mark.parametrize("idx", range(20))
    def test_bundled_certify(self, bl_calls, idx):
        entry = bundled_suite()[idx]
        fam, limit = entry.family, entry.family.label.reference
        battery = generate_battery(fam.space, suite_targets()[idx % 3], seed=1000 + idx)
        verdict = certify(fam, limit, battery)
        prefix = fam.prefix(DEFAULT_PREFIX)
        window = distinct_terms(prefix, verdict.window_start)
        assert bl_calls == window
        assert_window_series(verdict, battery.members, prefix, limit)
        read_every_way(verdict)
        assert bl_calls == window

    def test_normalizing_certify(self, bl_calls):
        fam, limit = wobbling_family()
        battery = generate_battery(CUBE2, omega_space(3), seed=4)
        verdict = certify(fam, limit, battery, n_terms=16, normalize_inputs=True)
        prefix = fam.prefix(16)
        window = distinct_terms(prefix, verdict.window_start)
        assert bl_calls == window
        assert verdict.window_gaps[-1] == pytest.approx(
            [abs(mu.total_mass - 2.0) for mu in prefix[verdict.window_start - 1:]], abs=1e-15)
        assert_window_series(verdict, battery.members + (TOTAL_MASS,), prefix, limit)
        read_every_way(verdict)
        assert bl_calls == window

    @pytest.mark.parametrize("name", ["drift-geometric-1d", "split-2d"])
    def test_reading_a_verdict_solves_nothing(self, bl_calls, name):
        # the terms before the window are never solved: not by the call,
        # and not by comparing, hashing, printing or serialising its verdicts
        entry = next(e for e in bundled_suite() if e.name == name)
        fam, limit = entry.family, entry.family.label.reference
        prefix = fam.prefix(DEFAULT_PREFIX)
        rep = equivalence_report(fam, suite_targets(), seed=3)
        verdict = certify(fam, limit, generate_battery(fam.space, omega_space(3), seed=3))
        window = distinct_terms(prefix, verdict.window_start)
        assert len(window) < len(distinct_terms(prefix))
        assert bl_calls == window + window  # one prefix for the report, one for certify
        for v in verdicts_of(rep) + (verdict,):
            read_every_way(v)
        assert bl_calls == window + window
        assert [f.name for f in dataclasses.fields(Verdict)] == [
            "status", "n_terms", "tol", "window_start", "member_names", "thresholds",
            "window_gaps", "window_bl", "witness"]

    def test_window_reads_do_not_complete(self, bl_calls):
        # certify on the laws of split-2d with a Banach-valued battery: reading
        # the verdict, the last gaps of its vector members included, solves
        # no term outside the window
        entry = next(e for e in bundled_suite() if e.name == "split-2d")
        fam, limit = entry.family, entry.family.label.reference
        battery = generate_battery(fam.space, banach_space(2, p=2), seed=3)
        verdict = certify(fam, limit, battery)
        assert len(bl_calls) == 16 and verdict.to_json()["status"] == verdict.status.value
        tails = tuple(g[-1] for g in verdict.window_gaps[len(battery.scalar_members):])
        assert len(tails) == len(battery.vector_members) > 0
        read_every_way(verdict)
        assert len(bl_calls) == 16

    @staticmethod
    def family_with_bad_term(case):
        """A labeled family on CUBE1 whose term 2 or 3 fails an input check, and its limit."""
        limit = dirac(CUBE1, (0.5,))
        if case == "non-probability":
            bad_n, bad = 2, finite_measure(CUBE1, [((0.5,), 0.5)])
        elif case == "other-carrier":  # a finite carrier of the same size, farther apart
            near, far = (finite_space("ab", [[0.0, d], [d, 0.0]]) for d in (1.0, 2.0))
            limit, bad_n, bad = dirac(near, 0), 2, dirac(far, 0)
        elif case == "other-dimension":
            bad_n, bad = 2, dirac(CUBE2, (0.5, 0.5))
        else:  # its union support with the limit is 402 points
            limit = finite_measure(CUBE1, [((0.001,), 0.5), ((0.0035,), 0.5)])
            bad_n, bad = 3, finite_measure(CUBE1, [((i / 400,), 1 / 400) for i in range(400)])
        fam = MeasureFamily(limit.space, lambda n: bad if n == bad_n else limit,
                            FamilyLabel("converges_to", limit))
        return fam, limit

    @pytest.mark.parametrize("case,error,at_certify,at_report", [
        ("non-probability", DomainError,
         "certify needs probability measures (or normalize_inputs=True)",
         "equivalence scenarios must produce probability measures"),
        ("other-carrier", DomainError,
         "measures live on different carriers", "measures live on different carriers"),
        ("over-the-cap", CapacityError,
         "union support 402 exceeds the cap 400", "union support 402 exceeds the cap 400"),
    ])
    def test_bad_terms_raise_at_the_call(self, bl_calls, case, error, at_certify, at_report):
        fam, limit = self.family_with_bad_term(case)
        with pytest.raises(error) as got:
            certify(fam, limit, probe_battery(limit.space), n_terms=8)
        assert str(got.value) == at_certify
        with pytest.raises(error) as got:
            equivalence_report(fam, (), n_terms=8)
        assert str(got.value) == at_report
        assert bl_calls == []  # checked before any solve

    def test_a_term_on_another_cube_dimension_is_a_domain_error(self, bl_calls):
        # the eager sweep failed here on numpy's concatenation, a bare ValueError
        fam, limit = self.family_with_bad_term("other-dimension")
        for call in (lambda: certify(fam, limit, probe_battery(CUBE1), n_terms=8),
                     lambda: equivalence_report(fam, (), n_terms=8)):
            with pytest.raises(DomainError, match="measures live on different carriers"):
                call()
        assert bl_calls == []


class TestWitnessExtension:
    @pytest.mark.parametrize("seed", range(6))
    def test_reproduces_lp_value_as_integral_gap(self, seed):
        rng = np.random.default_rng(seed)
        pts = [tuple(p) for p in rng.random((3, 2))]
        mu = finite_measure(CUBE2, list(zip(pts, rng.dirichlet(np.ones(3)))))
        nu = dirac(CUBE2, tuple(rng.random(2)))
        res = bl_distance(mu, nu)
        member = bl_witness_function(mu, nu, result=res)
        assert integral_gap(member.form, mu, nu) == pytest.approx(res.value, abs=1e-9)

    def test_stays_in_unit_ball(self):
        mu = dirac(CUBE1, (0.0,))
        nu = dirac(CUBE1, (1.0,))
        member = bl_witness_function(mu, nu)
        assert member.bound == 1.0
        assert member.lip == 1.0
        validate_metadata(CUBE1, member.form, seed=3)


class TestCalibratedThresholds:
    """The paranorm saturates below 1, so vector thresholds are the gap
    value of tol * (1,...,1); these frozen numbers are hand-derived."""

    def _thresholds(self, target, tol):
        vf = vector_function(CUBE1, target,
                             tuple(Const(0.0) for _ in range(target.dim)))
        member = VectorMember("zero", vf, bounds=(0.0,) * target.dim,
                              lips=(0.0,) * target.dim)
        battery = Battery(CUBE1, target, (), (member,))
        fam = constant_family(dirac(CUBE1, (0.5,)))
        verdict = certify(fam, dirac(CUBE1, (0.5,)), battery, n_terms=8, tol=tol)
        return verdict.thresholds[0]

    def test_truncated_max_family(self):
        # every level of t*(1,1,1,1) equals t, and the level weights
        # telescope to 1, so the threshold is t / (1 + t)
        lo, hi = self._thresholds(omega_space(4), 0.5)
        assert lo == pytest.approx(0.5 / 1.5, abs=1e-15)
        assert hi == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_banach_family_uses_plain_norm(self):
        lo, hi = self._thresholds(banach_space(2, p=2), 0.5)
        assert lo == pytest.approx(0.5 * math.sqrt(2.0))
        assert hi == pytest.approx(5.0 * math.sqrt(2.0))

    def test_cumulative_family(self):
        # levels of t*(1,1,1) are t, 2t, 3t
        lo, hi = self._thresholds(cumulative_l1_space(3), 0.5)
        t = 0.5
        expect_lo = (0.5 * t / (1 + t) + 0.25 * 2 * t / (1 + 2 * t)
                     + 0.25 * 3 * t / (1 + 3 * t))
        t = 5.0
        expect_hi = (0.5 * t / (1 + t) + 0.25 * 2 * t / (1 + 2 * t)
                     + 0.25 * 3 * t / (1 + 3 * t))
        assert lo == pytest.approx(expect_lo, abs=1e-15)
        assert hi == pytest.approx(expect_hi, abs=1e-15)

    @pytest.mark.parametrize("target", [banach_space(3, p=1), banach_space(3, p=2),
                                        banach_space(3, p="inf"), omega_space(4),
                                        cumulative_l1_space(3)], ids=lambda t: t.family.name)
    @pytest.mark.parametrize("tol", [0.05, 0.001, 1.0 / 3.0])
    def test_one_stacked_call_a_target_gives_the_per_vector_floats(self, monkeypatch,
                                                                   target, tol):
        # two members on one target share one gap_value call on the stacked
        # rows tol * 1 and 10 * tol * 1, with the bits and type of a call per row
        calls = []

        def counted(space, v):
            calls.append(np.shape(v))
            return gap_value(space, v)

        vf = vector_function(CUBE1, target, tuple(Const(0.0) for _ in range(target.dim)))
        member = VectorMember("zero", vf, bounds=(0.0,) * target.dim, lips=(0.0,) * target.dim)
        monkeypatch.setattr(convergence, "gap_value", counted)
        pairs = convergence._member_thresholds((member, member), tol)
        ones = np.ones(target.dim)
        expected = (gap_value(target, tol * ones), gap_value(target, 10.0 * tol * ones))
        assert calls == [(2, target.dim)]
        assert repr(pairs) == repr((expected, expected))
        assert all(type(x) is float for pair in pairs for x in pair)

    def test_scalar_thresholds_are_raw(self):
        fam = constant_family(dirac(CUBE1, (0.5,)))
        verdict = certify(fam, dirac(CUBE1, (0.5,)), probe_battery(CUBE1),
                          n_terms=8, tol=0.07)
        lo, hi = verdict.thresholds[0]
        assert lo == 0.07
        assert hi == pytest.approx(0.7, abs=1e-15)


class TestCertify:
    def test_convergent_drift(self):
        fam = scenario("dirac_drift", {"space": CUBE1, "s0": [0.2], "v": [0.5],
                                       "rate": "harmonic"})
        batt = generate_battery(CUBE1, spec=BatterySpec(vector_members=0), seed=1)
        verdict = certify(fam, fam.label.reference, batt)
        assert verdict.status == Status.CONVERGENT_EVIDENCE
        assert verdict.window_start == 49
        assert verdict.witness is None

    def test_divergent_alternation_with_frozen_witness(self):
        fam = scenario("alternating", {"space": CUBE1, "a": (0.0,), "b": (1.0,)})
        verdict = certify(fam, fam.label.reference, probe_battery(CUBE1))
        assert verdict.status == Status.DIVERGENT
        w = verdict.witness
        assert w.member == "probe"
        # first two even indices in the 49..64 window
        assert (w.n1, w.n2) == (50, 52)
        assert w.gap == pytest.approx(1.0, abs=1e-12)

    def test_witness_that_fails_its_recheck_is_a_certificate_error(self, monkeypatch):
        # no recomputed gap agrees within a negative tolerance
        monkeypatch.setattr(convergence, "_WITNESS_RECHECK_TOL", -1.0)
        fam = scenario("alternating", {"space": CUBE1, "a": (0.0,), "b": (1.0,)})
        with pytest.raises(CertificateError, match="divergence witness failed recheck"):
            certify(fam, fam.label.reference, probe_battery(CUBE1))

    def test_the_recheck_evaluates_the_witness_member(self, monkeypatch):
        # two members share a name; the second one decides and must be rechecked
        rechecked = []
        member_gap = convergence._member_gap

        def spy(member, mu_n, mu):
            rechecked.append(member)
            return member_gap(member, mu_n, mu)

        monkeypatch.setattr(convergence, "_member_gap", spy)
        fam = scenario("alternating", {"space": CUBE1, "a": (0.1,), "b": (0.9,)})
        const = ScalarMember("v", Const(0.5), bound=0.5, lip=0.0)
        tent = ScalarMember("v", Tent((0.1,), 0.5), bound=1.0, lip=2.0)
        verdict = certify(fam, fam.label.reference, Battery(CUBE1, None, (const, tent), ()))
        assert verdict.status == Status.DIVERGENT
        assert (verdict.witness.member, verdict.witness.gap) == ("v", 1.0)
        assert rechecked == [tent, tent]

    def test_inconclusive_constant_offset(self):
        fam = scenario("constant", {"space": CUBE1, "mu": dirac(CUBE1, (0.3,))})
        verdict = certify(fam, dirac(CUBE1, (0.2,)), probe_battery(CUBE1))
        assert verdict.status == Status.INCONCLUSIVE
        assert verdict.witness is None

    def test_short_prefix_rejected(self):
        fam = constant_family(dirac(CUBE1, (0.5,)))
        with pytest.raises(DomainError):
            certify(fam, dirac(CUBE1, (0.5,)), probe_battery(CUBE1), n_terms=7)

    def test_bad_tol_rejected(self):
        fam = constant_family(dirac(CUBE1, (0.5,)))
        with pytest.raises(DomainError):
            certify(fam, dirac(CUBE1, (0.5,)), probe_battery(CUBE1), tol=0.0)

    def test_non_probability_rejected_without_flag(self):
        fam = constant_family(finite_measure(CUBE1, [((0.5,), 0.5)]))
        with pytest.raises(DomainError):
            certify(fam, dirac(CUBE1, (0.5,)), probe_battery(CUBE1))

    def test_verdict_serialisation(self):
        fam = scenario("alternating", {"space": CUBE1, "a": (0.0,), "b": (1.0,)})
        verdict = certify(fam, fam.label.reference, probe_battery(CUBE1),
                          n_terms=16)
        doc = verdict.to_json()
        assert doc["status"] == "divergent"
        assert doc["witness"]["member"] == "probe"
        assert doc["bl_tail_max"] == pytest.approx(1.0)
        assert doc["window_start"] == 13
        assert len(verdict.window_gaps[0]) == len(verdict.window_bl) == 4  # indices 13..16


class TestNormalizingPath:
    def test_mass_divergence_is_witnessed(self):
        def masses(n):
            return finite_measure(CUBE1, [((0.5,), 1.6 if n % 2 == 0 else 1.0)])

        fam = MeasureFamily(space=CUBE1, measure_fn=masses, name="pulsing")
        verdict = certify(fam, dirac(CUBE1, (0.5,)), probe_battery(CUBE1),
                          n_terms=16, normalize_inputs=True)
        assert verdict.status == Status.DIVERGENT
        assert verdict.witness.member == "total_mass"
        assert verdict.witness.gap == pytest.approx(0.6)
        assert "total_mass" in verdict.member_names

    def test_vanishing_mass_error_converges(self):
        def masses(n):
            return finite_measure(CUBE1, [((0.5,), 1.0 + 1.0 / (n * n))])

        fam = MeasureFamily(space=CUBE1, measure_fn=masses, name="settling")
        limit = dirac(CUBE1, (0.5,))
        verdict = certify(fam, limit, probe_battery(CUBE1), n_terms=16, normalize_inputs=True)
        assert verdict.status == Status.CONVERGENT_EVIDENCE
        assert verdict.member_names == ("probe", "total_mass")
        assert_window_series(verdict, probe_battery(CUBE1).members + (TOTAL_MASS,),
                             fam.prefix(16), limit)
        # the oracle reads the raw terms: bl(mu_n, mu) is the mass error 1/n^2
        assert verdict.window_bl == pytest.approx(
            [1.0 / (n * n) for n in range(verdict.window_start, 17)], rel=1e-12)


class TestBLDomination:
    """A window gap above max(B, L) * BL_n is a CertificateError."""

    DRIFT = scenario("dirac_drift", {"space": CUBE1, "s0": [0.2], "v": [0.5]})

    def certify_drift(self, *members):
        battery = Battery(CUBE1, None, tuple(m for m in members if isinstance(m, ScalarMember)),
                          tuple(m for m in members if isinstance(m, VectorMember)))
        return certify(self.DRIFT, self.DRIFT.label.reference, battery)

    def test_a_halved_scalar_lipschitz_constant_is_caught(self):
        # a tent of radius 0.1 on the limit's atom has L = 10: its gap is
        # 10 * BL_n on the window, twice the cap of a declared L = 5
        tent = Tent((0.2,), 0.1)
        self.certify_drift(ScalarMember("tent", tent, bound=1.0, lip=10.0))
        with pytest.raises(CertificateError, match=r"member tent breaks gap <= max\(B, L\) "
                                                   r"\* BL at n=49: "):
            self.certify_drift(ScalarMember("tent", tent, bound=1.0, lip=5.0))

    @pytest.mark.parametrize("target", [banach_space(2, p=2), omega_space(2),
                                        cumulative_l1_space(2)], ids=lambda t: t.family.name)
    def test_a_halved_coordinate_lipschitz_constant_is_caught(self, target):
        vf = vector_function(CUBE1, target, (Const(0.5), Tent((0.2,), 0.1)))
        self.certify_drift(VectorMember("vec", vf, bounds=(0.5, 1.0), lips=(0.0, 10.0)))
        with pytest.raises(CertificateError, match="member vec breaks"):
            self.certify_drift(VectorMember("vec", vf, bounds=(0.5, 1.0), lips=(0.0, 5.0)))

    def test_the_check_reads_the_window_only(self):
        # term 2 sits at 0.45, on the peak of a tent that is flat on the
        # window: the declared L = 0.1 breaks there (gap 1 > BL_2 = 0.25)
        # but on no window term, which is all the verdict reads
        tent = Tent((0.45,), 0.1)
        verdict = self.certify_drift(ScalarMember("tent", tent, bound=1.0, lip=0.1))
        term, limit = self.DRIFT.measure(2), self.DRIFT.label.reference
        assert integral_gap(tent, term, limit) == 1.0 > bl_distance(term, limit).value == 0.25
        assert verdict.window_start > 2 and set(verdict.window_gaps[0]) == {0.0}

    def test_infinite_and_nan_caps_pass_without_a_warning(self):
        vf = vector_function(CUBE1, omega_space(2), (Tent((0.2,), 0.1), Const(0.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.certify_drift(ScalarMember("huge", Tent((0.2,), 0.1), bound=1e300, lip=1e300),
                               ScalarMember("nan", Tent((0.2,), 0.1), bound=1.0, lip=math.nan),
                               VectorMember("inf", vf, bounds=(1.0, 0.0),
                                            lips=(math.inf, 0.0)))

    def test_normalized_masses_meet_the_cap_of_total_mass(self):
        # f = 1 attains BL between equal-point Diracs of different masses,
        # so total_mass (c = 1) sits on its cap at every term
        def masses(n):
            return finite_measure(CUBE1, [((0.5,), 1.0 + 1.0 / n)])

        fam = MeasureFamily(space=CUBE1, measure_fn=masses, name="settling")
        limit = finite_measure(CUBE1, [((0.5,), 3.0)])
        verdict = certify(fam, limit, probe_battery(CUBE1), n_terms=16, normalize_inputs=True)
        assert verdict.window_gaps[1] == pytest.approx(verdict.window_bl, rel=1e-15)
        for mu in fam.prefix(16):
            assert integral_gap(Const(1.0), mu, limit) == pytest.approx(
                bl_distance(mu, limit).value, rel=1e-15)


class TestEquivalenceReport:
    def test_convergent_scenario_agrees(self):
        fam = scenario("dirac_drift", {"space": CUBE1, "s0": [0.2], "v": [0.5],
                                       "rate": "quadratic"})
        rep = equivalence_report(fam, targets=(banach_space(2, p=2), omega_space(3)),
                                 n_terms=16, seed=3)
        assert rep.oracle_status == Status.CONVERGENT_EVIDENCE
        assert rep.agreement
        assert len(rep.vector_verdicts) == 2

    def test_divergent_scenario_agrees(self):
        fam = scenario("alternating", {"space": CUBE1, "a": (0.0,), "b": (1.0,)})
        rep = equivalence_report(fam, targets=(omega_space(3),), n_terms=16, seed=3)
        assert rep.oracle_status == Status.DIVERGENT
        assert rep.agreement
        doc = rep.to_json()
        assert doc["oracle"] == "divergent"
        assert doc["agreement"] is True
        assert set(doc["vector"]) == {"omega_max"}

    def test_battery_carries_oracle_witnesses(self):
        fam = scenario("alternating", {"space": CUBE1, "a": (0.0,), "b": (1.0,)})
        rep = equivalence_report(fam, targets=(), n_terms=16, seed=0)
        witness_names = [name for name in rep.scalar_verdict.member_names
                         if name.startswith("bl_witness[n=")]
        assert len(witness_names) == 2

    @pytest.mark.parametrize("dim,digest", [
        (2, "aac8ec4e41a858c60c29f684042cea45720d0b0d820dab819898030c0d2ea370"),
        (8, "901d4389a258e7a84d266543fe7899928babc527ee4da5e08acc8a0252844377")],
        ids=["cube2", "cube8"])
    def test_battery_build_makes_no_metadata_check(self, monkeypatch, dim, digest):
        # the verdict checks the members' constants against the oracle, so
        # the builder draws the same members as when it validated them, and
        # checks none of them, through either binding of the check
        calls = []
        for module in (funcs, integral):
            monkeypatch.setattr(module, "validate_metadata", lambda *a, **k: calls.append(a))
        space, targets = unit_cube(dim), suite_targets()
        fam = scenario("dirac_drift", {"space": space, "s0": [0.2] * dim, "v": [0.5] * dim,
                                       "rate": "quadratic"})
        equivalence_report(fam, targets, n_terms=16, seed=3)
        scalars, vectors = battery_members(space, BatterySpec(), 3,
                                           [(t, 4 + k) for k, t in enumerate(targets)])
        assert calls == []
        doc = [[m.name, m.form.to_json(), m.bound, m.lip] for m in scalars] + [
            [m.name, m.function.to_json(), list(m.bounds), list(m.lips)]
            for members in vectors for m in members]
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest

    def test_lifted_witnesses_declare_the_constants_of_the_lift(self, monkeypatch):
        # through a sheared base the lift of a unit-ball witness is no longer
        # in the unit ball: its coordinates are 2f, 3f and f
        scored = []
        verdicts = convergence._verdicts

        def spy(prefix, window_start, member_lists, tol):
            scored.append(member_lists)
            return verdicts(prefix, window_start, member_lists, tol)

        monkeypatch.setattr(convergence, "_verdicts", spy)
        target = target_from_json(SHEARED_TARGET)
        fam = scenario("alternating", {"space": CUBE1, "a": (0.0,), "b": (1.0,)})
        rep = equivalence_report(fam, (target,), n_terms=16, seed=3)
        assert rep.agreement
        assert len(scored) == 1
        assert len(scored[0]) == 2  # the scalar list, then the target's
        lifts = [m for m in scored[0][1] if m.name.endswith(":lift")]
        assert len(lifts) == 2
        for m in lifts:
            assert m.bounds == m.lips == (2.0, 3.0, 1.0)

    @pytest.mark.parametrize("name", ["alternating-1d", "split-2d"])
    def test_one_sweep_scores_every_verdict_of_a_report(self, monkeypatch, name):
        # the scalar battery and each target's battery share one gap sweep,
        # in which each form object is evaluated once and each target's
        # vector gaps come from one call of its gap functional
        sweeps, evaluated, scored = [], [], []
        sweep = convergence._battery_gaps

        def spy_sweep(members, *args):
            sweeps.append(members)
            try:
                return sweep(members, *args)
            finally:
                sweeps.append(None)

        def spy_evaluate(evaluate):
            def spied(self, space, pts):
                if sweeps and sweeps[-1] is not None:
                    evaluated.append(self)
                return evaluate(self, space, pts)
            return spied

        def spy_gap_value(target, v):
            if sweeps and sweeps[-1] is not None:
                scored.append((target, np.shape(v)))
            return gap_value(target, v)

        forms = [funcs.Form]
        for cls in forms:
            forms += cls.__subclasses__()
            if "evaluate" in vars(cls):
                monkeypatch.setattr(cls, "evaluate", spy_evaluate(cls.evaluate))
        monkeypatch.setattr(convergence, "_battery_gaps", spy_sweep)
        monkeypatch.setattr(convergence, "gap_value", spy_gap_value)
        entry = next(e for e in bundled_suite() if e.name == name)
        targets = suite_targets()
        rep = equivalence_report(entry.family, targets, seed=11)
        assert rep.agreement
        assert len(sweeps) == 2  # one sweep, entered and left
        members = sweeps[0]
        assert len(members) == len(rep.scalar_verdict.member_names) + sum(
            len(v.member_names) for _, v in rep.vector_verdicts)
        ids = [id(f) for f in evaluated]
        assert len(ids) == len(set(ids))
        # the lifts through the identity base reuse the scalar witnesses' forms
        witnesses = {id(m.form) for m in members if isinstance(m, ScalarMember)
                     and m.name.startswith("bl_witness")}
        assert len(witnesses) == 2 and witnesses <= set(ids)
        assert {id(f) for m in members if m.name.endswith(":lift")
                for f in m.function.forms} == witnesses
        assert [target for target, _ in scored] == list(targets)
        for (target, shape), (_, verdict) in zip(scored, rep.vector_verdicts):
            assert shape[0] == len(verdict.member_names) and shape[-1] == target.dim

    def test_targets_keyed_by_the_battery_seed_draw_the_scalar_forms_once(self, monkeypatch):
        draws = []
        draw = convergence._draw_scalar_forms

        def spy(*args):
            draws.append(args)
            return draw(*args)

        monkeypatch.setattr(convergence, "_draw_scalar_forms", spy)
        targets = suite_targets()
        scalars, vectors = battery_members(CUBE2, BatterySpec(), 7,
                                           [(t, 7) for t in targets])
        assert len(draws) == 1
        assert len(scalars) == 10 and [len(v) for v in vectors] == [3, 3, 3]
        # the command line's target seeds draw their own scalar forms, once each
        draws.clear()
        battery_members(CUBE2, BatterySpec(), 7, [(t, 8 + k) for k, t in enumerate(targets)])
        assert len(draws) == 4

    @pytest.mark.parametrize("name", ["split-2d", "cycle3-finite"])
    def test_scalar_verdict_equals_public_certify(self, name):
        entry = next(e for e in bundled_suite() if e.name == name)
        fam, candidate = entry.family, entry.family.label.reference
        rep = equivalence_report(fam, suite_targets(), seed=5)
        assert rep.oracle_status == rep.scalar_verdict.status == entry.expected
        # the same members: the scalar battery and the oracle's two witnesses
        scalars = generate_battery(fam.space, None, BatterySpec(vector_members=0),
                                   seed=5).scalar_members
        witnesses = []
        for member_name in rep.scalar_verdict.member_names[len(scalars):]:
            n = int(member_name[len("bl_witness[n="):-1])
            member = bl_witness_function(fam.measure(n), candidate)
            witnesses.append(dataclasses.replace(member, name=member_name))
        assert len(witnesses) == 2
        battery = Battery(fam.space, None, scalars + tuple(witnesses), ())
        assert certify(fam, candidate, battery) == rep.scalar_verdict

    def test_unlabeled_rejected(self):
        fam = constant_family(dirac(CUBE1, (0.5,)))
        with pytest.raises(DomainError):
            equivalence_report(fam, targets=(), n_terms=8)

    def test_a_target_without_a_base_is_unsupported(self, bl_calls):
        # the oracle's witnesses are lifted through every target's base,
        # so a baseless target is refused before any solve
        fam = scenario("alternating", {"space": CUBE1, "a": (0.0,), "b": (1.0,)})
        with pytest.raises(UnsupportedError) as got:
            equivalence_report(fam, (banach_space(2, base=None),), n_terms=16,
                               spec=BatterySpec(vector_members=0))
        assert str(got.value) == "vector members need a target with a base"
        assert bl_calls == []


class TestRandomElements:
    """A random element converges in distribution exactly when its laws
    converge weakly, so ``certify`` on the laws decides it."""

    def test_expectation_is_exact(self):
        # the mean of g at a random element is the atomic integral of g
        # against its law
        law = finite_measure(CUBE2, [((0.2, 0.4), 0.5), ((0.6, 0.8), 0.5)])
        g = vector_function(CUBE2, banach_space(2, p=2), (Coord(0), Coord(1)))
        assert_allclose(integral.atomic_oracle(g, law), [0.4, 0.6])

    def test_distribution_report(self):
        laws = [dirac(CUBE1, (0.5 + 0.4 / (n * n),)) for n in range(1, 9)]
        family = MeasureFamily(space=CUBE1, measure_fn=lambda n: laws[n - 1],
                               name="random-elements")
        limit = dirac(CUBE1, (0.5,))
        batt = generate_battery(
            CUBE1, target=banach_space(2, p=2),
            spec=BatterySpec(tents=1, distances=0, mcshanes=0, vector_members=2),
            seed=3)
        verdict = certify(family, limit, batt, n_terms=8)
        assert verdict.status == Status.CONVERGENT_EVIDENCE
        # a vector member's last gap is the gap of its means at the last term
        tails = [gaps[-1] for gaps in verdict.window_gaps[len(batt.scalar_members):]]
        assert len(tails) == 2
        for m, tail in zip(batt.vector_members, tails):
            g = m.function
            assert tail >= 0.0
            assert tail == gap_value(g.target, integral.atomic_oracle(g, laws[-1])
                                     - integral.atomic_oracle(g, limit))
