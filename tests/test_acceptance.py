"""Acceptance battery: the headline guarantees, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion.  Tolerances are pinned in the assertions; runtime budgets are
enforced with wall-clock checks where a criterion carries one.
"""
from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

from weakconv.carrier import finite_space, unit_cube
from weakconv.convergence import (Battery, BatterySpec, ScalarMember, Status,
                                  certify, generate_battery, integral_gap)
from weakconv.funcs import (Clamp, DistTo, McShane, Scale, Tent,
                            VectorFunction)
from weakconv.integral import (as_vector_function, atomic_oracle,
                               continuity_integrability_harness, integrate,
                               integrability_report)
from weakconv.measure import (bl_distance, dirac, finite_measure, measure_of,
                              scenario, tightness_witness)
from weakconv.suite import scenario_agreement, suite_targets
from weakconv.target import (banach_space, base_criterion_report,
                             convergence_equivalence_report,
                             cumulative_l1_space, omega_space, paranorm,
                             paranorm_axioms_report)

CUBE1 = unit_cube(1)


# ---------------------------------------------------------------------------
# helpers shared by several criteria
# ---------------------------------------------------------------------------


def check_witness(space, res):
    """LP witness feasibility at 1e-9: unit ball, pair constraints, value."""
    f = np.asarray(res.witness_values)
    assert np.all(np.abs(f) <= 1.0 + 1e-9)
    for i in range(len(res.support)):
        for j in range(i + 1, len(res.support)):
            rho = space.distance(res.support[i], res.support[j])
            assert abs(f[i] - f[j]) <= rho + 1e-9
    return f


def brute_force_bl(space, mu, nu, step=0.05):
    """Independent grid search over function values in [-1, 1]^m."""
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


def seeded_function(space, rng, target, style):
    """A seeded member of the closed test-function vocabulary."""

    def form(kind):
        if kind == 0:
            pt = tuple(float(x) for x in rng.random(space.dim))
            return Tent(pt, float(rng.uniform(0.5, 1.0)))
        if kind == 1:
            pt = tuple(float(x) for x in rng.random(space.dim))
            return Clamp(-1.0, 1.0, DistTo(pt))
        anchors = tuple(tuple(float(x) for x in rng.random(space.dim))
                        for _ in range(3))
        values = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=3))
        return Clamp(-1.0, 1.0, McShane(anchors, values, float(rng.uniform(0.5, 2.0))))

    if style < 3:
        return form(style)
    coords = tuple(form(k % 3) for k in range(target.dim))
    return VectorFunction(space=space, target=target, forms=coords)


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------


def test_01_dirac_drift_certifies_with_exact_oracle_rate():
    start = time.monotonic()
    fam = scenario("dirac_drift", {"space": CUBE1, "s0": [0.0], "v": [1.0],
                                   "rate": "harmonic"})
    limit = dirac(CUBE1, (0.0,))
    for n in range(1, 101):
        got = bl_distance(fam.measure(n), limit).value
        assert abs(got - 1.0 / n) <= 1e-9, f"n={n}: {got}"
    battery = generate_battery(CUBE1, spec=BatterySpec(vector_members=0), seed=0)
    verdict = certify(fam, limit, battery, n_terms=64, tol=0.05)
    assert verdict.status == Status.CONVERGENT_EVIDENCE
    for member in battery.members:
        cap = max(member.bound, member.lip)
        for n in range(1, 65):
            gap = integral_gap(member.form, fam.measure(n), limit)
            assert gap <= cap / n + 1e-9, f"{member.name} at n={n}"
    assert time.monotonic() - start < 5.0


def test_02_alternating_divergence_with_unit_gap_witness():
    start = time.monotonic()
    fam = scenario("alternating", {"space": CUBE1, "a": (0.0,), "b": (1.0,)})
    tent = ScalarMember(name="tent_at_origin", form=Tent((0.0,), 1.0),
                        bound=1.0, lip=1.0)
    extras = generate_battery(CUBE1, spec=BatterySpec(vector_members=0),
                              seed=0).scalar_members
    battery = Battery(space=CUBE1, target=None,
                      scalar_members=(tent,) + extras, vector_members=())
    verdict = certify(fam, fam.label.reference, battery, n_terms=64, tol=0.05)
    assert verdict.status == Status.DIVERGENT
    assert verdict.witness is not None
    assert verdict.witness.member == "tent_at_origin"
    assert verdict.witness.gap >= 1.0 - 1e-9
    assert time.monotonic() - start < 1.0


def test_03_labeled_scenarios_agree_with_oracle_20_of_20():
    start = time.monotonic()
    targets = (banach_space(2, p=2), omega_space(4))
    report = scenario_agreement(targets=targets)
    assert len(report.rows) == 20
    labels = [row.label for row in report.rows]
    assert labels.count("converges_to") == 10
    assert labels.count("diverges") == 10
    for row in report.rows:
        verdicts = dict(row.vector)
        assert row.oracle == row.expected, row.name
        assert row.scalar == row.expected, row.name
        assert verdicts["lp:2"] == row.expected, row.name
        assert verdicts["omega_max"] == row.expected, row.name
    assert report.all_agree
    assert time.monotonic() - start < 60.0


def test_04_integral_certificates_track_the_closed_form():
    targets = (banach_space(2, p=2), omega_space(3), cumulative_l1_space(2))
    h_final = 2.0 ** -8
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        dim = seed % 3 + 1
        space = unit_cube(dim)
        g = seeded_function(space, rng, targets[seed % 3], style=seed % 4)
        k = int(rng.integers(1, 7))
        pts = [tuple(float(x) for x in p) for p in rng.random((k, dim))]
        mu = finite_measure(space, list(zip(pts, rng.dirichlet(np.ones(k)))))

        cert = integrate(g, mu)
        assert cert.certified, f"seed {seed}"
        exact = atomic_oracle(g, mu)
        if isinstance(g, VectorFunction):
            l_max = float(np.max(g.lipschitz_constants()))
        else:
            l_max = g.lipschitz(space)
        bound = dim * l_max * h_final
        assert np.all(np.abs(np.asarray(cert.value) - exact) <= bound), f"seed {seed}"
        # the envelope columns must shrink with the mesh, pointwise and
        # per seminorm level, within 1e-12 slack
        for a, b in zip(cert.rows, cert.rows[1:]):
            assert b.pointwise_bound <= a.pointwise_bound + 1e-12
            for hi, lo in zip(a.mean_bounds, b.mean_bounds):
                assert lo <= hi + 1e-12


def test_05_paranorm_closed_form_axioms_and_level_equivalence():
    # a vector whose every seminorm level is 1 sits exactly at 0.5
    assert paranorm(omega_space(4), np.ones(4)) == 0.5
    assert paranorm(cumulative_l1_space(3), np.array([1.0, 0.0, 0.0])) == 0.5
    assert paranorm(banach_space(2, p=2), np.array([1.0, 0.0])) == 0.5

    for target in suite_targets():
        assert paranorm_axioms_report(target, samples=1000, seed=0).ok

    # 50 labeled vector sequences: paranorm and levelwise verdicts agree
    # and match the construction labels
    rng = np.random.default_rng(5)
    sequences, labels = [], []
    for _ in range(25):
        v = rng.standard_normal(4)
        v *= (0.5 + rng.random()) / np.linalg.norm(v)
        limit = rng.standard_normal(4)
        convergent = np.array([limit + (2.0 ** -j) * v for j in range(1, 46)])
        divergent = np.array([limit + ((-1.0) ** j) * v for j in range(1, 46)])
        sequences += [(convergent, limit), (divergent, limit)]
        labels += [True, False]
    report = convergence_equivalence_report(omega_space(4), sequences, tol=1e-6)
    assert len(report.records) == 50
    assert report.all_agree
    assert [r.by_paranorm for r in report.records] == labels
    assert [r.by_levels for r in report.records] == labels


def test_06_coordinate_functionals_reconstruction_and_partial_sum_bound():
    target = omega_space(4)
    base = target.base
    identity = base.functional_matrix() @ base.matrix
    assert np.max(np.abs(identity - np.eye(4))) <= 1e-12

    rng = np.random.default_rng(6)
    xs = rng.standard_normal((1000, 4))
    coeffs = base.expand(xs)
    reconstructed = coeffs @ base.matrix.T
    assert np.max(np.abs(reconstructed - xs)) <= 1e-10

    for level in range(1, target.family.depth + 1):
        report = base_criterion_report(target, p_level=level, q_level=level,
                                       bound=1.0, samples=1000, seed=0)
        assert report.passed, f"level {level}: ratio {report.worst_ratio}"

    skew = banach_space(2, p=2, base=np.array([[1.0, 0.0], [1.0, 0.1]]))
    report = base_criterion_report(skew, p_level=1, q_level=1, bound=1.0,
                                   samples=1000, seed=0)
    assert not report.passed
    assert report.worst_ratio >= 9.9


def test_07_continuous_members_integrate_and_overflow_is_refused():
    pair = finite_space(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    probes = [
        (unit_cube(1), [dirac(unit_cube(1), (0.5,)),
                        finite_measure(unit_cube(1), [((0.2,), 0.3), ((0.8,), 0.7)]),
                        finite_measure(unit_cube(1), [((x,), 0.2)
                                                      for x in (0.1, 0.3, 0.5, 0.7, 0.9)])]),
        (unit_cube(2), [dirac(unit_cube(2), (0.25, 0.75)),
                        finite_measure(unit_cube(2), [((0.1, 0.2), 0.5),
                                                      ((0.9, 0.4), 0.5)])]),
        (pair, [dirac(pair, 0),
                finite_measure(pair, [(0, 0.4), (1, 0.6)])]),
    ]
    spec = BatterySpec(tents=2, distances=2, mcshanes=2, vector_members=2)
    for space, measures in probes:
        battery = generate_battery(space, target=omega_space(3), spec=spec, seed=7)
        functions = [as_vector_function(m.form, space)
                     for m in battery.scalar_members]
        functions += [m.function for m in battery.vector_members]
        report = continuity_integrability_harness(functions, measures)
        assert not any(rec.skipped for rec in report.records)
        assert report.all_ok

    blown = Scale(1e300, Scale(1e300, Tent((0.5,), 0.5)))
    rep = integrability_report(blown, dirac(unit_cube(1), (0.5,)))
    assert not rep.integrable


def test_08_tightness_witness_pins_the_concentration_point():
    family = [finite_measure(CUBE1, [((0.5,), 0.95), ((x,), 0.05)])
              for x in (0.1, 0.3, 0.7, 0.9)]
    witness = tightness_witness(family, eps=0.05)
    assert witness.center == (0.5,)
    assert witness.radius == 0.0
    for mu in family:
        outside = mu.total_mass - measure_of(mu, witness)
        assert outside <= 0.05 + 1e-12


def test_09_oracle_metric_axioms_brute_force_and_witness_feasibility():
    rng = np.random.default_rng(9)
    pool = [(x,) for x in np.linspace(0.0, 1.0, 9)]

    def random_measure():
        k = int(rng.integers(1, 4))
        chosen = rng.choice(len(pool), size=k, replace=False)
        weights = rng.dirichlet(np.ones(k))
        return finite_measure(CUBE1, [(pool[c], w) for c, w in zip(chosen, weights)])

    for _ in range(200):
        a, b, c = random_measure(), random_measure(), random_measure()
        ab = bl_distance(a, b)
        ba = bl_distance(b, a)
        assert ab.value == ba.value                       # exact symmetry
        assert bl_distance(a, a).value <= 1e-12           # identity
        ac = bl_distance(a, c).value
        cb = bl_distance(c, b).value
        assert ab.value <= ac + cb + 1e-9                 # triangle
        check_witness(CUBE1, ab)
        d = np.zeros(len(ab.support))
        index = {p: i for i, p in enumerate(ab.support)}
        for p, w in a.atoms():
            d[index[p]] += w
        for p, w in b.atoms():
            d[index[p]] -= w
        assert abs(np.asarray(ab.witness_values) @ d - ab.value) <= 1e-9

    # brute-force grid agreement on every union-support size up to 3
    step = 0.05
    fin = finite_space(("x", "y", "z"),
                       np.array([[0.0, 0.6, 1.1], [0.6, 0.0, 0.7], [1.1, 0.7, 0.0]]))
    cases = []
    for seed in range(4):
        g = np.random.default_rng(100 + seed)
        support = [(float(x),) for x in np.sort(g.random(3))]
        for ka, kb in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)):
            mu = finite_measure(CUBE1, list(zip(support[:ka], g.dirichlet(np.ones(ka)))))
            nu = finite_measure(CUBE1, list(zip(support[:kb], g.dirichlet(np.ones(kb)))))
            cases.append((CUBE1, mu, nu))
        wa = g.dirichlet(np.ones(3))
        wb = g.dirichlet(np.ones(3))
        cases.append((fin, finite_measure(fin, list(zip(range(3), wa))),
                      finite_measure(fin, list(zip(range(3), wb)))))
    for space, mu, nu in cases:
        res = bl_distance(mu, nu)
        brute = brute_force_bl(space, mu, nu, step=step)
        assert brute <= res.value + 1e-9
        assert res.value - brute <= 2 * step
        check_witness(space, res)


def test_10_selftest_is_byte_deterministic_and_fits_the_budget():
    start = time.monotonic()

    def run_once():
        return subprocess.run(
            [sys.executable, "-m", "weakconv.cli", "selftest", "--seed", "0"],
            capture_output=True, timeout=115)

    first = run_once()
    second = run_once()
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout          # byte-identical reports
    assert b"selftest: OK" in first.stdout
    assert b"wall-clock" not in first.stdout      # timing stays on stderr
    assert b"# wall-clock" in first.stderr
    assert time.monotonic() - start < 120.0
