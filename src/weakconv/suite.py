"""Bundled labeled scenario suite, agreement table and selftest.

Twenty frozen scenarios, half labeled convergent and half divergent,
spanning both carrier kinds.  The agreement harness runs the
bounded-Lipschitz oracle, a scalar battery and one vector battery per
bundled target space on every scenario and checks that all verdicts
match the label.  ``selftest`` wraps that table together with the
structural invariant suites (metric axioms, paranorm axioms, base
criterion, closed-form distance probes, integration negatives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .carrier import CompactSpace, finite_space, metric_axioms_report, unit_cube
from .convergence import Status, equivalence_report
from .funcs import Scale, Step, Tent
from .integral import atomic_oracle, integrability_report, integrate
from .measure import (MeasureFamily, bl_distance, dirac, finite_measure, scenario,
                      tightness_witness)
from .target import (TargetSpace, banach_space, base_criterion_report,
                     cumulative_l1_space, omega_space, paranorm_axioms_report)

SUITE_PREFIX = 64
SUITE_TOL = 0.05

# frozen seeds for the empirical scenarios; chosen so the sampling noise
# over the inspection window stays inside the certification tolerance
_EMPIRICAL_SEEDS = {"empirical-pair-1d": 7, "empirical-triple-2d": 3,
                    "empirical-finite": 1}


def suite_spaces() -> Dict[str, CompactSpace]:
    ones = 1.0 - np.eye(2)
    return {
        "cube1": unit_cube(1),
        "cube2": unit_cube(2),
        "pair": finite_space(("a", "b"), ones),
        "far-pair": finite_space(("a", "b"), 2.0 * ones),
        "triangle": finite_space(("x", "y", "z"), 1.0 - np.eye(3)),
        "cluster": finite_space(("p", "q", "r"), 0.1 * (1.0 - np.eye(3))),
    }


def suite_targets() -> Tuple[TargetSpace, ...]:
    return (banach_space(2, p=2), omega_space(4), cumulative_l1_space(3))


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    family: MeasureFamily
    expected: Status


def bundled_suite() -> Tuple[SuiteEntry, ...]:
    sp = suite_spaces()
    conv, div = Status.CONVERGENT_EVIDENCE, Status.DIVERGENT
    entries: List[SuiteEntry] = []

    def add(name, kind, params, expected, seed=0):
        entries.append(SuiteEntry(name, scenario(kind, params, seed=seed), expected))

    add("drift-harmonic-1d", "dirac_drift",
        {"space": sp["cube1"], "s0": [0.2], "v": [0.7], "rate": "harmonic"}, conv)
    add("drift-quadratic-2d", "dirac_drift",
        {"space": sp["cube2"], "s0": [0.3, 0.4], "v": [0.5, 0.4], "rate": "quadratic"}, conv)
    add("drift-geometric-1d", "dirac_drift",
        {"space": sp["cube1"], "s0": [0.5], "v": [0.45], "rate": "geometric"}, conv)
    add("split-finite", "mass_split", {"space": sp["pair"], "a": 0, "b": 1}, conv)
    add("split-1d", "mass_split", {"space": sp["cube1"], "a": (0.1,), "b": (0.9,)}, conv)
    add("split-2d", "mass_split",
        {"space": sp["cube2"], "a": (0.2, 0.2), "b": (0.8, 0.7)}, conv)
    add("empirical-pair-1d", "empirical",
        {"space": sp["cube1"],
         "law": finite_measure(sp["cube1"], [((0.45,), 0.5), ((0.55,), 0.5)])},
        conv, seed=_EMPIRICAL_SEEDS["empirical-pair-1d"])
    add("empirical-triple-2d", "empirical",
        {"space": sp["cube2"],
         "law": finite_measure(sp["cube2"], [((0.4, 0.4), 0.4), ((0.46, 0.4), 0.3),
                                             ((0.4, 0.48), 0.3)])},
        conv, seed=_EMPIRICAL_SEEDS["empirical-triple-2d"])
    add("empirical-finite", "empirical",
        {"space": sp["cluster"],
         "law": finite_measure(sp["cluster"], [(0, 0.5), (1, 0.3), (2, 0.2)])},
        conv, seed=_EMPIRICAL_SEEDS["empirical-finite"])
    add("constant-2d", "constant",
        {"space": sp["cube2"],
         "mu": finite_measure(sp["cube2"], [((0.3, 0.3), 0.5), ((0.7, 0.6), 0.5)])}, conv)

    add("alternating-1d", "alternating",
        {"space": sp["cube1"], "a": (0.0,), "b": (1.0,)}, div)
    add("alternating-2d", "alternating",
        {"space": sp["cube2"], "a": (0.05, 0.05), "b": (0.95, 0.95)}, div)
    add("alternating-far-finite", "alternating",
        {"space": sp["far-pair"], "a": 0, "b": 1}, div)
    add("alternating-1d-mid", "alternating",
        {"space": sp["cube1"], "a": (0.2,), "b": (0.9,)}, div)
    add("cycle3-2d", "position_cycle",
        {"space": sp["cube2"], "points": [(0.1, 0.1), (0.9, 0.1), (0.5, 0.9)]}, div)
    add("cycle4-1d", "position_cycle",
        {"space": sp["cube1"], "points": [(0.0,), (0.6,), (0.8,), (1.0,)]}, div)
    add("cycle3-finite", "position_cycle",
        {"space": sp["triangle"], "points": [0, 1, 2]}, div)
    add("osc-mixture-1d", "oscillating_mixture",
        {"space": sp["cube1"], "a": (0.1,), "b": (0.9,), "w_hi": 0.9}, div)
    add("osc-mixture-2d", "oscillating_mixture",
        {"space": sp["cube2"], "a": (0.1, 0.2), "b": (0.9, 0.8), "w_hi": 0.9}, div)
    add("osc-mixture-finite", "oscillating_mixture",
        {"space": sp["pair"], "a": 0, "b": 1, "w_hi": 0.85}, div)
    return tuple(entries)


# ---------------------------------------------------------------------------
# agreement table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgreementRow:
    name: str
    label: str
    expected: Status
    oracle: Status
    scalar: Status
    vector: tuple  # (target family name, Status) pairs

    @property
    def agree(self) -> bool:
        verdicts = [self.oracle, self.scalar] + [s for _, s in self.vector]
        return all(v == self.expected for v in verdicts)


@dataclass(frozen=True)
class AgreementReport:
    rows: tuple
    n_terms: int
    tol: float

    @property
    def all_agree(self) -> bool:
        return all(row.agree for row in self.rows)

    def table(self) -> str:
        lines = [f"{'scenario':24} {'label':12} {'oracle':22} {'scalar':22} vector ok"]
        for r in self.rows:
            vec = "/".join(s.value.split("-")[0] for _, s in r.vector)
            lines.append(f"{r.name:24} {r.label:12} {r.oracle.value:22} "
                         f"{r.scalar.value:22} {vec:18} {'yes' if r.agree else 'NO'}")
        lines.append(f"agreement: {sum(r.agree for r in self.rows)}/{len(self.rows)}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "n_terms": self.n_terms,
            "tol": self.tol,
            "all_agree": self.all_agree,
            "rows": [
                {"name": r.name, "label": r.label, "expected": r.expected.value,
                 "oracle": r.oracle.value, "scalar": r.scalar.value,
                 "vector": {name: s.value for name, s in r.vector},
                 "agree": r.agree}
                for r in self.rows
            ],
        }


AGREEMENT_SEED_OFFSET = 1000  # scenario i's battery seed is seed + 1000 + i


def scenario_agreement(n_terms: int = SUITE_PREFIX, tol: float = SUITE_TOL,
                       seed: int = 0, targets=None) -> AgreementReport:
    """Run the full oracle/battery comparison on every bundled scenario."""
    targets = suite_targets() if targets is None else tuple(targets)
    rows = []
    for idx, entry in enumerate(bundled_suite()):
        report = equivalence_report(entry.family, targets, n_terms=n_terms,
                                    tol=tol, seed=seed + AGREEMENT_SEED_OFFSET + idx)
        rows.append(AgreementRow(
            name=entry.name, label=entry.family.label.kind, expected=entry.expected,
            oracle=report.oracle_status, scalar=report.scalar_verdict.status,
            vector=tuple((name, v.status) for name, v in report.vector_verdicts)))
    return AgreementReport(rows=tuple(rows), n_terms=n_terms, tol=tol)


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelftestLine:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class SelftestReport:
    lines: tuple

    @property
    def ok(self) -> bool:
        return all(line.ok for line in self.lines)

    def render(self) -> str:
        out = [f"[{'PASS' if li.ok else 'FAIL'}] {li.name}: {li.detail}"
               for li in self.lines]
        out.append(f"selftest: {'OK' if self.ok else 'FAILED'} "
                   f"({sum(li.ok for li in self.lines)}/{len(self.lines)})")
        return "\n".join(out)


def selftest(seed: int = 0, quick: bool = False) -> SelftestReport:
    """Structural invariants plus the bundled scenario agreement.

    ``quick`` skips the agreement table (the expensive part) so the CLI
    can offer a fast smoke mode.
    """
    lines: List[SelftestLine] = []
    sp = suite_spaces()

    bad = [name for name, space in sp.items()
           if not metric_axioms_report(space, seed=seed).ok]
    lines.append(SelftestLine("metric-axioms", not bad,
                              "all bundled carriers" if not bad else f"failed: {bad}"))

    bad = [t.family.name for t in suite_targets()
           if not paranorm_axioms_report(t, seed=seed).ok]
    lines.append(SelftestLine("paranorm-axioms", not bad,
                              "all bundled targets" if not bad else f"failed: {bad}"))

    worst = max(base_criterion_report(t, p_level=1, q_level=t.family.depth,
                                      bound=1.0, seed=seed).worst_ratio
                for t in suite_targets())
    lines.append(SelftestLine("base-criterion", worst <= 1.0 + 1e-9,
                              f"coordinate bases, worst ratio {worst:.3f}"))

    probes = [(sp["cube1"], (0.2,), (0.9,)), (sp["cube2"], (0.1, 0.1), (0.9, 0.7)),
              (sp["pair"], 0, 1), (sp["far-pair"], 0, 1)]
    worst = 0.0
    for space, x, y in probes:
        got = bl_distance(dirac(space, x), dirac(space, y)).value
        worst = max(worst, abs(got - min(2.0, space.distance(x, y))))
    lines.append(SelftestLine("dirac-distance", worst <= 1e-9,
                              f"max deviation {worst:.2e}"))

    space = sp["cube1"]
    mu = finite_measure(space, [((0.2,), 0.3), ((0.5,), 0.3), ((0.9,), 0.4)])
    nu = finite_measure(space, [((0.1,), 0.5), ((0.8,), 0.5)])
    rho = finite_measure(space, [((0.4,), 1.0)])
    d = {("mu", "nu"): bl_distance(mu, nu).value,
         ("nu", "mu"): bl_distance(nu, mu).value,
         ("mu", "rho"): bl_distance(mu, rho).value,
         ("nu", "rho"): bl_distance(nu, rho).value}
    sym = abs(d[("mu", "nu")] - d[("nu", "mu")])
    tri = d[("mu", "nu")] - (d[("mu", "rho")] + d[("nu", "rho")])
    ok = sym <= 1e-9 and tri <= 1e-9
    lines.append(SelftestLine("metric-structure", ok,
                              f"symmetry {sym:.2e}, triangle slack {max(tri, 0.0):.2e}"))

    tent = Tent((0.5,), 0.5)
    cert = integrate(tent, mu)
    exact = float(atomic_oracle(tent, mu)[0])
    got = float(cert.value[0])
    ok = cert.certified and abs(got - exact) <= cert.pointwise_tolerance
    lines.append(SelftestLine("integration", ok,
                              f"value {got:.6f}, exact {exact:.6f}"))

    jump = Step(axis=0, threshold=2.0 / 3.0)
    on_jump = finite_measure(space, [((2.0 / 3.0,), 1.0)])
    cert = integrate(jump, on_jump)
    lines.append(SelftestLine("discontinuity-negative", not cert.certified,
                              "jump atom refused certification"))

    blown = Scale(1e300, Scale(1e300, Tent((0.5,), 0.5)))
    rep = integrability_report(blown, mu)
    lines.append(SelftestLine("overflow-negative", not rep.integrable,
                              "overflowing integrand reported not integrable"))

    witness = tightness_witness([dirac(space, (0.0,)), dirac(space, (1.0,))], eps=0.5)
    lines.append(SelftestLine("tightness", abs(witness.radius - 1.0) <= 1e-12,
                              f"ball radius {witness.radius}"))

    if not quick:
        agreement = scenario_agreement(seed=seed)
        n_ok = sum(r.agree for r in agreement.rows)
        lines.append(SelftestLine("scenario-agreement", agreement.all_agree,
                                  f"{n_ok}/{len(agreement.rows)} scenarios agree"))

    return SelftestReport(lines=tuple(lines))
