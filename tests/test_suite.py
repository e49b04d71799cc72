from __future__ import annotations

import functools

from weakconv.convergence import Status
from weakconv.suite import (SUITE_PREFIX, SUITE_TOL, bundled_suite,
                            scenario_agreement, selftest, suite_spaces,
                            suite_targets)


@functools.lru_cache(maxsize=1)
def agreement():
    return scenario_agreement()


class TestBundledSuite:
    def test_twenty_scenarios_split_evenly(self):
        entries = bundled_suite()
        assert len(entries) == 20
        expected = [e.expected for e in entries]
        assert expected.count(Status.CONVERGENT_EVIDENCE) == 10
        assert expected.count(Status.DIVERGENT) == 10

    def test_names_unique(self):
        names = [e.name for e in bundled_suite()]
        assert len(set(names)) == 20

    def test_labels_match_expectations(self):
        for entry in bundled_suite():
            if entry.expected == Status.CONVERGENT_EVIDENCE:
                assert entry.family.label.kind == "converges_to"
            else:
                assert entry.family.label.kind == "diverges"

    def test_spaces_and_targets(self):
        spaces = suite_spaces()
        assert set(spaces) == {"cube1", "cube2", "pair", "far-pair",
                               "triangle", "cluster"}
        targets = suite_targets()
        assert [t.family.name for t in targets] == ["lp:2", "omega_max",
                                                    "cumulative_l1"]

    def test_every_scenario_stays_probability(self):
        for entry in bundled_suite():
            for n in (1, 2, 7):
                assert entry.family.measure(n).is_probability


class TestScenarioAgreement:
    def test_full_agreement(self):
        report = agreement()
        assert report.all_agree
        assert len(report.rows) == 20
        assert report.n_terms == SUITE_PREFIX
        assert report.tol == SUITE_TOL

    def test_oracle_matches_labels(self):
        for row in agreement().rows:
            assert row.oracle == row.expected, row.name

    def test_table_and_json(self):
        report = agreement()
        table = report.table()
        assert table.strip().endswith("agreement: 20/20")
        doc = report.to_json()
        assert doc["all_agree"] is True
        assert len(doc["rows"]) == 20
        assert all(set(r["vector"]) == {"lp:2", "omega_max", "cumulative_l1"}
                   for r in doc["rows"])


class TestSelftest:
    def test_quick_mode(self):
        report = selftest(seed=0, quick=True)
        assert report.ok
        assert [li.name for li in report.lines] == [
            "metric-axioms", "paranorm-axioms", "base-criterion",
            "dirac-distance", "metric-structure", "integration",
            "discontinuity-negative", "overflow-negative", "tightness"]

    def test_render_shape(self):
        report = selftest(seed=0, quick=True)
        text = report.render()
        assert text.count("[PASS]") == 9
        assert text.strip().endswith("selftest: OK (9/9)")

    def test_quick_is_deterministic(self):
        a = selftest(seed=0, quick=True).render()
        b = selftest(seed=0, quick=True).render()
        assert a == b
