"""The package's public surface: ``weakconv.__all__``, written out in full."""

import weakconv

PUBLIC_NAMES = [
    "AgreementReport", "BLResult", "Battery", "BatterySpec", "CapacityError",
    "CertificateError", "Clamp", "CompactSpace", "Const", "Coord", "DistTo",
    "DomainError", "EquivalenceReport", "FamilyLabel", "FiniteMeasure", "Form",
    "IntegrabilityReport", "IntegralCertificate", "McShane", "MeasurableSet",
    "MeasureFamily", "Partition", "ScalarMember", "Scale", "SchauderBase",
    "SelftestReport", "SimpleFunction", "Status", "Step", "Sum", "TargetSpace",
    "Tent", "UnsupportedError", "VectorFunction", "VectorMember", "Verdict",
    "approximate_by_simple", "as_vector_function", "atomic_oracle", "ball_set",
    "banach_space", "base_criterion_report", "bl_distance", "bl_witness_function",
    "bundled_suite", "certify", "continuity_integrability_harness",
    "convergence_equivalence_report", "cumulative_l1_space", "dirac",
    "equivalence_report", "finite_measure", "finite_space", "form_from_json",
    "gap_value", "generate_battery", "grid_partition", "integrability_report",
    "integral_gap", "integrate", "integrate_simple", "measure_from_json",
    "measure_of", "metric_axioms_report", "normalize", "omega_space", "paranorm",
    "paranorm_axioms_report", "point_from_json", "scenario", "scenario_agreement",
    "selftest", "seminorm", "space_from_json", "suite_spaces", "suite_targets",
    "target_from_json", "tightness_witness", "trivial_partition", "unit_cube",
    "validate_metadata", "vector_function",
]


def test_public_names_are_exactly_the_listed_ones():
    # a name re-exported or dropped shows up here as a diff of this list
    assert sorted(weakconv.__all__) == PUBLIC_NAMES
