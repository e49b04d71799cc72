"""Certified weak convergence of atomic measures on compact carriers.

The package builds up from compact carriers (finite metric spaces and
unit cubes) through finite atomic measures, bounded continuous test
functions, paranormed target spaces with Schauder bases, certified
integration, and finally convergence certification: an exact
bounded-Lipschitz oracle cross-checked against batteries of scalar and
vector-valued test functions on labeled measure sequences.
"""

import types as _types

from .errors import CapacityError, CertificateError, DomainError, UnsupportedError
from .carrier import (CompactSpace, MeasurableSet, Partition, ball_set, finite_space,
                      grid_partition, metric_axioms_report, point_from_json,
                      space_from_json, trivial_partition, unit_cube)
from .funcs import (Clamp, Const, Coord, DistTo, Form, McShane, Scale, Step,
                    Sum, Tent, VectorFunction, form_from_json, validate_metadata,
                    vector_function)
from .target import (SchauderBase, TargetSpace, banach_space, base_criterion_report,
                     convergence_equivalence_report, cumulative_l1_space, gap_value,
                     omega_space, paranorm, paranorm_axioms_report, seminorm,
                     target_from_json)
from .measure import (BLResult, FamilyLabel, FiniteMeasure, MeasureFamily, bl_distance,
                      dirac, finite_measure, measure_from_json, measure_of, normalize,
                      scenario, tightness_witness)
from .integral import (IntegralCertificate, IntegrabilityReport, SimpleFunction,
                       approximate_by_simple, as_vector_function, atomic_oracle,
                       continuity_integrability_harness, integrability_report,
                       integrate, integrate_simple)
from .convergence import (Battery, BatterySpec, EquivalenceReport, ScalarMember, Status,
                          VectorMember, Verdict, bl_witness_function, certify,
                          equivalence_report, generate_battery, integral_gap)
from .suite import (AgreementReport, SelftestReport, bundled_suite,
                    scenario_agreement, selftest, suite_spaces, suite_targets)

__version__ = "0.1.0"

# every public name imported above, so that each export is written once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
