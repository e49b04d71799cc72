"""Integration of vector-valued functions against atomic measures.

The integral of a simple function (constant on the cells of a finite
partition) is the weighted sum of its cell values.  A general function
is integrated by approximating it with the simple functions induced by a
refining schedule of grid partitions: each cell takes the value of the
function at the cell's representative.  Against an atomic measure only
the cells the atoms occupy matter, so a simple function is kept on those
cells alone: each atom's cell is named by its per-axis grid coordinates
(``Partition.cell_of``) and the function is evaluated once per atom at
that cell's centre.  No grid is built and no cell gets a flat index, so
every mesh down to 2**-62 runs on the 8-cube.  Two gap sequences
certify the construction:

* pointwise: max over atoms (and target coordinates) of the distance
  between the simple approximation and the function, and
* seminorm means: for each seminorm level n, the mass-weighted mean
  sum_i w_i p_n(g_h(s_i) - g(s_i)).

Measured gaps are reported next to their Lipschitz envelopes
(L * cell-half-diameter, exact from the declared metadata).  The measured
gaps may wobble as the grid shifts under an atom, but the envelopes
shrink monotonically, and both must sit below the declared tolerance at
the final mesh for the verdict to be "certified".

The weighted atom sum  sum_i w_i g(s_i)  is kept as a separate exact
route (``atomic_oracle``); it shares only the sum, ``measure.atom_sums``,
with the partition construction, and tests compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .carrier import CompactSpace, Partition, grid_partition, trivial_partition
from .errors import DomainError
from .funcs import Form, VectorFunction, validate_metadata
from .measure import FiniteMeasure, atom_sums
from .target import TargetSpace, banach_space

DEFAULT_SCHEDULE = tuple(2.0 ** -k for k in range(1, 9))
_GAP_SLACK = 1e-12


# ---------------------------------------------------------------------------
# simple functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SimpleFunction:
    """A function constant on each cell of a partition, known on the cells
    that the atoms of ``measure`` occupy.

    Row i of ``values`` is its value on the cell of atom i, so atoms that
    share a cell share a value.
    """

    partition: Partition
    measure: FiniteMeasure
    target: TargetSpace
    values: np.ndarray  # (measure.n_atoms, target.dim)

    def __post_init__(self):
        if self.values.shape != (self.measure.n_atoms, self.target.dim):
            raise DomainError("values must be one row per atom, of the target dimension")


def integrate_simple(sf: SimpleFunction) -> np.ndarray:
    """Exact integral sum_j x_j mu(B_j) of a simple function against its
    measure: the mass of each atom times the value on the atom's cell."""
    return atom_sums(sf.measure.weights, sf.values.T)[0]


def approximate_by_simple(g: VectorFunction, partition: Partition,
                          mu: FiniteMeasure) -> SimpleFunction:
    """The simple function taking g's value at the representative of each
    cell that mu's atoms occupy, evaluated once per atom."""
    reps = partition.rep_of(partition.cell_of(mu.points))
    return SimpleFunction(partition=partition, measure=mu, target=g.target,
                          values=g.evaluate(reps))


def as_vector_function(g, space: CompactSpace) -> VectorFunction:
    """Coerce a scalar form into a vector function into the real line.

    The form is not checked here; ``integrate`` checks what it certifies.
    """
    if isinstance(g, VectorFunction):
        return g
    if isinstance(g, Form):
        return VectorFunction(space=space, target=banach_space(1, p=1), forms=(g,))
    raise DomainError(f"not an integrable function: {g!r}")


def atomic_oracle(g: VectorFunction, mu: FiniteMeasure) -> np.ndarray:
    """Exact closed-form integral for atomic measures: sum_i w_i g(s_i)."""
    g = as_vector_function(g, mu.space)
    return atom_sums(mu.weights, g.evaluate(mu.points).T)[0]


def seminorm_mean_gap(sf: SimpleFunction, exact: np.ndarray, level: int) -> float:
    """sum_i w_i p_level(sf(s_i) - g(s_i)) over the atoms s_i of sf's measure,
    where ``exact`` holds g's values there: the level-wise mean error."""
    diff = sf.values - exact
    return float(atom_sums(sf.measure.weights, [sf.target.family.level(level, diff)])[0, 0])


# ---------------------------------------------------------------------------
# the refining-schedule construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleRow:
    h: float
    pointwise_gap: float
    pointwise_bound: float
    mean_gaps: tuple
    mean_bounds: tuple
    value: tuple  # integral of the approximation at this mesh


@dataclass(frozen=True)
class IntegralCertificate:
    value: np.ndarray
    certified: bool
    rows: tuple
    pointwise_tolerance: float
    mean_tolerances: tuple

    def to_csv(self) -> str:
        depth = len(self.rows[0].mean_gaps)
        dim = len(self.rows[0].value)
        header = (["h", "pointwise_gap"]
                  + [f"mean_gap_level_{n}" for n in range(1, depth + 1)]
                  + [f"value_{k}" for k in range(1, dim + 1)])
        lines = [",".join(header)]
        for row in self.rows:
            cells = [repr(row.h), repr(row.pointwise_gap)]
            cells += [repr(gap) for gap in row.mean_gaps]
            cells += [repr(v) for v in row.value]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def integrate(g: VectorFunction, mu: FiniteMeasure,
              schedule: Optional[Sequence[float]] = None) -> IntegralCertificate:
    """Integrate g against mu along a refining partition schedule.

    The certificate records, per mesh size, the measured pointwise and
    per-level mean gaps together with their Lipschitz envelopes, and the
    integral of the simple approximation.  The verdict is certified when
    the final measured gaps sit below the declared tolerances
    (max_k L_k * r for the pointwise gap, level Lipschitz * r * total mass
    for the means, with r = h_final * max(1, sqrt(d) / 2), which covers a
    cell's half-diagonal).  Non-finite function values at an atom
    are a domain error; use ``integrability_report`` to classify them.

    The tolerances are built from the declared Lipschitz constants, so
    the forms' metadata is checked first (``validate_metadata``): a
    violated bound or constant is a ``DomainError``.  ``integrate``
    checks the function it certifies, and ``vector_function`` always
    checks; battery members are checked by the verdict instead
    (``convergence``).  A schedule is read on the cube only; a finite
    carrier is integrated on its own points.
    """
    g = as_vector_function(g, mu.space)
    space = g.space
    if mu.space != space:
        raise DomainError("function and measure live on different carriers")
    target = g.target
    depth = target.family.depth

    exact = g.evaluate(mu.points)
    if not np.all(np.isfinite(exact)):
        raise DomainError("g takes a non-finite value at an atom")
    validate_metadata(space, *g.forms)

    # discontinuous forms carry an infinite constant; the construction still
    # runs, but an infinite envelope certifies nothing, so the tolerance
    # degenerates to exact agreement for those entries
    lips = g.lipschitz_constants()
    lc_max = float(np.max(lips)) if len(lips) else 0.0
    mass = mu.total_mass

    if space.kind == "finite":
        partitions = [(0.0, trivial_partition(space))]
    else:
        sched = tuple(schedule) if schedule is not None else DEFAULT_SCHEDULE
        if not sched or any(h <= 0 for h in sched) or any(
                b >= a for a, b in zip(sched, sched[1:])):
            raise DomainError("schedule must be a decreasing list of positive meshes")
        partitions = [(h, grid_partition(space, h)) for h in sched]

    rows = []
    for h, part in partitions:
        sf = approximate_by_simple(g, part, mu)
        pt_gap = float(np.max(np.abs(sf.values - exact), initial=0.0))
        mean_gaps = tuple(seminorm_mean_gap(sf, exact, n) for n in range(1, depth + 1))
        value = integrate_simple(sf)
        if space.kind == "finite":
            half_diam = 0.0
        else:
            half_diam = part.side * math.sqrt(space.dim) / 2.0
        pt_bound = lc_max * half_diam
        mean_bounds = tuple(target.family.vector_lip_fn(min(n, depth), lips) * half_diam * mass
                            for n in range(1, depth + 1))
        rows.append(ScheduleRow(h=h, pointwise_gap=pt_gap, pointwise_bound=pt_bound,
                                mean_gaps=mean_gaps, mean_bounds=mean_bounds,
                                value=tuple(float(v) for v in value)))

    # a point of a cell lies within h * sqrt(d) / 2 of its centre
    reach = partitions[-1][0] * max(1.0, math.sqrt(space.dim) / 2.0)
    pt_tol = lc_max * reach + _GAP_SLACK if math.isfinite(lc_max) else _GAP_SLACK
    mean_tols = []
    for n in range(1, depth + 1):
        vlip = target.family.vector_lip_fn(min(n, depth), lips)
        mean_tols.append(vlip * reach * mass + _GAP_SLACK
                         if math.isfinite(vlip) else _GAP_SLACK)
    mean_tols = tuple(mean_tols)
    last = rows[-1]
    certified = bool(last.pointwise_gap <= pt_tol
                     and all(gap <= tol for gap, tol in zip(last.mean_gaps, mean_tols)))
    return IntegralCertificate(value=value, certified=certified, rows=tuple(rows),
                               pointwise_tolerance=pt_tol, mean_tolerances=mean_tols)


# ---------------------------------------------------------------------------
# integrability classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegrabilityReport:
    integrable: bool
    finite_image: tuple       # the (finite) set of values g takes on the atoms
    level_integrals: tuple    # integral of p_n(g) d mu for each level
    offending_atoms: tuple    # atom indices where g is not finite


def integrability_report(g: VectorFunction, mu: FiniteMeasure) -> IntegrabilityReport:
    """Check the two integrability conditions on an atomic measure.

    Separable-valuedness holds with the atoms' image as witness (a finite
    set is separable); the seminorm-moment condition asks every level
    integral of p_n(g) to be finite.  Non-finite values at atoms with
    positive mass defeat it, which is how the overflow negatives surface.
    """
    g = as_vector_function(g, mu.space)
    if mu.space != g.space:
        raise DomainError("function and measure live on different carriers")
    with np.errstate(invalid="ignore"):
        vals = g.evaluate(mu.points)
    finite_rows = np.all(np.isfinite(vals), axis=1)
    offending = tuple(int(i) for i in np.where(~finite_rows)[0])
    pn = [g.target.family.level(n, np.where(np.isfinite(vals), vals, np.inf))
          for n in range(1, g.target.family.depth + 1)]
    levels = [float(v) for v in atom_sums(mu.weights, pn)[0]]
    integrable = bool(np.all(finite_rows) and all(math.isfinite(v) for v in levels))
    image = tuple(tuple(float(x) for x in row) for row in vals[finite_rows])
    return IntegrabilityReport(integrable=integrable, finite_image=image,
                               level_integrals=tuple(levels), offending_atoms=offending)


@dataclass(frozen=True)
class HarnessRecord:
    function_index: int
    measure_index: int
    skipped: bool
    integrable: bool
    certified: bool


@dataclass(frozen=True)
class HarnessReport:
    records: tuple
    all_ok: bool


def continuity_integrability_harness(functions: Sequence[VectorFunction],
                                     measures: Sequence[FiniteMeasure],
                                     schedule: Optional[Sequence[float]] = None) -> HarnessReport:
    """Every continuous function must be integrable and certify against
    every measure; discontinuous entries are skipped (and flagged)."""
    records = []
    ok = True
    for fi, g in enumerate(functions):
        for mi, mu in enumerate(measures):
            if not g.continuous:
                records.append(HarnessRecord(fi, mi, True, False, False))
                continue
            rep = integrability_report(g, mu)
            certified = False
            if rep.integrable:
                certified = integrate(g, mu, schedule).certified
            records.append(HarnessRecord(fi, mi, False, rep.integrable, certified))
            ok = ok and rep.integrable and certified
    return HarnessReport(records=tuple(records), all_ok=ok)
