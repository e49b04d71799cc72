"""Weak-convergence certification of measure sequences.

A battery is a finite list of bounded continuous test functions (scalar,
and optionally vector-valued through a Schauder base of a target space).
Certification compares, for each battery member f, the integral gap
|integral f d mu_n - integral f d mu| along the sequence; the verdict is

* divergent            some member's gap exceeds 10*tol at two indices
                       in the last quarter of the prefix (the witness
                       is recorded and re-checkable),
* convergent-evidence  every member's gap stays within tol over the
                       last quarter AND the bounded-Lipschitz oracle
                       tail stays within tol,
* inconclusive         otherwise.

One builder, ``battery_members``, draws every member of a battery for
``generate_battery``, ``equivalence_report`` and the ``certify`` command.
The scalar forms come from the Philox stream of the battery seed.  Each
target's vector members come from the stream of that target's seed,
resumed past the scalar forms, which are drawn once per distinct seed.
The builder does not check the members' declared constants: the verdict
does, where it reads them.

One private kernel, ``_verdicts``, scores lists of members on one window
and applies this rule to each list, for ``certify`` (one list) and
``equivalence_report`` (the scalar list, then one per target); the
oracle's own status is the same rule applied to its values.

Gaps of vector members are measured by the target's norm or paranorm.
A paranorm compresses scale (it never exceeds 1), so the raw scalar
thresholds would be unreachable for it; thresholds for vector members
are therefore calibrated through the same gap functional, evaluated on
the constant vector (tol, ..., tol).  On Banach targets this is just the
norm of that vector; monotonicity of the built-in families makes the
calibration order-faithful.

A member with |f| <= B and Lipschitz constant L has a gap of at most
max(B, L) times the BL distance.  The verdict checks every window gap
against that cap and raises ``CertificateError`` for a gap above it;
the terms before the window are not checked.

Each prefix is inspected once per distinct term.  Terms are keyed by
their canonical atoms (carrier, point shape and dtype, point and weight
bytes); canonical measures make equal terms byte-equal, so the periodic
and constant scenarios solve the oracle once per phase, not once per
index.  A missed match only costs time.

Certification reads the window only.  The oracle solves, and the
members score, only the distinct terms that indices window_start..N
reference; the status, the oracle's status, the report's oracle
witnesses and the divergence recheck come from those values, and a
``Verdict`` holds them and nothing else.  The oracle's results are a
memo on the prefix, shared by every verdict of a report.  The terms
before the window are built and input-checked (their mass, and the
oracle's input checks against the limit), so a bad term raises at the
call, but they are never solved or scored.

The gap sweep is batched, once for all the lists a kernel call scores.
The atoms of the distinct terms being scored are concatenated, the
limit's atoms follow them, and each distinct form object (a scalar
member's form or a vector member's coordinate form) is evaluated once on
all of them.  Values are pointwise, so each part equals an evaluation of
its own.  Every integral over atoms is one ``measure.atom_sums`` call,
numpy's pairwise sum of the products w_i * v_i over each run of atoms,
which no BLAS kernel touches and whose bits do not depend on the runs
beside it.  The sweep makes each term and the limit a run of one call a
member, scores each target's vector gaps in one call of its gap
functional, and expands the gaps to the indices that reference each
term.  So every gap is bit-identical to the per-term route
(``integral_gap``), which evaluates a member on one measure at a time
and integrates the limit afresh.  That per-term route is kept as the
independent recheck of a divergence witness: the two gaps that decide a
divergent verdict are recomputed by it, sharing no evaluation with the
sweep, and must agree with it or ``CertificateError`` is raised.

The bounded-Lipschitz oracle is the independent route: its LP witness
can be lifted back into the battery (as a clamped McShane extension of
the optimal support values), which is what makes the divergent direction
sound: whenever the oracle sees a persistent gap, the augmented battery
contains a member that sees it too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .carrier import CompactSpace, integer, numbers
from .errors import CapacityError, CertificateError, DomainError, UnsupportedError
from .funcs import Clamp, Const, DistTo, Form, McShane, Scale, Sum, Tent, VectorFunction
from .measure import BLResult, FiniteMeasure, MeasureFamily, atom_sums, bl_distance, check_bl_inputs
from .target import TargetSpace, gap_value
from .integral import atomic_oracle

DEFAULT_PREFIX = 64
DEFAULT_TOL = 0.05
# Caps on the counts a JSON document sets, from measured cost (2-vCPU VM, Python
# 3.11): certify on an 8-atom empirical law in the 8-cube takes 0.6 s at 4096 terms
# (2.3 s at 16384); with one battery count at 1024, 0.3-1.3 s (2.9 s at 10000 tents).
# The products of counts set the size of the McShane forms, so they are capped too.
# The cap dates from when the builder validated its members (a 16-term certify on the
# 8-cube then took 23 s at mcshanes = mcshane_anchors = 256, and up to 2.7 s at a
# product of 4096).  Without that check the same certify at a product of 4096 takes
# 0.04-0.19 s of wall clock (mcshanes 16 x 256 anchors, 1024 x 4; vector_members x
# dim x mcshane_anchors: 16 x 1 x 256, 64 x 64 x 1, 1024 x 4 x 1, 4 x 256 x 4), so
# the cap is loose.  The default spec stays within the cap on every target up to
# MAX_TARGET_DIM (3 x 256 x 3 = 2304).
MAX_PREFIX = 4096
MAX_BATTERY_COUNT = 1024
MAX_BATTERY_PRODUCT = 4096
_WITNESS_RECHECK_TOL = 1e-9
# a solved BL value is within _BL_CERT_TOL * max(1, mu_n(X), mu(X)) of the
# exact distance: the tolerance of the oracle's certificate
_BL_CERT_TOL = 1e-9


# ---------------------------------------------------------------------------
# batteries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarMember:
    name: str
    form: Form
    bound: float
    lip: float


@dataclass(frozen=True)
class VectorMember:
    name: str
    function: VectorFunction
    bounds: tuple
    lips: tuple


@dataclass(frozen=True)
class BatterySpec:
    """How many members of each closed form a generated battery carries."""

    tents: int = 4
    distances: int = 3
    mcshanes: int = 3
    vector_members: int = 3
    tent_radius: Tuple[float, float] = (0.5, 1.0)
    mcshane_lip: Tuple[float, float] = (0.5, 2.0)
    mcshane_anchors: int = 3

    @staticmethod
    def from_json(node: dict, targets: Sequence[TargetSpace] = ()) -> "BatterySpec":
        """Decode a spec: counts are non-negative integers, ranges two finite numbers.

        Each count is capped, and so are the products that set the cost of
        the McShane forms: the scalar battery's, and each of ``targets``'s.
        """
        if not isinstance(node, dict):
            raise DomainError("battery spec must be a JSON object")
        defaults = vars(BatterySpec())
        bad = set(node) - set(defaults)
        if bad:
            raise DomainError(f"unknown battery spec fields {sorted(bad)}")
        spec = BatterySpec(**{
            key: numbers(value, f"battery {key!r}", 2) if isinstance(defaults[key], tuple)
            else integer(value, f"battery {key!r}", lo=0, cap=MAX_BATTERY_COUNT)
            for key, value in node.items()})
        anchors = spec.mcshane_anchors
        products = [("mcshanes * mcshane_anchors", spec.mcshanes * anchors)]
        products += [("vector_members * target dim * mcshane_anchors",
                      spec.vector_members * target.dim * anchors) for target in targets]
        for what, product in products:
            if product > MAX_BATTERY_PRODUCT:
                raise CapacityError(f"battery {what} is capped at {MAX_BATTERY_PRODUCT}, "
                                    f"got {product}")
        return spec


@dataclass(frozen=True)
class Battery:
    space: CompactSpace
    target: Optional[TargetSpace]
    scalar_members: tuple
    vector_members: tuple

    @property
    def members(self) -> tuple:
        return self.scalar_members + self.vector_members


def _random_point(space: CompactSpace, rng: np.random.Generator):
    if space.kind == "finite":
        return int(rng.integers(0, space.n_points))
    return tuple(rng.random(space.dim).tolist())


def _random_scalar_form(space: CompactSpace, rng: np.random.Generator,
                        spec: BatterySpec, shape: str) -> Form:
    if shape == "tent":
        r = float(rng.uniform(*spec.tent_radius))
        return Tent(_random_point(space, rng), r)
    if shape == "dist":
        return Clamp(-1.0, 1.0, DistTo(_random_point(space, rng)))
    anchors = tuple(_random_point(space, rng) for _ in range(spec.mcshane_anchors))
    values = tuple(rng.uniform(-1.0, 1.0, size=len(anchors)).tolist())
    lip = float(rng.uniform(*spec.mcshane_lip))
    return Clamp(-1.0, 1.0, McShane(anchors, values, lip))


def _lift_through_base(space: CompactSpace, target: TargetSpace,
                       coeff_forms: Sequence[Form]) -> VectorFunction:
    """sum_k f_k x_k as a VectorFunction in standard coordinates."""
    mat = target.base.matrix  # column k is base vector x_{k+1}
    coords: List[Form] = []
    for j in range(target.dim):
        terms = [Scale(float(mat[j, k]), coeff_forms[k])
                 for k in range(target.dim) if mat[j, k] != 0.0]
        if not terms:
            coords.append(Scale(0.0, coeff_forms[0]))
        elif len(terms) == 1 and terms[0].factor == 1.0:
            coords.append(terms[0].child)
        else:
            coords.append(Sum(tuple(terms)))
    return VectorFunction(space=space, target=target, forms=tuple(coords))


def _draw_scalar_forms(space: CompactSpace, rng: np.random.Generator,
                       spec: BatterySpec) -> List[Tuple[str, Form]]:
    """The named scalar forms a battery draws first from its stream."""
    return [(f"{shape}[{i}]", _random_scalar_form(space, rng, spec, shape))
            for shape, count in (("tent", spec.tents), ("dist", spec.distances),
                                 ("mcshane", spec.mcshanes))
            for i in range(count)]


def _draw_vector_functions(space: CompactSpace, target: Optional[TargetSpace],
                           spec: BatterySpec, rng: np.random.Generator) -> list:
    """The vector functions of a battery for ``target``, drawn from ``rng``,
    a stream after its scalar forms."""
    if spec.vector_members == 0:
        return []
    if target is None or target.base is None:
        raise UnsupportedError("vector members need a target with a base")
    shapes = ("tent", "mcshane", "dist")
    return [_lift_through_base(space, target, [
        _random_scalar_form(space, rng, spec, shapes[(i + k) % 3]) for k in range(target.dim)])
        for i in range(spec.vector_members)]


def battery_members(space: CompactSpace, spec: BatterySpec, seed: int,
                    targets: Sequence[Tuple[Optional[TargetSpace], int]]) -> tuple:
    """Every member of a battery: the scalar members, and the vector members
    of each (target, target seed) pair of ``targets``.

    The scalar forms come from the Philox stream of ``seed``.  A target's
    vector members come from the stream of its own seed, resumed past the
    scalar forms: each distinct seed's scalar forms are drawn once, and a
    stream resumes a copy of the state after them.  The declared
    constants are not checked here; the verdict checks them against the
    oracle.  Returns the scalar members and one tuple of vector members
    per target.
    """
    drawn: dict = {}

    def stream(key: int) -> tuple:
        """``key``'s scalar forms, and its stream resumed past them."""
        rng = np.random.Generator(np.random.Philox(key=key))
        if key in drawn:
            rng.bit_generator.state = drawn[key][1]
        else:
            drawn[key] = (_draw_scalar_forms(space, rng, spec), rng.bit_generator.state)
        return drawn[key][0], rng

    named, _ = stream(seed)
    functions = [_draw_vector_functions(space, target, spec, stream(target_seed)[1])
                 for target, target_seed in targets]
    scalars = tuple(ScalarMember(name=name, form=form, bound=form.bound(space),
                                 lip=form.lipschitz(space)) for name, form in named)
    vectors = [tuple(VectorMember(name=f"vec[{i}]", function=vf, bounds=tuple(vf.bounds()),
                                  lips=tuple(vf.lipschitz_constants()))
                     for i, vf in enumerate(vfs)) for vfs in functions]
    return scalars, vectors


def generate_battery(space: CompactSpace, target: Optional[TargetSpace] = None,
                     spec: Optional[BatterySpec] = None, seed: int = 0) -> Battery:
    """Deterministically generate a battery from a seed.

    Scalar members: tent bumps, clamped distance functions and clamped
    McShane forms with seeded anchors.  Vector members (when a target
    with a base is supplied) lift fresh scalar forms through the base,
    one coefficient function per base vector, drawn from the same stream
    after the scalar forms.  The members' declared constants are checked
    by each verdict that scores them, against max(B, L) * BL.
    """
    scalars, (vectors,) = battery_members(space, spec or BatterySpec(), seed, [(target, seed)])
    return Battery(space=space, target=target, scalar_members=scalars, vector_members=vectors)


def bl_witness_function(mu: FiniteMeasure, nu: FiniteMeasure,
                        result: Optional[BLResult] = None) -> ScalarMember:
    """Extend the LP witness to the whole carrier, staying in the unit ball.

    The clamped McShane extension min_i(v_i + rho(s, s_i)) reproduces the
    witness values exactly (they are 1-Lipschitz-compatible by LP
    feasibility), so the extended function achieves the LP value as its
    integral gap while keeping bound and Lipschitz constant 1.
    """
    res = result if result is not None else bl_distance(mu, nu)
    form = Clamp(-1.0, 1.0, McShane(anchors=res.support, values=res.witness_values,
                                    lip=1.0))
    return ScalarMember(name="bl_witness", form=form, bound=1.0, lip=1.0)


# ---------------------------------------------------------------------------
# integral gaps
# ---------------------------------------------------------------------------


def integral_gap(g: Union[Form, VectorFunction], mu_n: FiniteMeasure,
                 mu: FiniteMeasure) -> float:
    """|integral g d mu_n - integral g d mu|, in the target's gap scale."""
    if isinstance(g, VectorFunction):
        return gap_value(g.target, atomic_oracle(g, mu_n) - atomic_oracle(g, mu))
    sums = [atom_sums(m.weights, [g.evaluate(m.space, m.points)])[0, 0] for m in (mu_n, mu)]
    return float(abs(sums[0] - sums[1]))


def _member_gap(member, mu_n: FiniteMeasure, mu: FiniteMeasure) -> float:
    if isinstance(member, VectorMember):
        return integral_gap(member.function, mu_n, mu)
    return integral_gap(member.form, mu_n, mu)


class _Prefix:
    """A prefix of N terms, its distinct terms and the oracle's memo on them.

    Term n is ``distinct[where[n - 1]]``; distinct terms are numbered in
    the order they first appear.  Each distinct term is checked against
    ``limit`` as the oracle checks its inputs, so a bad term raises here,
    and ``bl`` solves a term the first time it is asked for.
    """

    def __init__(self, terms: Sequence[FiniteMeasure], limit: FiniteMeasure):
        self.terms, self.limit = list(terms), limit
        index: dict = {}
        self.distinct: List[FiniteMeasure] = []
        where = []
        for mu in self.terms:
            key = (id(mu.space), mu.points.shape, mu.points.dtype.str,
                   mu.points.tobytes(), mu.weights.tobytes())
            t = index.setdefault(key, len(self.distinct))
            if t == len(self.distinct):
                self.distinct.append(mu)
                check_bl_inputs(mu, limit)
            where.append(t)
        self.where = np.array(where, dtype=np.intp)
        self._bl: List[Optional[BLResult]] = [None] * len(self.distinct)

    def bl(self, ts: Sequence[int]) -> List[BLResult]:
        """The oracle's result on each distinct term of ``ts``; the terms not
        solved yet are solved now, in the order they first appear."""
        for t in sorted({t for t in ts if self._bl[t] is None}):
            self._bl[t] = bl_distance(self.distinct[t], self.limit)
        return [self._bl[t] for t in ts]


def _battery_gaps(members: Sequence, prefix: _Prefix, limit: FiniteMeasure,
                  ts: np.ndarray) -> np.ndarray:
    """Every member's gap on the distinct terms ``ts``, one evaluation a form.

    Returns one row per member and one column per term of ``ts``.  Each
    distinct form object is evaluated once, on the atoms of those terms
    followed by the limit's atoms, which are the runs of one ``atom_sums``
    call a member; values are pointwise and a run's sum depends on its own
    products alone, so each integral is the per-term route's.  The gap
    functional scores each row alike, so it takes one target's vector
    differences in one call.  So every gap equals ``integral_gap`` bit for
    bit, whichever terms and members are scored together.
    """
    terms = [prefix.distinct[t] for t in ts]
    starts = np.cumsum([0] + [mu.n_atoms for mu in terms])
    points = np.concatenate([mu.points for mu in terms] + [limit.points])
    weights = np.concatenate([mu.weights for mu in terms] + [limit.weights])
    values: dict = {}

    def evaluate(form: Form) -> np.ndarray:
        if id(form) not in values:
            values[id(form)] = form.evaluate(limit.space, points)
        return values[id(form)]

    gaps = np.empty((len(members), len(terms)))
    stacks: dict = {}
    for k, member in enumerate(members):
        vector = isinstance(member, VectorMember)
        forms = member.function.forms if vector else (member.form,)
        sums = atom_sums(weights, [evaluate(f) for f in forms], starts)
        diff = sums[:-1] - sums[-1]
        if vector:
            target = member.function.target
            stack = stacks.setdefault(id(target), (target, [], []))
            stack[1].append(k)
            stack[2].append(diff)
        else:
            gaps[k] = np.abs(diff[:, 0])
    for target, ks, diffs in stacks.values():
        gaps[ks] = gap_value(target, np.stack(diffs))
    return gaps


def _member_thresholds(members: Sequence, tol: float) -> tuple:
    """(tail threshold, divergence threshold) per member, in its gap scale.

    A vector member's pair is its target's gap functional on the constant
    vectors tol and 10*tol, one stacked call per target.
    """
    by_target: dict = {}
    out = []
    for member in members:
        if isinstance(member, VectorMember):
            target = member.function.target
            if id(target) not in by_target:
                pair = gap_value(target, np.array([[tol], [10.0 * tol]]) * np.ones(target.dim))
                by_target[id(target)] = (float(pair[0]), float(pair[1]))
            out.append(by_target[id(target)])
        else:
            out.append((tol, 10.0 * tol))
    return tuple(out)


def _domination_caps(members: Sequence, prefix: _Prefix, ts: np.ndarray) -> np.ndarray:
    """Each member's cap on its gap at the distinct terms ``ts``: one row a member.

    f / max(B, L) lies in the oracle's unit ball, so a scalar gap is at most
    c * BL_n with c = max(B, L) (Dudley, Real Analysis and Probability,
    11.3).  The cap is c * (BL_n + eps_n + (a + 2) * 2^-52 * (mu_n(X) +
    mu(X))) for a atoms in all: eps_n is the certificate's tolerance, and
    the last term bounds the rounding of the two integrals, of magnitude at
    most c * mass, and of their difference: each product and addition
    rounds by at most 2^-53 relative, and in any order of summation, the
    pairwise one of ``atom_sums`` too, each of k summed products meets at
    most k - 1 additions, so the integrals err by about a * 2^-53 * c *
    (mu_n(X) + mu(X)) at most (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, 3.1), half the term.  Below 2^-1022 a product rounds
    to a multiple of 2^-1074, an absolute error no relative term covers: a
    constant 6 scaled by 1e-76 and then 1e-247 is 62 * 2^-1074, and its
    gap between weights (0.75, 0.75) and 2.0 on one atom comes out as 32
    units against a cap of 31.  So every cap also adds 2^-1022 * (mu_n(X)
    + mu(X) + a + 2): each evaluated value is taken as known to within
    2^-1022, and each of the a products of the integrals and the cap's
    own product and sum round by at most that.  A vector member's cap is
    its target's gap functional on the coordinate caps, one call per target.
    That is valid as each built-in functional is monotone in each |x_j|:
    lp:1, lp:2 and lp:inf are a sum, a root of a sum of squares and a
    maximum of the |x_j|; an omega_max level is a maximum and a
    cumulative_l1 level a sum of leading |x_j|, and the paranorm adds
    increasing t / (1 + t) of the levels.  An infinite or NaN cap passes any
    gap.
    """
    limit = prefix.limit
    terms = [prefix.distinct[t] for t in ts]
    mass = np.array([mu.total_mass for mu in terms])
    atoms = np.array([mu.n_atoms for mu in terms]) + limit.n_atoms
    scale = (np.array([res.value for res in prefix.bl(ts.tolist())])
             + _BL_CERT_TOL * np.maximum(1.0, np.maximum(mass, limit.total_mass))
             + (atoms + 2) * 2.0 ** -52 * (mass + limit.total_mass))
    floor = 2.0 ** -1022 * (mass + limit.total_mass + atoms + 2)
    caps = np.empty((len(members), len(terms)))
    stacks: dict = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for k, m in enumerate(members):
            if isinstance(m, VectorMember):
                stacks.setdefault(id(m.function.target), (m.function.target, []))[1].append(k)
            else:
                caps[k] = np.maximum(m.bound, m.lip) * scale + floor
        for target, ks in stacks.values():
            c = np.array([np.maximum(members[k].bounds, members[k].lips) for k in ks])
            caps[ks] = gap_value(target, c[:, None] * scale[:, None] + floor[:, None])
    return caps


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


class Status(enum.Enum):
    CONVERGENT_EVIDENCE = "convergent-evidence"
    DIVERGENT = "divergent"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DivergenceWitness:
    member: str
    n1: int
    n2: int
    gap: float


@dataclass(frozen=True)
class Verdict:
    """A certification verdict: the values it was decided from, over the
    window window_start..N.

    ``window_gaps`` holds each member's gaps and ``window_bl`` the
    oracle's values at indices window_start..N.  The terms before the
    window are built and input-checked, but never solved or scored.
    """

    status: Status
    n_terms: int
    tol: float
    window_start: int  # first index of the last-quarter window
    member_names: tuple
    thresholds: tuple        # (tail, divergence) per member
    window_gaps: tuple       # one tuple of gaps per member, indices window_start..N
    window_bl: tuple         # the oracle's values, indices window_start..N
    witness: Optional[DivergenceWitness]

    def to_json(self) -> dict:
        out = {
            "status": self.status.value,
            "n_terms": self.n_terms,
            "tol": self.tol,
            "window_start": self.window_start,
            "members": list(self.member_names),
            "bl_tail_max": max(self.window_bl),
            "witness": None,
        }
        if self.witness is not None:
            out["witness"] = {"member": self.witness.member, "n1": self.witness.n1,
                              "n2": self.witness.n2, "gap": self.witness.gap}
        return out


def _window_start(n_terms: int, tol: float) -> int:
    """First index of the last-quarter window, once the arguments are checked."""
    if n_terms < 8:
        raise DomainError("certification needs a prefix of at least 8 terms")
    if not tol > 0:
        raise DomainError("tol must be positive")
    return n_terms - n_terms // 4 + 1


def _window_rule(names: Sequence[str], series: Sequence[Sequence[float]],
                 thresholds: Sequence[Tuple[float, float]],
                 window_start: int) -> Tuple[Status, Optional[DivergenceWitness], int]:
    """The decision rule over the window, for members and the oracle alike.

    Each series holds its values at indices window_start..N.  The first
    series over its divergence threshold at two window indices is
    divergent, with those indices as the witness; every series within its
    tail threshold over the window is convergent evidence; anything else
    is inconclusive.  The last item is the witness's series number (-1
    without a witness), as names may repeat.
    """
    for k, (name, gaps, (_, hi)) in enumerate(zip(names, series, thresholds)):
        exceed = [i for i, gap in enumerate(gaps) if gap > hi]
        if len(exceed) >= 2:
            i1, i2 = exceed[0], exceed[1]
            return Status.DIVERGENT, DivergenceWitness(
                member=name, n1=window_start + i1, n2=window_start + i2,
                gap=min(gaps[i1], gaps[i2])), k
    if all(max(gaps) <= lo for gaps, (lo, _) in zip(series, thresholds)):
        return Status.CONVERGENT_EVIDENCE, None, -1
    return Status.INCONCLUSIVE, None, -1


def _window_oracle(prefix: _Prefix, window_start: int, tol: float) -> tuple:
    """The oracle's results at indices window_start..N, and its status over them."""
    results = prefix.bl(prefix.where[window_start - 1:].tolist())
    status, _, _ = _window_rule(("bl",), (tuple(res.value for res in results),),
                                ((tol, 10.0 * tol),), window_start)
    return results, status


def _verdicts(prefix: _Prefix, window_start: int, member_lists: Sequence[Sequence],
              tol: float) -> List[Verdict]:
    """Score each list of members over the window and decide: the one
    certification kernel.

    The gaps, caps and oracle results are computed once for all the
    lists; the checks then run list by list, so the first list's errors
    come first.
    """
    everyone = [m for members in member_lists for m in members]
    window, at = np.unique(prefix.where[window_start - 1:], return_inverse=True)
    all_gaps = _battery_gaps(everyone, prefix, prefix.limit, window)
    results, oracle = _window_oracle(prefix, window_start, tol)
    all_caps = _domination_caps(everyone, prefix, window)
    window_bl = tuple(res.value for res in results)
    ends = np.cumsum([len(members) for members in member_lists])[:-1]
    verdicts = []
    for members, gaps, caps in zip(member_lists, np.split(all_gaps, ends),
                                   np.split(all_caps, ends)):
        names = tuple(m.name for m in members)
        window_gaps = tuple(map(tuple, gaps[:, at].tolist()))
        thresholds = _member_thresholds(members, tol)
        status, witness, k = _window_rule(names, window_gaps, thresholds, window_start)
        over = np.argwhere(gaps > caps)
        if len(over):
            j, i = over[0]
            n = window_start + int(np.argmax(at == i))
            raise CertificateError(f"member {names[j]} breaks gap <= max(B, L) * BL at n={n}: "
                                   f"{float(gaps[j, i])!r} > {float(caps[j, i])!r}")
        if witness is not None:
            # the witness must be reproducible from scratch, not an artefact
            # of the batched sweep above, so it is recomputed by the per-term route
            for n in (witness.n1, witness.n2):
                fresh = _member_gap(members[k], prefix.terms[n - 1], prefix.limit)
                if abs(fresh - window_gaps[k][n - window_start]) > _WITNESS_RECHECK_TOL:
                    raise CertificateError("divergence witness failed recheck")
        elif oracle is not Status.CONVERGENT_EVIDENCE:
            status = Status.INCONCLUSIVE
        verdicts.append(Verdict(status=status, n_terms=len(prefix.terms), tol=tol,
                                window_start=window_start, member_names=names,
                                thresholds=thresholds, window_gaps=window_gaps,
                                window_bl=window_bl, witness=witness))
    return verdicts


def certify(family: MeasureFamily, limit: FiniteMeasure, battery: Battery,
            n_terms: int = DEFAULT_PREFIX, tol: float = DEFAULT_TOL,
            normalize_inputs: bool = False) -> Verdict:
    """Certify (or refute) weak convergence of a measure sequence.

    Works on probability measures; with ``normalize_inputs`` finite
    measures are admitted as they are.  BL metrizes weak convergence of
    finite measures too, so the oracle and the battery read the raw
    terms, and the constant function 1 joins the battery as the member
    ``total_mass`` (mass convergence is necessary: 1 is bounded and
    continuous).
    """
    window_start = _window_start(n_terms, tol)
    prefix = family.prefix(n_terms)
    members = battery.members
    if normalize_inputs:
        members += (ScalarMember("total_mass", Const(1.0), bound=1.0, lip=0.0),)
    elif not (limit.is_probability and all(mu.is_probability for mu in prefix)):
        raise DomainError("certify needs probability measures "
                          "(or normalize_inputs=True)")
    return _verdicts(_Prefix(prefix, limit), window_start, [members], tol)[0]


# ---------------------------------------------------------------------------
# oracle vs battery agreement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    family_name: str
    label_kind: str
    oracle_status: Status
    scalar_verdict: Verdict
    vector_verdicts: tuple  # (target family name, Verdict) pairs

    @property
    def agreement(self) -> bool:
        statuses = [self.scalar_verdict.status] + [v.status for _, v in self.vector_verdicts]
        return all(s == self.oracle_status for s in statuses)

    def to_json(self) -> dict:
        return {
            "family": self.family_name,
            "label": self.label_kind,
            "oracle": self.oracle_status.value,
            "scalar": self.scalar_verdict.status.value,
            "vector": {name: v.status.value for name, v in self.vector_verdicts},
            "agreement": self.agreement,
        }


def equivalence_report(family: MeasureFamily, targets: Sequence[TargetSpace],
                       n_terms: int = DEFAULT_PREFIX, tol: float = DEFAULT_TOL,
                       seed: int = 0, spec: Optional[BatterySpec] = None) -> EquivalenceReport:
    """Run the oracle and the batteries on a labeled scenario and compare.

    The battery is augmented with the oracle's own witnesses at the two
    largest-gap indices of the tail window, extended by McShane and, for
    vector verdicts, lifted through each target's base.  Augmentation
    cannot flip a convergent verdict (a unit-ball member's gap is at most
    the oracle value, which each verdict checks) but guarantees the
    batteries can see any divergence the oracle sees.  A lift declares
    its own constants, which a sheared base scales.  So every target
    needs a base, with or without vector members of its own.
    """
    if any(target.base is None for target in targets):
        raise UnsupportedError("vector members need a target with a base")
    if family.label.kind == "unknown":
        raise DomainError("equivalence reports need a labeled scenario")
    candidate = family.label.reference
    if not candidate.is_probability:
        raise DomainError("the reference measure must be a probability measure")
    window_start = _window_start(n_terms, tol)
    terms = family.prefix(n_terms)
    if not all(mu.is_probability for mu in terms):
        raise DomainError("equivalence scenarios must produce probability measures")

    # one oracle run per distinct term serves the oracle's status and every verdict
    prefix = _Prefix(terms, candidate)
    results, oracle_status = _window_oracle(prefix, window_start, tol)

    # witnesses from the two largest oracle gaps in the window
    tail = sorted(range(window_start, n_terms + 1),
                  key=lambda n: (-results[n - window_start].value, n))[:2]
    witness_members = []
    for n in sorted(tail):
        member = bl_witness_function(terms[n - 1], candidate,
                                     result=results[n - window_start])
        witness_members.append(ScalarMember(name=f"bl_witness[n={n}]", form=member.form,
                                            bound=member.bound, lip=member.lip))

    # each target's vector members resume the battery stream after the scalar forms
    scalars, vectors = battery_members(family.space, spec or BatterySpec(), seed,
                                       [(target, seed) for target in targets])
    member_lists = [scalars + tuple(witness_members)]
    for target, members in zip(targets, vectors):
        lifts = [_lift_through_base(family.space, target, [m.form] * target.dim)
                 for m in witness_members]
        member_lists.append(members + tuple(
            VectorMember(name=f"{m.name}:lift", function=vf, bounds=tuple(vf.bounds()),
                         lips=tuple(vf.lipschitz_constants()))
            for m, vf in zip(witness_members, lifts)))
    scalar_verdict, *verdicts = _verdicts(prefix, window_start, member_lists, tol)
    return EquivalenceReport(family_name=family.name, label_kind=family.label.kind,
                             oracle_status=oracle_status, scalar_verdict=scalar_verdict,
                             vector_verdicts=tuple((target.family.name, verdict)
                                                   for target, verdict in zip(targets, verdicts)))
