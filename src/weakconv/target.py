"""Finite-dimensional target spaces: Banach and Frechet instances.

A target space is R^D equipped with a monotone family of seminorms
p_1 <= p_2 <= ... that clamps at a finite depth.  Banach targets use a
constant single-level family (the norm); Frechet targets use genuinely
increasing families.  Two Frechet families are built in:

* truncated max:   p_n(x) = max_{k <= min(n, D)} |x_k|
* cumulative l1:   p_n(x) = sum_{k <= min(n, D)} |x_k|

The paranorm combines the levels as sum_n 2^-n p_n(x)/(1 + p_n(x)).
Because the levels clamp at the family depth, the geometric tail has a
closed form and the paranorm is evaluated exactly (no series truncation):

    sum_{n<depth} 2^-n phi(p_n(x)) + 2^-(depth-1) phi(p_depth(x)),

with phi(t) = t/(1+t).  Convergence in the paranorm is equivalent to
convergence in every seminorm level, which is what the equivalence
report checks numerically.

A Schauder base is a nonsingular set of D vectors; expansion coefficients
are recovered by a dense solve (LU with partial pivoting), and the
coordinate functionals are the biorthogonal rows.  Levels and base
vectors are 1-indexed throughout, matching the usual math convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .carrier import choice, integer, items, known, need, numbers
from .errors import DomainError, UnsupportedError

# relative size of R's smallest diagonal entry below which a base counts as singular
_RANK_TOL = 1e-10

# a JSON target's largest dimension: certify with one such target takes
# about 0.4 s at 256 and 2.3 s at 1024 (2-vCPU VM, Python 3.11)
MAX_TARGET_DIM = 256


# ---------------------------------------------------------------------------
# seminorm families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeminormFamily:
    """Monotone family of seminorms on R^D, clamped at ``depth`` levels.

    ``level_fn(n, X)`` evaluates the (already clamped) level ``n`` on the
    last axis of ``X``.  ``vector_lip_fn(n, L)`` transfers per-coordinate
    Lipschitz constants L_k of a vector function to a Lipschitz constant
    of its level-n seminorm composition; it is what certifies integral
    gap bounds without sampling.
    """

    name: str
    depth: int
    level_fn: Callable[[int, np.ndarray], np.ndarray]
    vector_lip_fn: Callable[[int, np.ndarray], float]

    def level(self, n: int, x: np.ndarray) -> np.ndarray:
        if n < 1:
            raise DomainError("seminorm levels are 1-indexed")
        return self.level_fn(min(n, self.depth), np.asarray(x, dtype=float))


def constant_lp_family(dim: int, p) -> SeminormFamily:
    """Single-level family: the lp norm (p in {1, 2, inf})."""
    if p not in (1, 2, np.inf, "inf"):
        raise UnsupportedError(f"unsupported norm exponent {p!r}")
    ord_ = np.inf if p in (np.inf, "inf") else p

    def level(n, x):
        return np.linalg.norm(x, ord=ord_, axis=-1)

    def vlip(n, lips):
        return float(np.linalg.norm(lips, ord=ord_))

    tag = "inf" if ord_ == np.inf else str(int(ord_))
    return SeminormFamily(name=f"lp:{tag}", depth=1, level_fn=level, vector_lip_fn=vlip)


def omega_max_family(dim: int) -> SeminormFamily:
    """Truncated-max levels p_n(x) = max_{k <= min(n, D)} |x_k|."""

    def level(n, x):
        return np.max(np.abs(x[..., :n]), axis=-1)

    def vlip(n, lips):
        return float(np.max(lips[:n]))

    return SeminormFamily(name="omega_max", depth=dim, level_fn=level, vector_lip_fn=vlip)


def cumulative_l1_family(dim: int) -> SeminormFamily:
    """Cumulative-l1 levels p_n(x) = sum_{k <= min(n, D)} |x_k|."""

    def level(n, x):
        return np.sum(np.abs(x[..., :n]), axis=-1)

    def vlip(n, lips):
        return float(np.sum(lips[:n]))

    return SeminormFamily(name="cumulative_l1", depth=dim, level_fn=level, vector_lip_fn=vlip)


_FAMILY_BUILDERS = {
    "lp:1": lambda d: constant_lp_family(d, 1),
    "lp:2": lambda d: constant_lp_family(d, 2),
    "lp:inf": lambda d: constant_lp_family(d, np.inf),
    "omega_max": omega_max_family,
    "cumulative_l1": cumulative_l1_family,
}


# ---------------------------------------------------------------------------
# Schauder bases
# ---------------------------------------------------------------------------


class SchauderBase:
    """D independent vectors; expansions are dense solves against them."""

    def __init__(self, vectors: np.ndarray):
        mat = np.asarray(vectors, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DomainError("a base needs exactly D vectors of dimension D")
        if not np.all(np.isfinite(mat)):
            raise DomainError("base vectors must be finite")
        self.matrix = mat.copy()  # column j is base vector x_{j+1}
        # the diagonal of R in a QR factorisation gauges the rank
        diag = np.abs(np.diag(np.linalg.qr(self.matrix, mode="r")))
        if diag.min() < _RANK_TOL * max(diag.max(), 1e-300):
            raise DomainError("base vectors are numerically dependent")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def vector(self, i: int) -> np.ndarray:
        """Base vector x_i (1-indexed)."""
        if not 1 <= i <= self.dim:
            raise DomainError(f"base index {i} out of range")
        return self.matrix[:, i - 1].copy()

    def expand(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DomainError("vector dimension does not match the base")
        return np.linalg.solve(self.matrix, x.T).T

    def functional_matrix(self) -> np.ndarray:
        """Rows are the biorthogonal coordinate functionals."""
        return np.linalg.solve(self.matrix, np.eye(self.dim))


def coordinate_base(dim: int) -> SchauderBase:
    return SchauderBase(np.eye(dim))


# ---------------------------------------------------------------------------
# target spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetSpace:
    """R^D with a seminorm family and an optional Schauder base."""

    dim: int
    family: SeminormFamily
    base: Optional[SchauderBase] = field(default=None, compare=False)

    def __post_init__(self):
        if self.base is not None and self.base.dim != self.dim:
            raise DomainError("base dimension does not match the target")

    @property
    def kind(self) -> str:
        """banach for an lp norm and frechet for every other family, at every dim."""
        return "banach" if self.family.name.startswith("lp:") else "frechet"

    def to_json(self) -> dict:
        out = {"kind": self.kind, "dim": self.dim, "family": self.family.name}
        if self.base is None:
            out["base"] = None
        elif np.array_equal(self.base.matrix, np.eye(self.dim)):
            out["base"] = "coordinate"
        else:
            out["base"] = self.base.matrix.T.tolist()
        return out


def _per_row(val):
    """A float for one vector, the array of per-row values for a stack."""
    return float(val) if np.ndim(val) == 0 else val


def seminorm(space: TargetSpace, n: int, x: np.ndarray):
    """Level-n seminorm p_n(x); levels beyond the family depth repeat.

    Like :func:`paranorm` and :func:`gap_value`, it acts on the last axis
    of ``x``: a float for one vector, an array for a stack of rows.
    """
    return _per_row(space.family.level(n, x))


def paranorm(space: TargetSpace, x: np.ndarray):
    """Exact paranorm via the clamped geometric tail (always < 1).

    Each row is scored with the same floating-point operations in the
    same order whatever the stack's shape, so a stacked call returns
    exactly the values of one call per row.
    """
    depth = space.family.depth
    x = np.asarray(x, dtype=float)
    total = 0.0
    for n in range(1, depth):
        pn = space.family.level_fn(n, x)
        total = total + 2.0 ** (-n) * pn / (1.0 + pn)
    pd = space.family.level_fn(depth, x)
    total = total + 2.0 ** (-(depth - 1)) * pd / (1.0 + pd)
    return _per_row(total)


def gap_value(space: TargetSpace, v: np.ndarray):
    """The magnitude the certification machinery assigns to a difference.

    Acts on the last axis of ``v``: a float for one difference vector, an
    array with one value per row for a stack of them.
    """
    if space.kind == "banach":
        return seminorm(space, 1, v)
    return paranorm(space, v)


# -- built-in instances ------------------------------------------------------


def _resolve_base(dim: int, base) -> Optional[SchauderBase]:
    if base is None:
        return None
    if isinstance(base, SchauderBase):
        return base
    if isinstance(base, str):
        if base == "coordinate":
            return coordinate_base(dim)
        raise DomainError(f"unknown base spec {base!r}")
    return SchauderBase(np.asarray(base, dtype=float).T)


def banach_space(dim: int, p=2, base="coordinate") -> TargetSpace:
    """R^dim with an lp norm (p in {1, 2, inf})."""
    return TargetSpace(dim=dim, family=constant_lp_family(dim, p),
                       base=_resolve_base(dim, base))


def omega_space(dim: int, base="coordinate") -> TargetSpace:
    """Frechet instance with truncated-max levels (a finite slice of omega)."""
    return TargetSpace(dim=dim, family=omega_max_family(dim),
                       base=_resolve_base(dim, base))


def cumulative_l1_space(dim: int, base="coordinate") -> TargetSpace:
    """Frechet instance with cumulative-l1 levels."""
    return TargetSpace(dim=dim, family=cumulative_l1_family(dim),
                       base=_resolve_base(dim, base))


def target_from_json(node: dict) -> TargetSpace:
    known(node, ("kind", "dim", "family", "base"), "target spec")
    kind = need(node, "kind", "target spec")
    dim = integer(need(node, "dim", "target spec"), "bad target spec: 'dim'", lo=1,
                  cap=MAX_TARGET_DIM)
    family = choice(need(node, "family", "target spec"), tuple(_FAMILY_BUILDERS),
                    "bad target spec: 'family'")
    base = node.get("base", "coordinate")
    if base is not None and not isinstance(base, str):
        base = [numbers(row, "bad target spec: 'base' row", dim)
                for row in items(base, "bad target spec: 'base'")]
    space = TargetSpace(dim=dim, family=_FAMILY_BUILDERS[family](dim),
                        base=_resolve_base(dim, base))
    if kind != space.kind:
        raise DomainError(f"family {family!r} implies kind {space.kind!r}")
    return space


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParanormAxiomsReport:
    ok: bool
    samples: int
    monotone_levels: bool
    subadditive: bool
    symmetric: bool
    definite: bool
    scalar_limits_ok: bool
    tail_values: tuple
    violations: tuple


def paranorm_axioms_report(space: TargetSpace, samples: int = 1000,
                           seed: int = 0) -> ParanormAxiomsReport:
    """Numerically exercise the paranorm axioms on seeded samples.

    Checked: level monotonicity p_n <= p_{n+1}; zero at the origin;
    positivity off the origin (every family's deepest level is a norm);
    symmetry under negation (exact, since every level uses |x_k|);
    subadditivity; and the two scalar-limit schedules, which must decay
    monotonically below 1e-6 within 40 dyadic steps.
    """
    rng = np.random.default_rng(seed)
    dim = space.dim
    fam = space.family
    violations: list[str] = []

    xs = rng.standard_normal((samples, dim)) * rng.choice([0.1, 1.0, 10.0], size=(samples, 1))
    ys = rng.standard_normal((samples, dim))

    monotone = True
    for n in range(1, fam.depth):
        pn = fam.level_fn(n, xs)
        pn1 = fam.level_fn(n + 1, xs)
        if np.any(pn > pn1 + 1e-12):
            monotone = False
            violations.append(f"level {n} exceeds level {n + 1}")
            break

    para_x = paranorm(space, xs)
    para_neg = paranorm(space, -xs)
    symmetric = bool(np.array_equal(para_x, para_neg))
    if not symmetric:
        violations.append("paranorm changed under negation")

    para_sum = paranorm(space, xs + ys)
    para_y = paranorm(space, ys)
    subadditive = bool(np.all(para_sum <= para_x + para_y + 1e-12))
    if not subadditive:
        violations.append("subadditivity violated on a sampled pair")

    definite = paranorm(space, np.zeros(dim)) == 0.0
    nonzero = xs[np.linalg.norm(xs, axis=1) > 1e-9]
    if nonzero.size and np.any(paranorm(space, nonzero) <= 0):
        definite = False
    if not definite:
        violations.append("definiteness violated")

    # axiom (d): ||alpha_k x|| -> 0 for fixed x, and ||alpha x_k|| -> 0
    # for x_k -> 0; both along the dyadic schedule alpha_k = 2^-k
    ks = np.arange(1, 41)
    scalar_ok = True
    tail = ()
    for x in xs[: min(16, samples)]:
        vals = paranorm(space, (2.0 ** -ks)[:, None] * x)
        if np.any(np.diff(vals) > 1e-15) or vals[-1] > 1e-6:
            scalar_ok = False
            violations.append("scalar-limit schedule failed to decay")
            break
        tail = tuple(vals[-4:])
    if scalar_ok:
        alpha = 3.7  # arbitrary fixed scalar for the second schedule
        for x in xs[: min(8, samples)]:
            vals = paranorm(space, (alpha * 2.0 ** -ks)[:, None] * x)
            if np.any(np.diff(vals) > 1e-15) or vals[-1] > 1e-6:
                scalar_ok = False
                violations.append("vanishing-vector schedule failed to decay")
                break

    ok = monotone and symmetric and subadditive and scalar_ok and definite
    return ParanormAxiomsReport(ok=ok, samples=samples, monotone_levels=monotone,
                                subadditive=subadditive, symmetric=symmetric,
                                definite=definite, scalar_limits_ok=scalar_ok,
                                tail_values=tail, violations=tuple(violations))


# ratios scored at once by base_criterion_report: 2 MB a block
_CRITERION_BLOCK = 2 ** 18


@dataclass(frozen=True)
class BaseCriterionReport:
    passed: bool
    worst_ratio: float
    worst_coeffs: tuple
    worst_pair: tuple  # (m, n)
    samples: int


def base_criterion_report(space: TargetSpace, p_level: int, q_level: int,
                          bound: float = 1.0, samples: int = 1000,
                          seed: int = 0) -> BaseCriterionReport:
    """Check the partial-sum inequality p(S_m) <= M * q(S_n) for m <= n.

    S_m is the m-term partial sum of the base expansion.  Coefficient
    vectors are seeded random draws plus deterministic probes: the
    expansions of the standard unit vectors, which catch near-degenerate
    bases that random sampling can miss.
    """
    if space.base is None:
        raise UnsupportedError("base criterion needs a base")
    rng = np.random.default_rng(seed)
    dim = space.dim
    probes = [space.base.expand(e) for e in np.eye(dim)]
    coeff_sets = np.vstack([rng.standard_normal((samples, dim)), *probes])

    # the first strict maximum in (alpha, m, n) order, over blocks of alphas
    worst = 0.0
    worst_coeffs: tuple = ()
    worst_pair = (0, 0)
    upper = np.triu(np.ones((dim, dim), dtype=bool))  # n >= m
    step = max(1, _CRITERION_BLOCK // (dim * dim))
    for start in range(0, len(coeff_sets), step):
        alphas = coeff_sets[start:start + step]
        # partials[a, m] = sum_{i<=m} alpha_i x_i, each partial sum a contiguous
        # row, which seminorm adds in the order it adds one vector
        terms = np.multiply(alphas[:, :, None], space.base.matrix.T, order="C")
        partials = np.cumsum(terms, axis=1)
        p = seminorm(space, p_level, partials)[:, :, None]
        q = seminorm(space, q_level, partials)[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(q > 1e-300, p / q, np.where(p <= 1e-300, 0.0, np.inf))
        ratios = np.where(upper & (ratios > 0.0), ratios, 0.0)  # a NaN never wins
        best = int(np.argmax(ratios))
        if ratios.flat[best] > worst:
            a, m, n = np.unravel_index(best, ratios.shape)
            worst = float(ratios.flat[best])
            worst_coeffs = tuple(float(c) for c in alphas[a])
            worst_pair = (int(m) + 1, int(n) + 1)
    return BaseCriterionReport(passed=bool(worst <= bound + 1e-9), worst_ratio=worst,
                               worst_coeffs=worst_coeffs, worst_pair=worst_pair,
                               samples=len(coeff_sets))


@dataclass(frozen=True)
class SequenceRecord:
    paranorm_tail: float
    worst_level_tail: float
    by_paranorm: bool
    by_levels: bool

    @property
    def agree(self) -> bool:
        return self.by_paranorm == self.by_levels


@dataclass(frozen=True)
class ConvergenceEquivalenceReport:
    records: tuple
    all_agree: bool


def convergence_equivalence_report(space: TargetSpace,
                                   sequences: Sequence[tuple],
                                   tol: float = 1e-6) -> ConvergenceEquivalenceReport:
    """Compare the two numeric convergence criteria on vector sequences.

    Each entry is ``(prefix, limit)`` with ``prefix`` an array of iterates.
    Criterion (paranorm): the paranorm of the final residual is below tol.
    Criterion (levels): every seminorm level of the final residual is
    below tol.  The two must agree away from the threshold band; this is
    the executable face of paranorm convergence being equivalent to
    levelwise convergence for monotone clamped families.
    """
    records = []
    for prefix, limit in sequences:
        prefix = np.asarray(prefix, dtype=float)
        limit = np.asarray(limit, dtype=float)
        resid = prefix[-1] - limit
        para_tail = paranorm(space, resid)
        level_tails = [seminorm(space, n, resid) for n in range(1, space.family.depth + 1)]
        worst_level = float(max(level_tails))
        records.append(SequenceRecord(paranorm_tail=para_tail,
                                      worst_level_tail=worst_level,
                                      by_paranorm=bool(para_tail <= tol),
                                      by_levels=bool(worst_level <= tol)))
    return ConvergenceEquivalenceReport(records=tuple(records),
                                        all_agree=all(r.agree for r in records))
