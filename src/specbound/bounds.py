"""Upper bounds on the distance between invariant subspaces of two normal matrices.

All bounds control d_sp(span(u_A), span(v_T)) where u_A collects the base
eigenvectors indexed by A and v_T the perturbed eigenvectors indexed by a
size-q set T. Four families are implemented, from sharpest to cheapest:

* the kappa-parameterized per-index bound (with its complement-interchanged
  twin; the reported value is the smaller of the two),
* its summed relaxation with a single kappa per side,
* the separation-only form using both mixed eigenvalue-group gaps (a
  Davis-Kahan style statement), and
* the "tilde-free" family, which needs only the base spectrum and norms of
  the perturbation, valid when the perturbation is below half the spectral
  gap between the two base eigenvalue groups; it comes with the canonical
  nearest-group identification of the perturbed indices.

Every family takes one ``spectral.PerturbationContext`` per matrix pair
(re-exported here) as its only source of the two eigensystems and of
Mtilde - M: the perturbation's norms, the per-eigenvector residuals and the
eigenvalue-gap and overlap tables are computed there once and shared with
the identity cross-checks. Every slack by which an lhs may exceed its bound
before it counts as a violation is a named constant below.

Degenerate denominators are reported as +inf entries with condition_ok False
rather than raised; a value above 1 is additionally flagged vacuous since the
distance itself never exceeds 1.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CardinalityLost,
    DimensionMismatch,
    GapConditionViolated,
    KappaOutOfRange,
    SizeMismatch,
)
from .spectral import NormalEigenSystem, PerturbationContext, _require_size

KAPPA_EDGE = 1.0 - 1e-12  # realizes the strictly-below-the-ratio endpoint
# An lhs may exceed a bound value by this much (relative, plus absolute)
# before it counts as a violation: rounding in the two computations.
HOLDS_REL_TOL = 1e-9
HOLDS_ABS_TOL = 1e-12
# The same slack for the other inequalities the audits check:
SANDWICH_ABS_TOL = 1e-12  # a cluster's coupling <= its upper sandwich value
SANDWICH_REL_TOL = 1e-12  # lower sandwich value <= coupling: equal squares, other order
CHAIN_REL_TOL, CHAIN_ABS_TOL = 1e-12, 1e-15  # fine <= coarse known-base bound
BAUER_FIKE_ABS_TOL = 1e-10  # largest eigenvalue movement <= ||Mtilde - M||_2
RESIDUAL_IDENTITY_REL_TOL = 1e-9  # |cluster residual^2 - coupling| / max(1, coupling)
LAPLACIAN_DIFF_ABS_TOL = 1e-10  # ||Ltilde - L||_2 <= 2 max MED


@dataclass(frozen=True)
class IndexPartition:
    """A size-q subset of {0..n-1} together with its implicit complement."""

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate indices in partition")
        if not idx or idx[0] < 0 or idx[-1] >= self.n:
            raise ValueError(f"indices must lie in [0, {self.n}) and be non-empty")
        if len(idx) >= self.n:
            raise ValueError("partition must leave a non-empty complement")
        object.__setattr__(self, "indices", idx)

    @property
    def q(self) -> int:
        return len(self.indices)

    @cached_property
    def complement(self) -> tuple[int, ...]:
        members = set(self.indices)
        return tuple(i for i in range(self.n) if i not in members)


@dataclass(frozen=True)
class KappaPolicy:
    """How the free kappa parameters of the main bound are chosen.

    ``zero`` fixes every kappa at 0. ``tightest`` applies the optimal rule:
    1 when the residual is strictly below the cross-group gap (then 1 is
    admissible), 0 otherwise; a small relative margin on the gap ratio keeps
    the choice away from noise-dominated denominators. ``fixed`` takes user
    values indexed by eigenvalue position (length n; only the entries of the
    summed side are read), validated against each index's admissible
    interval.
    """

    mode: str = "zero"
    fixed_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.mode not in ("zero", "tightest", "fixed"):
            raise ValueError(f"unknown kappa mode {self.mode!r}")
        if self.mode == "fixed":
            if self.fixed_values is None:
                raise ValueError("fixed mode needs fixed_values")
            object.__setattr__(
                self, "fixed_values", tuple(float(v) for v in self.fixed_values)
            )


@dataclass(frozen=True)
class BoundEntry:
    name: str
    value: float
    condition_ok: bool
    inputs_digest: str
    vacuous: bool
    detail: dict = field(default_factory=dict)

    def holds(self, lhs: float) -> bool:
        """Whether ``lhs`` stays within this bound, up to rounding."""
        return lhs <= self.value * (1 + HOLDS_REL_TOL) + HOLDS_ABS_TOL


@dataclass(frozen=True)
class BoundReport:
    """One left-hand side together with every bound evaluated against it."""

    lhs_dsp: float
    bounds: tuple[BoundEntry, ...]
    chosen_a_tilde: IndexPartition | None = None


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p))
        else:
            h.update(repr(p).encode())
    return h.hexdigest()[:12]


def _entry(name: str, value: float, ok: bool, digest: str, **detail) -> BoundEntry:
    finite = math.isfinite(value)
    return BoundEntry(
        name=name,
        value=value,
        condition_ok=ok and finite,
        inputs_digest=digest,
        vacuous=(not finite) or value > 1.0,
        detail=detail,
    )


def dsp_between(
    base: NormalEigenSystem,
    perturbed: NormalEigenSystem,
    a: IndexPartition,
    a_tilde: IndexPartition,
) -> float:
    """d_sp between span(u_A) and span(v_T), via the complement-overlap form.

    Cheapest evaluation given full eigensystems: uses the base complement
    eigenvectors directly instead of forming projectors.
    """
    if a.q != a_tilde.q:
        raise SizeMismatch(f"|A| = {a.q} but |A~| = {a_tilde.q}")
    if not (base.n == perturbed.n == a.n == a_tilde.n):
        raise DimensionMismatch("eigensystems and index sets disagree on n")
    u_comp = base.eigenvectors.columns[:, list(a.complement)]
    v_sel = perturbed.eigenvectors.columns[:, list(a_tilde.indices)]
    cross = np.linalg.norm(u_comp.conj().T @ v_sel) ** 2 / a.q
    return float(np.sqrt(max(0.0, cross)))


def _kappa_cap(own: float, other: float) -> float:
    if own == 0.0:
        return 1.0
    return min(1.0, (other / own) ** 2 * KAPPA_EDGE)


def _one_sided_full(
    ctx: PerturbationContext,
    sum_idx: list[int],
    own: np.ndarray,
    other: np.ndarray,
    q: int,
    policy: KappaPolicy,
) -> tuple[float, list[float]]:
    """One side of the kappa-parameterized bound, summed over ``sum_idx``.

    ``own`` and ``other`` are the summed indices' gaps to the matched
    perturbed group and to the other one. Returns (value, kappas). The
    numerator r_j^2 - kappa own_j^2 cancels badly when the residual and the own gap
    nearly agree, so for kappa > 0 it is evaluated through the coupling
    identity sum_j' (|lam'_j' - lam_j|^2 - kappa own_j^2) |u_j^H v_j'|^2,
    whose terms are all >= 0 for an admissible kappa; every difference of
    squares, the denominator's too, is factored as (x - s)(x + s) with
    s = sqrt(kappa) own_j. With kappa = 0 nothing cancels and r_j^2 is used.
    """
    res = ctx.residuals[sum_idx]
    if policy.mode == "zero":
        kappas = np.zeros(len(sum_idx))
    elif policy.mode == "tightest":
        # The optimal choice is 1 exactly when the residual is below the
        # cross-group gap (which forces the gap ratio above 1, making 1
        # admissible). Demand the ratio clear 1 by a floating-point
        # margin: near-tied gaps would otherwise evaluate the bound with
        # a noise-dominated denominator, and 0 is always sound there.
        take_one = (res < other) & (own**2 <= other**2 * (1.0 - 1e-6))
        kappas = take_one.astype(float)
    else:
        kappas = np.array([policy.fixed_values[j] for j in sum_idx])
        for j, k, own_j, other_j in zip(sum_idx, kappas, own, other):
            cap = _kappa_cap(own_j, other_j)
            if not 0.0 <= k <= cap:
                raise KappaOutOfRange(f"kappa[{j}] = {k:g} outside [0, {cap:g}]")
    s = np.sqrt(kappas) * own
    denom = (other - s) * (other + s)
    if (denom <= 0.0).any():
        return math.inf, kappas.tolist()
    num = res**2
    weighted = np.flatnonzero(kappas > 0.0)
    if weighted.size:
        rows = np.asarray(sum_idx)[weighted]
        gaps, s_w = ctx.gaps[rows], s[weighted, None]
        num[weighted] = ((gaps - s_w) * (gaps + s_w) * ctx.overlaps[rows]).sum(axis=1)
    return float(np.sqrt((num / denom).sum() / q)), kappas.tolist()


def bound_full_main(
    ctx: PerturbationContext,
    a: IndexPartition,
    a_tilde: IndexPartition,
    policy: KappaPolicy = KappaPolicy(),
) -> BoundEntry:
    """Per-index kappa-parameterized bound; the smaller of its two forms.

    The direct form sums over A against the perturbed split (T, complement);
    the interchanged form sums over the complement of A with the roles of the
    two perturbed groups swapped (the complement-scaling identity folds its
    prefactor into a single 1/q). Per-index kappas actually used are recorded
    in the entry detail.
    """
    if policy.mode == "fixed" and len(policy.fixed_values) != ctx.base.n:
        raise KappaOutOfRange(
            f"fixed_values must have length n = {ctx.base.n}, "
            f"got {len(policy.fixed_values)}"
        )
    g = ctx.split_gaps(a, a_tilde)
    direct, kap_d = _one_sided_full(ctx, list(a.indices), g.own_a, g.other_a, a.q, policy)
    inter, kap_i = _one_sided_full(ctx, list(a.complement), g.own_b, g.other_b, a.q, policy)
    value = min(direct, inter)
    digest = _digest(
        ctx.base.eigenvalues, ctx.perturbed.eigenvalues, a.indices, a_tilde.indices,
        ctx.diff, policy.mode,
    )
    return _entry(
        f"full_main_kappa_{policy.mode}",
        value,
        ok=True,
        digest=digest,
        direct_value=direct,
        interchanged_value=inter,
        kappa_direct=kap_d,
        kappa_interchanged=kap_i,
    )


def _admissible_scalar_kappa(kappa: float, own_max: float, other_min: float, label: str):
    cap = _kappa_cap(own_max, other_min)
    if not 0.0 <= kappa <= cap:
        raise KappaOutOfRange(f"{label} = {kappa:g} outside [0, {cap:g}]")


def bound_simplified(
    ctx: PerturbationContext,
    a: IndexPartition,
    a_tilde: IndexPartition,
    kappa_a: float = 0.0,
    kappa_b: float = 0.0,
) -> tuple[BoundEntry, BoundEntry]:
    """Summed relaxation with one kappa per side.

    Part 1 relaxes each side's denominators to their worst index and takes
    the smaller side; part 2 combines both sides into a single Frobenius-norm
    quotient.
    """
    own_a, other_a, own_b, other_b = ctx.split_gaps(a, a_tilde)
    q = a.q
    res_sq = ctx.residuals**2
    res_a_sq, res_b_sq = res_sq[list(a.indices)], res_sq[list(a.complement)]

    own_a_max = float(own_a.max())
    own_b_max = float(own_b.max())
    other_a_min = float(other_a.min())
    other_b_min = float(other_b.min())
    _admissible_scalar_kappa(kappa_a, own_a_max, other_a_min, "kappa_a")
    _admissible_scalar_kappa(kappa_b, own_b_max, other_b_min, "kappa_b")

    def side(res_sq, own, k, other_min, own_max):
        num = max(0.0, float(res_sq.sum()) - k * float((own**2).sum()))
        den = other_min**2 - k * own_max**2
        if den <= 0.0:
            return math.inf
        return float(np.sqrt(num / (q * den)))

    part1 = min(
        side(res_a_sq, own_a, kappa_a, other_a_min, own_a_max),
        side(res_b_sq, own_b, kappa_b, other_b_min, own_b_max),
    )

    frob_sq = ctx.frob_norm**2
    num2 = max(
        0.0,
        frob_sq - kappa_a * float((own_a**2).sum()) - kappa_b * float((own_b**2).sum()),
    )
    den2 = (
        other_a_min**2
        + other_b_min**2
        - kappa_a * own_a_max**2
        - kappa_b * own_b_max**2
    )
    part2 = math.inf if den2 <= 0.0 else float(np.sqrt(num2 / (q * den2)))

    digest = _digest(
        ctx.base.eigenvalues, ctx.perturbed.eigenvalues, a.indices, a_tilde.indices,
        ctx.diff, kappa_a, kappa_b,
    )
    return (
        _entry("simplified_part1", part1, ok=True, digest=digest,
               kappa_a=kappa_a, kappa_b=kappa_b),
        _entry("simplified_part2", part2, ok=True, digest=digest,
               kappa_a=kappa_a, kappa_b=kappa_b),
    )


def bound_davis_kahan(
    ctx: PerturbationContext,
    a: IndexPartition,
    a_tilde: IndexPartition,
) -> tuple[BoundEntry, BoundEntry]:
    """Separation-only bounds from the two mixed eigenvalue-group gaps.

    Part 1 divides the perturbation 2-norm by the larger of sep(lam_A,
    lam'_Bt) and sep(lam_B, lam'_At); part 2 divides the Frobenius norm by
    the root-sum-square of both. When both separations vanish the entries
    come back as +inf with condition_ok False.
    """
    n, q = a.n, a.q
    g = ctx.split_gaps(a, a_tilde)
    sep_a_bt, sep_b_at = float(g.other_a.min()), float(g.other_b.min())
    op, frob = ctx.op_norm, ctx.frob_norm
    denom1 = max(sep_a_bt, sep_b_at)
    denom2 = math.hypot(sep_a_bt, sep_b_at)
    prefactor = min(1.0, np.sqrt((n - q) / q))
    part1 = float(prefactor * op / denom1) if denom1 > 0.0 else math.inf
    part2 = float(frob / (np.sqrt(q) * denom2)) if denom2 > 0.0 else math.inf
    digest = _digest(
        ctx.base.eigenvalues, ctx.perturbed.eigenvalues, a.indices, a_tilde.indices, ctx.diff
    )
    detail = {"sep_a_btilde": sep_a_bt, "sep_b_atilde": sep_b_at}
    return (
        _entry("davis_kahan_part1", part1, ok=denom1 > 0.0, digest=digest, **detail),
        _entry("davis_kahan_part2", part2, ok=denom2 > 0.0, digest=digest, **detail),
    )


def _half_gap(ctx: PerturbationContext, a: IndexPartition) -> tuple[np.ndarray, np.ndarray]:
    """Each base eigenvalue's gap to the other group of the split (A, B).

    Returns the gaps of lam_A to lam_B and of lam_B to lam_A, after checking
    the half-gap condition ||Mtilde - M||_2 < sep(lam_A, lam_B) / 2 that the
    nearest-group identification and the tilde-free family rest on; raises
    GapConditionViolated, with the margin, when it fails, and
    DimensionMismatch when A is not a partition of the context's n.
    """
    _require_size(ctx, a)
    lam = ctx.base.eigenvalues
    cross = np.abs(lam[list(a.complement)][None, :] - lam[list(a.indices)][:, None])
    gap, op = float(cross.min()), ctx.op_norm
    if not op < 0.5 * gap:
        raise GapConditionViolated(
            f"||Mtilde - M||_2 = {op:.6g} not below half the spectral gap "
            f"{0.5 * gap:.6g}",
            margin=0.5 * gap - op,
        )
    return cross.min(axis=1), cross.min(axis=0)


def hat_partition(ctx: PerturbationContext, a: IndexPartition) -> IndexPartition:
    """Indices of the perturbed eigenvalues nearest to the A group.

    Valid when ||Mtilde - M||_2 < sep(lam_A, lam_B) / 2; then exactly q
    perturbed eigenvalues classify to the A side, and CardinalityLost is
    raised should any other count come out. Ties go to the A side, matching
    the set-distance module's convention.
    """
    _half_gap(ctx, a)
    d_to_a = ctx.gaps[list(a.indices)].min(axis=0)
    d_to_b = ctx.gaps[list(a.complement)].min(axis=0)
    hat = np.flatnonzero(d_to_a <= d_to_b)
    if len(hat) != a.q:
        raise CardinalityLost(
            f"nearest-group classification put {len(hat)} perturbed eigenvalues "
            f"on the A side, expected {a.q}"
        )
    return IndexPartition(a.n, tuple(hat.tolist()))


def bound_tilde_free(ctx: PerturbationContext, a: IndexPartition) -> BoundReport:
    """Bounds that read only the base spectrum plus norms of the perturbation.

    Requires ||Mtilde - M||_2 < sep(lam_A, lam_B) / 2. Produces the fine
    per-index form (smaller of the A-sum and complement-sum), the coarse
    separation-only form, and the Frobenius form; the left-hand side is
    evaluated against the nearest-group identification of the perturbed
    indices, the only part that reads the context's perturbed system.
    """
    gap_a, gap_b = _half_gap(ctx, a)
    op, res = ctx.op_norm, ctx.residuals
    gap = float(gap_a.min())
    q, n = a.q, a.n
    # gap_a - op and gap_b - op are > 0 under the half-gap condition.
    fine = min(
        float(np.sqrt(((res[list(a.indices)] / (gap_a - op)) ** 2).sum() / q)),
        float(np.sqrt(((res[list(a.complement)] / (gap_b - op)) ** 2).sum() / q)),
    )
    coarse = float(min(1.0, np.sqrt((n - q) / q)) * op / (gap - op))
    part2 = float(ctx.frob_norm / (np.sqrt(2 * q) * (gap - op)))

    a_hat = hat_partition(ctx, a)
    lhs = dsp_between(ctx.base, ctx.perturbed, a, a_hat)
    digest = _digest(ctx.base.eigenvalues, a.indices, ctx.diff)
    entries = (
        _entry("tilde_free_part1_fine", fine, ok=True, digest=digest),
        _entry("tilde_free_part1_coarse", coarse, ok=True, digest=digest),
        _entry("tilde_free_part2", part2, ok=True, digest=digest),
    )
    return BoundReport(lhs_dsp=lhs, bounds=entries, chosen_a_tilde=a_hat)


def search_closest_invariant(
    perturbed: NormalEigenSystem, target, q: int
) -> tuple[IndexPartition, float]:
    """Find the q-dimensional invariant subspace of ``perturbed`` nearest to a target.

    The distance to the span of the eigenvectors S is sqrt(1 - sum_{j in S}
    score_j / q), where score_j is the squared norm of eigenvector j's
    projection onto the target. The search therefore keeps the q largest
    scores, lower index first on ties, which is the optimum over all size-q
    sets and the lexicographically smallest one among equals.
    """
    cols = target.columns if hasattr(target, "columns") else np.asarray(target, complex)
    if cols.shape[0] != perturbed.n or cols.shape[1] != q:
        raise DimensionMismatch(
            f"target must be {perturbed.n}x{q}, got {cols.shape}"
        )
    scores = np.linalg.norm(cols.conj().T @ perturbed.eigenvectors.columns, axis=0) ** 2
    n = perturbed.n
    ranking = np.argsort(-scores, kind="stable")  # higher score first, lower index on ties
    chosen = tuple(sorted(ranking[:q].tolist()))
    d = float(np.sqrt(max(0.0, 1.0 - scores[list(chosen)].sum() / q)))
    return IndexPartition(n, chosen), d


def evaluate_bounds(
    ctx: PerturbationContext,
    a: IndexPartition,
    a_tilde: IndexPartition,
    families: tuple[str, ...] = ("full", "simplified", "dk"),
    policy: KappaPolicy = KappaPolicy(),
) -> BoundReport:
    """Bundle the tilde-aware bound families against one left-hand side.

    Every family reads the same context; the simplified one at kappa 0.
    """
    entries: list[BoundEntry] = []
    if "full" in families:
        entries.append(bound_full_main(ctx, a, a_tilde, policy))
    if "simplified" in families:
        entries.extend(bound_simplified(ctx, a, a_tilde))
    if "dk" in families:
        entries.extend(bound_davis_kahan(ctx, a, a_tilde))
    lhs = dsp_between(ctx.base, ctx.perturbed, a, a_tilde)
    return BoundReport(lhs_dsp=lhs, bounds=tuple(entries), chosen_a_tilde=a_tilde)
