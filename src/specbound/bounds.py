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

Every family evaluates a block of splits: given IndexPartitions it returns
the split's result, given (k, n) boolean blocks (row i marking A, or A~, of
split i) the list of k results. Per-split sums run over the split's own
indices in ascending order, so no value depends on the block. Entry digests
hash the context's digest with the split's indices and the policy or kappas;
both are taken only when an entry's digest is read.

Degenerate denominators, and Python float squares past the float range, are
reported as +inf entries with condition_ok False rather than raised; a value
above 1 is additionally flagged vacuous since the distance itself never
exceeds 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CardinalityLost, DimensionMismatch, GapConditionViolated, KappaOutOfRange
from .spectral import (
    Digest,
    IndexPartition,
    NormalEigenSystem,
    PerturbationContext,
    SplitGaps,
    sides_of,
    split_block,
)

KAPPA_EDGE = 1.0 - 1e-12  # realizes the strictly-below-the-ratio endpoint
KAPPA_TIE_MARGIN = 1e-6  # the tightest kappa is 1 only if own^2 <= other^2 (1 - this)
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


@dataclass(frozen=True, eq=False)
class BoundEntry:
    """One bound's value and condition, with the digest of what it was computed from.

    ``digest`` is a str or a :class:`Digest`, and ``inputs_digest`` is it as a
    str, so a Digest is hashed only if something reads it. Two entries are
    equal when all their fields are, the digest compared as a str.
    """

    name: str
    value: float
    condition_ok: bool
    digest: str | Digest
    vacuous: bool
    detail: dict = field(default_factory=dict)

    @property
    def inputs_digest(self) -> str:
        return str(self.digest)

    def _key(self) -> tuple:
        return (self.name, self.value, self.condition_ok, self.inputs_digest, self.vacuous,
                self.detail)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def holds(self, lhs: float) -> bool:
        """Whether ``lhs`` stays within this bound, up to rounding."""
        return lhs <= self.value * (1 + HOLDS_REL_TOL) + HOLDS_ABS_TOL


@dataclass(frozen=True)
class BoundReport:
    """One left-hand side together with every bound evaluated against it."""

    lhs_dsp: float
    bounds: tuple[BoundEntry, ...]
    chosen_a_tilde: IndexPartition | None = None

    def holds(self) -> bool:
        """Whether every bound whose condition holds keeps ``lhs_dsp`` within its value."""
        return all(e.holds(self.lhs_dsp) for e in self.bounds if e.condition_ok)


def _entry(name: str, value: float, ok: bool, digest: str | Digest, **detail) -> BoundEntry:
    finite = math.isfinite(value)
    return BoundEntry(
        name=name,
        value=value,
        condition_ok=ok and finite,
        digest=digest,
        vacuous=(not finite) or value > 1.0,
        detail=detail,
    )


def _per_split(a, results: list):
    """The one split's result for an IndexPartition, else the block's list."""
    return results[0] if isinstance(a, IndexPartition) else results


def _by_side(x: np.ndarray, sides: np.ndarray, fill) -> np.ndarray:
    """(k, 2, n): row i of ``x`` on A in [i, 0] and on B in [i, 1], ``fill`` elsewhere."""
    return np.where(sides, x[..., None, :], fill)


def _side_sums(x: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """(k, 2): per split, the sums of ``x`` over A and over B, as ``ndarray.sum`` forms them.

    numpy adds fewer than 8 terms left to right and more pairwise, so a side
    shorter than 8 is one running sum along its row, in which the other
    side's zeros change nothing. Longer sides are gathered into one
    contiguous (count, length) array per length, whose row sums numpy forms
    as it forms the sum of each side alone.
    """
    parts = _by_side(x, sides, 0.0)
    sums = np.add.accumulate(parts, axis=2)[..., -1]
    if sides.shape[2] > 8:
        lengths = sides.sum(axis=2)
        for length in set(lengths[lengths >= 8].tolist()):  # np.unique would load numpy.ma
            at = np.nonzero(lengths == length)
            sums[at] = parts[at][sides[at]].reshape(-1, length).sum(axis=1)
    return sums


def dsp_between(ctx: PerturbationContext, a, a_tilde):
    """d_sp between span(u_A) and span(v_A~), read off the overlap table.

    d^2 is the sum of |u_j^H v_j'|^2 over j outside A and j' in A~, over q:
    the squared Frobenius norm of U_B^H V_A~ as a sum of non-negative terms,
    so nothing cancels. A float for one split, an array over a block.
    """
    g = ctx.split_gaps(a, a_tilde)
    pairs = (~g.a)[:, :, None] & g.a_tilde[:, None, :]
    d = np.sqrt(np.where(pairs, ctx.overlaps, 0.0).sum(axis=(1, 2)) / g.q)
    return float(d[0]) if isinstance(a, IndexPartition) else d


def _kappa_cap(own: float, other: float) -> float:
    if own == 0.0:
        return 1.0
    try:
        return min(1.0, (other / own) ** 2 * KAPPA_EDGE)
    except OverflowError:  # a float's square past the float range: the cap is 1
        return 1.0


def _one_sided_full(
    ctx: PerturbationContext, g: SplitGaps, policy: KappaPolicy
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the kappa-parameterized bound for every split of a block.

    Row-wise, element (i, j) is lam_j's term in split i. Returns the (k, 2)
    values summed over A (direct) and B (interchanged), and the (k, n)
    kappas. The numerator r_j^2 - kappa own_j^2 cancels badly when the
    residual and the own gap nearly agree, so for kappa > 0 it is evaluated
    through the coupling identity
    sum_j' (|lam'_j' - lam_j|^2 - kappa own_j^2) |u_j^H v_j'|^2, whose terms
    are all >= 0 for an admissible kappa; every difference of squares, the
    denominator's too, is factored as (x - s)(x + s) with s = sqrt(kappa)
    own_j. With kappa = 0 nothing cancels and r_j^2 is used.
    """
    res, own, other = ctx.residuals, g.own, g.other
    if policy.mode == "zero":
        kappas = np.zeros(own.shape)
    elif policy.mode == "tightest":
        # The optimal choice is 1 exactly when the residual is below the
        # cross-group gap (which forces the gap ratio above 1, making 1
        # admissible). Demand the ratio clear 1 by a floating-point
        # margin: near-tied gaps would otherwise evaluate the bound with
        # a noise-dominated denominator, and 0 is always sound there.
        take_one = (res < other) & (own**2 <= other**2 * (1.0 - KAPPA_TIE_MARGIN))
        kappas = take_one.astype(float)
    else:
        kappas = np.broadcast_to(np.array(policy.fixed_values), own.shape)
        for i, in_a in enumerate(g.a):
            for j in np.argsort(~in_a, kind="stable").tolist():  # A's indices, then B's
                k, cap = kappas[i, j], _kappa_cap(own[i, j], other[i, j])
                if not 0.0 <= k <= cap:
                    raise KappaOutOfRange(f"kappa[{j}] = {k:g} outside [0, {cap:g}]")
    s = np.sqrt(kappas) * own
    denom = (other - s) * (other + s)
    num = np.tile(res**2, (len(own), 1))
    rows, cols = np.nonzero(kappas > 0.0)
    if rows.size:
        gaps, s_w = ctx.gaps[cols], s[rows, cols][:, None]
        num[rows, cols] = ((gaps - s_w) * (gaps + s_w) * ctx.overlaps[cols]).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.sqrt(_side_sums(num / denom, g.sides) / g.q[:, None])
    values[_by_side(denom <= 0.0, g.sides, False).any(axis=2)] = math.inf
    return values, kappas


def bound_full_main(
    ctx: PerturbationContext, a, a_tilde, policy: KappaPolicy = KappaPolicy()
):
    """Per-index kappa-parameterized bound; the smaller of its two forms.

    The direct form sums over A against the perturbed split (T, complement);
    the interchanged form sums over the complement of A with the roles of the
    two perturbed groups swapped (the complement-scaling identity folds its
    prefactor into a single 1/q). Per-index kappas actually used are recorded
    in the entry detail.
    """
    if policy.mode == "fixed" and len(policy.fixed_values) != ctx.base.n:
        raise KappaOutOfRange(f"fixed_values must have length n = {ctx.base.n}, "
                              f"got {len(policy.fixed_values)}")
    g = ctx.split_gaps(a, a_tilde)
    values, kappas = _one_sided_full(ctx, g, policy)
    name, tag = f"full_main_kappa_{policy.mode}", repr(policy)
    entries = [
        _entry(name, min(direct, inter), ok=True,
               digest=Digest(ctx.lazy_digest, in_a, in_at, tag),
               direct_value=direct, interchanged_value=inter,
               kappa_direct=kap[in_a].tolist(), kappa_interchanged=kap[in_b].tolist())
        for (direct, inter), (in_a, in_b), in_at, kap
        in zip(values.tolist(), g.sides, g.a_tilde, kappas)
    ]
    return _per_split(a, entries)


def _simplified_side(label: str, k: float, res_sq: float, own_sq: float, other_min: float,
                     own_max: float, q: int) -> float:
    cap = _kappa_cap(own_max, other_min)
    if not 0.0 <= k <= cap:
        raise KappaOutOfRange(f"{label} = {k:g} outside [0, {cap:g}]")
    num = max(0.0, res_sq - k * own_sq)
    try:
        den = other_min**2 - k * own_max**2
    except OverflowError:  # reported as a degenerate denominator
        return math.inf
    return math.inf if den <= 0.0 else math.sqrt(num / (q * den))


def bound_simplified(
    ctx: PerturbationContext, a, a_tilde, kappa_a: float = 0.0, kappa_b: float = 0.0
):
    """Summed relaxation with one kappa per side; a (part 1, part 2) pair per split.

    Part 1 relaxes each side's denominators to their worst index and takes
    the smaller side; part 2 combines both sides into a single Frobenius-norm
    quotient.
    """
    g = ctx.split_gaps(a, a_tilde)
    own_max = _by_side(g.own, g.sides, -np.inf).max(axis=2).tolist()
    other_min = _by_side(g.other, g.sides, np.inf).min(axis=2).tolist()
    res_sq = _side_sums(ctx.residuals**2, g.sides).tolist()
    own_sq = _side_sums(g.own**2, g.sides).tolist()
    kappas = (kappa_a, kappa_b)
    pairs = []
    for i, q in enumerate(g.q.tolist()):
        side_a, side_b = zip(("kappa_a", "kappa_b"), kappas, res_sq[i], own_sq[i],
                             other_min[i], own_max[i])
        part1 = min(_simplified_side(*side_a, q), _simplified_side(*side_b, q))
        (sq_a, sq_b), (other_a, other_b), (own_a, own_b) = own_sq[i], other_min[i], own_max[i]
        try:
            num2 = max(0.0, ctx.frob_norm**2 - kappa_a * sq_a - kappa_b * sq_b)
            den2 = other_a**2 + other_b**2 - kappa_a * own_a**2 - kappa_b * own_b**2
        except OverflowError:  # reported as a degenerate denominator
            den2 = 0.0
        part2 = math.inf if den2 <= 0.0 else math.sqrt(num2 / (q * den2))
        digest = Digest(ctx.lazy_digest, g.a[i], g.a_tilde[i], kappa_a, kappa_b)
        pairs.append(tuple(
            _entry(name, value, ok=True, digest=digest, kappa_a=kappa_a, kappa_b=kappa_b)
            for name, value in (("simplified_part1", part1), ("simplified_part2", part2))
        ))
    return _per_split(a, pairs)


def bound_davis_kahan(ctx: PerturbationContext, a, a_tilde):
    """Separation-only bounds from the two mixed eigenvalue-group gaps.

    Part 1 divides the perturbation 2-norm by the larger of sep(lam_A,
    lam'_Bt) and sep(lam_B, lam'_At); part 2 divides the Frobenius norm by
    the root-sum-square of both. When both separations vanish the entries
    come back as +inf with condition_ok False. A (part 1, part 2) pair per
    split.
    """
    g = ctx.split_gaps(a, a_tilde)
    n, op, frob = ctx.base.n, ctx.op_norm, ctx.frob_norm
    seps = _by_side(g.other, g.sides, np.inf).min(axis=2).tolist()
    pairs = []
    for i, (q, (sep_a_bt, sep_b_at)) in enumerate(zip(g.q.tolist(), seps)):
        denom1 = max(sep_a_bt, sep_b_at)
        denom2 = math.hypot(sep_a_bt, sep_b_at)
        prefactor = min(1.0, math.sqrt((n - q) / q))
        part1 = prefactor * op / denom1 if denom1 > 0.0 else math.inf
        part2 = frob / (math.sqrt(q) * denom2) if denom2 > 0.0 else math.inf
        digest = Digest(ctx.lazy_digest, g.a[i], g.a_tilde[i])
        detail = {"sep_a_btilde": sep_a_bt, "sep_b_atilde": sep_b_at}
        pairs.append((_entry("davis_kahan_part1", part1, denom1 > 0.0, digest, **detail),
                      _entry("davis_kahan_part2", part2, denom2 > 0.0, digest, **detail)))
    return _per_split(a, pairs)


def _half_gap(ctx: PerturbationContext, a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block, each lam_j's gap to the other side of split i, and the splits that are wide.

    A split is wide when ||Mtilde - M||_2 < sep(lam_A, lam_B) / 2, the
    half-gap condition the nearest-group identification and the tilde-free
    family rest on; for one IndexPartition a failure raises
    GapConditionViolated, with the margin.
    """
    block = split_block(ctx, a)
    lam = ctx.base.eigenvalues
    dist = np.abs(lam[None, :] - lam[:, None])
    cross = np.where(block[:, None, :] != block[:, :, None], dist, np.inf).min(axis=2)
    gap, op = cross.min(axis=1), ctx.op_norm
    holds = op < 0.5 * gap
    if isinstance(a, IndexPartition) and not holds[0]:
        half = 0.5 * float(gap[0])
        raise GapConditionViolated(
            f"||Mtilde - M||_2 = {op:.6g} not below half the spectral gap {half:.6g}",
            margin=half - op,
        )
    return block, cross, holds


def _nearest_group(ctx: PerturbationContext, a: np.ndarray) -> np.ndarray:
    """Per split, the perturbed eigenvalues nearer to A than to B (ties to A), |A| of them."""
    to_a = np.where(a[:, :, None], ctx.gaps, np.inf).min(axis=1)
    to_b = np.where(a[:, :, None], np.inf, ctx.gaps).min(axis=1)
    hat = to_a <= to_b
    for got, want in zip(hat.sum(axis=1).tolist(), a.sum(axis=1).tolist()):
        if got != want:
            raise CardinalityLost(f"nearest-group classification put {got} perturbed "
                                  f"eigenvalues on the A side, expected {want}")
    return hat


def hat_partition(ctx: PerturbationContext, a: IndexPartition) -> IndexPartition:
    """Indices of the perturbed eigenvalues nearest to the A group.

    Valid when ||Mtilde - M||_2 < sep(lam_A, lam_B) / 2; then exactly q
    perturbed eigenvalues classify to the A side, and CardinalityLost is
    raised should any other count come out. Ties go to the A side, matching
    the set-distance module's convention.
    """
    _half_gap(ctx, a)
    hat = _nearest_group(ctx, a.mask[None])[0]
    return IndexPartition(a.n, tuple(np.flatnonzero(hat).tolist()))


def bound_tilde_free(ctx: PerturbationContext, a):
    """Bounds that read only the base spectrum plus norms of the perturbation.

    Requires ||Mtilde - M||_2 < sep(lam_A, lam_B) / 2. Produces the fine
    per-index form (smaller of the A-sum and complement-sum), the coarse
    separation-only form, and the Frobenius form; the left-hand side is
    evaluated against the nearest-group identification of the perturbed
    indices, the only part that reads the context's perturbed system. For a
    block, the list holds None for each split whose condition fails.
    """
    block, cross, holds = _half_gap(ctx, a)
    rows = np.flatnonzero(holds)
    a_ok, cross = block[rows], cross[rows]
    hats = _nearest_group(ctx, a_ok)
    op, n, q, gap = ctx.op_norm, ctx.base.n, a_ok.sum(axis=1), cross.min(axis=1)
    # cross - op and gap - op are > 0 under the half-gap condition.
    fine = np.sqrt(_side_sums((ctx.residuals / (cross - op)) ** 2, sides_of(a_ok)) / q[:, None])
    coarse = np.minimum(1.0, np.sqrt((n - q) / q)) * op / (gap - op)
    part2 = ctx.frob_norm / (np.sqrt(2 * q) * (gap - op))
    lhs = dsp_between(ctx, a_ok, hats)
    names = ("tilde_free_part1_fine", "tilde_free_part1_coarse", "tilde_free_part2")
    reports: list[BoundReport | None] = [None] * len(block)
    for i, *values, d, hat in zip(rows.tolist(), fine.min(axis=1).tolist(), coarse.tolist(),
                                  part2.tolist(), lhs.tolist(), hats):
        digest = Digest(ctx.lazy_digest, block[i])
        entries = tuple(_entry(nm, v, ok=True, digest=digest) for nm, v in zip(names, values))
        a_hat = IndexPartition(n, tuple(np.flatnonzero(hat).tolist()))
        reports[i] = BoundReport(lhs_dsp=d, bounds=entries, chosen_a_tilde=a_hat)
    return _per_split(a, reports)


def search_closest_invariant(
    perturbed: NormalEigenSystem, target, q: int
) -> tuple[IndexPartition, float]:
    """Find the q-dimensional invariant subspace of ``perturbed`` nearest to a target.

    The distance to the span of the eigenvectors S is sqrt(1 - sum_{j in S}
    score_j / q), where score_j is the squared norm of eigenvector j's
    projection onto the target. The search therefore keeps the q largest
    scores, lower index first on ties, which is the optimum over all size-q
    sets and the lexicographically smallest one among equals. Raises
    DimensionMismatch unless 1 <= q < n and the target is n x q.
    """
    if not 0 < q < perturbed.n:
        raise DimensionMismatch(f"q = {q} must lie in 1..{perturbed.n - 1} for n = {perturbed.n}")
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
    lhs = dsp_between(ctx, a, a_tilde)
    return BoundReport(lhs_dsp=lhs, bounds=tuple(entries), chosen_a_tilde=a_tilde)
