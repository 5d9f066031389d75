"""Upper bounds on the distance between invariant subspaces of two normal matrices.

All bounds control d_sp(span(u_A), span(v_T)) for the base eigenvectors u_A
indexed by A and the perturbed ones v_T indexed by a size-q set T. The four
families, from sharpest to cheapest: the kappa-parameterized per-index bound
(the smaller of it and its complement-interchanged twin), its summed
relaxation with one kappa per side, the separation-only (Davis-Kahan style)
form from both mixed eigenvalue-group gaps, and the "tilde-free" family,
which reads only the base spectrum and norms of the perturbation, valid when
the perturbation is below half the gap between the two base groups, with the
nearest-group identification of the perturbed indices.

Every family reads one ``spectral.PerturbationContext`` per matrix pair
(re-exported here), which computes the norms, residuals and gap and overlap
tables once. Every inequality specbound checks, here, in the audits and in
``graphs.graph_report``, is decided by ``holds``, under one evaluation rule,
a :class:`BoundTable`'s: a check whose value is not finite is not evaluated
(a table's condition_ok is False there), and a finite value against a NaN
or inf lhs fails. Its only slack is the two ``HOLDS_*`` constants of
``slack`` (re-exported here with ``holds``), which ``slack.agrees``, the one
test of every identity self-check, reads too.

Every family evaluates a block of splits: given IndexPartitions it returns
the split's result, given (k, n) boolean blocks (row i marking A, or A~, of
split i) one :class:`BoundTable` whose columns hold the splits' values,
conditions and details. Its row i is split i's result, built when read, with
a digest hashed when read. A split's sums run over its own indices in
ascending order, so no value depends on the block. Degenerate denominators
and squares past the float range give +inf values with condition_ok False
(and no warning); a value above 1 is also flagged vacuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CardinalityLost, DimensionMismatch, GapConditionViolated, KappaOutOfRange
from .spectral import Digest, IndexPartition, NormalEigenSystem, PerturbationContext, SplitGaps
from .spectral import sides_of, split_block, split_pair
from .slack import HOLDS_ABS_TOL, HOLDS_REL_TOL, holds  # noqa: F401 - the tolerances, re-exported

KAPPA_EDGE = 1.0 - 1e-12  # realizes the strictly-below-the-ratio endpoint
KAPPA_TIE_MARGIN = 1e-6  # the tightest kappa is 1 only if own^2 <= other^2 (1 - this)

_quiet = np.errstate(over="ignore", divide="ignore", invalid="ignore")
_hypot = np.frompyfunc(math.hypot, 2, 1)  # correctly rounded; np.hypot can be 1 ulp off


@dataclass(frozen=True)
class KappaPolicy:
    """How the free kappa parameters of the main bound are chosen.

    ``zero`` fixes every kappa at 0. ``tightest`` takes 1 where the residual is
    below the cross-group gap by a margin (1 is then optimal and admissible),
    else 0. ``fixed`` takes user values by eigenvalue position (length n; the
    summed side's are read), each checked against its admissible interval.
    """

    mode: str = "zero"
    fixed_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.mode not in ("zero", "tightest", "fixed"):
            raise ValueError(f"unknown kappa mode {self.mode!r}")
        if self.mode == "fixed":
            if self.fixed_values is None:
                raise ValueError("fixed mode needs fixed_values")
            object.__setattr__(self, "fixed_values", tuple(float(v) for v in self.fixed_values))


@dataclass(frozen=True, eq=False)
class BoundEntry:
    """One bound's value and condition, with the digest of what it was computed from.

    ``digest`` is a str or a :class:`Digest`, hashed when ``inputs_digest`` reads
    it; entries are equal when all fields are, the digest compared as a str.
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
        return holds(lhs, self.value)


@dataclass(frozen=True)
class BoundReport:
    """One left-hand side together with every bound evaluated against it."""

    lhs_dsp: float
    bounds: tuple[BoundEntry, ...]
    chosen_a_tilde: IndexPartition | None = None

    def holds(self) -> bool:
        """Whether every bound whose condition holds keeps ``lhs_dsp`` within its value."""
        return all(e.holds(self.lhs_dsp) for e in self.bounds if e.condition_ok)


class BoundTable:
    """One family's bounds over a block of splits: column j is bound ``names[j]``.

    ``value`` and ``condition_ok`` (given, and kept where the value is finite)
    are (k, m). A ``detail`` field is a (k,) column or a (values, mask) pair of
    (k, n) arrays, row i listing its masked values. A tuple ``digest`` is
    hashed per row, array parts cut to the row; a str or Digest is every
    row's. ``table[i]`` is split i's entry, or its tuple of m > 1 entries.
    """

    def __init__(self, names: tuple[str, ...], value: np.ndarray, condition_ok,
                 digest: str | Digest | tuple, detail: dict):
        self.names, self.value, self.digest, self.detail = names, value, digest, detail
        self.condition_ok = condition_ok & np.isfinite(value)

    @property
    def vacuous(self) -> np.ndarray:
        return ~np.isfinite(self.value) | (self.value > 1.0)

    def __len__(self) -> int:
        return len(self.value)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i: int):
        entries = self.entries(i)
        return entries[0] if len(entries) == 1 else entries

    def entries(self, i: int) -> tuple[BoundEntry, ...]:
        """Row i as one BoundEntry per column, all with one digest."""
        digest = self.digest
        if isinstance(digest, tuple):
            digest = Digest(*(p[i] if isinstance(p, np.ndarray) else p for p in digest))
        detail = {key: col[0][i][col[1][i]].tolist() if isinstance(col, tuple) else col[i].tolist()
                  for key, col in self.detail.items()}
        return tuple(BoundEntry(name, value, ok, digest, vacuous, dict(detail))
                     for name, value, ok, vacuous in zip(self.names, self.value[i].tolist(),
                                                         self.condition_ok[i].tolist(),
                                                         self.vacuous[i].tolist()))


class TildeFreeTable(BoundTable):
    """One row per split that ``wide`` marks (it meets the half-gap condition): its A and
    nearest-group A~ as masks, and their d_sp. ``table[i]`` is split i's report or None."""

    def __init__(self, names, value, condition_ok, digest, detail, lhs: np.ndarray,
                 a: np.ndarray, a_hat: np.ndarray, wide: np.ndarray):
        super().__init__(names, value, condition_ok, digest, detail)
        self.lhs, self.a, self.a_hat, self.wide = lhs, a, a_hat, wide

    def __len__(self) -> int:
        return len(self.wide)

    def __getitem__(self, i: int) -> BoundReport | None:
        i = range(len(self.wide))[i]
        if not self.wide[i]:
            return None
        row = np.count_nonzero(self.wide[:i])
        a_hat = IndexPartition(self.a.shape[1], tuple(np.flatnonzero(self.a_hat[row]).tolist()))
        return BoundReport(self.lhs[row].item(), self.entries(row), a_hat)


def _side_sums(x: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """(..., k, 2): per split, the sums of ``x`` (..., k, n) over A and over B.

    Each is numpy's sum of the side alone, for n up to 128: fewer than 8 terms
    in turn from 0, else the terms of full blocks of eight in eight lanes, the
    lanes joined pairwise, then the rest in turn. So a side is laid out in 8M + 7
    slots (8M the most terms full blocks hold at this n), its full blocks first,
    zeros to slot 8M, then the rest, and numpy sums that row in the same order.
    """
    n = sides.shape[-1]
    if n <= 8:  # a running sum along the row
        return np.add.accumulate(np.where(sides, x[..., None, :], 0.0), axis=-1)[..., -1]
    rank = np.cumsum(sides, axis=-1) - 1  # each term's place in its side
    full = (rank[..., -1] + 1) // 8 * 8
    i, side, j = np.nonzero(sides)
    at, end, most = rank[i, side, j], full[i, side], (n - 1) // 8 * 8
    slots = np.zeros((*x.shape[:-1], 2, most + 7))
    slots[..., i, side, np.where(at < end, at, at - end + most)] = x[..., i, j]
    return slots.sum(axis=-1)


def _dsp(ctx: PerturbationContext, a: np.ndarray, a_tilde: np.ndarray, q: np.ndarray):
    """d_sp of each split of a checked block: the overlaps of B against A~, summed."""
    pairs = ctx.overlaps * ((~a)[:, :, None] & a_tilde[:, None, :])
    return np.sqrt(np.add.reduce(pairs.reshape(len(a), a.shape[1] ** 2), axis=1) / q)


def dsp_between(ctx: PerturbationContext, a, a_tilde):
    """d_sp between span(u_A) and span(v_A~), read off the overlap table: a float for one
    split, an array over a block. d^2 is ||U_B^H V_A~||_F^2 / q, the sum of |u_j^H v_j'|^2
    over j outside A and j' in A~ over q, in which nothing cancels."""
    d = _dsp(ctx, *split_pair(ctx, a, a_tilde))
    return float(d[0]) if isinstance(a, IndexPartition) else d


def _squares(x):
    """x ** 2 as a float's ** forms it (by pow, not x * x), and where it passes the float range."""
    sq = np.float_power(x, 2.0)
    return sq, np.isinf(sq) & np.isfinite(x)


def _kappa_cap(own: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The largest admissible kappa: just below (other / own)^2, and at most 1."""
    return np.where(own == 0.0, 1.0, np.fmin(1.0, _squares(other / own)[0] * KAPPA_EDGE))


def _kappas(ctx: PerturbationContext, g: SplitGaps, policy: KappaPolicy) -> np.ndarray:
    """(k, n): the kappa of each index in each split under ``policy``."""
    res, own, other = ctx.residuals, g.own, g.other
    if policy.mode == "zero":
        return np.zeros(own.shape)
    if policy.mode == "tightest":
        # 1 is optimal (and admissible) exactly when the residual is below the cross-group
        # gap; the ratio must clear 1 by a margin, as near-tied gaps would make a
        # noise-dominated denominator, and 0 is always sound.
        return ((res < other) & (own**2 <= other**2 * (1.0 - KAPPA_TIE_MARGIN))).astype(float)
    kappas, caps = np.broadcast_to(np.array(policy.fixed_values), own.shape), _kappa_cap(own, other)
    bad = g.sides & ~((0.0 <= kappas) & (kappas <= caps))[:, None, :]
    if bad.any():  # the first by split, then A's indices before B's
        i, _, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise KappaOutOfRange(f"kappa[{j}] = {kappas[i, j]:g} outside [0, {caps[i, j]:g}]")
    return kappas


@_quiet
def _full_main_tables(ctx: PerturbationContext, a, a_tilde, policies) -> list[BoundTable]:
    """``bound_full_main``'s table under each of ``policies``, all evaluated as one stack.

    The numerator r_j^2 - kappa own_j^2 cancels badly when r_j and own_j nearly
    agree, so for kappa > 0 it is the coupling identity's sum_j' (|lam'_j' -
    lam_j|^2 - kappa own_j^2) |u_j^H v_j'|^2, of terms >= 0 for an admissible
    kappa; each difference of squares is factored as (x - s)(x + s), s = sqrt(kappa) own_j.
    """
    for policy in policies:
        if policy.mode == "fixed" and len(policy.fixed_values) != ctx.base.n:
            raise KappaOutOfRange(f"fixed_values must have length n = {ctx.base.n}, "
                                  f"got {len(policy.fixed_values)}")
    g = ctx.split_gaps(a, a_tilde)
    kappas = np.array([_kappas(ctx, g, policy) for policy in policies])
    s = np.sqrt(kappas) * g.own
    denom = (g.other - s) * (g.other + s)
    num = np.empty(kappas.shape)
    num[...] = ctx.residuals**2
    weighted = np.nonzero(kappas)
    if weighted[0].size:
        gaps, s_w = ctx.gaps[weighted[-1]], s[weighted][:, None]
        num[weighted] = np.add.reduce((gaps - s_w) * (gaps + s_w) * ctx.overlaps[weighted[-1]],
                                      axis=1)
    values, bad = np.sqrt(_side_sums(num / denom, g.sides) / g.q[:, None]), denom <= 0.0
    if bad.any():  # a degenerate denominator makes its side inf
        values[np.logical_or.reduce(bad[..., None, :] & g.sides, axis=-1)] = math.inf
    direct, inter = values[..., 0], values[..., 1]
    least = np.where(inter < direct, inter, direct)[..., None]  # the first, unless greater
    return [BoundTable((f"full_main_kappa_{policy.mode}",), least[p], True,
                       (ctx.lazy_digest, g.a, g.a_tilde, policy.__repr__),
                       dict(direct_value=direct[p], interchanged_value=inter[p],
                            kappa_direct=(kappas[p], g.sides[:, 0]),
                            kappa_interchanged=(kappas[p], g.sides[:, 1])))
            for p, policy in enumerate(policies)]


def bound_full_main(ctx: PerturbationContext, a, a_tilde, policy: KappaPolicy = KappaPolicy()):
    """Per-index kappa-parameterized bound; the smaller of its two forms.

    The direct form sums over A against the perturbed split (T, complement),
    the interchanged one over B with the perturbed groups swapped (the
    complement-scaling identity folds its prefactor into 1/q). The detail
    records both and the kappas used.
    """
    table = _full_main_tables(ctx, a, a_tilde, (policy,))[0]
    return table[0] if isinstance(a, IndexPartition) else table


@_quiet
def bound_simplified(ctx: PerturbationContext, a, a_tilde, kappa_a: float = 0.0,
                     kappa_b: float = 0.0):
    """Summed relaxation with one kappa per side; a (part 1, part 2) pair per split.

    Part 1 relaxes each side's denominators to their worst index and takes the
    smaller side; part 2 joins both sides in one Frobenius-norm quotient. A
    square past the float range makes a degenerate denominator.
    """
    g = ctx.split_gaps(a, a_tilde)
    other_min, own_max = np.minimum.reduce(
        np.where(g.sides, np.array((g.other, -g.own))[..., None, :], np.inf), axis=-1)
    own_max = -own_max
    kappas = np.array([kappa_a, kappa_b])
    if kappa_a != 0.0 or kappa_b != 0.0:  # 0 is always admissible
        caps = _kappa_cap(own_max, other_min)
        bad = ~((0.0 <= kappas) & (kappas <= caps))  # the first by split, then A before B
        if bad.any():
            i, side = np.unravel_index(np.argmax(bad), bad.shape)
            raise KappaOutOfRange(f"kappa_{'ab'[side]} = {kappas[side]:g} "
                                  f"outside [0, {caps[i, side]:g}]")
    terms = np.empty((2, *g.own.shape))
    terms[0], terms[1] = ctx.residuals, g.own
    res_sq, own_sq = _side_sums(terms**2, g.sides)
    sq, lost = _squares(np.concatenate((other_min, own_max), axis=1))
    lost, q = lost[:, :2] | lost[:, 2:], g.q[:, None]
    k_own, k_max = kappas * own_sq, kappas * sq[:, 2:]
    den = sq[:, :2] - k_max
    sides = np.sqrt(np.fmax(0.0, res_sq - k_own) / (q * den))
    sides[(den <= 0.0) | lost] = math.inf
    frob_sq, frob_lost = _squares(ctx.frob_norm)
    den2 = sq[:, 0] + sq[:, 1] - k_max[:, 0] - k_max[:, 1]
    part2 = np.sqrt(np.fmax(0.0, frob_sq - k_own[:, 0] - k_own[:, 1]) / (q[:, 0] * den2))
    part2[(den2 <= 0.0) | lost[:, 0] | lost[:, 1] | frob_lost] = math.inf
    table = BoundTable(
        ("simplified_part1", "simplified_part2"),
        np.array((np.where(sides[:, 1] < sides[:, 0], sides[:, 1], sides[:, 0]), part2)).T, True,
        (ctx.lazy_digest, g.a, g.a_tilde, kappa_a, kappa_b),
        dict(kappa_a=np.full(len(q), kappa_a), kappa_b=np.full(len(q), kappa_b)))
    return table[0] if isinstance(a, IndexPartition) else table


@_quiet
def bound_davis_kahan(ctx: PerturbationContext, a, a_tilde):
    """Separation-only bounds from the two mixed eigenvalue-group gaps; a (part 1, part 2)
    pair per split.

    Part 1 divides ||Mtilde - M||_2 by the larger of sep(lam_A, lam'_Bt) and
    sep(lam_B, lam'_At), part 2 ||Mtilde - M||_F by their root-sum-square; a
    vanishing denominator gives +inf with condition_ok False.
    """
    g = ctx.split_gaps(a, a_tilde)
    seps = np.minimum.reduce(np.where(g.sides, g.other[:, None, :], np.inf), axis=-1)
    sep_a_bt, sep_b_at = seps[:, 0], seps[:, 1]
    denom = np.array((np.maximum(sep_a_bt, sep_b_at), _hypot(sep_a_bt, sep_b_at).astype(float))).T
    prefactor = np.minimum(1.0, np.sqrt((ctx.base.n - g.q) / g.q))
    part1 = np.where(denom[:, 0] > 0.0, prefactor * ctx.op_norm / denom[:, 0], math.inf)
    part2 = np.where(denom[:, 1] > 0.0, ctx.frob_norm / (np.sqrt(g.q) * denom[:, 1]), math.inf)
    table = BoundTable(("davis_kahan_part1", "davis_kahan_part2"), np.array((part1, part2)).T,
                       denom > 0.0, (ctx.lazy_digest, g.a, g.a_tilde),
                       dict(sep_a_btilde=sep_a_bt, sep_b_atilde=sep_b_at))
    return table[0] if isinstance(a, IndexPartition) else table


def _half_gap(ctx: PerturbationContext, a) -> tuple[np.ndarray, ...]:
    """The block, each |A|, each lam_j's gap to the other side, each sep(lam_A, lam_B), and
    which splits are wide: ||Mtilde - M||_2 < sep(lam_A, lam_B) / 2, the half-gap condition.

    For one IndexPartition a failure raises GapConditionViolated, with the margin.
    """
    block, q = split_block(ctx, a)
    lam = ctx.base.eigenvalues
    cross = np.minimum.reduce(np.where(block[:, None, :] != block[:, :, None],
                                       np.abs(lam[None, :] - lam[:, None]), np.inf), axis=2)
    gap, op = np.minimum.reduce(cross, axis=1), ctx.op_norm
    wide = op < 0.5 * gap
    if isinstance(a, IndexPartition) and not wide[0]:
        half = 0.5 * float(gap[0])
        raise GapConditionViolated(f"||Mtilde - M||_2 = {op:.6g} not below half the spectral "
                                   f"gap {half:.6g}", margin=half - op)
    return block, q, cross, gap, wide


def _nearest_group(ctx: PerturbationContext, sides: np.ndarray) -> np.ndarray:
    """Per split, the perturbed eigenvalues nearer to A than to B (ties to A); the first
    split that does not get |A| of them raises CardinalityLost."""
    to_side = np.minimum.reduce(np.where(sides[..., None], ctx.gaps, np.inf), axis=2)
    hat = to_side[:, 0] <= to_side[:, 1]
    got, want = np.add.reduce(hat, axis=1), np.add.reduce(sides[:, 0], axis=1)
    if (got != want).any():
        i = np.argmax(got != want)
        raise CardinalityLost(f"nearest-group classification put {got[i]} perturbed "
                              f"eigenvalues on the A side, expected {want[i]}")
    return hat


@_quiet
def hat_partition(ctx: PerturbationContext, a: IndexPartition) -> IndexPartition:
    """Indices of the perturbed eigenvalues nearest to the A group, ties to A as in setdist.

    Valid when ||Mtilde - M||_2 < sep(lam_A, lam_B) / 2; then exactly q of them
    classify to A, and any other count raises CardinalityLost.
    """
    _half_gap(ctx, a)
    hat = _nearest_group(ctx, sides_of(a.mask[None]))[0]
    return IndexPartition(a.n, tuple(np.flatnonzero(hat).tolist()))


@_quiet
def bound_tilde_free(ctx: PerturbationContext, a):
    """Bounds that read only the base spectrum plus norms of the perturbation.

    Requires ||Mtilde - M||_2 < sep(lam_A, lam_B) / 2. Gives the fine per-index
    form (the smaller of the A-sum and B-sum), the coarse separation-only form
    and the Frobenius form, against the lhs at the nearest-group A~, which alone
    reads the perturbed system. A block gives a :class:`TildeFreeTable`.
    """
    block, q, cross, gap, wide = _half_gap(ctx, a)
    a_wide, values, lhs = block[wide], np.empty((0, 3)), np.empty(0)
    hat = a_wide
    if len(a_wide):  # else no split is wide
        q, cross, sides, op, n = q[wide], cross[wide], sides_of(a_wide), ctx.op_norm, ctx.base.n
        hat, margin = _nearest_group(ctx, sides), gap[wide] - op  # margin, cross - op > 0
        fine = np.sqrt(_side_sums((ctx.residuals / (cross - op)) ** 2, sides) / q[:, None])
        coarse = np.minimum(1.0, np.sqrt((n - q) / q)) * op / margin
        part2 = ctx.frob_norm / (np.sqrt(2 * q) * margin)
        values = np.array((np.minimum(fine[:, 0], fine[:, 1]), coarse, part2)).T
        lhs = _dsp(ctx, a_wide, hat, q)
    table = TildeFreeTable(("tilde_free_part1_fine", "tilde_free_part1_coarse", "tilde_free_part2"),
                           values, True, (ctx.lazy_digest, a_wide), {}, lhs, a_wide, hat, wide)
    return table[0] if isinstance(a, IndexPartition) else table


def search_closest_invariant(perturbed: NormalEigenSystem, target,
                             q: int) -> tuple[IndexPartition, float]:
    """Find the q-dimensional invariant subspace of ``perturbed`` nearest to a target.

    The distance to the span of eigenvectors S is sqrt(1 - sum_{j in S} score_j
    / q), score_j the squared norm of eigenvector j's projection on the target,
    so the q largest scores (lower index first on ties) are the lexicographically
    first optimum. Raises DimensionMismatch unless 1 <= q < n and the target is n x q.
    """
    if not 0 < q < perturbed.n:
        raise DimensionMismatch(f"q = {q} must lie in 1..{perturbed.n - 1} for n = {perturbed.n}")
    cols = target.columns if hasattr(target, "columns") else np.asarray(target, complex)
    if cols.shape[0] != perturbed.n or cols.shape[1] != q:
        raise DimensionMismatch(f"target must be {perturbed.n}x{q}, got {cols.shape}")
    scores = np.linalg.norm(cols.conj().T @ perturbed.eigenvectors.columns, axis=0) ** 2
    n = perturbed.n
    ranking = np.argsort(-scores, kind="stable")  # higher score first, lower index on ties
    chosen = tuple(sorted(ranking[:q].tolist()))
    d = float(np.sqrt(max(0.0, 1.0 - scores[list(chosen)].sum() / q)))
    return IndexPartition(n, chosen), d


def evaluate_bounds(ctx: PerturbationContext, a: IndexPartition, a_tilde: IndexPartition,
                    families: tuple[str, ...] = ("full", "simplified", "dk"),
                    policy: KappaPolicy = KappaPolicy()) -> BoundReport:
    """Bundle the tilde-aware bound families (simplified at kappa 0) against one lhs."""
    entries = [bound_full_main(ctx, a, a_tilde, policy)] if "full" in families else []
    if "simplified" in families:
        entries += bound_simplified(ctx, a, a_tilde)
    if "dk" in families:
        entries += bound_davis_kahan(ctx, a, a_tilde)
    return BoundReport(lhs_dsp=dsp_between(ctx, a, a_tilde), bounds=tuple(entries),
                       chosen_a_tilde=a_tilde)
