"""The matrix-side bound families one split at a time: the block code's oracle.

This is the per-split evaluation the families did before they took blocks of
splits, kept here to pin the block code: the same context tables, the same
formulas, and each per-split sum over the split's own indices, so every
bound value must come out equal (``==``). Digests are left empty. The lhs is
the block product ||U_B^H V_A~||_F^2 / q, which the block code replaced by
a sum over the overlap table; the two agree to rounding.

``audit`` is the random-matrix audit as it counted before it read the
tables' columns: one entry at a time, read off the tables' rows.
"""

from __future__ import annotations

import math

import numpy as np

from specbound import experiments
from specbound.bounds import (
    BoundEntry,
    BoundReport,
    IndexPartition,
    KappaPolicy,
    PerturbationContext,
    holds,
)
from specbound.bounds import bound_davis_kahan as block_davis_kahan
from specbound.bounds import bound_full_main as block_full_main
from specbound.bounds import bound_simplified as block_simplified
from specbound.bounds import bound_tilde_free as block_tilde_free
from specbound.bounds import dsp_between as block_dsp_between
from specbound.errors import (
    CardinalityLost,
    DimensionMismatch,
    GapConditionViolated,
    KappaOutOfRange,
    SizeMismatch,
)

KAPPA_EDGE = 1.0 - 1e-12


def _entry(name, value, ok, digest, **detail):
    finite = math.isfinite(value)
    return BoundEntry(name=name, value=value, condition_ok=ok and finite, digest=digest,
                      vacuous=(not finite) or value > 1.0, detail=detail)


def _require_size(ctx, partition):
    if partition.n != ctx.base.n:
        raise DimensionMismatch(
            f"index partition of n = {partition.n} for a pair of n = {ctx.base.n}"
        )


def split_gaps(ctx, a, a_tilde):
    """(own_a, other_a, own_b, other_b): the gap table's minima over one split."""
    _require_size(ctx, a)
    _require_size(ctx, a_tilde)
    if a.q != a_tilde.q:
        raise SizeMismatch(f"|A| = {a.q} but |A~| = {a_tilde.q}")
    at_idx, bt_idx = list(a_tilde.indices), list(a_tilde.complement)
    rows_a, rows_b = ctx.gaps[list(a.indices)], ctx.gaps[list(a.complement)]
    pairs = ((rows_a, at_idx), (rows_a, bt_idx), (rows_b, bt_idx), (rows_b, at_idx))
    return tuple(rows[:, cols].min(axis=1) for rows, cols in pairs)


def dsp_between(ctx, a, a_tilde):
    if a.q != a_tilde.q:
        raise SizeMismatch(f"|A| = {a.q} but |A~| = {a_tilde.q}")
    u_comp = ctx.base.eigenvectors.columns[:, list(a.complement)]
    v_sel = ctx.perturbed.eigenvectors.columns[:, list(a_tilde.indices)]
    cross = np.linalg.norm(u_comp.conj().T @ v_sel) ** 2 / a.q
    return float(np.sqrt(max(0.0, cross)))


def kappa_cap(own, other):
    if own == 0.0:
        return 1.0
    return min(1.0, (other / own) ** 2 * KAPPA_EDGE)


def one_sided_full(ctx, sum_idx, own, other, q, policy):
    res = ctx.residuals[sum_idx]
    if policy.mode == "zero":
        kappas = np.zeros(len(sum_idx))
    elif policy.mode == "tightest":
        take_one = (res < other) & (own**2 <= other**2 * (1.0 - 1e-6))
        kappas = take_one.astype(float)
    else:
        kappas = np.array([policy.fixed_values[j] for j in sum_idx])
        for j, k, own_j, other_j in zip(sum_idx, kappas, own, other):
            cap = kappa_cap(own_j, other_j)
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


def bound_full_main(ctx, a, a_tilde, policy=KappaPolicy()):
    if policy.mode == "fixed" and len(policy.fixed_values) != ctx.base.n:
        raise KappaOutOfRange("fixed_values must have length n")
    own_a, other_a, own_b, other_b = split_gaps(ctx, a, a_tilde)
    direct, kap_d = one_sided_full(ctx, list(a.indices), own_a, other_a, a.q, policy)
    inter, kap_i = one_sided_full(ctx, list(a.complement), own_b, other_b, a.q, policy)
    return _entry(
        f"full_main_kappa_{policy.mode}", min(direct, inter), ok=True, digest="",
        direct_value=direct, interchanged_value=inter,
        kappa_direct=kap_d, kappa_interchanged=kap_i,
    )


def admissible_scalar_kappa(kappa, own_max, other_min, label):
    cap = kappa_cap(own_max, other_min)
    if not 0.0 <= kappa <= cap:
        raise KappaOutOfRange(f"{label} = {kappa:g} outside [0, {cap:g}]")


def bound_simplified(ctx, a, a_tilde, kappa_a=0.0, kappa_b=0.0):
    own_a, other_a, own_b, other_b = split_gaps(ctx, a, a_tilde)
    q = a.q
    res_sq = ctx.residuals**2
    res_a_sq, res_b_sq = res_sq[list(a.indices)], res_sq[list(a.complement)]
    own_a_max, own_b_max = float(own_a.max()), float(own_b.max())
    other_a_min, other_b_min = float(other_a.min()), float(other_b.min())
    admissible_scalar_kappa(kappa_a, own_a_max, other_a_min, "kappa_a")
    admissible_scalar_kappa(kappa_b, own_b_max, other_b_min, "kappa_b")

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
    den2 = other_a_min**2 + other_b_min**2 - kappa_a * own_a_max**2 - kappa_b * own_b_max**2
    part2 = math.inf if den2 <= 0.0 else float(np.sqrt(num2 / (q * den2)))
    detail = {"kappa_a": kappa_a, "kappa_b": kappa_b}
    return (
        _entry("simplified_part1", part1, ok=True, digest="", **detail),
        _entry("simplified_part2", part2, ok=True, digest="", **detail),
    )


def bound_davis_kahan(ctx, a, a_tilde):
    n, q = a.n, a.q
    _, other_a, _, other_b = split_gaps(ctx, a, a_tilde)
    sep_a_bt, sep_b_at = float(other_a.min()), float(other_b.min())
    op, frob = ctx.op_norm, ctx.frob_norm
    denom1 = max(sep_a_bt, sep_b_at)
    denom2 = math.hypot(sep_a_bt, sep_b_at)
    prefactor = min(1.0, np.sqrt((n - q) / q))
    part1 = float(prefactor * op / denom1) if denom1 > 0.0 else math.inf
    part2 = float(frob / (np.sqrt(q) * denom2)) if denom2 > 0.0 else math.inf
    detail = {"sep_a_btilde": sep_a_bt, "sep_b_atilde": sep_b_at}
    return (
        _entry("davis_kahan_part1", part1, ok=denom1 > 0.0, digest="", **detail),
        _entry("davis_kahan_part2", part2, ok=denom2 > 0.0, digest="", **detail),
    )


def half_gap(ctx, a):
    _require_size(ctx, a)
    lam = ctx.base.eigenvalues
    cross = np.abs(lam[list(a.complement)][None, :] - lam[list(a.indices)][:, None])
    gap, op = float(cross.min()), ctx.op_norm
    if not op < 0.5 * gap:
        raise GapConditionViolated("half-gap condition fails", margin=0.5 * gap - op)
    return cross.min(axis=1), cross.min(axis=0)


def hat_partition(ctx, a):
    half_gap(ctx, a)
    d_to_a = ctx.gaps[list(a.indices)].min(axis=0)
    d_to_b = ctx.gaps[list(a.complement)].min(axis=0)
    hat = np.flatnonzero(d_to_a <= d_to_b)
    if len(hat) != a.q:
        raise CardinalityLost(f"{len(hat)} on the A side, expected {a.q}")
    return IndexPartition(a.n, tuple(hat.tolist()))


def bound_tilde_free(ctx, a):
    gap_a, gap_b = half_gap(ctx, a)
    op, res = ctx.op_norm, ctx.residuals
    gap = float(gap_a.min())
    q, n = a.q, a.n
    fine = min(
        float(np.sqrt(((res[list(a.indices)] / (gap_a - op)) ** 2).sum() / q)),
        float(np.sqrt(((res[list(a.complement)] / (gap_b - op)) ** 2).sum() / q)),
    )
    coarse = float(min(1.0, np.sqrt((n - q) / q)) * op / (gap - op))
    part2 = float(ctx.frob_norm / (np.sqrt(2 * q) * (gap - op)))
    a_hat = hat_partition(ctx, a)
    entries = (
        _entry("tilde_free_part1_fine", fine, ok=True, digest=""),
        _entry("tilde_free_part1_coarse", coarse, ok=True, digest=""),
        _entry("tilde_free_part2", part2, ok=True, digest=""),
    )
    return BoundReport(lhs_dsp=dsp_between(ctx, a, a_hat), bounds=entries, chosen_a_tilde=a_hat)


def side_sums(x, sides):
    """(k, 2): the sums of ``x`` (k, n) over each split's sides, as the block code first
    formed them: one running sum along the row for sides of fewer than 8 terms, and
    numpy's own sum of each longer side, gathered per side length."""
    parts = np.where(sides, x[:, None, :], 0.0)
    sums = np.add.accumulate(parts, axis=2)[..., -1]
    lengths = sides.sum(axis=2)
    for length in set(lengths[lengths >= 8].tolist()):
        at = np.nonzero(lengths == length)
        sums[at] = parts[at][sides[at]].reshape(-1, length).sum(axis=1)
    return sums


def _record(summary, label, lhs, entry):
    if not entry.condition_ok:
        return
    summary.bounds_evaluated += 1
    summary.conditions_satisfied += 1
    if not entry.holds(lhs):
        summary.violations += 1
        summary.violation_labels.append(label)
    if entry.value > 0:
        summary.worst_slack_ratio = max(summary.worst_slack_ratio, lhs / entry.value)


def audit(count, n_max=10, seed=0):
    """``experiments.audit_random_matrices``, recording one entry at a time."""
    summary = experiments.AuditSummary()
    for child in experiments.phase_seeds(seed, count):
        rng = experiments._rng(child)
        n = int(rng.integers(2, n_max + 1))
        hermitian = bool(rng.integers(2))
        m, m_t = experiments.random_normal_pair(n, rng, hermitian=hermitian)
        ctx = PerturbationContext(experiments.decompose_normal(m),
                                  experiments.decompose_normal(m_t), m_t - m)
        summary.instances += 1
        summary.identity_checks += 3
        checks = (("coupling_matrix_identity", experiments.coupling_matrix(ctx).self_check_ok),
                  ("residual_norm_identity", experiments.residual_norms(ctx).self_check_ok),
                  ("bauer_fike", holds(experiments.bauer_fike_gap(ctx), ctx.op_norm)))
        for label, ok in checks:
            if not ok:
                summary.violations += 1
                summary.violation_labels.append(label)
        a, rand_tilde = np.zeros((2, n - 1, n), dtype=bool)
        for row in range(n - 1):
            a[row, rng.choice(n, row + 1, replace=False)] = True
            rand_tilde[row, rng.choice(n, row + 1, replace=False)] = True
        hats = {row: tf for row, tf in enumerate(block_tilde_free(ctx, a)) if tf is not None}
        pairs = (a[[*range(n - 1), *hats]],
                 np.array([*rand_tilde, *(tf.chosen_a_tilde.mask for tf in hats.values())]))
        for lhs, zero, tightest, simplified, dk in zip(
            block_dsp_between(ctx, *pairs).tolist(),
            block_full_main(ctx, *pairs, KappaPolicy("zero")),
            block_full_main(ctx, *pairs, KappaPolicy("tightest")),
            block_simplified(ctx, *pairs),
            block_davis_kahan(ctx, *pairs),
        ):
            _record(summary, "full_main_zero", lhs, zero)
            _record(summary, "full_main_tightest", lhs, tightest)
            for entry in (*simplified, *dk):
                _record(summary, entry.name, lhs, entry)
        for tf in hats.values():
            for entry in tf.bounds:
                _record(summary, entry.name, tf.lhs_dsp, entry)
    return summary
