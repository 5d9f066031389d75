"""The shared perturbation context: the one input of every bound family.

Each family, reading its pair from a PerturbationContext, must match an
independent per-family recomputation from the raw difference (the formulas
as each family evaluated them on its own before the context existed). The
one documented difference is the kappa-weighted numerator of the main bound,
now taken through the coupling identity instead of as r^2 - kappa own^2;
there the two agree to the rounding of the old subtraction.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbound import (
    IndexPartition,
    KappaPolicy,
    OrthonormalFrame,
    PerturbationContext,
    bound_davis_kahan,
    bound_full_main,
    bound_simplified,
    bound_tilde_free,
    complement_frame,
    decompose_normal,
    dsp_between,
    evaluate_bounds,
    hat_partition,
)
from specbound import bounds, cli, experiments, fileio, spectral
from specbound.errors import (
    CardinalityLost,
    DimensionMismatch,
    GapConditionViolated,
    RankDeficient,
    SizeMismatch,
)
from specbound.experiments import audit_random_matrices, random_normal_pair

from conftest import make_rng


# -- the per-family recomputation each family did before the context --------


def _old_min_gaps(lam_from, lam_to):
    return np.abs(lam_to[None, :] - lam_from[:, None]).min(axis=1)


def _old_side_full(res, own, other, q, mode, delta):
    """(value, kappas, err) as the main bound's side was evaluated before.

    ``err`` is a first-order bound on the error of value^2 when r, own and
    other are each off by up to ``delta`` and every square rounds once: the
    subtractions r^2 - kappa own^2 and other^2 - kappa own^2 amplify exactly
    these errors when they cancel.
    """
    eps = np.finfo(float).eps
    total, err, kappas = 0.0, 0.0, []
    for r, o, t in zip(res, own, other):
        if mode == "zero":
            k = 0.0
        else:
            k = 1.0 if (r < t and o**2 <= t**2 * (1.0 - 1e-6)) else 0.0
        kappas.append(k)
        num, denom = r**2 - k * o**2, t**2 - k * o**2
        if denom <= 0.0:
            return math.inf, kappas, math.inf
        total += max(0.0, num) / denom
        d_num = 2 * (r + k * o) * delta + eps * (r**2 + k * o**2)
        d_den = 2 * (t + k * o) * delta + eps * (t**2 + k * o**2)
        err += d_num / denom + abs(num) * d_den / denom**2
    return math.sqrt(total / q), kappas, err / q


def old_full_main(base, pert, diff, a, at, mode):
    lam, lam_t, u = base.eigenvalues, pert.eigenvalues, base.eigenvectors.columns
    a_idx, b_idx = list(a.indices), list(a.complement)
    at_idx, bt_idx = list(at.indices), list(at.complement)
    res_a = np.linalg.norm(diff @ u[:, a_idx], axis=0)
    res_b = np.linalg.norm(diff @ u[:, b_idx], axis=0)
    # Backward-stable eigensolvers leave eigenvalue errors and eigenpair
    # residuals of a small multiple of eps * ||M||; residuals and gaps
    # inherit them as absolute errors.
    delta = 4 * a.n * np.finfo(float).eps * (base.source_norm + pert.source_norm)
    direct = _old_side_full(
        res_a, _old_min_gaps(lam[a_idx], lam_t[at_idx]),
        _old_min_gaps(lam[a_idx], lam_t[bt_idx]), a.q, mode, delta,
    )
    inter = _old_side_full(
        res_b, _old_min_gaps(lam[b_idx], lam_t[bt_idx]),
        _old_min_gaps(lam[b_idx], lam_t[at_idx]), a.q, mode, delta,
    )
    return direct, inter


def old_simplified(base, pert, diff, a, at):
    lam, lam_t, u = base.eigenvalues, pert.eigenvalues, base.eigenvectors.columns
    a_idx, b_idx = list(a.indices), list(a.complement)
    at_idx, bt_idx = list(at.indices), list(at.complement)
    q = a.q
    res_a_sq = np.linalg.norm(diff @ u[:, a_idx], axis=0) ** 2
    res_b_sq = np.linalg.norm(diff @ u[:, b_idx], axis=0) ** 2
    other_a = _old_min_gaps(lam[a_idx], lam_t[bt_idx]).min()
    other_b = _old_min_gaps(lam[b_idx], lam_t[at_idx]).min()

    def side(res_sq, other_min):
        return math.inf if other_min == 0 else math.sqrt(res_sq.sum() / (q * other_min**2))

    part1 = min(side(res_a_sq, other_a), side(res_b_sq, other_b))
    den2 = other_a**2 + other_b**2
    frob_sq = np.linalg.norm(diff) ** 2
    part2 = math.inf if den2 <= 0 else math.sqrt(frob_sq / (q * den2))
    return part1, part2


def old_davis_kahan(base, pert, diff, a, at):
    lam, lam_t = base.eigenvalues, pert.eigenvalues
    n, q = a.n, a.q
    sep_a_bt = np.abs(lam[list(a.indices)][:, None] - lam_t[list(at.complement)][None, :]).min()
    sep_b_at = np.abs(lam[list(a.complement)][:, None] - lam_t[list(at.indices)][None, :]).min()
    op = np.linalg.norm(diff, 2)
    denom1, denom2 = max(sep_a_bt, sep_b_at), math.hypot(sep_a_bt, sep_b_at)
    part1 = min(1.0, math.sqrt((n - q) / q)) * op / denom1 if denom1 > 0 else math.inf
    part2 = np.linalg.norm(diff) / (math.sqrt(q) * denom2) if denom2 > 0 else math.inf
    return part1, part2


def old_tilde_free(base, diff, a):
    lam, u = base.eigenvalues, base.eigenvectors.columns
    a_idx, b_idx = list(a.indices), list(a.complement)
    q, n = a.q, a.n
    op = np.linalg.norm(diff, 2)
    gap = np.abs(lam[a_idx][:, None] - lam[b_idx][None, :]).min()
    res_a = np.linalg.norm(diff @ u[:, a_idx], axis=0)
    res_b = np.linalg.norm(diff @ u[:, b_idx], axis=0)
    gap_a = _old_min_gaps(lam[a_idx], lam[b_idx]) - op
    gap_b = _old_min_gaps(lam[b_idx], lam[a_idx]) - op
    fine = min(
        math.sqrt(((res_a / gap_a) ** 2).sum() / q),
        math.sqrt(((res_b / gap_b) ** 2).sum() / q),
    )
    coarse = min(1.0, math.sqrt((n - q) / q)) * op / (gap - op)
    part2 = np.linalg.norm(diff) / (math.sqrt(2 * q) * (gap - op))
    return fine, coarse, part2


def close(got, expected, rel=1e-12):
    if math.isinf(expected):
        return math.isinf(got)
    return got == pytest.approx(expected, rel=rel, abs=1e-300)


# -- hypothesis instances -----------------------------------------------------


@st.composite
def normal_pairs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 12))
    hermitian = draw(st.booleans())
    scale = draw(st.sampled_from([1e-6, 1e-3, 0.05, 0.3]))
    rng = make_rng(seed)
    m, mt = random_normal_pair(n, rng, hermitian=hermitian, scale=scale)
    base, pert = decompose_normal(m), decompose_normal(mt)
    splits = []
    for q in range(1, n):
        a = IndexPartition(n, tuple(rng.choice(n, q, replace=False).tolist()))
        at = IndexPartition(n, tuple(rng.choice(n, q, replace=False).tolist()))
        splits += [(a, at), (a, a)]  # one A against two A~ in a row, as the audit does
    return m, mt, base, pert, splits


class TestContextMatchesRawCalls:
    @settings(max_examples=60, deadline=None)
    @given(normal_pairs())
    def test_every_family_every_split(self, instance):
        m, mt, base, pert, splits = instance
        diff = mt - m
        ctx = PerturbationContext(base, pert, diff)
        for a, at in splits:
            for mode in ("zero", "tightest"):
                policy = KappaPolicy(mode)
                entry = bound_full_main(ctx, a, at, policy)
                (d_val, d_kap, d_err), (i_val, i_kap, i_err) = old_full_main(
                    base, pert, diff, a, at, mode
                )
                assert entry.detail["kappa_direct"] == d_kap
                assert entry.detail["kappa_interchanged"] == i_kap
                for got, old, kap, err in (
                    (entry.detail["direct_value"], d_val, d_kap, d_err),
                    (entry.detail["interchanged_value"], i_val, i_kap, i_err),
                ):
                    if not any(kap):
                        assert close(got, old)
                    elif not math.isinf(old):
                        # Documented difference: the coupling-identity
                        # numerator, against the old form's cancelling
                        # subtractions and the input errors they amplify.
                        assert abs(got**2 - old**2) <= err
            simplified = bound_simplified(ctx, a, at)
            for entry, old in zip(simplified, old_simplified(base, pert, diff, a, at)):
                assert close(entry.value, old)
            dk = bound_davis_kahan(ctx, a, at)
            for entry, old in zip(dk, old_davis_kahan(base, pert, diff, a, at)):
                assert close(entry.value, old)
            bundle = evaluate_bounds(ctx, a, at)
            assert bundle.bounds == (bound_full_main(ctx, a, at), *simplified, *dk)
            assert bundle.lhs_dsp == dsp_between(base, pert, a, at)
            try:
                hat = hat_partition(ctx, a)
            except GapConditionViolated:
                with pytest.raises(GapConditionViolated):
                    bound_tilde_free(ctx, a)
                continue
            report = bound_tilde_free(ctx, a)
            assert report.chosen_a_tilde == hat
            assert report.lhs_dsp == dsp_between(base, pert, a, hat)
            for entry, old in zip(report.bounds, old_tilde_free(base, diff, a)):
                assert close(entry.value, old)


class TestContext:
    def test_tables(self, rng):
        m, mt = random_normal_pair(5, rng)
        base, pert = decompose_normal(m), decompose_normal(mt)
        ctx = PerturbationContext(base, pert, mt - m)
        assert ctx.op_norm == spectral.two_norm(mt - m)
        assert ctx.frob_norm == pytest.approx(np.linalg.norm(mt - m), rel=1e-15)
        u, v = base.eigenvectors.columns, pert.eigenvectors.columns
        for j in range(5):
            assert ctx.residuals[j] == pytest.approx(np.linalg.norm((mt - m) @ u[:, j]))
            for k in range(5):
                gap = np.abs(pert.eigenvalues[k] - base.eigenvalues[j])
                assert ctx.gaps[j, k] == gap
                assert ctx.overlaps[j, k] == pytest.approx(abs(np.vdot(u[:, j], v[:, k])) ** 2)
        assert np.allclose(ctx.overlaps.sum(axis=1), 1.0)
        assert ctx.op_norm is ctx.op_norm and ctx.gaps is ctx.gaps
        for table in (ctx.diff, ctx.residuals, ctx.gaps, ctx.overlaps):
            assert not table.flags.writeable

    def test_complement_computed_once(self):
        a = IndexPartition(6, (4, 1))
        assert a.complement == (0, 2, 3, 5)
        assert a.complement is a.complement


class TestIdentityChecksReadTheContext:
    """The coupling and residual checks take one side of each identity from
    the context and form only the other side, from the difference itself."""

    @staticmethod
    def context(rng):
        m, mt = random_normal_pair(5, rng)
        base, pert = decompose_normal(m), decompose_normal(mt)
        return PerturbationContext(base, pert, mt - m)

    def test_same_result_as_the_raw_difference(self, rng):
        # A context whose tables are already cached gives what a fresh one,
        # built from the raw difference, gives.
        ctx = self.context(rng)
        res = spectral.residual_norms(ctx)
        assert res.per_base_vector is ctx.residuals
        assert res.op_norm == ctx.op_norm and res.frob_norm == ctx.frob_norm
        fresh = PerturbationContext(ctx.base, ctx.perturbed, np.array(ctx.diff))
        raw = spectral.residual_norms(fresh)
        assert np.array_equal(res.per_perturbed_vector, raw.per_perturbed_vector)
        assert res.max_rel_error == raw.max_rel_error and res.self_check_ok
        coupling = spectral.coupling_matrix(ctx)
        raw_coupling = spectral.coupling_matrix(fresh)
        assert np.array_equal(coupling.matrix, raw_coupling.matrix)
        assert coupling.self_check_ok

    @pytest.mark.parametrize("table", ["inner", "residuals", "gaps", "overlaps", "diff"])
    def test_a_wrong_context_table_fails_the_check(self, rng, table):
        ctx = self.context(rng)
        diff = np.array(ctx.diff)
        for name in ("inner", "residuals", "gaps", "overlaps", "op_norm", "frob_norm"):
            getattr(ctx, name)  # every table from the true difference
        # Plant one 0.1 % off, as if the context had held it. The checks' own
        # sides, U^H (Mtilde - M) V and (Mtilde - M) V, read the planted diff.
        ctx.__dict__[table] = getattr(ctx, table) * 1.001
        checks = {
            "inner": [spectral.coupling_matrix],
            "diff": [spectral.coupling_matrix, spectral.residual_norms],
        }.get(table, [spectral.residual_norms])
        control = PerturbationContext(ctx.base, ctx.perturbed, diff)
        for check in checks:
            assert not check(ctx).self_check_ok
            assert check(control).self_check_ok


class TestCancellationFreeNumerator:
    def test_audit_seed_no_longer_violates(self):
        # n = 2, Hermitian, A = A~ = {2}: the interchanged form's
        # r_b^2 - own_b^2 and other_b^2 - own_b^2 both cancel ~1e6-fold.
        summary = audit_random_matrices(1, 10, 5679358101977551945)
        assert summary.violations == 0, summary.violation_labels

    @staticmethod
    def rotated_pair(angle, jitter):
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        lam = np.array([2.0, 2.3])
        m = np.diag(lam).astype(complex)
        mt = ((rot * (lam + np.array(jitter))) @ rot.T).astype(complex)
        return m, mt

    @staticmethod
    def audit_seed_pair():
        """The audit's Hermitian 2x2 pair at seed 5679358101977551945."""
        rng = experiments._rng(experiments.phase_seeds(5679358101977551945, 1)[0])
        assert int(rng.integers(2, 11)) == 2 and bool(rng.integers(2))
        return random_normal_pair(2, rng, hermitian=True)

    @pytest.mark.parametrize(
        "angle, jitter",
        [(1e-3, (0.0, 0.0)), (0.0265, (0.05, -0.02)), (0.1, (1e-7, 1e-7)), (0.4, (0.0, 0.0)),
         (None, None)],
    )
    def test_two_dimensional_kappa_one_is_an_equality(self, angle, jitter):
        # In 2-D with kappa = 1 on a side, that side's bound is exactly
        # sin(theta), the distance itself.
        if angle is None:
            m, mt = self.audit_seed_pair()
        else:
            m, mt = self.rotated_pair(angle, jitter)
        base, pert = decompose_normal(m), decompose_normal(mt)
        ctx = PerturbationContext(base, pert, mt - m)
        a = IndexPartition(2, (1,))
        entry = bound_full_main(ctx, a, a, KappaPolicy("tightest"))
        assert entry.detail["kappa_direct"] == [1.0]
        assert entry.detail["kappa_interchanged"] == [1.0]
        lhs = dsp_between(base, pert, a, a)
        if angle is not None:
            assert lhs == pytest.approx(math.sin(angle), rel=1e-9)
        for side in ("direct_value", "interchanged_value"):
            assert entry.detail[side] == pytest.approx(lhs, rel=1e-12)
        assert entry.holds(lhs)


class TestTypedInvariants:
    def test_hat_partition_cardinality(self, monkeypatch):
        base = decompose_normal(np.diag([0.0, 1.0]))
        pert = decompose_normal(np.diag([0.1, 0.2]))
        a = IndexPartition(2, (0,))
        ctx = PerturbationContext(base, pert, np.diag([0.1, -0.8]))
        with pytest.raises(GapConditionViolated):
            hat_partition(ctx, a)
        # Past a (disabled) half-gap check both perturbed values sit nearer 0.
        monkeypatch.setattr(bounds, "_half_gap", lambda ctx, a: None)
        with pytest.raises(CardinalityLost):
            hat_partition(ctx, a)

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize(
        "family",
        [
            lambda ctx, a: bound_full_main(ctx, a, a),
            lambda ctx, a: bound_full_main(ctx, a, a, KappaPolicy("tightest")),
            lambda ctx, a: bound_simplified(ctx, a, a),
            lambda ctx, a: bound_davis_kahan(ctx, a, a),
            lambda ctx, a: evaluate_bounds(ctx, a, a),
            bound_tilde_free,
            hat_partition,
        ],
        ids=["full_zero", "full_tightest", "simplified", "dk", "evaluate", "tilde_free", "hat"],
    )
    def test_partition_of_another_n(self, family, n):
        # On the n = 4 pair a partition of n = 3 used to drop index 3 from its
        # complement (a wrong bound, no error) and one of n = 5 to overrun the
        # tables (IndexError).
        m, mt = np.diag([0.0, 1.0, 2.0, 3.0]), np.diag([0.1, 1.0, 2.0, 3.5])
        ctx = PerturbationContext(decompose_normal(m), decompose_normal(mt), mt - m)
        with pytest.raises(DimensionMismatch, match=f"n = {n}"):
            family(ctx, IndexPartition(n, (0,)))

    def test_split_sizes_checked_by_the_context(self):
        m, mt = np.diag([0.0, 1.0, 2.0, 3.0]), np.diag([0.1, 1.0, 2.0, 3.5])
        ctx = PerturbationContext(decompose_normal(m), decompose_normal(mt), mt - m)
        a = IndexPartition(4, (0,))
        ctx.split_gaps(a, a)  # cached under the indices alone, which n = 5 shares
        with pytest.raises(DimensionMismatch):
            ctx.split_gaps(IndexPartition(5, (0,)), a)
        for family in (bound_full_main, bound_simplified, bound_davis_kahan):
            with pytest.raises(SizeMismatch):
                family(ctx, a, IndexPartition(4, (0, 1)))

    def test_complement_frame_short_sweep(self, monkeypatch):
        frame = OrthonormalFrame(np.eye(3)[:, :1])
        assert complement_frame(frame).q == 2
        # A projector onto everything leaves no residual to sweep.
        monkeypatch.setattr(OrthonormalFrame, "projector", lambda self: np.eye(self.n))
        with pytest.raises(RankDeficient):
            complement_frame(frame)


# -- how often the expensive steps run ----------------------------------------


class Counter:
    """Counts decompose_normal calls, U^H V tables and 2-norms taken of one matrix."""

    def __init__(self, monkeypatch):
        self.decompositions = 0
        self.inner_tables = 0
        self.norms_of: list[np.ndarray] = []
        original = spectral.decompose_normal
        inner = PerturbationContext.__dict__["inner"]
        original_inner = inner.func

        def count_inner(ctx):
            self.inner_tables += 1
            return original_inner(ctx)

        monkeypatch.setattr(inner, "func", count_inner)

        def decompose(*args, **kwargs):
            self.decompositions += 1
            return original(*args, **kwargs)

        for module in (spectral, bounds, cli, experiments):
            if getattr(module, "decompose_normal", None) is original:
                monkeypatch.setattr(module, "decompose_normal", decompose)
        norm = np.linalg.norm

        def counting_norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                self.norms_of.append(np.array(x))
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)

    def norms_taken_of(self, mat) -> int:
        return sum(
            1 for x in self.norms_of if x.shape == mat.shape and np.array_equal(x, mat)
        )


def test_bounds_command_decomposes_twice_and_takes_one_norm(tmp_path, monkeypatch):
    # The one 2-norm is the perturbation's: a normal matrix's own 2-norm is
    # its largest eigenvalue modulus, which the decomposition reads off.
    rng = make_rng(7)
    m, mt = random_normal_pair(6, rng, scale=0.01)
    base_path, pert_path = tmp_path / "m.mat", tmp_path / "mt.mat"
    fileio.save_matrix(base_path, m)
    fileio.save_matrix(pert_path, mt)
    diff = fileio.load_matrix(pert_path) - fileio.load_matrix(base_path)
    counter = Counter(monkeypatch)
    argv = ["bounds", "--base", str(base_path), "--perturbed", str(pert_path),
            "--set-a", "1,2", "--mode", "all", "--kappa", "tightest", "--json"]
    assert cli.main(argv) == 0
    assert counter.decompositions == 2
    assert len(counter.norms_of) == 1
    assert counter.norms_taken_of(diff) == 1


def test_audit_instance_takes_one_norm_of_the_difference(monkeypatch):
    pairs = []
    original = experiments.random_normal_pair

    def recording(*args, **kwargs):
        pairs.append(original(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(experiments, "random_normal_pair", recording)
    counter = Counter(monkeypatch)
    for seed in range(6):
        counter.decompositions, counter.inner_tables, counter.norms_of = 0, 0, []
        audit_random_matrices(1, n_max=6, seed=seed)
        m, mt = pairs[-1]
        assert counter.decompositions == 2
        assert counter.norms_taken_of(mt - m) == 1
        assert counter.inner_tables == 1  # the identity checks read the audit's context
