"""The shared perturbation context: the one input of every bound family.

Each family, reading its pair from a PerturbationContext, must match an
independent per-family recomputation from the raw difference (the formulas
as each family evaluated them on its own before the context existed). The
one documented difference is the kappa-weighted numerator of the main bound,
now taken through the coupling identity instead of as r^2 - kappa own^2;
there the two agree to the rounding of the old subtraction.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbound import (
    IndexPartition,
    KappaPolicy,
    PerturbationContext,
    bound_davis_kahan,
    bound_full_main,
    bound_simplified,
    bound_tilde_free,
    decompose_normal,
    dsp_between,
    evaluate_bounds,
    hat_partition,
)
from specbound import bounds, cli, experiments, fileio, spectral
from specbound.bounds import HOLDS_REL_TOL
from specbound.errors import (
    CardinalityLost,
    DimensionMismatch,
    GapConditionViolated,
    KappaOutOfRange,
    SizeMismatch,
)
from specbound.experiments import audit_random_matrices, random_normal_pair

import split_oracle as oracle
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
            assert bundle.lhs_dsp == dsp_between(ctx, a, at)
            try:
                hat = hat_partition(ctx, a)
            except GapConditionViolated:
                with pytest.raises(GapConditionViolated):
                    bound_tilde_free(ctx, a)
                continue
            report = bound_tilde_free(ctx, a)
            assert report.chosen_a_tilde == hat
            assert report.lhs_dsp == dsp_between(ctx, a, hat)
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
        lhs = dsp_between(ctx, a, a)
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
        ctx.split_gaps(a, a)  # cached under both masks and their shape
        with pytest.raises(DimensionMismatch):
            ctx.split_gaps(IndexPartition(5, (0,)), a)
        for family in (bound_full_main, bound_simplified, bound_davis_kahan):
            with pytest.raises(SizeMismatch):
                family(ctx, a, IndexPartition(4, (0, 1)))


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


def _shifted_pairs(monkeypatch, factor, moved=1.0):
    """Make the audit draw (factor M, factor M + 1e-4 I) for each base M it draws, and
    hand its context the difference divided by ``moved``: at ``moved`` = 3 the
    perturbed eigenvalues move by three times the perturbation's 2-norm."""
    original = experiments.random_normal_pair

    def shifted(n, rng, hermitian=False):
        m, _ = original(n, rng, hermitian=hermitian)
        return factor * m, factor * m + 1e-4 * np.eye(n)

    def context(base, pert, diff):
        return PerturbationContext(base, pert, diff / moved)

    monkeypatch.setattr(experiments, "random_normal_pair", shifted)
    for module in (experiments, oracle):
        monkeypatch.setattr(module, "PerturbationContext", context)


@pytest.mark.parametrize("factor", [1e-6, 1.0, 1e4, 1e8])
def test_audit_bauer_fike_at_the_pairs_unit(monkeypatch, factor):
    # The gap carries eigenvalue rounding of about eps ||M||, 1e-12 at 1e4.
    _shifted_pairs(monkeypatch, factor)
    assert "bauer_fike" not in audit_random_matrices(200, 10, seed=5).violation_labels
    assert "bauer_fike" not in oracle.audit(20, 10, seed=5).violation_labels


@pytest.mark.parametrize("factor", [1e-6, 1.0, 1e4])
def test_audit_bauer_fike_fails_eigenvalues_moved_past_the_norm(monkeypatch, factor):
    # (At 1e8 a move of 2e-4 is within the check's slack, 1e-12 ||M||.)
    _shifted_pairs(monkeypatch, factor, moved=3.0)
    assert audit_random_matrices(50, 10, seed=5).violation_labels.count("bauer_fike") == 50
    assert oracle.audit(10, 10, seed=5).violation_labels.count("bauer_fike") == 10


# -- blocks of splits against the per-split oracle ----------------------------


def _fields(entry):
    """Everything of an entry but its digest, which the oracle leaves empty."""
    return entry.name, entry.value, entry.condition_ok, entry.vacuous, entry.detail


def _lhs_close(got, expected):
    # Both forms add up the same |u_j^H v_j'|^2, rounded differently: an
    # absolute difference of order eps, 1e-12 relative unless d is tiny
    # (d ~ 1e-7 on the scale-1e-6 pairs).
    return got == pytest.approx(expected, rel=1e-12, abs=1e-15)


def _block(partitions):
    return np.array([p.mask for p in partitions])


def _draw(rng, n, q):
    return IndexPartition(n, tuple(rng.choice(n, q, replace=False).tolist()))


@st.composite
def split_blocks(draw, n_max=12):
    """A random pair, one A per size, and A against a random A~, itself and its hat."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, n_max))
    hermitian = draw(st.booleans())
    scale = draw(st.sampled_from([1e-6, 1e-3, 0.05, 0.3]))
    rng = make_rng(seed)
    m, mt = random_normal_pair(n, rng, hermitian=hermitian, scale=scale)
    ctx = PerturbationContext(decompose_normal(m), decompose_normal(mt), mt - m)
    sets = [_draw(rng, n, q) for q in range(1, n)]  # |A| = 1 through |B| = 1
    splits = []
    for a in sets:
        splits += [(a, _draw(rng, n, a.q)), (a, a)]
        try:
            splits.append((a, oracle.hat_partition(ctx, a)))
        except GapConditionViolated:
            pass
    return ctx, sets, splits


class TestBlocksMatchThePerSplitOracle:
    @settings(max_examples=60, deadline=None)
    @given(split_blocks())
    def test_every_family_on_one_block(self, instance):
        ctx, sets, splits = instance
        a, a_tilde = _block([s[0] for s in splits]), _block([s[1] for s in splits])
        policies = (KappaPolicy("zero"), KappaPolicy("tightest"))
        full = [bound_full_main(ctx, a, a_tilde, policy) for policy in policies]
        simplified = bound_simplified(ctx, a, a_tilde)
        dk = bound_davis_kahan(ctx, a, a_tilde)
        lhs = dsp_between(ctx, a, a_tilde)
        assert len(lhs) == len(dk) == len(splits)
        for k, (pa, pt) in enumerate(splits):
            for policy, entries in zip(policies, full):
                assert _fields(entries[k]) == _fields(oracle.bound_full_main(ctx, pa, pt, policy))
                assert bound_full_main(ctx, pa, pt, policy) == entries[k]
            expected = (oracle.bound_simplified(ctx, pa, pt), oracle.bound_davis_kahan(ctx, pa, pt))
            for got, old in zip((simplified[k], dk[k]), expected):
                assert [_fields(e) for e in got] == [_fields(e) for e in old]
            assert bound_simplified(ctx, pa, pt) == simplified[k]
            assert bound_davis_kahan(ctx, pa, pt) == dk[k]
            assert _lhs_close(lhs[k], oracle.dsp_between(ctx, pa, pt))
            assert dsp_between(ctx, pa, pt) == lhs[k]

        reports = bound_tilde_free(ctx, _block(sets))
        for pa, report in zip(sets, reports):
            try:
                expected = oracle.bound_tilde_free(ctx, pa)
            except GapConditionViolated as exc:
                assert report is None
                with pytest.raises(GapConditionViolated) as raised:
                    bound_tilde_free(ctx, pa)
                assert raised.value.margin == exc.margin
                with pytest.raises(GapConditionViolated):
                    hat_partition(ctx, pa)
                continue
            assert report.chosen_a_tilde == expected.chosen_a_tilde == hat_partition(ctx, pa)
            assert [_fields(e) for e in report.bounds] == [_fields(e) for e in expected.bounds]
            assert _lhs_close(report.lhs_dsp, expected.lhs_dsp)
            assert bound_tilde_free(ctx, pa) == report

    @settings(max_examples=40, deadline=None)
    @given(split_blocks())
    def test_fixed_kappas_at_their_cap(self, instance):
        ctx, _, splits = instance
        for pa, pt in splits:
            caps, _ = _kappa_caps(ctx, pa, pt)
            at_cap = KappaPolicy("fixed", tuple(caps))
            expected = oracle.bound_full_main(ctx, pa, pt, at_cap)
            assert _fields(bound_full_main(ctx, pa, pt, at_cap)) == _fields(expected)
            twice = bound_full_main(ctx, _block([pa, pa]), _block([pt, pt]), at_cap)
            assert [_fields(e) for e in twice] == [_fields(expected)] * 2
            past = KappaPolicy("fixed", tuple(caps * (1 + 1e-9) + 1e-300))
            with pytest.raises(KappaOutOfRange) as old:
                oracle.bound_full_main(ctx, pa, pt, past)
            with pytest.raises(KappaOutOfRange, match=re.escape(str(old.value))):
                bound_full_main(ctx, pa, pt, past)

            own_a, other_a, own_b, other_b = oracle.split_gaps(ctx, pa, pt)
            kappa_a = oracle.kappa_cap(float(own_a.max()), float(other_a.min()))
            kappa_b = oracle.kappa_cap(float(own_b.max()), float(other_b.min()))
            got = bound_simplified(ctx, pa, pt, kappa_a, kappa_b)
            old = oracle.bound_simplified(ctx, pa, pt, kappa_a, kappa_b)
            assert [_fields(e) for e in got] == [_fields(e) for e in old]

    @settings(max_examples=20, deadline=None)
    @given(split_blocks(n_max=8))
    def test_no_fixed_kappa_grid_beats_tightest(self, instance):
        ctx, _, splits = instance
        for pa, pt in splits:
            tied, best, grid = _kappa_grid(ctx, pa, pt)
            if not tied:
                assert min(grid) >= best * (1 - HOLDS_REL_TOL), (grid, best)

    def test_inside_the_tie_margin_the_grid_can_win(self):
        # own = 0.5 and other = 0.5000001 for index 0: r < other, but the
        # ratio is within the margin, so tightest keeps kappa 0 there.
        m, mt = np.diag([0.0, 1.0]), np.diag([0.5, -0.5000001])
        ctx = PerturbationContext(decompose_normal(m), decompose_normal(mt), mt - m)
        tied, best, grid = _kappa_grid(ctx, IndexPartition(2, (0,)), IndexPartition(2, (1,)))
        assert tied
        assert best == pytest.approx(1.0, rel=1e-6) and grid[-1] == 0.0


def _kappa_caps(ctx, pa, pt):
    """(caps, tied) of one split.

    ``caps`` holds each index's largest admissible kappa; ``tied`` says
    whether an index with r < other lies inside the tightest rule's 1e-6 tie
    margin.
    """
    own_a, other_a, own_b, other_b = oracle.split_gaps(ctx, pa, pt)
    caps, tied = np.zeros(pa.n), False
    for idx, own, other in ((pa.indices, own_a, other_a), (pa.complement, own_b, other_b)):
        for j, own_j, other_j in zip(idx, own, other):
            caps[j] = oracle.kappa_cap(own_j, other_j)
        res = ctx.residuals[list(idx)]
        tied |= bool(((res < other) & (own**2 > other**2 * (1.0 - 1e-6))).any())
    return caps, tied


def _kappa_grid(ctx, pa, pt):
    """(tied, tightest value, values at kappas t * caps for 100 t in [0, 1]) of one split.

    Each index's term (r^2 - k own^2) / (other^2 - k own^2) decreases in k
    iff r < other, so the tightest rule's 0-or-1 choice is optimal, except
    on a ``tied`` index (see ``_kappa_caps``).
    """
    caps, tied = _kappa_caps(ctx, pa, pt)
    best = bound_full_main(ctx, pa, pt, KappaPolicy("tightest")).value
    grid = [
        bound_full_main(ctx, pa, pt, KappaPolicy("fixed", tuple(t * caps))).value
        for t in np.linspace(0.0, 1.0, 100)
    ]
    return tied, best, grid


@pytest.mark.parametrize(
    "seed, evaluated, worst",
    [(0, 19779, 1.0000000000000053), (1, 18573, 1.0000000000000275),
     (2, 19308, 1.0000000000000167), (3, 19311, 1.0000000000000093)],
)
def test_audit_summary_of_the_per_split_evaluation(seed, evaluated, worst):
    # The summaries the audit gave when it evaluated one split at a time.
    summary = audit_random_matrices(500, 12, seed).as_dict()
    assert summary.pop("worst_slack_ratio") == pytest.approx(worst, rel=1e-12)
    assert summary == {
        "instances": 500,
        "bounds_evaluated": evaluated,
        "conditions_satisfied": evaluated,
        "identity_checks": 1500,
        "violations": 0,
        "violation_labels": [],
    }


def test_audit_summary_up_to_n_64():
    # The summary of the CI's second audit (`audit --count 200 --n-max 64`).
    summary = audit_random_matrices(200, 64, 0).as_dict()
    assert summary.pop("worst_slack_ratio") == pytest.approx(1.000000000000009, rel=1e-12)
    assert summary == {
        "instances": 200,
        "bounds_evaluated": 39774,
        "conditions_satisfied": 39774,
        "identity_checks": 600,
        "violations": 0,
        "violation_labels": [],
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(2, 12), st.integers(0, 2**64 - 1))
def test_audit_counts_as_the_per_entry_oracle(count, n_max, seed):
    # Every count and the worst slack ratio itself (==) equal the oracle's.
    assert audit_random_matrices(count, n_max, seed).as_dict() == (
        oracle.audit(count, n_max, seed).as_dict())


def test_recorder_on_a_hand_made_table():
    labels = ("p", "q", "r")
    lhs = np.array([0.5, 0.2, 1e-13])
    value = np.array([[0.4, np.inf, np.nan],  # a violation, an inf value, a NaN value
                      [0.0, 0.3, 0.1],  # a value of 0, a ratio, a failed condition
                      [0.0, 1e-13, 2.0]])  # lhs within the absolute slack of 0
    condition_ok = np.array([[True, True, True], [True, True, False], [True, True, True]])
    summary = experiments.AuditSummary()
    summary.record(labels, lhs, value, condition_ok)
    expected = experiments.AuditSummary()
    for row, d in enumerate(lhs.tolist()):
        for label, v, ok in zip(labels, value[row].tolist(), condition_ok[row].tolist()):
            oracle._record(expected, label, d, bounds.BoundEntry(label, v, ok, "", False))
    assert summary.as_dict() == expected.as_dict()
    assert (summary.bounds_evaluated, summary.violations) == (8, 3)
    assert sorted(summary.violation_labels) == ["p", "p", "r"]
    assert summary.worst_slack_ratio == 0.5 / 0.4


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 128), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_side_sums_as_numpy_sums_each_side(n, k, seed):
    rng = make_rng(seed)
    a = np.zeros((k, n), dtype=bool)
    for row in a:
        row[rng.choice(n, int(rng.integers(1, n)), replace=False)] = True
    x = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-8, 9, (k, n))
    sides = spectral.sides_of(a)
    assert np.array_equal(bounds._side_sums(x, sides), oracle.side_sums(x, sides))
    stacked = bounds._side_sums(np.array([x, 3.0 * x]), sides)  # a leading axis of terms
    assert np.array_equal(stacked[1], oracle.side_sums(3.0 * x, sides))


class TestBlocks:
    @staticmethod
    def context():
        m, mt = np.diag([0.0, 1.0, 2.0, 3.0]), np.diag([0.1, 1.0, 2.0, 3.5])
        return PerturbationContext(decompose_normal(m), decompose_normal(mt), mt - m)

    def test_a_block_is_checked_and_reduced_once(self):
        ctx = self.context()
        a = np.array([[True, False, False, False], [True, True, False, False]])
        gaps = ctx.split_gaps(a, a)
        assert ctx.split_gaps(a.copy(), a.copy()) is gaps
        assert np.array_equal(gaps.q, [1, 2])
        with pytest.raises(SizeMismatch, match=re.escape("|A~| = [1, 1]")):
            ctx.split_gaps(a, a[[0, 0]])
        with pytest.raises(DimensionMismatch, match="n = 5"):
            ctx.split_gaps(np.eye(5, dtype=bool)[:1], np.eye(5, dtype=bool)[:1])
        with pytest.raises(DimensionMismatch, match=re.escape("shape (4,)")):
            ctx.split_gaps(a[0], a[0])  # one mask is not a block
        for empty_side in (np.zeros((1, 4), dtype=bool), np.ones((1, 4), dtype=bool)):
            with pytest.raises(ValueError):
                ctx.split_gaps(empty_side, empty_side)

    def test_block_results_come_as_lists(self):
        m, mt = np.diag([0.0, 1.0, 2.0, 4.0]), np.diag([0.1, 1.0, 2.0, 4.6])
        ctx = PerturbationContext(decompose_normal(m), decompose_normal(mt), mt - m)
        a = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 0]], dtype=bool)
        assert len(bound_full_main(ctx, a, a)) == 3
        assert [len(pair) for pair in bound_simplified(ctx, a, a)] == [2, 2, 2]
        assert dsp_between(ctx, a, a).shape == (3,)
        # ||Mtilde - M||_2 = 0.6: only the last split's gap, 2, is over twice that.
        none, also_none, report = bound_tilde_free(ctx, a)
        assert none is None and also_none is None
        assert report.chosen_a_tilde.indices == (0, 1, 2)


class TestDigests:
    @staticmethod
    def pair():
        m, mt = random_normal_pair(5, make_rng(3), scale=0.05)
        return m, mt, PerturbationContext(decompose_normal(m), decompose_normal(mt), mt - m)

    @staticmethod
    def digests(ctx, a, a_tilde):
        return (
            bound_full_main(ctx, a, a_tilde).inputs_digest,
            bound_full_main(ctx, a, a_tilde, KappaPolicy("tightest")).inputs_digest,
            *(e.inputs_digest for e in bound_simplified(ctx, a, a_tilde)),
            *(e.inputs_digest for e in bound_davis_kahan(ctx, a, a_tilde)),
        )

    def test_equal_inputs_give_equal_digests(self):
        m, mt, ctx = self.pair()
        twin = PerturbationContext(decompose_normal(m), decompose_normal(mt), mt - m)
        assert ctx.digest == twin.digest and ctx.digest is ctx.digest
        a, at = IndexPartition(5, (0, 2)), IndexPartition(5, (1, 2))
        assert self.digests(ctx, a, at) == self.digests(twin, a, at)
        in_block = bound_full_main(ctx, _block([at, a]), _block([a, at]))[1]
        assert in_block.inputs_digest == bound_full_main(ctx, a, at).inputs_digest

    def test_split_policy_kappa_and_difference_change_the_digest(self):
        m, mt, ctx = self.pair()
        a, at = IndexPartition(5, (0, 2)), IndexPartition(5, (1, 2))
        digest = bound_full_main(ctx, a, at).inputs_digest
        assert bound_full_main(ctx, IndexPartition(5, (0, 3)), at).inputs_digest != digest
        assert bound_full_main(ctx, a, IndexPartition(5, (1, 3))).inputs_digest != digest
        fixed = [KappaPolicy("fixed", (0.0,) * 5), KappaPolicy("fixed", (0.0,) * 4 + (1e-9,))]
        policies = {
            bound_full_main(ctx, a, at, policy).inputs_digest
            for policy in (KappaPolicy("zero"), KappaPolicy("tightest"), *fixed)
        }
        assert len(policies) == 4
        assert (bound_simplified(ctx, a, at)[0].inputs_digest
                != bound_simplified(ctx, a, at, kappa_a=1e-9)[0].inputs_digest)
        diff = np.array(ctx.diff)
        diff[0, 0] += 1e-9
        moved = PerturbationContext(ctx.base, ctx.perturbed, diff)
        assert moved.digest != ctx.digest
        assert not set(self.digests(moved, a, at)) & set(self.digests(ctx, a, at))
        tf = [bound_tilde_free(c, a).bounds[0].inputs_digest for c in (ctx, moved)]
        assert tf[0] != tf[1]

    def test_digests_are_hashed_when_read(self, monkeypatch):
        m, mt, ctx = self.pair()
        hashed = []
        sha256 = spectral.hashlib.sha256
        monkeypatch.setattr(spectral.hashlib, "sha256", lambda: hashed.append(1) or sha256())
        a, at = IndexPartition(5, (0, 2)), IndexPartition(5, (1, 2))
        entries = [bound_full_main(ctx, a, at), *bound_simplified(ctx, a, at),
                   *bound_davis_kahan(ctx, a, at), *bound_tilde_free(ctx, a).bounds]
        assert hashed == []
        digests = [e.inputs_digest for e in entries]
        # The context's digest, then one per family: the entries of one split share theirs.
        assert len(hashed) == 5
        assert [e.inputs_digest for e in entries] == digests and len(hashed) == 5
        twin = PerturbationContext(decompose_normal(m), decompose_normal(mt), mt - m)
        assert bound_full_main(twin, a, at) == entries[0]

    def test_entries_compare_their_digests(self):
        _, _, ctx = self.pair()
        a, at = IndexPartition(5, (0, 2)), IndexPartition(5, (1, 2))
        entry = bound_full_main(ctx, a, at)
        same = bounds.BoundEntry(entry.name, entry.value, entry.condition_ok,
                                 entry.inputs_digest, entry.vacuous, entry.detail)
        other = bounds.BoundEntry(entry.name, entry.value, entry.condition_ok,
                                  "000000000000", entry.vacuous, entry.detail)
        assert entry == same and same == entry and entry != other
        assert repr(entry) == repr(same)
