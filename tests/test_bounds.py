import itertools

import numpy as np
import pytest

from specbound import (
    IndexPartition,
    KappaPolicy,
    OrthonormalFrame,
    PerturbationContext,
    bound_davis_kahan,
    bound_full_main,
    bound_simplified,
    bound_tilde_free,
    decompose_normal,
    dsp_between,
    dsp_projector,
    hat_partition,
    orthonormalize,
    search_closest_invariant,
)
from specbound.errors import (
    GapConditionViolated,
    KappaOutOfRange,
    SizeMismatch,
)
from specbound.experiments import random_normal_pair

from conftest import make_rng


def diag_pair():
    m = np.diag([0.0, 0.0, 5.0]).astype(complex)
    mt = np.diag([0.1, 0.1, 5.3]).astype(complex)
    return decompose_normal(m), decompose_normal(mt), mt - m


def gap_pair(rng, n=6, q=3, gap=8.0, scale=0.25):
    """Hermitian pair whose spectrum splits into two well-separated groups."""
    from conftest import random_unitary

    u = random_unitary(n, rng)
    lam = np.concatenate(
        [rng.standard_normal(q), gap + rng.standard_normal(n - q)]
    )
    m = (u * lam[None, :]) @ u.conj().T
    m = (m + m.conj().T) / 2
    herm = rng.standard_normal((n, n))
    herm = (herm + herm.T) / 2
    herm *= scale / np.linalg.norm(herm, 2)
    mt = m + herm
    return decompose_normal(m), decompose_normal(mt), mt - m


class TestIndexPartition:
    def test_sorted_and_deduplicated(self):
        part = IndexPartition(5, (3, 1))
        assert part.indices == (1, 3)
        assert part.complement == (0, 2, 4)
        assert part.q == 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            IndexPartition(3, (0, 0))
        with pytest.raises(ValueError):
            IndexPartition(3, (0, 1, 2))  # no complement left
        with pytest.raises(ValueError):
            IndexPartition(3, (3,))
        with pytest.raises(ValueError):
            IndexPartition(3, ())


class TestDspBetween:
    def test_same_system_same_set_is_zero(self):
        base, _, _ = diag_pair()
        a = IndexPartition(3, (0, 1))
        ctx = PerturbationContext(base, base, np.zeros((3, 3)))
        assert dsp_between(ctx, a, a) <= 1e-10

    def test_disjoint_sets_on_same_system_are_orthogonal(self):
        base, _, _ = diag_pair()
        a = IndexPartition(3, (0,))
        a_tilde = IndexPartition(3, (2,))
        ctx = PerturbationContext(base, base, np.zeros((3, 3)))
        assert dsp_between(ctx, a, a_tilde) == pytest.approx(1.0, abs=1e-10)

    def test_matches_projector_distance_on_extracted_frames(self):
        rng = make_rng(41)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            q = int(rng.integers(1, n))
            m, mt = random_normal_pair(n, rng)
            base, pert = decompose_normal(m), decompose_normal(mt)
            a = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            at = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            x = OrthonormalFrame(base.eigenvectors.columns[:, list(a.indices)])
            y = OrthonormalFrame(pert.eigenvectors.columns[:, list(at.indices)])
            ctx = PerturbationContext(base, pert, mt - m)
            assert dsp_between(ctx, a, at) == pytest.approx(
                dsp_projector(x, y), abs=1e-10
            )

    def test_size_mismatch(self):
        base, _, _ = diag_pair()
        with pytest.raises(SizeMismatch):
            ctx = PerturbationContext(base, base, np.zeros((3, 3)))
            dsp_between(ctx, IndexPartition(3, (0,)), IndexPartition(3, (0, 1)))

    def test_complement_scaling_identity(self):
        rng = make_rng(42)
        m, mt = random_normal_pair(6, rng)
        base, pert = decompose_normal(m), decompose_normal(mt)
        a = IndexPartition(6, (0, 1))
        at = IndexPartition(6, (0, 2))
        b = IndexPartition(6, a.complement)
        bt = IndexPartition(6, at.complement)
        ctx = PerturbationContext(base, pert, mt - m)
        lhs = np.sqrt(a.q) * dsp_between(ctx, a, at)
        rhs = np.sqrt(6 - a.q) * dsp_between(ctx, b, bt)
        assert abs(lhs - rhs) <= 1e-10


class TestFullMain:
    def test_frozen_diagonal_example(self):
        base, pert, mdiff = diag_pair()
        ctx = PerturbationContext(base, pert, mdiff)
        a = IndexPartition(3, (0, 1))
        entry = bound_full_main(ctx, a, a, KappaPolicy("zero"))
        # hand evaluation: residual 0.1 per index in A, nearest cross-group
        # perturbed eigenvalue 5.3, so each term is (0.1/5.3)^2
        expected = np.sqrt((2 * (0.1 / 5.3) ** 2) / 2)
        assert entry.value == pytest.approx(expected, abs=1e-12)
        assert entry.condition_ok and not entry.vacuous
        assert dsp_between(ctx, a, a) <= entry.value

    def test_zero_perturbation_zero_bound(self):
        base = decompose_normal(np.diag([1.0, 2.0, 3.0]))
        a = IndexPartition(3, (0, 1))
        ctx = PerturbationContext(base, base, np.zeros((3, 3)))
        entry = bound_full_main(ctx, a, a, KappaPolicy("zero"))
        assert entry.value <= 1e-12
        assert dsp_between(ctx, a, a) <= 1e-10

    def test_tightest_never_worse_than_zero(self):
        rng = make_rng(43)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            q = int(rng.integers(1, n))
            m, mt = random_normal_pair(n, rng)
            base, pert = decompose_normal(m), decompose_normal(mt)
            ctx = PerturbationContext(base, pert, mt - m)
            a = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            at = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            zero = bound_full_main(ctx, a, at, KappaPolicy("zero"))
            tight = bound_full_main(ctx, a, at, KappaPolicy("tightest"))
            if zero.condition_ok and tight.condition_ok:
                assert tight.value <= zero.value * (1 + 1e-12) + 1e-15

    def test_soundness_random(self):
        rng = make_rng(44)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            q = int(rng.integers(1, n))
            m, mt = random_normal_pair(n, rng, hermitian=bool(rng.integers(2)))
            base, pert = decompose_normal(m), decompose_normal(mt)
            ctx = PerturbationContext(base, pert, mt - m)
            a = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            at = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            lhs = dsp_between(ctx, a, at)
            for mode in ("zero", "tightest"):
                entry = bound_full_main(ctx, a, at, KappaPolicy(mode))
                if entry.condition_ok:
                    assert lhs <= entry.value * (1 + 1e-9) + 1e-12

    def test_interchange_consistency(self):
        # the interchanged evaluation of (A, At) equals sqrt((n-q)/q) times
        # the direct evaluation of (B, Bt) computed at its own scale
        rng = make_rng(45)
        m, mt = random_normal_pair(6, rng)
        base, pert = decompose_normal(m), decompose_normal(mt)
        ctx = PerturbationContext(base, pert, mt - m)
        a = IndexPartition(6, (0, 1))
        at = IndexPartition(6, (1, 2))
        b = IndexPartition(6, a.complement)
        bt = IndexPartition(6, at.complement)
        entry_a = bound_full_main(ctx, a, at, KappaPolicy("zero"))
        entry_b = bound_full_main(ctx, b, bt, KappaPolicy("zero"))
        scale = np.sqrt((6 - a.q) / a.q)
        assert entry_a.detail["interchanged_value"] == pytest.approx(
            scale * entry_b.detail["direct_value"], rel=1e-10
        )

    def test_soundness_on_exact_spectrum_translations(self):
        # translated spectra with a shared eigenbasis attain the bound with
        # equality; near-tied gaps here once tripped the tightest-kappa rule
        rng = make_rng(55)
        from conftest import random_unitary

        for _ in range(100):
            n = int(rng.integers(3, 9))
            u = random_unitary(n, rng)
            lam = np.sort(rng.standard_normal(n)).astype(complex)
            shift = 0.05 * rng.standard_normal()
            m = (u * lam[None, :]) @ u.conj().T
            mt = (u * (lam + shift)[None, :]) @ u.conj().T
            base, pert = decompose_normal(m), decompose_normal(mt)
            ctx = PerturbationContext(base, pert, mt - m)
            q = int(rng.integers(1, n))
            a = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            at = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            lhs = dsp_between(ctx, a, at)
            for mode in ("zero", "tightest"):
                entry = bound_full_main(ctx, a, at, KappaPolicy(mode))
                if entry.condition_ok:
                    assert lhs <= entry.value * (1 + 1e-9) + 1e-12, (
                        f"{mode}: lhs={lhs} bound={entry.value}"
                    )

    def test_fixed_policy_validation(self):
        ctx = PerturbationContext(*diag_pair())
        a = IndexPartition(3, (0, 1))
        bad = KappaPolicy("fixed", fixed_values=(2.0, 2.0, 2.0))
        with pytest.raises(KappaOutOfRange):
            bound_full_main(ctx, a, a, bad)
        good = KappaPolicy("fixed", fixed_values=(0.5, 0.5, 0.5))
        entry = bound_full_main(ctx, a, a, good)
        assert entry.condition_ok

    def test_records_kappas(self):
        ctx = PerturbationContext(*diag_pair())
        a = IndexPartition(3, (0, 1))
        entry = bound_full_main(ctx, a, a, KappaPolicy("tightest"))
        assert len(entry.detail["kappa_direct"]) == 2
        assert len(entry.detail["kappa_interchanged"]) == 1


class TestSimplified:
    def test_zero_perturbation(self):
        base = decompose_normal(np.diag([1.0, 2.0, 3.0]))
        a = IndexPartition(3, (0,))
        ctx = PerturbationContext(base, base, np.zeros((3, 3)))
        part1, part2 = bound_simplified(ctx, a, a)
        assert part1.value <= 1e-12
        assert part2.value <= 1e-12

    def test_dominates_full_main_at_kappa_zero(self):
        rng = make_rng(46)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            q = int(rng.integers(1, n))
            m, mt = random_normal_pair(n, rng)
            base, pert = decompose_normal(m), decompose_normal(mt)
            ctx = PerturbationContext(base, pert, mt - m)
            a = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            at = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            full = bound_full_main(ctx, a, at, KappaPolicy("zero"))
            part1, _ = bound_simplified(ctx, a, at)
            if full.condition_ok and part1.condition_ok:
                assert part1.value >= full.value * (1 - 1e-12)

    def test_soundness_and_kappa_validation(self):
        base, pert, mdiff = diag_pair()
        ctx = PerturbationContext(base, pert, mdiff)
        a = IndexPartition(3, (0, 1))
        lhs = dsp_between(ctx, a, a)
        part1, part2 = bound_simplified(ctx, a, a)
        assert lhs <= part1.value + 1e-12
        assert lhs <= part2.value + 1e-12
        with pytest.raises(KappaOutOfRange):
            bound_simplified(ctx, a, a, kappa_a=5.0)


class TestDavisKahan:
    def test_frozen_diagonal_example(self):
        base, pert, mdiff = diag_pair()
        ctx = PerturbationContext(base, pert, mdiff)
        a = IndexPartition(3, (0, 1))
        part1, part2 = bound_davis_kahan(ctx, a, a)
        # sep(lam_A, lam'_Bt) = 5.3, sep(lam_B, lam'_At) = 4.9, |mdiff|_2 = 0.3
        assert part1.detail["sep_a_btilde"] == pytest.approx(5.3)
        assert part1.detail["sep_b_atilde"] == pytest.approx(4.9)
        expected1 = min(1.0, np.sqrt(1 / 2)) * 0.3 / 5.3
        assert part1.value == pytest.approx(expected1, abs=1e-12)
        frob = np.sqrt(0.1**2 + 0.1**2 + 0.3**2)
        expected2 = frob / (np.sqrt(2) * np.sqrt(5.3**2 + 4.9**2))
        assert part2.value == pytest.approx(expected2, abs=1e-12)

    def test_zero_perturbation_vanishes(self):
        base = decompose_normal(np.diag([0.0, 0.0, 5.0]))
        a = IndexPartition(3, (0, 1))
        ctx = PerturbationContext(base, base, np.zeros((3, 3)))
        part1, part2 = bound_davis_kahan(ctx, a, a)
        assert part1.value == 0.0
        assert part2.value == 0.0

    def test_both_separations_zero_flagged(self):
        base = decompose_normal(np.diag([0.0, 1.0]))
        a = IndexPartition(2, (0,))
        swapped = IndexPartition(2, (1,))
        ctx = PerturbationContext(base, base, np.zeros((2, 2)))
        part1, part2 = bound_davis_kahan(ctx, a, swapped)
        assert not part1.condition_ok and part1.vacuous
        assert not part2.condition_ok

    def test_soundness_random(self):
        rng = make_rng(47)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            q = int(rng.integers(1, n))
            m, mt = random_normal_pair(n, rng)
            base, pert = decompose_normal(m), decompose_normal(mt)
            ctx = PerturbationContext(base, pert, mt - m)
            a = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            at = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            lhs = dsp_between(ctx, a, at)
            for entry in bound_davis_kahan(ctx, a, at):
                if entry.condition_ok:
                    assert lhs <= entry.value * (1 + 1e-9) + 1e-12


class TestHatPartition:
    def test_zero_perturbation_recovers_a(self):
        base = decompose_normal(np.diag([0.0, 0.0, 5.0]))
        a = IndexPartition(3, (0, 1))
        ctx = PerturbationContext(base, base, np.zeros((3, 3)))
        assert hat_partition(ctx, a).indices == (0, 1)

    def test_frozen_diagonal_example(self):
        ctx = PerturbationContext(*diag_pair())
        a = IndexPartition(3, (0, 1))
        assert hat_partition(ctx, a).indices == (0, 1)

    def test_gap_condition_violated(self):
        base = decompose_normal(np.diag([0.0, 1.0]))
        pert = decompose_normal(np.diag([0.6, 1.6]))
        a = IndexPartition(2, (0,))
        with pytest.raises(GapConditionViolated) as excinfo:
            hat_partition(PerturbationContext(base, pert, np.diag([0.6, 0.6])), a)
        assert excinfo.value.margin == pytest.approx(0.5 - 0.6)

    def test_cardinality_preserved_on_gap_instances(self):
        rng = make_rng(48)
        for _ in range(40):
            base, pert, mdiff = gap_pair(rng, n=int(rng.integers(4, 9)), q=2)
            ctx = PerturbationContext(base, pert, mdiff)
            a = IndexPartition(base.n, (0, 1))
            hat = hat_partition(ctx, a)
            assert hat.q == 2


class TestTildeFree:
    def test_zero_perturbation(self):
        base = decompose_normal(np.diag([0.0, 0.0, 5.0]))
        a = IndexPartition(3, (0, 1))
        ctx = PerturbationContext(base, base, np.zeros((3, 3)))
        report = bound_tilde_free(ctx, a)
        assert report.lhs_dsp <= 1e-10
        assert all(b.value <= 1e-12 for b in report.bounds)

    def test_frozen_diagonal_example(self):
        a = IndexPartition(3, (0, 1))
        report = bound_tilde_free(PerturbationContext(*diag_pair()), a)
        by_name = {b.name: b.value for b in report.bounds}
        # gap 5, |mdiff|_2 = 0.3: A-side fine sum is 2 (0.1/4.7)^2 over q=2
        assert by_name["tilde_free_part1_fine"] == pytest.approx(0.1 / 4.7, abs=1e-12)
        expected_coarse = min(1.0, np.sqrt(1 / 2)) * 0.3 / 4.7
        assert by_name["tilde_free_part1_coarse"] == pytest.approx(
            expected_coarse, abs=1e-12
        )
        frob = np.sqrt(0.1**2 + 0.1**2 + 0.3**2)
        assert by_name["tilde_free_part2"] == pytest.approx(
            frob / (2 * 4.7), abs=1e-12
        )
        assert report.lhs_dsp <= 1e-8
        assert report.chosen_a_tilde.indices == (0, 1)

    def test_gap_condition_violated(self):
        base = decompose_normal(np.diag([0.0, 1.0]))
        pert = decompose_normal(np.diag([0.7, 1.0]))
        a = IndexPartition(2, (0,))
        with pytest.raises(GapConditionViolated):
            bound_tilde_free(PerturbationContext(base, pert, np.diag([0.7, 0.0])), a)

    def test_chain_and_soundness_on_gap_instances(self):
        rng = make_rng(49)
        for _ in range(25):
            ctx = PerturbationContext(*gap_pair(rng, n=int(rng.integers(4, 9)), q=2))
            a = IndexPartition(ctx.base.n, (0, 1))
            report = bound_tilde_free(ctx, a)
            by_name = {b.name: b.value for b in report.bounds}
            fine = by_name["tilde_free_part1_fine"]
            coarse = by_name["tilde_free_part1_coarse"]
            assert fine <= coarse * (1 + 1e-12)
            for entry in report.bounds:
                assert report.lhs_dsp <= entry.value * (1 + 1e-9) + 1e-12


class TestEvaluateBounds:
    def test_bundles_requested_families(self):
        from specbound import evaluate_bounds

        ctx = PerturbationContext(*diag_pair())
        a = IndexPartition(3, (0, 1))
        report = evaluate_bounds(ctx, a, a)
        names = [b.name for b in report.bounds]
        assert names == [
            "full_main_kappa_zero",
            "simplified_part1",
            "simplified_part2",
            "davis_kahan_part1",
            "davis_kahan_part2",
        ]
        assert report.chosen_a_tilde is a
        for entry in report.bounds:
            if entry.condition_ok:
                assert report.lhs_dsp <= entry.value * (1 + 1e-9) + 1e-12

    def test_family_subset(self):
        from specbound import evaluate_bounds

        ctx = PerturbationContext(*diag_pair())
        a = IndexPartition(3, (0, 1))
        report = evaluate_bounds(ctx, a, a, families=("dk",))
        assert [b.name for b in report.bounds] == [
            "davis_kahan_part1",
            "davis_kahan_part2",
        ]

    def test_report_holds_reads_only_the_entries_whose_condition_holds(self):
        from specbound import BoundEntry, BoundReport

        def entry(value, condition_ok):
            return BoundEntry("b", value, condition_ok, digest="", vacuous=False)

        within, below, unconditioned = entry(0.5, True), entry(0.1, True), entry(0.1, False)
        assert BoundReport(0.3, (within, unconditioned)).holds()
        assert not BoundReport(0.3, (within, below)).holds()
        assert BoundReport(0.3, ()).holds()


class TestSearch:
    def test_exact_recovers_spanning_set(self):
        rng = make_rng(50)
        _, mt = random_normal_pair(5, rng)
        pert = decompose_normal(mt)
        target_idx = (1, 3)
        target = OrthonormalFrame(pert.eigenvectors.columns[:, list(target_idx)])
        a_tilde, d = search_closest_invariant(pert, target, 2)
        assert a_tilde.indices == target_idx
        assert d <= 1e-7

    def test_exact_matches_independent_enumeration(self):
        rng = make_rng(51)
        for _ in range(10):
            m, mt = random_normal_pair(4, rng)
            base, pert = decompose_normal(m), decompose_normal(mt)
            target = OrthonormalFrame(base.eigenvectors.columns[:, :2])
            a_tilde, d = search_closest_invariant(pert, target, 2)
            # independent oracle: full enumeration with projector distances
            best, best_d = None, np.inf
            for subset in itertools.combinations(range(4), 2):
                y = OrthonormalFrame(pert.eigenvectors.columns[:, list(subset)])
                cand = dsp_projector(target, y)
                if cand < best_d:
                    best, best_d = subset, cand
            assert a_tilde.indices == best
            assert d == pytest.approx(best_d, abs=1e-9)

    def test_exact_top_q_beyond_enumeration(self):
        # C(40, 20) = 1.4e11 index sets: far too many to enumerate.
        rng = make_rng(52)
        _, mt = random_normal_pair(40, rng)
        pert = decompose_normal(mt)
        target = orthonormalize(rng.standard_normal((40, 20)))
        a_tilde, d = search_closest_invariant(pert, target, 20)
        vecs = pert.eigenvectors.columns
        scores = [np.linalg.norm(target.columns.conj().T @ vecs[:, j]) ** 2 for j in range(40)]
        assert a_tilde.indices == tuple(sorted(np.argsort(scores)[20:].tolist()))
        chosen = list(a_tilde.indices)
        found = OrthonormalFrame(vecs[:, chosen])
        assert d == pytest.approx(dsp_projector(target, found), abs=1e-9)
        # No single swap gets closer; for a distance separable by index, that is the optimum.
        for out in a_tilde.complement:
            for k in range(20):
                swapped = chosen[:k] + [out] + chosen[k + 1:]
                assert dsp_projector(target, OrthonormalFrame(vecs[:, swapped])) >= d - 1e-9

    def test_heuristic_without_context_uses_overlap(self):
        rng = make_rng(54)
        _, mt = random_normal_pair(5, rng)
        pert = decompose_normal(mt)
        target = OrthonormalFrame(pert.eigenvectors.columns[:, [0, 4]])
        a_tilde, d = search_closest_invariant(pert, target, 2)
        assert a_tilde.indices == (0, 4)
        assert d <= 1e-7


class TestFormulaTranscription:
    """Re-derive every bound from scratch (plain loops) and demand agreement.

    Soundness tests alone cannot catch a transcription slip that only
    loosens a bound; these oracles pin the exact formulas.
    """

    @staticmethod
    def _gaps(lam_from, lam_to):
        return [min(abs(t - f) for t in lam_to) for f in lam_from]

    def test_full_main_kappa_zero_formula(self):
        rng = make_rng(70)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            q = int(rng.integers(1, n))
            m, mt = random_normal_pair(n, rng)
            base, pert = decompose_normal(m), decompose_normal(mt)
            mdiff = mt - m
            ctx = PerturbationContext(base, pert, mdiff)
            a = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            at = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            lam, lam_t = base.eigenvalues, pert.eigenvalues
            u = base.eigenvectors.columns

            def side(sum_idx, own_idx, other_idx):
                total = 0.0
                for j in sum_idx:
                    r2 = np.linalg.norm(mdiff @ u[:, j]) ** 2
                    other = min(abs(lam_t[k] - lam[j]) for k in other_idx)
                    if other == 0.0:
                        return np.inf
                    total += r2 / other**2
                return np.sqrt(total / q)

            expected = min(
                side(a.indices, at.indices, at.complement),
                side(a.complement, at.complement, at.indices),
            )
            entry = bound_full_main(ctx, a, at, KappaPolicy("zero"))
            got = entry.value if entry.condition_ok else np.inf
            if np.isinf(expected):
                assert np.isinf(got)
            else:
                assert got == pytest.approx(expected, rel=1e-12)

    def test_simplified_formula(self):
        rng = make_rng(71)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            q = int(rng.integers(1, n))
            m, mt = random_normal_pair(n, rng)
            base, pert = decompose_normal(m), decompose_normal(mt)
            mdiff = mt - m
            ctx = PerturbationContext(base, pert, mdiff)
            a = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            at = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            lam, lam_t = base.eigenvalues, pert.eigenvalues
            u = base.eigenvectors.columns
            res_sq = {j: np.linalg.norm(mdiff @ u[:, j]) ** 2 for j in range(n)}

            def min_cross(sum_idx, other_idx):
                return min(
                    abs(lam_t[k] - lam[j]) for j in sum_idx for k in other_idx
                )

            den_a = min_cross(a.indices, at.complement) ** 2
            den_b = min_cross(a.complement, at.indices) ** 2
            num_a = sum(res_sq[j] for j in a.indices)
            num_b = sum(res_sq[j] for j in a.complement)
            part1 = min(
                np.sqrt(num_a / (q * den_a)) if den_a > 0 else np.inf,
                np.sqrt(num_b / (q * den_b)) if den_b > 0 else np.inf,
            )
            frob_sq = np.linalg.norm(mdiff) ** 2
            den2 = den_a + den_b
            part2 = np.sqrt(frob_sq / (q * den2)) if den2 > 0 else np.inf
            got1, got2 = bound_simplified(ctx, a, at)
            assert got1.value == pytest.approx(part1, rel=1e-12)
            assert got2.value == pytest.approx(part2, rel=1e-12)

    def test_davis_kahan_formula(self):
        rng = make_rng(72)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            q = int(rng.integers(1, n))
            m, mt = random_normal_pair(n, rng)
            base, pert = decompose_normal(m), decompose_normal(mt)
            mdiff = mt - m
            ctx = PerturbationContext(base, pert, mdiff)
            a = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            at = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            lam, lam_t = base.eigenvalues, pert.eigenvalues
            sep_abt = min(
                abs(lam_t[k] - lam[j]) for j in a.indices for k in at.complement
            )
            sep_bat = min(
                abs(lam_t[k] - lam[j]) for j in a.complement for k in at.indices
            )
            op = np.linalg.norm(mdiff, 2)
            frob = np.linalg.norm(mdiff)
            expected1 = min(1.0, np.sqrt((n - q) / q)) * op / max(sep_abt, sep_bat)
            expected2 = frob / (np.sqrt(q) * np.sqrt(sep_abt**2 + sep_bat**2))
            got1, got2 = bound_davis_kahan(ctx, a, at)
            assert got1.value == pytest.approx(expected1, rel=1e-12)
            assert got2.value == pytest.approx(expected2, rel=1e-12)

    def test_tilde_free_formula(self):
        rng = make_rng(73)
        for _ in range(20):
            base, pert, mdiff = gap_pair(rng, n=int(rng.integers(4, 9)), q=2)
            ctx = PerturbationContext(base, pert, mdiff)
            n = base.n
            a = IndexPartition(n, (0, 1))
            lam = base.eigenvalues
            u = base.eigenvectors.columns
            op = np.linalg.norm(mdiff, 2)
            q = 2

            def side(sum_idx, other_idx):
                total = 0.0
                for j in sum_idx:
                    r = np.linalg.norm(mdiff @ u[:, j])
                    gap = min(abs(lam[k] - lam[j]) for k in other_idx) - op
                    total += (r / gap) ** 2
                return np.sqrt(total / q)

            fine = min(side(a.indices, a.complement), side(a.complement, a.indices))
            gap = min(
                abs(lam[k] - lam[j]) for j in a.indices for k in a.complement
            )
            coarse = min(1.0, np.sqrt((n - q) / q)) * op / (gap - op)
            part2 = np.linalg.norm(mdiff) / (np.sqrt(2 * q) * (gap - op))
            report = bound_tilde_free(ctx, a)
            by_name = {b.name: b.value for b in report.bounds}
            assert by_name["tilde_free_part1_fine"] == pytest.approx(fine, rel=1e-12)
            assert by_name["tilde_free_part1_coarse"] == pytest.approx(coarse, rel=1e-12)
            assert by_name["tilde_free_part2"] == pytest.approx(part2, rel=1e-12)
