from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from specbound import (
    PerturbationContext,
    bauer_fike_gap,
    coupling_matrix,
    decompose_normal,
    dsp_projector,
    residual_norms,
)
from specbound.errors import DimensionMismatch, NotNormal, NotSquare
from specbound.experiments import random_normal_pair
from specbound.spectral import (
    HERMITIAN_PART_ANGLE,
    RECONSTRUCTION_RTOL,
    SORT_TIE_REL_TOL,
    _diagonalize_blocks,
    _lexicographic_order,
    commutator_norm,
    two_norm,
)

from conftest import make_rng, random_unitary


# Bounds on a decomposition of an exactly normal input, relative to ||M||_2:
# the worst eigenpair residual, the Frobenius distance of U^H U from I, and
# the distance of each eigenvalue from its partner in scipy's Schur form.
RESIDUAL_BOUND = 1e-12
UNITARITY_BOUND = 1e-12
ORACLE_BOUND = 1e-12


def normal_from_spectrum(lam, rng) -> np.ndarray:
    u = random_unitary(len(lam), rng)
    return (u * np.asarray(lam, dtype=complex)[None, :]) @ u.conj().T


def check_decomposition(m, residual_bound=RESIDUAL_BOUND, schur=False):
    """Residual, unitarity, and the spectrum against a complex Schur form.

    ``schur`` says whether ``decompose_normal`` may fall back to
    ``scipy.linalg.schur`` for a coupled block: never (False, for exactly
    normal input), at least once (True), or either way (None). The oracle's
    Schur form is taken before the decomposition, so it is not counted.
    """
    oracle = np.diag(scipy.linalg.schur(np.asarray(m, dtype=complex), output="complex")[0])
    with mock.patch.object(scipy.linalg, "schur", wraps=scipy.linalg.schur) as fallback:
        sys = decompose_normal(m)
    if schur is not None:
        assert fallback.called == schur
    norm = max(two_norm(m), 1e-300)
    u, lam = sys.eigenvectors.columns, sys.eigenvalues
    assert np.linalg.norm(m @ u - u * lam[None, :], axis=0).max() <= residual_bound * norm
    assert np.linalg.norm(u.conj().T @ u - np.eye(len(m))) <= UNITARITY_BOUND
    close = csr_matrix(np.abs(lam[:, None] - oracle[None, :]) <= ORACLE_BOUND * norm)
    assert (maximum_bipartite_matching(close, perm_type="column") >= 0).all()
    return sys


@st.composite
def clustered_spectra(draw):
    """Eigenvalues in a few clusters, each spread along one direction by a
    relative width from exact repeats to well apart; the direction
    i exp(i HERMITIAN_PART_ANGLE) spreads a cluster over one eigenvalue of
    the turned input's Hermitian part."""
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    lam = []
    for _ in range(draw(st.integers(1, 4))):
        center = complex(*rng.standard_normal(2)) * 3
        width = draw(st.sampled_from([0.0, 1e-14, 1e-10, 1e-6, 1e-2, 1.0]))
        turn = draw(st.sampled_from([0.0, 0.5 * np.pi, HERMITIAN_PART_ANGLE + 0.5 * np.pi]))
        size = draw(st.integers(1, 8))
        lam += list(center + width * np.exp(1j * turn) * rng.standard_normal(size))
    return normal_from_spectrum(lam, rng)


class TestDecompose:
    def test_real_orthogonal(self):
        # Conjugate pairs: every real part is shared by two eigenvalues.
        q, _ = np.linalg.qr(make_rng(40).standard_normal((50, 50)))
        check_decomposition(q)

    def test_real_skew_symmetric(self):
        # Every real part is zero.
        a = make_rng(41).standard_normal((60, 60))
        sys = check_decomposition((a - a.T) / 2.0)
        assert np.abs(sys.eigenvalues.real).max() <= RESIDUAL_BOUND * sys.source_norm

    def test_unitary_with_eigenvalues_repeated_ten_times(self):
        rng = make_rng(42)
        lam = np.repeat(np.exp(2j * np.pi * rng.random(4)), 10)
        sys = check_decomposition(normal_from_spectrum(lam, rng))
        assert np.abs(np.abs(sys.eigenvalues) - 1.0).max() <= RESIDUAL_BOUND

    def test_real_parts_within_1e_10_and_spread_imaginary_parts(self):
        rng = make_rng(43)
        lam = 1e-10 * rng.standard_normal(30) + 3j * rng.standard_normal(30)
        check_decomposition(normal_from_spectrum(lam, rng))

    def test_spectrum_on_one_line_of_the_turned_hermitian_part(self):
        # Every eigenvalue projects to one eigenvalue of the Hermitian part of
        # exp(-i HERMITIAN_PART_ANGLE) M: one coupled block, the whole matrix.
        rng = make_rng(44)
        lam = 0.5 + 1j * np.exp(1j * HERMITIAN_PART_ANGLE) * rng.standard_normal(12)
        check_decomposition(normal_from_spectrum(lam, rng))

    def test_a_coupling_that_skips_an_index_spans_it(self):
        # Indices 0 and 2 are coupled and 1 is not: one block, 0..2.
        t = np.array([[1, 0, 2], [0, 5, 0], [-2, 0, 1]], dtype=complex)
        with mock.patch.object(scipy.linalg, "schur", side_effect=AssertionError("Schur")):
            lam, vecs = _diagonalize_blocks(t, np.eye(3, dtype=complex), 1e-12)
        assert np.linalg.norm(t @ vecs - vecs * lam[None, :], axis=0).max() <= RESIDUAL_BOUND
        assert sorted(lam.tolist(), key=lambda z: (z.real, z.imag)) == pytest.approx(
            [1 - 2j, 1 + 2j, 5])

    @pytest.mark.parametrize("z", [2.5, -1.5j, 3 - 4j, 0.0])
    def test_one_by_one(self, z):
        sys = check_decomposition(np.array([[z]]))
        assert sys.eigenvalues.tolist() == [z]
        assert np.abs(sys.eigenvectors.columns).tolist() == [[1.0]]

    def test_normal_only_to_about_1e_10(self):
        rng = make_rng(45)
        m, _ = random_normal_pair(50, rng)
        e = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        m = m + 1e-10 * two_norm(m) * e / np.linalg.norm(e)
        # The residual may reach a few times the departure from normality.
        check_decomposition(m, residual_bound=1e-9, schur=None)

    @pytest.mark.parametrize("n", [40, 80])
    def test_accepts_normal_to_2e_8_as_a_schur_form_does(self, n):
        # A Schur form's eigenpair residual stays inside RECONSTRUCTION_RTOL
        # ||M||_2 here; what the Hermitian part's eigenbasis drops must not
        # push this decomposition's over.
        rng = make_rng(46)
        m, _ = random_normal_pair(n, rng)
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = m + 2e-8 * two_norm(m) * e / np.linalg.norm(e)
        t, z = scipy.linalg.schur(m, output="complex")
        assert np.linalg.norm(m @ z - z * np.diag(t), axis=0).max() <= 0.6e-8 * two_norm(m)
        # The blocks stay coupled in the skew-Hermitian part's eigenbasis.
        check_decomposition(m, residual_bound=RECONSTRUCTION_RTOL, schur=True)

    @settings(max_examples=60, deadline=None)
    @given(clustered_spectra())
    def test_clustered_spectra(self, m):
        check_decomposition(m)

    def test_a_perturbed_pair_at_n_200_needs_no_schur_form(self):
        # Eigenvalues in two bands of real parts, as in the benchmark's pairs.
        # Some project to eigenvalues of the turned Hermitian part close
        # enough that its eigenvectors mix them: the first eigh leaves
        # coupled blocks.
        rng = make_rng(47)
        real = np.concatenate([rng.uniform(-14.0, -12.0, 20), rng.uniform(0.0, 10.0, 180)])
        lam = real + 1j * rng.uniform(-5.0, 5.0, 200)
        m = normal_from_spectrum(lam, rng)
        for matrix in (m, normal_from_spectrum(lam + 0.05 * rng.standard_normal(200), rng)):
            with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
                check_decomposition(matrix)
            assert eigh.call_count > 1  # one per coupled block after the first

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, entry):
        with pytest.raises(ValueError, match="finite"):
            decompose_normal(np.array([[1.0, entry], [0.0, 1j]]))

    def test_diagonal_matrix(self):
        sys = decompose_normal(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(sys.eigenvalues, [1, 2, 3])
        # eigenvectors are permuted standard-basis vectors
        assert np.allclose(np.abs(sys.eigenvectors.columns), np.eye(3)[:, [1, 2, 0]])

    def test_rotation_by_90_degrees(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        sys = decompose_normal(rot)
        assert np.allclose(sys.eigenvalues, [-1j, 1j])  # lexicographic order

    def test_jordan_block_rejected(self):
        with pytest.raises(NotNormal) as excinfo:
            decompose_normal(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert excinfo.value.commutator_norm > 0

    def test_non_square_rejected(self):
        with pytest.raises(NotSquare):
            decompose_normal(np.ones((2, 3)))

    def test_reconstruction_and_unitarity(self):
        rng = make_rng(21)
        for _ in range(15):
            n = int(rng.integers(2, 9))
            m, _ = random_normal_pair(n, rng)
            sys = decompose_normal(m)
            u = sys.eigenvectors.columns
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10
            resid = np.linalg.norm(m @ u - u * sys.eigenvalues[None, :], axis=0)
            assert resid.max() <= 1e-8 * sys.source_norm
            assert np.linalg.norm(sys.reconstruct() - m) <= 1e-10 * max(1, sys.source_norm)

    def test_degenerate_spectrum(self):
        rng = make_rng(22)
        u = random_unitary(5, rng)
        lam = np.array([2.0, 2.0, 2.0, -1.0, -1.0], dtype=complex)
        m = (u * lam[None, :]) @ u.conj().T
        sys = decompose_normal(m)
        assert np.allclose(sorted(sys.eigenvalues.real), sorted(lam.real), atol=1e-10)
        resid = np.linalg.norm(
            m @ sys.eigenvectors.columns
            - sys.eigenvectors.columns * sys.eigenvalues[None, :],
            axis=0,
        )
        assert resid.max() <= 1e-10 * sys.source_norm

    def test_eigenvalue_order_is_lexicographic(self):
        rng = make_rng(23)
        m, _ = random_normal_pair(7, rng)
        lam = decompose_normal(m).eigenvalues
        keys = [(z.real, z.imag) for z in lam]
        assert keys == sorted(keys)

    @settings(max_examples=300, deadline=None)
    @given(
        scale=st.sampled_from((1e-3, 1.0, 1e3)),
        parts=st.lists(st.tuples(st.integers(-2, 2),
                                 st.sampled_from((0.0, 1e-13, -1e-13, 6e-13, 1e-12, 3e-12)),
                                 st.integers(-2, 2)), max_size=12),
    )
    def test_eigenvalue_order_matches_the_grouping_loop(self, scale, parts):
        # exact, 1e-13-apart and chained real parts, each offset a multiple of the tolerance
        lam = np.array([complex((k + off) * scale, im * scale)
                        for k, off, im in parts], dtype=complex)
        order = np.lexsort((lam.imag, lam.real))
        tol = SORT_TIE_REL_TOL * scale
        expected, i = order.copy(), 0
        while i < len(lam):  # each run of real parts within tol of a neighbour, by imag
            j = i + 1
            while j < len(lam) and lam[order[j]].real - lam[order[j - 1]].real <= tol:
                j += 1
            expected[i:j] = order[i:j][np.argsort(lam[order[i:j]].imag, kind="stable")]
            i = j
        assert _lexicographic_order(lam, scale).tolist() == expected.tolist()

    def test_commutator_norm_helper(self):
        assert commutator_norm(np.eye(3)) == 0.0
        assert commutator_norm(np.array([[1, 1], [0, 1]])) > 0

    def test_eigenvalue_multiset_view(self):
        sys = decompose_normal(np.diag([2.0, 2.0, 1.0]))
        ms = sys.eigenvalue_multiset
        assert len(ms) == 3  # multiplicity preserved
        assert np.allclose(sorted(ms.values.real), [1, 2, 2])

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_a_power_of_two_moves_nothing(self, hermitian):
        # M / 2^e is the same matrix at every scale, so every result scales exactly.
        rng = np.random.default_rng(1)
        for _ in range(20):
            m, _ = random_normal_pair(int(rng.integers(2, 11)), rng, hermitian=hermitian)
            unit = decompose_normal(m)
            for k in (-60, -20, 0, 20, 60):
                sys = decompose_normal(2.0**k * m)
                assert sys.eigenvalues.tobytes() == (2.0**k * unit.eigenvalues).tobytes(), k
                assert sys.eigenvectors.columns.tobytes() == unit.eigenvectors.columns.tobytes()
                assert sys.source_norm == 2.0**k * unit.source_norm

    def test_a_diagonal_matrix_far_below_unit_scale(self):
        sys = decompose_normal(1e-14 * np.diag([2 - 1j, 1 + 1j]))
        assert sys.eigenvalues.tolist() == [1e-14 * (1 + 1j), 1e-14 * (2 - 1j)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m, expected", [
        (np.zeros((3, 3)), [0, 0, 0]),
        (np.array([[3 - 4j]]), [3 - 4j]),
        (1e-310 * np.array([[0.0, -1.0], [1.0, 0.0]]), [-1e-310j, 1e-310j]),
        (5e-324 * np.array([[0.0, -1.0], [1.0, 0.0]]), [-5e-324j, 5e-324j]),
        (5e-324 * np.diag([1.0, -1.0]), [-5e-324, 5e-324]),
        (1.7e308 * np.array([[0.0, -1.0], [1.0, 0.0]]), [-1.7e308j, 1.7e308j]),
    ], ids=["zero", "one-by-one", "subnormal", "smallest-subnormal",
            "smallest-subnormal-diagonal", "near-the-largest-float"])
    def test_edges_of_the_float_range(self, m, expected):
        sys = decompose_normal(m)
        assert sys.eigenvalues.tolist() == pytest.approx(expected, rel=1e-15, abs=0)
        assert sys.source_norm == pytest.approx(np.abs(expected).max(), rel=1e-15, abs=0)
        u = sys.eigenvectors.columns
        assert np.linalg.norm(u.conj().T @ u - np.eye(len(m))) <= UNITARITY_BOUND

    @pytest.mark.filterwarnings("error")
    def test_entries_whose_squares_overflow(self):
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        for scale in (1e150, 1e200, 1e300, 1.7e308):
            sys = decompose_normal(scale * rotation)
            assert np.abs(sys.eigenvalues - [-scale * 1j, scale * 1j]).max() <= 1e-15 * scale
            assert sys.source_norm == pytest.approx(scale, rel=1e-15)
        m, _ = random_normal_pair(9, make_rng(24))
        small = decompose_normal(m)
        for scale in (1e120, 1e200, 1e300):
            big = decompose_normal(m * scale)
            moved = np.abs(big.eigenvalues / scale - small.eigenvalues).max()
            assert moved <= 1e-14 * small.source_norm
            assert dsp_projector(big.eigenvectors, small.eigenvectors) <= 1e-12
        with pytest.raises(NotNormal):
            decompose_normal(1e200 * np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="overflows"):
            decompose_normal(np.full((2, 2), 1e308))


class TestCouplingMatrix:
    def test_same_matrix_gives_zero(self):
        m = np.diag([1.0, 2.0, 4.0])
        sys = decompose_normal(m)
        out = coupling_matrix(PerturbationContext(sys, sys, np.zeros((3, 3))))
        assert out.self_check_ok
        assert np.max(np.abs(out.matrix)) <= 1e-10

    def test_shared_eigenvectors_give_diagonal(self):
        base = decompose_normal(np.diag([1.0, 2.0, 4.0]))
        pert = decompose_normal(np.diag([1.5, 2.5, 4.1]))
        out = coupling_matrix(PerturbationContext(base, pert, np.diag([0.5, 0.5, 0.1])))
        assert out.self_check_ok
        off_diag = out.matrix - np.diag(np.diag(out.matrix))
        assert np.max(np.abs(off_diag)) <= 1e-12
        assert np.allclose(np.diag(out.matrix), [0.5, 0.5, 0.1])

    def test_random_pair_identity_elementwise(self):
        rng = make_rng(31)
        m, mt = random_normal_pair(4, rng)
        base, pert = decompose_normal(m), decompose_normal(mt)
        out = coupling_matrix(PerturbationContext(base, pert, mt - m))
        assert out.self_check_ok
        # independent recomputation with explicit loops
        u, v = base.eigenvectors.columns, pert.eigenvectors.columns
        for j in range(4):
            for k in range(4):
                direct = (pert.eigenvalues[k] - base.eigenvalues[j]) * np.vdot(
                    u[:, j], v[:, k]
                )
                via = np.vdot(u[:, j], (mt - m) @ v[:, k])
                assert abs(direct - via) <= 1e-9 * np.linalg.norm(mt - m)
                assert abs(out.matrix[j, k] - direct) <= 1e-12

    def test_dimension_mismatch(self):
        a = decompose_normal(np.eye(2))
        b = decompose_normal(np.eye(3))
        with pytest.raises(DimensionMismatch):
            coupling_matrix(PerturbationContext(a, b, np.zeros((2, 2))))


class TestResidualNorms:
    def test_same_matrix_all_zero(self):
        sys = decompose_normal(np.diag([1.0, 3.0]))
        out = residual_norms(PerturbationContext(sys, sys, np.zeros((2, 2))))
        assert out.self_check_ok
        assert np.allclose(out.per_base_vector, 0)
        assert out.op_norm == 0.0

    def test_rank_one_diagonal_perturbation(self):
        eps = 0.25
        m = np.diag([1.0, 2.0, 4.0])
        mt = m.copy()
        mt[0, 0] += eps
        base, pert = decompose_normal(m), decompose_normal(mt)
        out = residual_norms(PerturbationContext(base, pert, mt - m))
        assert np.allclose(out.per_base_vector, [eps, 0.0, 0.0], atol=1e-12)
        assert out.self_check_ok

    def test_random_pair_sum_formula(self):
        rng = make_rng(32)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            m, mt = random_normal_pair(n, rng)
            base, pert = decompose_normal(m), decompose_normal(mt)
            out = residual_norms(PerturbationContext(base, pert, mt - m))
            assert out.self_check_ok, out.max_rel_error
            assert out.op_norm + 1e-12 >= out.per_base_vector.max()
            assert out.op_norm + 1e-12 >= out.per_perturbed_vector.max()


def identity_verdicts(ctx):
    """Both identity self-checks' verdicts on one context."""
    return coupling_matrix(ctx).self_check_ok, residual_norms(ctx).self_check_ok


class TestIdentityChecksAtTheirScale:
    """Both identity self-checks agree at the pair's scale, whatever the perturbation's size."""

    @pytest.mark.parametrize("twist", [1e-6, 1e-10, 0.0])
    def test_exactly_normal_pairs_pass_at_tiny_twists(self, twist):
        # Both sides of a sum formula carry eigenvalue rounding of about eps ||M||
        # however small the perturbation is.
        rng = np.random.default_rng(1)
        for i in range(60):
            n = int(rng.integers(2, 65 if i % 10 == 0 else 11))
            m, mt = random_normal_pair(n, rng, hermitian=bool(i % 2), scale=twist)
            ctx = PerturbationContext(decompose_normal(m), decompose_normal(mt), mt - m)
            assert identity_verdicts(ctx) == (True, True), (i, n)

    @pytest.mark.parametrize("twist", [0.3, 1e-6, 0.0])
    def test_verdicts_do_not_move_under_a_power_of_two(self, twist):
        rng = np.random.default_rng(2)
        for i in range(20):
            n = int(rng.integers(2, 11))
            m, mt = random_normal_pair(n, rng, hermitian=bool(i % 2), scale=twist)
            verdicts = {}
            for k in (-60, 0, 60):
                mk, mtk = 2.0**k * m, 2.0**k * mt
                verdicts[k] = identity_verdicts(PerturbationContext(
                    decompose_normal(mk), decompose_normal(mtk), mtk - mk))
            assert set(verdicts.values()) == {(True, True)}, (i, verdicts)

    def test_a_difference_off_by_a_billionth_fails_both(self):
        m, mt = random_normal_pair(6, np.random.default_rng(3), scale=1e-6)
        base, pert = decompose_normal(m), decompose_normal(mt)
        assert identity_verdicts(PerturbationContext(base, pert, mt - m)) == (True, True)
        wrong = mt - m
        wrong[0, 0] += 1e-9 * base.source_norm  # a thousand times the checks' absolute slack
        assert identity_verdicts(PerturbationContext(base, pert, wrong)) == (False, False)


class TestBauerFike:
    def test_identical_spectra(self):
        sys = decompose_normal(np.diag([1.0, 5.0]))
        assert bauer_fike_gap(PerturbationContext(sys, sys, np.zeros((2, 2)))) == 0.0

    def test_two_point_example(self):
        base = decompose_normal(np.diag([0.0, 1.0]))
        pert = decompose_normal(np.diag([0.1, 1.2]))
        # per-eigenvalue nearest distances are 0.1 and 0.2; the max is 0.2
        assert bauer_fike_gap(PerturbationContext(base, pert, np.diag([0.1, 0.2]))) == pytest.approx(0.2)

    def test_single_pair(self):
        base = decompose_normal(np.array([[0.0]]).reshape(1, 1))
        pert = decompose_normal(np.array([[5.0]]).reshape(1, 1))
        assert bauer_fike_gap(PerturbationContext(base, pert, [[5.0]])) == pytest.approx(5.0)

    def test_bounded_by_operator_norm_both_directions(self):
        rng = make_rng(33)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            m, mt = random_normal_pair(n, rng, hermitian=bool(rng.integers(2)))
            base, pert = decompose_normal(m), decompose_normal(mt)
            op = two_norm(mt - m)
            assert bauer_fike_gap(PerturbationContext(base, pert, mt - m)) <= op + 1e-10
            assert bauer_fike_gap(PerturbationContext(pert, base, m - mt)) <= op + 1e-10

    def test_residual_lower_bound_per_vector(self):
        rng = make_rng(34)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            m, mt = random_normal_pair(n, rng)
            base, pert = decompose_normal(m), decompose_normal(mt)
            res = residual_norms(PerturbationContext(base, pert, mt - m))
            gaps = np.abs(
                pert.eigenvalues[None, :] - base.eigenvalues[:, None]
            ).min(axis=1)
            assert np.all(res.per_base_vector >= gaps - 1e-10)
