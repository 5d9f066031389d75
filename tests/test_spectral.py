import numpy as np
import pytest

from specbound import (
    PerturbationContext,
    bauer_fike_gap,
    coupling_matrix,
    decompose_normal,
    residual_norms,
)
from specbound.errors import DimensionMismatch, NotNormal, NotSquare
from specbound.experiments import random_normal_pair
from specbound.spectral import commutator_norm, two_norm

from conftest import make_rng, random_unitary


class TestDecompose:
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

    def test_commutator_norm_helper(self):
        assert commutator_norm(np.eye(3)) == 0.0
        assert commutator_norm(np.array([[1, 1], [0, 1]])) > 0

    def test_eigenvalue_multiset_view(self):
        sys = decompose_normal(np.diag([2.0, 2.0, 1.0]))
        ms = sys.eigenvalue_multiset
        assert len(ms) == 3  # multiplicity preserved
        assert np.allclose(sorted(ms.values.real), [1, 2, 2])


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
