"""``spectra.lanczos``, the thick-restart Lanczos driver, against dense ``eigh``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from specbound import spectra
from specbound.graphs import GraphPerturbation, laplacian

from test_graphs import EIGENBASIS_CASES, clustered_pair


@st.composite
def low_rank_updates(draw):
    """A = diag(d) + U S U^T: d distinct integers, U Gaussian of rank 0 to 3, S = diag(+-1)."""
    n = draw(st.integers(2, 64))
    diag = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n, unique=True))
    rank = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loads = rng.standard_normal((n, rank)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    signs = rng.choice([-1.0, 1.0], rank)
    return np.diag(np.array(diag, dtype=float)) + (loads * signs) @ loads.T


def solve(a, k):
    """``lanczos`` on A's shifted inverse, shifted as ``spectra`` shifts a
    Laplacian: a hundredth of the spectrum's width (1 for A = 0) above its
    lowest end."""
    dense = np.linalg.eigvalsh(a)
    shift = 1e-2 * ((dense[-1] - dense[0]) or 1.0) - dense[0]
    inverse = np.linalg.inv(a + shift * np.eye(len(a)))
    rng = np.random.Generator(np.random.PCG64(0))
    start = rng.standard_normal(len(a))
    return spectra.lanczos(inverse.__matmul__, a.__matmul__, shift, start, k, rng)


class TestLanczos:
    @settings(max_examples=12, deadline=None)
    @given(low_rank_updates())
    def test_every_k_against_dense_eigh(self, a):
        dense = np.linalg.eigvalsh(a)
        scale = np.max(np.abs(dense))
        for k in range(1, len(a)):
            vals, vecs = solve(a, k)
            assert vals.shape == (k,) and vecs.shape == (len(a), k)
            assert np.max(np.abs(vals - dense[:k])) <= 1e-12 * scale, k
            assert np.max(np.linalg.norm(a @ vecs - vecs * vals, axis=0)) <= 1e-12 * scale, k
            assert np.allclose(vecs.T @ vecs, np.eye(k), rtol=0, atol=1e-12), k
            again = solve(a, k)
            assert again[0].tobytes() == vals.tobytes() and again[1].tobytes() == vecs.tobytes()

    def test_zero_operator_gives_exact_zeros(self):
        # an invariant subspace at every step: each vector after the first is drawn
        vals, vecs = solve(np.zeros((30, 30)), 5)
        assert not vals.any()
        assert np.allclose(vecs.T @ vecs, np.eye(5), rtol=0, atol=1e-14)

    def test_skipped_copy_of_a_repeated_eigenvalue_is_rejected(self, monkeypatch):
        # Eigenvalue 2 of the perturbed Laplacian has three copies, from three
        # clusters' separate eigh calls, so they differ by rounding and no
        # invariant subspace shows them; Lanczos from one start vector may see
        # two. The certificate must turn such a result down, and the
        # fall-through must give every copy.
        base, pert, cut = clustered_pair(*EIGENBASIS_CASES["untouched-clusters"])
        dense = np.linalg.eigvalsh(laplacian(pert))
        k = 10
        assert np.sum(np.abs(dense[:k] - 2.0) < 1e-12) == 3
        seen = []
        lanczos = spectra.lanczos

        def spy(*args):
            seen.append(lanczos(*args))
            return seen[-1]

        monkeypatch.setattr(spectra, "lanczos", spy)
        trusted = spectra._eigenbasis_lowest(GraphPerturbation(base, pert, cut), k)
        vals, _ = spectra.perturbed_eigenpairs(GraphPerturbation(base, pert, cut), k)
        skipped = not np.allclose(seen[0][0], dense[:k], rtol=0, atol=1e-9)
        assert trusted is None or not skipped
        assert np.allclose(vals, dense[:k], rtol=0, atol=1e-12)
