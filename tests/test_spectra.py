"""``spectra.lanczos``, the thick-restart Lanczos driver, against dense ``eigh``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbound import spectra
from specbound.experiments import ExperimentConfig, synth_perturbation
from specbound.graphs import GraphPerturbation, WeightedGraph, laplacian

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


def solve(a, k, draws=None):
    """``lanczos`` on A's shifted inverse, shifted as ``spectra`` shifts a
    Laplacian: a hundredth of the spectrum's width (1 for A = 0) above its
    lowest end. The vectors ``lanczos`` draws are appended to ``draws``."""
    dense = np.linalg.eigvalsh(a)
    shift = 1e-2 * ((dense[-1] - dense[0]) or 1.0) - dense[0]
    inverse = np.linalg.inv(a + shift * np.eye(len(a)))
    rng = np.random.Generator(np.random.PCG64(0))
    start = rng.standard_normal(len(a))

    class Recording:
        def standard_normal(self, size):
            vector = rng.standard_normal(size)
            if draws is not None:
                draws.append(vector)
            return vector

    return spectra.lanczos(inverse.__matmul__, a.__matmul__, shift, start, k, Recording())


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

    @pytest.mark.parametrize("name", ["complete-graph", "three-values", "zero"])
    def test_closed_krylov_spaces_against_dense_eigh(self, name):
        # K_n's Laplacian has two distinct eigenvalues and the diagonal three,
        # so the Krylov space of any start vector closes after two or three
        # steps; the zero operator's closes at once
        n = 24
        a = {
            "complete-graph": laplacian(WeightedGraph(n, tuple(
                (u, v, 1.0) for u in range(n) for v in range(u + 1, n)))),
            "three-values": np.diag(np.repeat([-2.0, 0.5, 3.0], n // 3)),
            "zero": np.zeros((n, n)),
        }[name]
        dense = np.linalg.eigvalsh(a)
        scale = np.max(np.abs(dense)) or 1.0
        for k in range(1, n):
            draws = []
            vals, vecs = solve(a, k, draws)
            assert draws, k  # the closed space is left from a drawn vector, not from rounding
            assert np.max(np.abs(vals - dense[:k])) <= 1e-12 * scale, k
            assert np.max(np.linalg.norm(a @ vecs - vecs * vals, axis=0)) <= 1e-12 * scale, k
            assert np.allclose(vecs.T @ vecs, np.eye(k), rtol=0, atol=1e-12), k
            again = solve(a, k)
            assert again[0].tobytes() == vals.tobytes() and again[1].tobytes() == vecs.tobytes()

    def test_one_global_pass_per_step(self, monkeypatch):
        # the local step takes the three-term recurrence's parts first, so a
        # second Gram-Schmidt pass over the whole basis is rarely needed
        counts = {"steps": 0, "passes": 0}
        project_out, lanczos = spectra._project_out, spectra.lanczos

        def counting_project_out(*args):
            counts["passes"] += 1
            return project_out(*args)

        def counting_lanczos(shift_inverse, *args):
            def counting_shift_inverse(y):
                counts["steps"] += y.ndim == 1
                return shift_inverse(y)

            return lanczos(counting_shift_inverse, *args)

        monkeypatch.setattr(spectra, "_project_out", counting_project_out)
        monkeypatch.setattr(spectra, "lanczos", counting_lanczos)
        for seed in range(3):
            ctx = synth_perturbation(ExperimentConfig(n_vertices=2000, q=24, seed=seed))
            assert spectra._eigenbasis_lowest(ctx, 25) is not None
        assert counts["passes"] <= 1.25 * counts["steps"], counts

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
