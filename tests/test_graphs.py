import hashlib
import itertools
import math
import re
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from specbound import (
    OrthonormalFrame,
    QCut,
    WeightedGraph,
    align_basis,
    best_q_cut,
    components,
    coupling,
    coupling_sandwich,
    dsp_projector,
    external_degree,
    laplacian,
    laplacian_diff_bound_check,
    max_external_degree,
    null_basis,
    nullspace_bound_known_base,
    nullspace_bound_known_perturbed,
    residual_identity_check,
)
from specbound import graphs, spectra
from specbound.errors import (
    EmptyCluster,
    InvalidConfig,
    MedConditionViolated,
    MissingEigenvalue,
    NotAnEdgeSuperset,
    SearchSpaceTooLarge,
    ZeroGap,
)
from specbound.experiments import (
    ExperimentConfig,
    add_intercluster_edges,
    reproduce_pipeline,
    synth_clustered_graph,
    synth_perturbation,
)
from specbound import cutsearch
from specbound.cutsearch import partition_ways
from specbound.graphs import (
    ZERO_EIGENVALUE_TOL,
    GraphPerturbation,
    cluster_table,
    coupling_sandwiches,
    couplings,
    laplacian_eigenvalues,
    laplacian_spectrum,
    max_external_degrees,
    total_coupling,
)

import count_oracle
from conftest import make_rng, random_frame, random_unitary


def figure_graph(w1=0.3, w2=0.7, w3=1.1, w4=0.5):
    """Five-vertex cluster with four weighted edges leaving it.

    Vertex 0 carries two external edges (w1, w2), vertices 1 and 2 one each
    (w3, w4, both landing on the same outside vertex 7).
    """
    edges = [
        (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 1.0),
        (5, 6, 1.0),
        (0, 5, w1), (0, 6, w2), (1, 7, w3), (2, 7, w4),
    ]
    graph = WeightedGraph(n_vertices=8, edges=tuple(edges))
    cut = QCut(labels=(0, 0, 0, 0, 0, 1, 1, 1), q=2)
    return graph, cut


class TestWeightedGraph:
    def test_normalizes_and_sorts(self):
        g = WeightedGraph(3, ((2, 0, 1.5), (1, 2, 2.0)))
        assert g.edges == ((0, 2, 1.5), (1, 2, 2.0))

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, ((0, 0, 1.0),))
        with pytest.raises(ValueError):
            WeightedGraph(2, ((0, 1, 0.0),))
        with pytest.raises(ValueError):
            WeightedGraph(2, ((0, 1, 1.0), (1, 0, 2.0)))
        with pytest.raises(ValueError):
            WeightedGraph(2, ((0, 3, 1.0),))

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_weights(self, weight):
        with pytest.raises(ValueError, match="non-finite"):
            WeightedGraph(3, ((0, 1, 1.0), (1, 2, weight)))

    @pytest.mark.parametrize("u, v", [(0.5, 2), (1.9, 2), (0, 2.25), (-0.5, 1)])
    def test_rejects_non_integer_endpoints(self, u, v):
        with pytest.raises(ValueError, match="finite integers"):
            WeightedGraph(3, ((u, v, 1.0),))
        with pytest.raises(ValueError, match="finite integers"):
            WeightedGraph.from_arrays(3, np.array([u]), np.array([v]), np.array([1.0]))

    @pytest.mark.parametrize("n", [2**33, 2**63, 3_037_000_500])
    def test_rejects_vertex_counts_whose_pair_keys_overflow(self, n):
        with pytest.raises(ValueError, match="more than 3037000499"):
            WeightedGraph(n, ((0, 1, 1.0),))
        with pytest.raises(ValueError, match="more than 3037000499"):
            WeightedGraph.from_arrays(n, np.zeros(0, np.int64), np.zeros(0, np.int64), [])

    def test_integer_valued_float_endpoints_pass(self):
        expected = ((0, 2, 1.0), (1, 2, 3.0))
        assert WeightedGraph(3, ((0.0, 2.0, 1.0), (2, 1.0, 3.0))).edges == expected
        u, v = np.array([0.0, 2.0]), np.array([2.0, 1.0])
        assert WeightedGraph.from_arrays(3, u, v, np.array([1.0, 3.0])).edges == expected

    def test_edge_arrays_follow_edges(self):
        g = WeightedGraph(4, ((3, 1, 0.5), (0, 2, 2.0), (1, 0, 1.5)))
        assert g.edges == ((0, 1, 1.5), (0, 2, 2.0), (1, 3, 0.5))
        assert list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist())) == list(g.edges)
        with pytest.raises(ValueError):
            g.w[0] = 9.0

    def test_equality_and_hash_follow_normalized_edges(self):
        g = WeightedGraph(3, ((2, 0, 1.5), (1, 2, 2.0)))
        same = WeightedGraph(3, ((1, 2, 2.0), (0, 2, 1.5)))
        assert g == same and hash(g) == hash(same)
        assert g != WeightedGraph(3, ((0, 2, 1.5), (1, 2, 2.5)))
        assert g != WeightedGraph(4, ((0, 2, 1.5), (1, 2, 2.0)))
        assert g != WeightedGraph(3, ((0, 1, 1.5), (1, 2, 2.0)))
        assert len({g, same}) == 1

    def test_immutable(self):
        g = WeightedGraph(2, ((0, 1, 1.0),))
        with pytest.raises(FrozenInstanceError):
            g.n_vertices = 3
        with pytest.raises(FrozenInstanceError):
            del g.u

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_from_arrays_matches_tuple_constructor(self, data):
        graph, _ = data.draw(random_graphs())
        m = len(graph.w)
        order = data.draw(st.permutations(range(m)))
        flip = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
        triples = [
            (v, u, w) if f else (u, v, w)
            for (u, v, w), f in zip((graph.edges[i] for i in order), flip)
        ]
        u, v, w = (np.array(col) for col in zip(*triples)) if m else ([], [], [])
        from_arrays = WeightedGraph.from_arrays(graph.n_vertices, u, v, w)
        assert from_arrays._edges is None  # the tuple is built on first read
        from_tuples = WeightedGraph(graph.n_vertices, tuple(triples))
        assert from_arrays == from_tuples == graph
        assert hash(from_arrays) == hash(from_tuples) == hash(graph)
        for name in ("u", "v", "w"):
            mine, theirs = getattr(from_arrays, name), getattr(from_tuples, name)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
        assert from_arrays.edges == from_tuples.edges == graph.edges
        assert from_arrays.edges is from_arrays.edges

    @pytest.mark.parametrize(
        "n, edges",
        [
            (0, ()),
            (2, ((0, 0, 1.0),)),
            (2, ((0, 1, 0.0),)),
            (2, ((0, 1, -2.0),)),
            (2, ((0, 1, 1.0), (1, 0, 2.0))),
            (2, ((0, 3, 1.0),)),
            (2, ((-1, 1, 1.0),)),
            (3, ((0, 1, 1.0), (1, 2, float("nan")))),
            (3, ((0, 1, float("inf")),)),
            (3, ((0, float("nan"), 1.0),)),
            (3, ((float("-inf"), 1, 1.0),)),
        ],
    )
    def test_invalid_arrays_raise_like_tuples(self, n, edges):
        with pytest.raises(ValueError) as from_tuples:
            WeightedGraph(n, edges)
        u, v, w = (np.array(col, dtype=float) for col in zip(*edges)) if edges else ([], [], [])
        with pytest.raises(ValueError) as from_arrays:
            WeightedGraph.from_arrays(n, u, v, w)
        assert str(from_arrays.value) == str(from_tuples.value)

    @pytest.mark.parametrize(
        "u, v, w",
        [([0, 1], [1], [1.0, 1.0]), ([[0, 1]], [[1, 2]], [[1.0, 1.0]]), (0, 1, 1.0)],
    )
    def test_columns_must_be_matching_vectors(self, u, v, w):
        with pytest.raises(ValueError, match="edges must be"):
            WeightedGraph.from_arrays(3, u, v, w)


class TestLaplacian:
    def test_adjacency_matches_the_edge_loop(self):
        rng = make_rng(60)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            edges = [
                (u, v, float(rng.random() + 0.1))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            reference = np.zeros((n, n))
            for u, v, w in edges:
                reference[u, v] = reference[v, u] = w
            assert np.array_equal(WeightedGraph(n, tuple(edges)).adjacency(), reference)

    def test_edgeless_graph(self):
        g = WeightedGraph(3, ())
        assert np.array_equal(laplacian(g), np.zeros((3, 3)))

    def test_single_weighted_edge(self):
        w = 2.5
        g = WeightedGraph(2, ((0, 1, w),))
        assert np.allclose(laplacian(g), [[w, -w], [-w, w]])

    def test_unit_triangle(self):
        g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
        expected = 2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3))
        assert np.allclose(laplacian(g), expected)

    def test_structure_on_random_graphs(self):
        rng = make_rng(61)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            edges = [
                (u, v, float(rng.random() + 0.1))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = WeightedGraph(n, tuple(edges))
            lap = laplacian(g)
            assert np.allclose(lap, lap.T)
            assert np.max(np.abs(lap.sum(axis=1))) <= 1e-12
            adj = g.adjacency()
            assert np.allclose(lap, np.diag(adj.sum(axis=1)) - adj, rtol=0, atol=1e-12)
            vals = np.linalg.eigvalsh(lap)
            assert vals.min() >= -1e-10
            assert np.sum(np.abs(vals) <= ZERO_EIGENVALUE_TOL) == components(g).q

    def test_spectrum_computed_once_and_read_only(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5)))
        for k in (2, 4):  # sparse and dense paths
            vals, vecs = laplacian_spectrum(g, k)
            assert vals.shape == (k,) and vecs.shape == (4, k)
            assert laplacian_spectrum(g, k)[1] is vecs
            assert np.allclose(laplacian_eigenvalues(g)[:k], vals, rtol=0, atol=1e-12)
            with pytest.raises(ValueError):
                vecs[0, 0] = 1.0
        assert laplacian_eigenvalues(g) is laplacian_eigenvalues(g)


def cycle(n, weight=1.0):
    return WeightedGraph(n, tuple((i, (i + 1) % n, weight) for i in range(n)))


def hypercube(dim, weight=1.0):
    n = 2**dim
    return WeightedGraph(
        n, tuple((i, i | 1 << b, weight) for i in range(n) for b in range(dim) if not i >> b & 1)
    )


def cliques(count, size):
    return WeightedGraph(
        count * size,
        tuple(
            (c * size + i, c * size + j, 1.0)
            for c in range(count)
            for i, j in itertools.combinations(range(size), 2)
        ),
    )


def grid(rows, cols):
    at = lambda i, j: i * cols + j  # noqa: E731
    edges = [(at(i, j), at(i + 1, j), 1.0) for i in range(rows - 1) for j in range(cols)]
    edges += [(at(i, j), at(i, j + 1), 1.0) for i in range(rows) for j in range(cols - 1)]
    return WeightedGraph(rows * cols, tuple(edges))


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 24))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weights = draw(
        st.lists(st.floats(0.05, 20.0), min_size=len(pairs), max_size=len(pairs))
    )
    graph = WeightedGraph(n, tuple((u, v, w) for (u, v), k, w in zip(pairs, keep, weights) if k))
    return graph, draw(st.integers(1, n))


def check_against_dense_oracle(graph, k, require_gap=False):
    """The k lowest eigenpairs against np.linalg.eigh of the dense Laplacian.

    Eigenvalues agree to 1e-9 of the spectral scale; where lambda_q, q = k - 1,
    is followed by a gap of at least 1e-3 of the scale, the spans of the q
    lowest eigenvectors agree to d_sp 1e-9. Two equal graphs (fresh caches)
    give bit-identical output.
    """
    vals, vecs = laplacian_spectrum(graph, k)
    oracle_vals, oracle_vecs = np.linalg.eigh(laplacian(graph))
    scale = max(float(oracle_vals[-1]), 1e-300)
    assert vals.shape == (k,) and vecs.shape == (graph.n_vertices, k)
    assert np.all(np.abs(vals - oracle_vals[:k]) <= 1e-9 * scale)
    assert np.allclose(vecs.T @ vecs, np.eye(k), rtol=0, atol=1e-10)
    q = k - 1
    gapped = q >= 1 and oracle_vals[q] - oracle_vals[q - 1] >= 1e-3 * scale
    assert gapped or not require_gap
    if gapped:
        span = OrthonormalFrame(vecs[:, :q])
        assert dsp_projector(span, OrthonormalFrame(oracle_vecs[:, :q])) < 1e-9
    again = [WeightedGraph(graph.n_vertices, graph.edges) for _ in range(2)]
    first, second = (laplacian_spectrum(g, k) for g in again)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


class TestSparseSpectrum:
    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_random_graphs_against_dense_oracle(self, graph_and_k):
        check_against_dense_oracle(*graph_and_k)

    @pytest.mark.parametrize(
        "graph, k",
        [
            (cycle(40), 4),  # 0, then pairs: a, a | b
            (cycle(40, 1e-6), 4),
            (cycle(40, 1e6), 4),
            (hypercube(6), 8),  # 0, then 2 six times | 4
            (hypercube(6, 1e-6), 8),
            (hypercube(6, 1e6), 8),
            (cliques(5, 8), 6),  # five zeros | 8
            (cliques(1, 60), 2),  # K60: 0 | 60 (59 times)
            (grid(7, 9), 2),
            (WeightedGraph(12, ((0, 1, 2.0), (2, 3, 1.0), (3, 4, 1.0))), 10),
        ],
    )
    def test_structured_graphs_against_dense_oracle(self, graph, k):
        check_against_dense_oracle(graph, k, require_gap=True)

    @pytest.mark.parametrize(
        "graph",
        [cycle(30), hypercube(4), cliques(3, 5), cliques(1, 20), grid(4, 5), WeightedGraph(6, ())],
    )
    def test_every_k_up_to_n(self, graph):
        for k in range(1, graph.n_vertices + 1):
            check_against_dense_oracle(graph, k)

    def test_missed_repeated_eigenvalue_is_caught(self, monkeypatch):
        # Lanczos can return the next eigenvalue in place of a second copy of
        # a repeated one; a result that skips a copy must not be accepted.
        graph = cycle(12)
        dense_vals, dense_vecs = np.linalg.eigh(laplacian(graph))

        def skipping_lanczos(shift_inverse, operator, shift, start, k, rng):
            keep = [0] + list(range(2, k + 1))  # drops one of the pair at index 1, 2
            return dense_vals[keep], dense_vecs[:, keep]

        monkeypatch.setattr(spectra, "lanczos", skipping_lanczos)
        vals, _ = laplacian_spectrum(graph, 4)
        assert np.allclose(vals, dense_vals[:4], rtol=0, atol=1e-12)

    def test_lanczos_failure_falls_back_to_dense(self, monkeypatch):
        monkeypatch.setattr(spectra, "lanczos", lambda *args: None)  # no convergence
        check_against_dense_oracle(hypercube(3), 4)

    def test_more_eigenvalues_than_vertices(self):
        graph = cycle(5)
        ctx = GraphPerturbation(graph, graph, QCut(labels=(0,) * 5, q=1))
        for solve in (lambda k: laplacian_spectrum(graph, k), ctx.perturbed_spectrum):
            with pytest.raises(MissingEigenvalue):
                solve(6)
            with pytest.raises(ValueError):
                solve(0)


class TestLaplacianEigenvalues:
    @pytest.mark.parametrize(
        "graph",
        [
            cliques(6, 7),
            WeightedGraph(9, ()),
            WeightedGraph(7, ((5, 6, 3.0), (0, 2, 1.0), (2, 4, 0.5))),
            hypercube(5),
        ],
    )
    def test_union_of_components_matches_dense(self, graph):
        oracle = np.linalg.eigvalsh(laplacian(graph))
        assert np.allclose(laplacian_eigenvalues(graph), oracle, rtol=0, atol=1e-12)

    def test_random_graphs_match_dense(self):
        rng = make_rng(62)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            edges = tuple(
                (u, v, float(rng.random() + 0.1))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.1
            )
            g = WeightedGraph(n, edges)
            oracle = np.linalg.eigvalsh(laplacian(g))
            assert np.allclose(laplacian_eigenvalues(g), oracle, rtol=0, atol=1e-12)

    @staticmethod
    def own_laplacian(graph, labels, c):
        """The Laplacian of class c's edges alone, over its vertices in ascending order."""
        members = np.flatnonzero(labels == c)
        mine = labels[graph.u] == c
        u, v = (np.searchsorted(members, ends[mine]) for ends in (graph.u, graph.v))
        return graphs._laplacian_from_edges(len(members), u, v, graph.w[mine])

    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=8),
           edge_p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_every_block_is_its_class_laplacian(self, sizes, edge_p, seed):
        # Classes of these sizes (repeats and any label order), vertices shuffled.
        rng = make_rng(seed)
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        n = len(labels)
        edges = tuple(
            (u, v, float(rng.random() + 0.1))
            for u in range(n) for v in range(u + 1, n)
            if labels[u] == labels[v] and rng.random() < edge_p
        )
        graph = WeightedGraph(n, edges)
        seen, last_size = [], 0
        for classes, members, stack in graphs._block_laplacians(
            n, graph.u, graph.v, graph.w, labels
        ):
            size = stack.shape[1]
            assert size > last_size and stack.shape == (len(classes), size, size)
            assert np.all(np.diff(classes) > 0)  # label order within a size
            last_size = size
            for c, vertices, block in zip(classes.tolist(), members, stack):
                assert np.array_equal(vertices, np.flatnonzero(labels == c))
                assert block.tobytes() == self.own_laplacian(graph, labels, c).tobytes()
            seen += classes.tolist()
        assert sorted(seen) == list(range(len(sizes)))
        components = graphs.component_labels(n, graph.u, graph.v)
        oracle = np.sort(np.concatenate([
            np.linalg.eigvalsh(self.own_laplacian(graph, components, c))
            for c in range(components.max() + 1)
        ]))
        assert graphs.component_eigenvalues(graph).tobytes() == oracle.tobytes()


def clustered_pair(blocks, cross, scale=1.0):
    """Base = the disjoint union of ``blocks``; perturbed = base plus ``cross``.

    ``cross`` lists (u, v, w) edges between blocks, in global vertex ids.
    Every weight is multiplied by ``scale``.
    """
    offsets = np.cumsum([0] + [g.n_vertices for g in blocks])
    edges = [
        (int(u + off), int(v + off), w * scale)
        for g, off in zip(blocks, offsets)
        for u, v, w in g.edges
    ]
    labels = np.repeat(np.arange(len(blocks)), [g.n_vertices for g in blocks])
    base = WeightedGraph(int(offsets[-1]), tuple(edges))
    added = tuple((u, v, w * scale) for u, v, w in cross)
    pert = WeightedGraph(base.n_vertices, base.edges + added)
    return base, pert, QCut(labels=tuple(labels.tolist()), q=len(blocks))


def cutoffs_between(values, scale):
    """Cutoffs below and above ``values`` and midway across each gap wider than 1e-3 * scale."""
    mids = [(a + b) / 2 for a, b in zip(values, values[1:]) if b - a > 1e-3 * scale]
    return [values[0] - 0.5 * scale, *mids, values[-1] + 0.5 * scale]


def check_low_rank_count(base, pert, cut):
    """The low-rank count against count_below and the dense count.

    At cutoffs clear of both spectra the low-rank count must resolve.
    """
    ctx = GraphPerturbation(base, pert, cut)
    lap = spectra.sparse_laplacian(pert)
    dense = np.linalg.eigvalsh(laplacian(pert))
    scale = max(float(dense[-1]), 1e-300)
    both = np.sort(np.concatenate((dense, np.linalg.eigvalsh(laplacian(base)))))
    for cutoff in cutoffs_between(both, scale):
        expected = np.count_nonzero(dense < cutoff)
        assert ctx.count_perturbed_below(cutoff) == expected, cutoff
        assert spectra.count_below(lap, cutoff, tolerance=1e-10 * scale) in (None, expected)


@st.composite
def clustered_perturbations(draw):
    """q <= 4 random weighted clusters plus 1 to n - 1 random edges between them.

    Every weight is drawn from [0.05, 20] and multiplied by one scale: 1, 1e-6 or 1e6.
    """
    scale = draw(st.sampled_from([1.0, 1e-6, 1e6]))
    weight = st.floats(0.05, 20.0).map(lambda w: w * scale)
    q = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 7), min_size=q, max_size=q))
    offsets = np.cumsum([0] + sizes)
    n = int(offsets[-1])
    edges = []
    for size, off in zip(sizes, offsets):
        for i, j in itertools.combinations(range(size), 2):
            if draw(st.booleans()):
                edges.append((int(off + i), int(off + j), draw(weight)))
    labels = np.repeat(np.arange(q), sizes)
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if labels[u] != labels[v]]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=n - 1, unique=True))
    base = WeightedGraph(n, tuple(edges))
    pert = WeightedGraph(n, base.edges + tuple((u, v, draw(weight)) for u, v in chosen))
    return base, pert, QCut(labels=tuple(labels.tolist()), q=q)


def searched_extension(base, pert, cut):
    """The added edges (u, v, w), found by looking each base edge up in the perturbed graph.

    An independent oracle of the extension check: NotAnEdgeSuperset names
    the first base edge that crosses clusters, is missing or changed weight,
    and then the first added edge within a cluster.
    """
    labels = np.asarray(cut.labels)
    base_keys, pert_keys = base.edge_keys(), pert.edge_keys()
    pos = np.searchsorted(pert_keys, base_keys)
    found = pos < len(pert_keys)
    found[found] = pert_keys[pos[found]] == base_keys[found]
    for i, (u, v, w) in enumerate(base.edges):
        if labels[u] != labels[v]:
            raise NotAnEdgeSuperset(f"base graph has inter-cluster edge ({u},{v})")
        if not found[i]:
            raise NotAnEdgeSuperset(f"perturbed graph lacks base edge ({u},{v})")
        if pert.w[pos[i]] != w:
            new = float(pert.w[pos[i]])
            raise NotAnEdgeSuperset(f"edge ({u},{v}) changed weight {w} -> {new}")
    added = np.ones(len(pert_keys), dtype=bool)
    added[pos] = False
    for i in np.flatnonzero(added):
        u, v = int(pert.u[i]), int(pert.v[i])
        if labels[u] == labels[v]:
            raise NotAnEdgeSuperset(f"perturbed graph adds intra-cluster edge ({u},{v})")
    return pert.u[added], pert.v[added], pert.w[added]


@st.composite
def extension_triples(draw):
    """A valid (base, perturbed, cut) triple, or one with one to three corruptions.

    A corruption drops a base edge from the perturbed graph, changes one's
    weight, adds an intra-cluster edge to the perturbed graph, or adds an
    inter-cluster edge to the base.
    """
    n = draw(st.integers(2, 9))
    q = draw(st.integers(1, min(n, 4)))
    labels = draw(st.permutations(list(range(q)) + draw(
        st.lists(st.integers(0, q - 1), min_size=n - q, max_size=n - q))))
    weight = st.sampled_from([0.5, 1.0, 2.0, 3.25])
    pairs = list(itertools.combinations(range(n), 2))
    base = {p: draw(weight) for p in pairs if labels[p[0]] == labels[p[1]] and draw(st.booleans())}
    pert = dict(base)
    pert.update({p: draw(weight) for p in pairs
                 if labels[p[0]] != labels[p[1]] and draw(st.booleans())})
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["drop", "reweight", "add_intra", "base_cross"]))
        intra_free = [p for p in pairs if labels[p[0]] == labels[p[1]] and p not in pert]
        cross_free = [p for p in pairs if labels[p[0]] != labels[p[1]] and p not in base]
        if kind in ("drop", "reweight") and base:
            p = draw(st.sampled_from(sorted(base)))
            if kind == "drop":
                pert.pop(p, None)
            else:
                pert[p] = base[p] + 1.0
        elif kind == "add_intra" and intra_free:
            pert[draw(st.sampled_from(intra_free))] = draw(weight)
        elif kind == "base_cross" and cross_free:
            base[draw(st.sampled_from(cross_free))] = draw(weight)

    def graph(edges):
        return WeightedGraph(n, tuple((u, v, w) for (u, v), w in sorted(edges.items())))

    return graph(base), graph(pert), QCut(labels=tuple(labels), q=q)


class TestExtensionCheck:
    @settings(max_examples=400, deadline=None)
    @given(extension_triples())
    def test_accepts_and_rejects_as_the_search_does(self, triple):
        try:
            expected = searched_extension(*triple)
        except NotAnEdgeSuperset as exc:
            with pytest.raises(NotAnEdgeSuperset) as got:
                GraphPerturbation(*triple)
            assert str(got.value) == str(exc)
        else:
            added = GraphPerturbation(*triple).added
            assert all(np.array_equal(a, b) for a, b in zip(added, expected))

    def test_each_fault_is_named(self):
        base = WeightedGraph(6, ((0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)))
        cut = QCut(labels=(0, 0, 0, 1, 1, 1), q=2)
        cases = {
            "perturbed graph lacks base edge (1,2)": ((0, 1, 1.0), (3, 4, 1.0)),
            "edge (1,2) changed weight 1.0 -> 2.0": ((0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)),
            "perturbed graph adds intra-cluster edge (4,5)":
                ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)),
        }
        for message, edges in cases.items():
            with pytest.raises(NotAnEdgeSuperset, match=re.escape(message)):
                GraphPerturbation(base, WeightedGraph(6, edges), cut)
        crossing = WeightedGraph(6, ((0, 1, 1.0), (2, 3, 1.0)))
        with pytest.raises(NotAnEdgeSuperset, match=re.escape("inter-cluster edge (2,3)")):
            GraphPerturbation(crossing, crossing, cut)


class TestGraphPerturbation:
    def instance(self, seed=3, n=120, q=5):
        cfg = ExperimentConfig(n_vertices=n, q=q, seed=seed, inter_edge_count=12)
        base, cut = synth_clustered_graph(cfg)
        return base, add_intercluster_edges(base, cut, cfg), cut

    def test_tables_equal_the_standalone_functions(self):
        base, pert, cut = self.instance()
        ctx = GraphPerturbation(base, pert, cut)
        assert np.array_equal(ctx.couplings, couplings(cut, pert))
        assert np.array_equal(ctx.meds, max_external_degrees(cut, pert))
        assert np.allclose(ctx.base_values, laplacian_eigenvalues(base), rtol=0, atol=1e-12)
        assert np.array_equal(ctx.null_frame.columns, null_basis(cut).columns)
        for table in (ctx.couplings, ctx.meds, ctx.base_values):
            with pytest.raises(ValueError):
                table[0] = 1.0

    def test_checks_and_bounds_read_the_context(self):
        base, pert, cut = self.instance()
        ctx = GraphPerturbation(base, pert, cut)
        for check in (residual_identity_check, laplacian_diff_bound_check):
            assert check(ctx) == check(GraphPerturbation(base, pert, cut))
        for bound in (nullspace_bound_known_perturbed, nullspace_bound_known_base):
            with_ctx, fresh = bound(ctx), bound(GraphPerturbation(base, pert, cut))
            assert with_ctx.lhs_dsp == fresh.lhs_dsp
            assert [e.value for e in with_ctx.bounds] == [e.value for e in fresh.bounds]
            digests = [[e.inputs_digest for e in r.bounds] for r in (with_ctx, fresh)]
            assert digests[0] == digests[1]

    def test_digest_is_hashed_when_read(self, monkeypatch):
        base, pert, cut = self.instance()
        ctx = GraphPerturbation(base, pert, cut)
        stacked = []
        column_stack = np.column_stack
        monkeypatch.setattr(
            np, "column_stack", lambda arrays: stacked.append(1) or column_stack(arrays)
        )
        reports = [nullspace_bound_known_perturbed(ctx), nullspace_bound_known_base(ctx)]
        assert stacked == []
        h = hashlib.sha256(column_stack((pert.u, pert.v, pert.w)).tobytes())
        h.update(repr(cut.labels).encode())
        assert ctx.digest == h.hexdigest()[:12]
        assert all(e.inputs_digest == ctx.digest for r in reports for e in r.bounds)
        assert stacked == [1]

    @settings(max_examples=100, deadline=None)
    @given(triple=clustered_perturbations(), data=st.data())
    def test_cluster_eigh_is_each_clusters_own_laplacian(self, triple, data):
        base, pert, cut = triple
        perm = np.array(data.draw(st.permutations(range(base.n_vertices))))
        base, pert = (WeightedGraph(g.n_vertices, tuple((int(perm[u]), int(perm[v]), w)
                                                        for u, v, w in g.edges))
                      for g in (base, pert))
        labels = np.empty(len(perm), dtype=np.int64)
        labels[perm] = cut.labels
        ctx = GraphPerturbation(base, pert, QCut(tuple(labels.tolist()), cut.q))
        assert len(ctx._cluster_eigh) == cut.q
        for c, (members, vals, vecs) in enumerate(ctx._cluster_eigh):
            assert np.array_equal(members, np.flatnonzero(labels == c))
            mine = labels[base.u] == c
            u, v = (np.searchsorted(members, ends[mine]) for ends in (base.u, base.v))
            lap = graphs._laplacian_from_edges(len(members), u, v, base.w[mine])
            own_vals, own_vecs = np.linalg.eigh(lap)
            assert vals.tobytes() == own_vals.tobytes() and vecs.tobytes() == own_vecs.tobytes()

    def test_invalid_extension_raises_on_construction(self):
        base = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        with pytest.raises(NotAnEdgeSuperset):
            GraphPerturbation(base, WeightedGraph(4, ((0, 1, 1.0),)), QCut((0, 0, 1, 1), 2))

    def test_reproduce_validates_once_and_never_factors(self, monkeypatch):
        calls = {"validate": 0, "count_below": 0}
        validate, count_below = graphs._validate_extension, spectra.count_below

        def counting_validate(*args):
            calls["validate"] += 1
            return validate(*args)

        def counting_count_below(*args, **kwargs):
            calls["count_below"] += 1
            return count_below(*args, **kwargs)

        monkeypatch.setattr(graphs, "_validate_extension", counting_validate)
        monkeypatch.setattr(spectra, "count_below", counting_count_below)
        for seed in range(10):
            calls.update(validate=0, count_below=0)
            report = reproduce_pipeline(ExperimentConfig(n_vertices=333, q=12, seed=seed))
            assert report["all_inequalities_ok"]
            assert calls == {"validate": 1, "count_below": 0}, seed


class TestLowRankCount:
    @settings(max_examples=80, deadline=None)
    @given(clustered_perturbations())
    def test_random_clustered_graphs(self, instance):
        check_low_rank_count(*instance)

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
    @pytest.mark.parametrize(
        "blocks, cross",
        [
            ([hypercube(3), hypercube(3)], [(0, 8, 1.0), (7, 15, 2.0)]),
            (
                [hypercube(4), cliques(1, 6), hypercube(2)],
                [(0, 16, 1.0), (5, 21, 0.5), (3, 22, 1.5)],
            ),
            (
                [cliques(1, 8), cliques(1, 8), cliques(1, 5)],
                [(0, 8, 1.0), (1, 16, 1.0), (9, 17, 3.0)],
            ),
            ([cliques(1, 10), cycle(6)], [(0, 10, 1.0)]),
        ],
    )
    def test_repeated_eigenvalues(self, blocks, cross, scale):
        check_low_rank_count(*clustered_pair(blocks, cross, scale))

    @settings(max_examples=80, deadline=None)
    @given(clustered_perturbations())
    def test_stacked_count_matches_the_per_cluster_loop(self, instance):
        ctx = GraphPerturbation(*instance)
        base = np.linalg.eigvalsh(laplacian(ctx.base))
        pert = np.linalg.eigvalsh(laplacian(ctx.perturbed))
        scale = max(float(pert[-1]), 1e-300)
        cutoffs = [*cutoffs_between(np.sort(np.concatenate((base, pert))), scale), *base, *pert]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # padded entries divide nothing
            for cutoff in cutoffs:
                # the oracle has no border, so it may leave unresolved what the count resolves
                counted, oracle = ctx.count_perturbed_below(cutoff), count_oracle.low_rank_count(
                    ctx, cutoff
                )
                if oracle is None:
                    assert counted in (None, np.count_nonzero(pert < cutoff)), cutoff
                else:
                    assert counted == oracle, cutoff

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_resolves_beside_every_perturbed_eigenvalue(self, scale):
        # The certificate's cutoff, margin below each eigenvalue: many sit
        # beside a base eigenvalue that is also a perturbed one (more copies
        # than loads, or an untouched cluster's 0), a pole of S(t).
        for case in EIGENBASIS_CASES.values():
            ctx = GraphPerturbation(*clustered_pair(*case, scale))
            dense = np.linalg.eigvalsh(laplacian(ctx.perturbed))
            margin = spectra._shift_and_margin(ctx._perturbed_degrees)[1]
            for value in dense:
                cutoff = float(value) - margin
                assert ctx.count_perturbed_below(cutoff) == np.count_nonzero(dense < cutoff), cutoff

    def test_cutoff_on_a_base_eigenvalue_is_unresolved(self):
        base, pert, cut = clustered_pair([cliques(1, 6), hypercube(3)], [(0, 6, 1.0)])
        ctx = GraphPerturbation(base, pert, cut)
        for value in np.unique(ctx.base_values):
            assert ctx.count_perturbed_below(float(value)) is None

    def test_cutoff_on_a_perturbed_eigenvalue_is_unresolved(self):
        base, pert, cut = clustered_pair([grid(3, 4), cycle(7)], [(0, 12, 1.5), (11, 15, 0.5)])
        ctx = GraphPerturbation(base, pert, cut)
        for value in np.linalg.eigvalsh(laplacian(pert)):
            assert ctx.count_perturbed_below(float(value)) is None

    def test_only_the_standalone_solve_counts_by_the_factorization(self, monkeypatch):
        calls = []
        count_below = spectra.count_below

        def counting_count_below(*args, **kwargs):
            calls.append(args[1])
            return count_below(*args, **kwargs)

        monkeypatch.setattr(spectra, "count_below", counting_count_below)
        base, pert, cut = clustered_pair([cliques(1, 6), hypercube(3)], [(0, 6, 1.0), (2, 9, 0.5)])
        vals, _ = spectra.lowest_eigenpairs(pert, 4)
        assert len(calls) == 1
        assert np.allclose(vals, np.linalg.eigvalsh(laplacian(pert))[:4], rtol=0, atol=1e-12)
        # the perturbed solve counts by the factorization only after the
        # eigenbasis result is rejected (see test_certificate_census)
        factored = []
        for name, case in EIGENBASIS_CASES.items():
            base, pert, cut = clustered_pair(*case)
            for k in range(1, pert.n_vertices):
                calls.clear()
                spectra.perturbed_eigenpairs(GraphPerturbation(base, pert, cut), k)
                factored += [(name, k)] * len(calls)
        assert factored == [("untouched-clusters", 10)]

    def test_as_many_added_edges_as_vertices_is_counted(self):
        cross = [(0, 3, 1.0), (0, 4, 1.0), (1, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0), (2, 3, 1.0)]
        base, pert, cut = clustered_pair([cycle(3), cycle(3)], cross)
        ctx = GraphPerturbation(base, pert, cut)
        dense = np.linalg.eigvalsh(laplacian(pert))
        for cutoff in cutoffs_between(dense, float(dense[-1])):
            assert ctx.count_perturbed_below(cutoff) == np.count_nonzero(dense < cutoff), cutoff


EIGENBASIS_CASES = {
    # clusters 2, 3 and 4 are untouched: the perturbed graph has four
    # components, so 0 is a fourfold eigenvalue
    "untouched-clusters": (
        [hypercube(3), cliques(1, 6), cycle(5), hypercube(2), cliques(1, 4)],
        [(0, 8, 1.0), (3, 13, 0.5)],
    ),
    "untouched-hypercube-and-clique": (
        [hypercube(3), cliques(1, 5), hypercube(3), cliques(1, 5)],
        [(0, 8, 1.0), (2, 9, 2.0)],
    ),
    "hypercubes-and-clique": (
        [hypercube(4), cliques(1, 6), hypercube(2)],
        [(0, 16, 1.0), (5, 21, 0.5), (3, 22, 1.5)],
    ),
    "cliques": (
        [cliques(1, 8), cliques(1, 8), cliques(1, 5)],
        [(0, 8, 1.0), (1, 16, 1.0), (9, 17, 3.0)],
    ),
    "hypercubes": ([hypercube(3), hypercube(3)], [(0, 8, 1.0), (7, 15, 2.0)]),
}


class TestEigenbasisSolve:
    """``spectra._eigenbasis_lowest`` against a dense ``eigh`` of the perturbed Laplacian."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("name", sorted(EIGENBASIS_CASES))
    def test_matches_dense_eigh(self, name, scale):
        base, pert, cut = clustered_pair(*EIGENBASIS_CASES[name], scale)
        lap = laplacian(pert)
        dense_vals, dense_vecs = np.linalg.eigh(lap)
        tol = 20 * np.finfo(float).eps * dense_vals[-1]
        q = cut.q
        null = dense_vecs[:, :q]
        certified = 0
        for k in range(q + 1, q + 4):
            spectrum = spectra._eigenbasis_lowest(GraphPerturbation(base, pert, cut), k)
            if spectrum is None:  # not trusted; TestSolvePaths covers the fall-through
                continue
            certified += 1
            vals, vecs = spectrum
            assert np.max(np.abs(vals - dense_vals[:k])) <= tol, k
            assert np.max(np.linalg.norm(lap @ vecs - vecs * vals, axis=0)) <= tol, k
            # sine of the largest angle between the spans of the q lowest eigenvectors
            sine = np.linalg.norm(vecs[:, :q] - null @ (null.T @ vecs[:, :q]), 2)
            assert sine <= tol / (dense_vals[q] - dense_vals[q - 1]), k
        assert certified

    def test_certificate_census(self, monkeypatch):
        # Over every k < n of every case: how many eigenbasis results the
        # low-rank count certifies, how many it rejects for leaving the count
        # unresolved, and how many because Lanczos missed an eigenvalue. The
        # one miss is k = 10 of "untouched-clusters": eigenvalue 2 has copies
        # from two clusters' eigh, distinct by rounding. A weaker
        # orthogonalization in ``spectra.lanczos`` shows here first. No case
        # is large enough for the sliced solve (see ``TestSlicedSolve``).
        count = GraphPerturbation.count_perturbed_below
        counted = []

        def spy(ctx, cutoff):
            counted.append(count(ctx, cutoff))
            return counted[-1]

        monkeypatch.setattr(GraphPerturbation, "count_perturbed_below", spy)
        census = {"certified": 0, "unresolved": 0, "missed": 0}
        for case in EIGENBASIS_CASES.values():
            base, pert, cut = clustered_pair(*case)
            for k in range(1, pert.n_vertices):
                counted.clear()
                trusted = spectra._eigenbasis_lowest(GraphPerturbation(base, pert, cut), k)
                assert len(counted) == 1, k  # one count per run
                if trusted is not None:
                    census["certified"] += 1
                elif counted == [None]:
                    census["unresolved"] += 1
                else:
                    census["missed"] += 1
        assert census == {"certified": 110, "unresolved": 0, "missed": 1}

    @pytest.mark.parametrize("name", sorted(EIGENBASIS_CASES))
    def test_every_k_matches_dense_eigh(self, name):
        # whichever solve answers: the eigenbasis, the sparse shift-invert or dense eigh
        base, pert, cut = clustered_pair(*EIGENBASIS_CASES[name])
        dense = np.linalg.eigvalsh(laplacian(pert))
        tol = 1e-12 * dense[-1]
        for k in range(1, pert.n_vertices + 1):
            vals, _ = spectra.perturbed_eigenpairs(GraphPerturbation(base, pert, cut), k)
            assert np.max(np.abs(vals - dense[:k])) <= tol, k


class TestSolvePaths:
    """Which solve ``GraphPerturbation.perturbed_spectrum`` takes, seen through spies."""

    @staticmethod
    def spy_lanczos(monkeypatch):
        """Record, per Lanczos run, whether its shifted inverse was a SuperLU solve."""
        sparse = []
        lanczos = spectra._lanczos_lowest

        def spy(graph, k, count, operator, shift_inverse, *args):
            factor = getattr(shift_inverse, "__self__", None)
            sparse.append(isinstance(factor, scipy.sparse.linalg.SuperLU))
            return lanczos(graph, k, count, operator, shift_inverse, *args)

        monkeypatch.setattr(spectra, "_lanczos_lowest", spy)
        return sparse

    @staticmethod
    def spy_splu(monkeypatch):
        """Count the sparse LU factorizations."""
        calls = []
        splu = scipy.sparse.linalg.splu

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return splu(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
        return calls

    def test_perturbation_path_never_calls_splu(self, monkeypatch):
        splu_calls = self.spy_splu(monkeypatch)
        sparse = self.spy_lanczos(monkeypatch)
        for n, q, seed in [(333, 12, s) for s in range(5)] + [(2000, 24, 0)]:
            report = reproduce_pipeline(ExperimentConfig(n_vertices=n, q=q, seed=seed))
            assert report["all_inequalities_ok"]
        assert sparse == [False] * 6
        assert splu_calls == []
        # the spy sees a standalone graph's factorization
        spectra.lowest_eigenpairs(cycle(12), 3)
        assert splu_calls

    def test_perturbed_spectrum_ignores_a_standalone_solve(self, monkeypatch):
        cfg = ExperimentConfig(n_vertices=333, q=12, seed=0)
        ctx = synth_perturbation(cfg)
        standalone = laplacian_spectrum(ctx.perturbed, 13)  # SuperLU's shift-invert
        splu_calls = self.spy_splu(monkeypatch)
        vals, vecs = ctx.perturbed_spectrum(13)
        assert splu_calls == []
        assert vals is not standalone[0]
        fresh_vals, fresh_vecs = synth_perturbation(cfg).perturbed_spectrum(13)
        assert np.array_equal(vals, fresh_vals) and np.array_equal(vecs, fresh_vecs)
        assert ctx.perturbed_spectrum(13)[0] is vals  # kept per k
        assert laplacian_spectrum(ctx.perturbed, 13)[0] is standalone[0]

    def test_disagreeing_count_falls_through_to_sparse_then_dense(self, monkeypatch):
        base, pert, cut = clustered_pair(*EIGENBASIS_CASES["hypercubes-and-clique"])
        dense_vals, dense_vecs = np.linalg.eigh(laplacian(pert))
        count = GraphPerturbation.count_perturbed_below
        wrong_first = []

        def wrong_once(ctx, cutoff):
            if not wrong_first:
                wrong_first.append(cutoff)
                return -1
            return count(ctx, cutoff)

        sparse = self.spy_lanczos(monkeypatch)
        monkeypatch.setattr(GraphPerturbation, "count_perturbed_below", wrong_once)
        vals, _ = spectra.perturbed_eigenpairs(GraphPerturbation(base, pert, cut), 4)
        assert sparse == [False, True]
        assert np.allclose(vals, dense_vals[:4], rtol=0, atol=1e-12)

        sparse.clear()
        monkeypatch.setattr(GraphPerturbation, "count_perturbed_below", lambda ctx, cutoff: -1)
        monkeypatch.setattr(spectra, "count_below", lambda *args, **kwargs: -1)
        vals, vecs = spectra.perturbed_eigenpairs(GraphPerturbation(base, pert, cut), 4)
        assert sparse == [False, True]
        assert np.array_equal(vals, dense_vals[:4]) and np.array_equal(vecs, dense_vecs[:, :4])

    def test_failed_cholesky_falls_through_to_sparse(self, monkeypatch):
        base, pert, cut = clustered_pair(*EIGENBASIS_CASES["hypercubes-and-clique"])
        sparse = self.spy_lanczos(monkeypatch)

        def failing_cholesky(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
        vals, _ = GraphPerturbation(base, pert, cut).perturbed_spectrum(4)
        assert sparse == [True]
        assert np.allclose(vals, np.linalg.eigvalsh(laplacian(pert))[:4], rtol=0, atol=1e-12)

    def test_as_many_added_edges_as_vertices_uses_the_sparse_path(self, monkeypatch):
        cross = [(0, 3, 1.0), (0, 4, 1.0), (1, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0), (2, 3, 1.0)]
        base, pert, cut = clustered_pair([cycle(3), cycle(3)], cross)
        sparse = self.spy_lanczos(monkeypatch)
        vals, _ = GraphPerturbation(base, pert, cut).perturbed_spectrum(3)
        assert sparse == [True]
        assert np.allclose(vals, np.linalg.eigvalsh(laplacian(pert))[:3], rtol=0, atol=1e-12)


class TestComponents:
    def test_edgeless(self):
        cut = components(WeightedGraph(3, ()))
        assert cut.q == 3
        assert cut.labels == (0, 1, 2)

    def test_two_disjoint_edges(self):
        cut = components(WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0))))
        assert cut.q == 2
        assert cut.labels == (0, 0, 1, 1)

    def test_path_is_connected(self):
        cut = components(WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))))
        assert cut.q == 1

    def test_labels_by_smallest_vertex(self):
        cut = components(WeightedGraph(4, ((1, 3, 1.0),)))
        # components {0}, {1,3}, {2} labeled in order of smallest member
        assert cut.labels == (0, 1, 2, 1)

    def test_matches_scipy_on_random_graphs(self):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        rng = make_rng(68)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            edges = [
                (u, v, 1.0)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 1.5 / n
            ]
            g = WeightedGraph(n, tuple(edges))
            adj = coo_matrix((g.w, (g.u, g.v)), shape=(n, n))
            count, oracle = connected_components(adj, directed=False)
            first_seen: dict[int, int] = {}
            expected = tuple(first_seen.setdefault(x, len(first_seen)) for x in oracle)
            cut = components(g)
            assert (cut.q, cut.labels) == (count, expected)


class TestDegreeCertificate:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
    )))
    def test_a_certified_graph_has_one_component(self, n_and_keep):
        n, keep = n_and_keep
        iu, iv = np.triu_indices(n, 1)
        u, v = iu[np.array(keep, dtype=bool)], iv[np.array(keep, dtype=bool)]
        if graphs.degree_certifies_connected(n, u, v):
            assert graphs.component_labels(n, u, v).max() == 0

    def test_threshold(self):
        # A 4-cycle has minimum degree 2 >= 3 / 2. Two disjoint edges (degree 1)
        # are disconnected, and a 4-vertex path (degree 1) is connected but not
        # certified; a 3-vertex path (1 >= 2 / 2) is.
        assert graphs.degree_certifies_connected(4, np.array([0, 1, 2, 0]), np.array([1, 2, 3, 3]))
        assert not graphs.degree_certifies_connected(4, np.array([0, 2]), np.array([1, 3]))
        assert not graphs.degree_certifies_connected(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
        assert graphs.degree_certifies_connected(3, np.array([0, 1]), np.array([1, 2]))
        assert graphs.degree_certifies_connected(1, np.array([], int), np.array([], int))
        assert graphs.degree_certifies_connected(2, np.array([0]), np.array([1]))
        assert not graphs.degree_certifies_connected(2, np.array([], int), np.array([], int))


class TestNullBasis:
    def test_single_cluster_of_four(self):
        frame = null_basis(QCut(labels=(0, 0, 0, 0), q=1))
        assert np.allclose(frame.columns, 0.5)

    def test_two_singletons(self):
        frame = null_basis(QCut(labels=(0, 1), q=2))
        assert np.allclose(np.abs(frame.columns), np.eye(2))

    def test_matches_per_cluster_loop(self):
        rng = make_rng(340)
        for _ in range(30):
            n = int(rng.integers(1, 30))
            q = int(rng.integers(1, n + 1))
            labels = rng.permutation(np.concatenate((np.arange(q), rng.integers(0, q, n - q))))
            cut = QCut(labels=tuple(labels.tolist()), q=q)
            cols = np.zeros((n, q))
            for j in range(q):
                members = cut.members(j)
                cols[members, j] = 1.0 / np.sqrt(len(members))
            assert null_basis(cut).columns.tobytes() == OrthonormalFrame(cols).columns.tobytes()

    def test_annihilated_by_component_laplacian(self):
        g = WeightedGraph(5, ((0, 1, 2.0), (1, 2, 1.0), (3, 4, 0.5)))
        cut = components(g)
        frame = null_basis(cut)
        assert np.linalg.norm(laplacian(g) @ frame.columns) <= 1e-12


class TestExternalDegreeAndCoupling:
    def test_figure_example(self):
        w1, w2, w3, w4 = 0.3, 0.7, 1.1, 0.5
        graph, cut = figure_graph(w1, w2, w3, w4)
        assert external_degree(0, 0, cut, graph) == pytest.approx(w1 + w2)
        assert external_degree(1, 0, cut, graph) == pytest.approx(w3)
        assert external_degree(3, 0, cut, graph) == 0.0
        # outside vertex relative to the cluster: weight entering it
        assert external_degree(7, 0, cut, graph) == pytest.approx(w3 + w4)
        expected_cp = (
            (w1 + w2) ** 2 + w3**2 + w4**2 + w1**2 + w2**2 + (w3 + w4) ** 2
        ) / 5
        assert coupling(0, cut, graph) == pytest.approx(expected_cp)
        assert max_external_degree(0, cut, graph) == pytest.approx(max(w1 + w2, w3, w4))

    def test_disconnected_cluster_is_zero(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        cut = QCut(labels=(0, 0, 1, 1), q=2)
        assert coupling(0, cut, g) == 0.0
        assert max_external_degree(0, cut, g) == 0.0

    def test_single_cross_edge(self):
        w, m = 1.7, 3
        g = WeightedGraph(5, ((0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (0, 3, w)))
        cut = QCut(labels=(0, 0, 0, 1, 1), q=2)
        assert coupling(0, cut, g) == pytest.approx(2 * w**2 / m)

    @pytest.mark.parametrize("vertex", [-1, 7])
    def test_vertex_outside_the_graph(self, vertex):
        g = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
        cut = QCut(labels=(0, 0, 1, 1), q=2)
        with pytest.raises(InvalidConfig, match="outside 0..3"):
            external_degree(vertex, 1, cut, g)

    def test_single_unit_external_edge(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0), (1, 2, 1.0)))
        cut = QCut(labels=(0, 0, 1, 1), q=2)
        assert external_degree(1, 0, cut, g) == 1.0

    def test_star_of_unit_external_edges(self):
        k = 4
        edges = tuple((0, v, 1.0) for v in range(1, k + 1))
        g = WeightedGraph(k + 1, edges)
        cut = QCut(labels=(0,) + (1,) * k, q=2)
        assert max_external_degree(0, cut, g) == pytest.approx(float(k))

    def test_empty_cluster_rejected(self):
        g = WeightedGraph(2, ((0, 1, 1.0),))
        cut = QCut(labels=(0, 1), q=2)
        with pytest.raises(EmptyCluster):
            coupling(5, cut, g)

    def test_sandwich(self):
        graph, cut = figure_graph()
        # several crossing edges with distinct weights: strictly sandwiched
        s = coupling_sandwich(0, cut, graph)
        assert s["lower"] < s["value"] < s["upper"]
        for cluster in range(2):
            s = coupling_sandwich(cluster, cut, graph)
            assert s["lower"] <= s["value"] <= s["upper"] + 1e-12
        # single cross edge: all three coincide
        g = WeightedGraph(3, ((0, 1, 1.0), (0, 2, 2.0)))
        cut2 = QCut(labels=(0, 0, 1), q=2)
        s = coupling_sandwich(0, cut2, g)
        assert s["lower"] == pytest.approx(s["value"]) == pytest.approx(s["upper"])

    def test_sandwiches_equal_the_per_cluster_filter(self):
        # The one-pass table must add each cluster's weights in edge order,
        # exactly as filtering the crossing edges by that cluster does.
        rng = make_rng(72)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            q = int(rng.integers(1, min(n, 6) + 1))
            labels = np.concatenate([np.arange(q), rng.integers(0, q, n - q)])
            rng.shuffle(labels)
            iu, iv = np.triu_indices(n, 1)
            pick = rng.choice(len(iu), size=int(rng.integers(0, len(iu) + 1)), replace=False)
            g = WeightedGraph.from_arrays(n, iu[pick], iv[pick], rng.uniform(1e-3, 5.0, len(pick)))
            cut = QCut(labels=tuple(labels.tolist()), q=q)
            table = coupling_sandwiches(cut, g)
            lu, lv = labels[g.u], labels[g.v]
            for j in range(q):
                crossing = g.w[(lu != lv) & ((lu == j) | (lv == j))]
                size = int((labels == j).sum())
                assert table["lower"][j] == 2.0 * (crossing**2).sum() / size
                assert table["upper"][j] == 2.0 * float(crossing.sum()) ** 2 / size
                assert table["value"][j] == coupling(j, cut, g)
                assert coupling_sandwich(j, cut, g) == {
                    key: float(column[j]) for key, column in table.items()
                }


class TestResidualIdentity:
    def test_no_perturbation(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        cut = components(g)
        rows = residual_identity_check(GraphPerturbation(g, g, cut))
        assert all(row["ok"] and row["lhs"] == 0.0 for row in rows)

    def test_single_cross_edge_hand_value(self):
        w = 0.8
        base = WeightedGraph(5, ((0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)))
        pert = WeightedGraph(5, base.edges + ((0, 3, w),))
        cut = QCut(labels=(0, 0, 0, 1, 1), q=2)
        rows = residual_identity_check(GraphPerturbation(base, pert, cut))
        # cluster 0 has 3 vertices, cluster 1 has 2; both sides are 2 w^2 / m
        assert rows[0]["lhs"] == pytest.approx(2 * w**2 / 3)
        assert rows[0]["rhs"] == pytest.approx(2 * w**2 / 3)
        assert rows[1]["lhs"] == pytest.approx(2 * w**2 / 2)
        assert all(row["ok"] for row in rows)

    def test_random_clustered_instances(self):
        rng = make_rng(62)
        for trial in range(15):
            cfg = ExperimentConfig(
                n_vertices=int(rng.integers(10, 40)),
                q=int(rng.integers(2, 5)),
                intra_edge_prob=0.7,
                inter_edge_count=int(rng.integers(0, 8)),
                seed=int(rng.integers(2**32)),
            )
            base, cut = synth_clustered_graph(cfg)
            pert = add_intercluster_edges(base, cut, cfg)
            rows = residual_identity_check(GraphPerturbation(base, pert, cut))
            for row in rows:
                assert abs(row["lhs"] - row["rhs"]) <= 1e-9 * max(1.0, row["rhs"])

    def test_weighted_instances_against_dense_oracle(self):
        rng = make_rng(69)
        for _ in range(20):
            n = int(rng.integers(4, 14))
            q = int(rng.integers(1, 4))
            drawn = np.concatenate([np.arange(q), rng.integers(0, q, n - q)])
            cut = QCut(labels=tuple(rng.permutation(drawn)), q=q)
            labels = cut.labels
            edges = [
                (u, v, float(rng.random() + 0.05))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            pert = WeightedGraph(n, tuple(edges))
            base = WeightedGraph(n, tuple(e for e in edges if labels[e[0]] == labels[e[1]]))
            ldiff = laplacian(pert) - laplacian(base)
            frame = null_basis(cut).columns
            for row in residual_identity_check(GraphPerturbation(base, pert, cut)):
                dense = np.linalg.norm(ldiff @ frame[:, row["cluster"]]) ** 2
                assert row["lhs"] == pytest.approx(dense, rel=1e-12, abs=1e-12)
                assert row["ok"]
            out = laplacian_diff_bound_check(GraphPerturbation(base, pert, cut))
            dense_norm = np.max(np.abs(np.linalg.eigvalsh(ldiff)))
            assert out["op_norm"] == pytest.approx(dense_norm, rel=1e-12, abs=1e-12)
            assert out["ok"]

    def test_extension_validation(self):
        base = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        cut = QCut(labels=(0, 0, 1, 1), q=2)
        missing = WeightedGraph(4, ((0, 1, 1.0),))
        with pytest.raises(NotAnEdgeSuperset):
            residual_identity_check(GraphPerturbation(base, missing, cut))
        reweighted = WeightedGraph(4, ((0, 1, 2.0), (2, 3, 1.0)))
        with pytest.raises(NotAnEdgeSuperset):
            residual_identity_check(GraphPerturbation(base, reweighted, cut))
        added_intra = WeightedGraph(4, base.edges + ((0, 2, 1.0),))
        shifted_cut = QCut(labels=(0, 0, 0, 1), q=2)  # (0,2) now intra, not in base
        with pytest.raises(NotAnEdgeSuperset):
            residual_identity_check(GraphPerturbation(base, added_intra, shifted_cut))
        base_with_cross = WeightedGraph(4, ((0, 2, 1.0),))
        with pytest.raises(NotAnEdgeSuperset):
            residual_identity_check(GraphPerturbation(base_with_cross, added_intra, cut))


class TestLaplacianDiffBound:
    def test_no_perturbation(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        out = laplacian_diff_bound_check(GraphPerturbation(g, g, components(g)))
        assert out["op_norm"] == 0.0 and out["bound"] == 0.0 and out["ok"]

    def test_single_unit_cross_edge_is_tight(self):
        base = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        pert = WeightedGraph(4, base.edges + ((1, 2, 1.0),))
        out = laplacian_diff_bound_check(GraphPerturbation(base, pert, components(base)))
        # difference block has eigenvalues {0, 2}; both MEDs are 1
        assert out["op_norm"] == pytest.approx(2.0)
        assert out["bound"] == pytest.approx(2.0)
        assert out["ok"]

    def test_random_instances(self):
        rng = make_rng(63)
        for _ in range(15):
            cfg = ExperimentConfig(
                n_vertices=int(rng.integers(10, 40)),
                q=int(rng.integers(2, 5)),
                intra_edge_prob=0.7,
                inter_edge_count=int(rng.integers(0, 10)),
                seed=int(rng.integers(2**32)),
            )
            base, cut = synth_clustered_graph(cfg)
            pert = add_intercluster_edges(base, cut, cfg)
            assert laplacian_diff_bound_check(GraphPerturbation(base, pert, cut))["ok"]

    def test_norm_is_the_largest_over_the_added_edges_components(self):
        # Added edges (0,4) 3.0 and (1,5) 0.5 form two components: the norm is
        # 2 * 3.0 from the first, as one dense solve over all endpoints gives.
        base = WeightedGraph(8, ((0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0), (6, 7, 1.0)))
        pert = WeightedGraph(8, base.edges + ((0, 4, 3.0), (1, 5, 0.5), (2, 6, 1.25), (3, 6, 2.0)))
        ctx = GraphPerturbation(base, pert, QCut(labels=(0, 0, 0, 0, 1, 1, 1, 1), q=2))
        dense = np.abs(np.linalg.eigvalsh(laplacian(pert) - laplacian(base))).max()
        out = laplacian_diff_bound_check(ctx)
        assert out["op_norm"] == pytest.approx(dense, rel=1e-14)
        assert out["op_norm"] == pytest.approx(6.0, rel=1e-14)


class TestNullspaceBounds:
    def small_instance(self):
        base = WeightedGraph(
            8,
            (
                (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0), (0, 2, 1.0),
                (4, 5, 1.0), (5, 6, 1.0), (6, 7, 1.0), (4, 7, 1.0), (4, 6, 1.0),
            ),
        )
        cut = QCut(labels=(0, 0, 0, 0, 1, 1, 1, 1), q=2)
        pert = WeightedGraph(8, base.edges + ((3, 4, 0.4), (0, 7, 0.3)))
        return base, pert, cut

    def test_small_instance_against_dense_oracle(self):
        base, pert, cut = self.small_instance()
        report = nullspace_bound_known_perturbed(GraphPerturbation(base, pert, cut))
        # independent left-hand side: dense eigendecompositions + projectors
        lap_p = laplacian(pert)
        vals, vecs = np.linalg.eigh(lap_p)
        low = OrthonormalFrame(vecs[:, :2])
        lhs_oracle = dsp_projector(null_basis(cut), low)
        assert report.lhs_dsp == pytest.approx(lhs_oracle, abs=1e-10)
        # independent right-hand side from raw edge sums
        cps = []
        for j in range(2):
            inside = set(np.nonzero(np.array(cut.labels) == j)[0])
            out_sq = in_sq = 0.0
            adj = pert.adjacency()
            for v in range(8):
                crossing = sum(
                    adj[v, u]
                    for u in range(8)
                    if (u in inside) != (v in inside)
                )
                if v in inside:
                    out_sq += crossing**2
                else:
                    in_sq += crossing**2
            cps.append((out_sq + in_sq) / len(inside))
        rhs_oracle = np.sqrt(np.mean(cps)) / vals[2]
        assert report.bounds[0].value == pytest.approx(rhs_oracle, abs=1e-10)
        assert report.lhs_dsp <= report.bounds[0].value

    def test_one_cluster_per_vertex_has_no_gap(self):
        base = WeightedGraph(3, ())
        pert = WeightedGraph(3, ((0, 1, 0.5), (1, 2, 0.25)))
        cut = QCut(labels=(0, 1, 2), q=3)
        for bound in (nullspace_bound_known_perturbed, nullspace_bound_known_base):
            with pytest.raises(MissingEigenvalue):
                bound(GraphPerturbation(base, pert, cut))

    def test_known_base_small_instance(self):
        base, pert, cut = self.small_instance()
        report = nullspace_bound_known_base(GraphPerturbation(base, pert, cut))
        fine, coarse = report.bounds
        assert report.lhs_dsp <= fine.value * (1 + 1e-9) + 1e-12
        assert fine.value <= coarse.value * (1 + 1e-12)
        assert report.chosen_a_tilde.indices == (0, 1)

    def test_zero_perturbation_trivial(self):
        base = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        cut = components(base)
        report = nullspace_bound_known_base(GraphPerturbation(base, base, cut))
        assert report.lhs_dsp <= 1e-8
        assert all(b.value == 0.0 for b in report.bounds)
        kp = nullspace_bound_known_perturbed(GraphPerturbation(base, base, cut))
        assert kp.lhs_dsp <= 1e-8
        assert kp.bounds[0].value == 0.0

    def test_zero_gap_rejected(self):
        # one cluster is itself disconnected: the (q+1)-th eigenvalue vanishes
        base = WeightedGraph(5, ((0, 1, 1.0),))
        cut = QCut(labels=(0, 0, 1, 1, 1), q=2)
        with pytest.raises(ZeroGap):
            nullspace_bound_known_perturbed(GraphPerturbation(base, base, cut))

    def test_base_with_extra_components_violates_med_condition(self):
        # cluster 1 is two separate edges, so the base lambda_3 is zero; its
        # rounding noise must not pass for a gap
        base = WeightedGraph(
            8,
            ((0, 1, 0.905), (1, 2, 0.908), (2, 3, 0.615), (4, 5, 0.386), (6, 7, 0.154)),
        )
        cut = QCut(labels=(0, 0, 0, 0, 1, 1, 1, 1), q=2)
        with pytest.raises(MedConditionViolated) as excinfo:
            nullspace_bound_known_base(GraphPerturbation(base, base, cut))
        assert excinfo.value.margin <= 0

    def test_med_condition_violated(self):
        base, _, cut = self.small_instance()
        heavy = WeightedGraph(8, base.edges + ((3, 4, 5.0),))
        with pytest.raises(MedConditionViolated) as excinfo:
            nullspace_bound_known_base(GraphPerturbation(base, heavy, cut))
        assert excinfo.value.margin < 0


def independent_total_coupling(labels, q, graph):
    """Test-local coupling evaluation with plain loops."""
    adj = graph.adjacency()
    n = graph.n_vertices
    total = 0.0
    for j in range(q):
        inside = [v for v in range(n) if labels[v] == j]
        outside = [v for v in range(n) if labels[v] != j]
        out_sq = sum(sum(adj[v, u] for u in outside) ** 2 for v in inside)
        in_sq = sum(sum(adj[v, u] for u in inside) ** 2 for v in outside)
        total += (out_sq + in_sq) / len(inside)
    return total


def enumerate_partitions_oracle(n, q):
    """All q-block set partitions via filtered label products (test-local)."""
    seen = set()
    for labels in itertools.product(range(q), repeat=n):
        if len(set(labels)) != q:
            continue
        canon = []
        mapping = {}
        for x in labels:
            mapping.setdefault(x, len(mapping))
            canon.append(mapping[x])
        seen.add(tuple(canon))
    return sorted(seen)


def iter_q_partitions(n, q):
    """Restricted-growth label vectors with exactly q blocks, lexicographic, by recursion."""
    labels = [0] * n

    def rec(i, used):
        if n - i < q - used:
            return
        if i == n:
            if used == q:
                yield tuple(labels)
            return
        for v in range(min(used + 1, q)):
            labels[i] = v
            yield from rec(i + 1, used + (1 if v == used else 0))

    yield from rec(0, 0)


def scalar_best_q_cut(graph, q):
    """Exact best cut scored one partition at a time; the first strict minimum wins.

    The first cut wins when every coupling is inf.
    """
    best_cut, best_value = None, math.inf
    for labels in iter_q_partitions(graph.n_vertices, q):
        cut = QCut(labels=labels, q=q)
        value = total_coupling(cut, graph)
        if best_cut is None or value < best_value:
            best_cut, best_value = cut, value
    return best_cut, best_value


def assert_best_cut_matches_scalar(graph, q):
    cut, value = best_q_cut(graph, q, mode="exact")
    oracle_cut, oracle_value = scalar_best_q_cut(graph, q)
    assert cut.labels == oracle_cut.labels
    assert value == oracle_value


@st.composite
def small_graphs(draw):
    """Graphs of at most 8 vertices; weights from a few values half the time, for ties."""
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    few = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 2.0])
    weight = st.floats(0.05, 20.0) if draw(st.booleans()) else few
    weights = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    graph = WeightedGraph(n, tuple((u, v, w) for (u, v), k, w in zip(pairs, keep, weights) if k))
    return graph, draw(st.integers(1, n))


def cycle(n):
    return WeightedGraph(n, tuple((i, (i + 1) % n, 1.0) for i in range(n)))


def complete_bipartite(a, b):
    return WeightedGraph(a + b, tuple((i, a + j, 1.0) for i in range(a) for j in range(b)))


def equal_cliques(count, size):
    return WeightedGraph(
        count * size,
        tuple(
            (c * size + i, c * size + j, 1.0)
            for c in range(count)
            for i, j in itertools.combinations(range(size), 2)
        ),
    )


# The exact search's one enumerator under each of its two record steps, with
# the label vectors each reads back to.
RECORD_STEPS = [
    (cutsearch._as_labels, lambda rows, n: rows),
    (cutsearch._as_masks, cutsearch.mask_labels),
]


def partitions(n, q, record, block):
    return cutsearch._partitions(partition_ways(n, q), *record(n, q), block)


def comprehension_ways(n, q):
    """``partition_ways`` as it was before it filled only each row's band: the oracle."""
    ways = [[int(k == q) for k in range(q + 2)]]
    for r in range(1, n):
        prev = ways[-1]
        ways.append(
            [k * prev[k] + prev[k + 1] if q - r <= k <= n - r else 0 for k in range(q + 1)]
            + [0]
        )
    return ways


class TestQPartitions:
    @pytest.mark.parametrize("n, q", [(n, q) for n in range(1, 14) for q in range(1, n + 1)]
                             + [(2000, 1990), (2000, 2000), (60, 7)])
    def test_ways_match_the_full_comprehension(self, n, q):
        assert partition_ways(n, q) == comprehension_ways(n, q)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_blocks_follow_the_recursive_enumeration(self, n):
        full = (1 << n) - 1
        for q in range(1, n + 1):
            expected = [list(labels) for labels in iter_q_partitions(n, q)]
            assert partition_ways(n, q)[n - 1][1] == len(expected)
            for (record, read_back), block in itertools.product(
                RECORD_STEPS, (1, 13, 4096) if n <= 6 else (13, 4096)
            ):
                blocks = list(partitions(n, q, record, block))
                assert all(1 <= len(labels) <= block for labels in blocks)
                rows = np.concatenate(blocks)
                assert read_back(rows, n).tolist() == expected
                if record is cutsearch._as_masks:
                    assert rows.dtype == np.min_scalar_type(full)
                    # Each cut's masks are disjoint and cover every vertex.
                    assert np.all(np.bitwise_or.reduce(rows, axis=1) == full)
                    assert np.all(rows.sum(axis=1, dtype=np.int64) == full)

    def test_labels_past_int8(self):
        (labels,) = partitions(300, 300, cutsearch._as_labels, 4096)
        assert labels.tolist() == [list(range(300))]


class TestMaskPartitions:
    @pytest.mark.parametrize("entries", [12, None], ids=["tiny_blocks", "default_blocks"])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_masks_read_back_to_the_recursive_enumeration(self, n, entries, monkeypatch):
        # The blocks the subset-table path asks the enumerator for.
        if entries is not None:
            monkeypatch.setattr(cutsearch, "_SCORE_BLOCK_ENTRIES", entries)
        on_the_table_path = [
            q for q in range(1, n + 1)
            if cutsearch.uses_subset_table(n, q, partition_ways(n, q)[n - 1][1])
        ]
        assert on_the_table_path or n < 4
        for q in on_the_table_path:
            block = max(q, cutsearch._SCORE_BLOCK_ENTRIES // (3 * q))
            ways = partition_ways(n, q)
            scored = cutsearch.scored_partitions(WeightedGraph(n, ()), q, ways)
            blocks = [read(slice(None)) for _, read in scored]
            assert all(1 <= len(labels) <= block for labels in blocks)
            expected = [list(labels) for labels in iter_q_partitions(n, q)]
            assert np.concatenate(blocks).tolist() == expected


class TestVectorisedExactBestCut:
    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_random_graphs_match_scalar_search(self, graph_and_q):
        assert_best_cut_matches_scalar(*graph_and_q)

    @pytest.mark.parametrize(
        "graph",
        [cycle(6), cycle(9), complete_bipartite(3, 3), complete_bipartite(4, 4),
         equal_cliques(3, 3), equal_cliques(2, 4), WeightedGraph(7, ())],
        ids=["C6", "C9", "K3,3", "K4,4", "3xK3", "2xK4", "edgeless7"],
    )
    def test_tie_heavy_graphs_match_scalar_search(self, graph):
        for q in sorted({1, 2, 3, 4, graph.n_vertices - 1, graph.n_vertices}):
            assert_best_cut_matches_scalar(graph, q)

    @pytest.mark.parametrize(
        "n, q, edges",
        [
            (6, 5, ((0, 1, 0.1), (0, 3, 0.7), (0, 4, 0.7), (0, 5, 0.7), (1, 2, 0.7), (1, 3, 0.1),
                    (1, 4, 0.2), (2, 3, 0.7), (2, 4, 0.7), (2, 5, 0.1), (3, 5, 0.2), (4, 5, 0.1))),
            (7, 6, ((0, 1, 0.7), (0, 2, 0.2), (0, 3, 0.7), (0, 4, 0.7), (0, 6, 0.7), (1, 2, 0.7),
                    (1, 4, 0.3), (1, 6, 0.7), (2, 4, 0.2), (2, 5, 0.7), (2, 6, 0.7), (3, 6, 0.3),
                    (4, 5, 0.1))),
        ],
    )
    def test_ties_that_array_rounding_splits(self, n, q, edges):
        # Tied best cuts whose total couplings come out unequal in the last bit
        # under any other summation order; the block scores are
        # total_coupling's own values, so the scalar search's winner stands.
        assert_best_cut_matches_scalar(WeightedGraph(n, edges), q)

    @pytest.mark.parametrize("n, q", [(8, 2), (8, 3), (9, 7), (10, 8), (11, 9)])
    def test_every_score_is_total_coupling_bit_for_bit(self, n, q):
        # q = 2 scores by the kernel (2**n > 2 S(n, 2)), the rest by the subset
        # table: q < 8 adding the q looked-up columns, q >= 8 by ``sum``.
        rng = make_rng(910 + q)
        pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.7]
        weights = 10.0 ** rng.uniform(-6, 6, len(pairs))
        graph = WeightedGraph(n, tuple((u, v, float(w)) for (u, v), w in zip(pairs, weights)))
        ways = partition_ways(n, q)
        assert cutsearch.uses_subset_table(n, q, ways[n - 1][1]) == (q > 2)
        seen = 0
        for scores, read in cutsearch.scored_partitions(graph, q, ways):
            for i, labels in enumerate(read(slice(None))):
                assert scores[i] == total_coupling(QCut(labels=tuple(labels.tolist()), q=q), graph)
            seen += len(scores)
        assert seen == ways[n - 1][1]

    @pytest.mark.parametrize("spread", [False, True], ids=["few_weights", "weights_1e-6_to_1e6"])
    def test_every_score_is_total_coupling(self, spread, monkeypatch):
        # Enumerations run under each record step: the subset-table path's and the kernel's.
        ran = {"or_bit": 0, "write_label": 0}
        real = cutsearch._partitions

        def counted(ways, first, record, block):
            ran[record.__name__] += 1
            return real(ways, first, record, block)

        monkeypatch.setattr(cutsearch, "_partitions", counted)
        rng = make_rng(909 + spread)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.6]
            if spread:
                weights = 10.0 ** rng.uniform(-6, 6, len(pairs))
            else:
                weights = rng.choice([0.1, 0.2, 0.3, 0.7, 1.0], len(pairs))
            graph = WeightedGraph(n, tuple((u, v, float(w)) for (u, v), w in zip(pairs, weights)))
            for q in range(1, min(n, 5) + 1):
                ways = partition_ways(n, q)
                # Every cut of a search under 2000 cuts, about 1000 of a larger one.
                step, start = max(1, ways[n - 1][1] // 1000), 0
                for scores, read in cutsearch.scored_partitions(graph, q, ways):
                    labels = read(slice(None))
                    _, _, kernel = graphs.coupling_tables(labels, q, graph.u, graph.v, graph.w)
                    assert np.array_equal(scores, kernel.sum(axis=1))
                    for i in range(-start % step, len(labels), step):
                        cut = QCut(labels=tuple(labels[i].tolist()), q=q)
                        assert scores[i] == total_coupling(cut, graph)
                    start += len(labels)
        assert ran["or_bit"] > 0 and ran["write_label"] > 0

    @pytest.mark.parametrize(
        "graph",
        [WeightedGraph(7, ()), WeightedGraph(6, ((0, 1, 1.0),)), cycle(9)],
        ids=["edgeless7", "one_edge_and_isolated_vertices", "C9"],
    )
    def test_the_subset_table_raises_no_warning(self, graph):
        n = graph.n_vertices
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for q in range(3, 6):
                assert cutsearch.uses_subset_table(n, q, partition_ways(n, q)[n - 1][1])
                _, value = best_q_cut(graph, q, mode="exact")
                assert math.isfinite(value)

    def test_the_subset_table_holds_every_proper_subset(self):
        graph = figure_graph()[0]
        n = graph.n_vertices
        table = cutsearch.subset_couplings(graph)
        assert math.isnan(table[0]) and math.isnan(table[-1])
        for mask in range(1, (1 << n) - 1):
            labels = tuple((mask >> x) & 1 for x in range(n))
            assert table[mask] == coupling(1, QCut(labels=labels, q=2), graph)

    def test_small_blocks_on_the_subset_table(self, monkeypatch):
        monkeypatch.setattr(cutsearch, "_SCORE_BLOCK_ENTRIES", 40)
        for graph in (cycle(8), equal_cliques(2, 4), figure_graph()[0]):
            for q in (3, 5):
                assert_best_cut_matches_scalar(graph, q)

    def test_exact_search_never_calls_total_coupling(self, monkeypatch):
        calls = []
        real = graphs.total_coupling
        monkeypatch.setattr(
            graphs, "total_coupling", lambda *args: calls.append(args) or real(*args)
        )
        graph = figure_graph()[0]
        found = best_q_cut(graph, 3, mode="exact")
        assert calls == []
        monkeypatch.undo()
        assert found == scalar_best_q_cut(graph, 3)

    def test_a_block_keeps_few_temporaries(self):
        # Memory live at once while one full block is scored, in units of the
        # block's (count, 2|E|) float weights. Many such arrays alive together
        # can exceed the allocator's trim threshold, and then every block
        # returns its memory to the system and page-faults it back in.
        rng = make_rng(417)
        pairs = [p for p in itertools.combinations(range(11), 2) if rng.random() < 0.5]
        graph = WeightedGraph(11, tuple((u, v, 1.0) for u, v in pairs))
        labels = next(partitions(11, 3, cutsearch._as_labels, 512))
        tracemalloc.start()
        try:
            graphs.coupling_tables(labels, 3, graph.u, graph.v, graph.w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(labels) * 2 * len(pairs) * 8

    def test_a_subset_table_block_keeps_few_temporaries(self):
        # One full block of the table path, built and scored, in units of the
        # float entries a block may hold; the kernel path's block above peaks
        # at about that much.
        rng = make_rng(417)
        pairs = [p for p in itertools.combinations(range(11), 2) if rng.random() < 0.5]
        graph = WeightedGraph(11, tuple((u, v, 1.0) for u, v in pairs))
        table = cutsearch.subset_couplings(graph)
        block = max(3, cutsearch._SCORE_BLOCK_ENTRIES // 9)  # the table path's, at q = 3
        blocks = partitions(11, 3, cutsearch._as_masks, block)
        tracemalloc.start()
        try:
            masks = next(blocks)
            table[masks].sum(axis=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= cutsearch._SCORE_BLOCK_ENTRIES * 8

    def test_blocks_much_smaller_than_the_search(self, monkeypatch):
        monkeypatch.setattr(cutsearch, "_SCORE_BLOCK_CUTS", 5)
        for graph in (cycle(8), equal_cliques(2, 4), figure_graph()[0]):
            for q in (2, 3, 5):
                assert_best_cut_matches_scalar(graph, q)

    def test_search_spanning_several_default_blocks(self):
        rng = make_rng(652)
        edges = [
            (u, v, float(rng.choice([0.5, 1.0, 1.5])))
            for u in range(10)
            for v in range(u + 1, 10)
            if rng.random() < 0.5
        ]
        graph = WeightedGraph(10, tuple(edges))  # S(10, 3) = 9330 cuts
        assert_best_cut_matches_scalar(graph, 3)

    def test_one_cluster_and_one_cluster_per_vertex_on_a_large_graph(self):
        graph = cycle(200)
        assert best_q_cut(graph, 1) == scalar_best_q_cut(graph, 1)
        assert best_q_cut(graph, 200) == scalar_best_q_cut(graph, 200)

    def test_a_search_with_more_subsets_than_clusters_runs_the_kernel(self, monkeypatch):
        def no_table(graph):
            raise AssertionError("the subset table was built")

        monkeypatch.setattr(cutsearch, "subset_couplings", no_table)
        graph = cycle(200)
        assert not cutsearch.uses_subset_table(200, 200, 1)
        assert best_q_cut(graph, 200) == scalar_best_q_cut(graph, 200)


class TestBestQCut:
    def test_two_triangles_weak_bridge(self):
        edges = [
            (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
            (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
            (2, 3, 0.1),
        ]
        g = WeightedGraph(6, tuple(edges))
        cut, value = best_q_cut(g, 2, mode="exact")
        assert cut.labels == (0, 0, 0, 1, 1, 1)
        assert value == pytest.approx(2 * 0.1**2 / 3 * 2)

    def test_edgeless_tie_break(self):
        g = WeightedGraph(3, ())
        cut, value = best_q_cut(g, 2, mode="exact")
        assert value == 0.0
        assert cut.labels == (0, 0, 1)  # first q-partition in canonical order

    def test_single_cluster(self):
        g = WeightedGraph(4, ((0, 1, 1.0),))
        cut, value = best_q_cut(g, 1, mode="exact")
        assert cut.labels == (0, 0, 0, 0)
        assert value == 0.0

    def test_exact_matches_independent_enumeration(self):
        rng = make_rng(64)
        for _ in range(6):
            n = int(rng.integers(4, 8))
            q = int(rng.integers(2, 4))
            edges = [
                (u, v, float(rng.random() + 0.05))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            g = WeightedGraph(n, tuple(edges))
            cut, value = best_q_cut(g, q, mode="exact")
            oracle_best, oracle_value = None, np.inf
            for labels in enumerate_partitions_oracle(n, q):
                cand = independent_total_coupling(labels, q, g)
                if cand < oracle_value - 1e-15:
                    oracle_best, oracle_value = labels, cand
            assert value == pytest.approx(oracle_value, abs=1e-12)
            assert independent_total_coupling(cut.labels, q, g) == pytest.approx(
                oracle_value, abs=1e-12
            )

    @pytest.mark.parametrize("heavy", [1e300, 1e200])
    def test_every_coupling_overflowing_to_inf(self, heavy):
        # Every 3-cut of these four vertices cuts a heavy edge, whose square
        # overflows; so does every 2-cut but {0} | {1, 2, 3}.
        g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, heavy), (1, 2, heavy)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for q in (2, 3):  # the coupling kernel, then the subset table
                cut, value = best_q_cut(g, q, mode="exact")
                assert (cut, value) == scalar_best_q_cut(g, q)
            assert cut.labels == (0, 0, 1, 2) and value == math.inf

    def test_limit_enforced(self):
        g = WeightedGraph(20, ())
        with pytest.raises(SearchSpaceTooLarge):
            best_q_cut(g, 5, mode="exact", limit=10)

    def test_limit_checked_before_partition_counts(self, monkeypatch):
        # S(4000, 3000) >= 3000**1000 > limit: rejected before the O(n q)
        # big-integer table of partition counts is built.
        import specbound.cutsearch as cutsearch

        def fail(n, q):
            raise AssertionError("partition_ways called")

        monkeypatch.setattr(cutsearch, "partition_ways", fail)
        g = WeightedGraph(4000, ())
        message = r"S\(4000,3000\) >= 3000\*\*1000 q-partitions exceeds the limit 100000"
        with pytest.raises(SearchSpaceTooLarge, match=message):
            best_q_cut(g, 3000, mode="exact")
        with pytest.raises(SearchSpaceTooLarge, match=r"S\(7,1\) >= 1\*\*6 .* limit 0"):
            best_q_cut(WeightedGraph(7, ()), 1, mode="exact", limit=0)

    @pytest.mark.parametrize("limit", [16, 30])
    def test_limit_between_lower_bound_and_count(self, limit):
        # 2**4 = 16 <= limit < S(6, 2) = 31: the table decides, with the exact count.
        message = rf"^S\(6,2\) = 31 q-partitions exceeds the limit {limit}$"
        with pytest.raises(SearchSpaceTooLarge, match=message):
            best_q_cut(WeightedGraph(6, ()), 2, mode="exact", limit=limit)
        assert best_q_cut(WeightedGraph(6, ()), 2, mode="exact", limit=31)[1] == 0.0

    def test_heuristic_deterministic_and_finds_bridge(self):
        edges = [
            (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
            (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
            (2, 3, 0.1),
        ]
        g = WeightedGraph(6, tuple(edges))
        cut1, v1 = best_q_cut(g, 2, mode="heuristic", seed=5)
        cut2, v2 = best_q_cut(g, 2, mode="heuristic", seed=5)
        assert cut1.labels == cut2.labels and v1 == v2
        assert cut1.labels == (0, 0, 0, 1, 1, 1)

    def test_heuristic_seed_must_be_non_negative(self):
        g = cycle(6)
        with pytest.raises(InvalidConfig, match="seed"):
            best_q_cut(g, 2, mode="heuristic", seed=-1)
        for seed in (0, 2**64, 10**38):
            cut, value = best_q_cut(g, 2, mode="heuristic", seed=seed)
            assert value == total_coupling(cut, g)


class TestAlignBasis:
    def test_indicator_frame_matches_its_dense_form(self):
        rng = make_rng(68)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            q = int(rng.integers(1, min(n, 6) + 1))
            labels = rng.permutation(np.concatenate((np.arange(q), rng.integers(0, q, n - q))))
            labelled = null_basis(QCut(labels=tuple(labels.tolist()), q=q))
            dense = OrthonormalFrame(labelled.columns)
            target = OrthonormalFrame(np.linalg.qr(rng.standard_normal((n, q)))[0])
            got, expected = align_basis(labelled, target), align_basis(dense, target)
            assert np.isrealobj(got.columns)
            assert np.abs(got.columns - expected.columns).max() <= 1e-14

    def test_identity_case(self):
        rng = make_rng(65)
        frame = random_frame(6, 3, rng)
        out = align_basis(frame, frame)
        assert np.linalg.norm(out.columns - frame.columns) <= 1e-10

    def test_unitary_rotation_recovered(self):
        rng = make_rng(66)
        frame = random_frame(6, 3, rng)
        rot = random_unitary(3, rng)
        target = OrthonormalFrame(frame.columns @ rot)
        out = align_basis(frame, target)
        assert np.linalg.norm(out.columns - target.columns) <= 1e-10

    def test_procrustes_optimality_spot_check(self):
        rng = make_rng(67)
        base = random_frame(7, 3, rng)
        target = random_frame(7, 3, rng)
        out = align_basis(base, target)
        assert dsp_projector(out, base) <= 1e-10  # same subspace
        best = np.linalg.norm(out.columns - target.columns)
        for _ in range(20):
            w = random_unitary(3, rng)
            other = np.linalg.norm(base.columns @ w - target.columns)
            assert best <= other + 1e-10
