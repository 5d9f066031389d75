import hashlib
import json
import math
from pathlib import Path

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbound import (
    ExperimentConfig,
    QCut,
    WeightedGraph,
    OrthonormalFrame,
    add_intercluster_edges,
    audit_random_matrices,
    components,
    dsp_projector,
    laplacian,
    null_basis,
    reproduce_pipeline,
    synth_clustered_graph,
)
from specbound.errors import NotEnoughCrossPairs, Unsatisfiable
from specbound.experiments import phase_seeds, splitmix64


class TestSplitmix:
    def test_reference_vector(self):
        # first outputs of the reference splitmix64 stream for seed 0
        _, out = splitmix64(0)
        assert out == 0xE220A8397B1DCDAF
        assert phase_seeds(0, 3) == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_seed_masking(self):
        assert phase_seeds(2**64 + 5, 2) == phase_seeds(5, 2)


class TestSynth:
    def test_component_structure_and_connectivity(self):
        cfg = ExperimentConfig(n_vertices=40, q=4, intra_edge_prob=0.6, seed=3)
        graph, cut = synth_clustered_graph(cfg)
        comp = components(graph)
        assert comp.q == 4
        assert comp.labels == cut.labels
        # null space of the Laplacian is exactly q-dimensional
        vals = np.linalg.eigvalsh(laplacian(graph))
        assert np.sum(np.abs(vals) <= 1e-10) == 4

    def test_deterministic_under_seed(self):
        cfg = ExperimentConfig(n_vertices=30, q=3, intra_edge_prob=0.5, seed=77)
        g1, c1 = synth_clustered_graph(cfg)
        g2, c2 = synth_clustered_graph(cfg)
        assert g1.edges == g2.edges
        assert c1.labels == c2.labels

    def test_all_singletons(self):
        cfg = ExperimentConfig(n_vertices=5, q=5, intra_edge_prob=0.9, seed=1)
        graph, cut = synth_clustered_graph(cfg)
        assert graph.edges == ()
        assert sorted(cut.labels) == list(range(5))

    def test_single_complete_cluster(self):
        cfg = ExperimentConfig(n_vertices=6, q=1, intra_edge_prob=1.0, seed=1)
        graph, _ = synth_clustered_graph(cfg)
        assert len(graph.edges) == 15

    def test_unsatisfiable_density(self):
        cfg = ExperimentConfig(
            n_vertices=60, q=1, intra_edge_prob=0.01, seed=1, max_retries=3
        )
        with pytest.raises(Unsatisfiable):
            synth_clustered_graph(cfg)

    @pytest.mark.parametrize(
        "n, q, seed, edges, digest",
        [
            (333, 12, 0, 4303, "f71795c77f41dfcc"),
            (333, 12, 1, 4347, "6f5f64515cb22083"),
            (333, 12, 2, 4293, "04973762ca7e4a4e"),
            (2000, 24, 0, 79344, "6cd42cbd472943cc"),
            (2000, 24, 1, 79019, "da39feba3b07723c"),
            (2000, 24, 2, 79207, "be06708fc527eb2a"),
        ],
    )
    def test_graphs_match_pinned_hashes(self, n, q, seed, edges, digest):
        # sha256 of the little-endian u (int64), v (int64), w (float64) and labels (int64).
        graph, cut = synth_clustered_graph(ExperimentConfig(n_vertices=n, q=q, seed=seed))
        h = hashlib.sha256()
        for column in (graph.u, graph.v, graph.w, np.array(cut.labels, dtype=np.int64)):
            h.update(column.astype(column.dtype.newbyteorder("<")).tobytes())
        assert (len(graph.w), h.hexdigest()[:16]) == (edges, digest)

    @pytest.mark.parametrize("p, seed", [(0.3, 0), (0.3, 1), (0.5, 2), (0.15, 3), (0.95, 4)])
    def test_each_cluster_is_its_streams_first_connected_draw(self, p, seed):
        # Clusters of about 10 at the low densities often fall short of the
        # degree certificate, and component labelling decides.
        cfg = ExperimentConfig(n_vertices=60, q=6, intra_edge_prob=p, seed=seed, max_retries=5000)
        graph, cut = synth_clustered_graph(cfg)
        seeds = phase_seeds(cfg.seed, cfg.q + 2)
        sizes = np.bincount(cut.labels)
        start, u, v = 0, [], []
        for j, size in enumerate(sizes.tolist()):
            rng = np.random.Generator(np.random.PCG64(seeds[1 + j]))
            iu, iv = np.triu_indices(size, 1)
            while True:
                keep = rng.random((size, size))[iu, iv] < cfg.intra_edge_prob
                if np.array_equal(components(WeightedGraph.from_arrays(
                        size, iu[keep], iv[keep], np.ones(keep.sum()))).labels, (0,) * size):
                    break
            u.append(start + iu[keep])
            v.append(start + iv[keep])
            start += size
        assert np.array_equal(graph.u, np.concatenate(u))
        assert np.array_equal(graph.v, np.concatenate(v))


class TestInterclusterEdges:
    def test_count_and_crossing(self):
        cfg = ExperimentConfig(
            n_vertices=30, q=3, intra_edge_prob=0.6, inter_edge_count=7, seed=9
        )
        graph, cut = synth_clustered_graph(cfg)
        pert = add_intercluster_edges(graph, cut, cfg)
        new = set(pert.edges) - set(graph.edges)
        assert len(new) == 7
        assert len(pert.edges) == len(graph.edges) + 7
        for u, v, w in new:
            assert cut.labels[u] != cut.labels[v]
            assert w == cfg.edge_weight

    def test_zero_count_is_identity(self):
        cfg = ExperimentConfig(
            n_vertices=20, q=2, intra_edge_prob=0.6, inter_edge_count=0, seed=5
        )
        graph, cut = synth_clustered_graph(cfg)
        assert add_intercluster_edges(graph, cut, cfg).edges == graph.edges

    def test_two_singletons_unique_edge(self):
        cfg = ExperimentConfig(
            n_vertices=2, q=2, intra_edge_prob=1.0, inter_edge_count=1, seed=0
        )
        graph, cut = synth_clustered_graph(cfg)
        pert = add_intercluster_edges(graph, cut, cfg)
        assert pert.edges == ((0, 1, 1.0),)

    def test_not_enough_cross_pairs(self):
        cfg = ExperimentConfig(
            n_vertices=2, q=2, intra_edge_prob=1.0, inter_edge_count=2, seed=0
        )
        graph, cut = synth_clustered_graph(cfg)
        with pytest.raises(NotEnoughCrossPairs):
            add_intercluster_edges(graph, cut, cfg)

    def test_deterministic(self):
        cfg = ExperimentConfig(
            n_vertices=25, q=3, intra_edge_prob=0.7, inter_edge_count=5, seed=13
        )
        graph, cut = synth_clustered_graph(cfg)
        p1 = add_intercluster_edges(graph, cut, cfg)
        p2 = add_intercluster_edges(graph, cut, cfg)
        assert p1.edges == p2.edges


def all_pairs_intercluster_edges(graph, cut, cfg):
    """``add_intercluster_edges`` by listing every vertex pair (u, v), u < v.

    The free cross pairs are filtered from ``triu_indices`` with ``np.isin``
    against the existing cross edges; the draw indexes that row-major list.
    """
    rng = np.random.Generator(np.random.PCG64(phase_seeds(cfg.seed, cfg.q + 2)[cfg.q + 1]))
    n = graph.n_vertices
    labels = np.asarray(cut.labels)
    existing_cross = graph.edge_keys()[labels[graph.u] != labels[graph.v]]
    iu, iv = np.triu_indices(n, 1)
    free = (labels[iu] != labels[iv]) & ~np.isin(iu * n + iv, existing_cross)
    iu, iv = iu[free], iv[free]
    if len(iu) < cfg.inter_edge_count:
        raise NotEnoughCrossPairs(f"only {len(iu)} pairs are available")
    chosen = np.sort(rng.choice(len(iu), size=cfg.inter_edge_count, replace=False))
    new_edges = tuple(
        zip(iu[chosen].tolist(), iv[chosen].tolist(), [cfg.edge_weight] * len(chosen))
    )
    return WeightedGraph(n, graph.edges + new_edges)


def free_cross_pairs(graph, cut):
    labels = cut.labels
    present = set(zip(graph.u.tolist(), graph.v.tolist()))
    return sum(
        1
        for u, v in itertools.combinations(range(graph.n_vertices), 2)
        if labels[u] != labels[v] and (u, v) not in present
    )


def assert_same_perturbation(graph, cut, cfg):
    """Both constructions give bit-identical edge arrays, or both raise."""
    try:
        expected = all_pairs_intercluster_edges(graph, cut, cfg)
    except NotEnoughCrossPairs:
        with pytest.raises(NotEnoughCrossPairs):
            add_intercluster_edges(graph, cut, cfg)
        return None
    actual = add_intercluster_edges(graph, cut, cfg)
    for name in ("u", "v", "w"):
        mine, theirs = getattr(actual, name), getattr(expected, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
    return actual


@st.composite
def labelled_graphs(draw):
    """A graph on arbitrary (non-contiguous) cluster labels, cross edges allowed."""
    n = draw(st.integers(2, 30))
    q = draw(st.integers(2, n))
    extra = draw(st.lists(st.integers(0, q - 1), min_size=n - q, max_size=n - q))
    labels = draw(st.permutations(list(range(q)) + extra))  # every label present
    pairs = list(itertools.combinations(range(n), 2))
    density = draw(st.sampled_from([0.0, 0.3, 0.8]))
    coins = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    graph = WeightedGraph(n, tuple((u, v, 1.0) for (u, v), c in zip(pairs, coins) if c < density))
    cut = QCut(labels=tuple(labels), q=q)
    cfg = ExperimentConfig(
        n_vertices=n,
        q=q,
        inter_edge_count=draw(st.integers(0, free_cross_pairs(graph, cut) + 1)),
        edge_weight=draw(st.sampled_from([1.0, 0.25, 3.5])),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return graph, cut, cfg


class TestInterclusterEdgesAgainstAllPairs:
    @settings(max_examples=80, deadline=None)
    @given(labelled_graphs())
    def test_random_labelled_graphs(self, case):
        assert_same_perturbation(*case)

    @pytest.mark.parametrize(
        "n, q, seed",
        [(12, 12, 3), (12, 11, 4), (20, 15, 5), (40, 6, 6), (5, 2, 7), (30, 28, 8)],
    )
    def test_applied_twice_to_synthetic_graphs(self, n, q, seed):
        cfg = ExperimentConfig(
            n_vertices=n, q=q, intra_edge_prob=0.7, inter_edge_count=4, seed=seed
        )
        base, cut = synth_clustered_graph(cfg)
        once = assert_same_perturbation(base, cut, cfg)
        again = ExperimentConfig(
            n_vertices=n, q=q, inter_edge_count=9, edge_weight=2.0, seed=seed + 100
        )
        assert_same_perturbation(once, cut, again)

    @pytest.mark.parametrize("n, q, seed", [(9, 3, 1), (8, 8, 2), (15, 4, 3)])
    def test_every_free_pair_and_one_more(self, n, q, seed):
        cfg = ExperimentConfig(
            n_vertices=n, q=q, intra_edge_prob=0.8, inter_edge_count=3, seed=seed
        )
        base, cut = synth_clustered_graph(cfg)
        graph = add_intercluster_edges(base, cut, cfg)
        free = free_cross_pairs(graph, cut)
        every = ExperimentConfig(n_vertices=n, q=q, inter_edge_count=free, seed=seed)
        full = assert_same_perturbation(graph, cut, every)
        assert free_cross_pairs(full, cut) == 0
        one_more = ExperimentConfig(n_vertices=n, q=q, inter_edge_count=free + 1, seed=seed)
        with pytest.raises(NotEnoughCrossPairs, match=f"only {free} pairs"):
            add_intercluster_edges(graph, cut, one_more)


class TestReproducePipeline:
    def test_tiny_instance_against_dense_oracle(self):
        cfg = ExperimentConfig(
            n_vertices=8, q=2, intra_edge_prob=1.0, inter_edge_count=1, seed=4
        )
        report = reproduce_pipeline(cfg)
        assert report["all_inequalities_ok"]
        # rebuild and verify the reported left-hand side independently
        base, cut = synth_clustered_graph(cfg)
        pert = add_intercluster_edges(base, cut, cfg)
        vals, vecs = np.linalg.eigh(laplacian(pert))
        lhs = dsp_projector(null_basis(cut), OrthonormalFrame(vecs[:, :2]))
        assert report["lhs_dsp"] == pytest.approx(lhs, abs=1e-10)
        assert report["perturbed_gap"] == pytest.approx(vals[2])
        # single unit cross edge between clusters of sizes s0, s1
        sizes = np.bincount(np.array(cut.labels))
        cps = 2.0 / sizes
        rhs = np.sqrt(cps.mean()) / vals[2]
        assert report["known_perturbed_bound"] == pytest.approx(rhs, abs=1e-10)

    def test_condition_gate_reported_not_raised(self):
        cfg = ExperimentConfig(
            n_vertices=12, q=2, intra_edge_prob=0.4, inter_edge_count=25, seed=2
        )
        report = reproduce_pipeline(cfg)
        assert report["med_condition_ok"] is False
        assert "known_base_bound_fine" not in report
        # identities still hold even when the bound conditions fail
        assert report["inequalities"]["residual_identity"]

    def test_reference_values_attached(self):
        cfg = ExperimentConfig(
            n_vertices=10, q=2, intra_edge_prob=1.0, inter_edge_count=1, seed=0
        )
        report = reproduce_pipeline(cfg)
        assert report["reference_max_med"] == 3.0
        assert report["reference_perturbed_gap"] == 18.436


GOLDEN_N333 = json.loads(
    (Path(__file__).parent / "data" / "reproduce_n333.json").read_text()
)


def assert_matches_golden(expected, actual, path="report"):
    """Same keys; booleans and ints equal; floats within 1e-12 relative."""
    if isinstance(expected, dict):
        assert set(actual) == set(expected), path
        for key, value in expected.items():
            assert_matches_golden(value, actual[key], f"{path}.{key}")
    elif isinstance(expected, (bool, int)):
        assert type(actual) is type(expected) and actual == expected, path
    else:
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=0.0), (
            path, expected, actual,
        )


@pytest.mark.parametrize("seed", range(10))
def test_reproduce_pipeline_matches_golden_values(seed):
    cfg = GOLDEN_N333["config"]
    report = reproduce_pipeline(
        ExperimentConfig(n_vertices=cfg["n_vertices"], q=cfg["q"], seed=seed)
    )
    assert_matches_golden(GOLDEN_N333["reports"][str(seed)], report)


class TestAudit:
    def test_empty_run(self):
        summary = audit_random_matrices(0)
        assert summary.instances == 0
        assert summary.violations == 0

    def test_deterministic_under_seed(self):
        a = audit_random_matrices(8, n_max=6, seed=11).as_dict()
        b = audit_random_matrices(8, n_max=6, seed=11).as_dict()
        assert a == b

    def test_zero_violations_at_scale(self):
        summary = audit_random_matrices(200, n_max=10, seed=23)
        assert summary.instances == 200
        assert summary.violations == 0
        assert summary.bounds_evaluated > 1000
        assert summary.worst_slack_ratio <= 1 + 1e-9
