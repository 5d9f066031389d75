import json
import math
from pathlib import Path

import numpy as np
import pytest

from specbound import (
    ExperimentConfig,
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
