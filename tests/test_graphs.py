import itertools

import numpy as np
import pytest

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
from specbound.errors import (
    EmptyCluster,
    MedConditionViolated,
    NotAnEdgeSuperset,
    SearchSpaceTooLarge,
    ZeroGap,
)
from specbound.experiments import (
    ExperimentConfig,
    add_intercluster_edges,
    synth_clustered_graph,
)
from specbound.graphs import laplacian_eigenvalues, laplacian_spectrum, null_multiplicity

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

    def test_edge_arrays_follow_edges(self):
        g = WeightedGraph(4, ((3, 1, 0.5), (0, 2, 2.0), (1, 0, 1.5)))
        assert g.edges == ((0, 1, 1.5), (0, 2, 2.0), (1, 3, 0.5))
        assert list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist())) == list(g.edges)
        with pytest.raises(ValueError):
            g.w[0] = 9.0


class TestLaplacian:
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
            assert null_multiplicity(vals) == components(g).q

    def test_spectrum_computed_once_and_read_only(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5)))
        vals, vecs = laplacian_spectrum(g)
        assert laplacian_spectrum(g)[1] is vecs
        assert laplacian_eigenvalues(g) is laplacian_eigenvalues(g)
        assert np.allclose(laplacian_eigenvalues(g), vals, rtol=0, atol=1e-12)
        with pytest.raises(ValueError):
            vecs[0, 0] = 1.0


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


class TestNullBasis:
    def test_single_cluster_of_four(self):
        frame = null_basis(QCut(labels=(0, 0, 0, 0), q=1))
        assert np.allclose(frame.columns, 0.5)

    def test_two_singletons(self):
        frame = null_basis(QCut(labels=(0, 1), q=2))
        assert np.allclose(np.abs(frame.columns), np.eye(2))

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


class TestResidualIdentity:
    def test_no_perturbation(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        cut = components(g)
        rows = residual_identity_check(g, g, cut)
        assert all(row["ok"] and row["lhs"] == 0.0 for row in rows)

    def test_single_cross_edge_hand_value(self):
        w = 0.8
        base = WeightedGraph(5, ((0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)))
        pert = WeightedGraph(5, base.edges + ((0, 3, w),))
        cut = QCut(labels=(0, 0, 0, 1, 1), q=2)
        rows = residual_identity_check(base, pert, cut)
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
            rows = residual_identity_check(base, pert, cut)
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
            for row in residual_identity_check(base, pert, cut):
                dense = np.linalg.norm(ldiff @ frame[:, row["cluster"]]) ** 2
                assert row["lhs"] == pytest.approx(dense, rel=1e-12, abs=1e-12)
                assert row["ok"]
            out = laplacian_diff_bound_check(base, pert, cut)
            dense_norm = np.max(np.abs(np.linalg.eigvalsh(ldiff)))
            assert out["op_norm"] == pytest.approx(dense_norm, rel=1e-12, abs=1e-12)
            assert out["ok"]

    def test_extension_validation(self):
        base = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        cut = QCut(labels=(0, 0, 1, 1), q=2)
        missing = WeightedGraph(4, ((0, 1, 1.0),))
        with pytest.raises(NotAnEdgeSuperset):
            residual_identity_check(base, missing, cut)
        reweighted = WeightedGraph(4, ((0, 1, 2.0), (2, 3, 1.0)))
        with pytest.raises(NotAnEdgeSuperset):
            residual_identity_check(base, reweighted, cut)
        added_intra = WeightedGraph(4, base.edges + ((0, 2, 1.0),))
        shifted_cut = QCut(labels=(0, 0, 0, 1), q=2)  # (0,2) now intra, not in base
        with pytest.raises(NotAnEdgeSuperset):
            residual_identity_check(base, added_intra, shifted_cut)
        base_with_cross = WeightedGraph(4, ((0, 2, 1.0),))
        with pytest.raises(NotAnEdgeSuperset):
            residual_identity_check(base_with_cross, added_intra, cut)


class TestLaplacianDiffBound:
    def test_no_perturbation(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        out = laplacian_diff_bound_check(g, g, components(g))
        assert out["op_norm"] == 0.0 and out["bound"] == 0.0 and out["ok"]

    def test_single_unit_cross_edge_is_tight(self):
        base = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        pert = WeightedGraph(4, base.edges + ((1, 2, 1.0),))
        out = laplacian_diff_bound_check(base, pert, components(base))
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
            assert laplacian_diff_bound_check(base, pert, cut)["ok"]


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
        report = nullspace_bound_known_perturbed(base, pert, cut)
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

    def test_known_base_small_instance(self):
        base, pert, cut = self.small_instance()
        report = nullspace_bound_known_base(base, pert, cut)
        fine, coarse = report.bounds
        assert report.lhs_dsp <= fine.value * (1 + 1e-9) + 1e-12
        assert fine.value <= coarse.value * (1 + 1e-12)
        assert report.chosen_a_tilde.indices == (0, 1)

    def test_zero_perturbation_trivial(self):
        base = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        cut = components(base)
        report = nullspace_bound_known_base(base, base, cut)
        assert report.lhs_dsp <= 1e-8
        assert all(b.value == 0.0 for b in report.bounds)
        kp = nullspace_bound_known_perturbed(base, base, cut)
        assert kp.lhs_dsp <= 1e-8
        assert kp.bounds[0].value == 0.0

    def test_zero_gap_rejected(self):
        # one cluster is itself disconnected: the (q+1)-th eigenvalue vanishes
        base = WeightedGraph(5, ((0, 1, 1.0),))
        cut = QCut(labels=(0, 0, 1, 1, 1), q=2)
        with pytest.raises(ZeroGap):
            nullspace_bound_known_perturbed(base, base, cut)

    def test_base_with_extra_components_violates_med_condition(self):
        # cluster 1 is two separate edges, so the base lambda_3 is zero; its
        # rounding noise must not pass for a gap
        base = WeightedGraph(
            8,
            ((0, 1, 0.905), (1, 2, 0.908), (2, 3, 0.615), (4, 5, 0.386), (6, 7, 0.154)),
        )
        cut = QCut(labels=(0, 0, 0, 0, 1, 1, 1, 1), q=2)
        with pytest.raises(MedConditionViolated) as excinfo:
            nullspace_bound_known_base(base, base, cut)
        assert excinfo.value.margin <= 0

    def test_med_condition_violated(self):
        base, _, cut = self.small_instance()
        heavy = WeightedGraph(8, base.edges + ((3, 4, 5.0),))
        with pytest.raises(MedConditionViolated) as excinfo:
            nullspace_bound_known_base(base, heavy, cut)
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

    def test_limit_enforced(self):
        g = WeightedGraph(20, ())
        with pytest.raises(SearchSpaceTooLarge):
            best_q_cut(g, 5, mode="exact", limit=10)

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


class TestAlignBasis:
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
