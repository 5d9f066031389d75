"""Acceptance gate: every criterion at its stated tolerance, with a timer.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); a FAIL also
fails the test. Oracles here are deliberately self-contained: brute-force
classifiers, independent enumerations, and dense projector arithmetic are
re-implemented inline rather than imported from the library under test.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np

from specbound import (
    IndexPartition,
    KappaPolicy,
    OrthonormalFrame,
    PerturbationContext,
    WeightedGraph,
    best_q_cut,
    bound_davis_kahan,
    bound_full_main,
    bound_simplified,
    bound_tilde_free,
    complement_frame,
    decompose_normal,
    dsp_between,
    dsp_complement,
    dsp_overlap,
    dsp_projector,
    hat_partition,
    search_closest_invariant,
    sep_preserving_check,
    sep_preserving_partition,
)
from specbound.errors import GapConditionViolated
from specbound.experiments import (
    ExperimentConfig,
    add_intercluster_edges,
    random_normal_pair,
    synth_clustered_graph,
)
from specbound.graphs import (
    GraphPerturbation,
    coupling_sandwich,
    laplacian,
    max_external_degree,
    residual_identity_check,
)

from conftest import make_rng, random_frame, random_unitary


def report(number: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} criterion {number} ({label}): {elapsed:.1f}s of {budget:.0f}s budget")
    assert ok, f"criterion {number} ({label}) failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_metric_suite():
    start = time.perf_counter()
    rng = make_rng(101)
    ok = True
    for n in range(2, 11):
        for _ in range(100):
            q = int(rng.integers(1, n))
            x, y = random_frame(n, q, rng), random_frame(n, q, rng)
            d = dsp_projector(x, y)
            ok &= abs(d - dsp_overlap(x, y)) <= 1e-10
            x_perp = complement_frame(x) if q < n else None
            if x_perp is not None:
                ok &= abs(d - dsp_complement(x_perp, y)) <= 1e-10
                y_perp = complement_frame(y)
                ok &= abs(
                    np.sqrt(q) * d - np.sqrt(n - q) * dsp_projector(x_perp, y_perp)
                ) <= 1e-9
            ok &= abs(d - dsp_projector(y, x)) <= 1e-9
            ok &= dsp_projector(x, x) <= 1e-9
            ok &= -1e-12 <= d <= 1 + 1e-12
        # triangle inequality on fresh triples at this dimension
        for _ in range(20):
            q = int(rng.integers(1, n))
            x, y, z = (random_frame(n, q, rng) for _ in range(3))
            ok &= dsp_projector(x, z) <= dsp_projector(x, y) + dsp_projector(y, z) + 1e-9
    report(1, "metric suite", ok, time.perf_counter() - start, 10.0)


def test_criterion_2_spectral_identities():
    start = time.perf_counter()
    rng = make_rng(102)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 13))
        m, mt = random_normal_pair(n, rng, hermitian=bool(rng.integers(2)))
        mdiff = mt - m
        base, pert = decompose_normal(m), decompose_normal(mt)
        u, v = base.eigenvectors.columns, pert.eigenvectors.columns
        lam, lam_t = base.eigenvalues, pert.eigenvalues
        scale = np.linalg.norm(mdiff)
        # coupling-matrix identity, both sides computed here
        direct = (lam_t[None, :] - lam[:, None]) * (u.conj().T @ v)
        via = u.conj().T @ mdiff @ v
        ok &= np.max(np.abs(direct - via)) <= 1e-9 * scale
        # residual-norm sum formulas, both variants
        overlap_sq = np.abs(u.conj().T @ v) ** 2
        gap_sq = np.abs(lam_t[None, :] - lam[:, None]) ** 2
        res_base = np.linalg.norm(mdiff @ u, axis=0)
        res_pert = np.linalg.norm(mdiff @ v, axis=0)
        formula_base = np.sqrt((gap_sq * overlap_sq).sum(axis=1))
        formula_pert = np.sqrt((gap_sq * overlap_sq).sum(axis=0))
        denom = np.maximum(np.maximum(res_base, formula_base), 1e-300)
        ok &= np.max(np.abs(res_base - formula_base) / denom) <= 1e-9
        denom = np.maximum(np.maximum(res_pert, formula_pert), 1e-300)
        ok &= np.max(np.abs(res_pert - formula_pert) / denom) <= 1e-9
        # Bauer-Fike, both directions
        op = np.linalg.norm(mdiff, 2)
        gaps = np.abs(lam_t[None, :] - lam[:, None])
        ok &= gaps.min(axis=1).max() <= op * (1 + 1e-9) + 1e-12
        ok &= gaps.min(axis=0).max() <= op * (1 + 1e-9) + 1e-12
    report(2, "spectral identities", ok, time.perf_counter() - start, 20.0)


def _gapped_hermitian_pair(rng, n, q, gap=8.0, scale=0.3):
    u = random_unitary(n, rng)
    lam = np.concatenate([rng.standard_normal(q), gap + rng.standard_normal(n - q)])
    m = (u * lam[None, :]) @ u.conj().T
    m = (m + m.conj().T) / 2
    herm = rng.standard_normal((n, n))
    herm = (herm + herm.T) / 2
    herm *= scale / np.linalg.norm(herm, 2)
    return m, m + herm


def test_criterion_3_bound_soundness():
    start = time.perf_counter()
    rng = make_rng(103)
    violations = 0
    family_counts = {}
    for trial in range(200):
        n = int(rng.integers(2, 11))
        if trial % 3 == 0 and n >= 3:
            q_split = int(rng.integers(1, n))
            m, mt = _gapped_hermitian_pair(rng, n, q_split)
        else:
            m, mt = random_normal_pair(n, rng, hermitian=bool(rng.integers(2)))
        base, pert = decompose_normal(m), decompose_normal(mt)
        ctx = PerturbationContext(base, pert, mt - m)
        for q in range(1, n):
            a = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            candidates = [
                IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            ]
            try:
                candidates.append(hat_partition(ctx, a))
            except GapConditionViolated:
                pass
            for a_tilde in candidates:
                lhs = dsp_between(ctx, a, a_tilde)
                entries = [
                    bound_full_main(ctx, a, a_tilde, KappaPolicy("zero")),
                    bound_full_main(ctx, a, a_tilde, KappaPolicy("tightest")),
                    *bound_simplified(ctx, a, a_tilde),
                    *bound_davis_kahan(ctx, a, a_tilde),
                ]
                for entry in entries:
                    if not entry.condition_ok:
                        continue
                    family_counts[entry.name] = family_counts.get(entry.name, 0) + 1
                    if lhs > entry.value * (1 + 1e-9) + 1e-12:
                        violations += 1
            try:
                tf = bound_tilde_free(ctx, a)
                for entry in tf.bounds:
                    family_counts[entry.name] = family_counts.get(entry.name, 0) + 1
                    if tf.lhs_dsp > entry.value * (1 + 1e-9) + 1e-12:
                        violations += 1
            except GapConditionViolated:
                pass
    expected_families = {
        "full_main_kappa_zero",
        "full_main_kappa_tightest",
        "simplified_part1",
        "simplified_part2",
        "davis_kahan_part1",
        "davis_kahan_part2",
        "tilde_free_part1_fine",
        "tilde_free_part1_coarse",
        "tilde_free_part2",
    }
    ok = violations == 0 and expected_families <= set(family_counts)
    report(3, "bound soundness", ok, time.perf_counter() - start, 60.0)


def _brute_classify(p, q, r):
    p_idx, q_idx = [], []
    for k, point in enumerate(r):
        dp = min(abs(point - x) for x in p)
        dq = min(abs(point - x) for x in q)
        (p_idx if dp <= dq else q_idx).append(k)
    return tuple(p_idx), tuple(q_idx)


def _brute_hausdorff(a, b):
    fwd = max(min(abs(x - y) for y in b) for x in a)
    bwd = max(min(abs(x - y) for x in a) for y in b)
    return max(fwd, bwd)


def test_criterion_4_separation_preserving():
    start = time.perf_counter()
    rng = make_rng(104)
    ok = True
    produced = 0
    while produced < 500:
        size_p, size_q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        center = 8 + 12 * rng.random()
        p = list(rng.standard_normal(size_p) + 1j * rng.standard_normal(size_p))
        q = list(center + rng.standard_normal(size_q) + 1j * rng.standard_normal(size_q))
        base_sep = min(abs(x - y) for x in p for y in q)
        jitter = 0.2 * base_sep
        r = []
        for point in p + q:
            for _ in range(int(rng.integers(1, 3))):
                r.append(point + jitter * rng.random() * np.exp(2j * np.pi * rng.random()))
        if not sep_preserving_check(p, q, r)["holds_full"]:
            continue
        produced += 1
        res = sep_preserving_partition(p, q, r)
        # property 1: a partition, matching the brute-force classifier
        ok &= sorted(res.p_tilde + res.q_tilde) == list(range(len(r)))
        ok &= (res.p_tilde, res.q_tilde) == _brute_classify(p, q, r)
        # property 2: each perturbed point is nearest its own original group
        for k in res.p_tilde:
            ok &= min(abs(r[k] - x) for x in p) <= min(abs(r[k] - x) for x in q)
        for k in res.q_tilde:
            ok &= min(abs(r[k] - x) for x in q) < min(abs(r[k] - x) for x in p)
        # property 3: each original point's nearest perturbed point stays home
        for x in p:
            ok &= min(range(len(r)), key=lambda k: abs(r[k] - x)) in res.p_tilde
        for x in q:
            ok &= min(range(len(r)), key=lambda k: abs(r[k] - x)) in res.q_tilde
        # property 4: Hausdorff split identity
        p_t = [r[k] for k in res.p_tilde]
        q_t = [r[k] for k in res.q_tilde]
        dh = _brute_hausdorff(p + q, r)
        ok &= _brute_hausdorff(p, p_t) <= dh + 1e-12
        ok &= _brute_hausdorff(q, q_t) <= dh + 1e-12
        ok &= abs(max(_brute_hausdorff(p, p_t), _brute_hausdorff(q, q_t)) - dh) <= 1e-12
        # property 5: separation lower bound
        new_sep = min(abs(x - y) for x in p_t for y in q_t)
        ok &= new_sep >= res.new_sep_lower_bound - 1e-12
    # nearest-group identification keeps cardinality on matrix instances
    for _ in range(60):
        n = int(rng.integers(3, 10))
        q_split = int(rng.integers(1, n))
        m, mt = _gapped_hermitian_pair(rng, n, q_split, gap=9.0, scale=0.4)
        base, pert = decompose_normal(m), decompose_normal(mt)
        a = IndexPartition(n, tuple(range(q_split)))
        try:
            hat = hat_partition(PerturbationContext(base, pert, mt - m), a)
            ok &= hat.q == q_split
        except GapConditionViolated:
            pass
    report(4, "separation-preserving machinery", ok, time.perf_counter() - start, 10.0)


def test_criterion_5_graph_identities():
    start = time.perf_counter()
    rng = make_rng(105)
    ok = True
    for _ in range(100):
        cfg = ExperimentConfig(
            n_vertices=int(rng.integers(8, 61)),
            q=int(rng.integers(2, 6)),
            intra_edge_prob=float(rng.uniform(0.5, 1.0)),
            inter_edge_count=int(rng.integers(0, 12)),
            seed=int(rng.integers(2**32)),
        )
        base, cut = synth_clustered_graph(cfg)
        pert = add_intercluster_edges(base, cut, cfg)
        for row in residual_identity_check(GraphPerturbation(base, pert, cut)):
            ok &= abs(row["lhs"] - row["rhs"]) <= 1e-9 * max(1.0, row["rhs"])
        for j in range(cut.q):
            s = coupling_sandwich(j, cut, pert)
            ok &= s["lower"] <= s["value"] * (1 + 1e-12) + 1e-15
            ok &= s["value"] <= s["upper"] * (1 + 1e-12) + 1e-15
        ldiff = laplacian(pert) - laplacian(base)
        op = float(np.max(np.abs(np.linalg.eigvalsh(ldiff))))
        med_bound = 2.0 * max(
            max_external_degree(j, cut, pert) for j in range(cut.q)
        )
        ok &= op <= med_bound + 1e-10
    report(5, "graph identities", ok, time.perf_counter() - start, 30.0)


def test_criterion_6_experiment_reproduction(tmp_path):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "specbound", "reproduce", "--n", "333", "--q", "12",
         "--json"],
        capture_output=True,
        text=True,
    )
    ok = proc.returncode == 0
    payload = json.loads(proc.stdout) if ok else {}
    if ok:
        ok &= payload["med_condition_ok"] is True
        ok &= payload["max_med"] < payload["base_gap"] / 4
        ok &= payload["inequality_known_perturbed_ok"] is True
        ok &= payload["inequality_known_base_fine_ok"] is True
        ok &= payload["all_inequalities_ok"] is True
        ok &= 0.0 < payload["lhs_dsp"] < 0.2
        # reference figures are printed alongside, never gating
        for key in (
            "reference_lhs_dsp",
            "reference_known_perturbed_bound",
            "reference_known_base_bound",
            "reference_perturbed_gap",
            "reference_mean_coupling",
            "reference_max_med",
        ):
            ok &= key in payload
    report(6, "experiment reproduction", ok, time.perf_counter() - start, 60.0)


def _oracle_total_coupling(labels, q, adj):
    n = adj.shape[0]
    total = 0.0
    for j in range(q):
        inside = [v for v in range(n) if labels[v] == j]
        outside = [v for v in range(n) if labels[v] != j]
        out_sq = sum(sum(adj[v, u] for u in outside) ** 2 for v in inside)
        in_sq = sum(sum(adj[v, u] for u in inside) ** 2 for v in outside)
        total += (out_sq + in_sq) / len(inside)
    return total


def _oracle_partitions(n, q):
    seen = set()
    for labels in itertools.product(range(q), repeat=n):
        if len(set(labels)) != q:
            continue
        mapping, canon = {}, []
        for x in labels:
            mapping.setdefault(x, len(mapping))
            canon.append(mapping[x])
        seen.add(tuple(canon))
    return sorted(seen)


def test_criterion_7_small_instance_oracles():
    start = time.perf_counter()
    rng = make_rng(107)
    ok = True
    corpus = [
        WeightedGraph(3, ()),
        WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))),
        WeightedGraph(
            6,
            ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
             (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 0.1)),
        ),
        WeightedGraph(5, ((0, 1, 2.0), (1, 2, 0.5), (3, 4, 1.0), (2, 3, 0.2))),
    ]
    for _ in range(6):
        n = int(rng.integers(4, 9))
        edges = tuple(
            (u, v, float(rng.random() + 0.05))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.45
        )
        corpus.append(WeightedGraph(n, edges))
    for graph in corpus:
        n = graph.n_vertices
        adj = graph.adjacency()
        for q in (2, 3):
            if q > n:
                continue
            cut, value = best_q_cut(graph, q, mode="exact")
            oracle_value = min(
                _oracle_total_coupling(labels, q, adj)
                for labels in _oracle_partitions(n, q)
            )
            ok &= abs(value - oracle_value) <= 1e-12 * max(1.0, oracle_value)
            ok &= abs(
                _oracle_total_coupling(cut.labels, q, adj) - oracle_value
            ) <= 1e-12 * max(1.0, oracle_value)
    # exact invariant-subspace search against independent enumeration
    for _ in range(15):
        n = int(rng.integers(3, 7))
        q = int(rng.integers(1, n))
        m, mt = random_normal_pair(n, rng)
        base, pert = decompose_normal(m), decompose_normal(mt)
        target = OrthonormalFrame(base.eigenvectors.columns[:, :q])
        found, found_d = search_closest_invariant(pert, target, q)
        best_set, best_d = None, np.inf
        for subset in itertools.combinations(range(n), q):
            frame = OrthonormalFrame(pert.eigenvectors.columns[:, list(subset)])
            d = dsp_projector(target, frame)
            if d < best_d:
                best_set, best_d = subset, d
        ok &= found.indices == best_set
        ok &= abs(found_d - best_d) <= 1e-9
    report(7, "small-instance oracles", ok, time.perf_counter() - start, 20.0)


def test_criterion_8_determinism(tmp_path):
    start = time.perf_counter()

    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "specbound", *args],
            capture_output=True,
        )

    ok = True
    synth_args = [
        "graph", "synth", "--n", "30", "--q", "3", "--intra-p", "0.8",
        "--inter-edges", "4", "--seed", "17",
    ]
    first = run(synth_args + ["--out", str(tmp_path / "a")])
    second = run(synth_args + ["--out", str(tmp_path / "b")])
    ok &= first.returncode == 0 and second.returncode == 0
    # file payloads must match byte for byte (stdout differs only in paths)
    for suffix in (".graph", ".perturbed.graph", ".cut"):
        ok &= (
            (tmp_path / "a").with_suffix(suffix).read_bytes()
            == (tmp_path / "b").with_suffix(suffix).read_bytes()
        )
    for args in (
        ["reproduce", "--n", "24", "--q", "3", "--intra-p", "0.9",
         "--inter-edges", "3", "--seed", "6"],
        ["audit", "--count", "6", "--n-max", "8", "--seed", "3"],
        ["reproduce", "--n", "24", "--q", "3", "--intra-p", "0.9",
         "--inter-edges", "3", "--seed", "6", "--json"],
    ):
        r1, r2 = run(args), run(args)
        ok &= r1.returncode == r2.returncode
        ok &= r1.stdout == r2.stdout
    report(8, "determinism", ok, time.perf_counter() - start, 60.0)
