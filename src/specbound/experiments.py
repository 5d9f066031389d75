"""Synthetic clustered graphs, the full reproduction pipeline, and bound audits.

Randomness model: one 64-bit master seed is split into independent phase
streams with a splitmix64 chain (phase 0 = cluster sizes, phases 1..q =
intra-cluster edges per cluster, phase q+1 = inter-cluster edges);
connectivity retries keep drawing from the owning cluster's stream. Each
phase stream seeds a numpy PCG64 generator, so a fixed seed reproduces the
whole construction bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import graphs
from .bounds import (
    IndexPartition,
    KappaPolicy,
    bound_davis_kahan,
    bound_full_main,
    bound_simplified,
    bound_tilde_free,
    dsp_between,
    hat_partition,
)
from .errors import (
    GapConditionViolated,
    InvalidConfig,
    MedConditionViolated,
    NotEnoughCrossPairs,
    Unsatisfiable,
    ZeroGap,
)
from .graphs import QCut, WeightedGraph
from .spectral import bauer_fike_gap, coupling_matrix, decompose_normal, residual_norms
from .subspace import OrthonormalFrame

_MASK64 = (1 << 64) - 1

# Reference figures from the original experiment at this scale, printed for
# comparison only; the underlying random graph is not reproducible.
REFERENCE_VALUES = {
    "reference_lhs_dsp": 2.516e-2,
    "reference_known_perturbed_bound": 3.992e-2,
    "reference_known_base_bound": 6.036e-2,
    "reference_perturbed_gap": 18.436,
    "reference_mean_coupling": 0.5417,
    "reference_max_med": 3.0,
}


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


def phase_seeds(seed: int, count: int) -> list[int]:
    """Derive ``count`` independent child seeds from a 64-bit master seed."""
    state = seed & _MASK64
    out = []
    for _ in range(count):
        state, child = splitmix64(state)
        out.append(child)
    return out


def _rng(child_seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(child_seed))


@dataclass(frozen=True)
class ExperimentConfig:
    """Free parameters of the clustered-graph experiment.

    Defaults target the published scale: 333 vertices in 12 clusters with
    unit weights. ``intra_edge_prob`` and ``inter_edge_count`` are calibration
    choices (the original experiment does not state them); the defaults land
    the spectral gap and mean coupling in the reported magnitude range.
    """

    n_vertices: int = 333
    q: int = 12
    intra_edge_prob: float = 0.95
    inter_edge_count: int = 40
    edge_weight: float = 1.0
    seed: int = 0
    max_retries: int = 200

    def __post_init__(self):
        if not 1 <= self.q <= self.n_vertices:
            raise InvalidConfig("need 1 <= q <= n_vertices")
        if not 0.0 < self.intra_edge_prob <= 1.0:
            raise InvalidConfig("intra_edge_prob must lie in (0, 1]")
        if self.inter_edge_count < 0:
            raise InvalidConfig("inter_edge_count must be non-negative")
        if self.edge_weight <= 0:
            raise InvalidConfig("edge_weight must be positive")


def synth_clustered_graph(cfg: ExperimentConfig) -> tuple[WeightedGraph, QCut]:
    """Generate q internally connected, mutually disconnected clusters.

    Cluster sizes come from a multinomial draw over n - q vertices plus one
    guaranteed vertex each. Each cluster is an independent-edge random graph
    at ``intra_edge_prob``; draws that come out disconnected are retried on
    the same stream up to ``max_retries`` times (raising Unsatisfiable after
    that), so the construction stays deterministic under the seed.
    """
    seeds = phase_seeds(cfg.seed, cfg.q + 2)
    size_rng = _rng(seeds[0])
    sizes = size_rng.multinomial(cfg.n_vertices - cfg.q, [1.0 / cfg.q] * cfg.q) + 1
    labels: list[int] = []
    for j, size in enumerate(sizes):
        labels.extend([j] * int(size))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    heads: list[np.ndarray] = []
    tails: list[np.ndarray] = []
    for j, size in enumerate(sizes):
        cluster_rng = _rng(seeds[1 + j])
        size = int(size)
        iu, iv = np.triu_indices(size, 1)  # row-major, the order draws are read in
        for _ in range(cfg.max_retries + 1):
            keep = cluster_rng.random((size, size))[iu, iv] < cfg.intra_edge_prob
            if graphs.component_labels(size, iu[keep], iv[keep]).max() == 0:
                heads.append(offsets[j] + iu[keep])
                tails.append(offsets[j] + iv[keep])
                break
        else:
            raise Unsatisfiable(
                f"cluster {j} (size {size}) stayed disconnected after "
                f"{cfg.max_retries} retries at p={cfg.intra_edge_prob}"
            )
    u, v = np.concatenate(heads), np.concatenate(tails)
    edges = tuple(zip(u.tolist(), v.tolist(), [cfg.edge_weight] * len(u)))
    graph = WeightedGraph(n_vertices=cfg.n_vertices, edges=edges)
    return graph, QCut(labels=tuple(labels), q=cfg.q)


def add_intercluster_edges(
    graph: WeightedGraph, cut: QCut, cfg: ExperimentConfig
) -> WeightedGraph:
    """Add exactly ``cfg.inter_edge_count`` distinct cross-cluster edges.

    New edges carry ``cfg.edge_weight`` and never duplicate existing ones.
    Raises NotEnoughCrossPairs when the graph has fewer eligible pairs than
    requested.
    """
    seeds = phase_seeds(cfg.seed, cfg.q + 2)
    rng = _rng(seeds[cfg.q + 1])
    n = graph.n_vertices
    labels = np.asarray(cut.labels)
    existing_cross = graph.edge_keys()[labels[graph.u] != labels[graph.v]]
    iu, iv = np.triu_indices(n, 1)  # row-major pair order, as the draw indexes it
    free = (labels[iu] != labels[iv]) & ~np.isin(iu * n + iv, existing_cross)
    iu, iv = iu[free], iv[free]
    if len(iu) < cfg.inter_edge_count:
        raise NotEnoughCrossPairs(
            f"requested {cfg.inter_edge_count} cross edges but only "
            f"{len(iu)} pairs are available"
        )
    chosen = np.sort(rng.choice(len(iu), size=cfg.inter_edge_count, replace=False))
    new_edges = tuple(
        zip(iu[chosen].tolist(), iv[chosen].tolist(), [cfg.edge_weight] * len(chosen))
    )
    return WeightedGraph(n_vertices=n, edges=graph.edges + new_edges)


def reproduce_pipeline(cfg: ExperimentConfig) -> dict:
    """Run synth -> perturb -> bounds -> alignment; return a structured report.

    The report keys are ordered for stable human-readable printing. Condition
    failures (the MED condition, a vanishing perturbed gap) are recorded as
    flags, not raised; inequality checks appear as explicit booleans.
    """
    base, cut = synth_clustered_graph(cfg)
    perturbed = add_intercluster_edges(base, cut, cfg)
    q = cfg.q
    base_vals = graphs.laplacian_eigenvalues(base)
    pert_vals, pert_vecs = graphs.laplacian_spectrum(perturbed)
    couplings = graphs.couplings(cut, perturbed)
    meds = graphs.max_external_degrees(cut, perturbed)
    report: dict = {
        "n_vertices": cfg.n_vertices,
        "q": q,
        "intra_edge_prob": cfg.intra_edge_prob,
        "inter_edge_count": cfg.inter_edge_count,
        "seed": cfg.seed,
        "base_gap": float(base_vals[q]),
        "perturbed_gap": float(pert_vals[q]),
        "mean_coupling": float(np.mean(couplings)),
        "max_med": float(meds.max()),
    }

    inequalities: dict[str, bool] = {}
    identity = graphs.residual_identity_check(base, perturbed, cut)
    inequalities["residual_identity"] = all(row["ok"] for row in identity)
    diff_check = graphs.laplacian_diff_bound_check(base, perturbed, cut)
    report["laplacian_diff_op_norm"] = diff_check["op_norm"]
    inequalities["laplacian_diff_bound"] = diff_check["ok"]

    try:
        known_pert = graphs.nullspace_bound_known_perturbed(base, perturbed, cut)
        report["lhs_dsp"] = known_pert.lhs_dsp
        report["known_perturbed_bound"] = known_pert.bounds[0].value
        report["known_perturbed_condition_ok"] = True
        inequalities["known_perturbed"] = (
            known_pert.lhs_dsp <= known_pert.bounds[0].value * (1 + 1e-9) + 1e-12
        )
    except ZeroGap:
        report["known_perturbed_condition_ok"] = False

    report["med_condition_threshold"] = report["base_gap"] / 4.0
    try:
        known_base = graphs.nullspace_bound_known_base(base, perturbed, cut)
        report["known_base_bound_fine"] = known_base.bounds[0].value
        report["known_base_bound_coarse"] = known_base.bounds[1].value
        report["med_condition_ok"] = True
        inequalities["known_base_fine"] = (
            known_base.lhs_dsp <= known_base.bounds[0].value * (1 + 1e-9) + 1e-12
        )
        inequalities["known_base_chain"] = (
            known_base.bounds[0].value
            <= known_base.bounds[1].value * (1 + 1e-12) + 1e-15
        )
    except MedConditionViolated as exc:
        report["med_condition_ok"] = False
        report["med_condition_margin"] = exc.margin

    aligned = graphs.align_basis(
        graphs.null_basis(cut), OrthonormalFrame(pert_vecs[:, :q].astype(complex))
    )
    report["aligned_basis_match"] = float(
        np.linalg.norm(aligned.columns - pert_vecs[:, :q])
    )
    report["inequalities"] = inequalities
    report["all_inequalities_ok"] = all(inequalities.values())
    report.update(REFERENCE_VALUES)
    return report


@dataclass
class AuditSummary:
    """Aggregate outcome of a random-matrix bound audit."""

    instances: int = 0
    bounds_evaluated: int = 0
    conditions_satisfied: int = 0
    identity_checks: int = 0
    violations: int = 0
    worst_slack_ratio: float = 0.0
    violation_labels: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "instances": self.instances,
            "bounds_evaluated": self.bounds_evaluated,
            "conditions_satisfied": self.conditions_satisfied,
            "identity_checks": self.identity_checks,
            "violations": self.violations,
            "worst_slack_ratio": self.worst_slack_ratio,
            "violation_labels": sorted(self.violation_labels),
        }


def _random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    qmat, r = np.linalg.qr(z)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


def random_normal_pair(
    n: int, rng: np.random.Generator, hermitian: bool = False, scale: float = 0.3
) -> tuple[np.ndarray, np.ndarray]:
    """A normal matrix and a nearby normal perturbation of it.

    The perturbed matrix shares nothing structural with the base: its
    eigenbasis is the base one twisted by a small random unitary and its
    eigenvalues are independently jittered, which keeps both exactly normal
    while exercising generic perturbations.
    """
    u = _random_unitary(n, rng)
    if hermitian:
        lam = rng.standard_normal(n) * 2.0
        lam_t = lam + scale * rng.standard_normal(n)
    else:
        lam = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 1.5
        lam_t = lam + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    skew = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = (skew - skew.conj().T) / 2.0
    twist = scipy.linalg.expm(scale * 0.3 * skew)
    v = u @ twist
    m = (u * lam[None, :]) @ u.conj().T
    m_t = (v * lam_t[None, :]) @ v.conj().T
    if hermitian:
        m = (m + m.conj().T) / 2.0
        m_t = (m_t + m_t.conj().T) / 2.0
    return m, m_t


def _record(summary: AuditSummary, label: str, lhs: float, entry) -> None:
    if not entry.condition_ok:
        return
    summary.bounds_evaluated += 1
    summary.conditions_satisfied += 1
    if lhs > entry.value * (1 + 1e-9) + 1e-12:
        summary.violations += 1
        summary.violation_labels.append(label)
    if entry.value > 0:
        summary.worst_slack_ratio = max(summary.worst_slack_ratio, lhs / entry.value)


def audit_random_matrices(count: int, n_max: int = 10, seed: int = 0) -> AuditSummary:
    """Drive every identity and bound over random normal pairs; expect 0 violations.

    Alternates Hermitian and general normal instances. For each instance and
    each admissible subset size, evaluates the kappa-zero and tightest main
    bounds, both simplified parts, both separation-only parts against a
    random perturbed index set and against the nearest-group identification,
    plus the tilde-free family whenever the half-gap condition holds.
    """
    summary = AuditSummary()
    for child in phase_seeds(seed, count):
        rng = _rng(child)
        n = int(rng.integers(2, n_max + 1))
        hermitian = bool(rng.integers(2))
        m, m_t = random_normal_pair(n, rng, hermitian=hermitian)
        mdiff = m_t - m
        base = decompose_normal(m)
        pert = decompose_normal(m_t)
        summary.instances += 1

        summary.identity_checks += 2
        if not coupling_matrix(base, pert, mdiff).self_check_ok:
            summary.violations += 1
            summary.violation_labels.append("coupling_matrix_identity")
        if not residual_norms(base, pert, mdiff).self_check_ok:
            summary.violations += 1
            summary.violation_labels.append("residual_norm_identity")
        summary.identity_checks += 1
        if bauer_fike_gap(base, pert) > np.linalg.norm(mdiff, 2) + 1e-10:
            summary.violations += 1
            summary.violation_labels.append("bauer_fike")

        for q in range(1, n):
            a = IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            candidates = [
                IndexPartition(n, tuple(sorted(rng.choice(n, q, replace=False))))
            ]
            try:
                candidates.append(hat_partition(base, pert, mdiff, a))
            except GapConditionViolated:
                pass
            for a_tilde in candidates:
                lhs = dsp_between(base, pert, a, a_tilde)
                for mode in ("zero", "tightest"):
                    entry = bound_full_main(
                        base, pert, mdiff, a, a_tilde, KappaPolicy(mode)
                    )
                    _record(summary, f"full_main_{mode}", lhs, entry)
                for entry in bound_simplified(base, pert, mdiff, a, a_tilde):
                    _record(summary, entry.name, lhs, entry)
                for entry in bound_davis_kahan(base, pert, mdiff, a, a_tilde):
                    _record(summary, entry.name, lhs, entry)
            try:
                tf = bound_tilde_free(base, mdiff, a)
                for entry in tf.bounds:
                    _record(summary, entry.name, tf.lhs_dsp, entry)
            except GapConditionViolated:
                pass
    return summary
