"""Synthetic clustered graphs, the full reproduction pipeline, and bound audits.

Randomness model: one 64-bit master seed is split into independent phase
streams with a splitmix64 chain (phase 0 = cluster sizes, phases 1..q =
intra-cluster edges per cluster, phase q+1 = inter-cluster edges);
connectivity retries keep drawing from the owning cluster's stream. Each
phase stream seeds a numpy PCG64 generator, so a fixed seed reproduces the
whole construction bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import graphs
from .bounds import (
    BAUER_FIKE_ABS_TOL,
    CHAIN_ABS_TOL,
    CHAIN_REL_TOL,
    KappaPolicy,
    PerturbationContext,
    bound_davis_kahan,
    bound_full_main,
    bound_simplified,
    bound_tilde_free,
    dsp_between,
)
from .errors import (
    InvalidConfig,
    MedConditionViolated,
    NotEnoughCrossPairs,
    Unsatisfiable,
    ZeroGap,
)
from .graphs import QCut, WeightedGraph
from .spectral import bauer_fike_gap, coupling_matrix, decompose_normal, residual_norms

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
    that), so the construction stays deterministic under the seed. A draw
    is connected if ``graphs.degree_certifies_connected`` says so (its
    minimum degree is at least half the other vertices, as a dense draw's
    is), and otherwise if ``graphs.component_labels`` finds one component.
    """
    seeds = phase_seeds(cfg.seed, cfg.q + 2)
    size_rng = _rng(seeds[0])
    sizes = size_rng.multinomial(cfg.n_vertices - cfg.q, [1.0 / cfg.q] * cfg.q) + 1
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    heads: list[np.ndarray] = []
    tails: list[np.ndarray] = []
    for j, size in enumerate(sizes):
        cluster_rng = _rng(seeds[1 + j])
        size = int(size)
        iu, iv = np.triu_indices(size, 1)  # row-major, the order draws are read in
        for _ in range(cfg.max_retries + 1):
            keep = cluster_rng.random((size, size))[iu, iv] < cfg.intra_edge_prob
            u, v = iu[keep], iv[keep]
            if (graphs.degree_certifies_connected(size, u, v)
                    or graphs.component_labels(size, u, v).max() == 0):
                heads.append(offsets[j] + u)
                tails.append(offsets[j] + v)
                break
        else:
            raise Unsatisfiable(
                f"cluster {j} (size {size}) stayed disconnected after "
                f"{cfg.max_retries} retries at p={cfg.intra_edge_prob}"
            )
    u, v = np.concatenate(heads), np.concatenate(tails)
    graph = WeightedGraph.from_arrays(
        cfg.n_vertices, u, v, np.full(len(u), cfg.edge_weight, dtype=float)
    )
    labels = np.repeat(np.arange(cfg.q), sizes)
    return graph, QCut(labels=tuple(labels.tolist()), q=cfg.q)


def add_intercluster_edges(
    graph: WeightedGraph, cut: QCut, cfg: ExperimentConfig
) -> WeightedGraph:
    """Add exactly ``cfg.inter_edge_count`` distinct cross-cluster edges.

    New edges carry ``cfg.edge_weight`` and never duplicate existing ones.
    Raises NotEnoughCrossPairs when the graph has fewer eligible pairs than
    requested.

    The draw picks indices into the free cross-cluster pairs (u, v), u < v,
    in row-major order. They are counted per row u without listing them, and
    only the rows drawn from are scanned.
    """
    seeds = phase_seeds(cfg.seed, cfg.q + 2)
    rng = _rng(seeds[cfg.q + 1])
    n = graph.n_vertices
    labels = np.asarray(cut.labels)
    cross = labels[graph.u] != labels[graph.v]
    cross_u, cross_v = graph.u[cross], graph.v[cross]  # sorted by (u, v)
    order = np.argsort(labels, kind="stable")
    same_after = np.empty(n, dtype=np.int64)  # vertices after x with x's label
    same_after[order] = np.cumsum(np.bincount(labels))[labels[order]] - 1 - np.arange(n)
    free = n - 1 - np.arange(n) - same_after - np.bincount(cross_u, minlength=n)
    row_start = np.concatenate(([0], np.cumsum(free)))
    total = int(row_start[-1])
    if total < cfg.inter_edge_count:
        raise NotEnoughCrossPairs(
            f"requested {cfg.inter_edge_count} cross edges but only "
            f"{total} pairs are available"
        )
    chosen = np.sort(rng.choice(total, size=cfg.inter_edge_count, replace=False))
    rows = np.searchsorted(row_start, chosen, side="right") - 1
    cols = np.empty_like(rows)
    for row in np.unique(rows).tolist():
        drawn = rows == row
        is_free = labels[row + 1 :] != labels[row]
        lo, hi = np.searchsorted(cross_u, (row, row + 1))
        is_free[cross_v[lo:hi] - row - 1] = False
        cols[drawn] = row + 1 + np.flatnonzero(is_free)[chosen[drawn] - row_start[row]]
    # The drawn edges are in key order (rows ascending, then columns), so each
    # goes in at its place among the graph's, and the edge arrays stay sorted.
    at = np.searchsorted(graph.edge_keys(), rows * n + cols)
    return WeightedGraph.from_arrays(
        n,
        np.insert(graph.u, at, rows),
        np.insert(graph.v, at, cols),
        np.insert(graph.w, at, cfg.edge_weight),
    )


def synth_perturbation(cfg: ExperimentConfig) -> graphs.GraphPerturbation:
    """The clustered graph of ``cfg`` and its cut, perturbed by the cross edges of ``cfg``."""
    base, cut = synth_clustered_graph(cfg)
    return graphs.GraphPerturbation(base, add_intercluster_edges(base, cut, cfg), cut)


def reproduce_pipeline(cfg: ExperimentConfig) -> dict:
    """Run synth -> perturb -> bounds -> alignment; return a structured report.

    That is ``reproduce_report(cfg, synth_perturbation(cfg))``.
    """
    return reproduce_report(cfg, synth_perturbation(cfg))


def reproduce_report(cfg: ExperimentConfig, ctx: graphs.GraphPerturbation) -> dict:
    """Bounds and alignment of ``ctx = synth_perturbation(cfg)``, as a structured report.

    The report keys are ordered for stable human-readable printing. Condition
    failures (the MED condition, a vanishing perturbed gap) are recorded as
    flags, not raised; inequality checks appear as explicit booleans.
    """
    q = cfg.q
    pert_vals, _ = ctx.perturbed_spectrum(q + 1)
    base_vals, couplings, meds = ctx.base_values, ctx.couplings, ctx.meds
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
    identity = graphs.residual_identity_check(ctx)
    inequalities["residual_identity"] = all(row["ok"] for row in identity)
    diff_check = graphs.laplacian_diff_bound_check(ctx)
    report["laplacian_diff_op_norm"] = diff_check["op_norm"]
    inequalities["laplacian_diff_bound"] = diff_check["ok"]

    try:
        known_pert = graphs.nullspace_bound_known_perturbed(ctx)
        report["lhs_dsp"] = known_pert.lhs_dsp
        report["known_perturbed_bound"] = known_pert.bounds[0].value
        report["known_perturbed_condition_ok"] = True
        inequalities["known_perturbed"] = known_pert.bounds[0].holds(known_pert.lhs_dsp)
    except ZeroGap:
        report["known_perturbed_condition_ok"] = False

    report["med_condition_threshold"] = report["base_gap"] / 4.0
    try:
        known_base = graphs.nullspace_bound_known_base(ctx)
        report["known_base_bound_fine"] = known_base.bounds[0].value
        report["known_base_bound_coarse"] = known_base.bounds[1].value
        report["med_condition_ok"] = True
        inequalities["known_base_fine"] = known_base.bounds[0].holds(known_base.lhs_dsp)
        inequalities["known_base_chain"] = (
            known_base.bounds[0].value
            <= known_base.bounds[1].value * (1 + CHAIN_REL_TOL) + CHAIN_ABS_TOL
        )
    except MedConditionViolated as exc:
        report["med_condition_ok"] = False
        report["med_condition_margin"] = exc.margin

    aligned = graphs.align_basis(ctx.null_frame, ctx.perturbed_frame)
    report["aligned_basis_match"] = float(
        np.linalg.norm(aligned.columns - ctx.perturbed_frame.columns)
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
        return {**asdict(self), "violation_labels": sorted(self.violation_labels)}


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
    from scipy.linalg import expm  # loads scipy.linalg on first use

    u = _random_unitary(n, rng)
    if hermitian:
        lam = rng.standard_normal(n) * 2.0
        lam_t = lam + scale * rng.standard_normal(n)
    else:
        lam = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 1.5
        lam_t = lam + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    skew = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = (skew - skew.conj().T) / 2.0
    twist = expm(scale * 0.3 * skew)
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
    if not entry.holds(lhs):
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
    Raises InvalidConfig for a negative ``count`` or an ``n_max`` below 2.
    """
    if count < 0 or n_max < 2:
        raise InvalidConfig(f"need count >= 0 and n_max >= 2, got {count} and {n_max}")
    summary = AuditSummary()
    for child in phase_seeds(seed, count):
        rng = _rng(child)
        n = int(rng.integers(2, n_max + 1))
        hermitian = bool(rng.integers(2))
        m, m_t = random_normal_pair(n, rng, hermitian=hermitian)
        base = decompose_normal(m)
        pert = decompose_normal(m_t)
        ctx = PerturbationContext(base, pert, m_t - m)
        summary.instances += 1

        summary.identity_checks += 2
        if not coupling_matrix(ctx).self_check_ok:
            summary.violations += 1
            summary.violation_labels.append("coupling_matrix_identity")
        if not residual_norms(ctx).self_check_ok:
            summary.violations += 1
            summary.violation_labels.append("residual_norm_identity")
        summary.identity_checks += 1
        if bauer_fike_gap(ctx) > ctx.op_norm + BAUER_FIKE_ABS_TOL:
            summary.violations += 1
            summary.violation_labels.append("bauer_fike")

        # Every split's draws first, in the order they were always drawn:
        # A, then a random A~ of the same size, for q = 1 .. n-1.
        a, rand_tilde = np.zeros((2, n - 1, n), dtype=bool)
        for row in range(n - 1):
            a[row, rng.choice(n, row + 1, replace=False)] = True
            rand_tilde[row, rng.choice(n, row + 1, replace=False)] = True
        tilde_free = bound_tilde_free(ctx, a)  # None where the half-gap condition fails
        # Each A against its random A~, then against its nearest-group one.
        owner, a_tilde = [], []
        for row, tf in enumerate(tilde_free):
            hat = [] if tf is None else [tf.chosen_a_tilde.mask]
            owner += [row] * (1 + len(hat))
            a_tilde += [rand_tilde[row], *hat]
        pairs = (a[owner], np.array(a_tilde))
        per_pair = iter(zip(
            dsp_between(ctx, *pairs).tolist(),
            bound_full_main(ctx, *pairs, KappaPolicy("zero")),
            bound_full_main(ctx, *pairs, KappaPolicy("tightest")),
            bound_simplified(ctx, *pairs),
            bound_davis_kahan(ctx, *pairs),
        ))
        for tf in tilde_free:
            for _ in range(1 if tf is None else 2):
                lhs, zero, tightest, simplified, dk = next(per_pair)
                _record(summary, "full_main_zero", lhs, zero)
                _record(summary, "full_main_tightest", lhs, tightest)
                for entry in (*simplified, *dk):
                    _record(summary, entry.name, lhs, entry)
            if tf is not None:
                for entry in tf.bounds:
                    _record(summary, entry.name, tf.lhs_dsp, entry)
    return summary
