"""Synthetic clustered graphs, the full reproduction pipeline, and bound audits.

Randomness model: one 64-bit master seed is split into independent phase
streams with a splitmix64 chain (phase 0 = cluster sizes, phases 1..q =
intra-cluster edges per cluster, phase q+1 = inter-cluster edges);
connectivity retries keep drawing from the owning cluster's stream. Each
phase stream seeds a numpy PCG64 generator, so a fixed seed reproduces the
whole construction bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import graphs
from .bounds import (
    KappaPolicy,
    PerturbationContext,
    _dsp,
    _full_main_tables,
    bound_davis_kahan,
    bound_full_main,  # noqa: F401 - the audit fuses its policies; perfbench traces this name
    bound_simplified,
    bound_tilde_free,
)
from .errors import InvalidConfig, NotEnoughCrossPairs, Unsatisfiable
from .graphs import QCut, WeightedGraph
from .slack import holds, power_of_two_at_most
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
        for _ in range(cfg.max_retries + 1):
            # the pairs above the diagonal whose draw falls below p, row-major
            u, v = np.nonzero(np.triu(cluster_rng.random((size, size)) < cfg.intra_edge_prob, 1))
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
    return graph, QCut(labels=labels, q=cfg.q)


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
    labels = cut.label_array
    cross = labels[graph.u] != labels[graph.v]
    cross_u, cross_v = graph.u[cross], graph.v[cross]  # sorted by (u, v)
    order = np.argsort(labels, kind="stable")
    same_after = np.empty(n, dtype=np.int64)  # vertices after x with x's label
    same_after[order] = np.cumsum(cut.sizes())[labels[order]] - 1 - np.arange(n)
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


# The verdicts of ``graphs.graph_report`` that the report prints, in order.
_INEQUALITIES = ("residual_identity", "laplacian_diff_bound", "known_perturbed",
                 "known_base_fine", "known_base_chain")


def reproduce_report(cfg: ExperimentConfig, ctx: graphs.GraphPerturbation,
                     checks: graphs.GraphReport | None = None) -> dict:
    """``checks = graphs.graph_report(ctx)`` of ``ctx = synth_perturbation(cfg)``, with the
    config, the alignment and the reference values, as a structured report.

    ``checks`` is built here unless the caller passes it. The report keys are
    ordered for stable human-readable printing. Condition failures (the MED
    condition, a vanishing perturbed gap) are recorded as flags, not raised;
    five inequality checks appear as explicit booleans, and
    ``all_inequalities_ok`` reads every verdict.
    """
    q = cfg.q
    if checks is None:
        checks = graphs.graph_report(ctx)
    report: dict = {
        "n_vertices": cfg.n_vertices,
        "q": q,
        "intra_edge_prob": cfg.intra_edge_prob,
        "inter_edge_count": cfg.inter_edge_count,
        "seed": cfg.seed,
        "base_gap": float(ctx.base_values[q]),
        "perturbed_gap": float(ctx.perturbed_spectrum(q + 1)[0][q]),
        "mean_coupling": float(np.mean(ctx.couplings)),
        "max_med": float(ctx.meds.max()),
        "laplacian_diff_op_norm": checks.diff["op_norm"],
    }
    known_perturbed, known_base = checks.known_perturbed, checks.known_base
    if known_perturbed is not None:
        report["lhs_dsp"] = known_perturbed.lhs_dsp
        report["known_perturbed_bound"] = known_perturbed.bounds[0].value
    report["known_perturbed_condition_ok"] = known_perturbed is not None
    report["med_condition_threshold"] = report["base_gap"] / 4.0
    if known_base is None:
        report.update(med_condition_ok=False, med_condition_margin=checks.med_margin)
    else:
        report["known_base_bound_fine"], report["known_base_bound_coarse"] = (
            entry.value for entry in known_base.bounds)
        report["med_condition_ok"] = True
    frame = ctx.perturbed_frame  # None where a perturbed degree overflows
    report["aligned_basis_match"] = math.nan if frame is None else float(
        np.linalg.norm(graphs.align_basis(ctx.null_frame, frame).columns - frame.columns)
    )
    report["inequalities"] = {
        name: checks.verdicts[name] for name in _INEQUALITIES if name in checks.verdicts
    }
    report["all_inequalities_ok"] = all(checks.verdicts.values())
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

    def record(self, labels: tuple[str, ...], lhs: np.ndarray, value: np.ndarray,
               condition_ok: np.ndarray) -> None:
        """Count a table of bounds: row i's lhs against its (m,) values, labelled by column.

        Each bound whose condition holds is evaluated, and counts as a
        violation under its column's label when ``holds`` fails; one with a
        value above 0 takes part in the worst lhs / value.
        """
        lhs = lhs[:, None]
        evaluated = int(np.count_nonzero(condition_ok))
        self.bounds_evaluated += evaluated
        self.conditions_satisfied += evaluated
        violated = condition_ok & ~holds(lhs, value)
        if violated.any():
            self.violation_labels += [labels[j] for j in np.nonzero(violated)[1].tolist()]
            self.violations += int(np.count_nonzero(violated))
        ratios = np.divide(lhs, value, out=np.zeros(value.shape), where=condition_ok & (value > 0))
        worst = np.fmax.reduce(ratios, axis=None, initial=0.0)  # NaNs take no part
        self.worst_slack_ratio = max(self.worst_slack_ratio, worst.item())


def _random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    qmat, r = np.linalg.qr(z)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


def _unitary_exp(generator: np.ndarray) -> np.ndarray:
    """exp(G) of a skew-Hermitian G, which is unitary.

    H = -iG is Hermitian, so with H = Q diag(theta) Q^H from ``eigh``,
    exp(G) = exp(iH) = Q diag(e^{i theta}) Q^H: the eigenvector method, which
    is safe here because Q is unitary (Moler and Van Loan, "Nineteen dubious
    ways to compute the exponential of a matrix, twenty-five years later",
    SIAM Review, 2003).
    """
    theta, basis = np.linalg.eigh(-1j * generator)
    return (basis * np.exp(1j * theta)) @ basis.conj().T


def random_normal_pair(
    n: int, rng: np.random.Generator, hermitian: bool = False, scale: float = 0.3
) -> tuple[np.ndarray, np.ndarray]:
    """A normal matrix and a nearby normal perturbation of it.

    The perturbed matrix shares nothing structural with the base: its
    eigenbasis is the base one twisted by a small random unitary and its
    eigenvalues are independently jittered, which keeps both exactly normal
    while exercising generic perturbations. The twist is exp(0.3 * scale * S)
    for S the skew-Hermitian part of a complex Gaussian matrix, formed by
    ``_unitary_exp`` from one Hermitian eigensolve.
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
    twist = _unitary_exp(scale * 0.3 * skew)
    v = u @ twist
    m = (u * lam[None, :]) @ u.conj().T
    m_t = (v * lam_t[None, :]) @ v.conj().T
    if hermitian:
        m = (m + m.conj().T) / 2.0
        m_t = (m_t + m_t.conj().T) / 2.0
    return m, m_t


# The audit's columns, by the label their violations are counted under.
_AUDIT_LABELS = (
    "full_main_zero", "full_main_tightest", "simplified_part1", "simplified_part2",
    "davis_kahan_part1", "davis_kahan_part2",
    "tilde_free_part1_fine", "tilde_free_part1_coarse", "tilde_free_part2",
)
_AUDIT_POLICIES = (KappaPolicy("zero"), KappaPolicy("tightest"))


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
        # At the pair's unit: the gap carries eigenvalue rounding of about eps ||M||.
        unit = power_of_two_at_most(base.source_norm + pert.source_norm)
        if not holds(bauer_fike_gap(ctx) / unit, ctx.op_norm / unit):
            summary.violations += 1
            summary.violation_labels.append("bauer_fike")

        # Every split's draws first, in the order they were always drawn:
        # A, then a random A~ of the same size, for q = 1 .. n-1.
        a, rand_tilde = np.zeros((2, n - 1, n), dtype=bool)
        for row in range(n - 1):
            a[row, rng.choice(n, row + 1, replace=False)] = True
            rand_tilde[row, rng.choice(n, row + 1, replace=False)] = True
        tilde_free = bound_tilde_free(ctx, a)
        # One block of pairs: each A with its random A~, then each A that
        # meets the half-gap condition with its nearest-group one, whose lhs
        # the tilde-free table holds.
        pairs = (np.concatenate((a, tilde_free.a)), np.concatenate((rand_tilde, tilde_free.a_hat)))
        lhs = np.concatenate((_dsp(ctx, a, rand_tilde, np.arange(1, n)), tilde_free.lhs))
        tables = (*_full_main_tables(ctx, *pairs, _AUDIT_POLICIES),
                  bound_simplified(ctx, *pairs), bound_davis_kahan(ctx, *pairs))
        # The tilde-free columns hold the nearest-group rows alone.
        off = np.zeros((n - 1, 3), dtype=bool)
        value = np.concatenate([*(t.value for t in tables),
                                np.concatenate((off, tilde_free.value))], axis=1)
        condition_ok = np.concatenate([*(t.condition_ok for t in tables),
                                       np.concatenate((off, tilde_free.condition_ok))], axis=1)
        summary.record(_AUDIT_LABELS, lhs, value, condition_ok)
    return summary
