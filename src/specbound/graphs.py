"""Weighted graphs, Laplacian null spaces, and cluster-coupling bounds.

A graph with q mutually disconnected clusters has a q-dimensional Laplacian
null space spanned by the normalized cluster indicators. When inter-cluster
edges are added, the movement of that null space is controlled by three
per-cluster quantities computed from the crossing edge weights alone: the
external degree of a vertex (total weight leaving its cluster), the coupling
of a cluster (size-normalized sum of squared directed external degrees, which
equals the squared Laplacian-difference residual on the cluster indicator
exactly), and the maximum external degree (which bounds the 2-norm of the
Laplacian difference by a factor of two).

A graph keeps its edges as numpy arrays; every per-cluster quantity is
computed for all clusters at once from the crossing edges, and each graph's
Laplacian spectrum is computed once and cached on the graph.

Vertices are 0-based contiguous integers; cluster labels are 0-based as well.
Laplacian eigenvalues are sorted ascending throughout this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCluster,
    MedConditionViolated,
    NotAnEdgeSuperset,
    SearchSpaceTooLarge,
    ZeroGap,
)
from .bounds import BoundReport, IndexPartition, _digest, _entry
from .subspace import OrthonormalFrame, dsp_projector

# Laplacian eigenvalues at or below this are zero (rounding noise of eigh).
ZERO_EIGENVALUE_TOL = 1e-10


def _reject_first(mask: np.ndarray, message: str, u, v, w) -> None:
    """Raise ValueError for the first edge flagged in ``mask``."""
    if mask.any():
        i = int(np.argmax(mask))
        raise ValueError(message.format(u=int(u[i]), v=int(v[i]), w=float(w[i])))


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected simple graph with strictly positive, finite edge weights.

    Edges are normalized to (u, v, w) with u < v, sorted, and validated:
    no self-loops, no duplicates, all endpoints in range, no NaN or infinite
    weights. The same edges, in the same order, are kept as the read-only
    arrays ``u``, ``v`` (int64) and ``w`` (float64).
    """

    n_vertices: int
    edges: tuple[tuple[int, int, float], ...]
    u: np.ndarray = field(init=False, repr=False, compare=False)
    v: np.ndarray = field(init=False, repr=False, compare=False)
    w: np.ndarray = field(init=False, repr=False, compare=False)
    _spectra: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        n = self.n_vertices
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        try:
            arr = np.asarray(self.edges, dtype=float)
        except ValueError as exc:
            raise ValueError("edges must be (u, v, w) triples") from exc
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("edges must be (u, v, w) triples")
        if not np.isfinite(arr[:, :2]).all():
            raise ValueError("edge endpoints must be finite integers")
        a, b, w = arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2]
        _reject_first(a == b, "self-loop at vertex {u}", a, b, w)
        out_of_range = (a < 0) | (a >= n) | (b < 0) | (b >= n)
        _reject_first(out_of_range, "edge ({u},{v}) out of range", a, b, w)
        _reject_first(~np.isfinite(w), "edge ({u},{v}) has non-finite weight {w}", a, b, w)
        _reject_first(w <= 0, "edge ({u},{v}) has non-positive weight {w}", a, b, w)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        order = np.argsort(lo * n + hi, kind="stable")
        lo, hi, w = lo[order], hi[order], w[order]
        repeated = np.zeros(len(lo), dtype=bool)
        repeated[1:] = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        _reject_first(repeated, "duplicate edge ({u},{v})", lo, hi, w)
        for name, values in (("u", lo), ("v", hi), ("w", w)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        object.__setattr__(
            self, "edges", tuple(zip(lo.tolist(), hi.tolist(), w.tolist()))
        )

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n_vertices, self.n_vertices))
        for u, v, w in self.edges:
            adj[u, v] = w
            adj[v, u] = w
        return adj

    def edge_keys(self) -> np.ndarray:
        """``u * n_vertices + v`` per edge; ascending, since edges are sorted."""
        return self.u * self.n_vertices + self.v


@dataclass(frozen=True)
class QCut:
    """Assignment of every vertex to one of q non-empty clusters."""

    labels: tuple[int, ...]
    q: int

    def __post_init__(self):
        labels = tuple(int(x) for x in self.labels)
        if self.q < 1:
            raise ValueError("need at least one cluster")
        present = set(labels)
        if not present <= set(range(self.q)):
            raise ValueError(f"labels must lie in [0, {self.q})")
        if len(present) != self.q:
            raise ValueError("every cluster must be non-empty")
        object.__setattr__(self, "labels", labels)

    def members(self, cluster: int) -> np.ndarray:
        return np.nonzero(np.asarray(self.labels) == cluster)[0]

    def sizes(self) -> np.ndarray:
        return np.bincount(np.asarray(self.labels), minlength=self.q)


def _laplacian_from_edges(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    lap = np.zeros((n, n))
    lap[u, v] = -w
    lap[v, u] = -w
    lap[np.diag_indices(n)] = np.bincount(
        np.concatenate((u, v)), weights=np.concatenate((w, w)), minlength=n
    )
    return lap


def laplacian(graph: WeightedGraph) -> np.ndarray:
    """L = D - A: symmetric, zero row sums, weighted degrees on the diagonal."""
    return _laplacian_from_edges(graph.n_vertices, graph.u, graph.v, graph.w)


def laplacian_spectrum(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and matching eigenvectors of the Laplacian.

    One dense ``eigh`` per graph: the result is cached on the (immutable)
    graph and its arrays are read-only, shared by every caller.
    """
    spectrum = graph._spectra.get("eigh")
    if spectrum is None:
        vals, vecs = np.linalg.eigh(laplacian(graph))
        vals.setflags(write=False)
        vecs.setflags(write=False)
        spectrum = graph._spectra["eigh"] = (vals, vecs)
    return spectrum


def laplacian_eigenvalues(graph: WeightedGraph) -> np.ndarray:
    """Ascending Laplacian eigenvalues without eigenvectors.

    One dense ``eigvalsh`` per graph, cached and read-only like
    ``laplacian_spectrum``; for callers that need no eigenvectors.
    """
    values = graph._spectra.get("eigvalsh")
    if values is None:
        values = np.linalg.eigvalsh(laplacian(graph))
        values.setflags(write=False)
        graph._spectra["eigvalsh"] = values
    return values


def null_multiplicity(eigenvalues: np.ndarray, tol: float = ZERO_EIGENVALUE_TOL) -> int:
    """Count of (near-)zero Laplacian eigenvalues, clamped at ``tol``."""
    return int(np.sum(np.abs(eigenvalues) <= tol))


def component_labels(n_vertices: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected-component label of every vertex of the graph with edges (u, v).

    Components are numbered 0, 1, ... in order of their smallest vertex.
    Each round hooks every component root onto the smallest root adjacent to
    it, then shortcuts every vertex to its root; roots only decrease, and the
    rounds stop once no edge joins two roots.
    """
    root = np.arange(n_vertices)
    while True:
        ru, rv = root[u], root[v]
        lowest = np.minimum(ru, rv)
        hooked = root.copy()
        np.minimum.at(hooked, ru, lowest)
        np.minimum.at(hooked, rv, lowest)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, root):  # root[x] is the smallest vertex of x's component
            return (np.cumsum(root == np.arange(n_vertices)) - 1)[root]
        root = hooked


def components(graph: WeightedGraph) -> QCut:
    """Connected components as a cut, labeled by smallest contained vertex."""
    labels = component_labels(graph.n_vertices, graph.u, graph.v)
    return QCut(labels=tuple(labels.tolist()), q=int(labels.max()) + 1)


def null_basis(cut: QCut) -> OrthonormalFrame:
    """Normalized cluster-indicator columns (exactly orthonormal)."""
    n = len(cut.labels)
    cols = np.zeros((n, cut.q))
    for j in range(cut.q):
        members = cut.members(j)
        cols[members, j] = 1.0 / np.sqrt(len(members))
    return OrthonormalFrame(cols)


def _check_cluster(cut: QCut, cluster: int):
    if not 0 <= cluster < cut.q or len(cut.members(cluster)) == 0:
        raise EmptyCluster(f"cluster {cluster} is empty or out of range")


def _crossing_edges(cut: QCut, graph: WeightedGraph):
    """The edges joining two clusters: (u, v, w, label of u, label of v)."""
    if len(cut.labels) != graph.n_vertices:
        raise DimensionMismatch("cut and graph disagree on vertex count")
    labels = np.asarray(cut.labels)
    lu, lv = labels[graph.u], labels[graph.v]
    cross = lu != lv
    return graph.u[cross], graph.v[cross], graph.w[cross], lu[cross], lv[cross]


def _external_degrees(cut: QCut, graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Crossing weight at every vertex, in total and split by the far cluster.

    ``ext[x]`` is the weight of x's edges leaving x's own cluster;
    ``into[x, j]`` is the weight of x's edges entering cluster j (zero for
    x's own cluster), so each row of ``into`` sums to ``ext``.
    """
    u, v, w, lu, lv = _crossing_edges(cut, graph)
    n, q = graph.n_vertices, cut.q
    ends, weights = np.concatenate((u, v)), np.concatenate((w, w))
    ext = np.bincount(ends, weights=weights, minlength=n)
    into = np.bincount(
        ends * q + np.concatenate((lv, lu)), weights=weights, minlength=n * q
    ).reshape(n, q)
    return ext, into


def external_degree(vertex: int, cluster: int, cut: QCut, graph: WeightedGraph) -> float:
    """Total weight crossing the cluster boundary at ``vertex``.

    For a vertex inside the cluster this is the weight of its edges leaving
    the cluster; for a vertex outside, the weight of its edges entering it
    (its external degree relative to the complement subgraph).
    """
    _check_cluster(cut, cluster)
    ext, into = _external_degrees(cut, graph)
    if cut.labels[vertex] == cluster:
        return float(ext[vertex])
    return float(into[vertex, cluster])


def couplings(cut: QCut, graph: WeightedGraph) -> np.ndarray:
    """The coupling of every cluster, from the crossing edges alone."""
    ext, into = _external_degrees(cut, graph)
    out_sq = np.bincount(np.asarray(cut.labels), weights=ext**2, minlength=cut.q)
    in_sq = (into**2).sum(axis=0)
    return (out_sq + in_sq) / cut.sizes()


def max_external_degrees(cut: QCut, graph: WeightedGraph) -> np.ndarray:
    """The MED (largest external degree over its own vertices) of every cluster."""
    ext, _ = _external_degrees(cut, graph)
    meds = np.zeros(cut.q)
    np.maximum.at(meds, np.asarray(cut.labels), ext)
    return meds


def coupling(cluster: int, cut: QCut, graph: WeightedGraph) -> float:
    """Size-normalized sum of squared directed external degrees of the cluster."""
    _check_cluster(cut, cluster)
    return float(couplings(cut, graph)[cluster])


def max_external_degree(cluster: int, cut: QCut, graph: WeightedGraph) -> float:
    """Largest external degree over the cluster's own vertices."""
    _check_cluster(cut, cluster)
    return float(max_external_degrees(cut, graph)[cluster])


def coupling_sandwich(cluster: int, cut: QCut, graph: WeightedGraph) -> dict:
    """The coupling value with its elementary lower and upper envelope.

    lower = (2/|V|) sum of squared crossing weights, upper = (2/|V|) times
    the squared sum of crossing weights.
    """
    _check_cluster(cut, cluster)
    _, _, w, lu, lv = _crossing_edges(cut, graph)
    crossing = w[(lu == cluster) | (lv == cluster)]
    size = cut.sizes()[cluster]
    return {
        "lower": float(2.0 * (crossing**2).sum() / size),
        "value": coupling(cluster, cut, graph),
        "upper": float(2.0 * float(crossing.sum()) ** 2 / size),
    }


def _validate_extension(base: WeightedGraph, perturbed: WeightedGraph, cut: QCut):
    """The perturbed graph must equal the base plus inter-cluster edges only.

    Returns the added edges as arrays (u, v, w): Ltilde - L is their Laplacian.
    """
    n = base.n_vertices
    if perturbed.n_vertices != n or len(cut.labels) != n:
        raise DimensionMismatch("graphs and cut disagree on vertex count")
    labels = np.asarray(cut.labels)
    base_keys, pert_keys = base.edge_keys(), perturbed.edge_keys()
    pos = np.searchsorted(pert_keys, base_keys)
    found = pos < len(pert_keys)
    found[found] = pert_keys[pos[found]] == base_keys[found]
    changed = np.zeros_like(found)
    changed[found] = perturbed.w[pos[found]] != base.w[found]
    crossing = labels[base.u] != labels[base.v]
    bad = crossing | ~found | changed
    if bad.any():
        i = int(np.argmax(bad))
        u, v = int(base.u[i]), int(base.v[i])
        if crossing[i]:
            raise NotAnEdgeSuperset(f"base graph has inter-cluster edge ({u},{v})")
        if not found[i]:
            raise NotAnEdgeSuperset(f"perturbed graph lacks base edge ({u},{v})")
        raise NotAnEdgeSuperset(
            f"edge ({u},{v}) changed weight {float(base.w[i])} -> "
            f"{float(perturbed.w[pos[i]])}"
        )
    added = np.ones(len(pert_keys), dtype=bool)
    added[pos] = False
    intra = added & (labels[perturbed.u] == labels[perturbed.v])
    if intra.any():
        i = int(np.argmax(intra))
        raise NotAnEdgeSuperset(
            f"perturbed graph adds intra-cluster edge "
            f"({int(perturbed.u[i])},{int(perturbed.v[i])})"
        )
    return perturbed.u[added], perturbed.v[added], perturbed.w[added]


def residual_identity_check(
    base: WeightedGraph, perturbed: WeightedGraph, cut: QCut
) -> list[dict]:
    """Per cluster: ||(Ltilde - L) u_j||_2^2 against the coupling (exact identity).

    The matvec runs over the added edges, whose Laplacian is Ltilde - L.
    """
    u, v, w = _validate_extension(base, perturbed, cut)
    frame = null_basis(cut).columns
    flow = w[:, None] * (frame[u] - frame[v])
    residual = np.zeros_like(frame)
    np.add.at(residual, u, flow)
    np.add.at(residual, v, -flow)
    lhs_all = (np.abs(residual) ** 2).sum(axis=0)
    rhs_all = couplings(cut, perturbed)
    out = []
    for j in range(cut.q):
        lhs, rhs = float(lhs_all[j]), float(rhs_all[j])
        out.append(
            {"cluster": j, "lhs": lhs, "rhs": rhs,
             "ok": abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)}
        )
    return out


def laplacian_diff_bound_check(
    base: WeightedGraph, perturbed: WeightedGraph, cut: QCut
) -> dict:
    """||Ltilde - L||_2 against twice the largest maximum external degree.

    Ltilde - L is zero outside the rows and columns of the added edges'
    endpoints, so its nonzero eigenvalues are those of that block.
    """
    u, v, w = _validate_extension(base, perturbed, cut)
    op_norm = 0.0
    if len(w):
        ends, local = np.unique(np.concatenate((u, v)), return_inverse=True)
        block = _laplacian_from_edges(len(ends), local[: len(u)], local[len(u):], w)
        op_norm = float(np.max(np.abs(np.linalg.eigvalsh(block))))
    bound = 2.0 * float(max_external_degrees(cut, perturbed).max())
    return {"op_norm": op_norm, "bound": bound, "ok": op_norm <= bound + 1e-10}


def _nullspace_lhs(perturbed: WeightedGraph, cut: QCut) -> tuple[float, np.ndarray]:
    vals, vecs = laplacian_spectrum(perturbed)
    low = OrthonormalFrame(vecs[:, : cut.q])
    return dsp_projector(null_basis(cut), low), vals


def _edge_digest(graph: WeightedGraph, cut: QCut) -> str:
    return _digest(np.column_stack((graph.u, graph.v, graph.w)), cut.labels)


def nullspace_bound_known_perturbed(
    base: WeightedGraph, perturbed: WeightedGraph, cut: QCut
) -> BoundReport:
    """Null-space movement bound using the perturbed Laplacian's spectral gap.

    Bounds d_sp(cluster indicators, span of the q lowest perturbed
    eigenvectors) by sqrt(mean coupling) / lambda'_{q+1}. Raises ZeroGap when
    that eigenvalue vanishes (is at most ZERO_EIGENVALUE_TOL).
    """
    _validate_extension(base, perturbed, cut)
    q = cut.q
    lhs, vals = _nullspace_lhs(perturbed, cut)
    gap = float(vals[q])
    if gap <= ZERO_EIGENVALUE_TOL:
        raise ZeroGap(f"perturbed Laplacian eigenvalue {q + 1} is {gap:.3e}")
    mean_coupling = float(np.mean(couplings(cut, perturbed)))
    value = float(np.sqrt(mean_coupling) / gap)
    entry = _entry(
        "nullspace_known_perturbed",
        value,
        ok=True,
        digest=_edge_digest(perturbed, cut),
        perturbed_gap=gap,
        mean_coupling=mean_coupling,
    )
    a_tilde = IndexPartition(len(cut.labels), tuple(range(q)))
    return BoundReport(lhs_dsp=lhs, bounds=(entry,), chosen_a_tilde=a_tilde)


def nullspace_bound_known_base(
    base: WeightedGraph, perturbed: WeightedGraph, cut: QCut
) -> BoundReport:
    """Null-space movement bounds using only the base Laplacian's spectral gap.

    Requires max MED < lambda_{q+1} / 4, where a lambda_{q+1} at most
    ZERO_EIGENVALUE_TOL counts as zero (raises MedConditionViolated with the
    margin otherwise); then the q lowest perturbed eigenvectors are the
    nearest-group identification, and both the coupling form and the coarser
    pure-MED form bound the movement.
    """
    _validate_extension(base, perturbed, cut)
    q = cut.q
    gap = float(laplacian_eigenvalues(base)[q])
    if gap <= ZERO_EIGENVALUE_TOL:  # the base has more than q components
        gap = 0.0
    max_med = float(max_external_degrees(cut, perturbed).max())
    if not max_med < gap / 4.0:
        raise MedConditionViolated(
            f"max MED {max_med:.6g} not below lambda_(q+1)/4 = {gap / 4.0:.6g}",
            margin=gap / 4.0 - max_med,
        )
    lhs, _ = _nullspace_lhs(perturbed, cut)
    mean_coupling = float(np.mean(couplings(cut, perturbed)))
    denom = gap - 2.0 * max_med
    fine = float(np.sqrt(mean_coupling) / denom)
    coarse = float(2.0 * max_med / denom)
    digest = _edge_digest(perturbed, cut)
    detail = {"base_gap": gap, "max_med": max_med, "mean_coupling": mean_coupling}
    entries = (
        _entry("nullspace_known_base_fine", fine, ok=True, digest=digest, **detail),
        _entry("nullspace_known_base_coarse", coarse, ok=True, digest=digest, **detail),
    )
    a_tilde = IndexPartition(len(cut.labels), tuple(range(q)))
    return BoundReport(lhs_dsp=lhs, bounds=entries, chosen_a_tilde=a_tilde)


def total_coupling(cut: QCut, graph: WeightedGraph) -> float:
    return float(couplings(cut, graph).sum())


def _stirling2(n: int, q: int) -> int:
    table = [[0] * (q + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for k in range(1, min(i, q) + 1):
            table[i][k] = k * table[i - 1][k] + table[i - 1][k - 1]
    return table[n][q]


def _iter_q_partitions(n: int, q: int):
    """Restricted-growth label vectors with exactly q blocks, lexicographic."""
    labels = [0] * n

    def rec(i: int, used: int):
        if n - i < q - used:
            return
        if i == n:
            if used == q:
                yield tuple(labels)
            return
        top = min(used + 1, q)
        for v in range(top):
            labels[i] = v
            yield from rec(i + 1, used + (1 if v == used else 0))

    yield from rec(0, 0)


def _canonical_labels(labels) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    out = []
    for x in labels:
        if x not in relabel:
            relabel[x] = len(relabel)
        out.append(relabel[x])
    return tuple(out)


def _kmeans(points: np.ndarray, q: int, rng: np.random.Generator,
            iters: int = 60) -> np.ndarray:
    """Small deterministic Lloyd's loop with k-means++ style seeding."""
    n = points.shape[0]
    centers = np.empty((q, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    for k in range(1, q):
        d2 = np.min(
            ((points[:, None, :] - centers[None, :k, :]) ** 2).sum(axis=2), axis=1
        )
        total = d2.sum()
        if total <= 0:
            centers[k] = points[int(rng.integers(n))]
            continue
        centers[k] = points[int(rng.choice(n, p=d2 / total))]
    labels = np.zeros(n, dtype=int)
    for _ in range(iters):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for k in range(q):  # keep every cluster populated
            if not np.any(new_labels == k):
                counts = np.bincount(new_labels, minlength=q)
                eligible = np.nonzero(counts[new_labels] > 1)[0]
                far = int(eligible[np.argmax(d2[eligible, new_labels[eligible]])])
                new_labels[far] = k
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for k in range(q):
            centers[k] = points[labels == k].mean(axis=0)
    return labels


def best_q_cut(
    graph: WeightedGraph,
    q: int,
    mode: str = "exact",
    limit: int = 100_000,
    seed: int = 0,
) -> tuple[QCut, float]:
    """Cut the graph into q clusters minimizing the total coupling.

    ``exact`` enumerates every q-block set partition (count bounded by
    ``limit``; ties broken by the canonical label vector, so the result is
    deterministic). ``heuristic`` embeds vertices with the q lowest Laplacian
    eigenvectors and runs a seeded k-means; its output is reproducible for a
    fixed seed but carries no optimality guarantee.
    """
    n = graph.n_vertices
    if not 1 <= q <= n:
        raise ValueError(f"need 1 <= q <= {n}")
    if mode == "exact":
        count = _stirling2(n, q)
        if count > limit:
            raise SearchSpaceTooLarge(
                f"S({n},{q}) = {count} q-partitions exceeds the limit {limit}"
            )
        best_cut, best_value = None, math.inf
        for labels in _iter_q_partitions(n, q):
            cut = QCut(labels=labels, q=q)
            value = total_coupling(cut, graph)
            if value < best_value:  # first hit in lex order wins ties
                best_cut, best_value = cut, value
        return best_cut, best_value
    if mode != "heuristic":
        raise ValueError(f"unknown mode {mode!r}")
    _, vecs = laplacian_spectrum(graph)
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = _kmeans(vecs[:, :q], q, rng)
    cut = QCut(labels=_canonical_labels(labels), q=q)
    return cut, total_coupling(cut, graph)


def align_basis(base_frame: OrthonormalFrame, target_frame: OrthonormalFrame) -> OrthonormalFrame:
    """Rotate a basis of one subspace to best match another frame (Procrustes).

    Computes R = base^+ target (the pseudoinverse of a column-orthonormal
    frame is its conjugate transpose), replaces it by the nearest unitary
    via SVD, and returns base @ R'. The output spans exactly the same
    subspace as ``base_frame``.
    """
    if base_frame.n != target_frame.n or base_frame.q != target_frame.q:
        raise DimensionMismatch(
            f"frames must share (n, q); got ({base_frame.n}, {base_frame.q}) "
            f"and ({target_frame.n}, {target_frame.q})"
        )
    r = base_frame.columns.conj().T @ target_frame.columns
    v, _, wh = np.linalg.svd(r)
    return OrthonormalFrame(base_frame.columns @ (v @ wh))
