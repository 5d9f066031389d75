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

A graph keeps its edges as numpy arrays, and a cut its labels as the one
read-only array that kernels read (``QCut.label_array``, validated once);
every per-cluster quantity is computed for all clusters at once from the
crossing edges. Only the part of a Laplacian spectrum that is read gets
computed (see ``spectra``), once per graph; a Laplacian that no edge crosses
a labelling of (clusters, components) is solved block by block, from
``_block_laplacians``. A :class:`GraphPerturbation` holds one (base,
perturbed, cut) triple, validated once, and what the checks and null-space
bounds read off it; it is their only input. :func:`graph_report` is the one
place where the checks of a triple are assembled: it returns them, with the
null-space bounds and each check's verdict, as one :class:`GraphReport`,
which ``reproduce`` and ``graph audit`` both render, and on whose verdicts
both exit. The residual identity is an agreement, decided by
``slack.agrees`` at the largest coupling; every other check is an
inequality decided by ``slack.holds(lhs, value)``, under one evaluation
rule: a check whose value is not finite is not evaluated, the chain
(fine <= coarse), which compares two bound values, only where both are
finite, and a finite value against a NaN or inf lhs fails. (A coupling,
sandwich envelope or MED is never NaN, and ``holds`` takes an inf value as
holding every lhs that is not NaN.) Both read only the ``HOLDS_*`` slack, and
every zero test of a Laplacian eigenvalue is ``spectra.zero_eigenvalues``,
relative to the degrees, so no decision depends on the weights' scale. A
perturbed degree past the float range leaves the perturbed spectrum NaN, and
with it lhs_dsp and both null-space bounds, which are then not evaluated.

Vertices are 0-based contiguous integers; cluster labels are 0-based as well.
Laplacian eigenvalues are sorted ascending throughout this module.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCluster,
    InvalidConfig,
    MedConditionViolated,
    MissingEigenvalue,
    NotAnEdgeSuperset,
    SearchSpaceTooLarge,
    ZeroGap,
)
from .bounds import BoundReport, BoundTable, IndexPartition
from .slack import agrees, holds
from .spectral import Digest
from .subspace import IndicatorFrame, OrthonormalFrame, dsp_residual, integral

# The most vertices a graph may have: floor(sqrt(2**63 - 1)), so that the
# key u * n + v of every vertex pair fits in an int64.
MAX_VERTICES = math.isqrt(2**63 - 1)


def _reject_first(mask: np.ndarray, message: str, u, v, w) -> None:
    """Raise ValueError for the first edge flagged in ``mask``."""
    if mask.any():
        i = int(np.argmax(mask))
        raise ValueError(message.format(u=int(u[i]), v=int(v[i]), w=float(w[i])))


class WeightedGraph:
    """Undirected simple graph with strictly positive, finite edge weights.

    Edges are normalized to (u, v, w) with u < v, sorted (input already in
    that order, without repeats, is kept as it is), and validated: no
    self-loops, no duplicates, all endpoints in range, no NaN or infinite
    weights. They are kept as the read-only arrays ``u``, ``v`` (int64) and
    ``w`` (float64); the ``edges`` tuple of (u, v, w) triples is built from
    them when first read. Two graphs are equal when they have the same
    vertex count and the same normalized edges. Instances are immutable.
    The vertex count is at most ``MAX_VERTICES``.

    ``WeightedGraph(n, edges)`` takes (u, v, w) triples and
    ``WeightedGraph.from_arrays(n, u, v, w)`` takes the three columns; both
    run the same validation, ``__post_init__``.
    """

    def __init__(self, n_vertices: int, edges: tuple[tuple[int, int, float], ...]):
        try:
            arr = np.asarray(edges, dtype=float)
        except ValueError as exc:
            raise ValueError("edges must be (u, v, w) triples") from exc
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("edges must be (u, v, w) triples")
        self.__post_init__(n_vertices, arr[:, 0], arr[:, 1], arr[:, 2])

    @classmethod
    def from_arrays(cls, n_vertices: int, u, v, w) -> WeightedGraph:
        """The graph whose i-th edge is (u[i], v[i], w[i])."""
        graph = cls.__new__(cls)
        graph.__post_init__(n_vertices, u, v, w)
        return graph

    def __post_init__(self, n_vertices: int, u, v, w) -> None:
        n = n_vertices
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if n > MAX_VERTICES:
            raise ValueError(f"graph has {n} vertices, more than {MAX_VERTICES}")
        a, b, w = np.asarray(u), np.asarray(v), np.asarray(w, dtype=float)
        if not (a.ndim == b.ndim == w.ndim == 1 and len(a) == len(b) == len(w)):
            raise ValueError("edges must be (u, v, w) triples")
        if not (np.isfinite(a).all() and np.isfinite(b).all() and integral(a) and integral(b)):
            raise ValueError("edge endpoints must be finite integers")
        a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
        _reject_first(a == b, "self-loop at vertex {u}", a, b, w)
        out_of_range = (a < 0) | (a >= n) | (b < 0) | (b >= n)
        _reject_first(out_of_range, "edge ({u},{v}) out of range", a, b, w)
        _reject_first(~np.isfinite(w), "edge ({u},{v}) has non-finite weight {w}", a, b, w)
        _reject_first(w <= 0, "edge ({u},{v}) has non-positive weight {w}", a, b, w)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = lo * n + hi
        if (keys[1:] > keys[:-1]).all():  # in order already, and without repeats
            w = w.copy()
        else:
            order = np.argsort(keys, kind="stable")
            lo, hi, w = lo[order], hi[order], w[order]
            repeated = np.zeros(len(lo), dtype=bool)
            repeated[1:] = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
            _reject_first(repeated, "duplicate edge ({u},{v})", lo, hi, w)
        for values in (lo, hi, w):
            values.setflags(write=False)
        fields = {"n_vertices": n, "u": lo, "v": hi, "w": w, "_edges": None, "_spectra": {}}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        if self._edges is None:
            edges = tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))
            object.__setattr__(self, "_edges", edges)
        return self._edges

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n_vertices == other.n_vertices and all(
            np.array_equal(mine, theirs)
            for mine, theirs in ((self.u, other.u), (self.v, other.v), (self.w, other.w))
        )

    def __hash__(self):
        return hash((self.n_vertices, self.u.tobytes(), self.v.tobytes(), self.w.tobytes()))

    def __repr__(self):
        return f"WeightedGraph(n_vertices={self.n_vertices}, n_edges={len(self.w)})"

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n_vertices, self.n_vertices))
        adj[self.u, self.v] = self.w
        adj[self.v, self.u] = self.w
        return adj

    def edge_keys(self) -> np.ndarray:
        """``u * n_vertices + v`` per edge; ascending, since edges are sorted."""
        return self.u * self.n_vertices + self.v


@dataclass(frozen=True)
class QCut:
    """Assignment of every vertex to one of q non-empty clusters, by integer labels.

    They are validated once into ``label_array``, the read-only int64 array that
    kernels read; ``labels``, its tuple of ints, is what ==, hash, repr and digests read.
    """

    labels: tuple[int, ...]
    q: int
    label_array: np.ndarray = field(init=False, repr=False, compare=False)
    _sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("need at least one cluster")
        labels = np.asarray(self.labels)
        if labels.dtype == object and all(isinstance(x, int) for x in labels.tolist()):
            raise ValueError(f"labels must lie in [0, {self.q})")  # Python ints past 64 bits
        if labels.ndim != 1 or not integral(labels):
            raise ValueError("labels must be integers")
        if ((labels < 0) | (labels >= self.q)).any():  # checked before the cast to int64
            raise ValueError(f"labels must lie in [0, {self.q})")
        labels = labels.astype(np.int64)
        if len(labels) < self.q or not (sizes := np.bincount(labels, minlength=self.q)).all():
            raise ValueError("every cluster must be non-empty")
        object.__setattr__(self, "labels", tuple(labels.tolist()))
        object.__setattr__(self, "label_array", _read_only(labels)[0])
        object.__setattr__(self, "_sizes", _read_only(sizes)[0])

    def members(self, cluster: int) -> np.ndarray:
        return np.nonzero(self.label_array == cluster)[0]

    def sizes(self) -> np.ndarray:
        return self._sizes


def _degrees(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # a degree past the float range is inf, without a warning
        return np.bincount(u, weights=w, minlength=n) + np.bincount(v, weights=w, minlength=n)


def _laplacian_from_edges(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    lap = np.zeros((n, n))
    lap[u, v] = -w
    lap[v, u] = -w
    lap[np.diag_indices(n)] = _degrees(n, u, v, w)
    return lap


def laplacian(graph: WeightedGraph) -> np.ndarray:
    """L = D - A: symmetric, zero row sums, weighted degrees on the diagonal."""
    return _laplacian_from_edges(graph.n_vertices, graph.u, graph.v, graph.w)


def _require_eigenvalue(n_vertices: int, k: int) -> None:
    if k < 1:
        raise ValueError("need k >= 1 eigenpairs")
    if k > n_vertices:
        raise MissingEigenvalue(
            f"a {n_vertices}-vertex Laplacian has no eigenvalue {k} "
            f"(lambda_(q+1) needs fewer clusters q than vertices)"
        )


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


def laplacian_spectrum(graph: WeightedGraph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest Laplacian eigenvalues (ascending) and their eigenvectors.

    Computed by ``spectra.lowest_eigenpairs``, once per (graph, k); the
    arrays are read-only, shared by every caller. Raises ValueError for
    k < 1 and MissingEigenvalue for k > n.
    """
    _require_eigenvalue(graph.n_vertices, k)
    if k not in graph._spectra:
        from .spectra import lowest_eigenpairs

        graph._spectra[k] = _read_only(*lowest_eigenpairs(graph, k))
    return graph._spectra[k]


def laplacian_eigenvalues(graph: WeightedGraph) -> np.ndarray:
    """All Laplacian eigenvalues, ascending, without eigenvectors.

    Computed by ``component_eigenvalues``, once per graph; the array is
    read-only.
    """
    if "all" not in graph._spectra:
        (graph._spectra["all"],) = _read_only(component_eigenvalues(graph))
    return graph._spectra["all"]


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


def degree_certifies_connected(n_vertices: int, u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the minimum degree alone shows the graph with edges (u, v) connected.

    It does when 2 * min degree >= n - 1: two non-adjacent vertices then have
    at least n - 1 neighbours between them among the other n - 2 vertices,
    so they share one. A False says nothing; :func:`component_labels` decides.
    """
    degrees = np.bincount(np.concatenate((u, v)), minlength=n_vertices)
    return 2 * int(degrees.min()) >= n_vertices - 1


def _class_order(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per label class its size; the vertices by class, stably; each vertex's index in its class."""
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    local = np.empty(len(labels), dtype=np.int64)
    local[order] = np.arange(len(labels)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return sizes, order, local


def _block_laplacians(n: int, u, v, w, labels: np.ndarray, degrees: np.ndarray | None = None):
    """The diagonal blocks of the Laplacian of edges (u, v, w), no edge crossing ``labels``.

    Yields, per class size s in ascending order, the classes of that size in
    label order, their vertices (count, s) and their blocks as one (count, s, s)
    stack. The blocks lie one after another in one buffer, filled by one
    scatter of the edges and one degree pass over the graph, so each is bit
    for bit the Laplacian that ``_laplacian_from_edges`` builds from its
    class's edges alone (a vertex's degree sums its edges in the same order).
    ``degrees``, when given, is that degree pass's result.
    """
    by_size = np.argsort(np.bincount(labels), kind="stable")
    ranks = np.argsort(by_size)[labels]  # each vertex's class, by its place in by_size
    sizes, order, local = _class_order(ranks)  # the classes by size, label order within one
    ends = np.cumsum(sizes * sizes)
    starts = ends - sizes * sizes
    row = starts[ranks] + local * sizes[ranks]  # each vertex's row of its block
    blocks = np.zeros(ends[-1])
    blocks[row[u] + local[v]] = blocks[row[v] + local[u]] = -w
    blocks[row + local] = _degrees(n, u, v, w) if degrees is None else degrees
    vertex_ends = np.cumsum(sizes)
    first = np.flatnonzero(np.diff(sizes, prepend=0))  # each size's first class
    for lo, hi in zip(first.tolist(), [*first[1:].tolist(), len(sizes)]):
        size = int(sizes[lo])
        yield (by_size[lo:hi],
               order[vertex_ends[lo] - size:vertex_ends[hi - 1]].reshape(-1, size),
               blocks[starts[lo]:ends[hi - 1]].reshape(-1, size, size))


def component_eigenvalues(graph: WeightedGraph) -> np.ndarray:
    """All Laplacian eigenvalues, ascending: the union of the components' spectra.

    The blocks come from ``_block_laplacians`` over the connected components,
    one ``eigvalsh`` per stack of components of one size (an isolated
    vertex's block is [[0.]], whose eigenvalue is 0). Where a degree passes
    the float range, the spectrum of the Laplacian of w / 2^e, with 2^e the
    largest power of two at most the largest weight, is taken instead and
    multiplied back, so the eigenvalues past the float range come out inf.
    """
    n, u, v, w = graph.n_vertices, graph.u, graph.v, graph.w
    scale = 1.0
    if len(w) and not np.isfinite(_degrees(n, u, v, w)).all():
        scale = 2.0 ** (math.frexp(float(w.max()))[1] - 1)
        w = w / scale
    stacks = _block_laplacians(n, u, v, w, component_labels(n, u, v))
    values = np.sort(np.concatenate([np.linalg.eigvalsh(stack).ravel() for *_, stack in stacks]))
    with np.errstate(over="ignore"):
        return values * scale


def components(graph: WeightedGraph) -> QCut:
    """Connected components as a cut, labeled by smallest contained vertex."""
    labels = component_labels(graph.n_vertices, graph.u, graph.v)
    return QCut(labels=labels, q=int(labels.max()) + 1)


def null_basis(cut: QCut) -> IndicatorFrame:
    """Normalized cluster-indicator columns (exactly orthonormal), labelled by the cut."""
    return IndicatorFrame(cut.label_array, cut.q)


def _check_cluster(cut: QCut, cluster: int):
    if not 0 <= cluster < cut.q:
        raise EmptyCluster(f"cluster {cluster} is empty or out of range")


def _crossing_edges(cut: QCut, graph: WeightedGraph):
    """The edges joining two clusters: (u, v, w, label of u, label of v)."""
    if len(cut.labels) != graph.n_vertices:
        raise DimensionMismatch("cut and graph disagree on vertex count")
    lu, lv = cut.label_array[graph.u], cut.label_array[graph.v]
    cross = lu != lv
    return graph.u[cross], graph.v[cross], graph.w[cross], lu[cross], lv[cross]


def coupling_tables(labels: np.ndarray, q: int, u, v, w):
    """External-degree tables and couplings of a block of q-cuts, one cut per row.

    ``labels`` is (count, n); (u, v, w) are all the graph's edges or any
    subset holding the crossing ones, since an edge whose ends share a label
    adds exactly 0.0. Returns ``ext`` (count, n), the weight of each vertex's
    edges leaving its cluster; ``into`` (count, n, q), the weight of its
    edges entering cluster j (zero for its own), so ``into`` sums to ``ext``
    over j; and the couplings (count, q). A cut's sums run in one order (u
    ends, then v ends; vertices ascending) whatever block it is in.
    """
    count, n = labels.shape
    # One column per edge end, u ends then v ends. A block's temporaries are
    # kept few and freed early: when the memory live at once grows past the
    # allocator's trim threshold, every block returns it to the system and
    # page-faults it back, a cost that varies from one process to the next.
    ends = np.concatenate((u, v))
    far = labels[:, np.concatenate((v, u))]
    weights = np.where(labels[:, ends] != far, np.concatenate((w, w)), 0.0).ravel()
    index = (np.arange(0, count * n, n)[:, None] + ends).ravel()
    ext = np.bincount(index, weights=weights, minlength=count * n)
    index *= q  # the ``into`` index, built in place
    index += far.ravel()
    into = np.bincount(index, weights=weights, minlength=count * n * q).reshape(count, n, q)
    del far, weights, index
    row = np.arange(count)[:, None]
    own = (row * q + labels).ravel()
    sizes = np.bincount(own, minlength=count * q)
    with np.errstate(over="ignore"):  # a square or sum past the float range gives an inf coupling
        ext_sq, into_sq = ext**2, into**2
        out_sq = np.bincount(own, weights=ext_sq, minlength=count * q)
        in_sq = into_sq.sum(axis=1).ravel()
        return ext.reshape(count, n), into, ((out_sq + in_sq) / sizes).reshape(count, q)


def _one_cut_tables(cut: QCut, u, v, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`coupling_tables` of one cut: its ext (n,), into (n, q) and couplings (q,)."""
    ext, into, couplings = coupling_tables(cut.label_array[None], cut.q, u, v, w)
    return ext[0], into[0], couplings[0]


def _cut_tables(cut: QCut, graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_one_cut_tables` over the graph's crossing edges."""
    u, v, w, _, _ = _crossing_edges(cut, graph)
    return _one_cut_tables(cut, u, v, w)


def external_degree(vertex: int, cluster: int, cut: QCut, graph: WeightedGraph) -> float:
    """Total weight crossing the cluster boundary at ``vertex``.

    For a vertex inside the cluster this is the weight of its edges leaving
    the cluster; for a vertex outside, the weight of its edges entering it
    (its external degree relative to the complement subgraph).
    """
    _check_cluster(cut, cluster)
    if not 0 <= vertex < graph.n_vertices:
        raise InvalidConfig(f"vertex {vertex} is outside 0..{graph.n_vertices - 1}")
    ext, into, _ = _cut_tables(cut, graph)
    if cut.labels[vertex] == cluster:
        return float(ext[vertex])
    return float(into[vertex, cluster])


def _max_external_degrees(cut: QCut, ext: np.ndarray) -> np.ndarray:
    meds = np.zeros(cut.q)
    np.maximum.at(meds, cut.label_array, ext)
    return meds


def couplings(cut: QCut, graph: WeightedGraph) -> np.ndarray:
    """The coupling of every cluster, from the crossing edges alone."""
    return _cut_tables(cut, graph)[2]


def max_external_degrees(cut: QCut, graph: WeightedGraph) -> np.ndarray:
    """The MED (largest external degree over its own vertices) of every cluster."""
    return _max_external_degrees(cut, _cut_tables(cut, graph)[0])


def cluster_table(cut: QCut, graph: WeightedGraph) -> dict[str, np.ndarray]:
    """Size, total external degree, coupling and MED of every cluster.

    All four columns come from one pass over the crossing edges.
    """
    ext, _, coupling_values = _cut_tables(cut, graph)
    return _cluster_table(cut, ext, coupling_values, _max_external_degrees(cut, ext))


def _cluster_table(cut: QCut, ext, coupling_values, meds) -> dict:
    """:func:`cluster_table` from the cut's external degrees, couplings and MEDs."""
    return {
        "size": cut.sizes(),
        "total_external_degree": np.bincount(cut.label_array, weights=ext, minlength=cut.q),
        "coupling": coupling_values,
        "med": meds,
    }


def coupling(cluster: int, cut: QCut, graph: WeightedGraph) -> float:
    """Size-normalized sum of squared directed external degrees of the cluster."""
    _check_cluster(cut, cluster)
    return float(couplings(cut, graph)[cluster])


def max_external_degree(cluster: int, cut: QCut, graph: WeightedGraph) -> float:
    """Largest external degree over the cluster's own vertices."""
    _check_cluster(cut, cluster)
    return float(max_external_degrees(cut, graph)[cluster])


def coupling_sandwiches(cut: QCut, graph: WeightedGraph) -> dict[str, np.ndarray]:
    """Every cluster's coupling value with its elementary lower and upper envelope.

    lower = (2/|V|) sum of squared crossing weights, upper = (2/|V|) times
    the squared sum of crossing weights, over the edges with one end in the
    cluster. One pass files each crossing edge under both of its clusters, in
    edge order, so each sum adds the weights in the order the edges have.
    """
    u, v, w, lu, lv = _crossing_edges(cut, graph)
    return _sandwiches(cut, w, lu, lv, _one_cut_tables(cut, u, v, w)[2])


def _sandwiches(cut: QCut, w, lu, lv, coupling_values: np.ndarray) -> dict[str, np.ndarray]:
    """:func:`coupling_sandwiches` of crossing edges of weights w and end labels (lu, lv)."""
    ends = np.column_stack((lu, lv)).ravel()  # edge i at positions 2i and 2i + 1
    order = np.argsort(ends, kind="stable")
    per_cluster = np.split(np.repeat(w, 2)[order], np.searchsorted(ends[order], range(1, cut.q)))
    sizes = cut.sizes()
    with np.errstate(over="ignore"):  # a weight whose square overflows gives inf envelopes
        return {
            "lower": 2.0 * np.array([(x**2).sum() for x in per_cluster]) / sizes,
            "value": coupling_values,
            "upper": 2.0 * np.array([x.sum() for x in per_cluster]) ** 2 / sizes,
        }


def coupling_sandwich(cluster: int, cut: QCut, graph: WeightedGraph) -> dict:
    """One cluster's entries of :func:`coupling_sandwiches`."""
    _check_cluster(cut, cluster)
    table = coupling_sandwiches(cut, graph)
    return {key: float(column[cluster]) for key, column in table.items()}


def _validate_extension(base: WeightedGraph, perturbed: WeightedGraph, cut: QCut):
    """The perturbed graph must equal the base plus inter-cluster edges only.

    That holds exactly when the base has no inter-cluster edge and the
    perturbed graph's intra-cluster edges, in key order, are the base's
    edges with their weights. Then the added edges are the perturbed graph's
    inter-cluster ones; they are returned as arrays (u, v, w), and Ltilde - L
    is their Laplacian. Otherwise NotAnEdgeSuperset names the first
    offending edge (see :func:`_extension_fault`).
    """
    n = base.n_vertices
    if perturbed.n_vertices != n or len(cut.labels) != n:
        raise DimensionMismatch("graphs and cut disagree on vertex count")
    labels = cut.label_array
    intra = labels[perturbed.u] == labels[perturbed.v]
    if (
        np.count_nonzero(intra) == len(base.w)
        and np.array_equal(labels[base.u], labels[base.v])
        and all(np.array_equal(theirs[intra], mine) for theirs, mine in
                ((perturbed.u, base.u), (perturbed.v, base.v), (perturbed.w, base.w)))
    ):
        added = ~intra
        return perturbed.u[added], perturbed.v[added], perturbed.w[added]
    raise NotAnEdgeSuperset(_extension_fault(base, perturbed, labels))


def _extension_fault(base: WeightedGraph, perturbed: WeightedGraph, labels: np.ndarray) -> str:
    """Why ``perturbed`` is not ``base`` plus inter-cluster edges, by its first offending edge.

    The base edges come first, in key order: an inter-cluster one, one the
    perturbed graph lacks, or one whose weight changed. Then the first added
    edge within a cluster. Each base edge is looked up in the perturbed
    graph's keys by binary search.
    """
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
            return f"base graph has inter-cluster edge ({u},{v})"
        if not found[i]:
            return f"perturbed graph lacks base edge ({u},{v})"
        return f"edge ({u},{v}) changed weight {float(base.w[i])} -> {float(perturbed.w[pos[i]])}"
    added = np.ones(len(pert_keys), dtype=bool)
    added[pos] = False
    i = int(np.argmax(added & (labels[perturbed.u] == labels[perturbed.v])))
    return f"perturbed graph adds intra-cluster edge ({int(perturbed.u[i])},{int(perturbed.v[i])})"


class LoadStack(NamedTuple):
    """The loads of the clusters that added edges touch, padded to one stack.

    One slot b per touched cluster, in label order; its eigenvectors z_i
    and its added edges' ends are padded to the largest such cluster's size
    (``width``) and end count (``depth``). With E the incidence matrix of
    the m added edges, ``loads[b, d, i]`` = (E^T z_i)[ends[b, d]], the
    entry of z_i at that edge's end in the cluster, negated at the edge's v
    end. ``rows[b, i]`` is z_i's row in the base's eigenbasis, which lists
    every cluster's eigenvectors in label order, and ``values[b, i]`` its
    eigenvalue; ``valid`` marks the real columns. A padded column has zero
    loads, row n and value 0; a padded end has zero loads and edge m.
    """

    values: np.ndarray  # (blocks, width)
    loads: np.ndarray  # (blocks, depth, width)
    rows: np.ndarray  # (blocks, width)
    ends: np.ndarray  # (blocks, depth)
    valid: np.ndarray  # (blocks, width) bool


@dataclass(frozen=True, eq=False)
class GraphPerturbation:
    """One (base, perturbed, cut) triple of the graph application and what is read off it.

    The perturbed graph must be the base plus inter-cluster edges; that is
    checked once, here, in one pass over the edge arrays (NotAnEdgeSuperset
    otherwise), and ``added`` keeps those edges as arrays (u, v, w). So
    Ltilde = L + E C E^T, with E the incidence matrix of the m added edges,
    C = diag(w), and L block diagonal over the clusters. A base whose weighted
    degree passes the float range is refused here too (InvalidConfig), as its
    spectrum would be NaN. Build it once per triple and pass it to
    :func:`graph_report`, or to the checks and null-space bounds. Every other
    quantity is computed on its first read and then shared: the
    external-degree tables, couplings, MEDs and cluster table; the perturbed
    spectrum, per k; the cluster indicators as an :class:`IndicatorFrame` and
    the q lowest perturbed eigenvectors as a real frame, each built and
    checked once; the digest, hashed only when an entry's digest is read; and
    every cluster's eigenpairs in the base, from one dense ``eigh`` per stack
    of clusters of one size. Those eigenpairs give the base
    spectrum; they are the eigenbasis Q in which the perturbed spectrum is
    solved, since Q^T Ltilde Q = D + Z C Z^T with D diagonal and Z = Q^T E
    nonzero only on the touched clusters' rows, by numpy alone (see
    ``spectra._eigenbasis_lowest``); and they give the low-rank count that
    checks that solve. So a triple loads no scipy module unless that count
    rejects the eigenbasis result, or the solve fails, and the perturbed
    graph is solved as a standalone one.
    """

    base: WeightedGraph
    perturbed: WeightedGraph
    cut: QCut
    added: tuple = field(init=False, repr=False)
    _spectra: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        added = _validate_extension(self.base, self.perturbed, self.cut)
        object.__setattr__(self, "added", _read_only(*added))
        overflow = ~np.isfinite(self._base_degrees)
        if overflow.any():
            raise InvalidConfig(f"the base graph's weighted degree at vertex "
                                f"{int(np.argmax(overflow))} overflows the float range")

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the added edges are the perturbed graph's crossing ones, in its edge order
        return _one_cut_tables(self.cut, *self.added)

    @cached_property
    def couplings(self) -> np.ndarray:
        """``couplings(cut, perturbed)``, bit for bit: the same kernel over the same edges."""
        return _read_only(self._tables[2])[0]

    @cached_property
    def meds(self) -> np.ndarray:
        """``max_external_degrees(cut, perturbed)``, bit for bit."""
        return _read_only(_max_external_degrees(self.cut, self._tables[0]))[0]

    @cached_property
    def cluster_table(self) -> dict[str, np.ndarray]:
        """``cluster_table(cut, perturbed)``, bit for bit, from the context's tables and MEDs."""
        return _cluster_table(self.cut, self._tables[0], self.couplings, self.meds)

    @cached_property
    def lazy_digest(self) -> Digest:
        """A hash of the perturbed graph's (u, v, w) rows and the cut's labels."""
        graph = self.perturbed
        return Digest(partial(np.column_stack, (graph.u, graph.v, graph.w)), self.cut.labels)

    @property
    def digest(self) -> str:
        """``lazy_digest`` as a string."""
        return str(self.lazy_digest)

    @cached_property
    def null_frame(self) -> IndicatorFrame:
        """``null_basis(cut)``."""
        return null_basis(self.cut)

    @cached_property
    def _base_degrees(self) -> np.ndarray:
        """The base graph's weighted degrees."""
        return _degrees(self.base.n_vertices, self.base.u, self.base.v, self.base.w)

    @cached_property
    def _perturbed_degrees(self) -> np.ndarray:
        """The perturbed graph's weighted degrees: the base's plus each vertex's external degree.

        Equal to ``_degrees`` of the perturbed graph up to the order in which
        a vertex's edge weights are added (exactly equal for integer weights).
        """
        with np.errstate(over="ignore"):  # a degree past the float range is inf, without a warning
            return _read_only(self._base_degrees + self._tables[0])[0]

    @cached_property
    def _perturbed_overflows(self) -> bool:
        """Whether a perturbed degree passes the float range (see ``spectra.perturbed_eigenpairs``)."""
        return not np.isfinite(self._perturbed_degrees).all()

    @cached_property
    def _cluster_eigh(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(vertices, eigenvalues, eigenvectors) of every cluster's block of L, in label order.

        The blocks come from ``_block_laplacians`` (the base has no crossing
        edge), one ``eigh`` per stack of clusters of one size.
        """
        base = self.base
        eigh = [None] * self.cut.q
        for clusters, members, stack in _block_laplacians(
            base.n_vertices, base.u, base.v, base.w, self.cut.label_array, self._base_degrees,
        ):
            vals, vecs = np.linalg.eigh(stack)
            for c, pair in zip(clusters.tolist(), zip(members, vals, vecs)):
                eigh[c] = pair
        return eigh

    @cached_property
    def base_values(self) -> np.ndarray:
        """Every eigenvalue of the base Laplacian, ascending: the union of the clusters'."""
        return _read_only(np.sort(np.concatenate([vals for _, vals, _ in self._cluster_eigh])))[0]

    @cached_property
    def _load_stack(self) -> LoadStack:
        """The clusters the added edges touch, padded to one stack (see :class:`LoadStack`)."""
        u, v, _ = self.added
        n, m = self.base.n_vertices, len(u)
        ends = np.concatenate((u, v))  # end e is edge e % m; e < m is its u end
        end_labels = self.cut.label_array[ends]
        order = np.argsort(end_labels, kind="stable")
        counts = np.bincount(end_labels, minlength=self.cut.q)
        sizes = self.cut.sizes()
        firsts = np.cumsum(sizes) - sizes  # each cluster's first row in the eigenbasis
        starts = np.cumsum(counts) - counts  # each cluster's first end in ``order``
        touched = np.flatnonzero(counts)
        depth, width = int(counts.max(initial=0)), int(sizes[touched].max(initial=0))
        valid = np.arange(width) < sizes[touched, None]
        stack = LoadStack(
            values=np.zeros((len(touched), width)),
            loads=np.zeros((len(touched), depth, width)),
            rows=np.where(valid, firsts[touched, None] + np.arange(width), n),
            ends=np.full((len(touched), depth), m),
            valid=valid,
        )
        for b, c in enumerate(touched.tolist()):
            members, vals, vecs = self._cluster_eigh[c]
            mine = order[starts[c] : starts[c] + counts[c]]
            signs = np.where(mine < m, 1.0, -1.0)
            stack.loads[b, : len(mine), : len(vals)] = (
                signs[:, None] * vecs[np.searchsorted(members, ends[mine])]
            )
            stack.values[b, : len(vals)] = vals
            stack.ends[b, : len(mine)] = mine % m
        return stack

    def count_perturbed_below(self, cutoff: float) -> int | None:
        """#{lambda(Ltilde) < cutoff} by ``spectra.low_rank_count``, or None when unresolved."""
        from .spectra import low_rank_count

        return low_rank_count(self.base_values, self._load_stack, self.added[2], cutoff)

    def perturbed_spectrum(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k lowest perturbed eigenpairs, solved in the base's eigenbasis.

        See ``spectra.perturbed_eigenpairs``; the result is checked by the
        low-rank count. Computed once per k and kept here, apart from any
        ``laplacian_spectrum`` of the perturbed graph, so the arrays do not
        depend on which solve ran first. Raises as ``laplacian_spectrum``.
        """
        _require_eigenvalue(self.perturbed.n_vertices, k)
        if k not in self._spectra:
            from .spectra import perturbed_eigenpairs

            self._spectra[k] = _read_only(*perturbed_eigenpairs(self, k))
        return self._spectra[k]

    @cached_property
    def perturbed_frame(self) -> OrthonormalFrame | None:
        """The q lowest perturbed eigenvectors, a real frame; None where a perturbed degree
        passes the float range, as the perturbed spectrum is NaN there."""
        if self._perturbed_overflows:
            return None
        _, vecs = self.perturbed_spectrum(self.cut.q + 1)
        return OrthonormalFrame(vecs[:, : self.cut.q])

    @cached_property
    def lhs_dsp(self) -> float:
        """d_sp(cluster indicators, span of the q lowest perturbed eigenvectors), or NaN
        where there is no perturbed frame."""
        if self.perturbed_frame is None:
            return math.nan
        return dsp_residual(self.null_frame, self.perturbed_frame)


def residual_identity_check(ctx: GraphPerturbation) -> list[dict]:
    """Per cluster: ||(Ltilde - L) u_j||_2^2 against the coupling (exact identity).

    The matvec runs over the added edges, whose Laplacian is Ltilde - L; the
    couplings are the context's. Each row's ``ok`` is ``slack.agrees`` at the
    largest coupling, the size of every squared weight summed on either side.
    """
    u, v, w = ctx.added
    frame = ctx.null_frame.columns
    with np.errstate(over="ignore"):  # a sum or square past the float range is an inf lhs
        flow = w[:, None] * (frame[u] - frame[v])
        residual = np.zeros_like(frame)
        np.add.at(residual, u, flow)
        np.add.at(residual, v, -flow)
        lhs_all = (np.abs(residual) ** 2).sum(axis=0)
    rhs_all = ctx.couplings
    ok = agrees(lhs_all, rhs_all, rhs_all.max(initial=0.0))
    return [{"cluster": j, "lhs": lhs, "rhs": rhs, "ok": agreed}
            for j, (lhs, rhs, agreed) in enumerate(zip(lhs_all.tolist(), rhs_all.tolist(),
                                                        ok.tolist()))]


def laplacian_diff_bound_check(ctx: GraphPerturbation) -> dict:
    """||Ltilde - L||_2 against twice the largest maximum external degree.

    Ltilde - L is the Laplacian of the added edges: zero outside the rows and
    columns of their endpoints, and block diagonal over the components they
    form there. So its nonzero eigenvalues are those of the graph of the
    added edges on their endpoints, which ``component_eigenvalues`` takes
    one component at a time.
    """
    u, v, w = ctx.added
    op_norm = 0.0
    if len(w):
        ends, local = np.unique(np.concatenate((u, v)), return_inverse=True)
        added = WeightedGraph.from_arrays(len(ends), local[: len(u)], local[len(u):], w)
        op_norm = float(np.max(np.abs(component_eigenvalues(added))))
    bound = 2.0 * float(ctx.meds.max())
    return {"op_norm": op_norm, "bound": bound, "ok": holds(op_norm, bound)}


def _report(names: tuple[str, ...], values: tuple[float, ...], ctx: GraphPerturbation,
            **detail: float) -> BoundReport:
    """One null-space bound row against lhs_dsp, its entries built as every bound table's are."""
    table = BoundTable(names, np.array([values]), True, ctx.lazy_digest,
                       {key: np.array([value]) for key, value in detail.items()})
    a_tilde = IndexPartition(len(ctx.cut.labels), tuple(range(ctx.cut.q)))
    return BoundReport(lhs_dsp=ctx.lhs_dsp, bounds=table.entries(0), chosen_a_tilde=a_tilde)


def nullspace_bound_known_perturbed(ctx: GraphPerturbation) -> BoundReport:
    """Null-space movement bound using the perturbed Laplacian's spectral gap.

    Bounds d_sp(cluster indicators, span of the q lowest perturbed
    eigenvectors) by sqrt(mean coupling) / lambda'_{q+1}. Raises ZeroGap when
    that eigenvalue is zero (``spectra.zero_eigenvalues``) and
    MissingEigenvalue when there is none (q >= n).
    """
    from .spectra import zero_eigenvalues

    q = ctx.cut.q
    vals, _ = ctx.perturbed_spectrum(q + 1)
    gap = float(vals[q])
    if zero_eigenvalues(gap, ctx._perturbed_degrees):
        raise ZeroGap(f"perturbed Laplacian eigenvalue {q + 1} is {gap:.3e}")
    mean_coupling = float(np.mean(ctx.couplings))
    value = float(np.sqrt(mean_coupling) / gap)
    return _report(("nullspace_known_perturbed",), (value,), ctx,
                   perturbed_gap=gap, mean_coupling=mean_coupling)


def nullspace_bound_known_base(ctx: GraphPerturbation) -> BoundReport:
    """Null-space movement bounds using only the base Laplacian's spectral gap.

    Requires max MED < lambda_{q+1} / 4, where a lambda_{q+1} that
    ``spectra.zero_eigenvalues`` calls zero counts as 0 (raises
    MedConditionViolated with the margin otherwise; MissingEigenvalue when
    q >= n); then the q lowest perturbed eigenvectors are the nearest-group
    identification, and both the coupling form and the coarser pure-MED form
    bound the movement.
    """
    from .spectra import zero_eigenvalues

    q = ctx.cut.q
    _require_eigenvalue(ctx.base.n_vertices, q + 1)
    gap = float(ctx.base_values[q])
    if zero_eigenvalues(gap, ctx._base_degrees):  # the base has more than q components
        gap = 0.0
    max_med = float(ctx.meds.max())
    if not max_med < gap / 4.0:
        raise MedConditionViolated(
            f"max MED {max_med:.6g} not below lambda_(q+1)/4 = {gap / 4.0:.6g}",
            margin=gap / 4.0 - max_med,
        )
    mean_coupling = float(np.mean(ctx.couplings))
    denom = gap - 2.0 * max_med
    fine = float(np.sqrt(mean_coupling) / denom)
    coarse = float(2.0 * max_med / denom)
    return _report(("nullspace_known_base_fine", "nullspace_known_base_coarse"), (fine, coarse),
                   ctx, base_gap=gap, max_med=max_med, mean_coupling=mean_coupling)


class GraphReport(NamedTuple):
    """Every check of one :class:`GraphPerturbation`, with its verdict; see :func:`graph_report`."""

    identity: list[dict]  # residual_identity_check's rows
    sandwiches: dict[str, np.ndarray]  # coupling_sandwiches' columns, and "ok" per cluster
    diff: dict  # laplacian_diff_bound_check's
    known_perturbed: BoundReport | None  # None when the perturbed gap vanishes
    known_base: BoundReport | None  # None when the MED condition fails ...
    med_margin: float | None  # ... by this margin
    verdicts: dict[str, bool]


def graph_report(ctx: GraphPerturbation) -> GraphReport:
    """Every check and null-space bound of ``ctx``, as one record.

    The sandwiches are ``coupling_sandwiches(cut, perturbed)`` bit for bit:
    the added edges are the perturbed graph's crossing ones, in its edge
    order. On the graph path, ZeroGap and MedConditionViolated are caught
    here and nowhere else. ``verdicts`` says whether each check that ran held:
    ``known_perturbed`` and ``known_base`` by ``BoundReport.holds``,
    ``known_base_fine`` the fine bound alone, ``known_base_chain`` fine <= coarse.
    """
    # Solved before the checks allocate their n x q temporaries: after them the
    # solve's peak memory was 0.45 MB higher (n = 2000, q = 24).
    ctx.perturbed_spectrum(ctx.cut.q + 1)
    identity = residual_identity_check(ctx)
    u, v, w = ctx.added
    labels = ctx.cut.label_array
    sandwiches = _sandwiches(ctx.cut, w, labels[u], labels[v], ctx.couplings)
    lower, value, upper = sandwiches.values()
    sandwiches["ok"] = holds(lower, value) & holds(value, upper)
    diff = laplacian_diff_bound_check(ctx)
    verdicts = {"residual_identity": all(row["ok"] for row in identity),
                "coupling_sandwich": bool(sandwiches["ok"].all()),
                "laplacian_diff_bound": diff["ok"]}
    known_perturbed = known_base = med_margin = None
    try:
        known_perturbed = nullspace_bound_known_perturbed(ctx)
        verdicts["known_perturbed"] = known_perturbed.holds()
    except ZeroGap:
        pass
    try:
        known_base = nullspace_bound_known_base(ctx)
    except MedConditionViolated as exc:
        med_margin = exc.margin
    else:
        fine, coarse = known_base.bounds
        verdicts.update(
            known_base=known_base.holds(),
            known_base_fine=not fine.condition_ok or fine.holds(known_base.lhs_dsp),
            known_base_chain=(not (fine.condition_ok and coarse.condition_ok)
                              or coarse.holds(fine.value)),
        )
    return GraphReport(identity, sandwiches, diff, known_perturbed, known_base, med_margin,
                       verdicts)


def total_coupling(cut: QCut, graph: WeightedGraph) -> float:
    return float(couplings(cut, graph).sum())


def _canonical_labels(labels) -> np.ndarray:
    """``labels`` renumbered 0, 1, ... in the order each first occurs."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


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

    ``exact`` enumerates every q-block set partition (at most ``limit``,
    which must be below 2**63, the cut counters' int64 range; ties go to the
    first in lexicographic order), each grown from its prefix one
    vertex at a time. When 2**n <= q * S(n, q), each vertex subset's coupling
    is computed once and each cut, built as its q cluster bit masks, is
    scored by q table lookups; otherwise cuts built as label vectors are
    scored in blocks by :func:`coupling_tables`. Either way a score is that
    cut's ``total_coupling`` exactly (the same kernel sums each cluster's
    terms in the same order), and the first cut wins when every score is
    inf. ``heuristic`` embeds vertices with the q lowest Laplacian
    eigenvectors and runs a k-means seeded by ``seed``, which must be
    non-negative; its output is reproducible for a fixed seed but carries
    no optimality guarantee.
    """
    n = graph.n_vertices
    if not 1 <= q <= n:
        raise InvalidConfig(f"need 1 <= q <= {n} for a {n}-vertex graph, got q = {q}")
    if mode == "exact":
        if limit >= 2**63:
            raise InvalidConfig(f"need a limit below 2**63, got {limit}")
        # S(n, q) >= q**(n - q): the first q vertices apart, the rest anywhere.
        # As limit < 2**63 <= q**64 for q >= 2, exponents above 64 decide nothing.
        if q ** min(n - q, 64) > limit:
            raise SearchSpaceTooLarge(
                f"S({n},{q}) >= {q}**{n - q} q-partitions exceeds the limit {limit}"
            )
        from .cutsearch import partition_ways, scored_partitions  # loaded on first use

        ways = partition_ways(n, q)
        count = ways[n - 1][1]
        if count > limit:
            raise SearchSpaceTooLarge(
                f"S({n},{q}) = {count} q-partitions exceeds the limit {limit}"
            )
        best_cut, best_value = None, math.inf
        for scores, labels in scored_partitions(graph, q, ways):
            i = int(np.argmin(scores))  # the block's first lowest, in lexicographic order
            # Earlier blocks win ties; the very first cut stands if every score is inf.
            if best_cut is None or scores[i] < best_value:
                best_cut = QCut(labels=labels(i), q=q)
                best_value = float(scores[i])
        return best_cut, best_value
    if mode != "heuristic":
        raise ValueError(f"unknown mode {mode!r}")
    if seed < 0:
        raise InvalidConfig(f"need a non-negative seed, got {seed}")
    _, vecs = laplacian_spectrum(graph, q)
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = _kmeans(vecs, q, rng)
    cut = QCut(labels=_canonical_labels(labels), q=q)
    return cut, total_coupling(cut, graph)


def align_basis(base_frame: OrthonormalFrame, target_frame: OrthonormalFrame) -> OrthonormalFrame:
    """Rotate a basis of one subspace to best match another frame (Procrustes).

    Computes R = base^+ target (the pseudoinverse of a column-orthonormal
    frame is its conjugate transpose), replaces it by the nearest unitary
    via SVD, and returns base @ R'. The output spans exactly the same
    subspace as ``base_frame``. Both products go through the base frame's
    ``coordinates`` and ``combine``, one pass over the labels for an
    :class:`IndicatorFrame`.
    """
    if base_frame.n != target_frame.n or base_frame.q != target_frame.q:
        raise DimensionMismatch(
            f"frames must share (n, q); got ({base_frame.n}, {base_frame.q}) "
            f"and ({target_frame.n}, {target_frame.q})"
        )
    v, _, wh = np.linalg.svd(base_frame.coordinates(target_frame.columns))
    return OrthonormalFrame(base_frame.combine(v @ wh))
