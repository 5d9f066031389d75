"""Graph Laplacian spectra without a dense solve of the whole Laplacian.

The k lowest eigenpairs come from ARPACK's shift-invert Lanczos iteration on
(L + s I)^-1, from a seeded start vector and with seeded restart vectors, so
the output is deterministic. Lanczos can miss copies of a repeated
eigenvalue (it did on hypercube graphs), so each result is checked by an
inertia count; where the count disagrees, where ARPACK fails, and for k = n,
dense ``eigh`` is used instead. All eigenvalues come from one dense
``eigvalsh`` per connected component: the Laplacian is block diagonal over
the components, so its spectrum is the union of theirs.

``graphs`` imports this module on the first solve, so that callers that
never solve a spectrum do not load scipy.sparse.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .graphs import WeightedGraph, _degrees, _laplacian_from_edges, component_labels, laplacian

# The shift s is this fraction of the mean weighted degree (which is the
# mean eigenvalue): L + s I is positive definite, and s scales with the
# weights whatever their magnitude.
SHIFT_FRACTION = 1e-2
# A Lanczos result is kept only if the inertia count finds no eigenvalue it
# missed below its k-th eigenvalue by more than 1.5 times this, relative to
# 2 * (max degree) >= ||L||_2 (the count is taken this far below the k-th
# eigenvalue and is exact up to half of it).
MISSED_EIGENVALUE_MARGIN = 1e-10


def sparse_laplacian(graph: WeightedGraph) -> scipy.sparse.csc_array:
    """The Laplacian as a CSC array, straight from the edge arrays."""
    n = graph.n_vertices
    diag = np.arange(n)
    rows = np.concatenate((graph.u, graph.v, diag))
    cols = np.concatenate((graph.v, graph.u, diag))
    data = np.concatenate((-graph.w, -graph.w, _degrees(n, graph.u, graph.v, graph.w)))
    return scipy.sparse.csc_array((data, (rows, cols)), shape=(n, n))


def count_below(lap, cutoff: float, tolerance: float) -> int | None:
    """The number of eigenvalues of ``lap`` below ``cutoff``, by inertia.

    Factors P (lap - cutoff I) P^T = L D L^T without pivoting, under a
    symmetric fill-reducing order; by Sylvester's law of inertia the count
    of negative pivots in D is the count of negative eigenvalues of L D L^T.
    That matrix differs from the permuted input by a defect E, so the count
    is trusted only when ||E||_F <= ``tolerance``; otherwise, or when the
    factorization breaks down or pivots off the diagonal, returns None.
    """
    n = lap.shape[0]
    shifted = (lap - cutoff * scipy.sparse.eye_array(n, format="csc")).tocsc()
    try:
        lu = scipy.sparse.linalg.splu(
            shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # exactly singular
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    perm = scipy.sparse.csc_array((np.ones(n), (lu.perm_r, np.arange(n))), shape=(n, n))
    pivots = lu.U.diagonal()
    defect = lu.L @ scipy.sparse.diags_array(pivots) @ lu.L.T - perm @ shifted @ perm.T
    if not scipy.sparse.linalg.norm(defect) <= tolerance:
        return None
    return int(np.count_nonzero(pivots < 0))


def _shift_invert_lowest(graph: WeightedGraph, k: int):
    """ARPACK's k < n lowest eigenpairs, ascending, or None if not trusted."""
    lap = sparse_laplacian(graph)
    degrees = lap.diagonal()
    rng = np.random.Generator(np.random.PCG64(0))
    start = rng.standard_normal(graph.n_vertices)
    shift = SHIFT_FRACTION * float(degrees.mean()) or 1.0  # edgeless: L = 0
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            lap, k=k, sigma=-shift, which="LM", v0=start, tol=0, rng=rng
        )
    except scipy.sparse.linalg.ArpackError:
        return None
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    margin = MISSED_EIGENVALUE_MARGIN * 2.0 * float(degrees.max())
    cutoff = float(vals[-1]) - margin
    if count_below(lap, cutoff, tolerance=margin / 2.0) != np.count_nonzero(vals < cutoff):
        return None
    return vals, vecs


def lowest_eigenpairs(graph: WeightedGraph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The 1 <= k <= n lowest Laplacian eigenvalues, ascending, and eigenvectors."""
    if k < graph.n_vertices:
        spectrum = _shift_invert_lowest(graph, k)
        if spectrum is not None:
            return spectrum
    vals, vecs = np.linalg.eigh(laplacian(graph))
    return vals[:k].copy(), vecs[:, :k].copy()


def component_eigenvalues(graph: WeightedGraph) -> np.ndarray:
    """All Laplacian eigenvalues, ascending: the union of the components' spectra.

    One dense ``eigvalsh`` per component with an edge, and a 0 per isolated
    vertex.
    """
    n = graph.n_vertices
    labels = component_labels(n, graph.u, graph.v)
    sizes = np.bincount(labels)
    local = np.empty(n, dtype=np.int64)  # index of each vertex within its component
    local[np.argsort(labels, kind="stable")] = np.arange(n) - np.repeat(
        np.cumsum(sizes) - sizes, sizes
    )
    edge_labels = labels[graph.u]
    by_component = np.split(
        np.argsort(edge_labels, kind="stable"),
        np.cumsum(np.bincount(edge_labels, minlength=len(sizes)))[:-1],
    )
    parts = [np.zeros(np.count_nonzero(sizes == 1))]
    for size, edges in zip(sizes, by_component):
        if size > 1:
            block = _laplacian_from_edges(
                int(size), local[graph.u[edges]], local[graph.v[edges]], graph.w[edges]
            )
            parts.append(np.linalg.eigvalsh(block))
    return np.sort(np.concatenate(parts))
