"""Graph Laplacian spectra without a dense solve of the whole Laplacian.

The k lowest eigenpairs come from ARPACK's shift-invert Lanczos iteration on
(L + s I)^-1, from a seeded start vector and with seeded restart vectors, so
the output is deterministic. One routine, ``_lanczos_lowest``, runs it for
two operators:

- A standalone graph's sparse Laplacian, which ARPACK factors by SuperLU.
- A ``GraphPerturbation``'s perturbed Laplacian Ltilde = L + E C E^T in the
  base's eigenbasis Q (every cluster's eigenvectors): there it is
  D + Z C Z^T with D diagonal and Z = Q^T E sparse, n x m, and its shifted
  inverse is applied by Woodbury's identity with one m x m Cholesky factor
  (``_eigenbasis_lowest``). Only the k Ritz vectors go back to vertices.

Lanczos can miss copies of a repeated eigenvalue (it did on hypercube
graphs), so each result is checked by an inertia count. The count is
``low_rank_count`` for a ``GraphPerturbation`` when it resolves; otherwise it
is ``count_below``, a sparse L D L^T factorization of the whole shifted
Laplacian. An eigenbasis result the count rejects, a failed Cholesky, and
m >= n added edges fall through to the sparse Laplacian; where that count
disagrees too, where ARPACK fails, and for k = n, dense ``eigh`` is used
instead. All eigenvalues of a standalone graph come from one dense
``eigvalsh`` per connected component (a batched call per component size):
the Laplacian is block diagonal over the components, so its spectrum is the
union of theirs.

specbound loads scipy only on the calls that need it, so that a command
that needs none starts without it: ``graphs`` imports this module on the
first solve or component spectrum, ``subspace.IndicatorFrame`` imports
``scipy.sparse`` for its first ``coordinates``, ``spectral.decompose_normal``
imports ``scipy.linalg.schur`` for the first block that the Hermitian solver
leaves coupled (Hermitian input and input without such a block need none),
and ``experiments.random_normal_pair`` imports ``scipy.linalg.expm`` on its
first call.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

from .graphs import (
    WeightedGraph,
    _degrees,
    component_labels,
    laplacian,
)

# The shift s is this fraction of the mean weighted degree (which is the
# mean eigenvalue): L + s I is positive definite, and s scales with the
# weights whatever their magnitude.
SHIFT_FRACTION = 1e-2
# A Lanczos result is kept only if the inertia count finds no eigenvalue it
# missed below its k-th eigenvalue by more than 1.5 times this, relative to
# 2 * (max degree) >= ||L||_2 (the count is taken this far below the k-th
# eigenvalue and is exact up to half of it).
MISSED_EIGENVALUE_MARGIN = 1e-10
# The error estimate of ``low_rank_count``, in units of eps: each base
# eigenvalue from a cluster's ``eigh`` is taken to be off by up to
# BASE_EIGENVALUE_ERROR * eps * ||L||_2, each load E^T z_i by up to
# LOAD_ERROR * eps * ||E||_F, and forming and diagonalising S(t) to add up to
# SCHUR_ROUNDING_ERROR * eps times the sum of its terms' norms.
BASE_EIGENVALUE_ERROR = 1e3
LOAD_ERROR = 1e3
SCHUR_ROUNDING_ERROR = 1e3
# ``component_eigenvalues`` solves components of one size as a stack of at
# most this many matrix entries (8 MB), or one by one when a single matrix
# is larger.
STACK_ENTRIES = 1 << 20


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


def low_rank_count(values: np.ndarray, blocks, weights: np.ndarray, cutoff: float) -> int | None:
    """#{eigenvalues of L + E C E^T below ``cutoff``}, or None when unresolved.

    L is block diagonal over clusters and E is the incidence matrix of m edges
    joining clusters, with weights C = diag(``weights``). ``values`` holds
    every eigenvalue of L; ``blocks`` holds, for each cluster an edge touches,
    its eigenvalues lambda_i, the loads ``loads[e, i]`` = (E^T z_i)[edges[e]]
    of its eigenvectors z_i on those edges, ``edges``, and its first row in
    the base's eigenbasis (unused here). By Haynsworth's inertia additivity
    on [[L - tI, E], [E^T, -C^-1]],

        #{lambda(L + E C E^T) < t} = #{lambda(L) < t} - neg(S(t)),
        S(t) = C^-1 + E^T (L - tI)^-1 E = C^-1 + sum_i (E^T z_i)(E^T z_i)^T / (lambda_i - t),

    and S(t) is only m x m. With delta and eta the errors of an eigenvalue
    and of a load (the module's error constants), d = lambda_i - t and
    r = ||E^T z_i||, a term of S is off by at most
    (delta r^2 / |d| + 2 r eta + eta^2) / (|d| - delta). A load no longer
    than eta is deflated (Bunch, Nielsen and Sorensen): its whole term, at
    most (r + eta)^2 / (|d| - delta), goes to the error budget instead of S.
    The count is trusted only if every |lambda_i - t| exceeds delta and every
    eigenvalue of S(t) exceeds the budget, rounding included.
    """
    eps = np.finfo(float).eps
    delta = BASE_EIGENVALUE_ERROR * eps * float(np.max(np.abs(values), initial=0.0))
    if not np.all(np.abs(values - cutoff) > delta):
        return None
    eta = LOAD_ERROR * eps * np.sqrt(2.0 * len(weights))
    schur = np.diag(1.0 / weights)
    terms = float(np.sum(1.0 / weights))  # sum of the terms' norms
    budget = 0.0
    for vals, loads, edges, _ in blocks:
        dist = np.abs(vals - cutoff)
        clear = dist - delta
        norms = np.linalg.norm(loads, axis=0)
        kept = norms > eta
        schur[np.ix_(edges, edges)] += (loads[:, kept] / (vals[kept] - cutoff)) @ loads[:, kept].T
        terms += float(np.sum(norms**2 / dist))
        budget += float(np.sum(np.where(
            kept,
            (delta * norms**2 / dist + 2.0 * norms * eta + eta**2) / clear,
            (norms + eta) ** 2 / clear,
        )))
    budget += SCHUR_ROUNDING_ERROR * eps * terms
    sigma = np.linalg.eigvalsh(schur)
    if not np.all(np.abs(sigma) > budget):
        return None
    return int(np.count_nonzero(values < cutoff)) - int(np.count_nonzero(sigma < 0))


def _shift_and_margin(graph: WeightedGraph) -> tuple[float, float]:
    """The shift s of ``L + s I`` and the certificate's margin below the k-th eigenvalue."""
    degrees = _degrees(graph.n_vertices, graph.u, graph.v, graph.w)
    shift = SHIFT_FRACTION * float(degrees.mean()) or 1.0  # edgeless: L = 0
    return shift, MISSED_EIGENVALUE_MARGIN * 2.0 * float(degrees.max())


def _lanczos_lowest(graph: WeightedGraph, k: int, count, operator, scales, shift_inverse=None):
    """The k < n lowest eigenpairs of ``operator``, ascending, or None if not trusted.

    ``operator`` is the Laplacian of ``graph`` in some orthonormal basis, and
    the eigenvectors come back in that basis; ``scales`` is
    ``_shift_and_margin(graph)``. ARPACK's shift-invert Lanczos runs on
    (operator + s I)^-1, which ``shift_inverse`` applies; without it,
    ``operator`` must be sparse and ARPACK factors it. The check counts the
    eigenvalues below a cutoff with ``count`` when it is given and resolves
    the count, and with ``count_below`` on the sparse Laplacian otherwise.
    """
    shift, margin = scales
    rng = np.random.Generator(np.random.PCG64(0))
    start = rng.standard_normal(graph.n_vertices)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            operator, k=k, sigma=-shift, which="LM", v0=start, tol=0, rng=rng,
            OPinv=shift_inverse,
        )
    except scipy.sparse.linalg.ArpackError:
        return None
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    cutoff = float(vals[-1]) - margin
    counted = count(cutoff) if count is not None else None
    if counted is None:
        counted = count_below(sparse_laplacian(graph), cutoff, tolerance=margin / 2.0)
    if counted != np.count_nonzero(vals < cutoff):
        return None
    return vals, vecs


def lowest_eigenpairs(graph: WeightedGraph, k: int, count=None) -> tuple[np.ndarray, np.ndarray]:
    """The 1 <= k <= n lowest Laplacian eigenvalues, ascending, and eigenvectors."""
    if k < graph.n_vertices:
        lap = sparse_laplacian(graph)
        spectrum = _lanczos_lowest(graph, k, count, lap, _shift_and_margin(graph))
        if spectrum is not None:
            return spectrum
    vals, vecs = np.linalg.eigh(laplacian(graph))
    return vals[:k].copy(), vecs[:, :k].copy()


def _eigenbasis_lowest(ctx, k: int):
    """The k < n lowest eigenpairs of ``ctx.perturbed``, solved in the base's eigenbasis.

    With Q = blockdiag(Q_j) the clusters' eigenvectors and D their
    eigenvalues, Q^T Ltilde Q = D + Z C Z^T, where Z = Q^T E is sparse: column
    e holds the loads of edge e's two clusters. Lanczos runs on its shifted
    inverse, applied by Woodbury's identity as
    y -> G y - G Z K^-1 Z^T G y with G = (D + s I)^-1 and the m x m
    K = C^-1 + Z^T G Z, factored once by Cholesky. Only the k Ritz vectors
    go back through x = Q y. None when K is not positive definite to
    working precision or the result is not trusted.
    """
    graph, weights = ctx.perturbed, ctx.added[2]
    n, m = graph.n_vertices, len(weights)
    values = np.concatenate([vals for _, vals, _ in ctx._cluster_eigh])
    rows, cols, data = [], [], []
    for _, loads, edges, first in ctx._load_blocks:
        rows.append(np.repeat(edges, loads.shape[1]))
        cols.append(np.tile(np.arange(first, first + loads.shape[1]), len(edges)))
        data.append(loads.ravel())
    z_t = scipy.sparse.csr_array(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(m, n)
    )
    z = z_t.T.tocsr()
    scales = _shift_and_margin(graph)
    inverse_diag = 1.0 / (values + scales[0])
    woodbury = np.diag(1.0 / weights) + ((z_t * inverse_diag) @ z).toarray()
    factor, info = scipy.linalg.lapack.dpotrf(woodbury)
    if info:
        return None

    def shift_inverse(y):
        scaled = inverse_diag * y
        correction, _ = scipy.linalg.lapack.dpotrs(factor, z_t @ scaled)
        return scaled - inverse_diag * (z @ correction)

    # In shift-invert mode ARPACK reads only the operator's shape and dtype.
    operator = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda y: values * y + z @ (weights * (z_t @ y)), dtype=float
    )
    spectrum = _lanczos_lowest(
        graph, k, ctx.count_perturbed_below, operator, scales,
        scipy.sparse.linalg.LinearOperator((n, n), matvec=shift_inverse, dtype=float),
    )
    if spectrum is None:
        return None
    vals, coefficients = spectrum
    vecs = np.empty((n, k))
    first = 0
    for members, _, basis in ctx._cluster_eigh:
        vecs[members] = basis @ coefficients[first:first + len(members)]
        first += len(members)
    return vals, vecs


def perturbed_eigenpairs(ctx, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The 1 <= k <= n lowest eigenpairs of a ``GraphPerturbation``'s perturbed Laplacian.

    The eigenbasis solve comes first when k < n and 0 < m < n edges were
    added; where it fails or is not trusted, the sparse shift-invert of
    ``lowest_eigenpairs`` follows, then dense ``eigh``. Both Lanczos results
    are checked by the low-rank count.
    """
    n = ctx.perturbed.n_vertices
    if k < n and 0 < len(ctx.added[2]) < n:
        spectrum = _eigenbasis_lowest(ctx, k)
        if spectrum is not None:
            return spectrum
    return lowest_eigenpairs(ctx.perturbed, k, ctx.count_perturbed_below)


def component_eigenvalues(graph: WeightedGraph) -> np.ndarray:
    """All Laplacian eigenvalues, ascending: the union of the components' spectra.

    One dense ``eigvalsh`` per component with an edge, and a 0 per isolated
    vertex. Components of one size go to ``eigvalsh`` as one stack of
    matrices, at most ``STACK_ENTRIES`` entries at a time. Each matrix is
    its component's Laplacian as ``_laplacian_from_edges`` builds it (a
    vertex's degree sums its edges in the same order), so its eigenvalues
    are those of a call of its own.
    """
    n, u, v, w = graph.n_vertices, graph.u, graph.v, graph.w
    labels = component_labels(n, u, v)
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    local = np.empty(n, dtype=np.int64)  # index of each vertex within its component
    local[order] = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    degrees = _degrees(n, u, v, w)
    edge_labels = labels[u]
    parts = [np.zeros(np.count_nonzero(sizes == 1))]
    for size in np.unique(sizes[sizes > 1]).tolist():
        same = np.flatnonzero(sizes == size)
        per_stack = max(1, STACK_ENTRIES // size**2)
        for first in range(0, len(same), per_stack):
            slot = np.full(len(sizes), -1)  # each component's matrix in this stack
            slot[same[first:first + per_stack]] = np.arange(len(same[first:first + per_stack]))
            stack = np.zeros((min(per_stack, len(same) - first), size, size))
            x = np.flatnonzero(slot[labels] >= 0)
            stack[slot[labels[x]], local[x], local[x]] = degrees[x]
            e = np.flatnonzero(slot[edge_labels] >= 0)
            at, lu, lv = slot[edge_labels[e]], local[u[e]], local[v[e]]
            stack[at, lu, lv] = stack[at, lv, lu] = -w[e]
            parts.append(np.linalg.eigvalsh(stack).ravel())
    return np.sort(np.concatenate(parts))
