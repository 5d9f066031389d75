"""Graph Laplacian spectra without a dense solve of the whole Laplacian.

The k lowest eigenpairs come from ``lanczos``, one numpy thick-restart
Lanczos iteration on the shifted inverse (L + s I)^-1 (Wu and Simon's
method, which ARPACK's implicitly restarted Lanczos with exact shifts
matches), from a seeded start vector and with seeded vectors after an
invariant subspace, so the output is deterministic. Each step takes the
three-term recurrence's parts out first and then orthogonalizes against
the whole basis in one pass, a second only where that pass removes most of
what is left. One routine, ``_lanczos_lowest``, runs it for two operators:

- A standalone graph's sparse Laplacian, whose shifted inverse is a SuperLU
  solve (``lowest_eigenpairs``).
- A ``GraphPerturbation``'s perturbed Laplacian Ltilde = L + E C E^T in the
  base's eigenbasis Q (every cluster's eigenvectors): there it is
  D + Z C Z^T with D diagonal and Z = Q^T E, n x m, nonzero only on the
  touched clusters' rows, and its shifted inverses are applied by
  Woodbury's identity with an m x m inverse (``_eigenbasis_lowest``). The
  spectrum is solved in two slices, split at the base's null space (the
  spectral transformation of Ericsson and Ruhe, one shift per slice): the
  j near-null eigenpairs from a run at the positive shift, whose m x m
  matrix is inverted through its Cholesky factor, and the k - j above
  them from a run at an interior shift between the two slices, whose
  indefinite m x m matrix is inverted by LU. Only the k Ritz vectors go
  back to vertices.

Lanczos can miss copies of a repeated eigenvalue (it did on hypercube
graphs), so each result is checked by one inertia count below its k-th
eigenvalue: ``low_rank_count`` for a ``GraphPerturbation``, an m x m matrix
bordered by the loaded base eigenvalues next to the cutoff, so that it
resolves beside a repeated eigenvalue too; ``count_below``, a sparse
L D L^T factorization of the whole shifted Laplacian, for a standalone
graph. Two slices are taken only where the interior shift separates them,
and are then checked as one result; otherwise one run at the positive
shift gives all k. An eigenbasis result the count rejects and a failed
Cholesky fall through to the standalone solve of the perturbed graph,
which also takes m >= n added edges; where its count disagrees too, where
Lanczos does not converge, and for k = n, dense ``eigh`` is used instead.
A ``GraphPerturbation`` with no added edge needs no solve at all: its
perturbed Laplacian is the base's, whose k lowest eigenpairs are read off
the clusters' dense solves. The whole spectrum of a graph needs no scipy
solver: it is ``graphs.component_eigenvalues``, one dense solve per stack of
connected components of one size.

specbound loads scipy only on the calls that need it, so that a command
that needs none starts without it. This module imports no scipy module
itself: only ``sparse_laplacian``, ``count_below`` and the standalone
graph's solve in ``lowest_eigenpairs`` do, so the graph application
(``reproduce``, ``graph audit``) loads none unless its eigenbasis solve
falls through.
``spectral.decompose_normal`` imports ``scipy.linalg.schur`` only for a
block that both Hermitian solves leave coupled (exactly normal input needs
none; input normal only to about the coupling threshold can).
``experiments.random_normal_pair`` takes the exponential of its
skew-Hermitian twist generator from numpy's ``eigh``, not
``scipy.linalg.expm``, so ``audit`` loads no scipy module either.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .graphs import WeightedGraph, _degrees, laplacian

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
# SCHUR_ROUNDING_ERROR * eps times the sum of its terms' norms. An eigenvalue
# within the first of these of 0 is zero (``zero_eigenvalues``).
BASE_EIGENVALUE_ERROR = 1e3
LOAD_ERROR = 1e3
SCHUR_ROUNDING_ERROR = 1e3
# ``low_rank_count`` keeps a loaded column undivided, in the border of its
# count, when the column's eigenvalue is within this fraction of ||L||_2 of
# the cutoff (on the tests' ``EIGENBASIS_CASES``, any value from 1e-9 to
# 1e-1 resolved the same cutoffs).
NEAR_WINDOW = 1e-6
# Lanczos keeps min(n, max(2k + 1, LANCZOS_MIN_BASIS)) basis vectors (ARPACK's
# default). A Ritz pair of the shifted inverse is locked once its residual
# estimate is at most LANCZOS_TOL * eps times its Ritz value, and a step
# whose new vector every pass leaves below LANCZOS_TOL * eps times the
# apply's norm has closed its Krylov space. A step removes the three-term
# recurrence's parts first, then makes one pass over the whole basis, and a
# second pass only when that one leaves less than REORTHOGONALIZE_BELOW of
# what the recurrence left (Daniel, Gragg, Kaufman and Stewart). A solve
# that has not locked k pairs after LANCZOS_MAX_RESTARTS passes gives up.
# The finishing step refines LANCZOS_BLOCK Ritz vectors at a time, which
# bounds its temporaries.
LANCZOS_MIN_BASIS = 20
LANCZOS_TOL = 4.0
REORTHOGONALIZE_BELOW = 2.0**-0.5
LANCZOS_MAX_RESTARTS = 300
LANCZOS_BLOCK = 32
# The perturbed solve's second slice is solved at the interior shift
# sigma = d_{j+1} - INTERIOR_SHIFT_FRACTION (d_{j+1} - lambda_j), this fraction
# of the way down from the base's first nonzero eigenvalue to the top of the
# first slice (on reproduce's n = 2000 graphs 1e-2 and 1e-3 took 21 applies
# for lambda_{q+1}, 1e-1 took 35 to 49).
INTERIOR_SHIFT_FRACTION = 1e-2


def sparse_laplacian(graph: WeightedGraph) -> scipy.sparse.csc_array:
    """The Laplacian as a CSC array, straight from the edge arrays."""
    import scipy.sparse

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
    import scipy.sparse.linalg

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
    with np.errstate(over="ignore"):  # a norm past the float range is inf: unresolved
        if not scipy.sparse.linalg.norm(defect) <= tolerance:
            return None
    return int(np.count_nonzero(pivots < 0))


def low_rank_count(values: np.ndarray, stack, weights: np.ndarray, cutoff: float) -> int | None:
    """#{eigenvalues of L + E C E^T below ``cutoff``}, or None when unresolved.

    L is block diagonal over clusters and E is the incidence matrix of m edges
    joining clusters, with weights C = diag(``weights``). ``values`` holds
    every eigenvalue of L; ``stack`` is the ``graphs.LoadStack`` of the
    clusters the edges touch: their eigenvalues lambda_i and the loads
    z_i = E^T q_i of their eigenvectors q_i. With t the cutoff, D = diag(lambda)
    and Z the n x m matrix whose rows are the z_i, Haynsworth's inertia
    additivity on M = [[D - tI, Z], [Z^T, -C^-1]], eliminating -C^-1 one way
    and the rows F of D - tI the other, gives

        m + #{lambda(L + E C E^T) < t} = neg(M) = #{lambda_F < t} + neg(M / F).

    F is every row but P, the loaded columns whose |lambda_i - t| is below
    NEAR_WINDOW times ||L||_2: those stay undivided as the leading block of
    M / F (Bunch, Nielsen and Sorensen's deflation without the division),
    so a cutoff beside a base eigenvalue that is also a perturbed one (a
    repeated eigenvalue with more copies than loads, or an untouched
    cluster's 0) is no pole. The congruence diag(I, c I), with c the
    smallest weight, scales every block like L:

        R = [[diag(lambda_P - t), c Z_P], [c Z_P^T, -c^2 S_far(t)]],
        S_far(t) = C^-1 + sum_{i in F} z_i z_i^T / (lambda_i - t),
        #{lambda(L + E C E^T) < t} = #{lambda_F < t} + neg(R) - m.

    With no near column, c = 1 and R = -S(t) is only m x m. One batched
    product over the stack gives every cluster's term of S_far, and one
    scatter adds them up.

    The count is trusted only if every |lambda_i - t| exceeds delta and
    every eigenvalue of R exceeds a bound on R's error, which then moves
    none of them past 0 (Weyl). With delta and eta the errors of an
    eigenvalue and of a load (the module's error constants), d = lambda_i - t
    and r = ||z_i||, a far term of S_far is off by at most
    (delta r^2 / |d| + 2 r eta + eta^2) / (|d| - delta). A load no longer
    than eta is deflated: its whole term, at most (r + eta)^2 / (|d| - delta),
    goes to the error budget instead of S_far. These and the rounding of
    S_far are scaled by c^2 in R. The near block's diagonal is off by at most
    delta and the border by c eta per column, so by c eta sqrt(p) in norm
    for p near columns. The rounding of the blocks and of R's eigensolve is
    SCHUR_ROUNDING_ERROR eps times the sum of their terms' norms.
    """
    eps = np.finfo(float).eps
    norm = float(np.max(np.abs(values), initial=0.0))  # ||L||_2
    delta = BASE_EIGENVALUE_ERROR * eps * norm
    if not np.all(np.abs(values - cutoff) > delta):
        return None
    m = len(weights)
    eta = LOAD_ERROR * eps * np.sqrt(2.0 * m)
    norms = np.linalg.norm(stack.loads, axis=1)
    dist = np.abs(stack.values - cutoff)
    kept = stack.valid & (norms > eta)
    near = kept & (dist < NEAR_WINDOW * norm)
    far = stack.valid & ~near
    # 1 / (lambda_i - t) on the kept far columns, 0 on the rest: the valid
    # ones are more than delta from t, and a padded column is never divided
    schur = _schur(stack, np.divide(1.0, stack.values - cutoff, out=np.zeros(kept.shape),
                                    where=kept & ~near), weights)
    norms, kept, dist = norms[far], kept[far], dist[far]
    clear = dist - delta
    budget = float(np.sum(np.where(
        kept,
        (delta * norms**2 / dist + 2.0 * norms * eta + eta**2) / clear,
        (norms + eta) ** 2 / clear,
    )))
    terms = float(np.sum(1.0 / weights)) + float(np.sum(norms**2 / dist))  # the terms' norms
    budget += SCHUR_ROUNDING_ERROR * eps * terms
    below = int(np.count_nonzero(values < cutoff))  # #{lambda_F < t} once P's are taken off
    blocks, columns = np.nonzero(near)
    p = len(blocks)
    c = float(np.min(weights)) if p else 1.0
    bordered = np.empty((p + m, p + m))
    with np.errstate(over="ignore"):  # past the float range is inf, and unresolved
        np.multiply(schur, -(c * c), out=bordered[p:, p:])
        budget *= c * c
    if p:
        gaps = stack.values[blocks, columns] - cutoff
        border = np.zeros((m + 1, p))  # a padded end's load lands in row m
        border[stack.ends[blocks], np.arange(p)[:, None]] = c * stack.loads[blocks, :, columns]
        bordered[:p, :p] = np.diag(gaps)
        bordered[p:, :p] = border[:m]
        bordered[:p, p:] = border[:m].T
        budget += delta + c * eta * math.sqrt(p)
        budget += SCHUR_ROUNDING_ERROR * eps * float(
            np.sum(np.abs(gaps)) + np.sum(np.linalg.norm(border, axis=0))
        )
        below -= int(np.count_nonzero(gaps < 0))
    if not np.isfinite(bordered).all():  # a weight's reciprocal past the float range
        return None
    sigma = np.linalg.eigvalsh(bordered)
    if not np.all(np.abs(sigma) > budget):
        return None
    return below + int(np.count_nonzero(sigma < 0)) - m


def _schur(stack, scales: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """C^-1 + Z^T diag(``scales``) Z for Z = Q^T E over the stack's columns, m x m.

    ``scales`` is (blocks, width) like ``stack.values``, zero on padded
    columns. Every cluster's term comes from one batched product, and one
    scatter adds them up.
    """
    m = len(weights)
    terms = (stack.loads * scales[:, None, :]) @ stack.loads.transpose(0, 2, 1)
    schur = np.diag(np.append(1.0 / weights, 0.0))  # a padded end's terms land in row m
    np.add.at(schur, (stack.ends[:, :, None], stack.ends[:, None, :]), terms)
    return schur[:m, :m]


def zero_eigenvalues(values, degrees: np.ndarray) -> np.ndarray:
    """Which of the Laplacian eigenvalues ``values`` are zero, elementwise: the one zero test.

    An eigenvalue is zero when it is within BASE_EIGENVALUE_ERROR eps ||L||_2
    of 0, an eigensolve's rounding, with 2 max degree >= ||L||_2 standing in
    for the norm; ``degrees`` are the Laplacian's weighted degrees. The rule
    scales with the weights, and an inf or NaN eigenvalue is never zero.
    """
    tol = 2.0 * BASE_EIGENVALUE_ERROR * np.finfo(float).eps * np.max(degrees, initial=0.0)
    return np.abs(values) <= tol


def _shift_and_margin(degrees: np.ndarray) -> tuple[float, float]:
    """The shift s of ``L + s I`` and the certificate's margin below the k-th eigenvalue.

    ``degrees`` are the graph's weighted degrees. Either is inf where the
    degrees' sum or maximum passes the float range; no Lanczos run takes them
    then.
    """
    with np.errstate(over="ignore"):
        shift = SHIFT_FRACTION * float(degrees.mean()) or 1.0  # edgeless: L = 0
        return shift, MISSED_EIGENVALUE_MARGIN * 2.0 * float(degrees.max())


def lanczos(shift_inverse, operator, shift: float, start: np.ndarray, k: int,
            rng: np.random.Generator):
    """The k < n lowest eigenpairs of a symmetric operator A (above -``shift``), ascending, or None.

    Thick-restart Lanczos (Wu and Simon, SIAM J. Matrix Anal. Appl., 2000)
    on (A + s I)^-1, which ``shift_inverse`` applies to an (n,) vector and
    to an (n, b) block for the ``shift`` s, which makes A + s I positive
    definite: its largest eigenvalues belong to A's lowest. For an interior
    shift s = -sigma they belong to A's lowest above sigma, and those below
    sigma map to negative values, so the same driver solves a slice of the
    spectrum that starts at sigma. ``operator``
    applies A to an (n, b) block. The basis holds min(n, max(2k + 1, LANCZOS_MIN_BASIS)) vectors
    from ``start``. Each step removes the new vector's parts along the
    current and the previous vector (the three-term recurrence) and then
    runs one classical Gram-Schmidt pass over the whole basis (Parlett, The
    Symmetric Eigenvalue Problem, 1998), and a second pass only where the
    first removed most of what the recurrence left (DGKS); so the global
    pass meets only the rounding and the restart's couplings, and rarely
    needs repeating. A vector that the second pass again mostly removes, or
    that is left below LANCZOS_TOL * eps times the norm of the apply itself,
    ends the Krylov space (an invariant subspace). When the basis is full,
    the wanted Ritz pairs whose residual estimate is at most LANCZOS_TOL *
    eps times their own Ritz value are locked, from the largest down to the
    first that is not: kept, and left out of the projected matrix from then
    on. So a pair is tested against a matrix no larger than its own Ritz
    value once the pairs above it are locked, and a pair below one still
    unresolved (another copy of a repeated eigenvalue may yet turn up) is
    never locked. The other wanted pairs, and the next two thirds of the
    rest, are kept for the next pass. An invariant subspace is left from a
    vector drawn from ``rng``. A step's work lands in buffers made once per
    solve.

    The k locked vectors give the eigenpairs after one refinement step and
    a Rayleigh-Ritz step on A itself (``_finish``). None when the k pairs
    are not locked within LANCZOS_MAX_RESTARTS passes, or an apply
    overflows.
    """
    n = len(start)
    size = _basis_size(n, k)
    basis = np.empty((size + 1, n))
    basis[0] = start / np.linalg.norm(start)
    proj = np.zeros((size, size))  # (A + s I)^-1 in the basis, past the locked rows
    coef = np.empty(size)  # a pass's coefficients along the basis
    product = np.empty(n)  # what a pass removes
    locked = first = 0  # basis[:locked] is locked; basis[locked:first] was kept
    eps = float(np.finfo(float).eps)
    for _ in range(LANCZOS_MAX_RESTARTS):
        for j in range(first, size):
            span, w = basis[: j + 1], basis[j + 1]
            w[:] = shift_inverse(basis[j])
            applied = math.sqrt(w @ w)
            near = basis[max(j - 1, 0) : j + 1]  # the previous and the current vector
            local = near @ w
            w -= np.matmul(local, near, out=product)
            alpha, left = float(local[-1]), math.sqrt(w @ w)
            alpha += _project_out(span, w, coef[: j + 1], product)[j]
            beta = math.sqrt(w @ w)
            if beta < REORTHOGONALIZE_BELOW * left:
                alpha += _project_out(span, w, coef[: j + 1], product)[j]
                left, beta = beta, math.sqrt(w @ w)
                if beta < REORTHOGONALIZE_BELOW * left:  # w lies in the basis's span
                    beta = 0.0
            if beta <= LANCZOS_TOL * eps * applied:  # rounding error: the Krylov space closed
                beta = 0.0
            proj[j, j] = alpha
            if j + 1 == n:
                beta = 0.0
            elif beta:
                w /= beta
                if j + 1 < size:
                    proj[j, j + 1] = proj[j + 1, j] = beta
            elif j + 1 < size:  # go on from a random vector orthogonal to the basis
                w[:] = rng.standard_normal(n)
                for _ in range(2):
                    _project_out(span, w, coef[: j + 1], product)
                w /= math.sqrt(w @ w)
        if not np.isfinite(proj[locked:, locked:]).all():  # an overflow in an apply
            return None
        theta, vecs = np.linalg.eigh(proj[locked:, locked:])
        wanted = np.arange(len(theta) - (k - locked), len(theta))
        done = beta * np.abs(vecs[-1, wanted]) <= LANCZOS_TOL * eps * theta[wanted]
        top = len(theta) - int(np.cumprod(done[::-1]).sum())  # the first of the pairs to lock
        kept = np.arange(wanted[0] - 2 * (size - k) // 3, top)
        keep = np.concatenate((np.arange(top, len(theta)), kept))
        basis[locked : locked + len(keep)] = vecs[:, keep].T @ basis[locked:size]
        locked += len(theta) - top
        if locked == k:
            return _finish(shift_inverse, operator, shift, basis[:k].T)
        first = locked + len(kept)
        basis[first] = basis[size]
        proj[:] = 0.0
        rows = np.arange(locked, first)
        proj[rows, rows] = theta[kept]
        proj[first, rows] = proj[rows, first] = beta * vecs[-1, kept]
    return None


def _basis_size(n: int, k: int) -> int:
    """The number of vectors ``lanczos`` keeps when it solves for k pairs of an n x n operator."""
    return min(n, max(2 * k + 1, LANCZOS_MIN_BASIS))


def _project_out(span: np.ndarray, w: np.ndarray, coef: np.ndarray, product: np.ndarray):
    """One classical Gram-Schmidt pass: w -= span^T (span w), in place; returns span w.

    ``coef`` (one entry per row of ``span``) and ``product`` (like ``w``)
    are buffers, so a pass allocates nothing.
    """
    np.matmul(span, w, out=coef)
    np.matmul(coef, span, out=product)
    w -= product
    return coef


def _finish(shift_inverse, operator, shift: float, ritz: np.ndarray):
    """``lanczos``'s eigenpairs from its k locked Ritz vectors, ascending; None on an overflow.

    The shifted inverse is accurate only to about eps times its norm (1 / s
    at a positive shift s), so a Ritz vector keeps a part of about that size
    along eigenvectors whose eigenvalues are far above its own. One step
    x - (A + s I)^-1 (A x - rho x), with rho its Rayleigh quotient on A,
    shrinks each such part by the ratio of the two shifted eigenvalues, and
    that solve's own error scales with the residual, not with x. The step
    also inflates what the vectors share of each other, so a Rayleigh-Ritz
    step on A follows, over an orthonormal basis of their span from the
    eigenvectors of their Gram matrix; its eigenvalues are exact zeros for
    A = 0. A applied to the refined vectors needs no further apply: with
    r = A x - rho x and p = (A + s I)^-1 r, A (x - p) = rho x + s p for any
    shift, interior ones too, up to s times p's error, which the small
    residual makes negligible. The vectors are refined in place,
    LANCZOS_BLOCK at a time, which bounds the temporaries.
    """
    forward = np.empty_like(ritz)  # A @ the refined vectors
    for i in range(0, ritz.shape[1], LANCZOS_BLOCK):
        x = ritz[:, i : i + LANCZOS_BLOCK]
        ax = operator(x)
        quotients = np.einsum("ij,ij->j", x, ax)
        correction = shift_inverse(ax - x * quotients)
        forward[:, i : i + LANCZOS_BLOCK] = x * quotients + shift * correction
        x -= correction
    gram = ritz.T @ ritz
    if not np.isfinite(gram).all():
        return None
    gram_vals, gram_vecs = np.linalg.eigh(gram)
    basis = gram_vecs / np.sqrt(gram_vals)  # ritz @ basis is orthonormal
    projected = basis.T @ (ritz.T @ forward) @ basis
    del forward  # n x k; only the k x k projection is needed from here
    if not np.isfinite(projected).all():
        return None
    vals, rotation = np.linalg.eigh((projected + projected.T) / 2.0)
    return vals, ritz @ (basis @ rotation)


def _seeded(n: int):
    """A solve's start vector, the first draw of its seeded generator, and that generator."""
    rng = np.random.Generator(np.random.PCG64(0))
    return rng.standard_normal(n), rng


def _lanczos_lowest(graph: WeightedGraph, k: int, count, operator, shift_inverse, scales,
                    split=None):
    """The k < n lowest eigenpairs of ``operator``, ascending, or None if not trusted.

    ``operator`` is the Laplacian of ``graph`` in some orthonormal basis,
    applied to an (n, b) block, and the eigenvectors come back in that
    basis; ``shift_inverse`` applies (operator + s I)^-1 to an (n,) vector
    or an (n, b) block, and ``scales`` is ``_shift_and_margin`` of the
    graph's degrees. ``lanczos`` runs from a seeded start vector.

    ``split``, when given, is (j, interior) with 0 < j < k: the spectrum is
    solved in two slices. One run at s gives the j lowest pairs;
    ``interior(top)``, from that run's top eigenvalue, gives an interior
    shift sigma above it and the shifted inverse (operator - sigma I)^-1, or
    None; and one run on that gives the k - j lowest pairs above sigma,
    whose images are the largest, while those below sigma map to negative
    values. Both runs draw from one seeded generator. The two slices are
    taken only when sigma separates them; otherwise the k pairs come from
    one run at s, as without ``split``.

    The check asks ``count`` for the number of eigenvalues below a cutoff
    just under the k-th eigenvalue, once; a count of None (unresolved)
    rejects the result. A count cannot tell a duplicate of the top pair
    from the pair it displaced, so the slices must not overlap.
    """
    shift, margin = scales
    n = graph.n_vertices
    spectrum = None
    if split is not None:
        j, interior = split
        start, rng = _seeded(n)
        lower = lanczos(shift_inverse, operator, shift, start, j, rng)
        inside = None if lower is None else interior(float(lower[0][-1]))
        if inside is not None:
            sigma, inverse = inside
            upper = lanczos(inverse, operator, -sigma, rng.standard_normal(n), k - j, rng)
            if upper is not None and lower[0][-1] < sigma < upper[0][0]:
                spectrum = np.concatenate((lower[0], upper[0])), np.hstack((lower[1], upper[1]))
    if spectrum is None:
        start, rng = _seeded(n)
        spectrum = lanczos(shift_inverse, operator, shift, start, k, rng)
    if spectrum is None:
        return None
    vals, vecs = spectrum
    cutoff = float(vals[-1]) - margin
    if count(cutoff) != np.count_nonzero(vals < cutoff):
        return None
    return vals, vecs


def lowest_eigenpairs(graph: WeightedGraph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The 1 <= k <= n lowest Laplacian eigenvalues, ascending, and eigenvectors.

    For k < n, Lanczos on the sparse Laplacian, whose shifted inverse is a
    SuperLU solve, checked by ``count_below``; for k = n, a shift or margin
    past the float range, or a result that is not trusted, dense ``eigh``.
    """
    n = graph.n_vertices
    scales = _shift_and_margin(_degrees(n, graph.u, graph.v, graph.w))
    if k < n and np.isfinite(scales).all():
        import scipy.sparse.linalg

        lap = sparse_laplacian(graph)
        factor = scipy.sparse.linalg.splu(lap + scales[0] * scipy.sparse.eye_array(n, format="csc"))
        count = partial(count_below, lap, tolerance=scales[1] / 2.0)
        spectrum = _lanczos_lowest(graph, k, count, lap.dot, factor.solve, scales)
        if spectrum is not None:
            return spectrum
    vals, vecs = np.linalg.eigh(laplacian(graph))
    return vals[:k].copy(), vecs[:, :k].copy()


def _inverse_woodbury(woodbury: np.ndarray, definite: bool) -> np.ndarray | None:
    """K^-1 for K = ``woodbury``, with a zero row m appended; None if it cannot be formed.

    It is formed once, so that each solve is one product. At a positive
    shift K is positive definite: it is factored by Cholesky, which is also
    the test of that, and K^-1 = F^-T F^-1 is formed from the inverse of the
    factor F. At an interior shift (``definite`` false) K is indefinite, and
    it is inverted by LU: numpy has no L D L^T, and scipy's would load
    scipy. None when the factorization fails or the inverse is not finite.
    """
    m = len(woodbury)
    solve = np.zeros((m + 1, m))
    try:
        if definite:
            inverse_factor = np.linalg.inv(np.linalg.cholesky(woodbury))
            solve[:m] = inverse_factor.T @ inverse_factor
        else:
            solve[:m] = np.linalg.inv(woodbury)
    except np.linalg.LinAlgError:
        return None
    return solve if np.isfinite(solve).all() else None


def _eigenbasis_lowest(ctx, k: int):
    """The k < n lowest eigenpairs of ``ctx.perturbed``, solved in the base's eigenbasis.

    With Q = blockdiag(Q_j) the clusters' eigenvectors and D their
    eigenvalues, Q^T Ltilde Q = D + Z C Z^T, where Z = Q^T E: column e holds
    the loads of edge e's two clusters, each cluster's in its contiguous
    rows of the eigenbasis. Z is read off the context's ``LoadStack``, so
    Z^T and Z are each one batched product and one gather; a padded row
    points at a zero row n, a padded edge at a zero row m. Lanczos runs on
    shifted inverses, each applied by Woodbury's identity as
    y -> G y - G Z K^-1 Z^T G y with G = (D + s I)^-1 and the m x m
    K = C^-1 + Z^T G Z (``_schur`` at -s, inverted by ``_inverse_woodbury``)
    for a shift s; G Z is formed once per shift, and a single vector's apply
    (a Lanczos step) indexes one-dimensional arrays and writes into one
    buffer.

    The spectrum is sliced at the base's null space. With j the number of
    base eigenvalues that ``zero_eigenvalues`` calls zero (the clusters'
    null vectors: j = q for connected clusters), 0 < j < k, and
    the two runs' bases (``_basis_size``) together smaller than n, one run
    at the positive shift gives the j lowest pairs, and one at the
    interior shift -sigma gives the k - j above them, with
    sigma = d_{j+1} - INTERIOR_SHIFT_FRACTION (d_{j+1} - lambda_j), from
    the base's (j+1)-th eigenvalue d_{j+1} and the first run's top value
    lambda_j; by interlacing for a positive semidefinite update,
    lambda_{j+1} >= d_{j+1} > sigma, so each of the k - j lies above sigma
    and near it. Otherwise (j = 0, j >= k, or bases that would not fit),
    and where lambda_j >= d_{j+1}, K is singular at sigma or the runs are
    not separated by sigma, one run at the positive shift gives all k (see
    ``_lanczos_lowest``). Only the k Ritz
    vectors go back through x = Q y. None when the shift or margin passes
    the float range (no arithmetic is done on it), when K is not positive
    definite to working precision at the positive shift, or when the result
    is not trusted.
    """
    graph, weights, stack = ctx.perturbed, ctx.added[2], ctx._load_stack
    n, m = graph.n_vertices, len(weights)
    values = np.concatenate([vals for _, vals, _ in ctx._cluster_eigh])
    loads, rows, ends = stack.loads, stack.rows, stack.ends
    # an edge's two ends, in the flattened stack
    one_end, other_end = np.argsort(ends, axis=None, kind="stable")[: 2 * m].reshape(m, 2).T.copy()
    scales = _shift_and_margin(ctx._perturbed_degrees)
    if not np.isfinite(scales).all():
        return None

    # x is an (n + 1,) vector or an (n + 1, b) block whose row n is zero, c
    # one of m + 1 entries or rows whose row m is zero
    def z_t(x):  # Z^T x
        t = (loads @ x[rows].reshape(*rows.shape, -1)).reshape(-1, *x.shape[1:])
        return t[one_end] + t[other_end]

    def z(per_block, c, x):  # Z c, or G Z c, on the touched rows: to add to x[rows]
        return (per_block @ c[ends].reshape(*ends.shape, -1)).reshape(rows.shape + x.shape[1:])

    single = np.empty(n + 1)  # a single vector's apply

    def shifted_inverse(shift):
        """(D + Z C Z^T + shift I)^-1 as an apply, or None where K cannot be inverted."""
        inverse = np.zeros(n + 1)  # G's diagonal, and 0 at row n
        with np.errstate(divide="ignore"):  # a base eigenvalue at -shift: inf, refused below
            np.divide(1.0, values + shift, out=inverse[:n])
        inverse_rows = inverse[rows]
        solve = _inverse_woodbury(_schur(stack, inverse_rows, weights), shift > 0)
        if solve is None or not np.isfinite(inverse).all():
            return None
        scaled_loads = loads.transpose(0, 2, 1) * inverse_rows[:, :, None]  # G Z, per block

        def shift_inverse(y):
            """G y - G Z K^-1 Z^T G y; a single vector's result is overwritten by the next."""
            out = single if y.ndim == 1 else np.empty((n + 1, y.shape[1]))
            out[n] = 0.0
            np.multiply(y.T, inverse[:n], out=out[:n].T)
            out[rows] -= z(scaled_loads, solve @ z_t(out), out)
            return out[:n]

        return shift_inverse

    def operator(x):  # D x + Z C Z^T x
        padded = np.zeros((n + 1, x.shape[1]))
        padded[:n] = x
        loaded = np.zeros((m + 1, x.shape[1]))
        loaded[:m] = weights[:, None] * z_t(padded)
        padded[:n] *= values[:, None]
        padded[rows] += z(loads.transpose(0, 2, 1), loaded, padded)
        return padded[:n]

    shift_inverse = shifted_inverse(scales[0])
    if shift_inverse is None:
        return None
    split = None
    nulls = int(np.count_nonzero(zero_eigenvalues(ctx.base_values, ctx._base_degrees)))
    # Two runs pay off only where their two bases together are smaller than
    # the space; where they are not, one run's basis nearly spans it and
    # can see a copy of a repeated eigenvalue that a smaller upper basis
    # misses (on 26 vertices, a basis of 20 missed a copy of 4 that one of
    # 25 found).
    if 0 < nulls < k and _basis_size(n, nulls) + _basis_size(n, k - nulls) < n:
        above = float(ctx.base_values[nulls])  # d_{j+1}

        def interior(top):
            if not top < above:
                return None
            sigma = above - INTERIOR_SHIFT_FRACTION * (above - top)
            inverse = shifted_inverse(-sigma)
            return None if inverse is None else (sigma, inverse)

        split = nulls, interior
    spectrum = _lanczos_lowest(
        graph, k, ctx.count_perturbed_below, operator, shift_inverse, scales, split
    )
    if spectrum is None:
        return None
    vals, coefficients = spectrum
    return vals, _to_vertices(ctx, coefficients)


def _to_vertices(ctx, coefficients: np.ndarray) -> np.ndarray:
    """x = Q y for the (n, k) coefficients y in the base's eigenbasis, cluster by cluster."""
    vecs = np.empty(coefficients.shape)
    first = 0
    for members, _, basis in ctx._cluster_eigh:
        vecs[members] = basis @ coefficients[first:first + len(members)]
        first += len(members)
    return vecs


def perturbed_eigenpairs(ctx, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The 1 <= k <= n lowest eigenpairs of a ``GraphPerturbation``'s perturbed Laplacian.

    With no added edge (m = 0), Ltilde = L, and they are the base's k lowest
    eigenpairs, read off the clusters' eigenpairs (ties in label order). A
    perturbed degree past the float range is an inf entry of Ltilde, which
    has no float spectrum then: every eigenvalue and eigenvector entry is
    NaN, and nothing is solved. The eigenbasis solve, checked by the
    low-rank count, comes first when k < n and 0 < m < n edges were added;
    where it fails or is not trusted, the perturbed graph is solved as a
    standalone graph (``lowest_eigenpairs``).
    """
    n, m = ctx.perturbed.n_vertices, len(ctx.added[2])
    if ctx._perturbed_overflows:
        return np.full(k, np.nan), np.full((n, k), np.nan)
    if m == 0:
        values = np.concatenate([vals for _, vals, _ in ctx._cluster_eigh])
        lowest = np.argsort(values, kind="stable")[:k]
        coefficients = np.zeros((n, k))
        coefficients[lowest, np.arange(k)] = 1.0
        return values[lowest], _to_vertices(ctx, coefficients)
    if k < n and m < n:
        spectrum = _eigenbasis_lowest(ctx, k)
        if spectrum is not None:
            return spectrum
    return lowest_eigenpairs(ctx.perturbed, k)
