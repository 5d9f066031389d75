"""Distance between equal-dimensional subspaces of C^n.

A q-dimensional subspace is represented by an n-by-q column-orthonormal
frame, real or complex. The distance is the Frobenius norm of the difference
of the two orthogonal projectors, scaled by 1/sqrt(2q); it is basis
independent, takes values in [0, 1], and equals 1 exactly for orthogonal
subspaces. Three cheaper equivalent forms are provided: one from the overlap
of the frames, one from the part of the second frame outside the first, and
one from the overlap with the first frame's orthogonal complement.

The overlap and residual forms take their products with the first frame
through its ``coordinates`` and ``combine`` methods. An
:class:`IndicatorFrame` (normalized class indicators, such as a graph cut's)
forms both in one pass over its labels instead of a matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, FullSpace, InvalidConfig, NotOrthonormal, RankDeficient

ORTHONORMALITY_TOL = 1e-10
# The complement sweep keeps a standard basis vector's residual (under the
# complement projector, less the directions kept so far) only if it is
# longer than this.
COMPLEMENT_RESIDUAL_TOL = 1e-7


@dataclass(frozen=True)
class OrthonormalFrame:
    """Immutable n-by-q matrix with orthonormal columns, real or complex.

    The constructor validates orthonormality (||F^H F - I||_F <= 1e-10 sqrt(q))
    and rejects bad input instead of silently re-orthonormalizing. The
    columns are copied: complex input as complex128, any other as float64, so
    a real frame stays real and its products run in real arithmetic.
    """

    columns: np.ndarray

    def __post_init__(self):
        cols = np.array(self.columns, dtype=complex if np.iscomplexobj(self.columns) else float)
        if cols.ndim != 2:
            raise DimensionMismatch(f"frame must be 2-d, got ndim={cols.ndim}")
        n, q = cols.shape
        if not 1 <= q <= n:
            raise DimensionMismatch(f"need 1 <= q <= n, got n={n}, q={q}")
        gram_defect = np.linalg.norm(cols.conj().T @ cols - np.eye(q))
        if gram_defect > ORTHONORMALITY_TOL * np.sqrt(q):
            raise NotOrthonormal(
                f"columns are not orthonormal: ||F^H F - I||_F = {gram_defect:.3e}"
            )
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def q(self) -> int:
        return self.columns.shape[1]

    def projector(self) -> np.ndarray:
        """The n-by-n orthogonal projector onto the spanned subspace."""
        return self.columns @ self.columns.conj().T

    def coordinates(self, y: np.ndarray) -> np.ndarray:
        """F^H Y, the (q, k) coordinates of the projections of Y's k columns."""
        return self.columns.conj().T @ y

    def combine(self, c: np.ndarray) -> np.ndarray:
        """F C, the (n, k) combinations of the columns with coefficients C (q, k)."""
        return self.columns @ c


class IndicatorFrame(OrthonormalFrame):
    """The normalized indicator columns of n points labelled with q classes.

    Column j is 1/sqrt(|class j|) on the points labelled j and 0 elsewhere,
    so the columns are orthonormal by construction: what is checked is the
    labels (a 1-d array of integers in [0, q) using every class). Both
    products take one pass over the labels: ``coordinates`` adds up Y's
    rows per class, scaled (F^T as a sparse matrix with one entry per point),
    and ``combine`` gives point x row labels[x] of the scaled C. So
    Y - F F^T Y is Y less its class means, in O(n k) where the dense
    products take O(n q k).
    """

    def __init__(self, labels, q: int):
        labels = np.array(labels, dtype=np.int64)
        if labels.ndim != 1 or not 1 <= q <= len(labels):
            raise DimensionMismatch(f"need 1 <= q <= n labels, got q={q}, shape {labels.shape}")
        if labels.min() < 0 or labels.max() >= q:
            raise DimensionMismatch(f"labels must lie in [0, {q})")
        sizes = np.bincount(labels, minlength=q)
        if not sizes.all():
            raise RankDeficient(f"class {int(np.argmin(sizes))} of {q} is empty")
        scale = 1.0 / np.sqrt(sizes)
        cols = np.zeros((len(labels), q))
        cols[np.arange(len(labels)), labels] = scale[labels]
        for name, value in (("columns", cols), ("labels", labels), ("_scale", scale)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @cached_property
    def _transpose(self):
        """F^T as a (q, n) CSR matrix, each row's points ascending."""
        from scipy.sparse import csr_array  # loads scipy.sparse on first use

        labels = self.labels
        return csr_array((self._scale[labels], (labels, np.arange(len(labels)))),
                         shape=(self.q, len(labels)))

    def coordinates(self, y: np.ndarray) -> np.ndarray:
        return self._transpose @ y

    def combine(self, c: np.ndarray) -> np.ndarray:
        scale = self._scale.reshape((-1,) + (1,) * (np.ndim(c) - 1))  # one per row of C
        return (c * scale)[self.labels]


def orthonormalize(raw, tol: float = 1e-12) -> OrthonormalFrame:
    """Orthonormalize the columns of ``raw`` (modified Gram-Schmidt).

    Column directions are preserved (no sign or phase flips), so an already
    orthonormal input comes back unchanged. Raises RankDeficient when a
    column's residual after projecting out the previous ones drops to
    ``tol * ||raw||_F`` or below, and InvalidConfig for a ``tol`` that is
    negative, infinite or NaN (a NaN or negative one would switch that test
    off).
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidConfig(f"tolerance must be a finite number >= 0, got {tol}")
    mat = np.array(raw, dtype=complex)
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={mat.ndim}")
    scale = np.linalg.norm(mat)
    done: list[np.ndarray] = []
    for k in range(mat.shape[1]):
        v = mat[:, k].copy()
        for _ in range(2):  # second pass restores orthogonality lost to rounding
            for u in done:
                v -= u * (u.conj() @ v)
        norm_v = np.linalg.norm(v)
        if norm_v <= tol * scale:
            raise RankDeficient(
                f"column {k} is dependent on the previous ones "
                f"(residual {norm_v:.3e} <= {tol:g} * {scale:.3e})"
            )
        done.append(v / norm_v)
    return OrthonormalFrame(np.column_stack(done))


def complement_frame(frame: OrthonormalFrame) -> OrthonormalFrame:
    """An orthonormal basis of the orthogonal complement of ``frame``.

    Built by orthonormalizing the residual of the standard basis under the
    projector onto the complement; any valid complement would do since the
    distance functions are basis independent.
    """
    n, q = frame.n, frame.q
    if q == n:
        raise FullSpace("frame already spans the whole space")
    residual = np.eye(n, dtype=complex) - frame.projector()
    basis: list[np.ndarray] = []
    for i in range(n):
        v = residual[:, i].copy()
        for _ in range(2):
            for u in basis:
                v -= u * (u.conj() @ v)
        norm_v = np.linalg.norm(v)
        if norm_v > COMPLEMENT_RESIDUAL_TOL:
            basis.append(v / norm_v)
        if len(basis) == n - q:
            break
    if len(basis) != n - q:  # the residual projector has rank exactly n - q
        raise RankDeficient(
            f"complement sweep found {len(basis)} directions, expected {n - q}"
        )
    return OrthonormalFrame(np.column_stack(basis))


def _check_compatible(x: OrthonormalFrame, y: OrthonormalFrame):
    if x.n != y.n or x.q != y.q:
        raise DimensionMismatch(
            f"frames must share (n, q); got ({x.n}, {x.q}) and ({y.n}, {y.q})"
        )


def dsp_projector(x: OrthonormalFrame, y: OrthonormalFrame) -> float:
    """Subspace distance from the definition: projector difference in Frobenius norm."""
    _check_compatible(x, y)
    diff = x.projector() - y.projector()
    return float(np.linalg.norm(diff) / np.sqrt(2 * x.q))


def dsp_overlap(x: OrthonormalFrame, y: OrthonormalFrame) -> float:
    """Equivalent form sqrt(1 - ||X^H Y||_F^2 / q).

    The radicand is clamped at 0: rounding can push it a hair below zero for
    identical subspaces.
    """
    _check_compatible(x, y)
    overlap = np.linalg.norm(x.coordinates(y.columns)) ** 2 / x.q
    return float(np.sqrt(max(0.0, 1.0 - overlap)))


def dsp_residual(x: OrthonormalFrame, y: OrthonormalFrame) -> float:
    """Equivalent form ||Y - X (X^H Y)||_F / sqrt(q), in O(n q^2) (O(n q) for an IndicatorFrame X).

    The part of Y outside span(X); unlike the overlap form it involves no
    cancellation, so small distances keep their relative accuracy.
    """
    _check_compatible(x, y)
    outside = x.combine(x.coordinates(y.columns))
    np.subtract(y.columns, outside, out=outside)
    return float(np.linalg.norm(outside) / np.sqrt(x.q))


def dsp_complement(x_perp: OrthonormalFrame, y: OrthonormalFrame) -> float:
    """Equivalent form sqrt(||Xperp^H Y||_F^2 / q), with Xperp a complement frame.

    ``x_perp`` must have n - q columns, where q is the column count of ``y``.
    """
    if x_perp.n != y.n or x_perp.q != y.n - y.q:
        raise DimensionMismatch(
            f"complement frame must be {y.n}x{y.n - y.q}, got {x_perp.n}x{x_perp.q}"
        )
    cross = np.linalg.norm(x_perp.columns.conj().T @ y.columns) ** 2 / y.q
    return float(np.sqrt(max(0.0, cross)))
