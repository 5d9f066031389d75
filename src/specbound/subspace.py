"""Distance between equal-dimensional subspaces of C^n.

A q-dimensional subspace is represented by an n-by-q column-orthonormal
frame. The distance is the Frobenius norm of the difference of the two
orthogonal projectors, scaled by 1/sqrt(2q); it is basis independent, takes
values in [0, 1], and equals 1 exactly for orthogonal subspaces. Three cheaper
equivalent forms are provided: one from the overlap of the frames, one from
the part of the second frame outside the first, and one from the overlap
with the first frame's orthogonal complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FullSpace, InvalidConfig, NotOrthonormal, RankDeficient

ORTHONORMALITY_TOL = 1e-10
# The complement sweep keeps a standard basis vector's residual (under the
# complement projector, less the directions kept so far) only if it is
# longer than this.
COMPLEMENT_RESIDUAL_TOL = 1e-7


@dataclass(frozen=True)
class OrthonormalFrame:
    """Immutable n-by-q complex matrix with orthonormal columns.

    The constructor validates orthonormality (||F^H F - I||_F <= 1e-10 sqrt(q))
    and rejects bad input instead of silently re-orthonormalizing. Real input
    is promoted to complex.
    """

    columns: np.ndarray

    def __post_init__(self):
        cols = np.array(self.columns, dtype=complex)
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
    overlap = np.linalg.norm(x.columns.conj().T @ y.columns) ** 2 / x.q
    return float(np.sqrt(max(0.0, 1.0 - overlap)))


def dsp_residual(x: OrthonormalFrame, y: OrthonormalFrame) -> float:
    """Equivalent form ||Y - X (X^H Y)||_F / sqrt(q), in O(n q^2).

    The part of Y outside span(X); unlike the overlap form it involves no
    cancellation, so small distances keep their relative accuracy.
    """
    _check_compatible(x, y)
    outside = y.columns - x.columns @ (x.columns.conj().T @ y.columns)
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
