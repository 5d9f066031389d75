"""Eigendecomposition of normal matrices and elementary perturbation identities.

The decomposition rests on LAPACK's Hermitian solver. A normal matrix
commutes with its Hermitian part, so each eigenspace of that part is
invariant under the matrix: in the Hermitian part's eigenbasis Q the matrix
Q^H M Q is block diagonal, one block per repeated eigenvalue of the
Hermitian part, and diagonal where its eigenvalues are simple. Hermitian
input is finished after that one solve. Otherwise each block that stays
coupled, and only those, is rotated into the eigenbasis of its
skew-Hermitian part (one more Hermitian solve): that part commutes with the
Hermitian part, so the rotation diagonalizes the block (the simultaneous
diagonalization of Bunse-Gerstner, Byers and Mehrmann, SIAM J. Matrix Anal.
Appl., 1993). Only a block that the rotation leaves coupled, from input
normal only to about the coupling threshold, gets a complex Schur
factorization from scipy. Every basis is unitary by construction, which
keeps degenerate eigenvalue clusters well-behaved. The input is turned by a
fixed angle first, so that conjugate pairs and purely imaginary spectra,
whose real parts coincide, do not form blocks. Eigenvalues are sorted
lexicographically by (real, imag) so results are reproducible; ordering is
bookkeeping only, never semantics.

A :class:`PerturbationContext` holds one (base, perturbed, Mtilde - M)
triple and the tables read off it, each computed once, on first read. It is
the only input of the bound families (which take blocks of splits, see
``split_block``) and of the cross-checks below.

On top of the decomposition sit three cheap cross-checks relating a
perturbation to the two spectra: the coupling-matrix identity
``(lam'_{j'} - lam_j) u_j^H v_{j'} = u_j^H (Mtilde - M) v_{j'}``, the
per-eigenvector residual-norm sum formulas it implies, and the resulting
one-sided Hausdorff bound on eigenvalue movement (Bauer-Fike for normal
matrices). The first two read one side from the context and form only the
other, so each stays an independent check, and both decide through
``slack.agrees`` at the pair's scale ||M||_2 + ||Mtilde||_2 + ||Mtilde - M||_F:
both sides carry eigenvalue rounding of about eps times it, whatever the
size of the perturbation. The third reads the context's gap table.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, NotNormal, NotSquare, SizeMismatch
from .setdist import PointMultiset
from .slack import agrees, power_of_two_at_most
from .subspace import OrthonormalFrame

RECONSTRUCTION_RTOL = 1e-8
NORMALITY_TOL = 1e-8  # decompose_normal: ||M M^H - M^H M||_F <= this * ||M||_F^2
# Input within this of Hermitian, relative to ||M||_F, is decomposed by eigh
# alone.
HERMITIAN_REL_TOL = 1e-12
# Other input M is turned by exp(-i HERMITIAN_PART_ANGLE) before its Hermitian
# part is taken, so that eigenvalues whose real parts coincide (conjugate
# pairs, purely imaginary spectra) project to distinct eigenvalues of it.
HERMITIAN_PART_ANGLE = 1.0
_TURN = complex(math.cos(HERMITIAN_PART_ANGLE), -math.sin(HERMITIAN_PART_ANGLE))
# An off-diagonal entry of Q^H M Q couples its row and column when it is above
# COUPLING_REL_TOL ||M||_F (a rounding-level multiple of the norm) and above
# the input's own departure from normality, estimated as
# ||M M^H - M^H M||_F / ||M||_F; smaller entries are dropped. The estimate is
# capped at DROPPED_RESIDUAL_SHARE * RECONSTRUCTION_RTOL * ||M||_2 / sqrt(n),
# so that what is dropped from a column takes at most that share of the
# eigenpair-residual check's allowance.
COUPLING_REL_TOL = 1e-14
DROPPED_RESIDUAL_SHARE = 0.25
# Real parts within this, relative to ||M||_2, sort as equal.
SORT_TIE_REL_TOL = 1e-12


@dataclass(frozen=True)
class IndexPartition:
    """A size-q subset of {0..n-1} together with its implicit complement."""

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate indices in partition")
        if not idx or idx[0] < 0 or idx[-1] >= self.n:
            raise ValueError(f"indices must lie in [0, {self.n}) and be non-empty")
        if len(idx) >= self.n:
            raise ValueError("partition must leave a non-empty complement")
        object.__setattr__(self, "indices", idx)

    @property
    def q(self) -> int:
        return len(self.indices)

    @cached_property
    def complement(self) -> tuple[int, ...]:
        members = set(self.indices)
        return tuple(i for i in range(self.n) if i not in members)

    @cached_property
    def mask(self) -> np.ndarray:
        """The (n,) boolean indicator of the indices: this split's row in a block."""
        mask = np.zeros(self.n, dtype=bool)
        mask[list(self.indices)] = True
        return _read_only(mask)


class Digest:
    """The first 12 hex digits of a sha256 of ``parts``, taken on the first ``str()``.

    An array part is hashed by its bytes and any other part by its repr (a
    Digest's repr is its string's). A callable part is called then, and its
    result hashed in its place, so a part that costs a pass to build is
    built only if the digest is read. The parts are dropped once hashed.
    """

    __slots__ = ("_parts", "_hex")

    def __init__(self, *parts):
        self._parts, self._hex = parts, None

    def __str__(self) -> str:
        parts = self._parts
        if parts is not None:  # not hashed yet (another thread may be hashing them too)
            h = hashlib.sha256()
            for part in parts:
                part = part() if callable(part) else part
                if isinstance(part, np.ndarray):
                    h.update(np.ascontiguousarray(part))
                else:
                    h.update(repr(part).encode())
            self._hex, self._parts = h.hexdigest()[:12], None  # in this order
        return self._hex

    def __repr__(self) -> str:
        return repr(str(self))


@dataclass(frozen=True)
class NormalEigenSystem:
    """Full eigensystem of one normal matrix.

    ``eigenvalues[j]`` pairs with column j of ``eigenvectors``; the basis is
    unitary, and for degenerate eigenvalues any orthonormal basis of the
    eigenspace is considered valid (consumers must only rely on spans and
    basis-invariant quantities). ``source_norm`` caches the matrix 2-norm,
    which for a normal matrix is its largest eigenvalue modulus.
    """

    n: int
    eigenvalues: np.ndarray
    eigenvectors: OrthonormalFrame
    source_norm: float

    @property
    def eigenvalue_multiset(self) -> PointMultiset:
        return PointMultiset(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        """U diag(eigenvalues) U^H."""
        u = self.eigenvectors.columns
        return (u * self.eigenvalues[None, :]) @ u.conj().T


def _as_square(m) -> np.ndarray:
    mat = np.array(m, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {mat.shape}")
    return mat


def commutator_norm(m) -> float:
    """||M M^H - M^H M||_F, the defect of normality."""
    mat = _as_square(m)
    mh = mat.conj().T
    return float(np.linalg.norm(mat @ mh - mh @ mat))


def two_norm(m) -> float:
    """Matrix 2-norm (largest singular value)."""
    return float(np.linalg.norm(np.asarray(m), 2))


def _lexicographic_order(eigvals: np.ndarray, scale: float) -> np.ndarray:
    """Sort by (real, imag), treating real parts within noise as equal.

    After one ``lexsort`` by (real, imag), neighbours whose real parts differ by
    at most ``SORT_TIE_REL_TOL * scale`` share a group (ties chain); a
    second, stable ``lexsort`` by (group, imag) orders each group. Without the
    groups, rounding noise in a real part (e.g. 2.8e-17 vs an exact 0) would
    scramble the within-group imaginary order and make the reported ordering
    input-noise dependent.
    """
    order = np.lexsort((eigvals.imag, eigvals.real))
    real = eigvals.real[order]
    starts = real[1:] - real[:-1] > SORT_TIE_REL_TOL * scale
    if starts.all():
        return order
    group = np.concatenate(([0], np.cumsum(starts)))
    return order[np.lexsort((eigvals.imag[order], group))]


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def _coupled(t: np.ndarray, threshold: float) -> np.ndarray:
    """Where an off-diagonal entry of ``t`` is above ``threshold``."""
    coupled = np.abs(t) > threshold
    np.fill_diagonal(coupled, False)
    return coupled


def _diagonalize_blocks(t: np.ndarray, q: np.ndarray, threshold: float):
    """Eigenvalues and unitary eigenvectors of M, from T = Q^H M Q and Q.

    Off-diagonal entries of T at most ``threshold`` are dropped. Each
    contiguous run of indices tied together by a larger entry is one block
    B; outside the blocks, T's diagonal holds the eigenvalues and Q's columns
    are the eigenvectors. B is normal, so the Hermitian and skew-Hermitian
    parts of e^{-i HERMITIAN_PART_ANGLE} B commute, and one ``eigh`` of the
    Hermitian matrix -i times the skew-Hermitian part gives a basis U that
    diagonalizes B where the Hermitian part is constant on the block, as it
    is up to rounding for exactly normal input: the eigenvalues are then the
    diagonal of U^H B U. A block that U^H B U leaves coupled above
    ``threshold`` (input normal only to about that level) gets a complex
    Schur factorization instead.
    """
    eigvals = np.diag(t).copy()
    coupled = _coupled(t, threshold)
    if not coupled.any():
        return eigvals, q
    rows, cols = np.nonzero(coupled)
    reach = np.arange(len(t))  # the last index each index is tied to
    np.maximum.at(reach, np.minimum(rows, cols), np.maximum(rows, cols))
    ends = np.flatnonzero(np.maximum.accumulate(reach) == np.arange(len(t))) + 1
    vecs = q.copy()
    for start, end in zip(np.r_[0, ends[:-1]], ends):
        if end - start > 1:
            block = t[start:end, start:end]
            _, basis = np.linalg.eigh(_hermitian_part(-1j * _TURN * block))
            rotated = basis.conj().T @ block @ basis
            if _coupled(rotated, threshold).any():
                from scipy.linalg import schur  # loads scipy.linalg on first use

                rotated, basis = schur(block, output="complex")
            eigvals[start:end] = np.diag(rotated)
            vecs[:, start:end] = q[:, start:end] @ basis
    return eigvals, vecs


def decompose_normal(m, tol: float = NORMALITY_TOL) -> NormalEigenSystem:
    """Eigendecompose a normal matrix into a unitary basis and sorted spectrum.

    ``tol`` scales the normality test: the commutator Frobenius norm must not
    exceed ``tol * ||M||_F^2`` (user matrices arrive from floating-point
    pipelines, hence the relative form). Raises NotNormal or NotSquare on bad
    input, ValueError on a NaN or infinite entry, and its subclass
    InvalidConfig on an eigenvalue beyond the float range or a ``tol`` that is
    negative, infinite or NaN (a NaN would switch the normality test off).

    M / 2^e is decomposed, with 2^e the largest power of two at most its
    largest real or imaginary part, so no test depends on M's scale; the
    sorted eigenvalues and ||M||_2 are multiplied back at the end. The
    division is exact but for parts below 2^(e - 1022), which lose bits to
    the subnormal range: input whose parts span more than 2^1022 loses them,
    by less than the decomposition's normwise error eps ||M||_2.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidConfig(f"tolerance must be a finite number >= 0, got {tol}")
    mat = _as_square(m)
    parts = mat.view(float)
    if not np.isfinite(parts).all():
        raise ValueError("matrix entries must be finite")
    scale = power_of_two_at_most(float(np.abs(parts).max(initial=0.0)))  # M = scale * mat
    parts /= scale
    comm = commutator_norm(mat)
    fro = float(np.linalg.norm(mat))
    limit = tol * fro**2
    if comm > limit:  # reported in M's own units
        comm, limit = comm * scale * scale, limit * scale * scale
        raise NotNormal(f"commutator norm {comm:.3e} exceeds {limit:.3e}", commutator_norm=comm)
    hermitian = np.linalg.norm(mat - mat.conj().T) <= HERMITIAN_REL_TOL * fro
    eigvals_real, vecs = np.linalg.eigh(_hermitian_part(mat if hermitian else _TURN * mat))
    if hermitian:
        eigvals = eigvals_real.astype(complex)
    else:
        t = vecs.conj().T @ (mat @ vecs)
        norm2_floor = float(np.abs(np.diag(t)).max())  # Rayleigh quotients: <= ||M||_2
        cap = DROPPED_RESIDUAL_SHARE * RECONSTRUCTION_RTOL * norm2_floor / math.sqrt(len(t))
        threshold = max(COUPLING_REL_TOL * fro, min(comm / fro, cap))
        eigvals, vecs = _diagonalize_blocks(t, vecs, threshold)
    norm2 = float(np.abs(eigvals).max(initial=0.0))  # ||M||_2 of a normal matrix
    order = _lexicographic_order(eigvals, norm2)
    eigvals = eigvals[order]
    vecs = np.ascontiguousarray(vecs[:, order])
    frame = OrthonormalFrame(vecs)
    worst = float(np.max(np.linalg.norm(mat @ vecs - vecs * eigvals[None, :], axis=0)))
    if worst > RECONSTRUCTION_RTOL * norm2:
        raise NotNormal(
            f"eigenpair residual {worst:.3e} exceeds "
            f"{RECONSTRUCTION_RTOL:g} * ||M||_2; matrix is too far from normal"
        )
    norm2 *= scale  # a Python float: inf past the float range, without a warning
    if not math.isfinite(norm2):
        raise InvalidConfig("an eigenvalue's modulus overflows the float range")
    eigvals = eigvals * scale  # no part overflows: each is at most its modulus
    eigvals.setflags(write=False)
    return NormalEigenSystem(
        n=mat.shape[0], eigenvalues=eigvals, eigenvectors=frame, source_norm=norm2
    )


@dataclass(frozen=True, eq=False)
class PerturbationContext:
    """One (base, perturbed, Mtilde - M) triple and the tables read off it.

    Build it once per matrix pair and pass it to every bound family and
    cross-check; it is their only source of the pair. Each derived quantity
    below is computed on its first read and then shared, so the
    perturbation's 2-norm is one SVD, the residuals one matrix product and
    ``U^H V`` another, however many families and index sets are evaluated.
    ``perturbed`` must be the decomposition of ``base``'s matrix plus
    ``diff``; ``diff`` is kept as a read-only complex copy.
    """

    base: NormalEigenSystem
    perturbed: NormalEigenSystem
    diff: np.ndarray

    def __post_init__(self):
        diff = _as_square(self.diff)
        if not (self.base.n == self.perturbed.n == diff.shape[0]):
            raise DimensionMismatch(
                f"sizes differ: {self.base.n}, {self.perturbed.n}, {diff.shape[0]}"
            )
        diff.setflags(write=False)
        object.__setattr__(self, "diff", diff)

    @cached_property
    def op_norm(self) -> float:
        """||Mtilde - M||_2."""
        return two_norm(self.diff)

    @cached_property
    def frob_norm(self) -> float:
        """||Mtilde - M||_F; inf on overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.linalg.norm(self.diff))

    @cached_property
    def residuals(self) -> np.ndarray:
        """``residuals[j] = ||(Mtilde - M) u_j||`` for every base eigenvector; inf on overflow."""
        u = self.base.eigenvectors.columns
        with np.errstate(over="ignore", invalid="ignore"):
            return _read_only(np.linalg.norm(self.diff @ u, axis=0))

    @cached_property
    def gaps(self) -> np.ndarray:
        """``gaps[j, j'] = |lam'_{j'} - lam_j|``: base rows, perturbed columns; inf on overflow."""
        lam, lam_t = self.base.eigenvalues, self.perturbed.eigenvalues
        with np.errstate(over="ignore", invalid="ignore"):
            return _read_only(np.abs(lam_t[None, :] - lam[:, None]))

    @cached_property
    def inner(self) -> np.ndarray:
        """``inner[j, j'] = u_j^H v_{j'}``, the complex table U^H V."""
        u, v = self.base.eigenvectors.columns, self.perturbed.eigenvectors.columns
        return _read_only(u.conj().T @ v)

    @cached_property
    def overlaps(self) -> np.ndarray:
        """``overlaps[j, j'] = |u_j^H v_{j'}|^2``; every row sums to 1."""
        return _read_only(np.abs(self.inner) ** 2)

    @cached_property
    def lazy_digest(self) -> Digest:
        """A hash of both spectra and Mtilde - M, which every entry's digest builds on."""
        return Digest(self.base.eigenvalues, self.perturbed.eigenvalues, self.diff)

    @property
    def digest(self) -> str:
        """``lazy_digest`` as a string."""
        return str(self.lazy_digest)

    def split_gaps(self, a, a_tilde) -> SplitGaps:
        """The gaps table's minima over a block of splits, row i pairing A with A~.

        ``a`` and ``a_tilde`` are IndexPartitions or (k, n) blocks (see
        ``split_block``). The families of one block read the same minima, so
        the last block's are kept, keyed by both masks and their shape: a
        block is checked once. Raises what ``split_block`` raises, and its
        subclass SizeMismatch when |A| != |A~| in a row.
        """
        a, a_tilde = _as_block(a, copy=False), _as_block(a_tilde, copy=False)
        key = (a.shape, a_tilde.shape, a.tobytes(), a_tilde.tobytes())
        last = self.__dict__.get("_last_split")
        if last is None or last[0] != key:
            a, a_tilde, q = split_pair(self, a, a_tilde)
            # Each lam_j's distance to A~ and to B~, then to its own group and the other.
            to_groups = np.minimum.reduce(
                np.where(sides_of(a_tilde)[:, :, None, :], self.gaps, np.inf), axis=-1)
            own_other = np.where(a[:, None, :], to_groups, to_groups[:, ::-1])
            gaps = SplitGaps(a, a_tilde, q, sides_of(a), own_other[:, 0], own_other[:, 1])
            last = self.__dict__["_last_split"] = (key, gaps)
        return last[1]


def _as_block(part, copy: bool = True) -> np.ndarray:
    if isinstance(part, IndexPartition):
        return part.mask[None]
    return np.array(part, dtype=bool) if copy else np.asarray(part, dtype=bool)


def split_block(ctx: PerturbationContext, part) -> tuple[np.ndarray, np.ndarray]:
    """``part`` as a (k, n) boolean block of splits, row i marking A of split i, and each |A|.

    An IndexPartition is a block of one. Raises DimensionMismatch when n is
    not the context's, and ValueError when a row leaves A or B empty.
    """
    block, n = _as_block(part), ctx.base.n
    if block.ndim != 2 or block.shape[1] != n:
        raise DimensionMismatch(
            f"splits of n = {block.shape[-1]} (shape {block.shape}) for a pair of n = {n}")
    q = np.add.reduce(block, axis=1)
    if ((q == 0) | (q == n)).any():
        raise ValueError("every split must leave A and its complement non-empty")
    return block, q


def split_pair(ctx: PerturbationContext, a, a_tilde) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both blocks of a block of splits, row i pairing A with A~, and each row's size q.

    Raises what ``split_block`` raises, and its subclass SizeMismatch when
    |A| != |A~| in a row.
    """
    (a, q), (a_tilde, q_tilde) = split_block(ctx, a), split_block(ctx, a_tilde)
    if q.shape != q_tilde.shape or (q != q_tilde).any():
        raise SizeMismatch(f"|A| = {q.tolist()} but |A~| = {q_tilde.tolist()}")
    return a, a_tilde, q


class SplitGaps(NamedTuple):
    """A block of splits, with each base eigenvalue's gaps to its split's groups.

    Row i splits the base indices into A | B by ``a[i]`` and the perturbed
    ones into A~ | B~ by ``a_tilde[i]``, with |A| = |A~| = ``q[i]``.
    ``own[i, j]`` is lam_j's distance to the nearest perturbed eigenvalue of
    the group matched to j's side (A~ for j in A, B~ for j in B), ``other``
    to the nearest of the other group. ``sides`` is ``sides_of(a)``.
    """

    a: np.ndarray
    a_tilde: np.ndarray
    q: np.ndarray
    sides: np.ndarray
    own: np.ndarray
    other: np.ndarray


_SIDES = np.array([[True], [False]])


def sides_of(a: np.ndarray) -> np.ndarray:
    """(k, 2, n): the A masks of a block in [:, 0] and their complements in [:, 1]."""
    return a[:, None, :] == _SIDES


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CouplingMatrix:
    """Eigenbasis coupling matrix with its identity self-check.

    ``matrix[j, j']`` is ``(lam'_{j'} - lam_j) * u_j^H v_{j'}``, which must
    coincide with ``U^H (Mtilde - M) V``; ``max_abs_error`` is the largest
    elementwise deviation between the two computations and ``self_check_ok``
    records whether every entry agrees (``slack.agrees`` at the pair's scale).
    """

    matrix: np.ndarray
    self_check_ok: bool
    max_abs_error: float


def coupling_matrix(ctx: PerturbationContext) -> CouplingMatrix:
    """Build the coupling matrix elementwise and verify it against U^H (Mtilde-M) V.

    The elementwise side is U^H V Lam' - Lam U^H V, from the context's
    ``inner`` and the two spectra; only U^H (Mtilde - M) V is formed here.
    """
    base, perturbed = ctx.base, ctx.perturbed
    u, v = base.eigenvectors.columns, perturbed.eigenvectors.columns
    direct = ctx.inner * perturbed.eigenvalues[None, :] - base.eigenvalues[:, None] * ctx.inner
    via_matrices = u.conj().T @ ctx.diff @ v
    err = float(np.max(np.abs(direct - via_matrices)))
    ok = bool(agrees(direct, via_matrices, _scale(ctx)).all())
    return CouplingMatrix(matrix=direct, self_check_ok=ok, max_abs_error=err)


def _scale(ctx: PerturbationContext) -> float:
    """The identity checks' scale: ||M||_2 + ||Mtilde||_2 + ||Mtilde - M||_F."""
    return ctx.base.source_norm + ctx.perturbed.source_norm + ctx.frob_norm


@dataclass(frozen=True)
class ResidualNorms:
    """Perturbation residuals per eigenvector, with the sum-formula cross-check.

    ``per_base_vector[j] = ||(Mtilde - M) u_j||_2`` and
    ``per_perturbed_vector[j'] = ||(Mtilde - M) v_{j'}||_2``; each is also
    reproduced through the eigenvalue-gap/overlap sum formula, and
    ``self_check_ok`` reports whether every pair agrees (``slack.agrees`` at
    the pair's scale); ``max_rel_error`` is the largest difference relative to
    the larger side (0 where both vanish).
    """

    per_base_vector: np.ndarray
    per_perturbed_vector: np.ndarray
    op_norm: float
    frob_norm: float
    self_check_ok: bool
    max_rel_error: float


def residual_norms(ctx: PerturbationContext) -> ResidualNorms:
    """The residual norms and their sum-formula cross-check.

    The base residuals, the gap and overlap tables and both norms are the
    context's; only ``||(Mtilde - M) v_{j'}||`` is formed here.
    """
    per_base = ctx.residuals
    per_pert = np.linalg.norm(ctx.diff @ ctx.perturbed.eigenvectors.columns, axis=0)
    weighted = ctx.gaps**2 * ctx.overlaps
    direct = np.concatenate((per_base, per_pert))
    formula = np.concatenate((np.sqrt(weighted.sum(axis=1)), np.sqrt(weighted.sum(axis=0))))
    larger = np.maximum(direct, formula)
    with np.errstate(invalid="ignore"):
        rel = np.abs(direct - formula) / np.where(larger > 0, larger, 1.0)
    return ResidualNorms(
        per_base_vector=per_base,
        per_perturbed_vector=per_pert,
        op_norm=ctx.op_norm,
        frob_norm=ctx.frob_norm,
        self_check_ok=bool(agrees(direct, formula, _scale(ctx)).all()),
        max_rel_error=float(np.max(rel, initial=0.0)),
    )


def bauer_fike_gap(ctx: PerturbationContext) -> float:
    """max over base eigenvalues of the distance to the nearest perturbed one.

    Read off the context's gap table. For normal matrices this never exceeds
    ||Mtilde - M||_2 (a caller-side invariant; the symmetric statement holds
    too, so both directions of the Hausdorff distance are controlled).
    """
    return float(ctx.gaps.min(axis=1).max())
