"""Distances between finite multisets of complex points.

Provides separation (min-min), Hausdorff distance, and diameter, plus the
separation-preserving perturbation machinery: given two well-separated sets
P, Q and a perturbed set R of their union, classify each point of R to the
nearer original set. Under a strict condition on the perturbation size the
resulting split is a genuine partition and keeps the two groups separated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditionViolated, EmptySet


@dataclass(frozen=True)
class PointMultiset:
    """Finite multiset of complex points (order and multiplicity preserved)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.array(self.values, dtype=complex))
        if vals.ndim != 1:
            raise ValueError("point multiset must be one-dimensional")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


def _as_points(obj) -> np.ndarray:
    if isinstance(obj, PointMultiset):
        arr = obj.values
    else:
        arr = np.atleast_1d(np.asarray(obj, dtype=complex))
    if arr.size == 0:
        raise EmptySet("point set must be non-empty")
    return arr


def _cross_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a[:, None] - b[None, :])


def sep(a, b) -> float:
    """Separation: the smallest distance between any point of ``a`` and any of ``b``."""
    return float(_cross_dist(_as_points(a), _as_points(b)).min())


def hausdorff(a, b) -> float:
    """Hausdorff distance: the larger of the two directed max-min distances."""
    d = _cross_dist(_as_points(a), _as_points(b))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def diam(a) -> float:
    """Diameter: the largest pairwise distance within ``a`` (0 for a singleton)."""
    pts = _as_points(a)
    return float(_cross_dist(pts, pts).max())


def _lemma_terms(p, q, r_tilde) -> tuple[dict, np.ndarray, np.ndarray, float, float]:
    """The separation lemma's terms, read off one |P u Q - R| table.

    :func:`sep_preserving_check`'s verdict, each point of R's distance to P and
    to Q (the table's two row blocks), d_H(P u Q, R) and sep(P, Q).
    """
    pp, qq, rr = _as_points(p), _as_points(q), _as_points(r_tilde)
    table = _cross_dist(np.concatenate([pp, qq]), rr)
    dist_p, dist_q = table[: len(pp)].min(axis=0), table[len(pp):].min(axis=0)
    nearest = float(np.minimum(dist_p, dist_q).max())
    dh = max(float(table.min(axis=1).max()), nearest)
    lhs, separation = nearest + dh, sep(pp, qq)
    check = {"holds_full": lhs < separation, "holds_simple": dh < 0.5 * separation,
             "margin": separation - lhs}
    return check, dist_p, dist_q, dh, separation


def sep_preserving_check(p, q, r_tilde) -> dict:
    """Evaluate the separation-preservation conditions for the triple.

    Returns ``holds_full`` (the strict condition
    ``max_{r in R} min_{s in P u Q} d(s, r) + d_H(P u Q, R) < sep(P, Q)``),
    ``holds_simple`` (the easier sufficient condition
    ``d_H(P u Q, R) < sep(P, Q) / 2``), and ``margin`` = sep minus the
    left-hand side of the full condition.
    """
    return _lemma_terms(p, q, r_tilde)[0]


@dataclass(frozen=True)
class SetPartitionResult:
    """Nearest-set classification of a perturbed set into two groups.

    ``p_tilde`` and ``q_tilde`` are index lists into the perturbed set; they
    are disjoint and together cover it. ``new_sep_lower_bound`` is the
    guaranteed lower bound sep(P, Q) - 2 d_H(P u Q, R) on the separation of
    the produced groups.
    """

    p_tilde: tuple[int, ...]
    q_tilde: tuple[int, ...]
    sep_pq: float
    hausdorff_pq_r: float
    new_sep_lower_bound: float


def sep_preserving_partition(p, q, r_tilde) -> SetPartitionResult:
    """Split the perturbed set by nearest original group.

    Requires the strict condition from :func:`sep_preserving_check`; raises
    ConditionViolated (carrying the margin) otherwise. A point exactly
    equidistant from P and Q goes to the P side; that can only happen through
    rounding since the strict condition excludes true ties.
    """
    check, dist_p, dist_q, dh, separation = _lemma_terms(p, q, r_tilde)
    if not check["holds_full"]:
        raise ConditionViolated(
            f"separation-preservation condition fails (margin {check['margin']:.6g})",
            margin=check["margin"],
        )
    to_p = dist_p <= dist_q  # exact comparison; ties resolved toward P
    return SetPartitionResult(
        p_tilde=tuple(np.flatnonzero(to_p).tolist()),
        q_tilde=tuple(np.flatnonzero(~to_p).tolist()),
        sep_pq=separation,
        hausdorff_pq_r=dh,
        new_sep_lower_bound=separation - 2.0 * dh,
    )
