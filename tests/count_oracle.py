"""The low-rank inertia count one touched cluster at a time: the stacked count's oracle.

This is ``spectra.low_rank_count`` as it ran before the touched clusters'
loads were padded to one ``graphs.LoadStack`` and before the columns next
to the cutoff bordered S(t): per cluster an added edge touches, its own
loads, its term of S(t) added in place with ``np.ix_``, and its share of
the error budget summed on its own. Where this resolves, the stacked count
must return the same integer; where it does not (a cutoff near a pole of
S(t)), the stacked count may resolve.
"""

from __future__ import annotations

import numpy as np

from specbound.spectra import BASE_EIGENVALUE_ERROR, LOAD_ERROR, SCHUR_ROUNDING_ERROR


def load_blocks(ctx):
    """Per cluster an added edge touches: its eigenvalues, loads and edges.

    ``loads[e, i]`` = (E^T z_i)[edges[e]], the entry of the cluster's
    eigenvector z_i at the edge's end in the cluster, negated at the edge's
    v end.
    """
    u, v, _ = ctx.added
    m = len(u)
    ends = np.concatenate((u, v))  # end e is edge e % m; e < m is its u end
    end_labels = np.asarray(ctx.cut.labels)[ends]
    order = np.argsort(end_labels, kind="stable")
    touching = np.split(order, np.cumsum(np.bincount(end_labels, minlength=ctx.cut.q))[:-1])
    blocks = []
    for (members, vals, vecs), mine in zip(ctx._cluster_eigh, touching):
        if len(mine):
            signs = np.where(mine < m, 1.0, -1.0)
            loads = signs[:, None] * vecs[np.searchsorted(members, ends[mine])]
            blocks.append((vals, loads, mine % m))
    return blocks


def low_rank_count(ctx, cutoff: float) -> int | None:
    """#{eigenvalues of the perturbed Laplacian below ``cutoff``}, or None when unresolved."""
    values, weights = ctx.base_values, ctx.added[2]
    if len(weights) >= ctx.base.n_vertices:
        return None
    eps = np.finfo(float).eps
    delta = BASE_EIGENVALUE_ERROR * eps * float(np.max(np.abs(values), initial=0.0))
    if not np.all(np.abs(values - cutoff) > delta):
        return None
    eta = LOAD_ERROR * eps * np.sqrt(2.0 * len(weights))
    schur = np.diag(1.0 / weights)
    terms = float(np.sum(1.0 / weights))  # sum of the terms' norms
    budget = 0.0
    for vals, loads, edges in load_blocks(ctx):
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
    if not np.isfinite(schur).all():  # a weight's reciprocal past the float range
        return None
    sigma = np.linalg.eigvalsh(schur)
    if not np.all(np.abs(sigma) > budget):
        return None
    return int(np.count_nonzero(values < cutoff)) - int(np.count_nonzero(sigma < 0))
