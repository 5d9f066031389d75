"""Array helpers of the exact best q-cut search in ``graphs.best_q_cut``.

The search visits every q-block set partition of the vertices as a
restricted-growth label vector (the first vertex has label 0, and each
vertex takes a label already used or the next unused one), in lexicographic
order. The vectors are built by array ops in blocks, which bounds the memory
a search takes whatever its size.

A cluster's coupling depends on its own vertex set alone. So when the 2**n
vertex subsets are no more than the q * S(n, q) clusters of the search, the
coupling of every subset is computed once into a table indexed by its bit
mask, and a cut's score is the sum of its q clusters' table entries.
Otherwise each block of cuts is scored by ``graphs.coupling_tables``, the
kernel behind ``graphs.total_coupling``. Either way a score is that cut's
``total_coupling``, bit for bit.

``graphs`` imports this module on the first exact search, so that callers
that never run one do not load it.
"""

from __future__ import annotations

import numpy as np

from .graphs import WeightedGraph, coupling_tables

# A block of cuts holds at most _SCORE_BLOCK_ENTRIES array entries; a block
# the kernel scores also holds at most _SCORE_BLOCK_CUTS cuts.
_SCORE_BLOCK_CUTS = 512
_SCORE_BLOCK_ENTRIES = 1 << 16


def partition_ways(n: int, q: int) -> list[list[int]]:
    """Completion counts of restricted-growth prefixes with q blocks.

    ``ways[r][k]`` counts the ways to fill the last r positions after a
    prefix of n - r positions that uses k labels, so that exactly q are
    used; ``ways[n - 1][1]`` is the Stirling number S(n, q). Counts are
    kept only for prefixes that exist (k <= n - r) and can still be
    completed (k >= q - r), so none exceeds S(n, q); the rest are 0.
    """
    ways = [[int(k == q) for k in range(q + 2)]]
    for r in range(1, n):
        prev = ways[-1]
        ways.append(
            [k * prev[k] + prev[k + 1] if q - r <= k <= n - r else 0 for k in range(q + 1)]
            + [0]
        )
    return ways


def _q_partitions(ways: list[list[int]], block: int):
    """Restricted-growth label vectors with exactly q blocks, lexicographic.

    Yields arrays of at most ``block`` rows, one vector per row, in the
    smallest integer dtype that holds q - 1. Vector t is built column by
    column from its rank: a prefix using k labels, with r positions left
    after the next, has ``ways[r][k]`` completions through each label it
    uses (taken in ascending order) and then ``ways[r][k + 1]`` through the
    next unused label.
    """
    n, q = len(ways), len(ways[0]) - 2
    total = ways[n - 1][1]
    table = np.array(ways, dtype=np.int64)
    for start in range(0, total, block):
        rank = np.arange(start, min(start + block, total), dtype=np.int64)
        used = np.ones_like(rank)
        labels = np.zeros((len(rank), n), dtype=np.min_scalar_type(q - 1))
        for i in range(1, n):
            per = table[n - 1 - i, used]
            reuse = rank < used * per
            label, rest = np.divmod(rank, np.maximum(per, 1))
            labels[:, i] = np.where(reuse, label, used)
            rank = np.where(reuse, rest, rank - used * per)
            used += ~reuse
        yield labels


def _block(per_row: int) -> int:
    """Rows in one block the kernel scores, for rows of ``per_row`` array entries."""
    return min(_SCORE_BLOCK_CUTS, max(1, _SCORE_BLOCK_ENTRIES // per_row))


def subset_couplings(graph: WeightedGraph) -> np.ndarray:
    """The coupling of every proper non-empty vertex subset, indexed by bit mask.

    Entry ``mask`` is the coupling of the cluster holding vertex x exactly
    when bit x of ``mask`` is set; the empty and full masks hold NaN. Each
    row scored is a 2-cut, a subset without the last vertex (label 1)
    against its complement (label 0), so one row gives two entries. An
    edge whose ends share a label adds exactly 0.0 to every sum, so an
    entry is the coupling that cluster has in any cut holding it, bit for
    bit.
    """
    n = graph.n_vertices
    half, full = 1 << (n - 1), (1 << n) - 1
    table = np.full(full + 1, np.nan)
    shifts = np.arange(n, dtype=np.int64)
    block = _block(2 * len(graph.w) + 2 * n)
    for start in range(1, half, block):
        masks = np.arange(start, min(start + block, half), dtype=np.int64)
        labels = ((masks[:, None] >> shifts) & 1).astype(np.uint8)
        _, _, couplings = coupling_tables(labels, 2, graph.u, graph.v, graph.w)
        table[masks] = couplings[:, 1]
        table[full ^ masks] = couplings[:, 0]
    return table


def _table_scores(labels: np.ndarray, q: int, table: np.ndarray) -> np.ndarray:
    """Total couplings of a block of cuts, one per row, from the subset table.

    Each cut's q cluster masks are formed by one scatter per vertex column,
    and its score sums their table entries in cluster order.
    """
    count, n = labels.shape
    masks = np.zeros(count * q, dtype=np.min_scalar_type(len(table) - 1))
    own = np.arange(0, count * q, q)
    for x in range(n):
        masks[own + labels[:, x]] += 1 << x
    return table[masks.reshape(count, q)].sum(axis=1)


def _kernel_scores(labels: np.ndarray, q: int, graph: WeightedGraph) -> np.ndarray:
    """Total couplings of a block of cuts, one per row, from the coupling kernel."""
    return coupling_tables(labels, q, graph.u, graph.v, graph.w)[2].sum(axis=1)


def uses_subset_table(n: int, q: int, count: int) -> bool:
    """Whether a search over ``count`` = S(n, q) cuts scores through the subset table.

    The table scores 2**n clusters where the kernel scores q per cut.
    """
    return 1 << n <= q * count


def scored_partitions(graph: WeightedGraph, q: int, ways: list[list[int]]):
    """Blocks of label vectors, lexicographic, with the total coupling of each.

    Yields (labels, scores) pairs; ``ways`` is ``partition_ways(n, q)``. A
    score is ``graphs.total_coupling`` of its cut, bit for bit: its clusters'
    terms are summed in the same order whether they come from the subset
    table or from the kernel run on the whole block.
    """
    n = graph.n_vertices
    if uses_subset_table(n, q, ways[n - 1][1]):
        table = subset_couplings(graph)
        for labels in _q_partitions(ways, max(1, _SCORE_BLOCK_ENTRIES // (n + q))):
            yield labels, _table_scores(labels, q, table)
    else:
        for labels in _q_partitions(ways, _block(2 * len(graph.w) + n * q)):
            yield labels, _kernel_scores(labels, q, graph)
