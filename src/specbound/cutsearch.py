"""Array helpers of the exact best q-cut search in ``graphs.best_q_cut``.

The search visits every q-block set partition of the vertices as a
restricted-growth label vector (the first vertex has label 0, and each
vertex takes a label already used or the next unused one), in lexicographic
order. The vectors are built by array ops in blocks, which bounds the memory
a search takes whatever its size, and each block is scored by
``graphs.coupling_tables``, the kernel behind ``graphs.total_coupling``.

``graphs`` imports this module on the first exact search, so that callers
that never run one do not load it.
"""

from __future__ import annotations

import numpy as np

from .graphs import WeightedGraph, coupling_tables

# Cuts are scored in blocks of at most this many cuts and this many array
# entries.
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


def scored_partitions(graph: WeightedGraph, q: int, ways: list[list[int]]):
    """Blocks of label vectors, lexicographic, with the total coupling of each.

    Yields (labels, scores) pairs; ``ways`` is ``partition_ways(n, q)``. A
    score is ``graphs.total_coupling`` of its cut, bit for bit: the same
    kernel sums the same terms in the same order.
    """
    per_cut = 2 * len(graph.w) + graph.n_vertices * q  # array entries one cut takes
    block = min(_SCORE_BLOCK_CUTS, max(1, _SCORE_BLOCK_ENTRIES // per_cut))
    for labels in _q_partitions(ways, block):
        _, _, couplings = coupling_tables(labels, q, graph.u, graph.v, graph.w)
        yield labels, couplings.sum(axis=1)
