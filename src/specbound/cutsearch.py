"""Array helpers of the exact best q-cut search in ``graphs.best_q_cut``.

The search visits every q-block set partition of the vertices as a
restricted-growth label vector (the first vertex has label 0, and each
vertex takes a label already used or the next unused one), in lexicographic
order, in blocks built by array ops, which bounds the memory a search takes
whatever its size.

A cluster's coupling depends on its own vertex set alone. So when the 2**n
vertex subsets are no more than the q * S(n, q) clusters of the search, the
coupling of every subset is computed once into a table indexed by its bit
mask. The cuts are then built as their q cluster masks directly, each from
its prefix by OR-ing one vertex's bit into one mask, and a cut's score is
the sum of its q masks' table entries; only the winner's labels are read
back. Otherwise each block of label vectors is decoded from the ranks of its
cuts and scored by ``graphs.coupling_tables``, the kernel behind
``graphs.total_coupling``. Either way a score is that cut's
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


def _mask_partitions(ways: list[list[int]]):
    """Restricted-growth vectors with exactly q blocks as cluster masks, lexicographic.

    Yields (count, q) arrays of at most ``_SCORE_BLOCK_ENTRIES // (3 * q)``
    rows (or q, if that is more), one cut per row, in the smallest unsigned
    dtype that holds 2**n - 1: bit x of entry j is set when vertex x has
    label j. Vertex x expands each prefix row, in order, into one row per
    label it may take, ascending, and ORs bit x into that label's mask. The
    labels are those the prefix already uses, unless it must still open a
    new one (it uses fewer than q - r, with r vertices left after x), and
    the next unused one, unless it uses all q. When the next level could
    outgrow a block, the prefixes are split, in order, into parts whose
    completions (``ways``) fill at most a block, or a single prefix each,
    and each part is expanded in turn; so no level holds more rows than a
    block.
    """
    n, q = len(ways), len(ways[0]) - 2
    # A row of a block holds about 3q array entries across its temporaries:
    # its masks, their table entries and the indices of the level that made it.
    block = max(q, _SCORE_BLOCK_ENTRIES // (3 * q))
    completions = np.array(ways, dtype=np.int64)
    r, k, j = np.arange(n)[:, None, None], np.arange(q + 1)[:, None], np.arange(q)
    # takes[r][k, j]: whether a prefix using k labels, with r vertices left
    # after the next one, may give the next one label j; the prefix then uses
    # grown[k, j] labels.
    takes = ((j < k) & (k >= q - r)) | (j == k)
    count_dtype = np.min_scalar_type(q)
    grown = np.maximum(k, j + 1).astype(count_dtype)
    dtype = np.min_scalar_type((1 << n) - 1)
    bits = [dtype.type(1 << x) for x in range(n)]

    def grow(masks, used, x):
        picks = np.flatnonzero(takes[n - 1 - x].take(used, axis=0))  # parent * q + label
        parent, label = np.divmod(picks, q)
        children = masks.take(parent, axis=0)
        children.reshape(-1)[np.arange(0, children.size, q) + label] |= bits[x]
        return children, (grown.take(used, axis=0).ravel().take(picks) if x < n - 1 else None)

    def blocks(masks, used, x):
        reach = np.cumsum(completions[n - x].take(used))
        if reach[-1] <= block:
            for y in range(x, n):
                masks, used = grow(masks, used, y)
            yield masks
        elif len(used) * q <= block:
            yield from blocks(*grow(masks, used, x), x + 1)
        else:
            start = 0
            while start < len(used):
                below = reach[start - 1] if start else 0
                stop = max(start + 1, int(np.searchsorted(reach, below + block, "right")))
                yield from blocks(masks[start:stop], used[start:stop], x)
                start = stop

    first = np.zeros((1, q), dtype=dtype)
    first[0, 0] = 1  # vertex 0 has label 0
    yield from blocks(first, np.ones(1, dtype=count_dtype), 1)


def mask_labels(masks: np.ndarray, n: int) -> np.ndarray:
    """Label vectors (..., n) of cuts given as cluster masks (..., q)."""
    return ((masks[..., None] >> np.arange(n, dtype=masks.dtype)) & 1).argmax(axis=-2)


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


def _kernel_scores(labels: np.ndarray, q: int, graph: WeightedGraph) -> np.ndarray:
    """Total couplings of a block of cuts, one per row, from the coupling kernel."""
    return coupling_tables(labels, q, graph.u, graph.v, graph.w)[2].sum(axis=1)


def uses_subset_table(n: int, q: int, count: int) -> bool:
    """Whether a search over ``count`` = S(n, q) cuts scores through the subset table.

    The table scores 2**n clusters where the kernel scores q per cut.
    """
    return 1 << n <= q * count


def scored_partitions(graph: WeightedGraph, q: int, ways: list[list[int]]):
    """Blocks of cuts, lexicographic, with the total coupling of each.

    Yields (scores, labels) pairs, one score per cut of the block, where
    ``labels(rows)`` returns the label vectors of the block's ``rows`` (an
    index, slice or index array); ``ways`` is ``partition_ways(n, q)``. A
    score is ``graphs.total_coupling`` of its cut, bit for bit: its
    clusters' terms are summed in the same order whether they come from the
    subset table or from the kernel run on the whole block.
    """
    n = graph.n_vertices
    if uses_subset_table(n, q, ways[n - 1][1]):
        table = subset_couplings(graph)
        for masks in _mask_partitions(ways):
            yield table[masks].sum(axis=1), lambda rows, masks=masks: mask_labels(masks[rows], n)
    else:
        for labels in _q_partitions(ways, _block(2 * len(graph.w) + n * q)):
            yield _kernel_scores(labels, q, graph), labels.__getitem__
