"""Array helpers of the exact best q-cut search in ``graphs.best_q_cut``.

The search visits every q-block set partition of the vertices as a
restricted-growth label vector (the first vertex has label 0, and each
vertex takes a label already used or the next unused one), in lexicographic
order. One enumerator builds the cuts by array ops, each from its prefix one
vertex at a time, in blocks that bound the memory a search takes whatever
its size.

A cluster's coupling depends on its own vertex set alone. So when the 2**n
vertex subsets are no more than the q * S(n, q) clusters of the search, the
coupling of every subset is computed once into a table indexed by its bit
mask, the cuts are built as their q cluster masks, and a cut's score is the
sum of its q masks' table entries; only the winner's labels are read back.
Otherwise the cuts are built as label vectors, and each block is scored by
``graphs.coupling_tables``, the kernel behind ``graphs.total_coupling``.
Either way a score is that cut's ``total_coupling``, bit for bit.

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
    completed (k >= q - r), so none exceeds S(n, q); the rest are 0, and
    only that band of each row is computed.
    """
    ways = [[0] * (q + 2) for _ in range(n)]
    ways[0][q] = 1
    for r in range(1, n):
        prev, row = ways[r - 1], ways[r]
        for k in range(max(q - r, 0), min(q, n - r) + 1):
            row[k] = k * prev[k] + prev[k + 1]
    return ways


def _partitions(ways: list[list[int]], first: np.ndarray, record, block: int):
    """Restricted-growth vectors with exactly q blocks, lexicographic.

    Yields arrays of at most ``block`` rows, one cut per row. Each cut grows
    from ``first``, the row of vertex 0 alone: vertex x expands each prefix
    row, in order, into one copy per label it may take, ascending, and
    ``record(copies, label, x)`` writes that label into each copy. A prefix
    may reuse its labels unless it must still open a new one (it uses fewer
    than q - r, with r vertices left after x), and may open the next one
    unless it uses all q. A level that could outgrow max(q, block) rows is
    expanded in parts, in order, whose completions (``ways``) fill at most
    that many rows, or of a single prefix; each expanded part is yielded
    ``block`` rows at a time.
    """
    n, q = len(ways), len(ways[0]) - 2
    cap = max(q, block)
    # A prefix is tracked by its state s: its length x and the count k of
    # labels it uses, from lo, the fewest a completable prefix uses, to
    # min(q, x), numbered s = base[x - 1] + k. State s has reach[s]
    # completions, may give the next vertex label j when takes[s, j], and is
    # then followed by state grown[s, j].
    length = np.arange(1, n + 1)
    lo = np.maximum(1, q - n + length)
    size = np.minimum(q, length) - lo + 1
    base = np.cumsum(size) - size - lo
    xs = np.repeat(length, size)[:, None]
    k = np.arange(size.sum())[:, None] - np.repeat(base, size)[:, None]
    j = np.arange(q)
    takes = ((j < k) & (k >= q - (n - 1 - xs))) | (j == k)
    grown = np.append(base, 0)[xs] + np.maximum(k, j + 1)
    reach = np.array(ways, dtype=np.int64)[n - xs[:, 0], k[:, 0]]

    def grow(rows, used, x):
        picks = np.flatnonzero(takes.take(used, axis=0))  # parent * q + label
        parent, label = np.divmod(picks, q)
        children = rows.take(parent, axis=0)
        record(children, label, x)
        return children, (grown.take(used, axis=0).ravel().take(picks) if x < n - 1 else None)

    def blocks(rows, used, x):
        ends = np.cumsum(reach.take(used))
        if ends[-1] <= cap:
            for y in range(x, n):
                rows, used = grow(rows, used, y)
            for start in range(0, len(rows), block):
                yield rows[start:start + block]
        elif len(used) * q <= cap:
            yield from blocks(*grow(rows, used, x), x + 1)
        else:
            start = 0
            while start < len(used):
                below = ends[start - 1] if start else 0
                stop = max(start + 1, int(np.searchsorted(ends, below + cap, "right")))
                yield from blocks(rows[start:stop], used[start:stop], x)
                start = stop

    yield from blocks(first, np.zeros(1, dtype=np.intp), 1)  # state (1, 1)


def _as_masks(n: int, q: int):
    """Start row and record step of cuts as q masks: bit x of mask j is set if x has label j."""
    first = np.zeros((1, q), dtype=np.min_scalar_type((1 << n) - 1))
    first[0, 0] = 1  # vertex 0 has label 0

    def or_bit(masks, label, x):
        masks.reshape(-1)[np.arange(0, masks.size, q) + label] |= first.dtype.type(1 << x)

    return first, or_bit


def _as_labels(n: int, q: int):
    """Start row and record step of cuts as label vectors of n labels each."""

    def write_label(labels, label, x):
        labels[:, x] = label

    return np.zeros((1, n), dtype=np.min_scalar_type(q - 1)), write_label


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


def uses_subset_table(n: int, q: int, count: int) -> bool:
    """Whether a search over ``count`` = S(n, q) cuts scores through the subset table.

    The table scores 2**n clusters where the kernel scores q per cut.
    """
    return 1 << n <= q * count


def _row_sums(table: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """``table[masks].sum(axis=1)``, bit for bit, without gathering the (rows, q) block.

    numpy adds fewer than 8 terms left to right, so for q < 8 the q looked-up
    columns are added in that order; longer rows are summed by ``sum``.
    """
    q = masks.shape[1]
    if q >= 8:
        return table[masks].sum(axis=1)
    scores = table[masks[:, 0]]
    for j in range(1, q):
        scores += table[masks[:, j]]
    return scores


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
        # A row of a block holds about 3q array entries across its temporaries:
        # its masks, their table entries and the indices of the level that made it.
        block = max(q, _SCORE_BLOCK_ENTRIES // (3 * q))
        for masks in _partitions(ways, *_as_masks(n, q), block):
            yield _row_sums(table, masks), lambda rows, masks=masks: mask_labels(masks[rows], n)
    else:
        for labels in _partitions(ways, *_as_labels(n, q), _block(2 * len(graph.w) + n * q)):
            scores = coupling_tables(labels, q, graph.u, graph.v, graph.w)[2].sum(axis=1)
            yield scores, labels.__getitem__
