"""Hot numeric kernels, vectorized with numpy.

Graphs are passed around in CSR form: ``indptr`` (int64, length n+1) and
``indices`` (int32) with every undirected edge stored in both directions.
Aware-neighbor exposure has one kernel: :func:`neighbor_count_sweep` walks
ascending time buckets and keeps each node's count of marked neighbors
current with :func:`increment_neighbor_counts`, the same update the
simulator's daily loop applies.

Random draws are counter-based: a splitmix64-style hash of
(seed, stream, id, tag) mapped to a float64 in [0, 1).  Draws are therefore
independent of evaluation order, which keeps parallel and serial runs
identical.
"""

import numpy as np

BACKEND = "numpy"

U64 = np.uint64

_GOLDEN = U64(0x9E3779B97F4A7C15)
_MIX1 = U64(0xBF58476D1CE4E5B9)
_MIX2 = U64(0x94D049BB133111EB)
_TAG = U64(0xC2B2AE3D27D4EB4F)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def counter_uniforms(seed, stream, ids, tag):
    """Hash (seed, stream, id, tag) into float64 uniforms in [0, 1)."""
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        z = U64(seed) ^ (U64(stream) * _GOLDEN)
        z = z ^ ids.astype(np.uint64) ^ (U64(tag) * _TAG)
        z = z + _GOLDEN
        z = (z ^ (z >> U64(30))) * _MIX1
        z = (z ^ (z >> U64(27))) * _MIX2
        z = z ^ (z >> U64(31))
    return (z >> U64(11)).astype(np.float64) * _INV53


def sort_rows(*columns):
    """Sort equal-length integer or bool columns in place as rows, the first
    column most significant.

    One column is sorted as it is.  When the value ranges (max - min) of
    several columns fit in 64 bits together, each row is packed into one
    uint64 key, every column less its minimum shifted into place, and the
    keys are sorted and unpacked; the sort then needs one spare uint64
    column.  Wider ranges fall back to a lexsort and a permute, a column at
    a time.  Rows that tie are equal in every column, so the result does
    not depend on the sort's stability.
    """
    if len(columns[0]) < 2:
        return
    if len(columns) == 1:
        columns[0].sort()
        return
    lows = [int(c.min()) for c in columns]
    widths = [(int(c.max()) - lo).bit_length() for c, lo in zip(columns, lows)]
    if sum(widths) > 64:
        order = np.lexsort(columns[::-1])
        for column in columns:
            column[...] = column[order]
        return
    key = np.zeros(len(columns[0]), dtype=np.uint64)
    used = 0
    for column, lo, width in zip(columns, lows, widths):
        if used:
            np.left_shift(key, U64(width), out=key)
        # key + column - lo wraps mod 2**64 on the way and lands in range
        np.add(key, column, out=key, dtype=np.uint64, casting="unsafe")
        np.subtract(key, U64(lo % 2**64), out=key)
        used += width
    key.sort()
    for column, lo, width in reversed(list(zip(columns, lows, widths))):
        np.bitwise_and(key, U64(2**width - 1), out=column, casting="unsafe")
        if lo:
            np.add(column, column.dtype.type(lo), out=column)
        used -= width
        if used:
            np.right_shift(key, U64(width), out=key)


def distinct_rows(*columns):
    """The distinct rows of equal-length integer or bool columns, ascending
    as :func:`sort_rows` orders them, which sorts the columns in place."""
    sort_rows(*columns)
    new = np.zeros(len(columns[0]), dtype=bool)
    new[:1] = True
    for column in columns:
        new[1:] |= column[1:] != column[:-1]
    return tuple(column[new] for column in columns)


def csr_rows(indptr, indices, rows):
    """CSR slice of ``rows``: its indptr runs over ``rows``, its indices stay global."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    sub_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lens, out=sub_indptr[1:])
    # entry j of row r sits at starts[r] + (j - sub_indptr[r])
    pos = np.repeat(starts - sub_indptr[:-1], lens)
    pos += np.arange(len(pos), dtype=np.int64)
    return sub_indptr, indices[pos]


def increment_neighbor_counts(indptr, indices, nodes, counts):
    """counts[v] += 1 for every neighbor v of every node in ``nodes``."""
    _, neighbors = csr_rows(indptr, indices, nodes)
    np.add.at(counts, neighbors, 1)


def neighbor_count_sweep(indptr, indices, bucket, n_buckets):
    """For k = 0 .. n_buckets-1, yield each node's count of neighbors whose
    ``bucket`` is <= k.

    A node whose bucket is n_buckets or more is never counted.  The one
    yielded array is updated in place, so a caller copies what it keeps.
    """
    bucket = np.asarray(bucket, dtype=np.int64)
    order = np.argsort(bucket, kind="stable")
    # nodes of bucket k are order[bounds[k]:bounds[k + 1]]
    bounds = np.searchsorted(bucket[order], np.arange(n_buckets + 1))
    counts = np.zeros(len(indptr) - 1, dtype=np.int64)
    for k in range(n_buckets):
        increment_neighbor_counts(indptr, indices, order[bounds[k] : bounds[k + 1]], counts)
        yield counts
