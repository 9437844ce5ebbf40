"""Hot numeric kernels, vectorized with numpy.

Graphs are passed around in CSR form: ``indptr`` (int64, length n+1) and
``indices`` (int32) with every undirected edge stored in both directions.
The neighbor counts take any CSR slice, so a caller that needs counts for
some rows only passes :func:`csr_rows` of those rows.

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


def count_marked_neighbors(indptr, indices, marked):
    """Per node, count neighbors whose ``marked`` flag is set."""
    vals = marked[indices].astype(np.int64)
    csum = np.zeros(len(vals) + 1, dtype=np.int64)
    np.cumsum(vals, out=csum[1:])
    return csum[indptr[1:]] - csum[indptr[:-1]]


def increment_neighbor_counts(indptr, indices, nodes, counts):
    """counts[v] += 1 for every neighbor v of every node in ``nodes``."""
    _, neighbors = csr_rows(indptr, indices, nodes)
    np.add.at(counts, neighbors, 1)
