"""Multiplex social network inference from shared-address columns.

Individuals sharing a home address form family cliques; shared school/dorm
addresses give schoolmate cliques and shared company addresses workmate
cliques.  A group only contributes edges when its size stays within the
per-kind cap and all members' active intervals pairwise overlap (for
intervals, pairwise overlap is equivalent to max(start) <= min(end)).
"""

from dataclasses import dataclass

import numpy as np

from .domain import ADDRESS_KINDS, rows_of_ids
from .kernels import distinct_rows

LAYERS = ("family", "schoolmate", "workmate")
LAYER_CODES = {name: code for code, name in enumerate(LAYERS)}
KIND_TO_LAYER = {"home": "family", "school_dorm": "schoolmate", "company": "workmate"}
DEFAULT_CAPS = {"home": 10, "school_dorm": 500, "company": 500}

@dataclass
class Layer:
    """One undirected edge layer in canonical form.

    ``edges`` is an (E, 2) array of node rows with edges[:, 0] < edges[:, 1],
    sorted lexicographically; ``indptr``/``indices`` is the CSR adjacency
    with both directions materialized and neighbor lists sorted.
    """

    edges: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def edge_count(self):
        return len(self.edges)

    def degrees(self):
        return self.indptr[1:] - self.indptr[:-1]

    def neighbors(self, row):
        return self.indices[self.indptr[row] : self.indptr[row + 1]]


def build_layer(pairs, n_nodes):
    """Canonicalize a raw (E, 2) pair array into a Layer."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    edges = np.empty_like(pairs)
    np.minimum(pairs[:, 0], pairs[:, 1], out=edges[:, 0])
    np.maximum(pairs[:, 0], pairs[:, 1], out=edges[:, 1])
    keys = edges[:, 0] * np.int64(n_nodes) + edges[:, 1]
    # edges read back from a write_edges dump come sorted and distinct
    if not (keys[1:] > keys[:-1]).all():
        (keys,) = distinct_rows(keys)
        edges = np.column_stack([keys // n_nodes, keys % n_nodes])
    del keys
    lo, hi = edges.T
    n_above = np.bincount(lo, minlength=n_nodes)  # each node's neighbors above it
    n_below = np.bincount(hi, minlength=n_nodes)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(n_above + n_below, out=indptr[1:])
    # Each node's neighbors ascend: those below it, then those above.  The
    # edges ascend by lower end, then higher, so the slots above take the
    # higher ends in edge order, and the slots below the lower ends in the
    # order of the distinct keys (higher end, lower end).
    below = np.repeat(np.tile([True, False], n_nodes), np.column_stack([n_below, n_above]).ravel())
    indices = np.empty(2 * len(edges), dtype=np.int32)
    keys = hi * np.int64(n_nodes) + lo
    keys.sort()
    indices[below] = np.remainder(keys, n_nodes, out=keys)
    del keys
    indices[~below] = hi
    return Layer(edges=edges, indptr=indptr, indices=indices)


class MultiplexGraph:
    """Three-layer undirected graph over a fixed node universe of ids."""

    def __init__(self, ids, layers):
        self.ids = np.asarray(ids, dtype=np.uint64)
        self.layers = layers

    @property
    def n_nodes(self):
        return len(self.ids)

    def layer(self, name):
        return self.layers[name]

    def edge_counts(self):
        return {name: self.layers[name].edge_count for name in LAYERS}

    def __eq__(self, other):
        if not isinstance(other, MultiplexGraph):
            return False
        if not np.array_equal(self.ids, other.ids):
            return False
        return all(
            np.array_equal(self.layers[n].edges, other.layers[n].edges)
            for n in LAYERS
        )


def _clique_pairs(group, rows, cap=None):
    """(P, 2) array of every pair of distinct rows that share a group.

    Repeated (group, row) memberships count once; a group with more than
    ``cap`` distinct rows contributes no pairs.
    """
    group, rows = distinct_rows(np.array(group), np.array(rows, dtype=np.int64))
    # member i pairs with the members after it in its group, up to ``last``
    idx = np.arange(len(rows))
    last = np.searchsorted(group, group, side="right")
    later = last - idx - 1
    if cap is not None:
        later[last - np.searchsorted(group, group) > cap] = 0
    a = np.repeat(idx, later)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
    return np.column_stack([rows[a], rows[b]])


def build_from_memberships(ids, members_by_layer):
    """Assemble a graph from (group number, row) memberships (used as ground
    truth).

    ``members_by_layer`` maps layer name to a pair of equal-length arrays,
    the group numbers and the rows; each group becomes a clique with no cap
    or interval checks applied.
    """
    none = (np.empty(0, dtype=np.int64),) * 2
    return MultiplexGraph(
        ids,
        {
            name: build_layer(_clique_pairs(*members_by_layer.get(name, none)), len(ids))
            for name in LAYERS
        },
    )


def build_from_groups(ids, groups_by_layer):
    """Assemble a graph from explicit member groups.

    ``groups_by_layer`` maps layer name to a list of row-index arrays, one
    per group; see build_from_memberships.
    """
    members = {}
    for name, groups in groups_by_layer.items():
        group = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        members[name] = group, np.concatenate([np.empty(0, dtype=np.int64), *groups])
    return build_from_memberships(ids, members)


def infer_networks(addresses, ids, caps=None):
    """Infer the family/schoolmate/workmate layers from address columns.

    ``ids`` (ascending) fixes the node universe; an address of an
    individual outside it raises IntegrityError.  Permutation of the
    address rows does not change the result.  Groups larger than
    caps[kind] contribute no edges, as do groups whose intervals fail the
    pairwise-overlap test.
    """
    caps = dict(DEFAULT_CAPS, **(caps or {}))
    ids = np.asarray(ids, dtype=np.uint64)
    node_rows = rows_of_ids(ids, addresses.individual_id)

    layers = {}
    for kind, layer_name in KIND_TO_LAYER.items():
        mine = np.flatnonzero(addresses.kind == ADDRESS_KINDS.index(kind))
        mine = mine[np.argsort(addresses.address_id[mine], kind="stable")]
        addr = addresses.address_id[mine]
        first = np.unique(addr, return_index=True)[1]
        # a common active period over every row of the group, repeats included
        overlap = (
            np.maximum.reduceat(addresses.active_start[mine], first)
            <= np.minimum.reduceat(addresses.active_end[mine], first)
        )
        keep = np.repeat(overlap, np.diff(np.append(first, len(addr))))
        pairs = _clique_pairs(addr[keep], node_rows[mine][keep], caps[kind])
        layers[layer_name] = build_layer(pairs, len(ids))
    return MultiplexGraph(ids, layers)
