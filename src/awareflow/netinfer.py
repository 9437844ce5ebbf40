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
    if len(pairs) == 0:
        return Layer(
            edges=np.empty((0, 2), dtype=np.int64),
            indptr=np.zeros(n_nodes + 1, dtype=np.int64),
            indices=np.empty(0, dtype=np.int32),
        )
    pairs = np.asarray(pairs, dtype=np.int64)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keys = lo * np.int64(n_nodes) + hi
    # edges read back from a write_edges dump come sorted and distinct
    if not (keys[1:] > keys[:-1]).all():
        (keys,) = distinct_rows(keys)
    lo = keys // n_nodes
    hi = keys % n_nodes
    edges = np.column_stack([lo, hi])
    # with the keys ascending, a stable sort by source alone orders each
    # node's neighbors: first the lower ends (ascending), then the higher
    src = np.concatenate([hi, lo])
    dst = np.concatenate([lo, hi])
    order = np.argsort(src, kind="stable")
    indices = dst[order].astype(np.int32)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_nodes), out=indptr[1:])
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


def build_from_groups(ids, groups_by_layer):
    """Assemble a graph from explicit member groups (used as ground truth).

    ``groups_by_layer`` maps layer name to a list of row-index arrays; each
    group becomes a clique with no cap or interval checks applied.
    """
    layers = {}
    for name in LAYERS:
        groups = groups_by_layer.get(name, ())
        group = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        rows = np.concatenate([np.empty(0, dtype=np.int64), *groups])
        layers[name] = build_layer(_clique_pairs(group, rows), len(ids))
    return MultiplexGraph(ids, layers)


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
