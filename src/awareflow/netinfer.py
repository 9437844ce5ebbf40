"""Multiplex social network inference from shared-address records.

Individuals sharing a home address form family cliques; shared school/dorm
addresses give schoolmate cliques and shared company addresses workmate
cliques.  A group only contributes edges when its size stays within the
per-kind cap and all members' active intervals pairwise overlap (for
intervals, pairwise overlap is equivalent to max(start) <= min(end)).
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import IntegrityError, ParseError

LAYERS = ("family", "schoolmate", "workmate")
KIND_TO_LAYER = {"home": "family", "school_dorm": "schoolmate", "company": "workmate"}
DEFAULT_CAPS = {"home": 10, "school_dorm": 500, "company": 500}

_triu_cache = {}


def _pair_template(size):
    if size not in _triu_cache:
        _triu_cache[size] = np.triu_indices(size, k=1)
    return _triu_cache[size]


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


def _build_layer(pairs, n_nodes):
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
    keys = np.unique(lo * np.int64(n_nodes) + hi)
    lo = keys // n_nodes
    hi = keys % n_nodes
    edges = np.column_stack([lo, hi])
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    indices = dst[order].astype(np.int32)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_nodes), out=indptr[1:])
    return Layer(edges=edges, indptr=indptr, indices=indices)


class MultiplexGraph:
    """Three-layer undirected graph over a fixed node universe of ids."""

    def __init__(self, ids, layers):
        self.ids = np.asarray(ids, dtype=np.uint64)
        self.index_of = {int(i): k for k, i in enumerate(self.ids)}
        self.layers = layers

    @property
    def n_nodes(self):
        return len(self.ids)

    def layer(self, name):
        return self.layers[name]

    def edge_counts(self):
        return {name: self.layers[name].edge_count for name in LAYERS}

    def row_of(self, individual_id):
        try:
            return self.index_of[int(individual_id)]
        except KeyError:
            raise LookupError(f"individual {individual_id} not in graph") from None

    def __eq__(self, other):
        if not isinstance(other, MultiplexGraph):
            return False
        if not np.array_equal(self.ids, other.ids):
            return False
        return all(
            np.array_equal(self.layers[n].edges, other.layers[n].edges)
            for n in LAYERS
        )


def build_from_groups(ids, groups_by_layer):
    """Assemble a graph from explicit member groups (used as ground truth).

    ``groups_by_layer`` maps layer name to a list of row-index arrays; each
    group becomes a clique with no cap or interval checks applied.
    """
    n = len(ids)
    layers = {}
    for name in LAYERS:
        pair_chunks = []
        for members in groups_by_layer.get(name, ()):
            members = np.unique(np.asarray(members, dtype=np.int64))
            if len(members) < 2:
                continue
            a, b = _pair_template(len(members))
            pair_chunks.append(np.column_stack([members[a], members[b]]))
        pairs = (
            np.concatenate(pair_chunks)
            if pair_chunks
            else np.empty((0, 2), dtype=np.int64)
        )
        layers[name] = _build_layer(pairs, n)
    return MultiplexGraph(ids, layers)


def infer_networks(addresses, caps=None, ids=None):
    """Infer the family/schoolmate/workmate layers from address records.

    ids fixes the node universe (defaults to every individual appearing in
    the records).  Permutation of the input records does not change the
    result.  Groups larger than caps[kind] contribute no edges, as do
    groups whose intervals fail the pairwise-overlap test.
    """
    caps = dict(DEFAULT_CAPS, **(caps or {}))
    if ids is None:
        ids = np.unique(
            np.array([a.individual_id for a in addresses], dtype=np.uint64)
        )
    ids = np.asarray(ids, dtype=np.uint64)
    index_of = {int(v): k for k, v in enumerate(ids)}

    by_kind = {kind: [] for kind in KIND_TO_LAYER}
    for a in addresses:
        row = index_of.get(a.individual_id)
        if row is None:
            raise IntegrityError(
                f"address record references individual {a.individual_id} "
                "outside the node universe"
            )
        by_kind[a.kind].append((a.address_id, row, a.active_start, a.active_end))

    n = len(ids)
    layers = {}
    for kind, layer_name in KIND_TO_LAYER.items():
        recs = by_kind[kind]
        pair_chunks = []
        if recs:
            addr = np.array([r[0] for r in recs], dtype=np.uint64)
            rows = np.array([r[1] for r in recs], dtype=np.int64)
            starts = np.array([r[2] for r in recs], dtype=np.int64)
            ends = np.array([r[3] for r in recs], dtype=np.int64)
            order = np.argsort(addr, kind="stable")
            addr, rows, starts, ends = addr[order], rows[order], starts[order], ends[order]
            boundaries = np.flatnonzero(np.diff(addr)) + 1
            group_starts = np.concatenate([[0], boundaries, [len(addr)]])
            cap = caps[kind]
            for gi in range(len(group_starts) - 1):
                s, e = group_starts[gi], group_starts[gi + 1]
                members = np.unique(rows[s:e])
                if len(members) < 2 or len(members) > cap:
                    continue
                if starts[s:e].max() > ends[s:e].min():
                    continue  # no common active period
                a_idx, b_idx = _pair_template(len(members))
                pair_chunks.append(
                    np.column_stack([members[a_idx], members[b_idx]])
                )
        pairs = (
            np.concatenate(pair_chunks)
            if pair_chunks
            else np.empty((0, 2), dtype=np.int64)
        )
        layers[layer_name] = _build_layer(pairs, n)
    return MultiplexGraph(ids, layers)


def neighbor_awareness_fraction(graph, layer, individual_id, aware):
    """Fraction of an individual's layer neighbors that are aware.

    ``aware`` is either a set of ids or a boolean mask aligned to
    graph.ids.  Returns None (undefined) for degree-0 individuals.
    """
    row = graph.row_of(individual_id)
    lyr = graph.layer(layer)
    nbr = lyr.neighbors(row)
    if len(nbr) == 0:
        return None
    if isinstance(aware, np.ndarray):
        hits = int(aware[nbr].sum())
    else:
        hits = sum(1 for r in nbr if int(graph.ids[r]) in aware)
    return hits / len(nbr)


def layer_fractions(graph, layer, aware_mask):
    """Vectorized aware-neighbor fractions for every node.

    Returns (fractions, degrees); fraction is 0 where degree is 0 and the
    degree array lets callers tell that case apart.
    """
    lyr = graph.layer(layer)
    counts = kernels.count_marked_neighbors(lyr.indptr, lyr.indices, aware_mask)
    deg = lyr.degrees()
    frac = np.zeros(graph.n_nodes, dtype=np.float64)
    nz = deg > 0
    frac[nz] = counts[nz] / deg[nz]
    return frac, deg


def write_edges(graph, path):
    """Dump all layers as "layer src dst" lines in canonical order."""
    with open(path, "w", encoding="utf-8") as fh:
        for name in LAYERS:
            edges = graph.layer(name).edges
            src = graph.ids[edges[:, 0]]
            dst = graph.ids[edges[:, 1]]
            lo = np.minimum(src, dst)
            hi = np.maximum(src, dst)
            order = np.lexsort((hi, lo))
            fh.write("".join([
                f"{name} {a} {b}\n" for a, b in zip(lo[order].tolist(), hi[order].tolist())
            ]))


def read_edges(path, ids):
    """Rebuild a MultiplexGraph from a write_edges dump over given ids.

    A line that is not ``layer id id`` over a known layer and two of the
    given ids raises ParseError.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    index_of = {int(v): k for k, v in enumerate(ids)}
    pairs = {name: [] for name in LAYERS}
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                name, a, b = parts
                pairs[name].append((index_of[int(a)], index_of[int(b)]))
            except (ValueError, KeyError):
                raise ParseError(path, line_no, f"bad edge line {line.strip()!r}") from None
    layers = {
        name: _build_layer(
            np.array(pairs[name], dtype=np.int64).reshape(-1, 2), len(ids)
        )
        for name in LAYERS
    }
    return MultiplexGraph(ids, layers)
