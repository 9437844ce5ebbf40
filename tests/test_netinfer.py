"""Network inference from shared addresses, checked against a literal
group-scan reference."""

import random

import numpy as np
import pytest

from awareflow import files
from awareflow.errors import IntegrityError, ParseError
from awareflow.kernels import neighbor_count_sweep
from awareflow.netinfer import (
    DEFAULT_CAPS,
    LAYERS,
    MultiplexGraph,
    build_from_groups,
    build_layer,
    infer_networks,
)
from awareflow.files import read_edges, write_edges

from conftest import traced_peak
from oracles import clique_edges_scan, edge_file_scan, graph_edge_sets, group_edges_scan
from test_domain import make_addresses

IDS4 = np.array([1, 2, 3, 4], dtype=np.uint64)


def rec(iid, aid, kind, start=0, end=100):
    return (iid, aid, kind, start, end)


def infer(records, **kwargs):
    return infer_networks(make_addresses(records), **kwargs)


def test_two_sharing_home_get_one_family_edge():
    g = infer([rec(1, 50, "home"), rec(2, 50, "home")], ids=IDS4)
    assert g.edge_counts() == {"family": 1, "schoolmate": 0, "workmate": 0}
    a, b = g.layer("family").edges[0]
    assert {int(g.ids[a]), int(g.ids[b])} == {1, 2}


def test_company_triangle():
    g = infer(
        [rec(1, 9, "company"), rec(2, 9, "company"), rec(3, 9, "company")],
        ids=IDS4,
    )
    assert g.edge_counts() == {"family": 0, "schoolmate": 0, "workmate": 3}


def test_group_over_cap_contributes_nothing():
    cap = DEFAULT_CAPS["school_dorm"]
    ids = np.arange(1, cap + 2, dtype=np.uint64)
    records = [rec(int(i), 7, "school_dorm") for i in ids]
    g = infer(records, ids=ids)
    assert g.layer("schoolmate").edge_count == 0
    # exactly at the cap the whole clique appears
    g2 = infer(records[:-1], ids=ids)
    assert g2.layer("schoolmate").edge_count == cap * (cap - 1) // 2


def test_chained_intervals_without_common_overlap_yield_no_edges():
    records = [
        rec(1, 5, "home", 0, 10),
        rec(2, 5, "home", 5, 20),
        rec(3, 5, "home", 15, 30),
    ]
    g = infer(records, ids=IDS4)
    assert g.layer("family").edge_count == 0
    # drop the late joiner and the remaining pair overlaps
    g2 = infer(records[:2], ids=IDS4)
    assert g2.layer("family").edge_count == 1


def test_touching_endpoints_count_as_overlap():
    g = infer([rec(1, 5, "home", 0, 10), rec(2, 5, "home", 10, 30)], ids=IDS4)
    assert g.layer("family").edge_count == 1


def test_same_individual_twice_is_not_a_pair():
    g = infer([rec(1, 5, "home", 0, 10), rec(1, 5, "home", 20, 30)], ids=IDS4)
    assert g.layer("family").edge_count == 0


def test_unknown_individual_raises_integrity_error():
    with pytest.raises(IntegrityError, match="99"):
        infer([rec(99, 5, "home")], ids=IDS4)


def test_record_permutation_invariance():
    rng = random.Random(4)
    records = [
        rec(1, 5, "home"), rec(2, 5, "home"), rec(3, 6, "home"), rec(4, 6, "home"),
        rec(1, 9, "company"), rec(2, 9, "company"), rec(4, 9, "company"),
        rec(2, 30, "school_dorm", 0, 50), rec(3, 30, "school_dorm", 25, 80),
    ]
    base = infer(records, ids=IDS4)
    for _ in range(5):
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert infer(shuffled, ids=IDS4) == base


def test_removing_records_never_adds_edges():
    # holds whenever the removal does not flip a gate (cap or overlap);
    # identical intervals and groups under cap keep both gates open
    rng = random.Random(9)
    records = [
        rec(rng.randrange(1, 5), rng.randrange(3), k)
        for k in ("home", "company", "school_dorm")
        for _ in range(8)
    ]
    full = graph_edge_sets(infer(records, ids=IDS4))
    for drop in range(len(records)):
        subset = records[:drop] + records[drop + 1 :]
        smaller = graph_edge_sets(infer(subset, ids=IDS4))
        for layer in LAYERS:
            assert smaller[layer] <= full[layer]


def test_every_single_record_deletion_matches_reference():
    rng = random.Random(10)
    caps = dict(DEFAULT_CAPS)
    records = [
        rec(rng.randrange(1, 5), rng.randrange(3), k, rng.randrange(50), 50 + rng.randrange(50))
        for k in ("home", "company", "school_dorm")
        for _ in range(8)
    ]
    for drop in range(len(records) + 1):
        subset = records[:drop] + records[drop + 1 :]
        got = graph_edge_sets(infer(subset, ids=IDS4))
        want = clique_edges_scan(
            subset,
            caps,
        )
        assert got == want


def test_random_worlds_match_reference_scan():
    rng = random.Random(77)
    caps = {"home": 4, "school_dorm": 6, "company": 5}  # small caps so they bind
    for trial in range(50):
        n = rng.randrange(2, 12)
        ids = np.arange(1, n + 1, dtype=np.uint64)
        records = []
        for _ in range(rng.randrange(0, 30)):
            start = rng.randrange(0, 40)
            records.append(
                rec(
                    rng.randrange(1, n + 1),
                    rng.randrange(0, 5),
                    rng.choice(("home", "school_dorm", "company")),
                    start,
                    start + rng.randrange(0, 40),
                )
            )
        got = graph_edge_sets(infer(records, caps=caps, ids=ids))
        want = clique_edges_scan(
            records,
            caps,
        )
        assert got == want, f"trial {trial}"


def test_inferred_graph_equals_simulated_truth(small_world, graph_small):
    _, _, truth = small_world
    assert graph_small == truth.graph
    counts = graph_small.edge_counts()
    assert all(counts[layer] > 0 for layer in LAYERS)


def test_build_from_groups_matches_brute_force_cliques():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 15))
        ids = np.arange(1, n + 1, dtype=np.uint64) * 7
        # draws with replacement repeat members; sizes 0 and 1 give empty
        # groups and singletons; the workmate layer stays empty
        groups = {
            layer: [
                rng.integers(0, n, size=int(rng.integers(0, 6)))
                for _ in range(int(rng.integers(0, 8)))
            ]
            for layer in ("family", "schoolmate")
        }
        groups["family"] += [[0, 1, 1], [1, 0]]  # one pair in two groups
        g = build_from_groups(ids, groups)
        want = {layer: group_edges_scan(ids, groups.get(layer, ())) for layer in LAYERS}
        assert graph_edge_sets(g) == want
        for layer in LAYERS:
            edges = g.layer(layer).edges
            assert np.all(edges[:, 0] < edges[:, 1])
            assert len(np.unique(edges, axis=0)) == len(edges)


# --- neighborhood fractions ---------------------------------------------------

def path_graph():
    # A-B-C-D as one family chain built from explicit groups
    groups = {"family": [np.array([0, 1]), np.array([1, 2]), np.array([2, 3])]}
    return build_from_groups(IDS4, groups)


def aware_neighbors(g, layer, aware):
    """(aware-neighbor counts, degrees) of a layer: one sweep step with the
    aware rows in bucket 0."""
    lyr = g.layer(layer)
    (counts,) = neighbor_count_sweep(lyr.indptr, lyr.indices, np.where(aware, 0, 1), 1)
    return counts, lyr.degrees()


def fractions(counts, deg):
    """Aware-neighbor shares, zero where the degree is."""
    return np.where(deg > 0, counts / np.maximum(deg, 1), 0.0)


def test_fraction_on_path():
    g = path_graph()
    aware = np.array([True, True, False, False])  # A and B
    counts, deg = aware_neighbors(g, "family", aware)
    # A: {B}, B: {A, C}, C: {B, D}, D: {C}
    assert counts.tolist() == [1, 1, 1, 0]
    assert deg.tolist() == [1, 2, 2, 1]
    assert fractions(counts, deg).tolist() == [1.0, 0.5, 0.5, 0.0]


def test_fraction_undefined_for_degree_zero():
    g = build_from_groups(IDS4, {"family": [np.array([0, 1])]})
    aware = np.array([False, True, False, False])
    counts_w, deg_w = aware_neighbors(g, "workmate", aware)
    assert deg_w.tolist() == [0, 0, 0, 0]
    assert fractions(counts_w, deg_w).tolist() == [0, 0, 0, 0]  # zero where undefined
    counts, deg = aware_neighbors(g, "family", aware)
    assert deg.tolist() == [1, 1, 0, 0]
    assert fractions(counts, deg).tolist() == [1.0, 0.0, 0.0, 0.0]


def test_aware_neighbor_counts_match_per_node():
    rng = np.random.default_rng(5)
    groups = {"family": [rng.choice(8, size=3, replace=False) for _ in range(5)]}
    g = build_from_groups(np.arange(1, 9, dtype=np.uint64), groups)
    mask = rng.random(8) < 0.5
    counts, deg = aware_neighbors(g, "family", mask)
    for row in range(8):
        nbr = g.layer("family").neighbors(row)
        assert deg[row] == len(nbr)
        assert counts[row] == mask[nbr].sum()


# --- persistence --------------------------------------------------------------

def test_edge_file_round_trip(tmp_path, graph_small):
    path = tmp_path / "networks.edges"
    write_edges(graph_small, path)
    loaded = read_edges(path, graph_small.ids)
    assert loaded == graph_small
    first = path.read_text().splitlines()
    assert first and all(len(line.split()) == 3 for line in first)
    # lines are grouped by layer and sorted within each layer
    by_layer = {}
    for line in first:
        layer, lo, hi = line.split()
        assert int(lo) < int(hi)
        by_layer.setdefault(layer, []).append((int(lo), int(hi)))
    for layer, pairs in by_layer.items():
        assert pairs == sorted(pairs)


def test_shuffled_duplicated_edge_file_builds_equal_layers(tmp_path, graph_small):
    path = tmp_path / "networks.edges"
    write_edges(graph_small, path)
    lines = path.read_text().splitlines()
    rng = random.Random(5)
    shuffled = lines + rng.sample(lines, len(lines) // 3)
    rng.shuffle(shuffled)
    # some edges also name their ends the other way round
    for k in range(0, len(shuffled), 4):
        layer, lo, hi = shuffled[k].split()
        shuffled[k] = f"{layer} {hi} {lo}"
    other = tmp_path / "shuffled.edges"
    other.write_text("\n".join(shuffled) + "\n")
    for graph in (read_edges(path, graph_small.ids), read_edges(other, graph_small.ids)):
        for name in LAYERS:
            got, want = graph.layer(name), graph_small.layer(name)
            for column in ("edges", "indptr", "indices"):
                assert np.array_equal(getattr(got, column), getattr(want, column)), (name, column)


def test_empty_graph_round_trip(tmp_path):
    g = build_from_groups(IDS4, {})
    path = tmp_path / "empty.edges"
    write_edges(g, path)
    assert read_edges(path, IDS4) == g
    assert g.edge_counts() == {name: 0 for name in LAYERS}


@pytest.mark.parametrize(
    "lines, line_no",
    [
        # as one token stream these six tokens would read as two good edges
        (["family 1 2", "family 1", "2 family 3 4"], 2),
        (["family 1 2", "", "schoolmate 3 3"], 3),  # self-loop, after a blank line
        (["family 1 2", "cousin 1 3"], 2),
        (["family 1 2", "family 1 x"], 2),
        (["family 1 2", "family 1 -3"], 2),
        (["family 1 2", f"family 1 {2**64}"], 2),
        (["family 1 2", "family 1 9", "family 1 x"], 2),  # the first bad line is named
        (["family 1 2", "family 1 x", "family 1 9"], 2),
    ],
)
def test_read_edges_names_the_first_bad_line(tmp_path, lines, line_no):
    path = tmp_path / "networks.edges"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        read_edges(path, IDS4)
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"{path}:{line_no}: bad edge line {lines[line_no - 1]!r}"


# (file bytes, the line an edge reader names, or None when it loads the file)
EDGE_FILE_SHAPES = [
    pytest.param(b"family 1 2\nworkmate 2 3\n", None, id="canonical"),
    pytest.param(b"family 1 2\nworkmate 2 3", None, id="no-final-newline"),
    pytest.param(b"\nfamily 1 2\n\n   \nworkmate 2 3\n\n", None, id="blank-lines"),
    pytest.param(b"family 1 2\r\nworkmate 2 3\r\n", None, id="crlf"),
    pytest.param(b"family 1 2\rworkmate 2 3\r", None, id="cr"),
    pytest.param(b"", None, id="empty"),
    # any whitespace separates fields, as str.split() splits them
    pytest.param(b"family 1 2\nfamily\t3\t4\n", None, id="tab-separator"),
    pytest.param(b"family 1 2\nfamily  3 4\n", None, id="doubled-space"),
    pytest.param(b" family 1 2 \nfamily 3 4\n", None, id="outer-spaces"),
    pytest.param(b"family\x0b1\x1c2\n", None, id="vertical-tab-file-separator"),
    pytest.param("family\u00a01 2\n".encode(), None, id="no-break-space"),
    pytest.param(b"family +1 2\n", None, id="int-syntax"),
    pytest.param(b"family 01 002\n", None, id="leading-zeros"),
    pytest.param(b"family 1 2\nfamily 1\n", 2, id="two-tokens"),
    pytest.param(b"family 1 2\nfamily 1 2 3\n", 2, id="four-tokens"),
    pytest.param(b"family\nfamily 1 2\n", 1, id="one-token"),
    pytest.param(b"family 1 2 family\n3 4\n", 1, id="triple-across-two-lines"),
    # as one token stream these six tokens would read as two good edges
    pytest.param(b"family\n1 2 family\n3\n4\n", 1, id="one-token-lines"),
    pytest.param(b"family  1\n2\n", 1, id="two-tokens-doubled-space"),
    pytest.param(b" family 1\n2\n", 1, id="two-tokens-leading-space"),
    pytest.param(b"family 1 \n2\n", 1, id="two-tokens-trailing-space"),
    pytest.param(b"family 1 2\ncousin 1 3\n", 2, id="unknown-layer"),
    pytest.param(b"family 1 2\nfamily 1 x\n", 2, id="non-integer"),
    pytest.param(b"family 1 2\nfamily 1 -3\n", 2, id="negative"),
    pytest.param(f"family 1 2\nfamily 1 {2**64}\n".encode(), 2, id="2**64"),
    pytest.param(b"family 1 2\nfamily 1 9\n", 2, id="unknown-id"),
    pytest.param(b"family 1 2\n\nschoolmate 3 3\n", 3, id="self-loop"),
    pytest.param(b"family 1 2\r\n\r\nfamily 1 x\r\n", 3, id="crlf-bad-line"),
    pytest.param(b"family 1 2\rfamily 1 x\r", 2, id="cr-bad-line"),
    pytest.param(b"family 1 2\nfamily 1 2\xff\n", 2, id="not-utf8"),
    pytest.param(b"family 1 2\nfamily\x001 2\n", 2, id="nul-byte"),
    # two spaces a line, but an empty field where an id should be
    pytest.param(b"family  1\nfamily 2 3\n", 1, id="empty-first-id"),
    pytest.param(b"family 1 \nfamily 2 3\n", 1, id="empty-second-id"),
    pytest.param(b"family 1 2 3\nfamily 4\n", 1, id="three-spaces-then-one"),
]
# 0 is an id here, so an empty field misread as 0 would pass as an edge
EDGE_IDS = np.arange(5, dtype=np.uint64)


@pytest.mark.parametrize("data, line_no", EDGE_FILE_SHAPES)
def test_read_edges_matches_a_line_by_line_scan(tmp_path, data, line_no):
    assert_edges_read_as_scanned(tmp_path, data, line_no)


# a read of one, two or seven bytes: every line and "\r\n" pair spans reads
@pytest.mark.parametrize("chunk", [1, 2, 7], ids=lambda n: f"chunk-{n}")
@pytest.mark.parametrize("data, line_no", EDGE_FILE_SHAPES)
def test_read_edges_in_reads_of_a_few_bytes_matches_a_line_by_line_scan(
    tmp_path, monkeypatch, data, line_no, chunk
):
    monkeypatch.setattr(files, "READ_CHUNK_BYTES", chunk)
    assert_edges_read_as_scanned(tmp_path, data, line_no)


def assert_edges_read_as_scanned(tmp_path, data, line_no):
    """read_edges of the bytes ``data`` gives the edge sets of
    edge_file_scan, or raises the error it names at ``line_no``."""
    path = tmp_path / "networks.edges"
    path.write_bytes(data)
    want = edge_file_scan(data, EDGE_IDS)
    if line_no is None:
        graph = read_edges(path, EDGE_IDS)
        assert graph_edge_sets(graph) == want
        return
    assert want[0] == line_no
    with pytest.raises(ParseError) as exc:
        read_edges(path, EDGE_IDS)
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"{path}:{line_no}: bad edge line {want[1]!r}"


def test_read_edges_over_no_ids_names_the_first_edge(tmp_path):
    path = tmp_path / "networks.edges"
    path.write_text("\nfamily 1 2\n")
    with pytest.raises(ParseError, match=r":2: bad edge line 'family 1 2'$"):
        read_edges(path, np.empty(0, dtype=np.uint64))
    path.write_text("\n")
    assert read_edges(path, np.empty(0, dtype=np.uint64)).edge_counts() == {
        name: 0 for name in LAYERS
    }


def test_read_edges_reads_ids_up_to_the_uint64_limit(tmp_path):
    ids = np.array([1, 10**19 - 1, 10**19, 2**64 - 1], dtype=np.uint64)
    data = f"family 1 {10**19 - 1}\nworkmate {10**19} {2**64 - 1}\n".encode()
    path = tmp_path / "networks.edges"
    path.write_bytes(data)
    assert graph_edge_sets(read_edges(path, ids)) == edge_file_scan(data, ids)
    assert read_edges(path, ids).edge_counts() == {"family": 1, "schoolmate": 0, "workmate": 1}


def random_edges(n_nodes, n_edges, seed):
    """``n_edges`` distinct (lower, higher) node pairs, ascending."""
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n_nodes, size=(2, 3 * n_edges))
    lo, hi = np.minimum(a, b)[a != b], np.maximum(a, b)[a != b]
    keys = np.unique(lo * n_nodes + hi)[:n_edges]
    assert len(keys) == n_edges
    return np.column_stack([keys // n_nodes, keys % n_nodes])


@pytest.mark.parametrize("seed", range(4))
def test_build_layer_lists_each_nodes_neighbors_ascending(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    pairs = rng.integers(0, n, size=(int(rng.integers(0, 120)), 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    want = sorted({(min(a, b), max(a, b)) for a, b in pairs.tolist()})
    for given in (pairs, np.array(want, dtype=np.int64).reshape(-1, 2)):
        layer = build_layer(given, n)
        assert layer.edges.dtype == np.int64 and layer.edges.tolist() == [list(e) for e in want]
        assert layer.indptr.dtype == np.int64 and layer.indices.dtype == np.int32
        for node in range(n):
            near = sorted({b for a, b in want if a == node} | {a for a, b in want if b == node})
            assert layer.neighbors(node).tolist() == near


def layer_bytes(layer):
    return layer.edges.nbytes + layer.indptr.nbytes + layer.indices.nbytes


@pytest.mark.parametrize("order", ["ascending", "shuffled"])
def test_build_layer_holds_little_beyond_the_layer(order):
    # 200k edges over 100k nodes: 5.6 MB of layer; the argsort of both
    # directions peaked at 4.0 times that
    pairs = random_edges(100_000, 200_000, seed=27)
    if order == "shuffled":
        pairs = pairs[np.random.default_rng(1).permutation(len(pairs)), ::-1].copy()
    out = []
    peak = traced_peak(lambda: out.append(build_layer(pairs, 100_000)))
    assert peak <= 2.5 * layer_bytes(out[0])


def test_read_edges_holds_its_graph_and_a_read(tmp_path):
    # 200k edge lines (7.4 MB) over 100k ids of 13 digits: 7.2 MB of graph;
    # the whole-file parse peaked at 3.9 times that
    rng = np.random.default_rng(27)
    ids = np.sort(rng.choice(10**12, size=100_000, replace=False)).astype(np.uint64) + 10**12
    pairs = random_edges(len(ids), 200_000, seed=27)
    cuts = [0, 20_000, 90_000, len(pairs)]
    layers = {
        name: build_layer(pairs[lo:hi], len(ids)) for name, lo, hi in zip(LAYERS, cuts, cuts[1:])
    }
    path = tmp_path / "networks.edges"
    write_edges(MultiplexGraph(ids, layers), path)
    out = []
    peak = traced_peak(lambda: out.append(read_edges(path, ids)))
    assert out[0] == MultiplexGraph(ids, layers)
    held = sum(map(layer_bytes, out[0].layers.values()))
    assert peak <= 2 * held + 4 * files.READ_CHUNK_BYTES
