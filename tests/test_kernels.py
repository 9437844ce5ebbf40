"""Kernels against brute force, and the counter RNG against pinned draws."""

import numpy as np

from awareflow.kernels import (
    counter_uniforms,
    csr_rows,
    distinct_rows,
    increment_neighbor_counts,
    neighbor_count_sweep,
    sort_rows,
)


def csr_from_edges(n, edges):
    """Undirected edge list -> CSR with both directions stored."""
    deg = np.zeros(n, dtype=np.int64)
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    fill = indptr[:-1].copy()
    indices = np.zeros(int(indptr[-1]), dtype=np.int32)
    for a, b in edges:
        indices[fill[a]] = b
        fill[a] += 1
        indices[fill[b]] = a
        fill[b] += 1
    return indptr, indices


def random_csr(rng, n, n_edges):
    n_edges = min(n_edges, n * (n - 1) // 2)  # cannot ask for more than exist
    pairs = set()
    while len(pairs) < n_edges:
        a, b = rng.integers(0, n, size=2)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return csr_from_edges(n, sorted(pairs))


def test_uniforms_in_unit_interval():
    ids = np.arange(10_000, dtype=np.uint64)
    u = counter_uniforms(7, 3, ids, 0)
    assert u.dtype == np.float64
    assert u.min() >= 0.0
    assert u.max() < 1.0
    # same arguments, same draws
    assert np.array_equal(u, counter_uniforms(7, 3, ids, 0))


def test_uniforms_look_uniform():
    ids = np.arange(200_000, dtype=np.uint64)
    u = counter_uniforms(42, 1, ids, 0)
    hist, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
    # 10k expected per bin; 5% slack is far beyond any plausible excursion
    assert abs(hist - 10_000).max() < 500
    assert abs(u.mean() - 0.5) < 0.005


def test_stream_tag_and_seed_separation():
    ids = np.arange(1000, dtype=np.uint64)
    base = counter_uniforms(7, 1, ids, 0)
    for other in (
        counter_uniforms(8, 1, ids, 0),
        counter_uniforms(7, 2, ids, 0),
        counter_uniforms(7, 1, ids, 5),
    ):
        assert not np.array_equal(base, other)
        # decorrelated, not just unequal
        assert abs(np.corrcoef(base, other)[0, 1]) < 0.1


def test_uniforms_match_pinned_draws():
    # the stream every simulated dataset is drawn from; changing it changes
    # every artifact, so it is pinned to literal values
    ids = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    pinned = {
        (1, 1, 0): [0.9125972035944532, 0.43152799704850997, 0.9454956800914366, 0.0],
        (99, 14, 7): [
            0.8436219575922235, 0.3599712786674809, 0.8815177355769744, 0.18730441831510036,
        ],
        (2**32, 101, 2**31): [
            0.3717568611980021, 0.5405514171381266, 0.4245925645515046, 0.9420742343488566,
        ],
    }
    for (seed, stream, tag), want in pinned.items():
        assert counter_uniforms(seed, stream, ids, tag).tolist() == want


def sweep_brute(indptr, indices, bucket, n_buckets):
    n = len(indptr) - 1
    return [
        [
            sum(int(bucket[v] <= k) for v in indices[indptr[i] : indptr[i + 1]])
            for i in range(n)
        ]
        for k in range(n_buckets)
    ]


def test_neighbor_count_sweep_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        indptr, indices = random_csr(rng, n, int(rng.integers(0, 3 * n)))
        n_buckets = int(rng.integers(1, 8))
        # buckets with no node, and n_buckets and beyond for never
        bucket = rng.integers(0, n_buckets + 2, size=n)
        got = [c.copy() for c in neighbor_count_sweep(indptr, indices, bucket, n_buckets)]
        assert [c.tolist() for c in got] == sweep_brute(indptr, indices, bucket, n_buckets)


def test_neighbor_count_sweep_reuses_one_array():
    indptr, indices = csr_from_edges(3, [(0, 1), (1, 2)])
    seen = list(neighbor_count_sweep(indptr, indices, np.array([0, 2, 1]), 3))
    assert all(c is seen[0] for c in seen)
    assert seen[0].tolist() == [1, 2, 1]  # the last step: every bucket <= 2


def test_increment_neighbor_counts_twins():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        indptr, indices = random_csr(rng, n, int(rng.integers(0, 3 * n)))
        nodes = np.flatnonzero(rng.random(n) < 0.3).astype(np.int64)
        a = np.zeros(n, dtype=np.int64)
        increment_neighbor_counts(indptr, indices, nodes, a)
        brute = np.zeros(n, dtype=np.int64)
        for v in nodes:
            for w in indices[indptr[v] : indptr[v + 1]]:
                brute[w] += 1
        assert np.array_equal(a, brute)


def test_csr_rows_slices_neighbor_lists():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        indptr, indices = random_csr(rng, n, int(rng.integers(0, 3 * n)))
        rows = rng.permutation(n)[: int(rng.integers(0, n + 1))].astype(np.int64)
        sub_indptr, sub_indices = csr_rows(indptr, indices, rows)
        assert len(sub_indptr) == len(rows) + 1
        for k, r in enumerate(rows):
            got = sub_indices[sub_indptr[k] : sub_indptr[k + 1]]
            assert got.tolist() == indices[indptr[r] : indptr[r + 1]].tolist()


def test_empty_graph_and_empty_nodes():
    indptr = np.zeros(6, dtype=np.int64)  # 5 isolated nodes
    indices = np.zeros(0, dtype=np.int32)
    sweep = neighbor_count_sweep(indptr, indices, np.zeros(5, dtype=np.int64), 3)
    assert [c.tolist() for c in sweep] == [[0] * 5] * 3
    # no nodes at all
    sweep = neighbor_count_sweep(np.zeros(1, dtype=np.int64), indices, [], 2)
    assert [c.tolist() for c in sweep] == [[], []]
    counts = np.zeros(5, dtype=np.int64)
    increment_neighbor_counts(indptr, indices, np.zeros(0, dtype=np.int64), counts)
    assert counts.sum() == 0


def random_columns(rng, n):
    """Columns of the dtypes sort_rows meets: four whose ranges pack into
    one uint64 key together, and two 64-bit ones too wide to pack with any
    other column."""
    packed = [
        rng.integers(0, 256, n).astype(np.uint8),
        rng.integers(2**64 - 1000, 2**64 - 1, n, dtype=np.uint64, endpoint=True),
        rng.integers(-500, 500, n),
        rng.random(n) < 0.5,
    ]
    wide = [
        rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True),
        rng.integers(-(2**63), 2**63 - 1, n, endpoint=True),
    ]
    return packed, wide


def check_sort_rows(columns):
    order = np.lexsort(columns[::-1])
    want = [c.take(order) for c in columns]
    got = [c.copy() for c in columns]
    sort_rows(*got)
    for c, w, g in zip(columns, want, got):
        assert g.dtype == c.dtype
        assert np.array_equal(g, w)


def test_sort_rows_matches_lexsort_packed_and_fallback():
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 7, 500):
        packed, wide = random_columns(rng, n)
        check_sort_rows(packed)  # 8 + 10 + 10 + 1 bits
        check_sort_rows(packed[::-1])
        for c in packed + wide:
            check_sort_rows([c])
        # the lexsort fallback: more than 64 bits in all
        check_sort_rows([wide[0], packed[0], packed[3]])
        check_sort_rows([packed[2], wide[1]])
        check_sort_rows(wide)


def test_sort_rows_packs_full_width_columns():
    rng = np.random.default_rng(12)
    extremes = np.array([-(2**63), 2**63 - 1, 0, -1, 1], dtype=np.int64)
    extremes = rng.permutation(np.repeat(extremes, 3))
    check_sort_rows([extremes, np.ones(len(extremes), dtype=bool)])  # 64 + 0 bits
    ids = np.array([2**64 - 1, 0, 2**63, 5, 2**64 - 1], dtype=np.uint64)
    check_sort_rows([ids, np.zeros(len(ids), dtype=np.int8)])
    check_sort_rows([np.full(len(ids), 7, dtype=np.int8), ids])  # 0 + 64 bits
    check_sort_rows([np.ones(4, dtype=bool), np.array([3, -2, 3, 0])])  # a constant True


def test_distinct_rows_matches_unique_rows():
    rng = np.random.default_rng(13)
    for n in (0, 1, 50, 400):
        a = rng.integers(-3, 3, n)
        b = rng.integers(0, 4, n).astype(np.uint8)
        want = np.unique(np.column_stack([a, b]), axis=0) if n else np.empty((0, 2))
        got = distinct_rows(a.copy(), b.copy())
        assert [g.dtype for g in got] == [a.dtype, b.dtype]
        assert np.array_equal(np.column_stack(got), want.reshape(-1, 2))
        assert np.array_equal(distinct_rows(a.copy())[0], np.unique(a))
