"""Property tests of the bulk k-set front end against per-set loops.

The bulk iso-type keys, the bulk neighbor CSR and the gram (holder pairs
and dense columns) are each compared with a plain per-set (or per-pair)
computation of the same quantity over random labeled graphs, including
graphs with fewer than k vertices and graphs without edges.  The front end
built once over a stack of graphs is compared with per-graph builds, and
its iso-type ids with numbering one per-set key per k-set.  Iso codes
ascend, so a fresh window numbers them in order, which makes a linalg
run's iteration 0 the exact run's on MUTAG.  The lexsort
row dedupe is compared with ``np.unique(axis=0)``, every entry of the
swap table with the rank of its set, and the sampler's swap levels with a
breadth-first search over naive swaps and with rows of the front end's CSR.
"""

import tracemalloc
from itertools import combinations, permutations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ksetwl import KSetIndex, build_graph, gram_matrix, la_kset_run
from ksetwl.interner import number_window
from ksetwl.kwl import (DEFAULT_MAX_SETS, _append_rows, _neighbor_csr,
                        _swap_table,
                        _unique_rows, iso_code, iso_keys, stack_graphs,
                        stacked_sets, swap_levels)
from ksetwl.pipeline import exact_kset_run, kset_front_end

from conftest import label_groups
import reference as ref
from reference import (degree, dot, edge_label, features_of, has_edge,
                       neighbor_csr, per_set_csr, per_set_neighbors, rank)


def code_bytes(code) -> bytes:
    """An iso code's layout: its values as sign-biased big-endian 64-bit
    words, whose byte order is the order of the tuples."""
    return b"".join(int(x + (1 << 63)).to_bytes(8, "big") for x in code)


def per_set_iso_code(g, t) -> bytes:
    """Canonical code of one k-set by direct minimization over orderings:
    node labels (degrees for a vertex of an unlabeled graph), upper-triangle
    adjacency bits, edge labels (0 where absent)."""
    k = len(t)
    if g.node_labels is not None:
        labels = tuple(int(g.node_labels[v]) for v in t)
    else:
        labels = tuple(degree(g, v) for v in t) if k == 1 else (0,) * k
    adj = {}
    for a in range(k):
        for b in range(a + 1, k):
            if has_edge(g, t[a], t[b]):
                lab = edge_label(g, t[a], t[b])
                adj[(a, b)] = adj[(b, a)] = 0 if lab is None else int(lab)
    best = None
    for perm in permutations(range(k)):
        code = [labels[p] for p in perm]
        elabs = []
        for a in range(k):
            for b in range(a + 1, k):
                pair = (perm[a], perm[b])
                code.append(1 if pair in adj else 0)
                elabs.append(adj.get(pair, 0))
        tup = tuple(code + elabs)
        if best is None or tup < best:
            best = tup
    return code_bytes(best)


def row_keys(g, sets) -> list[bytes]:
    """The codes of :func:`iso_keys` as bytes, expanded to one per row of
    ``sets``, after checking that its codes are distinct and every row has
    an index."""
    codes, index = iso_keys(g, sets)
    keys = list(map(code_bytes, codes.tolist()))
    assert len(set(keys)) == len(keys)
    assert index.shape == (len(sets),)
    return [keys[i] for i in index.tolist()]


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    node_labels = draw(st.one_of(
        st.none(), st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    edge_labels = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, 2), min_size=len(edges), max_size=len(edges))))
    return build_graph(n, edges, node_labels=node_labels,
                       edge_labels=edge_labels)


@settings(max_examples=80, deadline=None)
@given(labeled_graphs(), st.integers(1, 4))
def test_bulk_iso_keys_equal_per_set_codes(g, k):
    sets = KSetIndex(g.num_vertices, k).all_sets()
    expected = [per_set_iso_code(g, tuple(int(v) for v in t)) for t in sets]
    assert row_keys(g, sets) == expected
    assert [iso_code(g, t) for t in sets] == expected


@settings(max_examples=80, deadline=None)
@given(labeled_graphs(), st.integers(2, 4))
def test_bulk_iso_keys_partition_like_naive_classes(g, k):
    sets = KSetIndex(g.num_vertices, k).all_sets()
    edges = ref.edge_pairs(g)
    naive = [ref.naive_iso_class(g, t.tolist(), edges) for t in sets]
    assert label_groups(row_keys(g, sets)) == label_groups(naive)


@settings(max_examples=80, deadline=None)
@given(labeled_graphs(), st.integers(1, 4), st.booleans())
def test_bulk_csr_equals_per_set_neighbors(g, k, local):
    index = KSetIndex(g.num_vertices, k)
    indptr, indices = neighbor_csr(g, index, local, index.all_sets())
    expected_ptr, expected_idx = per_set_csr([g], k, local)
    assert np.array_equal(indptr, expected_ptr)
    assert np.array_equal(indices, expected_idx)
    neighbors = ref.local_neighbors if local else ref.global_neighbors
    for t in index.all_sets()[:4].tolist():
        assert neighbors(g, tuple(t)) == per_set_neighbors(g, tuple(t), local)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", range(10))
def test_swap_table_ranks_every_swap(n, k):
    index = KSetIndex(n, k)
    table = _swap_table(index, index.all_sets())
    assert table.shape == (comb(n, k - 1), n) and table.dtype == np.int32
    # (k-1)-sets in colex order: ascending by reversed tuple
    smaller = sorted(combinations(range(n), k - 1), key=lambda t: t[::-1])
    assert len(smaller) == comb(n, k - 1)
    for t, row in zip(smaller, table.tolist()):
        for v in range(n):
            if v not in t:
                assert row[v] == rank(sorted(t + (v,)))


@settings(max_examples=120, deadline=None)
@given(labeled_graphs(), st.integers(1, 4), st.integers(0, 3), st.data())
def test_swap_levels_are_breadth_first_closures(g, k, radius, data):
    index = KSetIndex(g.num_vertices, k)
    every = index.all_sets()
    order = data.draw(st.permutations(range(len(every))))
    sets = every[order[:data.draw(st.integers(0, min(4, len(every))))]]
    rows, sizes, indptr, offsets = swap_levels(g, sets, radius)
    indices = ref.absolute_columns(indptr, offsets)
    assert np.array_equal(rows[:len(sets)], sets)
    assert len(sizes) == radius + 1 and sizes[-1] == len(rows)
    edges = ref.edge_pairs(g)
    closure = frontier = set(map(frozenset, sets.tolist()))
    for size in sizes:
        within = list(map(frozenset, rows[:size].tolist()))
        assert len(set(within)) == size and set(within) == closure
        frontier = {t for s in frontier
                    for t in ref.naive_local_neighbors(g, s, edges)} - closure
        closure = closure | frontier
    # each expanded row's swaps, in the order of its front-end CSR row
    expanded = sizes[-2] if radius else 0
    assert len(indptr) == expanded + 1 and indptr[-1] == len(indices)
    csr_ptr, csr_idx = neighbor_csr(g, index, True, every)
    for r, t in enumerate(rows[:expanded].tolist()):
        r_t = rank(t)
        want = every[csr_idx[csr_ptr[r_t]:csr_ptr[r_t + 1]]]
        assert np.array_equal(rows[indices[indptr[r]:indptr[r + 1]]], want)


# a stack whose widest graph is neither first nor last
MIDDLE_WIDEST = [build_graph(3, [(0, 1)]),
                 build_graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)],
                             node_labels=[0, 1, 0, 1, 2, 0, 1]),
                 build_graph(5, [(0, 4), (1, 4), (2, 3)])]


# graphs with fewer than k = 3 vertices, which have no 3-sets
FEWER_THAN_K = [build_graph(2, [(0, 1)]), build_graph(0, []),
                build_graph(1, [])]


@settings(max_examples=80, deadline=None)
@given(st.lists(labeled_graphs(), max_size=4), st.integers(1, 4))
@example([], 3)
@example(FEWER_THAN_K, 3)
@example(MIDDLE_WIDEST, 3)
def test_stacked_sets_are_each_graphs_sets_shifted(graphs, k):
    _, offsets = stack_graphs(graphs, k)
    index = KSetIndex(max((g.num_vertices for g in graphs), default=0), k)
    counts = [comb(g.num_vertices, k) for g in graphs]
    sets = stacked_sets(index, counts, offsets)
    want = [KSetIndex(g.num_vertices, k).all_sets() + offset
            for g, offset in zip(graphs, offsets)]
    assert sets.dtype == np.int32 and sets.shape == (sum(counts), k)
    assert np.array_equal(sets, np.concatenate(
        [np.empty((0, k), dtype=np.int64)] + want))


@settings(max_examples=80, deadline=None)
@given(st.lists(labeled_graphs(), max_size=4), st.integers(1, 4),
       st.booleans())
@example([], 3, True)
@example([], 3, False)
@example(FEWER_THAN_K, 3, True)
@example(FEWER_THAN_K, 3, False)
@example(MIDDLE_WIDEST, 3, True)
@example(MIDDLE_WIDEST, 3, False)
def test_stacked_front_end_equals_per_graph_builds(graphs, k, local):
    (_, ids), counts, (indptr, offsets) = kset_front_end(
        graphs, k, local, 1, DEFAULT_MAX_SETS)
    indices = ref.absolute_columns(indptr, offsets)
    # the types are the ids one fresh window issues for the iso codes of
    # each graph's own build
    assert np.array_equal(ids, number_window(
        [key for g in graphs for key in row_keys(
            g, KSetIndex(g.num_vertices, k).all_sets())], 0))
    rows = np.cumsum([0] + counts).tolist()
    assert len(ids) == rows[-1] == len(indptr) - 1
    assert indptr[-1] == len(indices)
    for g, a, b in zip(graphs, rows, rows[1:]):
        expected_ptr, expected_idx = per_set_csr([g], k, local)
        assert np.array_equal(indptr[a:b + 1] - indptr[a], expected_ptr)
        # columns are stack positions: the graph's first row plus a rank
        assert np.array_equal(indices[indptr[a]:indptr[b]], a + expected_idx)
    assert kset_front_end(graphs, k, local, 0, DEFAULT_MAX_SETS)[2] is None


# a stack whose widest graph has C(60, 3) = 34,220 > 2^15 - 1 3-sets
WIDE_PATH = [build_graph(4, [(0, 1), (1, 2)]),
             build_graph(60, [(i, i + 1) for i in range(59)])]


def swap_offsets_decode_to(indptr, offsets, want_ptr, want_columns):
    """Whether a CSR of offsets from their row has an int32 row pointer
    equal to ``want_ptr`` and decodes to the absolute ``want_columns``."""
    assert indptr.dtype == np.int32 and np.array_equal(indptr, want_ptr)
    return np.array_equal(ref.absolute_columns(indptr, offsets), want_columns)


@settings(max_examples=80, deadline=None)
@given(st.lists(labeled_graphs(), max_size=4), st.integers(1, 3),
       st.booleans())
@example(MIDDLE_WIDEST, 3, False)
@example(WIDE_PATH, 3, True)
@example(FEWER_THAN_K + MIDDLE_WIDEST, 3, True)
def test_neighbor_csr_offsets_decode_to_the_per_set_columns(graphs, k,
                                                            local):
    *_, (indptr, offsets) = kset_front_end(graphs, k, local, 1,
                                           DEFAULT_MAX_SETS)
    assert swap_offsets_decode_to(indptr, offsets,
                                  *per_set_csr(graphs, k, local))
    # offsets span +-(C(n_max, k) - 1), picked before the build
    widest = max((comb(g.num_vertices, k) for g in graphs), default=0)
    assert offsets.dtype == (np.int16 if widest <= 1 << 15 else np.int32)


@settings(max_examples=80, deadline=None)
@given(labeled_graphs(), st.integers(1, 3), st.integers(0, 3), st.data())
@example(WIDE_PATH[1], 3, 1, None)
def test_swap_level_offsets_decode_to_the_per_set_columns(g, k, radius,
                                                          data):
    sets = KSetIndex(g.num_vertices, k).all_sets()
    if data is not None:   # a few sets; the explicit example takes them all
        order = data.draw(st.permutations(range(len(sets))))
        sets = sets[order[:data.draw(st.integers(0, min(4, len(sets))))]]
    rows, sizes, indptr, offsets = swap_levels(g, sets, radius)
    position = {t: i for i, t in enumerate(map(tuple, rows.tolist()))}
    swaps = [per_set_neighbors(g, t, True) for t in
             map(tuple, rows[:sizes[-2] if radius else 0].tolist())]
    want = [position[s] for row in swaps for s in row]
    assert swap_offsets_decode_to(
        indptr, offsets, np.cumsum([0] + list(map(len, swaps))),
        np.array(want, dtype=np.int64))
    # offsets span +-(len(rows) - 1)
    assert offsets.dtype == (np.int16 if len(rows) <= 1 << 15 else np.int32)


@settings(max_examples=120, deadline=None)
@given(st.lists(labeled_graphs(), min_size=1, max_size=3), st.integers(1, 4),
       st.sampled_from([1, 2, None]))
def test_distinct_row_iso_ids_equal_per_set_interning(graphs, k, block_rows):
    # blocks of 1 or 2 sets (None: the default size) split repeated raw
    # rows across blocks, so the cross-block dedupe carries the grouping
    from ksetwl import kwl
    with pytest.MonkeyPatch.context() as patch:
        if block_rows is not None:
            patch.setattr(kwl, "_BLOCK_ITEMS", block_rows * factorial(k))
        ids = kset_front_end(graphs, k, True, 0, DEFAULT_MAX_SETS)[0][1]
    keys = [per_set_iso_code(g, tuple(t)) for g in graphs
            for t in KSetIndex(g.num_vertices, k).all_sets().tolist()]
    want = number_window(keys, 0)
    assert ids.dtype == np.int32 and np.array_equal(ids, want)
    assert int(ids.max(initial=-1)) + 1 == len(set(keys))


@settings(max_examples=80, deadline=None)
@given(labeled_graphs(), st.integers(1, 4))
@example(build_graph(4, [(0, 1), (2, 3)], node_labels=[-3, 2, -1, -3]), 2)
def test_iso_codes_ascend_as_a_fresh_window_numbers_them(g, k):
    # the front end's iso types are iteration 0 without a window
    codes, _ = iso_keys(g, KSetIndex(g.num_vertices, k).all_sets())
    rows = codes.tolist()
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert np.array_equal(number_window(map(code_bytes, rows), 0),
                          np.arange(len(codes)))


@pytest.mark.parametrize("local", [True, False])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_linalg_iteration_zero_is_the_exact_one(mutag, k, local):
    la, la_counts = la_kset_run(mutag.graphs, k, 0, local=local)
    exact, counts = exact_kset_run(mutag.graphs, k, 0, local=local)
    assert la_counts == counts and len(la) == len(exact) == 1
    assert np.array_equal(la[0], exact[0])


@settings(max_examples=80, deadline=None)
@given(st.lists(labeled_graphs(), max_size=4), st.integers(1, 3),
       st.booleans(), st.integers(0, 3))
@example(MIDDLE_WIDEST, 3, False, 3)
def test_exact_runs_issue_the_ids_of_one_persistent_interner(graphs, k, local,
                                                             h):
    # each window numbers its keys in a table of its own, continuing the
    # ids, as one dict kept across the windows does
    labels, counts = exact_kset_run(graphs, k, h, local=local)
    want, want_counts = ref.interned_exact_run(graphs, k, h, local=local)
    assert counts == want_counts and len(labels) == len(want) == h + 1
    for got, expected in zip(labels, want):
        assert got.dtype == np.int32 and np.array_equal(got, expected)


@settings(max_examples=60, deadline=None)
@given(st.lists(labeled_graphs(), min_size=1, max_size=3), st.integers(1, 3),
       st.booleans())
def test_refinement_blocks_do_not_change_labels(graphs, k, local):
    # a block of one neighbor entry puts each row with neighbors in a block
    # of its own; 2^30 entries put every row of these graphs in one block
    from ksetwl import interner
    runs = []
    for entries in (1, 1 << 30, None):
        with pytest.MonkeyPatch.context() as patch:
            if entries is not None:
                patch.setattr(interner, "_KEY_BLOCK_ENTRIES", entries)
            runs.append(exact_kset_run(graphs, k, 3, local=local))
    (one, counts), (whole, _), (default, _) = runs
    assert counts == [KSetIndex(g.num_vertices, k).size for g in graphs]
    for a, b, c in zip(one, whole, default):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def pairwise_dots(per_graph):
    n = len(per_graph)
    return np.array([[dot(u, v) for v in per_graph] for u in per_graph],
                    dtype=np.float64).reshape(n, n)


sparse_counts = st.dictionaries(st.integers(0, 12), st.integers(1, 40),
                                max_size=6)
sparse_masses = st.dictionaries(st.integers(0, 12), st.floats(0.0, 1.0),
                                max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda blocks: st.lists(
    st.lists(sparse_counts, min_size=blocks, max_size=blocks),
    min_size=0, max_size=7)))
def test_gram_equals_pairwise_dots_exactly_for_counts(per_graph):
    per_graph = [[{lab: float(c) for lab, c in b.items()} for b in blocks]
                 for blocks in per_graph]
    assert np.array_equal(gram_matrix(features_of(per_graph)),
                          pairwise_dots(per_graph))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda blocks: st.lists(
    st.lists(sparse_masses, min_size=blocks, max_size=blocks),
    min_size=1, max_size=7)))
def test_gram_matches_pairwise_dots_for_masses(per_graph):
    K = gram_matrix(features_of(per_graph))
    assert np.array_equal(K, K.T)
    assert np.max(np.abs(K - pairwise_dots(per_graph))) <= 1e-12


# a few labels most graphs hold, and many that few graphs hold
mixed_counts = st.dictionaries(
    st.integers(0, 2) | st.integers(100, 400), st.integers(1, 40),
    max_size=8)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2).flatmap(lambda blocks: st.lists(
    st.lists(mixed_counts, min_size=blocks, max_size=blocks),
    min_size=1, max_size=14)),
    st.sampled_from([None, 0, 2, 1 << 40]), st.sampled_from([None, 1, 5]))
def test_light_and_heavy_labels_sum_like_pairwise_dots(per_graph, light,
                                                       chunk):
    # the split sends every label to the holder pairs (0), to dense columns
    # (2^40), or mixes the two; chunks of one or five cut entries, pairs
    # and columns
    from ksetwl import features as features_mod
    per_graph = [[{lab: float(c) for lab, c in b.items()} for b in blocks]
                 for blocks in per_graph]
    with pytest.MonkeyPatch.context() as patch:
        if light is not None:
            patch.setattr(features_mod, "_GRAM_LIGHT", light)
        if chunk is not None:
            patch.setattr(features_mod, "_GRAM_CHUNK", chunk)
            patch.setattr(features_mod, "_PAIR_CHUNK", chunk)
            patch.setattr(features_mod, "_ENTRY_CHUNK", chunk)
        K = gram_matrix(features_of(per_graph))
    assert np.array_equal(K, pairwise_dots(per_graph))


@pytest.mark.parametrize("chunk", [9 * 7, 9 * 2, 1])
def test_gram_chunks_agree_with_one_pass(monkeypatch, chunk):
    from ksetwl import features as features_mod
    rng = np.random.default_rng(3)
    per_graph = [[{int(lab): float(rng.integers(1, 9))
                   for lab in rng.choice(300, 40, replace=False)}]
                 for _ in range(9)]
    features = features_of(per_graph)
    whole = gram_matrix(features)
    monkeypatch.setattr(features_mod, "_GRAM_CHUNK", chunk)
    for pairs, entries in ((1, 1), (5, 3), (1, 40)):
        monkeypatch.setattr(features_mod, "_PAIR_CHUNK", pairs)
        monkeypatch.setattr(features_mod, "_ENTRY_CHUNK", entries)
        assert np.array_equal(gram_matrix(features), whole)
    assert np.array_equal(whole, pairwise_dots(per_graph))


def traced_peak(call, *args):
    """The result of ``call(*args)`` and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gram_scratch_memory_is_bounded(monkeypatch):
    # Every label here is light, and a block holds 40 entries per graph.
    # Past K itself (n^2 floats), the gram reads a block in chunks of whole
    # labels of about _ENTRY_CHUNK entries and adds each chunk's holder
    # pairs in chunks of about _PAIR_CHUNK, so its scratch does not grow
    # with the block: one int64 array over a block's 60,000 entries would
    # take 480 kB.  The
    # mirror of K works in blocks of at most max(_GRAM_CHUNK, n) cells.
    from ksetwl import features as features_mod
    monkeypatch.setattr(features_mod, "_GRAM_CHUNK", 1 << 12)
    n, universe, held = 1500, 2000, 20
    rng = np.random.default_rng(11)
    dense = np.zeros((n, 2 * universe))
    for i in range(n):
        dense[i, rng.choice(2 * universe, 2 * held, replace=False)] = \
            rng.integers(1, 5, 2 * held)
    features = features_of([[{int(j): float(row[j]) for j in
                              np.flatnonzero(row[b * universe:
                                                 (b + 1) * universe])
                              + b * universe} for b in range(2)]
                            for row in dense])
    K, peak = traced_peak(gram_matrix, features)
    assert np.array_equal(K, dense @ dense.T)
    assert peak - K.nbytes <= 8 * (6 * features_mod._ENTRY_CHUNK
                                   + 8 * features_mod._PAIR_CHUNK + 3 * n)


def test_gram_dense_column_scratch_is_bounded(monkeypatch):
    # A few labels every graph holds and many light ones.  Past K, the
    # gram holds one chunk of entries, the first entry and holder count of
    # each dense column, and one chunk of _GRAM_CHUNK dense cells with its
    # product rows.
    from ksetwl import features as features_mod
    monkeypatch.setattr(features_mod, "_GRAM_CHUNK", 1 << 12)
    n, universe, held, heavy = 400, 20000, 100, 60
    rng = np.random.default_rng(12)
    dense = np.zeros((n, universe + heavy))
    dense[:, universe:] = 1.0
    for i in range(n):
        dense[i, rng.choice(universe, held, replace=False)] = \
            rng.integers(1, 5, held)
    features = features_of([[{int(j): float(row[j])
                              for j in np.flatnonzero(row)}]
                            for row in dense])
    K, peak = traced_peak(gram_matrix, features)
    assert np.array_equal(K, dense @ dense.T)
    chunk = max(features_mod._GRAM_CHUNK, n)
    assert peak - K.nbytes <= 8 * (6 * features_mod._ENTRY_CHUNK
                                   + 8 * features_mod._PAIR_CHUNK + 2 * heavy
                                   + 3 * chunk)


def test_stacked_set_array_is_filled_in_place():
    # The front end's set array of 30 graphs is int32, filled graph by
    # graph: past it, the build holds only the widest graph's all_sets()
    # and its unranking scratch, where one int64 copy of all sets would
    # take 2.9 MB.
    graphs = [build_graph(30, [(i, i + 1) for i in range(29)])] * 30
    stack, offsets = stack_graphs(graphs, 3)
    index = KSetIndex(30, 3)
    counts = [index.size] * len(graphs)
    sets, peak = traced_peak(stacked_sets, index, counts, offsets)
    assert sets.dtype == np.int32 and len(sets) == 30 * comb(30, 3)
    assert np.array_equal(sets[index.size:2 * index.size],
                          index.all_sets() + 30)
    assert peak <= sets.nbytes + 8 * (index.k + 4) * index.size


def test_iso_key_scratch_memory_is_bounded(monkeypatch):
    # Past a few int arrays with one entry per set (the index and its
    # parts), iso_keys holds one block's orderings at a time; in one block,
    # the 34,220 3-sets of this graph would take about 6.7 MB.
    from ksetwl import kwl
    rng = np.random.default_rng(1)
    edges = [(u, v) for u in range(60) for v in range(u + 1, 60)
             if rng.random() < 0.1]
    g = build_graph(60, edges)
    sets = KSetIndex(g.num_vertices, 3).all_sets()
    monkeypatch.setattr(kwl, "_BLOCK_ITEMS", 1 << 10)
    tracemalloc.start()
    try:
        keys, index = iso_keys(g, sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(index) == len(sets) and len(keys) < 10
    assert peak <= 8 * (5 * len(sets) + 64 * kwl._BLOCK_ITEMS)


@pytest.mark.parametrize("local", [True, False])
def test_neighbor_csr_scratch_memory_is_bounded(monkeypatch, local):
    # Past one copy of the output CSR, the swap table and, for local swaps,
    # each candidate's incoming vertex as one byte (60 vertices fit uint8)
    # between the degree pass and the fill, _neighbor_csr holds one
    # block's candidates and offsets at a time; one int64 array over the
    # 34,220 3-sets of this graph would take 274 kB.
    from ksetwl import kwl
    rng = np.random.default_rng(1)
    edges = [(u, v) for u in range(60) for v in range(u + 1, 60)
             if rng.random() < 0.1]
    g = build_graph(60, edges)
    index = KSetIndex(g.num_vertices, 3)
    sets = index.all_sets().astype(np.int32)
    monkeypatch.setattr(kwl, "_BLOCK_ITEMS", 1 << 14)
    (indptr, indices), peak = traced_peak(
        _neighbor_csr, g, index, local, sets, np.array([0, g.num_vertices]))
    assert len(indptr) == len(sets) + 1 and indptr[-1] == len(indices)
    table = comb(60, 2) * 60 * 4
    waiting = len(indices) // 3 if local else 0
    assert peak <= (indices.nbytes + indptr.nbytes + table + waiting
                    + 16 * kwl._BLOCK_ITEMS)


def test_small_blocks_build_the_same_structures(monkeypatch):
    from ksetwl import kwl
    rng = np.random.default_rng(5)
    edges = [(u, v) for u in range(9) for v in range(u + 1, 9)
             if rng.random() < 0.4]
    g = build_graph(9, edges, node_labels=rng.integers(0, 3, 9).tolist(),
                    edge_labels=rng.integers(0, 2, len(edges)).tolist())
    index = KSetIndex(g.num_vertices, 3)
    sets = index.all_sets()
    whole = (iso_keys(g, sets), neighbor_csr(g, index, True, sets),
             neighbor_csr(g, index, False, sets))
    monkeypatch.setattr(kwl, "_BLOCK_ITEMS", 13)
    blocked = (iso_keys(g, sets), neighbor_csr(g, index, True, sets),
               neighbor_csr(g, index, False, sets))
    assert np.array_equal(blocked[0][0], whole[0][0])
    assert np.array_equal(blocked[0][1], whole[0][1])
    for a, b in zip(blocked[1:], whole[1:]):
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# ------------------------------------------------------------- row dedupe

I64 = np.iinfo(np.int64)
ROW_VALUES = (st.integers(-3, 3) | st.integers(I64.min, I64.min + 2)
              | st.integers(I64.max - 2, I64.max))


def assert_unique_rows_like_numpy(a):
    rows, inverse, counts = _unique_rows(a)
    want_rows, want_inverse, want_counts = np.unique(
        a, axis=0, return_inverse=True, return_counts=True)
    assert rows.dtype == a.dtype and rows.shape == want_rows.shape
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(inverse, want_inverse.reshape(-1))
    assert np.array_equal(counts, want_counts)


@st.composite
def row_matrices(draw):
    """Integer matrices with k = 2..4 columns whose entries come from a few
    values, so that rows repeat; values reach both int64 limits."""
    k = draw(st.integers(2, 4))
    pool = draw(st.lists(ROW_VALUES, min_size=1, max_size=3, unique=True))
    m = draw(st.integers(0, 60))
    cells = draw(st.lists(st.sampled_from(pool), min_size=m * k,
                          max_size=m * k))
    return np.array(cells, dtype=np.int64).reshape(m, k)


@given(row_matrices())
@settings(max_examples=200, deadline=None)
def test_unique_rows_match_numpy(a):
    assert_unique_rows_like_numpy(a)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("m", [0, 1, 7])
def test_unique_rows_of_empty_single_and_equal_rows(k, m):
    for value in (0, I64.min, I64.max):
        assert_unique_rows_like_numpy(np.full((m, k), value, dtype=np.int64))


# n = 200,000 at k = 4 (as ``long_path``): n^k passes 2^63, so no int64
# base-n key holds a set
WIDE_N = 200_000


@st.composite
def kset_tables(draw):
    """(rows, new, n): distinct k-sets ``rows`` in any order and k-sets
    ``new`` that repeat each other and ``rows``, over n vertices, small or
    ``WIDE_N`` at k = 4."""
    k = draw(st.integers(1, 4))
    n = WIDE_N if k == 4 and draw(st.booleans()) else draw(st.integers(k, 9))
    pool = draw(st.sets(st.integers(0, n - 1), min_size=k,
                        max_size=min(n, 7)))
    every = list(combinations(sorted(pool), k))
    rows = draw(st.lists(st.sampled_from(every), max_size=8, unique=True))
    new = draw(st.lists(st.sampled_from(every), max_size=20))
    return (np.array(rows, dtype=np.int64).reshape(-1, k),
            np.array(new, dtype=np.int64).reshape(-1, k), n)


def no_rows(k):
    return np.empty((0, k), dtype=np.int64)


@given(kset_tables())
@settings(max_examples=300, deadline=None)
@example((no_rows(4), no_rows(4), WIDE_N))
@example((no_rows(2), no_rows(2), 5))
@example((no_rows(4), np.array([[0, 1, 2, WIDE_N - 1]] * 3), WIDE_N))
@example((np.array([[1, 3], [0, 4]]), no_rows(2), 5))
@example((np.array([[1, 3], [0, 4]]), np.array([[2, 3], [0, 4], [2, 3],
                                                [0, 1]]), 5))
@example((np.array([[WIDE_N - 4, WIDE_N - 3, WIDE_N - 2, WIDE_N - 1]]),
          np.array([[0, 1, 2, WIDE_N - 1], [WIDE_N - 4, WIDE_N - 3,
                                            WIDE_N - 2, WIDE_N - 1]]),
          WIDE_N))
def test_append_rows_keeps_rows_and_adds_the_missing_sets_in_colex_order(
        table):
    rows, new, n = table
    result, where = _append_rows(rows, new, n)
    assert result.dtype == np.int64 and result.shape[1] == rows.shape[1]
    assert np.array_equal(result[:len(rows)], rows)
    # colex order is the lexicographic order of reversed rows
    kept = set(map(tuple, rows.tolist()))
    want = [t for t in map(tuple, _unique_rows(new[:, ::-1])[0][:, ::-1]
                           .tolist()) if t not in kept]
    assert list(map(tuple, result[len(rows):].tolist())) == want
    assert where.shape == (len(new),) and np.array_equal(result[where], new)

