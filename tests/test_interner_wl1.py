import struct
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksetwl import build_graph, interner
from ksetwl.cli import main
from ksetwl.errors import ParameterError, ResourceLimitError
from ksetwl.interner import number_window, refine_coloring_window
from ksetwl.pipeline import exact_kset_run, la_kset_run

from conftest import MUTAG_DIR, label_groups, random_graph
import reference as ref
from reference import (graph_slices, histogram, iso_key, refine_key,
                       wl1_colorings, wl1_histograms)


def initial_coloring(g):
    return wl1_colorings(g, 0)[0]


# the one edge 0--1, its columns as offsets from their rows
EDGE = (np.array([0, 1, 2]), ref.row_offsets([0, 1, 2], [1, 0]))


def refinement_keys(indptr, indices, labels):
    """The keys one exact refinement window hands to ``number_window``, in
    row order, for a CSR with absolute columns.  The window visits the
    rows stably ordered by own label."""
    keys = []

    def recording(stream, first):
        stream = list(stream)
        keys.extend(stream)
        return number_window(stream, first)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interner, "number_window", recording)
        refine_coloring_window(indptr, ref.row_offsets(indptr, indices),
                               labels, int(labels.max()) + 1)
    order = np.argsort(labels[:len(indptr) - 1], kind="stable")
    return [keys[i] for i in np.argsort(order).tolist()]


def test_intern_idempotent():
    # a key met twice in a window takes one id
    a, b = number_window([refine_key(3, (1, 2))] * 2, 0)
    assert a == b == 0


def test_fresh_keys_get_consecutive_ids():
    ids = number_window([refine_key(6, ()), refine_key(5, ())], 4)
    assert ids.tolist() == [5, 4]


def test_unsorted_neighbor_labels_caught():
    with pytest.raises(AssertionError):
        refine_key(3, (2, 1))


def test_key_batch_matches_per_row_keys():
    indptr = np.array([0, 2, 2, 5])
    indices = np.array([2, 1, 0, 2, 1])
    labels = np.array([7, 3, 9])
    assert refinement_keys(indptr, indices, labels) == [
        refine_key(7, (3, 9)), refine_key(3, ()), refine_key(9, (3, 7, 9))]


def test_key_batch_rows_are_a_prefix_of_the_labeled_items():
    # two rows over three labeled items: own labels are labels[:2]
    indptr = np.array([0, 2, 3])
    indices = np.array([2, 1, 2])
    labels = np.array([7, 3, 9])
    assert refinement_keys(indptr, indices, labels) == [
        refine_key(7, (3, 9)), refine_key(3, (9,))]
    with pytest.raises(ParameterError, match="shorter than the adjacency"):
        refine_coloring_window(indptr, ref.row_offsets(indptr, indices),
                               labels[:1], 10)


def test_key_batch_rejects_labels_past_the_sort_key_range():
    with pytest.raises(ParameterError):
        refine_coloring_window(*EDGE, np.array([0, 1 << 62]), 0)


# ids span [0, 2^31); iso-code words span the signed 64-bit range
LABELS = (st.integers(0, 3) | st.integers(2 ** 31 - 3, 2 ** 31 - 1)
          | st.integers(0, 2 ** 31 - 1))
WORDS = (st.integers(-3, 3) | st.integers(-2 ** 63, -2 ** 63 + 2)
         | st.integers(2 ** 63 - 3, 2 ** 63 - 1))
REFINEMENTS = st.tuples(LABELS, st.lists(LABELS, max_size=4).map(sorted))


@given(st.lists(REFINEMENTS, min_size=1, max_size=8),
       st.lists(st.lists(WORDS, min_size=1, max_size=10), min_size=1,
                max_size=8))
@settings(max_examples=200, deadline=None)
def test_key_kinds_are_disjoint_and_ordered(refinements, codes):
    # the refinement keys exact windows number, in the layout of
    # refine_coloring_window, order as their tuples; the iso keys of the
    # interned reference run order as their rows and after every
    # refinement key
    refine = [refine_key(prev, nbrs) for prev, nbrs in refinements]
    tuples = [(prev, *nbrs) for prev, nbrs in refinements]
    for a, ta in zip(refine, tuples):
        for b, tb in zip(refine, tuples):
            assert (a < b) == (ta < tb) and (a == b) == (ta == tb)
    iso = list(map(iso_key, codes))
    for a, wa in zip(iso, codes):
        for b, wb in zip(iso, codes):
            assert (a < b) == (wa < wb) and (a == b) == (wa == wb)
    # every refinement key sorts before, and so differs from, every iso key
    assert max(refine) < min(iso)
    window = number_window(iso + refine, 0)
    assert window[len(iso):].max() < window[:len(iso)].min()


@pytest.mark.parametrize("prev, nbrs", [(-1, ()), (2 ** 63, ()), (0, (-1,)),
                                        (2 ** 31, ()), (0, (2 ** 31,))])
def test_refine_key_rejects_labels_outside_the_id_range(prev, nbrs):
    with pytest.raises(ParameterError):
        refine_key(prev, nbrs)


def test_key_batch_rejects_negative_labels():
    with pytest.raises(ParameterError):
        refine_coloring_window(*EDGE, np.array([0, -1]), 0)


def test_key_batch_rejects_labels_past_the_id_cap():
    with pytest.raises(ParameterError):
        refine_coloring_window(*EDGE, np.array([0, 2 ** 31]), 0)


def key_64(prev, nbrs) -> bytes:
    """A refinement key in the earlier layout: big-endian 64-bit words."""
    return struct.pack(f">{1 + len(nbrs)}Q", prev, *nbrs)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_windows_issue_the_ids_of_the_64_bit_layout(data):
    # a few exact refinement windows over random CSRs, each taking the
    # labels the window before issued, against one window numbering the
    # keys of the 64-bit layout
    n = data.draw(st.integers(1, 12))
    labels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n,
                                         max_size=n)))
    for _ in range(data.draw(st.integers(1, 4))):
        degrees = data.draw(st.lists(st.integers(0, 4), min_size=n,
                                     max_size=n))
        indptr = np.cumsum([0] + degrees)
        indices = np.array(data.draw(st.lists(
            st.integers(0, n - 1), min_size=sum(degrees),
            max_size=sum(degrees))), dtype=np.int64)
        # spread the ids over the word so every byte of it takes part
        words = labels * data.draw(st.sampled_from([1, 257, 65_537, 2 ** 24]))
        first = int(words.max()) + 1
        reference = [key_64(int(words[i]), sorted(
            words[indices[indptr[i]:indptr[i + 1]]].tolist()))
            for i in range(n)]
        ids = refine_coloring_window(
            indptr, ref.row_offsets(indptr, indices), words, first)
        assert np.array_equal(ids, number_window(reference, first))
        labels = ids


def test_label_ids_past_the_cap_exit_3(monkeypatch, tmp_path, capsys):
    # MUTAG's 7 node labels fit a cap of 10; its first refinement does not
    monkeypatch.setattr(interner, "_ID_CAP", 10)
    code = main(["gram", "--dataset", MUTAG_DIR, "--kernel", "wl1", "--h",
                 "2", "--output", str(tmp_path / "gram.txt")])
    assert code == 3
    assert "label ids stop at 10" in capsys.readouterr().err


@pytest.mark.parametrize("cap, code", [(40, 0), (39, 3)])
def test_a_window_whose_runs_pass_the_cap_together_exits_3(
        monkeypatch, tmp_path, capsys, cap, code):
    # MUTAG's 7 node labels and the 33 keys of its first 1-WL window need
    # the ids 0..39.  One-entry runs number that window a class or so at a
    # time, each run far below the cap: only their running total passes it
    firsts = []

    def recording(keys, first):
        firsts.append(first)
        return number_window(keys, first)

    monkeypatch.setattr(interner, "_ID_CAP", cap)
    monkeypatch.setattr(interner, "_KEY_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(interner, "number_window", recording)
    assert main(["gram", "--dataset", MUTAG_DIR, "--kernel", "wl1", "--h",
                 "1", "--output", str(tmp_path / "gram.txt")]) == code
    assert len(firsts) > 1 and firsts[0] == 7 and firsts == sorted(firsts)
    if code:
        assert f"label ids stop at {cap}" in capsys.readouterr().err


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 3, 1 << 16]),
       st.sampled_from([1, 257, 65_537, 2 ** 24]), st.booleans())
def test_exact_window_runs_issue_the_ids_of_one_window(seed, budget, spread,
                                                       near_cap):
    # a random CSR with empty rows, labeled items past the rows, ids spread
    # over all four bytes of a word, and one class whose rows hold more
    # entries than a run may; the window starts after the largest label or
    # as close to the cap as its rows allow
    rng = np.random.default_rng(seed)
    few, big = int(rng.integers(1, 25)), budget // 64 + 2
    degrees = np.concatenate([rng.integers(0, 5, few), np.full(big, 64)])
    degrees[0] = 0
    rows = len(degrees)
    perm = rng.permutation(rows)
    degrees = degrees[perm]
    classes = np.concatenate([rng.integers(0, 4, few),
                              np.full(big, rng.integers(0, 5))])[perm]
    items = rows + int(rng.integers(0, 4))
    labels = (np.concatenate([classes, rng.integers(0, 5, items - rows)])
              * spread).astype(np.int32)
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    offsets = ref.row_offsets(indptr, rng.integers(0, items, indptr[-1]))
    first = 2 ** 31 - rows if near_cap else int(labels.max()) + 1
    want = ref.one_window_ids(indptr, offsets, labels, first)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interner, "_KEY_BLOCK_ENTRIES", budget)
        got = refine_coloring_window(indptr, offsets, labels, first)
    assert got.dtype == np.int32 and np.array_equal(got, want)


def test_exact_windows_number_one_run_of_classes_at_a_time(mutag,
                                                          monkeypatch):
    # each number_window call of an exact window numbers whole own-label
    # classes, after those of the calls before, from the id after their
    # last; no call holds more than a small share of a window's keys
    from ksetwl import pipeline
    refine = pipeline.refine_coloring_window
    windows = []

    def window(*args):
        windows.append([])
        return refine(*args)

    def recording(keys, first):
        keys = list(keys)
        windows[-1].append((keys, first))
        return number_window(keys, first)

    monkeypatch.setattr(pipeline, "refine_coloring_window", window)
    monkeypatch.setattr(interner, "number_window", recording)
    labels, _ = exact_kset_run(mutag.graphs, 3, 3)
    assert len(windows) == 3
    for calls, before, after in zip(windows, labels, labels[1:]):
        first, last_own = int(before.max()) + 1, b""
        for keys, start in calls:
            owns = {key[:4] for key in keys}
            distinct = len(set(keys))
            assert start == first and distinct <= len(keys)
            assert min(owns) > last_own
            first, last_own = first + distinct, max(owns)
        assert first == int(after.max()) + 1
    distinct = [len(set(keys)) for keys, _ in windows[2]]
    assert sum(distinct) == 81_433 and max(distinct) <= 81_433 // 16


def test_the_real_id_cap_is_refused_and_leaves_the_table():
    # the id 2^31 does not fit a window's int32 ids; no table outlives a
    # refused window, so the next one numbers as if it had not been
    keys = [refine_key(0, ()), refine_key(1, ())]
    with pytest.raises(ResourceLimitError, match=f"stop at {2 ** 31}"):
        number_window(keys, 2 ** 31 - 1)
    assert number_window(keys[1:], 2 ** 31 - 1).tolist() == [2 ** 31 - 1]


def test_window_order_independent_of_input_order():
    # a key's id depends only on the window's set of keys
    keys = [refine_key(v, ()) for v in (9, 1, 5)]
    left = number_window(keys, 0).tolist()
    right = number_window(reversed(keys), 0).tolist()
    assert left == right[::-1] == [2, 0, 1]


WINDOW_KEYS = st.sampled_from([refine_key(v, ()) for v in range(5)]
                              + [bytes([0x80, w]) for w in range(3)])


@given(st.lists(st.lists(WINDOW_KEYS, max_size=5), max_size=4),
       st.integers(1, 9), st.integers(0, 9))
@settings(max_examples=200, deadline=None)
def test_streamed_window_equals_the_concatenated_list(chunks, cap, first):
    # a window's keys arrive as a generator over chunks, duplicated within
    # and across chunks, or not at all; ids past the cap are refused
    stream = (key for chunk in chunks for key in chunk)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interner, "_ID_CAP", cap)
        try:
            want = number_window(list(chain.from_iterable(chunks)), first)
        except ResourceLimitError:
            with pytest.raises(ResourceLimitError):
                number_window(stream, first)
        else:
            got = number_window(stream, first)
            assert got.dtype == want.dtype == np.int32
            assert got.tolist() == want.tolist()


@given(st.lists(WINDOW_KEYS | st.binary(max_size=2), max_size=12),
       st.integers(1, 2 ** 31), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_number_window_numbers_distinct_keys_in_byte_order(keys, cap, below):
    # first lies at or just below a patched cap; the keys arrive as a
    # stream and may repeat; the window is refused exactly where its last
    # id would reach the cap
    first = max(cap - below, 0)
    distinct = sorted(set(keys))
    want = dict(zip(distinct, range(first, first + len(distinct))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interner, "_ID_CAP", cap)
        if first + len(distinct) > cap:
            with pytest.raises(ResourceLimitError, match=f"stop at {cap}"):
                number_window(iter(keys), first)
        else:
            got = number_window(iter(keys), first)
            assert got.dtype == np.int32
            assert got.tolist() == [want[key] for key in keys]


def test_initial_coloring_regular_graph(tri):
    col = initial_coloring(tri)
    assert len(set(col.tolist())) == 1


def test_initial_coloring_by_degree(p3):
    col = initial_coloring(p3)
    assert col[0] == col[2] != col[1]


def test_initial_coloring_raw_labels():
    g = build_graph(2, [(0, 1)], node_labels=[10, 20])
    col = initial_coloring(g)
    assert col[0] != col[1]


def test_one_step_on_path(p3):
    col, nxt = wl1_colorings(p3, 1)
    assert len(col) == len(nxt) == 3
    assert sorted(histogram(nxt).values()) == [1.0, 2.0]


def test_cycle_never_splits(c6):
    cols = wl1_colorings(c6, 4)
    assert all(len(set(c.tolist())) == 1 for c in cols)


def test_isolated_vertex_refines_with_empty_multiset():
    g = build_graph(1, [])
    cols = wl1_colorings(g, 2)
    assert all(len(c) == 1 for c in cols)


def test_triangle_histograms():
    hists = wl1_histograms(build_graph(3, [(0, 1), (1, 2), (0, 2)]), 2)
    assert all(list(h.values()) == [3.0] for h in hists)


def test_path_histograms(p3):
    hists = wl1_histograms(p3, 1)
    assert sorted(hists[0].values()) == [1.0, 2.0]
    assert sorted(hists[1].values()) == [1.0, 2.0]


def test_regular_pair_indistinguishable(c6, two_k3):
    # both 2-regular and unlabeled: every iteration keeps one joint class
    labels, counts = exact_kset_run([c6, two_k3], 1, 5)
    first, second = graph_slices(counts)
    for it in labels:
        assert histogram(it[first]) == histogram(it[second])


def test_refinement_only_splits():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(2, 12)), 0.4, labeled=bool(rng.integers(2)))
        cols = wl1_colorings(g, 3)
        for prev, cur in zip(cols, cols[1:]):
            coarse = label_groups(prev.tolist())
            fine = label_groups(cur.tolist())
            for cls in fine:
                assert any(cls <= sup for sup in coarse)
            assert len(fine) >= len(coarse)


def test_histogram_mass_is_vertex_count():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 15))
        g = random_graph(rng, n, 0.5)
        for hist in wl1_histograms(g, 3):
            assert sum(hist.values()) == n


def test_label_ids_reproducible():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 9, 0.5, labeled=True)
    runs = [wl1_colorings(g, 4) for _ in range(2)]
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_distinguishable_stops_on_stable_partition(c6, two_k3, p3, tri):
    assert not ref.distinguishable(c6, two_k3, 10)
    assert ref.distinguishable(p3, tri, 0)  # degree histograms already differ


def test_distinguishable_caps_h_at_the_vertex_count(p3, p4):
    # P3 and P4 differ at h = 0 already; a huge h must not run that long
    assert ref.distinguishable(p3, p4, 10 ** 12)
    assert not ref.distinguishable(p4, p4, 10 ** 12)


def test_unlabeled_wl1_partitions_agree_with_reference():
    # 1-WL as local k-set refinement at k = 1 starts unlabeled graphs from
    # their degrees; joint partitions over several graphs, hash and linalg
    rng = np.random.default_rng(31)
    for _ in range(15):
        graphs = [random_graph(rng, int(rng.integers(1, 10)),
                               float(rng.choice([0.2, 0.5, 0.8])))
                  for _ in range(int(rng.integers(1, 4)))]
        naive = ref.naive_wl1_partitions(graphs, 4)
        hashed, counts = exact_kset_run(graphs, 1, 4)
        linalg, la_counts = la_kset_run(graphs, 1, 4)
        assert la_counts == counts
        for it in range(5):
            want = label_groups(naive[it])
            for run in (hashed, linalg):
                assert label_groups({
                    (gi, v): lab
                    for gi, rows in enumerate(graph_slices(counts))
                    for v, lab in enumerate(run[it][rows].tolist())}) == want
