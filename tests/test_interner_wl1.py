import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksetwl import build_graph, linalg
from ksetwl.cli import main
from ksetwl.errors import ParameterError, ResourceLimitError
from ksetwl.linalg import _sorted_neighbors, _split, _split_collisions
from ksetwl.pipeline import exact_kset_run, la_kset_run

from conftest import MUTAG_DIR, label_groups, random_graph
import reference as ref
from reference import (graph_slices, histogram, iso_key, number_keys,
                       refine_key, wl1_colorings, wl1_histograms)


def initial_coloring(g):
    return wl1_colorings(g, 0)[0]


def refinement_keys(indptr, indices, labels):
    """The exact key of each row of a CSR with absolute columns, from the
    exactness check's ascending neighbor labels of all rows at once."""
    rows = np.arange(len(indptr) - 1)
    span = int(labels.max()) + 1
    keys = _sorted_neighbors(indptr, ref.row_offsets(indptr, indices),
                             labels, rows, span)
    place, neighbors = np.divmod(keys, span)
    return [refine_key(int(labels[i]), neighbors[place == i].tolist())
            for i in rows.tolist()]


def empty_rows(n):
    """A CSR of ``n`` rows without neighbors: a row's key is its label."""
    return np.zeros(n + 1, dtype=np.int32), np.zeros(0, dtype=np.int16)


def split(labels, ranks):
    """The exact classes of ranks ``ranks`` over rows without neighbors
    labeled ``labels``."""
    return _split_collisions(*empty_rows(len(labels)),
                             np.array(labels, dtype=np.int32),
                             np.array(ranks, dtype=np.int32)).tolist()


def test_intern_idempotent():
    # two rows of one key in one class keep their one id
    assert split([3, 3], [0, 0]) == [0, 0]


def test_fresh_keys_get_consecutive_ids():
    # the least key of a collided class keeps its rank; each further key,
    # ascending, takes the next id after every rank
    assert split([6, 5, 7, 8], [0, 0, 1, 0]) == [2, 0, 1, 3]


def test_unsorted_neighbor_labels_caught():
    with pytest.raises(AssertionError):
        refine_key(3, (2, 1))


def test_key_batch_matches_per_row_keys():
    indptr = np.array([0, 2, 2, 5])
    indices = np.array([2, 1, 0, 2, 1])
    labels = np.array([7, 3, 9], dtype=np.int32)
    assert refinement_keys(indptr, indices, labels) == [
        refine_key(7, (3, 9)), refine_key(3, ()), refine_key(9, (3, 7, 9))]


def test_key_batch_rows_are_a_prefix_of_the_labeled_items():
    # two rows over three labeled items: own labels are labels[:2]
    indptr = np.array([0, 2, 3])
    indices = np.array([2, 1, 2])
    labels = np.array([7, 3, 9], dtype=np.int32)
    assert refinement_keys(indptr, indices, labels) == [
        refine_key(7, (3, 9)), refine_key(3, (9,))]


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
    # the refinement keys of the interned reference run order as their
    # tuples; its iso keys order as their rows and after every
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
    window = number_keys(iso + refine)
    assert window[len(iso):].max() < window[:len(iso)].min()


@pytest.mark.parametrize("prev, nbrs", [(-1, ()), (2 ** 63, ()), (0, (-1,)),
                                        (2 ** 31, ()), (0, (2 ** 31,))])
def test_refine_key_rejects_labels_outside_the_id_range(prev, nbrs):
    with pytest.raises(ParameterError):
        refine_key(prev, nbrs)


def key_64(prev, nbrs) -> bytes:
    """A refinement key in the earlier layout: big-endian 64-bit words."""
    return struct.pack(f">{1 + len(nbrs)}Q", prev, *nbrs)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_windows_issue_the_ids_of_the_64_bit_layout(data):
    # a few exact checks over random CSRs, each taking the labels the one
    # before issued, where all rows share one rank: the split numbers the
    # keys of the 64-bit layout in byte order
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
        words = (labels * data.draw(st.sampled_from(
            [1, 257, 65_537, 2 ** 24]))).astype(np.int32)
        reference = [key_64(int(words[i]), sorted(
            words[indices[indptr[i]:indptr[i + 1]]].tolist()))
            for i in range(n)]
        ids = _split_collisions(indptr, ref.row_offsets(indptr, indices),
                                words, np.zeros(n, dtype=np.int32))
        assert np.array_equal(ids, number_keys(reference))
        labels = ids


def test_label_ids_past_the_cap_exit_3(monkeypatch, tmp_path, capsys):
    # MUTAG's 7 node labels fit a cap of 10; its first refinement does not
    monkeypatch.setattr(linalg, "_ID_CAP", 10)
    code = main(["gram", "--dataset", MUTAG_DIR, "--kernel", "wl1", "--h",
                 "2", "--output", str(tmp_path / "gram.txt")])
    assert code == 3
    assert "label ids stop at 10" in capsys.readouterr().err


@pytest.mark.parametrize("cap", [3, 4])
def test_a_split_past_the_cap_is_refused(monkeypatch, cap):
    # the ranks take two ids and the split two more: a cap of 4 holds them
    monkeypatch.setattr(linalg, "_ID_CAP", cap)
    if cap < 4:
        with pytest.raises(ResourceLimitError, match=f"stop at {cap}"):
            split([0, 1, 2, 3], [0, 0, 0, 1])
    else:
        assert split([0, 1, 2, 3], [0, 0, 0, 1]) == [0, 2, 3, 1]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 3, 512]),
       st.sampled_from([1, 257, 65_537, 2 ** 24]))
def test_exact_window_runs_issue_the_ids_of_one_window(seed, rows, spread):
    # a random CSR with empty rows, labeled items past the rows, ids spread
    # over all four bytes of a word and random coarse ranks, whose classes
    # mostly collide: the check's runs of 1, 3 or 512 rows split them as
    # one pass over the keys of all rows does
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    degrees = rng.integers(0, 5, n)
    degrees[0] = 0
    items = n + int(rng.integers(0, 4))
    labels = (rng.integers(0, 4, items) * spread).astype(np.int32)
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int32)
    columns = rng.integers(0, items, indptr[-1])
    ranks = rng.integers(0, 3, n)
    ranks = np.unique(ranks, return_inverse=True)[1].astype(np.int32)
    keys = [(int(labels[i]), *sorted(labels[columns[indptr[i]:indptr[
        i + 1]]].tolist())) for i in range(n)]
    # per rank, the least key keeps it; further keys follow every rank
    least = {r: min(k for k, q in zip(keys, ranks.tolist()) if q == r)
             for r in set(ranks.tolist())}
    fresh = sorted({(r, k) for k, r in zip(keys, ranks.tolist())
                    if k != least[r]})
    ids = {key: i for i, key in enumerate(fresh, int(ranks.max()) + 1)}
    want = [r if k == least[r] else ids[r, k]
            for k, r in zip(keys, ranks.tolist())]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_CHECK_ROWS", rows)
        got = _split_collisions(indptr, ref.row_offsets(indptr, columns),
                                labels, ranks)
    assert got.dtype == np.int32 and got.tolist() == want


def test_the_real_id_cap_is_refused_and_leaves_the_table():
    # the id 2^31 does not fit int32 labels: a split of the class 2^31 - 1
    # that needs it is refused before any rank changes
    ranks = np.full(2, 2 ** 31 - 1, dtype=np.int32)
    with pytest.raises(ResourceLimitError, match=f"stop at {2 ** 31}"):
        _split(*empty_rows(2), np.array([0, 1], dtype=np.int32), ranks,
               [ranks[:1]])
    assert ranks.tolist() == [2 ** 31 - 1] * 2


def test_window_order_independent_of_input_order():
    # a split key's id depends only on the class's set of keys
    left = split([9, 1, 5], [0, 0, 0])
    right = split([5, 1, 9], [0, 0, 0])
    assert left == right[::-1] == [2, 0, 1]


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
