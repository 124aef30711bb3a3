"""Linear-algebra refinement: the splitmix64 words, the wrapping word-sum
step, its dense ranks and its partitions against exact refinement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksetwl import build_graph, exact_kset_run, la_kset_run
from ksetwl.kwl import node_words
from ksetwl.linalg import _dense_ranks, _iso_words, splitmix64, word_sums

from conftest import label_groups, local_kset_csr, random_graph
from reference import (exact_word_run, local_neighbors, paper_sum_refinement,
                       paper_sum_step, row_offsets, wl1_colorings)

MASK = (1 << 64) - 1
OWN = 1 << 32


def H(i: int) -> int:
    """splitmix64 in Python integers, masked to 64 bits."""
    z = (i + 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def own_word(i: int) -> int:
    return H(i + OWN)


def test_label_words_known_answers():
    # linalg label ids follow the order of words: pin H(0), H(1) and H'(0)
    words = splitmix64(np.array([0, 1, OWN], dtype=np.int64))
    assert words.dtype == np.uint64
    assert [int(w) for w in words] == [
        0xE220A8397B1DCDAF, 0x910A2DEC89025CC1, 0xC42C5A1AA3820138]
    ids = [0, 1, 2, 1000, (1 << 31) - 1, OWN, OWN + 5]
    assert [int(w) for w in splitmix64(np.array(ids))] == list(map(H, ids))


def test_word_sums_and_ranks_on_uniform_path(p3):
    words = np.zeros(3, dtype=np.uint64)
    offsets = row_offsets(p3.indptr, p3.indices)
    values = word_sums(p3.indptr, offsets, words)
    regrouped = _dense_ranks(values)
    assert [int(v) for v in values] == [
        (own_word(0) + k * H(0)) & MASK for k in (1, 2, 1)]
    assert regrouped[0] == regrouped[2] != regrouped[1]


def test_word_sums_and_ranks_on_isolated_vertices():
    g = build_graph(2, [])
    words = np.array([0, 1], dtype=np.uint64)
    offsets = row_offsets(g.indptr, g.indices)
    values = word_sums(g.indptr, offsets, words)
    assert [int(v) for v in values] == [own_word(0), own_word(1)]
    # the labels rank the values: H'(1) < H'(0)
    assert _dense_ranks(values).tolist() == [1, 0]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_word_sums_take_any_64_bit_words(data):
    # rows are a prefix of the labeled items; words span all 64 bits, so
    # an own word's + 2^32 and every sum wrap; the call mixes its input to
    # H in place, and a linalg step's labels rank the sums ascending
    items = data.draw(st.integers(1, 8))
    rows = data.draw(st.integers(0, items))
    words = data.draw(st.lists(st.integers(0, MASK) | st.integers(
        MASK - OWN, MASK), min_size=items, max_size=items))
    columns = [data.draw(st.lists(st.integers(0, items - 1), max_size=4))
               for _ in range(rows)]
    indptr = np.cumsum([0] + list(map(len, columns)))
    offsets = row_offsets(indptr, [c for row in columns for c in row])
    consumed = np.array(words, dtype=np.uint64)
    got = word_sums(indptr, offsets, consumed)
    assert got.dtype == np.uint64 and [int(v) for v in got] == [
        (own_word(words[i]) + sum(H(words[c]) for c in columns[i])) & MASK
        for i in range(rows)]
    assert [int(w) for w in consumed] == list(map(H, words))
    ranks = _dense_ranks(got)
    assert ranks.dtype == np.int32 and np.array_equal(
        ranks, np.unique(got, return_inverse=True)[1])


def test_iso_words_fold_each_row_through_splitmix64():
    # w = splitmix64(w + x) over the row's values as 64-bit words, from 0
    rows = np.array([[0, 0], [3, -1], [-2 ** 63, 2 ** 63 - 1], [1, 0]])
    want = []
    for row in rows.tolist():
        w = 0
        for x in row:
            w = H((w + x) & MASK)
        want.append(w)
    got = _iso_words(rows)
    assert got.dtype == np.uint64 and [int(w) for w in got] == want
    assert len(set(want)) == len(want)


def test_paper_mode_merges_symmetric_sum():
    # labeled edge x--y: the bare sum gives both endpoints H(x) + H(y) and
    # cannot see which endpoint is which; the own label's word can
    g = build_graph(2, [(0, 1)])
    labels = np.array([0, 1], dtype=np.int64)
    values, merged = paper_sum_step(g.indptr, g.indices, labels)
    assert values[0] == values[1]
    assert merged[0] == merged[1]
    kept = word_sums(g.indptr, row_offsets(g.indptr, g.indices),
                     labels.astype(np.uint64))
    assert kept[0] != kept[1]


@st.composite
def csr_rows(draw):
    """A CSR over n items with words below 4, and a permutation of the
    columns within each of its rows."""
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=8),
                         min_size=n, max_size=n))
    shuffled = [draw(st.permutations(row)) for row in rows]
    words = np.array(draw(st.lists(st.integers(0, 3), min_size=n,
                                   max_size=n)), dtype=np.uint64)
    indptr = np.cumsum([0] + [len(row) for row in rows]).astype(np.int64)
    flat = [np.array(sum(r, []), dtype=np.int64) for r in (rows, shuffled)]
    return indptr, *flat, words


@settings(max_examples=100, deadline=None)
@given(csr_rows())
def test_word_sums_and_ranks_ignore_column_order_within_rows(csr):
    indptr, indices, shuffled, words = csr
    offsets = [row_offsets(indptr, c) for c in (indices, shuffled)]
    values, values_shuffled = (word_sums(indptr, o, words.copy())
                               for o in offsets)
    regrouped, regrouped_shuffled = map(_dense_ranks,
                                        (values, values_shuffled))
    assert np.array_equal(values, values_shuffled)
    assert np.array_equal(regrouped, regrouped_shuffled)


def test_la_refinement_symmetric_cases(tri, c6):
    # every 2-set of K3 has one iso type, every vertex of C6 degree 2
    iters = la_kset_run([tri], 2, 3)[0]
    assert all(len(set(lab.tolist())) == 1 for lab in iters)
    iters = la_kset_run([c6], 1, 4)[0]
    assert all(len(set(lab.tolist())) == 1 for lab in iters)


def test_la_matches_hash_refinement_on_random_graphs():
    rng = np.random.default_rng(31)
    for _ in range(15):
        g = random_graph(rng, int(rng.integers(2, 12)), 0.4,
                         labeled=bool(rng.integers(2)))
        la_run = la_kset_run([g], 1, 4)[0]
        hash_run = wl1_colorings(g, 4)
        for la_labels, coloring in zip(la_run, hash_run):
            assert (label_groups(la_labels.tolist())
                    == label_groups(coloring.tolist()))


def test_la_matches_hash_refinement_on_kset_graphs():
    rng = np.random.default_rng(32)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(4, 10)), 0.5)
        la_run = la_kset_run([g], 2, 3)[0]
        hash_run = exact_kset_run([g], 2, 3)[0]
        for la_labels, coloring in zip(la_run, hash_run):
            assert (label_groups(la_labels.tolist())
                    == label_groups(coloring.tolist()))


def test_paper_mode_never_finer_than_paired():
    rng = np.random.default_rng(33)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(3, 11)), 0.4,
                         labeled=bool(rng.integers(2)))
        paired = la_kset_run([g], 1, 3)[0]
        summed = paper_sum_refinement(g.indptr, g.indices, node_words(g, 1), 3)
        for fine, coarse in zip(paired, summed):
            for cls in label_groups(fine.tolist()):
                assert any(cls <= sup for sup in label_groups(coarse.tolist()))


def test_kset_operand_sparsity(p4):
    index, _, indices = local_kset_csr(p4, 2)
    expected = sum(len(local_neighbors(p4, tuple(int(v) for v in row)))
                   for row in index.all_sets())
    assert indices.size == expected


def test_joint_la_labels_are_cross_graph_consistent(c6, two_k3):
    labels, counts = la_kset_run([c6, two_k3], 1, 3)
    assert counts == [6, 6]
    for it in range(4):
        # both graphs are 2-regular: one joint class across all 12 vertices
        joint = set(labels[it].tolist())
        assert len(joint) == 1


@pytest.mark.parametrize("k,h,local", [(1, 5, True), (2, 3, True),
                                       (2, 3, False), (3, 3, True),
                                       (3, 3, False)])
def test_la_labels_rank_the_sampler_words_on_mutag(mutag, k, h, local):
    # iteration 0 is the exact run's iso types; each later iteration ranks
    # the words a sampler gives the same sets, ascending; no word collides
    # on MUTAG, so the exact run's labels are the same arrays
    labels, counts = la_kset_run(mutag.graphs, k, h, local)
    words, word_counts = exact_word_run(mutag.graphs, k, h, local)
    exact, exact_counts = exact_kset_run(mutag.graphs, k, h, local)
    assert counts == word_counts == exact_counts and len(labels) == h + 1
    for it in range(h + 1):
        assert np.array_equal(labels[it], exact[it])
        if it:
            assert np.array_equal(labels[it], _dense_ranks(words[it]))
