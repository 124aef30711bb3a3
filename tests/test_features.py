import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksetwl import (Features, ParameterError, SampledEstimate,
                    cosine_normalize_gram, gram_matrix, l1_normalize)
from ksetwl.pipeline import (exact_kset_run, features_from_estimates,
                             features_from_label_arrays)

from reference import blocks_of, dot, features_of, psd_check

block = st.dictionaries(st.integers(0, 40), st.floats(0.0, 50.0), max_size=6)


def normalized(blocks, scope="per-block"):
    """The l1-normalized blocks of one graph."""
    return blocks_of(l1_normalize(features_of([blocks]), scope))[0]


def test_l1_single_label():
    v = normalized([{7: 3.0}])
    assert v == [{7: 1.0}]


def test_l1_per_block():
    v = normalized([{1: 2.0, 2: 1.0}])
    assert v[0][1] == pytest.approx(2 / 3)
    assert v[0][2] == pytest.approx(1 / 3)


def test_l1_zero_mass_block_unchanged():
    v = normalized([{}, {3: 4.0}])
    assert v[0] == {}
    assert v[1] == {3: 1.0}


def test_l1_whole_vector():
    v = normalized([{1: 3.0}, {2: 1.0}], "whole-vector")
    assert v[0][1] == pytest.approx(0.75)
    assert v[1][2] == pytest.approx(0.25)


def test_l1_scope_validated():
    with pytest.raises(ParameterError):
        l1_normalize(features_of([[{}]]), "l2")


@given(st.lists(block, min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_l1_idempotent(blocks):
    once = l1_normalize(features_of([blocks]))
    twice = l1_normalize(once)
    for a, b in zip(blocks_of(once)[0], blocks_of(twice)[0]):
        assert set(a) == set(b)
        for lab in a:
            assert a[lab] == pytest.approx(b[lab], abs=1e-12)


wide_block = st.dictionaries(st.integers(0, 40), st.floats(0.0, 50.0),
                             max_size=20)


@given(st.lists(st.lists(wide_block, min_size=2, max_size=2), min_size=1,
                max_size=4), st.sampled_from(["per-block", "whole-vector"]))
@settings(max_examples=100, deadline=None)
def test_l1_masses_add_like_python_sum(per_graph, scope):
    # a graph's mass adds its weights left to right in ascending label
    # order, block by block, as sum() over per-graph dicts does, so the
    # normalized weights are equal floats, not merely close ones
    want = []
    for blocks in per_graph:
        ordered = [dict(sorted(b.items())) for b in blocks]
        masses = [sum(b.values()) for b in ordered]
        if scope == "whole-vector":
            masses = [sum(masses)] * len(masses)
        want.append([{lab: w / mass for lab, w in b.items()} if mass > 0
                     else b for b, mass in zip(ordered, masses)])
    assert blocks_of(l1_normalize(features_of(per_graph), scope)) == want


def test_dot_is_squared_norm():
    v = [{1: 2.0, 2: 1.0}, {5: 3.0}]
    assert gram_matrix(features_of([v]))[0, 0] == pytest.approx(4 + 1 + 9)
    assert dot(v, v) == pytest.approx(4 + 1 + 9)


def test_dot_disjoint_supports():
    assert gram_matrix(features_of([[{1: 2.0}], [{2: 5.0}]]))[0, 1] == 0.0
    assert dot([{1: 2.0}], [{2: 5.0}]) == 0.0


def test_dot_two_triangles():
    # exact 2-set features of two identical triangles at h=1: each block is
    # a single shared label of count 3, contributing 9 per block
    from ksetwl import build_graph
    tri = lambda: build_graph(3, [(0, 1), (1, 2), (0, 2)])
    feats = features_from_label_arrays(
        *exact_kset_run([tri(), tri()], 2, 1))
    assert gram_matrix(feats)[0, 1] == pytest.approx(18.0)
    assert dot(*blocks_of(feats)) == pytest.approx(18.0)


def test_dot_span_mismatch():
    with pytest.raises(ParameterError):
        dot([{}], [{}, {}])


def test_gram_refuses_blocks_out_of_label_graph_order():
    # two graphs that each hold labels 0 and 1; stored by (graph, label),
    # a gram that trusted the order would read [[2, 0], [0, 2]]
    graph, label = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    weight = np.ones(4)
    with pytest.raises(ParameterError, match=r"ascending in \(label, graph"):
        gram_matrix(Features(2, [(graph, label, weight)]))
    # the same (label, graph) entry twice is refused as well
    with pytest.raises(ParameterError, match=r"ascending in \(label, graph"):
        gram_matrix(Features(1, [(graph[:2], label[:2] * 0, weight[:2])]))
    ordered = Features(2, [(label, graph, weight)])    # (label, graph) order
    assert gram_matrix(ordered).tolist() == [[2.0, 2.0], [2.0, 2.0]]


@pytest.mark.parametrize("entries", [1, 2, 3])
def test_gram_checks_the_order_across_entry_chunk_cuts(monkeypatch, entries):
    # chunks of a few entries put each disorder at or across a cut
    from ksetwl import features as features_mod
    monkeypatch.setattr(features_mod, "_ENTRY_CHUNK", entries)
    weight = np.ones(4)
    for graph, label in (([0, 0, 1, 1], [0, 1, 0, 1]),     # labels fall
                         ([0, 1, 1, 2], [0, 0, 0, 1]),     # an entry twice
                         ([0, 1, 0, 1], [0, 0, 1, 1])):
        block = (np.array(graph), np.array(label), weight)
        if graph == [0, 1, 0, 1]:     # the one ordered block
            assert gram_matrix(Features(3, [block]))[:2, :2].tolist() == [
                [2.0, 2.0], [2.0, 2.0]]
            continue
        with pytest.raises(ParameterError, match=r"ascending in \(label"):
            gram_matrix(Features(3, [block]))


# k-set counts per graph, some 0, maybe no graphs; then per iteration a
# label for each stacked k-set
label_runs = st.lists(st.integers(0, 5), max_size=5).flatmap(
    lambda counts: st.tuples(st.just(counts), st.lists(
        st.lists(st.integers(0, 9), min_size=sum(counts),
                 max_size=sum(counts)), min_size=1, max_size=3)))


@settings(max_examples=80, deadline=None)
@given(label_runs)
def test_feature_builders_store_blocks_by_label_then_graph(run):
    counts, labels = run
    graph = np.repeat(np.arange(len(counts)), counts).tolist()
    want = [sorted(Counter(zip(block, graph)).items()) for block in labels]
    held = [[Counter(lab for lab, g in zip(block, graph) if g == gi)
             for block in labels] for gi in range(len(counts))]
    estimates = [SampledEstimate([
        (np.array(sorted(c), dtype=np.uint64),
         np.array([float(c[lab]) for lab in sorted(c)])) for c in blocks], 0)
        for blocks in held]
    exact = features_from_label_arrays(
        [np.array(b, dtype=np.int32) for b in labels], counts)
    sampled = features_from_estimates(estimates)
    # sampled labels are words, numbered in ascending order per block
    ranks = [{lab: i for i, lab in enumerate(sorted(set(block)))}
             for block in labels]
    numbered = [[((rank[lab], g), w) for (lab, g), w in block]
                for rank, block in zip(ranks, want)]
    # without graphs no estimate gives the iteration count
    assert len(exact.blocks) == len(labels)
    assert len(sampled.blocks) == (len(labels) if counts else 0)
    for features, blocks in ((exact, want), (sampled, numbered)):
        assert features.n == len(counts)
        for (g, lab, weight), expected in zip(features.blocks, blocks):
            assert g.dtype == lab.dtype == np.int32
            assert weight.dtype == np.float64
            # Counter keys are distinct, so equal means strictly ascending
            assert list(zip(zip(lab.tolist(), g.tolist()),
                            weight.tolist())) == expected


def test_label_array_features_hold_one_iteration_of_keys():
    # Past its output, the builder holds one iteration's int32 keys
    # (label * n + graph) over all k-sets, their graph column while the
    # keys are made, and arrays over that iteration's entries; an int64
    # key and graph over all k-sets would take 16 bytes per set on their
    # own.  The last iteration's labels need an int32 key at n = 100.
    rng = np.random.default_rng(7)
    counts = rng.integers(0, 4000, 100).tolist()
    sets = sum(counts)
    labels = [rng.integers(0, top, sets).astype(np.int32)
              for top in (50, 20000, (1 << 31) // 100)]
    tracemalloc.start()
    try:
        features = features_from_label_arrays(labels, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(a.nbytes for block in features.blocks for a in block)
    entries = max(len(graph) for graph, _, _ in features.blocks)
    assert peak - output <= 8 * sets + 20 * entries
    graph = np.repeat(np.arange(100), counts)
    for (g, lab, weight), stacked in zip(features.blocks, labels):
        keys, want = np.unique(stacked.astype(np.int64) * 100 + graph,
                               return_counts=True)
        assert np.array_equal(lab.astype(np.int64) * 100 + g, keys)
        assert np.array_equal(weight, want)


def test_gram_single_vector():
    K = gram_matrix(features_of([[{1: 2.0}]]))
    assert K.shape == (1, 1) and K[0, 0] == 4.0


def test_gram_duplicate_vectors_constant():
    v = [{1: 1.0, 2: 2.0}]
    K = gram_matrix(features_of([v, [dict(v[0])]]))
    assert np.all(K == K[0, 0])


def test_gram_symmetric_and_psd_on_random_features():
    rng = np.random.default_rng(3)
    feats = features_of([
        [{int(l): float(rng.integers(1, 5))
          for l in rng.choice(30, size=5, replace=False)}]
        for _ in range(12)
    ])
    K = gram_matrix(feats)
    assert np.array_equal(K, K.T)
    assert psd_check(K, jitter=1e-8)


def test_cosine_unit_diagonal_and_range():
    rng = np.random.default_rng(4)
    K = None
    feats = features_of([[{int(l): float(rng.integers(1, 9))
                           for l in rng.choice(10, size=4, replace=False)}]
                         for _ in range(8)])
    K = cosine_normalize_gram(gram_matrix(feats))
    assert np.allclose(np.diag(K), 1.0)
    assert K.min() >= 0.0 and K.max() <= 1.0


def test_cosine_rank_one_all_ones():
    v = [{1: 2.0}]
    K = cosine_normalize_gram(gram_matrix(features_of(
        [v] + blocks_of(l1_normalize(features_of([v]))))))
    assert np.allclose(K, 1.0)


def test_cosine_zero_row_convention():
    K = np.array([[4.0, 0.0], [0.0, 0.0]])
    normalized = cosine_normalize_gram(K)
    assert normalized[0, 0] == 1.0
    assert np.all(normalized[1, :] == 0.0) and np.all(normalized[:, 1] == 0.0)


def test_psd_examples():
    assert psd_check(np.eye(3))
    assert not psd_check(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ParameterError):
        psd_check(np.eye(2), jitter=-1)
