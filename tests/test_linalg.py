import numpy as np
import pytest

from ksetwl import (LabelInterner, build_graph, discretize, exact_kset_run,
                    la_kset_run, la_step, prime_table)
from ksetwl.kwl import node_words

from conftest import label_groups, local_kset_csr, random_graph
from reference import (local_neighbors, paper_sum_refinement, paper_sum_step,
                       wl1_colorings)

LOG2 = 0.6931471805599453


def test_first_primes():
    assert prime_table(5).tolist() == [2, 3, 5, 7, 11]
    assert prime_table(1).tolist() == [2]


def test_prime_prefix_stable_under_growth():
    small = prime_table(10).copy()
    big = prime_table(1000)
    assert np.array_equal(big[:10], small)
    assert len(big) == 1000


def test_la_step_on_uniform_path(p3):
    labels = np.zeros(3, dtype=np.int64)
    values, regrouped = la_step(p3.indptr, p3.indices, labels, prime_table(1))
    assert values == pytest.approx([2 * LOG2, 3 * LOG2, 2 * LOG2])
    assert regrouped[0] == regrouped[2] != regrouped[1]


def test_la_step_isolated_vertex():
    g = build_graph(2, [])
    labels = np.array([0, 1], dtype=np.int64)
    values, _ = la_step(g.indptr, g.indices, labels, prime_table(2))
    assert values == pytest.approx([np.log(2), np.log(3)])


def test_paper_mode_merges_symmetric_sum():
    # labeled edge x--y: both endpoints receive log x + log y; the bare sum
    # cannot see which endpoint is which, the paired key can
    g = build_graph(2, [(0, 1)])
    labels = np.array([0, 1], dtype=np.int64)
    primes = prime_table(2)
    values, merged = paper_sum_step(g.indptr, g.indices, labels, primes)
    assert values[0] == pytest.approx(values[1])
    assert merged[0] == merged[1]
    _, kept = la_step(g.indptr, g.indices, labels, primes)
    assert kept[0] != kept[1]


def test_discretize_example():
    ids = discretize(np.array([1.38629, 2.07944, 1.38629]), np.zeros(3, int))
    assert ids.tolist() == [0, 1, 0]


def test_discretize_constant_vector():
    assert discretize(np.full(4, 3.25), np.zeros(4, int)).tolist() == [0] * 4


def test_discretize_tolerance_merges_near_values():
    ids = discretize(np.array([1.0, 1.0 + 1e-12, 2.0]), np.zeros(3, int),
                     tolerance=1e-9)
    assert ids[0] == ids[1] != ids[2]


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
        hash_run = wl1_colorings(g, 4, LabelInterner())
        for la_labels, coloring in zip(la_run, hash_run):
            assert (label_groups(la_labels.tolist())
                    == label_groups(coloring.tolist()))


def test_la_matches_hash_refinement_on_kset_graphs():
    rng = np.random.default_rng(32)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(4, 10)), 0.5)
        la_run = la_kset_run([g], 2, 3)[0]
        hash_run = exact_kset_run([g], 2, 3, LabelInterner())[0]
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
