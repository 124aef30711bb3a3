import numpy as np
import pytest

from ksetwl import KSetIndex, ResourceLimitError, build_graph, exact_kset_run
from ksetwl.kwl import iso_code

from conftest import label_groups, local_kset_csr, random_graph
from reference import (c_neighborhood, edge_list, exact_word_run,
                       global_neighbors, histogram, iso_type, local_neighbors,
                       rank)


def test_iso_type_symmetric_triangle(tri):
    ids = {iso_type(tri, t) for t in [(0, 1), (0, 2), (1, 2)]}
    assert len(ids) == 1


def test_iso_type_edge_vs_nonedge(e1i):
    assert iso_type(e1i, (0, 1)) != iso_type(e1i, (0, 2))


def test_iso_type_path_vs_disconnected_triple(p4):
    # {0,1,2} induces a 2-path, {0,1,3} an edge plus an isolated vertex
    assert iso_type(p4, (0, 1, 2)) != iso_type(p4, (0, 1, 3))


def test_iso_type_respects_node_labels():
    plain = build_graph(2, [(0, 1)])
    tagged = build_graph(2, [(0, 1)], node_labels=[1, 2])
    assert iso_type(plain, (0, 1)) != iso_type(tagged, (0, 1))


def test_iso_type_respects_edge_labels():
    single = build_graph(2, [(0, 1)], node_labels=[0, 0], edge_labels=[1])
    double = build_graph(2, [(0, 1)], node_labels=[0, 0], edge_labels=[2])
    assert iso_type(single, (0, 1)) != iso_type(double, (0, 1))


def test_iso_code_is_host_independent(tri, two_k3):
    # a triangle's 2-set and a 2-set inside one of the two disjoint
    # triangles induce the same labeled subgraph
    assert iso_code(tri, (0, 1)) == iso_code(two_k3, (3, 4))


def test_global_neighbor_count():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        k = int(rng.integers(2, min(4, n) + 1))
        g = random_graph(rng, n, 0.4)
        t = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        nbrs = global_neighbors(g, t)
        assert len(nbrs) == k * (n - k)
        assert len(set(nbrs)) == len(nbrs)


def test_global_neighbors_examples(e1i):
    assert sorted(global_neighbors(e1i, (0, 1))) == [(0, 2), (1, 2)]
    assert global_neighbors(build_graph(2, [(0, 1)]), (0, 1)) == []


def test_local_neighbors_need_an_incoming_edge(e1i, tri):
    assert local_neighbors(e1i, (0, 1)) == []
    assert sorted(local_neighbors(tri, (0, 1))) == [(0, 2), (1, 2)]


def test_local_neighbors_cross_pair(two_k3):
    nbrs = local_neighbors(two_k3, (0, 3))
    assert len(nbrs) == 8
    kinds = [iso_type(two_k3, s) for s in nbrs]
    edge_type = iso_type(two_k3, (0, 1))
    assert sum(1 for kind in kinds if kind == edge_type) == 4


def test_local_subset_of_global():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(2, min(4, n) + 1))
        g = random_graph(rng, n, 0.5)
        t = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        assert set(local_neighbors(g, t)) <= set(global_neighbors(g, t))


def test_kset_graph_triangle(tri):
    index, indptr, _ = local_kset_csr(tri, 2)
    assert index.size == 3
    assert np.all(np.diff(indptr) == 2)


def test_kset_graph_is_directed(e1i):
    _, indptr, _ = local_kset_csr(e1i, 2)
    out_deg = np.diff(indptr)
    assert out_deg[rank((0, 1))] == 0
    assert out_deg[rank((0, 2))] >= 1
    assert out_deg[rank((1, 2))] >= 1


def test_kset_graph_empty_when_too_few_vertices():
    g = build_graph(2, [(0, 1)])
    assert local_kset_csr(g, 3)[0].size == 0


def test_kset_graph_edge_count_matches_neighbor_sum(tri, e1i, p4):
    for g in (tri, e1i, p4):
        index, _, indices = local_kset_csr(g, 2)
        expected = sum(len(local_neighbors(g, tuple(int(v) for v in row)))
                       for row in index.all_sets())
        assert indices.size == expected


def test_budget_guard(p4):
    with pytest.raises(ResourceLimitError):
        exact_kset_run([p4], 2, 1, max_sets=3)


def test_ball_radius_zero(tri):
    assert c_neighborhood(tri, (0, 2), 0) == {(0, 2)}


def test_ball_stops_without_out_edges(e1i):
    assert c_neighborhood(e1i, (0, 1), 5) == {(0, 1)}


def test_ball_covers_triangle(tri):
    assert c_neighborhood(tri, (0, 1), 1) == {(0, 1), (0, 2), (1, 2)}


def test_local_refinement_fully_symmetric(tri):
    cols = exact_kset_run([tri], 2, 3, local=True)[0]
    assert all(list(histogram(c).values()) == [3.0] for c in cols)


def test_refinement_blocks_empty_below_k():
    g = build_graph(2, [(0, 1)])
    cols = exact_kset_run([g], 3, 2)[0]
    assert len(cols) == 3
    assert all(len(c) == 0 for c in cols)


def test_global_refinement_splits_edge_graph(e1i):
    cols = exact_kset_run([e1i], 2, 1, local=False)[0]
    assert sorted(histogram(cols[1]).values()) == [1.0, 2.0]


def test_global_equals_local_on_complete_graphs():
    g = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    a = exact_kset_run([g], 2, 3, local=True)[0]
    b = exact_kset_run([g], 2, 3, local=False)[0]
    for ca, cb in zip(a, b):
        assert label_groups(ca.tolist()) == label_groups(cb.tolist())


def test_histogram_mass_is_set_count():
    rng = np.random.default_rng(6)
    for _ in range(8):
        n = int(rng.integers(2, 10))
        g = random_graph(rng, n, 0.5)
        for k in (2, 3):
            size = KSetIndex(g.num_vertices, k).size
            for c in exact_kset_run([g], k, 2)[0]:
                assert sum(histogram(c).values()) == size


def test_partition_refines_monotonically():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(4, 9)), 0.5)
        for local in (True, False):
            cols = exact_kset_run([g], 2, 3, local=local)[0]
            for prev, cur in zip(cols, cols[1:]):
                coarse = label_groups(prev.tolist())
                fine = label_groups(cur.tolist())
                for cls in fine:
                    assert any(cls <= sup for sup in coarse)


def test_features_invariant_under_vertex_permutation():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        g = random_graph(rng, n, 0.5, labeled=True)
        perm = rng.permutation(n)
        inverse = np.argsort(perm)
        relabeled = build_graph(
            n, [(int(perm[u]), int(perm[v])) for u, v in edge_list(g)],
            node_labels=g.node_labels[inverse].tolist())
        left = exact_word_run([g], 2, 2)[0]
        right = exact_word_run([relabeled], 2, 2)[0]
        for ca, cb in zip(left, right):
            assert histogram(ca) == histogram(cb)
