import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksetwl import GraphError, build_graph
from ksetwl.graph import build_graphs

from conftest import random_graph
from reference import degree, edge_label, edge_list, has_edge, neighbors


def test_triangle_degrees(tri):
    assert tri.num_vertices == 3
    assert tri.num_edges == 3
    assert [degree(tri, v) for v in range(3)] == [2, 2, 2]
    assert tri.max_degree() == 2


def test_edge_plus_isolated(e1i):
    assert degree(e1i, 2) == 0
    assert not has_edge(e1i, 0, 2)
    assert has_edge(e1i, 0, 1) and has_edge(e1i, 1, 0)


def test_duplicate_edges_collapse():
    g = build_graph(3, [(0, 1), (1, 0)])
    assert g.num_edges == 1


def test_path_queries(p4):
    assert p4.max_degree() == 2
    assert has_edge(p4, 1, 2)
    assert not has_edge(p4, 0, 3)


@pytest.mark.parametrize("edges", [[(0, 3)], [(-1, 1)]])
def test_out_of_range_vertex_rejected(edges):
    with pytest.raises(GraphError):
        build_graph(3, edges)


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        build_graph(3, [(1, 1)])


def test_vertex_query_out_of_range(tri):
    with pytest.raises(GraphError):
        degree(tri, 5)
    with pytest.raises(GraphError):
        has_edge(tri, 0, 7)


def test_node_label_length_checked():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1)], node_labels=[1, 2])


@pytest.mark.parametrize("edges, kwargs", [
    ([(0, 1.5), (1, 2)], {}),
    ([(0, 1), (1, 2)], {"node_labels": [0.7, 1, 2]}),
    ([(0, "1")], {}),
    ([(0, 1)], {"edge_labels": np.array([2 ** 63], dtype=np.uint64)}),
])
def test_values_that_are_not_int64_rejected(edges, kwargs):
    with pytest.raises(GraphError, match="signed 64-bit integers"):
        build_graph(3, edges, **kwargs)


def test_integral_floats_accepted():
    g = build_graph(3, [(0, 1.0), (1, 2)], node_labels=[1.0, 2, 3])
    assert g.indices.tolist() == [1, 0, 2, 1]
    assert g.node_labels.tolist() == [1, 2, 3]


def test_edge_labels_run_parallel_to_indices():
    g = build_graph(4, [(2, 0), (0, 1), (3, 2)], edge_labels=[5, -7, 2 ** 63 - 1])
    assert g.indices.tolist() == [1, 2, 0, 0, 3, 2]
    assert g.arc_labels.tolist() == [-7, 5, -7, 5, 2 ** 63 - 1, 2 ** 63 - 1]
    assert [edge_label(g, 0, 2), edge_label(g, 2, 0),
            edge_label(g, 3, 2)] == [5, 5, 2 ** 63 - 1]
    assert edge_label(g, 0, 3) is None and edge_label(
        build_graph(2, [(0, 1)]), 0, 1) is None
    assert g.edge_labels == {(0, 1): -7, (0, 2): 5, (1, 0): -7, (2, 0): 5,
                             (2, 3): 2 ** 63 - 1, (3, 2): 2 ** 63 - 1}


def test_conflicting_edge_labels_rejected():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1), (1, 0)], edge_labels=[1, 2])


@given(st.integers(2, 12), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_rebuild_roundtrip(n, p, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    rebuilt = build_graph(n, edge_list(g))
    assert np.array_equal(rebuilt.indptr, g.indptr)
    assert np.array_equal(rebuilt.indices, g.indices)


@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_handshake(n, p, seed):
    g = random_graph(np.random.default_rng(seed), n, p)
    assert sum(degree(g, v) for v in range(n)) == 2 * g.num_edges


def test_build_graphs_holds_at_most_two_arc_arrays():
    # three 20,000-vertex graphs, each vertex joined to the next two on its
    # graph's cycle: m = 120,000 rows and 2m arcs, listed once each
    n, size = 60_000, 20_000
    vertex = np.arange(n)
    start = vertex - vertex % size
    u = np.concatenate([vertex, vertex])
    v = np.concatenate([start + (vertex + 1) % size,
                        start + (vertex + 2) % size])
    tracemalloc.start()
    try:
        graphs = build_graphs([0, size, 2 * size, n], u, v, None, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two int64 arrays of 2m arcs and three of n + 1 vertex offsets
    assert peak <= 8 * (2 * 2 * len(u) + 3 * (n + 1))
    for g in graphs:
        assert g.num_vertices == size and g.num_edges == 2 * size
        assert np.array_equal(neighbors(g, 0), [1, 2, size - 2, size - 1])
