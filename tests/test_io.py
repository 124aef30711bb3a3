import os
import tracemalloc

import numpy as np
import pytest

from ksetwl import (FormatError, parse_tu_dataset, write_features_sparse,
                    write_gram_csv, write_gram_libsvm)

from reference import edge_label, features_of


def test_two_triangle_fixture(two_triangle_dir):
    ds = parse_tu_dataset(two_triangle_dir)
    assert len(ds) == 2
    assert ds.class_labels == [1, -1]
    for g in ds.graphs:
        assert g.num_vertices == 3 and g.num_edges == 3
        assert g.node_labels is None


def test_mutag_parses(mutag):
    assert len(mutag) == 188
    assert mutag.graphs[0].node_labels is not None
    assert mutag.graphs[0].edge_labels is not None


def test_parse_is_deterministic(two_triangle_dir):
    a = parse_tu_dataset(two_triangle_dir)
    b = parse_tu_dataset(two_triangle_dir)
    for ga, gb in zip(a.graphs, b.graphs):
        assert np.array_equal(ga.indptr, gb.indptr)
        assert np.array_equal(ga.indices, gb.indices)


def test_zero_based_edge_rejected(two_triangle_dir):
    path = os.path.join(two_triangle_dir, "TWOTRI_A.txt")
    with open(path, "a") as f:
        f.write("0, 1\n")
    with pytest.raises(FormatError, match="1-based"):
        parse_tu_dataset(two_triangle_dir)


def test_cross_graph_edge_names_the_line(two_triangle_dir):
    path = os.path.join(two_triangle_dir, "TWOTRI_A.txt")
    with open(path, "a") as f:
        f.write("1, 4\n")
    with pytest.raises(FormatError, match=r"A\.txt:13"):
        parse_tu_dataset(two_triangle_dir)


def test_inconsistent_node_label_count(two_triangle_dir):
    path = os.path.join(two_triangle_dir, "TWOTRI_node_labels.txt")
    with open(path, "w") as f:
        f.write("1\n2\n")
    with pytest.raises(FormatError, match="labels"):
        parse_tu_dataset(two_triangle_dir)


def test_missing_optional_files_mean_unlabeled(two_triangle_dir):
    ds = parse_tu_dataset(two_triangle_dir)
    assert all(g.node_labels is None and g.edge_labels is None
               for g in ds.graphs)


def test_missing_mandatory_file(tmp_path):
    with pytest.raises(FormatError, match="mandatory"):
        parse_tu_dataset(str(tmp_path / "NOPE"))


def test_optional_labels_attached(two_triangle_dir):
    with open(os.path.join(two_triangle_dir, "TWOTRI_node_labels.txt"), "w") as f:
        f.write("\n".join("123456") + "\n")
    with open(os.path.join(two_triangle_dir, "TWOTRI_edge_labels.txt"), "w") as f:
        f.write("\n".join(["7"] * 12) + "\n")
    ds = parse_tu_dataset(two_triangle_dir)
    assert ds.graphs[0].node_labels.tolist() == [1, 2, 3]
    assert ds.graphs[1].node_labels.tolist() == [4, 5, 6]
    assert edge_label(ds.graphs[0], 0, 1) == 7


def test_gram_libsvm_single_entry(tmp_path):
    path = str(tmp_path / "k.txt")
    write_gram_libsvm(np.array([[1.0]]), [1], path)
    assert open(path).read() == "1 0:1 1:1\n"


def test_gram_libsvm_serial_indices(tmp_path):
    path = str(tmp_path / "k.txt")
    write_gram_libsvm(np.ones((2, 2)), [1, -1], path)
    lines = open(path).read().splitlines()
    assert lines[0].startswith("1 0:1 ") and lines[1].startswith("-1 0:2 ")


def test_gram_libsvm_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    K = rng.random((4, 4))
    K = K @ K.T
    path = str(tmp_path / "k.txt")
    write_gram_libsvm(K, [1, 1, -1, -1], path)
    parsed = np.zeros_like(K)
    for i, line in enumerate(open(path)):
        cells = line.split()
        assert int(cells[1].split(":")[1]) == i + 1
        for cell in cells[2:]:
            j, value = cell.split(":")
            parsed[i, int(j) - 1] = float(value)
    assert np.array_equal(parsed, K)  # 17 significant digits round-trip


def test_gram_csv_shape(tmp_path):
    path = str(tmp_path / "k.csv")
    write_gram_csv(np.array([[1.0, 0.5], [0.5, 1.0]]), path)
    rows = [line.split(",") for line in open(path).read().splitlines()]
    assert len(rows) == 2 and all(len(r) == 2 for r in rows)


def test_sparse_features_empty_vector(tmp_path):
    path = str(tmp_path / "f.txt")
    write_features_sparse(features_of([[{}, {}]]), [5], path)
    assert open(path).read() == "5\n"


def test_sparse_features_block_offsets(tmp_path):
    path = str(tmp_path / "f.txt")
    feats = features_of([[{4: 2.0}, {0: 1.0}],
                         [{2: 1.0, 4: 1.0}, {}]])
    write_features_sparse(feats, [1, -1], path)
    lines = open(path).read().splitlines()
    # block 0 observed labels {2, 4} -> indices 0, 1; block 1 {0} -> index 2
    assert lines[0] == "1 1:2 2:1"
    assert lines[1] == "-1 0:1 1:1"


def test_sparse_features_indices_ascend(tmp_path):
    path = str(tmp_path / "f.txt")
    feats = features_of([[{9: 1.0, 1: 2.0}, {3: 4.0}, {2: 1.0}]])
    write_features_sparse(feats, [0], path)
    cells = open(path).read().split()
    indices = [int(c.split(":")[0]) for c in cells[1:]]
    assert indices == sorted(indices) and len(set(indices)) == len(indices)


def test_exporters_byte_identical(tmp_path):
    K = np.array([[2.0, 1.0], [1.0, 2.0]])
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_gram_libsvm(K, [1, -1], a)
    write_gram_libsvm(K, [1, -1], b)
    assert open(a, "rb").read() == open(b, "rb").read()


def traced_write(write, *args):
    """The tracemalloc peak in bytes of one writer call."""
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writers_hold_a_few_rows_past_their_input(tmp_path):
    # Each writer turns one gram row, or one graph's entries, into Python
    # numbers and text at a time: its peak is a few of its longest lines,
    # where the whole gram as Python floats would take 32 bytes a cell.
    # The sparse writer also keeps each block's int32 graph order, made
    # one block at a time (stable_order), and where each graph's entries
    # start in it.
    rng = np.random.default_rng(5)
    n = 300
    K = rng.random((n, n))
    classes = [1, -1] * (n // 2)
    per_graph = [[{int(j): float(rng.integers(1, 9)) for j in
                   rng.choice(5000, 60, replace=False)} for _ in range(2)]
                 for _ in range(n)]
    features = features_of(per_graph)
    for write, args, extra in (
            (write_gram_libsvm, (K, classes), 0),
            (write_gram_csv, (K,), 0),
            (write_features_sparse, (features, classes),
             sum(4 * len(graph) + 8 * (n + 1)
                 for graph, _, _ in features.blocks)
             + 16 * max(len(graph) for graph, _, _ in features.blocks))):
        path = str(tmp_path / write.__name__)
        peak = traced_write(write, *args, path)
        longest = max(map(len, open(path, "rb")))
        assert peak <= extra + 8 * longest, write.__name__
