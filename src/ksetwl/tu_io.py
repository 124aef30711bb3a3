"""Reading benchmark datasets in the TU text layout and writing kernel
matrices / feature vectors for external SVM tools.

The TU layout is a directory of line-oriented files sharing a dataset-name
prefix: DS_A.txt (global 1-based edge rows "i, j"), DS_graph_indicator.txt
(graph id per node), DS_graph_labels.txt, and optionally DS_node_labels.txt
and DS_edge_labels.txt.  Edge rows may list each undirected edge once, in
both directions or repeatedly; the parser symmetrizes and deduplicates.
Blank lines and CRLF line ends are skipped; labels are signed 64-bit.

Each file goes through numpy's C text reader.  A file it refuses is read
line by line under the same rules, and that reader names the first bad
line; so the C reader only makes reading faster, never changes what is
accepted or the values read.
"""

from __future__ import annotations

import os
import warnings
from itertools import islice

import numpy as np

from .errors import FormatError
from .features import stable_order
from .graph import Dataset, build_graphs

_INT64 = np.iinfo(np.int64)
_C_ONLY_SPACE = range(0x1c, 0x20)


def _lines(path: str) -> list[bytes]:
    """The file's lines, ended by LF, CRLF or CR as text mode ends them."""
    with open(path, "rb") as f:
        return f.read().splitlines()


def _numbered(lines):
    """(1-based line number, stripped line) of every non-blank line."""
    return ((lineno, line) for lineno, line in
            enumerate(map(bytes.strip, lines), start=1) if line)


def _shown(line: bytes) -> str:
    return repr(line.decode("utf-8", "backslashreplace"))


def _c_read(path: str, columns: int) -> np.ndarray | None:
    """The file as a (rows, ``columns``) int64 array read by numpy's C
    reader, or None where it refuses the file or might read it otherwise
    than the line reader: the line reader then decides."""
    with open(path, "rb") as f:
        data = f.read()
    # numpy skips these around a value as whitespace, int() does not
    if any(byte in data for byte in _C_ONLY_SPACE):
        return None
    del data
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # an empty file only warns
            # not latin-1, whose 0x85 and 0xa0 numpy skips as whitespace;
            # no comment character, or "1, 2#c" would read as "1, 2"
            values = np.loadtxt(path, dtype=np.int64, delimiter=",",
                                comments=None, ndmin=2, encoding="ascii")
    except (ValueError, Warning):
        return None
    return values if values.shape[1] == columns else None


def _read_ints(path: str, what: str, ids: bool = False) -> np.ndarray:
    """One signed 64-bit integer per non-blank line.  Values beyond that
    range are an error, except for ``ids``, where they are clipped to it so
    that the caller's range check names them."""
    values = _c_read(path, 1)
    if values is not None:
        return values[:, 0]
    values = []
    for lineno, line in _numbered(_lines(path)):
        try:
            value = int(line)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: expected an integer {what}, "
                              f"got {_shown(line)}") from exc
        if not (ids or _INT64.min <= value <= _INT64.max):
            raise FormatError(f"{path}:{lineno}: {what} {value} is outside "
                              f"the signed 64-bit range")
        values.append(min(max(value, _INT64.min), _INT64.max))
    return np.array(values, dtype=np.int64)


def _read_edges(path: str, indicator: np.ndarray) -> np.ndarray:
    """The (rows, 2) 1-based endpoints of the edge file, every row checked
    for its format, its 1-based range and a shared graph."""
    n = len(indicator)
    ends = _c_read(path, 2)
    if ends is not None and ((ends >= 1) & (ends <= n)).all():
        graph = indicator[ends - 1]
        if (graph[:, 0] == graph[:, 1]).all():
            return ends
    # Read line by line, naming the first bad line if there is one.
    pairs = []
    for lineno, line in _numbered(_lines(path)):
        parts = line.split(b",")
        if len(parts) != 2:
            raise FormatError(
                f"{path}:{lineno}: expected 'i, j', got {_shown(line)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: non-integer node id in "
                              f"{_shown(line)}") from exc
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(f"{path}:{lineno}: node id outside [1, {n}] "
                              f"(ids are 1-based)")
        if indicator[u - 1] != indicator[v - 1]:
            raise FormatError(
                f"{path}:{lineno}: edge joins graph {indicator[u - 1]} and "
                f"graph {indicator[v - 1]}")
        pairs.append((u, v))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def parse_tu_dataset(path: str, name: str | None = None) -> Dataset:
    """Load one dataset directory into per-graph 0-based Graph objects.

    Mandatory files: edges, graph indicator, graph labels.  Node and edge
    label files are attached when present and silently skipped otherwise.
    Raises FormatError (naming the offending line where applicable) for
    cross-graph edges, 0-based node ids, self-loops, values outside the
    signed 64-bit range, or mutually inconsistent counts.  Vertices keep
    their global order within their graph.
    """
    name = name if name is not None else os.path.basename(os.path.normpath(path))
    prefix = os.path.join(path, name)
    edges_path = f"{prefix}_A.txt"
    for required in (edges_path, f"{prefix}_graph_indicator.txt",
                     f"{prefix}_graph_labels.txt"):
        if not os.path.exists(required):
            raise FormatError(f"missing mandatory dataset file: {required}")

    indicator = _read_ints(f"{prefix}_graph_indicator.txt", "graph id",
                           ids=True)
    graph_labels = _read_ints(f"{prefix}_graph_labels.txt",
                              "class label").tolist()
    num_nodes = len(indicator)
    num_graphs = len(graph_labels)
    if num_nodes and not (1 <= indicator.min() and
                          indicator.max() <= num_graphs):
        raise FormatError(
            f"graph indicator references graph ids outside [1, {num_graphs}]")

    node_labels = None
    node_labels_path = f"{prefix}_node_labels.txt"
    if os.path.exists(node_labels_path):
        node_labels = _read_ints(node_labels_path, "node label")
        if len(node_labels) != num_nodes:
            raise FormatError(
                f"{node_labels_path}: {len(node_labels)} labels for "
                f"{num_nodes} nodes")

    ends = _read_edges(edges_path, indicator)

    edge_labels = None
    edge_labels_path = f"{prefix}_edge_labels.txt"
    if os.path.exists(edge_labels_path):
        edge_labels = _read_ints(edge_labels_path, "edge label")
        if len(edge_labels) != len(ends):
            raise FormatError(
                f"{edge_labels_path}: {len(edge_labels)} labels for "
                f"{len(ends)} edge rows")
        if not edge_labels.size:    # an empty label file labels nothing
            edge_labels = None

    loops = np.flatnonzero(ends[:, 0] == ends[:, 1])
    if loops.size:
        row = int(loops[0])
        lineno = next(islice(_numbered(_lines(edges_path)), row, None))[0]
        raise FormatError(
            f"{edges_path}:{lineno}: self-loop on node {ends[row, 0]}")

    # Renumber so that each graph is a contiguous id range that keeps the
    # global order of its vertices.
    order = np.argsort(indicator, kind="stable")
    new_id = np.empty(num_nodes, dtype=np.int64)
    new_id[order] = np.arange(num_nodes)
    offsets = np.zeros(num_graphs + 1, dtype=np.int64)
    np.cumsum(np.bincount(indicator - 1, minlength=num_graphs),
              out=offsets[1:])
    graphs = build_graphs(
        offsets, new_id[ends[:, 0] - 1], new_id[ends[:, 1] - 1],
        None if node_labels is None else node_labels[order], edge_labels)
    return Dataset(graphs=graphs, class_labels=graph_labels, name=name)


# "%.17g" % x == format(x, ".17g"): 17 significant digits, enough to
# round-trip any 64-bit float.  Each writer formats a whole row with one
# %-format string built once, and turns one row (or one graph's entries)
# at a time into Python numbers.
_FLOAT = "%.17g"


def write_gram_libsvm(K: np.ndarray, classes, path: str) -> None:
    """Precomputed-kernel rows: "<class> 0:<serial> 1:<K_i1> ... n:<K_in>"."""
    K = np.asarray(K)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise FormatError("gram matrix must be square")
    if len(classes) != K.shape[0]:
        raise FormatError("one class label per gram row is required")
    row = " ".join(["%s 0:%d"] + [f"{j + 1}:{_FLOAT}"
                                  for j in range(K.shape[1])]) + "\n"
    with open(path, "w") as f:
        for i, values in enumerate(K):
            f.write(row % (classes[i], i + 1, *values.tolist()))


def write_gram_csv(K: np.ndarray, path: str) -> None:
    """Plain comma-separated rows, no header."""
    K = np.asarray(K)
    row = ",".join([_FLOAT] * (K.shape[1] if K.ndim == 2 else 0)) + "\n"
    with open(path, "w") as f:
        for values in K:
            f.write(row % tuple(values.tolist()))


def write_features_sparse(features, classes, path: str) -> None:
    """Sparse feature lines: "<class> <index>:<value> ..." per graph.

    Global indices pack the per-iteration blocks contiguously: block j's
    offset is the total number of distinct labels observed in earlier
    blocks across all graphs, and a label's index within its block is its
    rank among that block's observed labels.  Indices are strictly
    ascending within each line.
    """
    if len(classes) != features.n:
        raise FormatError("one class label per feature vector is required")
    # per block: its entries in graph order (labels ascend within each
    # graph), where each graph's run starts, and the block's labels
    blocks, offset = [], 0
    for graph, label, weight in features.blocks:
        starts = np.zeros(features.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(graph, minlength=features.n), out=starts[1:])
        new = np.ones(len(label), dtype=bool)
        np.not_equal(label[1:], label[:-1], out=new[1:])
        observed = label[new]
        blocks.append((stable_order(graph), starts, label, weight, observed,
                       offset))
        offset += len(observed)
    cell = f" %d:{_FLOAT}"
    with open(path, "w") as f:
        for i, cls in enumerate(classes):
            indices, values = [], []
            for order, starts, label, weight, observed, offset in blocks:
                entry = order[starts[i]:starts[i + 1]]
                # a label's index is its rank among the block's labels
                indices += (np.searchsorted(observed, label[entry])
                            + offset).tolist()
                values += weight[entry].tolist()
            cells = indices + values
            cells[::2], cells[1::2] = indices, values
            f.write(str(cls) + (cell * len(indices) + "\n") % tuple(cells))
