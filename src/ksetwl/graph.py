"""Immutable undirected labeled graphs in compressed sparse adjacency form.

Vertex ids are dense 0-based integers; 1-based ids from benchmark files are
converted at the I/O boundary.  Graphs are frozen after construction.  Rows
are sorted, so an edge lookup is a binary search of one row: the sampling
path labels k-sets on the full graph and reads only the rows of the
vertices it touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GraphError


class Graph:
    """Undirected graph with sorted per-vertex neighbor arrays.

    Adjacency is stored CSR-style: ``indptr`` (length n+1) offsets into the
    flat ``indices`` array, each row strictly ascending with no duplicates
    and no self-loops.  ``node_labels`` (one per vertex) and ``arc_labels``
    (one per entry of ``indices``, so each edge's label appears once in each
    endpoint's row) are optional categorical annotations.
    """

    __slots__ = ("num_vertices", "indptr", "indices", "node_labels",
                 "arc_labels")

    def __init__(self, num_vertices, indptr, indices, node_labels=None,
                 arc_labels=None):
        self.num_vertices = int(num_vertices)
        self.indptr = indptr
        self.indices = indices
        self.node_labels = node_labels
        self.arc_labels = arc_labels
        for array in (indptr, indices, node_labels, arc_labels):
            if array is not None:
                array.setflags(write=False)

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    def max_degree(self) -> int:
        if self.num_vertices == 0:
            return 0
        return int(np.max(np.diff(self.indptr), initial=0))

    @property
    def edge_labels(self):
        """Every arc's label as a dict {(u, v): label}, built on each call
        (None when the graph has no edge labels)."""
        if self.arc_labels is None:
            return None
        tails = np.repeat(np.arange(self.num_vertices), np.diff(self.indptr))
        return dict(zip(zip(tails.tolist(), self.indices.tolist()),
                        self.arc_labels.tolist()))

    def __repr__(self):
        lab = "labeled" if self.node_labels is not None else "unlabeled"
        return f"Graph(n={self.num_vertices}, m={self.num_edges}, {lab})"


def build_graph(num_vertices, edges, node_labels=None,
                edge_labels=None) -> Graph:
    """Construct a validated Graph from an edge list.

    Duplicate edges are collapsed and the adjacency is symmetrized, so the
    pairs (u, v) and (v, u) describe the same single edge.  ``edge_labels``,
    when given, runs parallel to ``edges``; conflicting labels for the same
    undirected edge are an error.  Labels are signed 64-bit integers.

    Raises GraphError for out-of-range endpoints or self-loops; of several
    bad edges, the first one in ``edges`` is reported.
    """
    n = int(num_vertices)
    if n < 0:
        raise GraphError("num_vertices must be nonnegative")
    if edge_labels is not None and len(edge_labels) != len(edges):
        raise GraphError("edge_labels must run parallel to edges")
    rows = _int64(edges, "edge endpoints")
    if rows.size == 0:
        rows = rows.reshape(0, 2)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise GraphError("edges must be (u, v) pairs")
    u, v = rows[:, 0], rows[:, 1]
    labels = None if edge_labels is None else _int64(edge_labels, "edge labels")
    offsets = np.array([0, n], dtype=np.int64)
    bad = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v))
    if bad.size:
        r = int(bad[0])
        if labels is not None:      # a label conflict in an earlier row wins
            _first_rows(offsets, u[:r], v[:r], labels[:r], max(n, 1))
        a, b = int(u[r]), int(v[r])
        if not (0 <= a < n and 0 <= b < n):
            raise GraphError(f"edge ({a}, {b}) references a vertex outside [0, {n})")
        raise GraphError(f"self-loop at vertex {a}")
    labels_arr = None
    if node_labels is not None:
        labels_arr = _int64(node_labels, "node labels")
        if labels_arr.shape != (n,):
            raise GraphError(f"node_labels must have length {n}")
    return build_graphs(offsets, u, v, labels_arr, labels)[0]


def build_graphs(offsets, u, v, node_labels, edge_labels) -> list:
    """One Graph per vertex range ``offsets[g] <= x < offsets[g + 1]``.

    Rows (u[i], v[i]) hold global ids and must join two distinct vertices
    of one graph.  All graphs share one deduplication and one sort; each
    Graph then takes its slice of the dataset-wide CSR, renumbered from 0.
    ``node_labels`` (or None) runs over the global ids and ``edge_labels``
    (or None) over the rows.  An edge-labeled graph gets its edges' labels
    as ``arc_labels``, parallel to its ``indices``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n = int(offsets[-1])
    span = max(n, 1)
    # one array of arc keys x * span + y, filled and sorted in place, then
    # deduplicated into a copy that becomes ``indices`` in place: without
    # edge labels, at most two arc-length int64 arrays are alive at once
    keys = np.concatenate([u, v])
    keys *= span
    keys[:len(u)] += v
    keys[len(u):] += u
    keys.sort()
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    keys = keys[distinct]
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * span)

    arc_labels = None
    if edge_labels is not None:
        pairs, first = _first_rows(offsets, u, v, edge_labels, span)
        src, dst = np.divmod(keys, span)
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        arc_labels = edge_labels[first[np.searchsorted(pairs, lo * span + hi)]]
    indices = keys
    indices %= span

    graphs = []
    bounds = offsets.tolist()
    for a, b in zip(bounds, bounds[1:]):
        c, d = indptr[a], indptr[b]
        indices[c:d] -= a          # each graph's slice, renumbered in place
        graphs.append(Graph(
            b - a, indptr[a:b + 1] - c, indices[c:d],
            None if node_labels is None else node_labels[a:b],
            None if arc_labels is None else arc_labels[c:d]))
    return graphs


def _first_rows(offsets, u, v, labels, span):
    """Sorted keys ``min * span + max`` of the distinct undirected rows and
    each key's first row.  Raises GraphError for the first row, in the first
    graph that has one, whose label differs from its pair's first label."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    pairs, first, inverse = np.unique(lo * span + hi, return_index=True,
                                      return_inverse=True)
    clash = np.flatnonzero(labels != labels[first][inverse])
    if clash.size:
        graph = np.searchsorted(offsets, lo[clash], side="right") - 1
        g, row = graph.min(), clash[np.argmin(graph)]
        key = (int(lo[row] - offsets[g]), int(hi[row] - offsets[g]))
        raise GraphError(f"conflicting labels for edge {key}")
    return pairs, first


def _int64(values, what) -> np.ndarray:
    """``values`` as int64, refused unless the cast keeps every value:
    fractions, strings and integers beyond int64 fail, 1.0 passes."""
    try:
        out = np.asarray(values, dtype=np.int64)
        if np.array_equal(out, np.asarray(values)):
            return out
    except (OverflowError, TypeError, ValueError):
        pass
    raise GraphError(f"{what} must be signed 64-bit integers")


@dataclass
class Dataset:
    """An ordered collection of graphs with one class label per graph."""

    graphs: list = field(default_factory=list)
    class_labels: list = field(default_factory=list)
    name: str = ""

    def __post_init__(self):
        if len(self.graphs) != len(self.class_labels):
            raise GraphError("class_labels length must equal graphs length")

    def __len__(self):
        return len(self.graphs)

    def stats(self) -> dict:
        """Summary statistics in the style of benchmark tables."""
        n = len(self.graphs)
        total_nodes = sum(g.num_vertices for g in self.graphs)
        total_edges = sum(g.num_edges for g in self.graphs)
        return {
            "name": self.name,
            "graphs": n,
            "vertices": total_nodes,
            "edges": total_edges,
            "classes": len(set(self.class_labels)),
            "avg_nodes": total_nodes / n if n else 0.0,
            "avg_edges": total_edges / n if n else 0.0,
            "node_labels": any(g.node_labels is not None for g in self.graphs),
            "edge_labels": any(g.arc_labels is not None for g in self.graphs),
        }
