"""Immutable undirected labeled graphs in compressed sparse adjacency form.

Vertex ids are dense 0-based integers; 1-based ids from benchmark files are
converted at the I/O boundary.  Graphs are frozen after construction and can
be shared freely across worker threads.  Rows are sorted, so an edge lookup
is a binary search of one row: the sampling path labels k-sets on the full
graph and reads only the rows of the vertices it touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GraphError


class Graph:
    """Undirected graph with sorted per-vertex neighbor arrays.

    Adjacency is stored CSR-style: ``indptr`` (length n+1) offsets into the
    flat ``indices`` array, each row strictly ascending with no duplicates
    and no self-loops.  ``node_labels`` and ``edge_labels`` are optional
    categorical annotations; ``class_label`` is a classification target and
    never participates in refinement.
    """

    __slots__ = ("num_vertices", "indptr", "indices", "node_labels",
                 "edge_labels", "class_label")

    def __init__(self, num_vertices, indptr, indices, node_labels=None,
                 edge_labels=None, class_label=None):
        self.num_vertices = int(num_vertices)
        self.indptr = indptr
        self.indices = indices
        self.node_labels = node_labels
        self.edge_labels = edge_labels
        self.class_label = class_label
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        if self.node_labels is not None:
            self.node_labels.setflags(write=False)

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    def neighbors(self, v: int) -> np.ndarray:
        if not 0 <= v < self.num_vertices:
            raise GraphError(f"vertex {v} out of range [0, {self.num_vertices})")
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        if self.num_vertices == 0:
            return 0
        return int(np.max(np.diff(self.indptr), initial=0))

    def has_edge(self, u: int, v: int) -> bool:
        """Binary search over the sorted neighbor row; no quadratic memory."""
        row = self.neighbors(u)
        if not 0 <= v < self.num_vertices:
            raise GraphError(f"vertex {v} out of range [0, {self.num_vertices})")
        pos = int(np.searchsorted(row, v))
        return pos < len(row) and row[pos] == v

    def edge_list(self):
        """All undirected edges as (u, v) with u < v, in row order."""
        out = []
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                if u < v:
                    out.append((u, int(v)))
        return out

    def edge_label(self, u: int, v: int):
        if self.edge_labels is None:
            return None
        return self.edge_labels.get((u, v))

    def __repr__(self):
        lab = "labeled" if self.node_labels is not None else "unlabeled"
        return f"Graph(n={self.num_vertices}, m={self.num_edges}, {lab})"


def build_graph(num_vertices, edges, node_labels=None, edge_labels=None,
                class_label=None) -> Graph:
    """Construct a validated Graph from an edge list.

    Duplicate edges are collapsed and the adjacency is symmetrized, so the
    pairs (u, v) and (v, u) describe the same single edge.  ``edge_labels``,
    when given, runs parallel to ``edges``; conflicting labels for the same
    undirected edge are an error.

    Raises GraphError for out-of-range endpoints or self-loops.
    """
    n = int(num_vertices)
    if n < 0:
        raise GraphError("num_vertices must be nonnegative")
    if edge_labels is not None and len(edge_labels) != len(edges):
        raise GraphError("edge_labels must run parallel to edges")

    seen = {}
    for idx, (u, v) in enumerate(edges):
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) references a vertex outside [0, {n})")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        lab = int(edge_labels[idx]) if edge_labels is not None else None
        if key in seen:
            if seen[key] != lab:
                raise GraphError(f"conflicting labels for edge {key}")
        else:
            seen[key] = lab

    deg = np.zeros(n, dtype=np.int64)
    for u, v in seen:
        deg[u] += 1
        deg[v] += 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    fill = indptr[:-1].copy()
    for u, v in seen:
        indices[fill[u]] = v
        fill[u] += 1
        indices[fill[v]] = u
        fill[v] += 1
    for u in range(n):
        seg = indices[indptr[u]:indptr[u + 1]]
        seg.sort()

    labels_arr = None
    if node_labels is not None:
        labels_arr = np.asarray(node_labels, dtype=np.int64)
        if labels_arr.shape != (n,):
            raise GraphError(f"node_labels must have length {n}")

    label_map = None
    if edge_labels is not None:
        label_map = {}
        for (u, v), lab in seen.items():
            label_map[(u, v)] = lab
            label_map[(v, u)] = lab

    return Graph(n, indptr, indices, labels_arr, label_map, class_label)


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
            "classes": len(set(self.class_labels)),
            "avg_nodes": total_nodes / n if n else 0.0,
            "avg_edges": total_edges / n if n else 0.0,
            "node_labels": any(g.node_labels is not None for g in self.graphs),
            "edge_labels": any(g.edge_labels is not None for g in self.graphs),
        }
