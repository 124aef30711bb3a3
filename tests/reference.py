"""Naive reference implementations used as independent oracles in tests.

Everything here favors obviousness over speed: k-sets are explicit
frozensets enumerated with itertools, adjacency is a plain set of ordered
pairs scanned over the full vertex range, and relabeling compresses
structural keys to dense ints by sorted first appearance.  None of the CSR,
ranking, or interning machinery of the optimized modules is used, so
agreement between the two paths is meaningful evidence.
"""

from __future__ import annotations

from itertools import combinations, permutations

from ksetwl.graph import Graph


def edge_pairs(g: Graph) -> set:
    """Symmetric set of ordered vertex pairs, the oracle's only adjacency."""
    pairs = set()
    for u in range(g.num_vertices):
        for v in g.indices[g.indptr[u]:g.indptr[u + 1]]:
            pairs.add((u, int(v)))
    return pairs


def naive_iso_class(g: Graph, t, edges: set | None = None) -> tuple:
    """Canonical structural key of the induced labeled subgraph on ``t``.

    Minimal tuple over all orderings: (node labels, adjacency flags with
    edge labels inline).  Host-graph independent, so keys compare across
    graphs.
    """
    edges = edges if edges is not None else edge_pairs(g)
    t = sorted(t)
    best = None
    for order in permutations(t):
        labs = tuple(
            int(g.node_labels[v]) if g.node_labels is not None else 0
            for v in order)
        cells = []
        for a in range(len(order)):
            for b in range(a + 1, len(order)):
                u, v = order[a], order[b]
                if (u, v) in edges:
                    lab = g.edge_label(u, v) or 0
                    cells.append((1, lab))
                else:
                    cells.append((0, 0))
        key = (labs, tuple(cells))
        if best is None or key < best:
            best = key
    return best


def naive_global_neighbors(g: Graph, t) -> list:
    out = []
    for removed in t:
        for r in range(g.num_vertices):
            if r not in t:
                out.append(frozenset(set(t) - {removed} | {r}))
    return out


def naive_local_neighbors(g: Graph, t, edges: set | None = None) -> list:
    edges = edges if edges is not None else edge_pairs(g)
    out = []
    for removed in t:
        for r in range(g.num_vertices):
            if r in t:
                continue
            if any((member, r) in edges for member in t):
                out.append(frozenset(set(t) - {removed} | {r}))
    return out


def _compress(keys_by_item: dict) -> dict:
    """Dense int labels assigned by ascending structural key."""
    order = {key: i for i, key in enumerate(sorted(set(keys_by_item.values())))}
    return {item: order[key] for item, key in keys_by_item.items()}


def naive_wl1_partitions(graphs, h: int) -> list:
    """Vertex refinement over several graphs jointly.

    Returns, per iteration 0..h, a dict (graph_idx, vertex) -> dense label.
    Labels are comparable across the supplied graphs, mirroring a shared
    alphabet.
    """
    edge_sets = [edge_pairs(g) for g in graphs]
    keys = {}
    for gi, g in enumerate(graphs):
        for v in range(g.num_vertices):
            if g.node_labels is not None:
                keys[(gi, v)] = ("init", int(g.node_labels[v]))
            else:
                deg = sum(1 for u in range(g.num_vertices)
                          if (v, u) in edge_sets[gi])
                keys[(gi, v)] = ("init", deg)
    current = _compress(keys)
    out = [current]
    for _ in range(h):
        keys = {}
        for gi, g in enumerate(graphs):
            for v in range(g.num_vertices):
                neigh = sorted(current[(gi, u)] for u in range(g.num_vertices)
                               if (v, u) in edge_sets[gi])
                keys[(gi, v)] = (current[(gi, v)], tuple(neigh))
        current = _compress(keys)
        out.append(current)
    return out


def naive_kset_partitions(graphs, k: int, h: int, local: bool) -> list:
    """k-set refinement over several graphs jointly.

    Returns, per iteration 0..h, a dict (graph_idx, frozenset) -> dense
    label, using either the local or the global neighborhood rule.
    """
    edge_sets = [edge_pairs(g) for g in graphs]
    sets_of = [
        [frozenset(c) for c in combinations(range(g.num_vertices), k)]
        for g in graphs
    ]
    keys = {}
    for gi, g in enumerate(graphs):
        for s in sets_of[gi]:
            keys[(gi, s)] = naive_iso_class(g, s, edge_sets[gi])
    current = _compress(keys)
    out = [current]
    for _ in range(h):
        keys = {}
        for gi, g in enumerate(graphs):
            for s in sets_of[gi]:
                if local:
                    nbrs = naive_local_neighbors(g, s, edge_sets[gi])
                else:
                    nbrs = naive_global_neighbors(g, s)
                neigh = sorted(current[(gi, u)] for u in nbrs)
                keys[(gi, s)] = (current[(gi, s)], tuple(neigh))
        current = _compress(keys)
        out.append(current)
    return out


def naive_histograms(labels_by_item: dict, graph_idx: int) -> dict:
    """Label histogram of one graph from a joint labeling."""
    hist = {}
    for (gi, _item), lab in labels_by_item.items():
        if gi == graph_idx:
            hist[lab] = hist.get(lab, 0) + 1
    return hist


def partition_classes(labels_by_item) -> set:
    """Grouping induced by a labeling, as a set of frozen item groups.

    Accepts either a dict item -> label or a sequence indexed by item.
    Comparing groupings (rather than label values) is how the optimized and
    naive paths are checked against each other.
    """
    groups = {}
    items = (labels_by_item.items() if isinstance(labels_by_item, dict)
             else enumerate(labels_by_item))
    for item, lab in items:
        groups.setdefault(lab, []).append(item)
    return {frozenset(members) for members in groups.values()}
