"""Naive reference implementations used as independent oracles in tests.

Everything in the first part favors obviousness over speed: k-sets are
explicit frozensets enumerated with itertools, adjacency is a plain set of
ordered pairs scanned over the full vertex range, and relabeling compresses
structural keys to dense ints by sorted first appearance.  None of the CSR,
ranking, or interning machinery of the optimized modules is used, so
agreement between the two paths is meaningful evidence.

The second part holds one-item forms that tests state their expectations
in: vertex and edge queries on one graph, the colex rank of one k-set,
feature vectors as per-graph lists of {label: weight} blocks and their
inner product, one-key interning keys and their numbering in ascending
order, exact runs under a persistent dict interner and as
sampled content words, one-set calls of the bulk k-set paths, a per-set
swap CSR, conversions between absolute CSR columns and offsets from their
row, 1-WL on one graph, a Cholesky PSD check, and linear-algebra
refinement by the bare value sum.
"""

from __future__ import annotations

import struct
from itertools import combinations, permutations
from math import comb

import numpy as np

from ksetwl.errors import GraphError, ParameterError
from ksetwl.features import Features
from ksetwl.graph import Graph
from ksetwl.ksets import KSetIndex
from ksetwl.kwl import DEFAULT_MAX_SETS, _neighbor_csr, iso_keys, swap_levels
from ksetwl.linalg import _iso_words, _row_sums, splitmix64, word_sums
from ksetwl.pipeline import exact_kset_run, kset_front_end
from ksetwl.sampling import SampledEstimate, _draw_batch, _label_sets


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
                    lab = edge_label(g, u, v) or 0
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
    label, using either the local or the global neighborhood rule.  At
    k = 1 a vertex of an unlabeled graph starts from its degree, as in
    :func:`naive_wl1_partitions`.
    """
    edge_sets = [edge_pairs(g) for g in graphs]
    sets_of = [
        [frozenset(c) for c in combinations(range(g.num_vertices), k)]
        for g in graphs
    ]
    keys = {}
    for gi, g in enumerate(graphs):
        for s in sets_of[gi]:
            if k == 1 and g.node_labels is None:   # degree as node label
                keys[(gi, s)] = ((sum(1 for e in edge_sets[gi]
                                      if e[0] in s),), ())
            else:
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


# ------------------------------------------------------ one-item forms

def neighbors(g: Graph, v: int) -> np.ndarray:
    """The sorted neighbor row of vertex ``v``."""
    if not 0 <= v < g.num_vertices:
        raise GraphError(f"vertex {v} out of range [0, {g.num_vertices})")
    return g.indices[g.indptr[v]:g.indptr[v + 1]]


def degree(g: Graph, v: int) -> int:
    return len(neighbors(g, v))


def has_edge(g: Graph, u: int, v: int) -> bool:
    """Binary search of ``u``'s sorted neighbor row."""
    row = neighbors(g, u)
    if not 0 <= v < g.num_vertices:
        raise GraphError(f"vertex {v} out of range [0, {g.num_vertices})")
    pos = int(np.searchsorted(row, v))
    return pos < len(row) and row[pos] == v


def edge_list(g: Graph) -> list:
    """All undirected edges as (u, v) with u < v, in row order."""
    return [(u, int(v)) for u in range(g.num_vertices)
            for v in neighbors(g, u) if u < v]


def edge_label(g: Graph, u: int, v: int):
    """The label of the edge {u, v}; None when there is no such edge or
    the graph has no edge labels."""
    if g.arc_labels is None or not has_edge(g, u, v):
        return None
    return int(g.arc_labels[g.indptr[u] + np.searchsorted(neighbors(g, u), v)])


def rank(t) -> int:
    """The colex rank of the ascending k-tuple ``t``: sum_i C(t_i, i + 1)."""
    return sum(comb(int(v), i + 1) for i, v in enumerate(t))


def unrank(index: KSetIndex, r: int) -> tuple:
    """The k-set of rank ``r``, through the bulk unranking."""
    if not 0 <= r < index.size:
        raise ParameterError(f"rank {r} out of range [0, {index.size})")
    return tuple(index.unrank_rows([r])[0].tolist())


def features_of(per_graph) -> Features:
    """The :class:`Features` of graphs given as lists of {label: weight}
    blocks, one list per graph, all of one length: each block's entries in
    (label, graph) order."""
    blocks = []
    for b in range(len(per_graph[0]) if per_graph else 0):
        rows = sorted(((gi, label, weight)
                       for gi, vector in enumerate(per_graph)
                       for label, weight in vector[b].items()),
                      key=lambda row: (row[1], row[0]))
        blocks.append((np.array([r[0] for r in rows], dtype=np.int32),
                       np.array([r[1] for r in rows], dtype=np.int32),
                       np.array([r[2] for r in rows], dtype=np.float64)))
    return Features(len(per_graph), blocks)


def blocks_of(features: Features) -> list:
    """Per graph, its list of {label: weight} blocks, labels ascending."""
    out = [[{} for _ in features.blocks] for _ in range(features.n)]
    for b, (graph, label, weight) in enumerate(features.blocks):
        for gi, lab, w in zip(graph.tolist(), label.tolist(), weight.tolist()):
            out[gi][b][lab] = w
    return out


def dot(u, v) -> float:
    """Inner product of two lists of {label: weight} blocks over matching
    (block, label) pairs."""
    if len(u) != len(v):
        raise ParameterError(f"feature vectors span different iteration "
                             f"counts: {len(u) - 1} vs {len(v) - 1}")
    total = 0.0
    for bu, bv in zip(u, v):
        for label, w in bu.items():
            if label in bv:
                total += w * bv[label]
    return total


def estimate_blocks(estimate: SampledEstimate) -> list:
    """Each iteration's label -> mass map of a sampled estimate, in
    ascending label order."""
    return [dict(zip(labels.tolist(), mass.tolist()))
            for labels, mass in estimate.masses]


def psd_check(K: np.ndarray, jitter: float = 0.0) -> bool:
    """Whether K + jitter*I admits a Cholesky factorization."""
    if jitter < 0:
        raise ParameterError("jitter must be nonnegative")
    shifted = np.asarray(K, dtype=np.float64) + jitter * np.eye(len(K))
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def iso_key(row) -> bytes:
    """The key :func:`interned_exact_run` gives a canonical iso row: the
    tag byte 0x80, then the row as sign-biased big-endian 64-bit words."""
    return b"\x80" + struct.pack(f">{len(row)}Q", *(x + (1 << 63)
                                                    for x in row))


def refine_key(prev: int, neighbor_labels) -> bytes:
    """The refinement key of one item: the big-endian 32-bit words of its
    own label and its ascending neighbor labels, all ids in [0, 2^31)."""
    arr = np.asarray(neighbor_labels, dtype=np.int64)
    assert arr.size == 0 or bool(np.all(np.diff(arr) >= 0)), \
        "neighbor labels must arrive sorted"
    if not all(0 <= x < 1 << 31 for x in (prev, *arr.tolist())):
        raise ParameterError("labels must be ids in [0, 2^31)")
    return struct.pack(f">{1 + arr.size}I", prev, *arr.tolist())


def iso_type(g: Graph, t) -> int:
    """The iteration-0 word a sampler gives one k-set, through the bulk
    code path."""
    codes, index = iso_keys(g, np.asarray([t], dtype=np.int64))
    return int(_iso_words(codes)[index[0]])


def row_offsets(indptr, columns) -> np.ndarray:
    """A CSR's absolute ``columns`` as offsets from their own row, the form
    ``word_sums`` and the exactness check take: column - row."""
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    return np.asarray(columns, dtype=np.int64) - rows


def absolute_columns(indptr, offsets) -> np.ndarray:
    """A CSR's ``offsets`` from their own row as absolute columns: row +
    offset, int64."""
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    return rows + np.asarray(offsets, dtype=np.int64)


def number_keys(keys, first: int = 0) -> np.ndarray:
    """The ids of ``keys`` in input order, as int32: the distinct keys take
    ``first``, ``first + 1``, ... in ascending order."""
    keys = list(keys)
    ids = {key: i for i, key in enumerate(sorted(set(keys)), first)}
    return np.array([ids[key] for key in keys], dtype=np.int32)


def neighbor_csr(g: Graph, index: KSetIndex, local: bool,
                 sets: np.ndarray) -> tuple:
    """The swap CSR of the k-sets ``sets`` (``index.all_sets()``) of the one
    graph ``g``, whose columns are colex ranks."""
    indptr, offsets = _neighbor_csr(g, index, local, sets,
                                    np.array([0, g.num_vertices]))
    return indptr, absolute_columns(indptr, offsets)


def per_set_neighbors(g: Graph, t, local: bool) -> list:
    """Swaps of one ascending k-tuple, ascending tuples themselves: incoming
    vertices ascending, then the replaced position; a local swap's incoming
    vertex is adjacent to a member."""
    incoming = (sorted({int(r) for v in t for r in neighbors(g, v)}) if local
                else range(g.num_vertices))
    return [tuple(sorted(t[:j] + t[j + 1:] + (r,)))
            for r in incoming if r not in t for j in range(len(t))]


def per_set_csr(graphs, k: int, local: bool) -> tuple:
    """The swap CSR of the k-sets of ``graphs``, stacked graph by graph in
    colex order, from one :func:`per_set_neighbors` call per set: its
    columns are absolute, the first row of the set's graph plus the swap's
    colex rank."""
    degrees, columns, first = [0], [], 0
    for g in graphs:
        sets = sorted(combinations(range(g.num_vertices), k),
                      key=lambda t: t[::-1])
        for t in sets:
            row = per_set_neighbors(g, t, local)
            degrees.append(len(row))
            columns.extend(first + rank(s) for s in row)
        first += len(sets)
    return np.cumsum(degrees), np.array(columns, dtype=np.int64)


def global_neighbors(g: Graph, t) -> list:
    """The swaps of one k-set for any outside vertex, in bulk order: its row
    of the global neighbor CSR of ``g``."""
    index = KSetIndex(g.num_vertices, len(t))
    indptr, indices = neighbor_csr(g, index, False, index.all_sets())
    row = indices[indptr[rank(t)]:indptr[rank(t) + 1]]
    return list(map(tuple, index.unrank_rows(row).tolist()))


def local_neighbors(g: Graph, t) -> list:
    """The swaps of one k-set for a vertex adjacent to a member, in bulk
    order: the one row of its radius-1 swap CSR."""
    rows, _, indptr, offsets = swap_levels(g, np.asarray([t]), 1)
    return list(map(tuple, rows[absolute_columns(indptr, offsets)].tolist()))


def c_neighborhood(g: Graph, t, radius: int) -> set:
    """The k-sets within ``radius`` local swaps of ``t``: the rows of its
    swap levels."""
    return set(map(tuple, swap_levels(g, np.asarray([t]), radius)[0]
                   .tolist()))


def local_labels(g: Graph, s, k: int, h: int) -> tuple:
    """Words of the k-set ``s`` for iterations 0..h, a one-set batch of the
    sampler: those of :func:`exact_word_run` on the full graph."""
    if h < 0:
        raise ParameterError("iteration count h must be nonnegative")
    s = tuple(sorted(int(v) for v in s))
    if len(set(s)) != k or not 0 <= s[0] <= s[-1] < g.num_vertices:
        raise ParameterError(f"expected a {k}-set of vertices, got {s}")
    return tuple(_label_sets(g, np.asarray([s]), h)[0].tolist())


def sample_kset_uniform(g: Graph, k: int, rng) -> tuple:
    """One k-set drawn uniformly: a one-row draw of the sampler."""
    if g.num_vertices < k:
        raise ParameterError(f"cannot draw a {k}-set from {g.num_vertices} "
                             f"vertices")
    return tuple(_draw_batch(g.num_vertices, k, 1, rng)[0].tolist())


def histogram(labels) -> dict:
    """The label -> count map of a label array, counts as floats."""
    values, counts = np.unique(labels, return_counts=True)
    return dict(zip(values.tolist(), counts.astype(np.float64).tolist()))


def graph_slices(counts) -> list:
    """The slice of each graph's k-sets in the stacked label arrays of a
    run with these per-graph k-set ``counts``."""
    rows = np.cumsum([0] + list(counts)).tolist()
    return [slice(a, b) for a, b in zip(rows, rows[1:])]


def _stacked_codes(graphs, k: int, local: bool):
    """The canonical iso row of each stacked k-set of ``graphs``, the
    k-set count of each graph and the swap CSR, from
    :func:`ksetwl.pipeline.kset_front_end` (at h = 1, which builds the
    CSR)."""
    (codes, types), counts, csr = kset_front_end(graphs, k, local, 1,
                                                 DEFAULT_MAX_SETS)
    return codes[types], counts, csr


def interned_exact_run(graphs, k: int, h: int, local: bool = True):
    """An exact run under one persistent interner, a plain dict from key
    bytes to ids that gives each window's fresh keys the next ids in
    ascending byte order.  Iteration 0's key of a set is the
    :func:`iso_key` of its canonical iso row, each later iteration's its
    :func:`refine_key` over the front end's CSR; the tag byte keeps the
    two kinds apart.
    Returns what :func:`ksetwl.pipeline.exact_kset_run` returns; the ids
    run from 0, so the table holds ``labels[-1].max() + 1`` keys."""
    rows, counts, (indptr, offsets) = _stacked_codes(graphs, k, local)
    ids = {}

    def window(keys):
        for key in sorted(set(keys) - ids.keys()):
            ids[key] = len(ids)
        return np.array([ids[key] for key in keys], dtype=np.int32)

    labels = [window(list(map(iso_key, rows.tolist())))]
    columns = absolute_columns(indptr, offsets).tolist()
    bounds = indptr.tolist()
    for _ in range(h):
        prev = labels[-1].tolist()
        labels.append(window([refine_key(prev[i], sorted(
            prev[c] for c in columns[bounds[i]:bounds[i + 1]]))
            for i in range(len(bounds) - 1)]))
    return labels, counts


def exact_word_run(graphs, k: int, h: int, local: bool = True):
    """The words a sampler gives every stacked k-set of ``graphs``, from
    the whole run at once: iteration 0 folds each canonical iso row
    (:func:`ksetwl.linalg._iso_words`), and each later iteration is
    :func:`ksetwl.linalg.word_sums` over the front end's CSR.  Returns one
    ``uint64`` array per iteration 0..h and the k-set count of each
    graph."""
    rows, counts, csr = _stacked_codes(graphs, k, local)
    words = [_iso_words(rows)]
    for _ in range(h):
        words.append(word_sums(*csr, words[-1].copy()))
    return words, counts


def wl1_colorings(g: Graph, h: int) -> list:
    """1-WL label arrays of one graph, one per iteration: local k-set
    refinement at k = 1."""
    return exact_kset_run([g], 1, h)[0]


def wl1_histograms(g: Graph, h: int) -> list:
    """Per-iteration 1-WL label histograms of one graph."""
    return [histogram(labels) for labels in wl1_colorings(g, h)]


def distinguishable(g1: Graph, g2: Graph, h: int) -> bool:
    """Do the 1-WL histograms of two graphs differ within h steps?  The
    joint partition is stable after n1 + n2 steps, so h is capped there."""
    h = min(h, g1.num_vertices + g2.num_vertices)
    labels, counts = exact_kset_run([g1, g2], 1, h)
    first, second = graph_slices(counts)
    return any(histogram(it[first]) != histogram(it[second])
               for it in labels)


def paper_sum_step(indptr, indices, labels):
    """One linear-algebra step on the bare word sum H(own) + sum of
    neighbor H, without the own label's separate word: the value vector
    and the dense labels of its distinct values."""
    words = splitmix64(labels)
    values = words + _row_sums(indptr, words[indices])
    return values, np.unique(values, return_inverse=True)[1]


def paper_sum_refinement(indptr, indices, initial_labels, h: int) -> list:
    """h bare-sum steps from the dense form of ``initial_labels``."""
    out = [np.unique(initial_labels, return_inverse=True)[1].reshape(-1)]
    for _ in range(h):
        out.append(paper_sum_step(indptr, indices, out[-1])[1])
    return out
