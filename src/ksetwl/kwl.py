"""k-set machinery: isomorphism types, swap neighborhoods and the directed
k-set graph; :mod:`ksetwl.pipeline` refines over them.

A k-set's neighbors arise by swapping one member for an outside vertex.  The
global variant admits every outside vertex; the local variant only vertices
adjacent to at least one member of the original set, which is what ties the
refinement to the graph's sparsity.

At k = 1 a set is a vertex, its local swaps are the vertex's neighbors and
its isomorphism type is its node label (its degree when the graph is
unlabeled), so k-set refinement at k = 1 is 1-WL.

The front end works on all k-sets at once with array operations:
:func:`iso_keys` gathers the raw row of every set (node labels, adjacency
bits and edge labels in set order), deduplicates the rows exactly, and takes
the lexicographic minimum over the k! member orderings of each distinct raw
row only, so it returns one canonical row per iso type and an index from
sets to rows.
:func:`_neighbor_csr` builds the swap neighborhoods: local candidates come
from a ragged gather of member adjacency rows, and each neighbor's colex
rank in its graph is one lookup in a swap table (:func:`_swap_table`), the
colex rank of a (k-1)-set plus a vertex.  Swaps stay inside their graph,
so the CSR stores a neighbor as the offset of its position from its own
row's, column = row + offset, in the narrowest signed type that holds
+-(C(n_max, k) - 1): int16 on MUTAG at k = 3, half of an int32 position.
The table has C(n_max, k - 1) * n_max entries for the widest graph's n_max
vertices, about k * C(n_max, k), int32 while C(n_max, k) < 2^31, so the
``--max-sets`` check that precedes every allocation bounds it too.  Both
are processed in bounded blocks of sets, and both run once over a whole
dataset stacked by :func:`stack_graphs`.
:func:`swap_levels` gives the sampling path the sets within h local swaps
of a few sets, those within j swaps first, and the CSR of their swaps, in
the same offset form.  It and the sampler's memo deduplicate k-sets with
one helper, :func:`_append_rows`, which keys a set by its base-n digits in
one int64.  Iso-type indices, like every label array, are int32: label
ids stay below ``_ID_CAP`` = 2^31.
"""

from __future__ import annotations

from itertools import permutations
from math import comb, factorial

import numpy as np

from .graph import Graph
from .interner import _check_cap
from .ksets import _BLOCK_ITEMS, _INT64_MAX, KSetIndex

# Exact and linalg runs refuse graphs with more k-sets than this in total
# unless overridden; the sampling estimators have no such limit.
DEFAULT_MAX_SETS = 50_000_000


def _edges_between(g: Graph, u: np.ndarray, v: np.ndarray):
    """Presence and label (0 when unlabeled) of the pairs (u[i], v[i]),
    found by a binary search of each u[i]'s sorted row, so the cost follows
    the queried rows and never the size of ``g``; a label is read from
    ``arc_labels`` at the position the search ends on."""
    lo, end = g.indptr[u], g.indptr[u + 1]
    hi = end.copy()
    for _ in range(int(np.max(end - lo, initial=0)).bit_length()):
        mid = (lo + hi) // 2
        less = (g.indices[np.minimum(mid, len(g.indices) - 1)] < v) & (lo < hi)
        lo, hi = np.where(less, mid + 1, lo), np.where(less, hi, mid)
    present = lo < end
    present[present] = g.indices[lo[present]] == v[present]
    labels = np.zeros(len(u), dtype=np.int64)
    if g.arc_labels is not None:
        labels[present] = g.arc_labels[lo[present]]
    return present, labels


def node_words(g: Graph, k: int) -> np.ndarray:
    """Each vertex's word in the iso types of k-sets: its node label, or in
    an unlabeled graph its degree at k = 1 (where 1-WL starts) and 0 for
    larger k."""
    if g.node_labels is not None:
        return np.asarray(g.node_labels, dtype=np.int64)
    if k == 1:
        return np.diff(g.indptr)
    return np.zeros(g.num_vertices, dtype=np.int64)


def stack_graphs(graphs, k: int):
    """The block-diagonal union of ``graphs`` as one Graph, and the vertex
    offset of each graph followed by the total.  Its node labels are the
    graphs' :func:`node_words` for ``k``, so the iso keys of its k-sets are
    the keys each k-set has in its own graph."""
    offsets = np.zeros(len(graphs) + 1, dtype=np.int64)
    np.cumsum([g.num_vertices for g in graphs], out=offsets[1:])
    arcs = np.cumsum([0] + [len(g.indices) for g in graphs])
    empty = np.empty(0, dtype=np.int64)
    indptr = np.concatenate([np.zeros(1, dtype=np.int64)] + [
        g.indptr[1:] + a for g, a in zip(graphs, arcs)])
    indices = np.concatenate(
        [empty] + [g.indices + o for g, o in zip(graphs, offsets)])
    words = np.concatenate([empty] + [node_words(g, k) for g in graphs])
    arc_labels = None
    if any(g.arc_labels is not None for g in graphs):
        arc_labels = np.concatenate([empty] + [
            np.zeros(len(g.indices), dtype=np.int64) if g.arc_labels is None
            else g.arc_labels for g in graphs])
    return Graph(offsets[-1], indptr, indices, words, arc_labels), offsets


def stacked_sets(index: KSetIndex, counts, offsets) -> np.ndarray:
    """The k-sets of stacked graphs (:func:`stack_graphs`), graph by graph
    in rank order, filled into one array: graph g's sets are the first
    ``counts[g]`` rows of ``index.all_sets()`` plus g's vertex offset, since
    colex ranks do not depend on n.  ``index`` is the widest graph's.  The
    array is int32 while every vertex id fits, else int64."""
    widest = index.all_sets()
    fits = offsets[-1] <= np.iinfo(np.int32).max + 1
    sets = np.empty((sum(counts), index.k), dtype=np.int32 if fits
                    else np.int64)
    row = 0
    for count, offset in zip(counts, offsets):
        np.add(widest[:count], offset, out=sets[row:row + count],
               casting="unsafe")
        row += count
    return sets


def _raw_rows(g: Graph, sets: np.ndarray) -> np.ndarray:
    """One row per row of ``sets``: its members' node words in set order,
    then the adjacency bits of the upper-triangle member pairs, then those
    pairs' edge labels (0 where absent).  Equal raw rows have equal iso
    types."""
    m, k = sets.shape
    a, b = np.triu_indices(k, 1)
    # search the larger member's row: in colex order it varies least
    present, elabs = _edges_between(g, sets[:, b].ravel(), sets[:, a].ravel())
    return np.concatenate([node_words(g, k)[sets], present.reshape(m, len(a)),
                           elabs.reshape(m, len(a))], axis=1)


def _canonical_rows(rows: np.ndarray, k: int) -> np.ndarray:
    """Canonical form of each raw row: the lexicographic minimum, over all
    k! orderings of the set, of (node words, adjacency bits, edge labels).
    All orderings share one edge count, so comparing with zero labels at
    absent edges picks the same minimum as comparing present labels only."""
    a, b = np.triu_indices(k, 1)
    pair = np.zeros((k, k), dtype=np.int64)
    pair[a, b] = pair[b, a] = np.arange(len(a))
    perms = np.array(list(permutations(range(k))), dtype=np.int64)
    slots = pair[perms[:, a], perms[:, b]]    # pair index of each (a, b)
    bits, elabs = rows[:, k:k + len(a)], rows[:, k + len(a):]
    codes = np.concatenate([rows[:, perms], bits[:, slots], elabs[:, slots]],
                           axis=2)
    alive = np.ones(codes.shape[:2], dtype=bool)
    for c in range(codes.shape[2]):
        col = np.where(alive, codes[:, :, c], np.iinfo(np.int64).max)
        alive &= col == col.min(axis=1, keepdims=True)
    return codes[np.arange(len(rows)), alive.argmax(axis=1)]


def iso_keys(g: Graph, sets: np.ndarray):
    """The distinct canonical rows over the rows ``t`` of ``sets``,
    ascending, and each row's index into them, int32 like every label
    array.  A canonical row is fixed width, with edge label 0 where an
    edge is absent, and ``iso_code(g, t)`` lays it out as bytes.  More
    distinct rows than label ids are refused
    (:func:`ksetwl.interner._check_cap`).

    Only distinct raw rows (:func:`_raw_rows`) are canonicalized: rows are
    deduplicated within each block of sets, then across the blocks'
    distinct rows, and canonical rows once more.  ``sets`` may be int32 or
    int64; each block is widened to int64, and the one array over all sets
    is the int32 index of each set's distinct raw row.
    """
    k = sets.shape[1]
    step = max(1, _BLOCK_ITEMS // factorial(k))
    raw = np.empty(len(sets), dtype=np.int32 if len(sets) <= np.iinfo(
        np.int32).max else np.intp)
    distinct, seen = [], 0
    # one empty block when there are no sets
    for start in range(0, max(len(sets), 1), step):
        block = sets[start:start + step].astype(np.int64, copy=False)
        rows, inverse, _ = _unique_rows(_raw_rows(g, block))
        distinct.append(rows)
        raw[start:start + len(inverse)] = inverse + seen
        seen += len(rows)
    rows, where, _ = _unique_rows(np.concatenate(distinct))
    best = np.concatenate([_canonical_rows(block, k) for block in
                           np.split(rows, range(step, len(rows), step))])
    codes, types, _ = _unique_rows(best)
    _check_cap(len(codes))
    # compose the maps over distinct rows, then gather once over all sets
    return codes, types.astype(np.int32)[where][raw]


def iso_code(g: Graph, t) -> bytes:
    """Canonical code of the labeled subgraph induced by the k-set ``t``.

    A one-row call of the bulk path: the minimum, over all k! orderings of
    the set, of the tuple of raw node labels, upper-triangle adjacency bits,
    and edge labels, fixed width with edge label 0 where absent, each as a
    sign-biased big-endian 64-bit word.  Two sets (in any graphs) get equal
    codes iff their induced subgraphs are isomorphic respecting node and
    edge labels.
    """
    t = np.asarray([t], dtype=np.int64)
    row = _canonical_rows(_raw_rows(g, t), t.shape[1])[0]
    # flipping the sign bit maps signed order onto unsigned order
    return (row.view(np.uint64) ^ np.uint64(1 << 63)).astype(">u8").tobytes()


def _local_candidates(g: Graph, sets: np.ndarray):
    """The local swap candidates of the rows of ``sets``: (owner row,
    incoming vertex) pairs ordered by owner, then vertex, one for each
    vertex that is adjacent to a member of its owner row and is not itself
    a member.  They come from a ragged gather of member adjacency rows,
    deduplicated per owner."""
    n, k = g.num_vertices, sets.shape[1]
    members = sets.ravel()
    deg = g.indptr[members + 1] - g.indptr[members]
    owner = np.repeat(np.arange(len(sets)).repeat(k), deg)
    ends = np.cumsum(deg)
    gather = np.arange(ends[-1] if len(ends) else 0)
    gather += np.repeat(g.indptr[members] - (ends - deg), deg)
    cand = owner * n
    cand += g.indices[gather]
    cand.sort()
    # the sort moves entries only within their owner's run, so the owners
    # stay where they are
    keep = np.diff(cand, prepend=-1) != 0
    owner, vertex = owner[keep], cand[keep]
    vertex -= owner * n
    outside = _outside(sets, owner, vertex)
    return owner[outside], vertex[outside]


def _outside(sets: np.ndarray, owner: np.ndarray, vertex: np.ndarray):
    """Which pairs (owner row, vertex) have a vertex outside the row of
    ``sets``, compared one member column at a time: gathering whole rows
    took about 7x as long on MUTAG's 3-sets."""
    outside = np.ones(len(owner), dtype=bool)
    for column in sets.T:
        outside &= column[owner] != vertex
    return outside


def _drop_ranks(index: KSetIndex, sets: np.ndarray) -> np.ndarray:
    """Entry [j, i]: the colex rank of the (k-1)-set that row i of ``sets``
    leaves without its j-th member, the sum of C(s_l, l + 1) over l < j and
    of C(s_l, l) over l > j."""
    chooses = index._chooses.T.copy()    # row j: C(v, j) for every v
    drops = np.zeros((index.k, len(sets)), dtype=np.int64)
    for l, column in enumerate(sets.T):
        drops[l + 1:] += chooses[l + 1][column]
        drops[:l] += chooses[l][column]
    return drops


def _swap_table(index: KSetIndex, sets: np.ndarray) -> np.ndarray:
    """Entry [t, v] is the colex rank of the (k-1)-set of rank t plus the
    vertex v, for every v outside that set (the other entries are 0): a
    swap of S at position j for v ranks table[drop(S, j), v]
    (:func:`_drop_ranks`).

    ``sets`` are the index's k-sets in rank order, and the set S of rank r
    fills [drop(S, j), s_j] = r for each j, so nothing is enumerated
    twice.  The table has C(n, k - 1) * n entries, about k * C(n, k),
    int32 while C(n, k) < 2^31.
    """
    n, k = index.n, index.k
    dtype = np.int32 if index.size <= np.iinfo(np.int32).max else np.int64
    table = np.zeros((comb(n, k - 1), n), dtype=dtype)
    step = max(1, _BLOCK_ITEMS // k)
    for start in range(0, len(sets), step):
        block = sets[start:start + step]
        ranks = np.arange(start, start + len(block), dtype=dtype)
        table[_drop_ranks(index, block), block.T] = ranks
    return table


def _offset_dtype(span: int):
    """The narrowest of int16, int32 and int64 that holds -span and span."""
    for dtype in (np.int16, np.int32):
        if span <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _csr_indptr(degrees: np.ndarray) -> np.ndarray:
    """The CSR row pointer of rows with ``degrees`` entries, given after a
    leading 0: their running sum, int32 while the entry count fits (in
    place when ``degrees`` is int32), else int64."""
    if int(degrees.sum(dtype=np.int64)) > np.iinfo(np.int32).max:
        return np.cumsum(degrees, dtype=np.int64)
    return np.cumsum(degrees, dtype=np.int32,
                     out=degrees if degrees.dtype == np.int32 else None)


def _neighbor_csr(g: Graph, index: KSetIndex, local: bool, sets: np.ndarray,
                  offsets: np.ndarray):
    """CSR of every k-set's local (or global) swap neighbors, ordered by
    owner row, then incoming vertex, then replaced position.  A neighbor
    is stored as the offset of its position in ``sets`` from its owner
    row's: column = row + offset.

    ``g`` is a stack of graphs with the vertex ``offsets`` of
    :func:`stack_graphs` (``[0, n]`` for one graph) and ``sets`` their
    k-sets, stacked graph by graph in rank order: every row's swaps stay in
    its own graph, so an offset is the neighbor's colex rank there, one
    lookup in the :func:`_swap_table` filled from the widest graph's rows,
    minus the row's own rank.  ``index`` is the index of the widest graph
    (colex ranks do not depend on n), so the table has
    C(n_max, k - 1) * n_max entries, about k * C(n_max, k).  Local
    candidates come from :func:`_local_candidates`, global ones are every
    vertex of the row's graph outside the row.  Offsets lie within
    +-(C(n_max, k) - 1), so they take the narrowest signed type that holds
    that, picked before anything is allocated: int16 on MUTAG at k = 3,
    where a row then costs 2 bytes per neighbor against 4 for an absolute
    int32 position.  The row pointer is int32 while the entry count fits.

    Row degrees come first, so the offsets fill slices of one array: a
    global row of an n_g-vertex graph has k * (n_g - k) entries, and a
    first pass over local rows finds their candidates, which wait as
    vertex ids in their graph, in the narrowest unsigned type (one byte on
    MUTAG), until the second pass turns them into offsets.
    """
    k = index.k
    sizes = np.diff(offsets)
    counts = [comb(int(n), k) for n in sizes]
    first = np.cumsum([0] + counts, dtype=np.int64)
    widest = int(np.argmax(sizes)) if len(sizes) else 0
    table = _swap_table(index, sets[first[widest]:first[widest] + index.size]
                        - offsets[widest]).ravel()
    per_set = k * (k * g.max_degree() if local else int(sizes.max(initial=0)))
    step = max(1, _BLOCK_ITEMS // max(per_set, 1))
    starts = range(0, len(sets), step)
    dtype = _offset_dtype(max(counts, default=1) - 1)
    # a row has at most per_set entries; int32 degrees become the row
    # pointer in place
    wide = per_set > np.iinfo(np.int32).max
    degrees = np.zeros(len(sets) + 1, dtype=np.int64 if wide else np.int32)
    if local:
        narrow = np.min_scalar_type(max(int(sizes.max(initial=0)) - 1, 0))
        waiting = []
        for start in starts:
            block = sets[start:start + step].astype(np.int64, copy=False)
            owner, vertex = _local_candidates(g, block)
            vertex -= offsets[_graph_of(offsets, block)[owner]]
            waiting.append(vertex.astype(narrow))
            degrees[start + 1:start + 1 + len(block)] = k * np.bincount(
                owner, minlength=len(block))
    else:
        degrees[1:] = np.repeat(k * (sizes - k), counts)
    indptr = _csr_indptr(degrees)
    columns = np.empty(int(indptr[-1]), dtype=dtype)
    for i, start in enumerate(starts):
        block = sets[start:start + step]
        graph = _graph_of(offsets, block)
        rows = block - offsets[graph, None]
        if local:
            vertex, waiting[i] = waiting[i], None
            per_row = np.diff(indptr[start:start + len(block) + 1]) // k
        else:
            per_row = sizes[graph] - k
            owner = np.repeat(np.arange(len(block)), sizes[graph])
            vertex = np.arange(len(owner)) - np.repeat(
                np.cumsum(sizes[graph]) - sizes[graph], sizes[graph])
            vertex = vertex[_outside(rows, owner, vertex)]
            del owner
        # the flat table's rows are index.n entries wide; ranks fit the
        # table's type
        drops = _drop_ranks(index, rows)
        drops *= index.n
        rank = np.repeat((start + np.arange(len(block)) - first[graph]).astype(
            table.dtype), per_row)
        out = columns[indptr[start]:indptr[start + len(block)]].reshape(-1, k)
        for j, drop in enumerate(drops):
            flat = np.repeat(drop, per_row)
            flat += vertex
            np.subtract(np.take(table, flat), rank, out=out[:, j],
                        casting="unsafe")
        del vertex, drops, rank, flat   # before the next block's
    return indptr, columns


def _graph_of(offsets: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The graph of each row of a block of stacked k-sets."""
    return np.searchsorted(offsets, block[:, 0], side="right") - 1


def _unique_rows(a: np.ndarray):
    """``np.unique(a, axis=0, return_inverse=True, return_counts=True)`` for
    a 2-D integer array: distinct rows ascending, inverse, counts."""
    # np.unique(axis=0) sorts rows as opaque void records, several times
    # slower than one lexsort over the columns
    order = np.lexsort(a.T[::-1])
    rows = a[order]
    first = np.ones(len(a), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    return rows[starts], inverse, np.diff(starts, append=len(a))


def _append_rows(rows: np.ndarray, new: np.ndarray, n: int):
    """The distinct k-sets ``rows``, unchanged and first, then the rows of
    ``new`` they lack, distinct and in colex order, and the position of
    each row of ``new`` in that result; sets ascend, with ids below ``n``.
    While n^k fits, a set's key is its base-n digits in one int64 (ascending
    keys are colex order), else :func:`_unique_rows` sorts reversed rows."""
    k = rows.shape[1]
    keyed = int(n) ** k <= _INT64_MAX
    if keyed:
        powers = int(n) ** np.arange(k, dtype=np.int64)
        distinct, inverse = np.unique(
            np.concatenate([rows @ powers, new @ powers]), return_inverse=True)
    else:   # colex order is the lexicographic order of reversed rows
        distinct, inverse, _ = _unique_rows(
            np.concatenate([rows, new])[:, ::-1])
    position = np.full(len(distinct), -1)
    position[inverse[:len(rows)]] = np.arange(len(rows))
    added = position < 0
    position[added] = np.arange(len(rows), len(distinct))
    fresh = distinct[added]
    fresh = fresh[:, None] // powers % n if keyed else fresh[:, ::-1]
    return np.concatenate([rows, fresh]), position[inverse[len(rows):]]


def swap_levels(g: Graph, sets: np.ndarray, radius: int):
    """Breadth-first expansion of the distinct rows ``sets`` over local
    swaps: the sets within ``radius`` swaps as one array ``rows``, whose
    first ``sizes[j]`` are those within j swaps (``sets`` first, in order),
    and the CSR (indptr, offsets) of the swaps of its first
    ``sizes[radius - 1]`` rows, each row ordered as in :func:`_neighbor_csr`.
    A swap of row i is stored as the offset of its position in ``rows``
    from i, in the narrowest signed type that holds +-(len(rows) - 1), and
    the row pointer is int32 while the entry count fits.  Each level swaps
    only its new rows and appends the sets they reach anew, in ascending
    colex order (:func:`_append_rows`).
    """
    rows = np.asarray(sets, dtype=np.int64)
    k, sizes, expanded = rows.shape[1], [len(rows)], 0
    degrees, shifts = [np.zeros(1, dtype=np.int64)], [np.empty(0, np.int64)]
    for _ in range(radius):
        new = rows[expanded:]   # the rows not yet expanded
        owner, vertex = _local_candidates(g, new)
        swapped = np.empty((k * len(owner), k), dtype=np.int64)
        for j in range(k):   # row k * e + j: swap e replacing member j
            swapped[j::k, :k - 1] = np.delete(new, j, axis=1)[owner]
            swapped[j::k, k - 1] = vertex
        # the first k - 1 columns ascend: bubble the incoming vertex into place
        for c in range(k - 2, -1, -1):
            left, right = swapped[:, c], swapped[:, c + 1]
            swapped[:, c], swapped[:, c + 1] = (np.minimum(left, right),
                                                np.maximum(left, right))
        degrees.append(k * np.bincount(owner, minlength=len(new)))
        first = len(rows)
        rows, where = _append_rows(rows, swapped, g.num_vertices)
        shifts.append(where - np.repeat(expanded + owner, k))
        expanded = first
        sizes.append(len(rows))
    return (rows, sizes, _csr_indptr(np.concatenate(degrees)),
            np.concatenate(shifts).astype(_offset_dtype(len(rows) - 1)))
