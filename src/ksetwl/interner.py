"""Injective relabeling of exact refinement keys to compact integer ids.

A refinement key is the big-endian 32-bit words of (own label, ascending
neighbor labels), whose byte order is the order of those tuples.  Keys are
made in row blocks (:func:`refine_coloring_window`) and numbered a window
at a time (:func:`number_window`), read as a stream into a table of the
window's own, so numbering them is a plain sort.  Ids stay below 2^31,
and a window that would go further is refused.

A refinement key starts with a label the window before issued, so no key
of an exact run's window recurs in a later one: each window numbers its
own keys from the id after the largest label before it, one run of whole
own-label classes at a time, so only one run's keys are alive at once.
Sampled runs label sets by 64-bit content words instead
(:mod:`ksetwl.sampling`) and keep no table.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np

from .errors import ParameterError, ResourceLimitError
from .features import stable_order

_ID_CAP = 1 << 31  # label ids stay below this: int32 labels, 32-bit words

# Bound on the neighbor entries of one block of refinement keys.  One pass
# over a whole dataset's entries was measured slower than blocks.
_KEY_BLOCK_ENTRIES = 1 << 14


def _check_cap(issued: int) -> None:
    """Refuse a window after which more than ``_ID_CAP`` ids would exist."""
    if issued > _ID_CAP:
        raise ResourceLimitError(
            f"the run needs more than {_ID_CAP} distinct labels; "
            f"label ids stop at {_ID_CAP}") from None


def _check_ids(labels: np.ndarray) -> None:
    """Refuse labels that are not ids in [0, ``_ID_CAP``)."""
    if len(labels) and not 0 <= labels.min() <= labels.max() < _ID_CAP:
        raise ParameterError(f"labels must be ids in [0, {_ID_CAP})")


def number_window(keys, first: int) -> np.ndarray:
    """The ids of a window's keys, in input order, as int32: its distinct
    keys take ``first``, ``first + 1``, ... in ascending byte order, and no
    table outlives the call.  Ids reaching ``_ID_CAP`` are refused.

    ``keys`` may be any iterable, such as a lazy stream of key blocks; the
    window's table maps each distinct key to its place in first-seen order.
    """
    table = defaultdict(itertools.count().__next__)
    try:
        index = np.fromiter(map(table.__getitem__, keys), dtype=np.int32)
    except OverflowError:   # numpy 2 refuses the index 2^31; numpy 1 wraps
        _check_cap(len(table))   # it, and the check below refuses that
        raise
    _check_cap(first + len(table))
    ids = np.empty(len(table), dtype=np.int32)
    ids[np.fromiter(map(table.__getitem__, sorted(table)), dtype=np.int64,
                    count=len(table))] = np.arange(first, first + len(table))
    del table   # the keys go before the result is allocated
    return ids[index]


def _ragged_words(words: np.ndarray, starts: np.ndarray) -> list[bytes]:
    """The rows of a flat array of big-endian words, as bytes, where row i
    runs from ``starts[i]`` up to the next start."""
    buf = words.tobytes()
    bounds = (words.itemsize * np.asarray(starts)).tolist() + [len(buf)]
    return [buf[s:e] for s, e in zip(bounds[:-1], bounds[1:])]


def _row_blocks(indptr: np.ndarray, offsets: np.ndarray, order=None,
                pointer=None):
    """Consecutive places [a, b) of an order of the rows of a CSR whose
    entries are offsets from their own row, each block holding at most
    ``_KEY_BLOCK_ENTRIES`` entries (or one row).  The order is all rows
    ascending by default; an ``order`` comes with its ``pointer``, the
    entries before each of its places (:func:`_class_runs`).  Yields a,
    b, the block's entry pointer from 0, the place in the block of each
    entry's row and the entry's column, row plus offset."""
    if order is None:
        pointer = indptr
    n, a = len(pointer) - 1, 0
    while a < n:
        # a Python int would make searchsorted cast all of an int32 pointer
        end = min(int(pointer[a]) + _KEY_BLOCK_ENTRIES, int(pointer[-1]))
        b = max(a + 1, int(np.searchsorted(
            pointer, pointer.dtype.type(end), side="right")) - 1)
        bounds = pointer[a:b + 1] - pointer[a]
        degrees = np.diff(bounds)
        place = np.repeat(np.arange(b - a), degrees)
        if order is None:
            columns = place + a
            columns += offsets[indptr[a]:indptr[b]]
        else:
            # intp rows, so that no gather below copies its indices first
            rows = order[a:b].astype(np.intp)
            columns = np.repeat(rows, degrees)
            entries = np.repeat(indptr[rows] - bounds[:-1], degrees)
            entries += np.arange(len(entries), dtype=entries.dtype)
            # np.take gathers several times faster than fancy indexing
            columns += np.take(offsets, entries)
            del rows, entries   # only the yielded arrays stay while keys
        yield a, b, bounds, place, columns
        a = b


def _keys(indptr, offsets, labels, span, order, pointer):
    """The refinement keys of the rows of a CSR in an order
    (:func:`_row_blocks`), built and streamed block by block."""
    return itertools.chain.from_iterable(
        _key_block(labels, span, order, *block)
        for block in _row_blocks(indptr, offsets, order, pointer))


def _key_block(labels, span, order, a, b, bounds, place, columns):
    """The keys of one row block, as a list."""
    # sort each row's neighbor labels at once by place * span + label,
    # in place, then lay out own and neighbor labels as one flat word array
    base = place * span
    neigh = np.take(labels, columns) + base
    neigh.sort()
    neigh -= base
    del base
    starts = np.arange(b - a) + bounds[:-1]
    words = np.empty(b - a + len(place), dtype=">u4")
    words[starts] = labels[order[a:b]]
    words[np.arange(len(place)) + place + 1] = neigh
    return _ragged_words(words, starts)


def _class_runs(indptr: np.ndarray, own: np.ndarray):
    """A stable order of the rows of a CSR by their own labels ``own``, and
    the places [a, b) of its runs of whole classes: each run holds at most
    ``_KEY_BLOCK_ENTRIES`` entries, or exactly one class if that class
    holds more.  The runs are cut from the entries before each class
    start, found once, so no array over all rows outlives the call but the
    order."""
    n = len(own)
    order = stable_order(own)
    starts = np.ones(n + 1, dtype=bool)   # each class start, and n
    held = own[order]
    np.not_equal(held[1:], held[:-1], out=starts[1:n])
    del held
    starts = np.flatnonzero(starts)
    # the degrees in that order, one gather of the row pointer at a time
    pointer = np.zeros(n + 1, dtype=indptr.dtype)
    pointer[1:] = indptr[1:][order]
    pointer[1:] -= indptr[:-1][order]
    np.cumsum(pointer, out=pointer)
    before = pointer[starts].astype(np.int64)
    del pointer
    runs, i = [], 0
    while i < len(starts) - 1:
        j = int(np.searchsorted(before, before[i] + _KEY_BLOCK_ENTRIES,
                                side="right")) - 1
        j = max(j, i + 1)   # the run's first class alone passes the budget
        runs.append((int(starts[i]), int(starts[j])))
        i = j
    return order, runs


def refine_coloring_window(indptr: np.ndarray, offsets: np.ndarray,
                           labels: np.ndarray, first: int) -> np.ndarray:
    """One exact refinement step over every row of a CSR adjacency
    structure: the new label of each row, as int32, numbered from the id
    ``first``.

    Rows and columns index one item list labeled by ``labels``, whose
    first items are the rows.  Entry e of row i is the item
    i + ``offsets[e]``, so offsets may be stored in any signed integer
    type that holds them.  Row i's key is the big-endian 32-bit words of
    its own label ``labels[i]`` and the ascending multiset of labels over
    its (out-)neighbors.  Labels must be ids below ``_ID_CAP``.

    The window visits the rows in a stable order of their own label, cut
    into runs of whole classes (:func:`_class_runs`), builds each run's
    keys in row blocks of at most ``_KEY_BLOCK_ENTRIES`` neighbor entries,
    or one row (:func:`_row_blocks`), and numbers the run by
    :func:`number_window` from the id after the previous run's last.  A
    key's first word is its own label, so every key of a run sorts after
    the keys of the runs before: the ids are those of one
    :func:`number_window` over all rows, and only one run's keys are alive
    at a time.
    """
    n = len(indptr) - 1
    if len(labels) < n:
        raise ParameterError("label vector is shorter than the adjacency")
    _check_ids(labels)
    span = int(labels.max()) + 1 if len(labels) else 1
    if n * span > np.iinfo(np.int64).max:
        raise ParameterError("labels too large for combined sort keys")
    order, runs = _class_runs(indptr, labels[:n])
    ids = np.empty(n, dtype=np.int32)
    for a, b in runs:
        rows = order[a:b]
        pointer = np.zeros(b - a + 1, dtype=indptr.dtype)
        np.cumsum(indptr[rows + 1] - indptr[rows], out=pointer[1:])
        numbered = number_window(_keys(indptr, offsets, labels, span, rows,
                                       pointer), first)
        ids[rows] = numbered
        first = int(numbered.max()) + 1
    return ids
