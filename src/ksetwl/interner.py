"""Injective relabeling of structured refinement keys to compact integer ids.

Keys are made in bulk (:func:`iso_key_batch`, :func:`refine_coloring_window`)
and numbered a window at a time, read as a stream into a table of the
window's own.  Two key kinds exist, both bytes whose lexicographic order
matches the natural order of the underlying tuples, which makes the
two-phase deterministic interning protocol a plain sort:

* an iso key is the tag byte 0x80 followed by the canonical code of a k-set
  isomorphism type (at k = 1, a vertex's node label or degree) as
  sign-biased big-endian 64-bit words, fixed width: node words, adjacency
  bits, then edge labels, edge label 0 where absent;
* a refinement key is the big-endian 32-bit words of (previous label,
  ascending neighbor labels), untagged.

Ids stay below 2^31, and a window that would go further is refused, so a
refinement key's first byte is below 0x80 and an iso key's is 0x80: no key
of one kind equals a key of the other, and every refinement key sorts
before every iso key.

A refinement key starts with a label the window before issued, so no key
of an exact run's window recurs in a later one: each window numbers its
own keys (:func:`number_window`).  A sampled run meets keys again, and one
:class:`LabelInterner` spans it.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np

from .errors import ParameterError, ResourceLimitError

_TAG_ISO = b"\x80"

_BIAS = 1 << 63  # maps signed 64-bit values onto order-preserving unsigned

_ID_CAP = 1 << 31  # label ids stay below this: 32-bit words, top bit clear

# Bound on the neighbor entries of one block of refinement keys.  One pass
# over a whole dataset's entries was measured slower than blocks.
_KEY_BLOCK_ENTRIES = 1 << 16


def _stream_window(keys) -> tuple[dict, np.ndarray]:
    """A window's own table of its distinct keys, each mapped to its place
    in first-seen order, and that place for every key, as int32."""
    table = defaultdict(itertools.count().__next__)
    try:
        index = np.fromiter(map(table.__getitem__, keys), dtype=np.int32)
    except OverflowError:   # numpy 2 refuses the index 2^31; numpy 1 wraps
        _check_cap(len(table))   # it, and the caller's check refuses that
        raise
    return table, index


def _check_cap(issued: int) -> None:
    """Refuse a window after which more than ``_ID_CAP`` ids would exist."""
    if issued > _ID_CAP:
        raise ResourceLimitError(
            f"the run needs more than {_ID_CAP} distinct labels; "
            f"label ids stop at {_ID_CAP}") from None


def number_window(keys, first: int) -> np.ndarray:
    """The ids of a window's keys, in input order, as int32: its distinct
    keys take ``first``, ``first + 1``, ... in ascending byte order, and no
    table outlives the call.  Ids reaching ``_ID_CAP`` are refused."""
    table, index = _stream_window(keys)
    _check_cap(first + len(table))
    ids = np.empty(len(table), dtype=np.int32)
    ids[np.fromiter(map(table.__getitem__, sorted(table)), dtype=np.int64,
                    count=len(table))] = np.arange(first, first + len(table))
    del table   # the keys go before the result is allocated
    return ids[index]


class LabelInterner:
    """Global injective map from key bytes to dense label ids, from 0: the
    same key always returns the same id within a run."""

    def __init__(self):
        self._ids = {}

    def __len__(self) -> int:
        return len(self._ids)

    def intern_window(self, keys) -> np.ndarray:
        """Two-phase window: intern all fresh keys in ascending byte order,
        then return the ids of ``keys`` in input order, as int32.

        ``keys`` may be any iterable, such as a lazy stream of key blocks.
        Fresh keys join the table only once the stream has ended and the
        window has passed the cap (:func:`_check_cap`), so a refused or
        failing window leaves the interner as it was.  Calling this once
        per iteration with the collected keys makes id assignment
        independent of the order the keys were computed in.
        """
        ids = self._ids
        window, index = _stream_window(keys)
        fresh = sorted(key for key in window if key not in ids)
        _check_cap(len(ids) + len(fresh))
        ids.update(zip(fresh, range(len(ids), len(ids) + len(fresh))))
        return np.fromiter(map(ids.__getitem__, window), dtype=np.int32,
                           count=len(window))[index]


def _ragged_words(words: np.ndarray, starts: np.ndarray) -> list[bytes]:
    """The rows of a flat array of big-endian words, as bytes, where row i
    runs from ``starts[i]`` up to the next start."""
    buf = words.tobytes()
    bounds = (words.itemsize * np.asarray(starts)).tolist() + [len(buf)]
    return [buf[s:e] for s, e in zip(bounds[:-1], bounds[1:])]


def iso_key_batch(codes: np.ndarray) -> list[bytes]:
    """The iso keys of the rows of a 2-D int64 array of codes, in row
    order; ascending rows give ascending keys."""
    words = (codes.view(np.uint64) ^ np.uint64(_BIAS)).astype(">u8")
    return [_TAG_ISO + code for code in _ragged_words(
        words.ravel(), np.arange(len(codes)) * codes.shape[1])]


def _row_blocks(indptr: np.ndarray, offsets: np.ndarray):
    """Consecutive row ranges [a, b) of a CSR whose entries are offsets from
    their own row, each holding at most ``_KEY_BLOCK_ENTRIES`` entries (or
    one row).  Yields a, b, the row of each of the block's entries and its
    column, row plus offset, both int64."""
    n, a = len(indptr) - 1, 0
    while a < n:
        # a Python int would make searchsorted cast all of an int32 indptr
        end = min(int(indptr[a]) + _KEY_BLOCK_ENTRIES, int(indptr[-1]))
        b = max(a + 1, int(np.searchsorted(
            indptr, indptr.dtype.type(end), side="right")) - 1)
        rows = np.repeat(np.arange(a, b, dtype=np.int64),
                         np.diff(indptr[a:b + 1]))
        yield a, b, rows, rows + offsets[indptr[a]:indptr[b]]
        a = b


def refine_coloring_window(indptr: np.ndarray, offsets: np.ndarray,
                           labels: np.ndarray, window) -> np.ndarray:
    """One refinement step over every row of a CSR adjacency structure,
    under one window: the new label of each row, as int32.

    Rows and columns index one item list labeled by ``labels``, whose
    first items are the rows.  Entry e of row i is the item
    i + ``offsets[e]``, so offsets may be stored in any signed integer
    type that holds them.  Row i's key is the big-endian 32-bit words of
    its own label ``labels[i]`` and the ascending multiset of labels over
    its (out-)neighbors.  Labels must be ids below ``_ID_CAP``.  Keys are
    built in row blocks of at most ``_KEY_BLOCK_ENTRIES`` neighbor entries
    (or one row), decoded block by block (:func:`_row_blocks`), and
    streamed to ``window``, which returns their ids: a
    :meth:`LabelInterner.intern_window`, or :func:`number_window` with its
    first id bound.
    """
    n = len(indptr) - 1
    if len(labels) < n:
        raise ParameterError("label vector is shorter than the adjacency")
    if len(labels) and not 0 <= labels.min() <= labels.max() < _ID_CAP:
        raise ParameterError("labels must be ids in [0, 2^31)")
    span = int(labels.max()) + 1 if len(labels) else 1
    if n * span > np.iinfo(np.int64).max:
        raise ParameterError("labels too large for combined sort keys")

    def blocks():
        for a, b, rows, columns in _row_blocks(indptr, offsets):
            # sort each row's neighbor labels at once by row * span + label,
            # then lay out own and neighbor labels as one flat word array
            base = rows * span
            neigh = np.sort(base + labels[columns]) - base
            starts = np.arange(b - a, dtype=np.int64) + indptr[a:b] - indptr[a]
            words = np.empty(b - a + len(rows), dtype=">u4")
            words[starts] = labels[a:b]
            words[np.arange(len(rows)) + (rows + 1 - a)] = neigh
            yield from _ragged_words(words, starts)

    return window(blocks())
