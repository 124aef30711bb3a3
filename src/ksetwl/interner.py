"""Injective relabeling of structured refinement keys to compact integer ids.

One LabelInterner instance spans a sampled dataset run so that the label
counts of different graphs index the same label space.  Keys are made in
bulk (:func:`iso_key_batch`, :func:`refine_coloring_window`) and interned a
window at a time by :meth:`LabelInterner.intern_window`, which reads them
as a stream into the interner's own table.  Two key kinds exist, both
bytes whose lexicographic order matches the natural order of the
underlying tuples, which makes the two-phase deterministic interning
protocol a plain sort:

* an iso key is the tag byte 0x80 followed by the canonical code of a k-set
  isomorphism type (at k = 1, a vertex's node label or degree) as
  sign-biased big-endian 64-bit words, fixed width: node words, adjacency
  bits, then edge labels, edge label 0 where absent;
* a refinement key is the big-endian 32-bit words of (previous label,
  ascending neighbor labels), untagged.

An interner issues ids below 2^31 and refuses to go further, so a
refinement key's first byte is below 0x80 and an iso key's is 0x80: no key
of one kind equals a key of the other, and every refinement key sorts
before every iso key.

An interner keeps the keys of every window, since a sampled run meets them
again.  An exact run does not: a refinement key starts with a label the
window before issued, so :func:`ksetwl.pipeline.exact_kset_run` interns
each window into a table of its own, whose ids continue those before it.
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


class LabelInterner:
    """Global injective map from key bytes to dense label ids.

    Ids are issued in interning order from ``first``; the same key always
    returns the same id within a run.  A window that would issue an id of
    ``_ID_CAP`` or above raises :class:`ResourceLimitError`.
    """

    def __init__(self, first: int = 0):
        # a key takes the next id when first seen; its window renumbers
        # the keys it added in byte order when the stream ends
        self._first = first
        self._ids = defaultdict(itertools.count(first).__next__)

    def __len__(self) -> int:
        return len(self._ids)

    def intern_window(self, keys) -> np.ndarray:
        """Two-phase window: intern all fresh keys in ascending byte order,
        then return the ids of ``keys`` in input order, as int32.

        ``keys`` may be any iterable, such as a lazy stream of key blocks.
        Each fresh key enters the interner's table when first seen, under
        the next id, and the window's fresh keys are renumbered in
        ascending byte order once the stream ends, so the window holds no
        table of its own.  A window refused for its ids, or whose stream
        raises, leaves the interner as it was.  Calling this once per
        iteration with the collected keys makes id assignment independent
        of the order the keys were computed in.
        """
        ids = self._ids
        before = len(ids)
        issued = self._first + before
        try:
            # numpy 2 refuses the int32 id 2^31 as it fills; numpy 1 wraps it
            order = np.fromiter(map(ids.__getitem__, keys), dtype=np.int32)
            if self._first + len(ids) > _ID_CAP:
                raise OverflowError
        except BaseException as exc:
            for key in _last_keys(ids, len(ids) - before):
                del ids[key]
            ids.default_factory = itertools.count(issued).__next__
            if isinstance(exc, OverflowError):
                raise ResourceLimitError(
                    f"the run needs more than {_ID_CAP} distinct labels; "
                    f"label ids stop at {_ID_CAP}") from None
            raise
        fresh = sorted(_last_keys(ids, len(ids) - before))
        first_seen = np.fromiter(map(ids.__getitem__, fresh), dtype=np.int64,
                                 count=len(fresh))
        renumber = np.empty(len(fresh), dtype=np.int32)
        renumber[first_seen - issued] = np.arange(len(fresh)) + issued
        ids.update(zip(fresh, range(issued, issued + len(fresh))))
        later = order >= issued
        order[later] = renumber[order[later] - issued]
        return order


def _last_keys(table: dict, count: int) -> list:
    """The ``count`` keys last added to ``table``, read from its end: a
    shared interner holds the keys of every earlier window before them."""
    return list(itertools.islice(reversed(table), count))


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
                           labels: np.ndarray,
                           interner: LabelInterner) -> np.ndarray:
    """One refinement step over every row of a CSR adjacency structure,
    under one intern window: the new label of each row, as int32.

    Rows and columns index one item list labeled by ``labels``, whose
    first items are the rows.  Entry e of row i is the item
    i + ``offsets[e]``, so offsets may be stored in any signed integer
    type that holds them.  Row i's key is the big-endian 32-bit words of
    its own label ``labels[i]`` and the ascending multiset of labels over
    its (out-)neighbors.  Labels must be ids below ``_ID_CAP``.  Keys are
    built in row blocks of at most ``_KEY_BLOCK_ENTRIES`` neighbor entries
    (or one row), decoded block by block (:func:`_row_blocks`), and
    streamed to the interner.
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

    return interner.intern_window(blocks())
