"""Injective relabeling of structured refinement keys to compact integer ids.

One LabelInterner instance spans an entire dataset run so that the label
counts of different graphs index the same label space.  Keys are made in
bulk (:func:`iso_key_batch`, :func:`refine_coloring_window`) and interned a
window at a time by :meth:`LabelInterner.intern_window`, which reads them
as a stream and holds only the window's distinct keys.  Two key kinds
exist, both bytes whose lexicographic order matches the natural order of
the underlying tuples, which makes the two-phase deterministic interning
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

An interner keeps the keys of every window.  One exact run never meets a
refinement key of an earlier iteration again, but a sampled run does (its
labels of one graph are keys the exact run of that graph also makes), and
so does an interner shared across several runs of
:func:`ksetwl.pipeline.exact_kset_run`: their graphs' ids must agree.
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

    Ids are issued in interning order; the same key always returns the same
    id within a run.  Issuing an id of ``_ID_CAP`` or above raises
    :class:`ResourceLimitError`.
    """

    def __init__(self):
        self._ids: dict[bytes, int] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def intern_window(self, keys) -> np.ndarray:
        """Two-phase window: intern all fresh keys in ascending byte order,
        then return the ids of ``keys`` in input order.

        ``keys`` may be any iterable, such as a lazy stream of key blocks;
        the window holds only its distinct keys.  Calling this once per
        iteration with the collected keys makes id assignment independent
        of the order the keys were computed in.
        """
        # a key new to the window gets the number of distinct keys before it
        local = defaultdict(itertools.count().__next__)
        order = np.fromiter(map(local.__getitem__, keys), dtype=np.int64)
        ids = self._ids
        fresh = sorted([key for key in local if key not in ids])
        if len(ids) + len(fresh) > _ID_CAP:
            raise ResourceLimitError(
                f"the run needs {len(ids) + len(fresh)} distinct labels; "
                f"label ids stop at {_ID_CAP}")
        ids.update(zip(fresh, range(len(ids), len(ids) + len(fresh))))
        return np.fromiter(map(ids.__getitem__, local), dtype=np.int64,
                           count=len(local))[order]


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


def refine_coloring_window(indptr: np.ndarray, indices: np.ndarray,
                           labels: np.ndarray,
                           interner: LabelInterner) -> np.ndarray:
    """One refinement step over every row of a CSR adjacency structure,
    under one intern window: the new label of each row.

    Rows and columns index one item list labeled by ``labels``, whose
    first items are the rows.  Row i's key is the big-endian 32-bit words
    of its own label ``labels[i]`` and the ascending multiset of labels
    over its (out-)neighbors.  Labels must be ids below ``_ID_CAP``.  Keys
    are built in row blocks of at most ``_KEY_BLOCK_ENTRIES`` neighbor
    entries (or one row) and streamed to the interner.
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
        a = 0
        while a < n:
            b = max(a + 1, int(np.searchsorted(
                indptr, indptr[a] + _KEY_BLOCK_ENTRIES, side="right")) - 1)
            lo, hi = int(indptr[a]), int(indptr[b])
            # sort each row's neighbor labels at once by row * span + label,
            # then lay out own and neighbor labels as one flat word array
            rows = np.repeat(np.arange(b - a, dtype=np.int64),
                             np.diff(indptr[a:b + 1]))
            neigh = np.sort(rows * span + labels[indices[lo:hi]]) - rows * span
            starts = np.arange(b - a, dtype=np.int64) + (indptr[a:b] - lo)
            words = np.empty(b - a + hi - lo, dtype=">u4")
            words[starts] = labels[a:b]
            words[np.arange(hi - lo) + rows + 1] = neigh
            yield from _ragged_words(words, starts)
            a = b

    return interner.intern_window(blocks())
