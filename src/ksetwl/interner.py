"""Injective relabeling of structured refinement keys to compact integer ids.

One LabelInterner instance spans an entire dataset run so that the label
counts of different graphs index the same label space.  Keys are made in
bulk, a whole window of them at once (:func:`iso_key_batch`,
:func:`refinement_key_batch`), and interned by
:meth:`LabelInterner.intern_window`.  Two key kinds exist, both bytes whose
lexicographic order matches the natural order of the underlying tuples,
which makes the two-phase deterministic interning protocol a plain sort:

* an iso key is the tag byte 0x80 followed by the canonical code of a k-set
  isomorphism type (at k = 1, a vertex's node label or degree) as
  sign-biased big-endian 64-bit words;
* a refinement key is the big-endian 32-bit words of (previous label,
  ascending neighbor labels), untagged.

An interner issues ids below 2^31 and refuses to go further, so a
refinement key's first byte is below 0x80 and an iso key's is 0x80: no key
of one kind equals a key of the other, and every refinement key sorts
before every iso key.

An interner keeps the keys of every window.  One exact run never meets a
refinement key of an earlier iteration again, but a sampled run does (its
labels of one graph are keys the exact run of that graph also makes), and
so does an interner shared across single-graph runs
(:func:`ksetwl.kwl.kset_histograms`): their graphs' ids must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceLimitError

_TAG_ISO = b"\x80"

_BIAS = 1 << 63  # maps signed 64-bit values onto order-preserving unsigned

_ID_CAP = 1 << 31  # label ids stay below this: 32-bit words, top bit clear


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

        Calling this once per iteration with the collected keys makes id
        assignment independent of the order the keys were computed in.
        """
        if not isinstance(keys, list):
            keys = list(keys)
        ids = self._ids
        fresh = sorted(set(keys).difference(ids))
        if len(ids) + len(fresh) > _ID_CAP:
            raise ResourceLimitError(
                f"the run needs {len(ids) + len(fresh)} distinct labels; "
                f"label ids stop at {_ID_CAP}")
        ids.update(zip(fresh, range(len(ids), len(ids) + len(fresh))))
        return np.fromiter(map(ids.__getitem__, keys), dtype=np.int64,
                           count=len(keys))


@dataclass
class Coloring:
    """Labels for all colored items of one graph after some iteration.

    Items are vertices for vertex refinement and k-set ranks for k-set
    refinement; ``labels`` has one entry per item.
    """

    iteration: int
    labels: np.ndarray

    def histogram(self) -> dict[int, float]:
        values, counts = np.unique(self.labels, return_counts=True)
        return dict(zip(values.tolist(), counts.astype(np.float64).tolist()))


def _ragged_words(words: np.ndarray, starts: np.ndarray) -> list[bytes]:
    """The rows of a flat array of big-endian words, as bytes, where row i
    runs from ``starts[i]`` up to the next start."""
    buf = words.tobytes()
    bounds = (words.itemsize * np.asarray(starts)).tolist() + [len(buf)]
    return [buf[s:e] for s, e in zip(bounds[:-1], bounds[1:])]


def iso_key_batch(words: np.ndarray, starts: np.ndarray) -> list[bytes]:
    """The iso keys of many codes given as flat unsigned 64-bit words cut at
    ``starts``."""
    return [_TAG_ISO + code
            for code in _ragged_words(words.astype(">u8"), starts)]


def refinement_key_batch(indptr: np.ndarray, indices: np.ndarray,
                         labels: np.ndarray,
                         own: np.ndarray | None = None) -> list[bytes]:
    """Refinement keys for every row of a CSR adjacency structure.

    Row i's key is the big-endian 32-bit words of its own label and the
    ascending multiset of labels over its (out-)neighbors.  Own
    labels are ``labels`` itself, or ``labels[own]`` when rows and columns
    index different item lists.  Labels must be ids below ``_ID_CAP``.  Rows
    are sorted at once by the combined key
    ``row * span + label``; own labels and sorted neighbor labels are laid
    out as one flat word array and cut into keys in a single pass.
    """
    n = len(indptr) - 1
    own_labels = labels if own is None else labels[own]
    if len(own_labels) != n:
        raise ParameterError("label vector length does not match adjacency")
    if len(labels) and not 0 <= labels.min() <= labels.max() < _ID_CAP:
        raise ParameterError("labels must be ids in [0, 2^31)")
    span = int(labels.max()) + 1 if len(labels) else 1
    if n * span > np.iinfo(np.int64).max:
        raise ParameterError("labels too large for combined sort keys")
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    neigh = np.sort(rows * span + labels[indices]) - rows * span
    starts = np.arange(n, dtype=np.int64) + indptr[:-1]
    words = np.empty(n + len(indices), dtype=">u4")
    words[starts] = own_labels
    words[np.arange(len(indices)) + rows + 1] = neigh
    return _ragged_words(words, starts)


def refine_coloring_window(batches, interner: LabelInterner):
    """Advance several graphs one refinement step under one intern window.

    ``batches`` is a list of (indptr, indices, Coloring); returns the new
    Colorings in the same order.  All keys are computed, one graph at a
    time, before any id is issued.
    """
    keys = []
    for indptr, indices, col in batches:
        keys += refinement_key_batch(indptr, indices, col.labels)
    ids = interner.intern_window(keys)
    counts = [len(indptr) - 1 for indptr, _, _ in batches]
    return [Coloring(col.iteration + 1, labels) for (_, _, col), labels
            in zip(batches, split_rows(ids, counts))]


def split_rows(values: np.ndarray, counts) -> list[np.ndarray]:
    """Cut a flat array into consecutive pieces of the given lengths."""
    return np.split(values, np.cumsum(counts)[:-1]) if len(counts) else []
