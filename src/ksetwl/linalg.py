"""Refinement via sparse sums of 64-bit label words.

Each label id i is mapped to a fixed word H(i) = splitmix64(i), and to a
second word H'(i) = splitmix64(i + 2^32) for an item's own label.  An
item's next value is H'(own) plus the sum of H over its (out-)neighbors in
``uint64``, which wraps mod 2^64, so sums are exact and do not depend on
the order of a row.  Ranking the distinct values (one argsort) recovers
the refined partition.  The same step applies to vertex
adjacency (1-WL) and to the directed k-set graph (local and global k-set
refinement).

Ids are below 2^31, so no id's own word is a neighbor word (splitmix64 is
a bijection), and the own label needs no separate sort key: a labeled
edge x--y gives its endpoints H'(x) + H(y) and H'(y) + H(x).  Two items
with different own labels or neighbor multisets get the same value only
when the difference of their words cancels mod 2^64; README states that
heuristic rate.  The sampler takes the same sum (:func:`word_sums`) over
64-bit content words in place of ids and keeps the sums themselves as
labels, so there an own word is not kept apart from neighbor words.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .interner import _check_cap, _check_ids, _row_blocks


def splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 of each entry of the nonnegative integer array ``x``:
    its first output from state x, in wrapping ``uint64`` arithmetic."""
    return _mix(np.array(x, dtype=np.uint64))


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 of each state in the ``uint64`` array ``z``, in place."""
    z += 0x9E3779B97F4A7C15
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _row_sums(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row sums of an already-gathered ``uint64`` array (CSR layout),
    mod 2^64; an empty row sums to 0."""
    out = np.zeros(len(indptr) - 1, dtype=np.uint64)
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    if len(nonempty):
        out[nonempty] = np.add.reduceat(values, indptr[nonempty])
    return out


def la_step(indptr: np.ndarray, offsets: np.ndarray, labels: np.ndarray):
    """One refinement step: value_i = H'(c_i) + sum of neighbor H(c_j)
    (:func:`word_sums`), over ids below 2^31.  Returns the dense int32
    labels of the distinct values, ascending, as a refinement window
    returns its labels.
    """
    if len(labels) != len(indptr) - 1:
        raise ParameterError("label vector length does not match adjacency")
    _check_ids(labels)
    return _dense_ranks(word_sums(indptr, offsets, labels))


def word_sums(indptr: np.ndarray, offsets: np.ndarray,
              labels: np.ndarray) -> np.ndarray:
    """H'(own) + the sum of H over the (out-)neighbors of each row of a
    CSR, mod 2^64, as ``uint64``: H(x) = splitmix64(x) and H'(x) =
    splitmix64(x + 2^32), over the nonnegative integer labels of an item
    list whose first items are the rows, read as ``uint64``.  Entry e of
    row i is the item i + ``offsets[e]``.  Neighbor words are gathered and
    summed in row blocks of at most ``_KEY_BLOCK_ENTRIES`` entries, as a
    refinement window builds its keys.
    """
    words = splitmix64(labels)
    values = np.array(labels[:len(indptr) - 1], dtype=np.uint64)
    values += 1 << 32
    _mix(values)
    for a, b, bounds, _, columns in _row_blocks(indptr, offsets):
        values[a:b] += _row_sums(bounds, words[columns])
    del words
    return values


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """The rank of each value among the distinct ``values``, ascending, as
    int32: ``np.unique``'s inverse, without its copies of the input."""
    order = np.argsort(values)
    new = np.ones(len(values), dtype=bool)
    ordered = values[order]
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    del ordered
    ranks = np.cumsum(new, dtype=np.int32)
    del new
    _check_cap(int(ranks[-1]) if len(ranks) else 0)
    ranks -= 1
    dense = np.empty(len(values), dtype=np.int32)
    dense[order] = ranks
    return dense
