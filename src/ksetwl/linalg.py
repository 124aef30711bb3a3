"""Refinement via sparse sums of 64-bit content words.

A word is a ``uint64`` label that depends only on what it labels.
Iteration 0 folds each canonical iso row into a word (:func:`_iso_words`).
An item's next word is H'(own) plus the sum of H over its
(out-)neighbors' words, with H(w) = splitmix64(w) and H'(w) =
splitmix64(w + 2^32), in ``uint64``, which wraps mod 2^64, so sums are
exact and do not depend on the order of a row (:func:`word_sums`).  The
same step applies to vertex adjacency (1-WL) and to the directed k-set
graph (local and global k-set refinement).  Linalg runs number each
iteration's distinct words densely in ascending order (one argsort,
:func:`_dense_ranks`) to give its int32 labels; the sampler keeps the
words themselves.

H' keeps the own word out of the symmetric sum: a labeled edge x--y gives
its endpoints H'(x) + H(y) and H'(y) + H(x), where a bare sum gives both
H(x) + H(y).  Two items with different own words or neighbor multisets get
the same word only when the difference of their words cancels mod 2^64,
or when an own word stands in for a neighbor word 2^32 above it (H'(w) =
H(w + 2^32)); README states these heuristic rates.
"""

from __future__ import annotations

import numpy as np

from .interner import _check_cap, _row_blocks


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


def _iso_words(codes: np.ndarray) -> np.ndarray:
    """The ``uint64`` word of each canonical row of ``codes``
    (:func:`ksetwl.kwl.iso_keys`): splitmix64 folded over its columns,
    w = splitmix64(w + column) from w = 0."""
    words = np.zeros(len(codes), dtype=np.uint64)
    for column in codes.view(np.uint64).T:
        words += column
        _mix(words)
    return words


def _row_sums(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row sums of an already-gathered ``uint64`` array (CSR layout),
    mod 2^64; an empty row sums to 0."""
    out = np.zeros(len(indptr) - 1, dtype=np.uint64)
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    if len(nonempty):
        out[nonempty] = np.add.reduceat(values, indptr[nonempty])
    return out


def word_sums(indptr: np.ndarray, offsets: np.ndarray,
              words: np.ndarray) -> np.ndarray:
    """H'(own) + the sum of H over the (out-)neighbors of each row of a
    CSR, mod 2^64, as ``uint64``: H(w) = splitmix64(w) and H'(w) =
    splitmix64(w + 2^32), over the ``uint64`` words of an item list whose
    first items are the rows.  Entry e of row i is the item i +
    ``offsets[e]``.  The call consumes ``words``: it takes the own sums,
    then mixes ``words`` into H in place, so no second array of all words
    is made.  Neighbor words are gathered and summed in row blocks of at
    most ``_KEY_BLOCK_ENTRIES`` entries, as a refinement window builds its
    keys.
    """
    values = words[:len(indptr) - 1] + (1 << 32)
    _mix(values)
    _mix(words)
    for a, b, bounds, _, columns in _row_blocks(indptr, offsets):
        values[a:b] += _row_sums(bounds, words[columns])
    return values


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """The rank of each value among the distinct ``values``, ascending, as
    int32: ``np.unique``'s inverse, without its copies of the input.  More
    than ``_ID_CAP`` distinct values are refused."""
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
