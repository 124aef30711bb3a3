"""Refinement via sparse sums of 64-bit content words.

A word is a ``uint64`` label that depends only on what it labels.
Iteration 0 folds each canonical iso row into a word (:func:`_iso_words`).
An item's next word is H'(own) plus the sum of H over its
(out-)neighbors' words, with H(w) = splitmix64(w) and H'(w) =
splitmix64(w + 2^32), in ``uint64``, which wraps mod 2^64, so sums are
exact and do not depend on the order of a row (:func:`word_sums`).  The
same step applies to vertex adjacency (1-WL) and to the directed k-set
graph (local and global k-set refinement).  Exact and linalg runs number
each iteration's distinct words densely in ascending order (one argsort,
:func:`_dense_ranks`) to give its int32 labels; the sampler keeps the
words themselves.  An exact run then proves each class exact
(:func:`_split_collisions`): rows that share a label share their own label
and their sorted neighbor labels of the iteration before, or the class is
split by those keys.

H' keeps the own word out of the symmetric sum: a labeled edge x--y gives
its endpoints H'(x) + H(y) and H'(y) + H(x), where a bare sum gives both
H(x) + H(y).  Two items with different own words or neighbor multisets get
the same word only when the difference of their words cancels mod 2^64,
or when an own word stands in for a neighbor word 2^32 above it (H'(w) =
H(w + 2^32)); README states these heuristic rates.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError

_ID_CAP = 1 << 31  # label ids stay below this: int32 labels

# Bound on the neighbor entries of one row block of a word step.  One pass
# over a whole dataset's entries was measured slower than blocks.
_KEY_BLOCK_ENTRIES = 1 << 14

# Rows per chunk of the exactness check, whose arrays then stay small.
_CHECK_ROWS = 512


def _check_cap(issued: int) -> None:
    """Refuse an iteration with more than ``_ID_CAP`` distinct labels."""
    if issued > _ID_CAP:
        raise ResourceLimitError(
            f"the run needs more than {_ID_CAP} distinct labels; "
            f"label ids stop at {_ID_CAP}") from None


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


def _row_blocks(indptr: np.ndarray, offsets: np.ndarray):
    """Consecutive row blocks [a, b) of a CSR whose entries are offsets from
    their own row, each holding at most ``_KEY_BLOCK_ENTRIES`` entries (or
    one row).  Yields a, b, the block's entry pointer from 0 and each
    entry's column, row plus offset."""
    n, a = len(indptr) - 1, 0
    while a < n:
        # a Python int would make searchsorted cast all of an int32 pointer
        end = min(int(indptr[a]) + _KEY_BLOCK_ENTRIES, int(indptr[-1]))
        b = max(a + 1, int(np.searchsorted(
            indptr, indptr.dtype.type(end), side="right")) - 1)
        bounds = indptr[a:b + 1] - indptr[a]
        columns = np.repeat(np.arange(a, b), np.diff(bounds))
        columns += offsets[indptr[a]:indptr[b]]
        yield a, b, bounds, columns
        a = b


def word_sums(indptr: np.ndarray, offsets: np.ndarray,
              words: np.ndarray) -> np.ndarray:
    """H'(own) + the sum of H over the (out-)neighbors of each row of a
    CSR, mod 2^64, as ``uint64``: H(w) = splitmix64(w) and H'(w) =
    splitmix64(w + 2^32), over the ``uint64`` words of an item list whose
    first items are the rows.  Entry e of row i is the item i +
    ``offsets[e]``.  The call consumes ``words``: it takes the own sums,
    then mixes ``words`` into H in place, so no second array of all words
    is made.  Neighbor words are gathered and summed in row blocks of at
    most ``_KEY_BLOCK_ENTRIES`` entries.
    """
    values = words[:len(indptr) - 1] + (1 << 32)
    _mix(values)
    _mix(words)
    for a, b, bounds, columns in _row_blocks(indptr, offsets):
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


def _sorted_neighbors(indptr: np.ndarray, offsets: np.ndarray,
                      labels: np.ndarray, rows: np.ndarray,
                      span: int) -> np.ndarray:
    """The ``labels`` (ids below ``span``) of the neighbors of each of the
    intp ``rows`` of a CSR whose entries are offsets from their own row,
    ascending within a row, one row after the other, each plus its row's
    place in ``rows`` times ``span``: int32 while that fits, which sorts
    twice as fast as int64."""
    degrees = indptr[rows + 1] - indptr[rows]
    wide = len(rows) * span > 1 << 31
    keys = np.repeat(np.arange(0, len(rows) * span, span,
                               dtype=np.int64 if wide else np.int32), degrees)
    # each entry's index in the CSR: its row's first plus its rank in it
    entries = np.repeat(indptr[rows] - np.cumsum(degrees) + degrees, degrees)
    entries += np.arange(len(entries), dtype=entries.dtype)
    columns = np.repeat(rows, degrees)
    # np.take gathers several times faster than fancy indexing
    columns += np.take(offsets, entries)
    del entries
    keys += np.take(labels, columns)
    keys.sort()
    return keys


def _split_collisions(indptr: np.ndarray, offsets: np.ndarray,
                      labels: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The classes ``ranks`` of one refinement step over a CSR whose entries
    are offsets from their own row, made exact: two rows share a class only
    if they share their own label in ``labels`` (int32 ids, the iteration
    before) and their ascending multiset of neighbor labels.

    ``ranks`` are the dense ranks of words that are functions of those
    keys, so rows with equal keys share a rank, and only rows of one rank
    can differ.  The check scatters the rows into one row per class, then
    compares every other row with its class's row, ``_CHECK_ROWS`` rows at
    a time, so no temporary but that one row per class spans all rows.
    A class with two keys (a word collision) is split: its rows of the
    least key keep the rank and those of each further key, ascending, take
    the next id after every rank, class by class.  Returns ``ranks``,
    changed in place when a class splits.
    """
    n, span = len(ranks), int(labels.max(initial=-1)) + 1
    # each class's row: whichever of its rows the scatter leaves
    row_of = np.empty(int(ranks.max(initial=-1)) + 1, dtype=np.intp)
    for a in range(0, n, _CHECK_ROWS):
        row_of[ranks[a:a + _CHECK_ROWS]] = np.arange(
            a, min(a + _CHECK_ROWS, n))
    bad = []
    for a in range(0, n, _CHECK_ROWS):
        there = row_of[ranks[a:a + _CHECK_ROWS]]
        here = np.arange(a, a + len(there))
        pair = here != there
        here, there = here[pair], there[pair]
        differ = labels[here] != labels[there]
        differ |= (indptr[here + 1] - indptr[here]
                   != indptr[there + 1] - indptr[there])
        alike = np.flatnonzero(~differ)
        # rows of one degree put equal places at equal positions
        keys = _sorted_neighbors(indptr, offsets, labels, here[alike], span)
        differ[alike[keys[keys != _sorted_neighbors(
            indptr, offsets, labels, there[alike], span)] // span]] = True
        if differ.any():
            bad.append(ranks[here[differ]])
    return _split(indptr, offsets, labels, ranks, bad) if bad else ranks


def _split(indptr, offsets, labels, ranks, bad):
    """Split each class of the rank arrays ``bad`` by its rows' exact keys,
    as :func:`_split_collisions` says, in place."""
    keyed = {}
    for row in np.flatnonzero(np.isin(ranks, np.concatenate(bad))).tolist():
        neighbors = labels[row + offsets[indptr[row]:indptr[row + 1]].astype(
            np.intp)]
        key = (int(labels[row]), *sorted(neighbors.tolist()))
        keyed.setdefault(int(ranks[row]), {}).setdefault(key, []).append(row)
    fresh = int(ranks.max()) + 1
    splits = [rows for rank in sorted(keyed)
              for _, rows in sorted(keyed[rank].items())[1:]]
    _check_cap(fresh + len(splits))
    for label, rows in enumerate(splits, fresh):
        ranks[rows] = label
    return ranks
