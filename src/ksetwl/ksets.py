"""Dense indexing of all k-element vertex subsets of a graph.

Sets are ascending k-tuples of distinct vertex ids, ranked in colexicographic
order by the combinatorial number system: rank(t) = sum_i C(t_i, i+1).  That
gives every subset a stable dense id in [0, C(n, k)) without materializing
anything per set.
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np

from .errors import ParameterError, ResourceLimitError

_INT64_MAX = int(np.iinfo(np.int64).max)

# Upper bound on the rows of one block's per-set working arrays (sets times
# orderings for iso types, candidate swaps for neighborhoods).  A stacked
# dataset fills every block, so this bounds the front end's scratch memory:
# 1 << 18 raised the peak RSS of k = 3 on MUTAG by about 15 MB.
_BLOCK_ITEMS = 1 << 16
# The fewest sets one block of iso-type orderings must hold (check_order).
_MIN_BLOCK_SETS = 8


def _choose_table(n: int, k: int) -> np.ndarray:
    """chooses[v, j] = C(v, j) for 0 <= v <= n, 0 <= j <= k, saturated at
    the int64 maximum; the terms of a valid rank never exceed size - 1."""
    # exact Python integers by the hockey-stick identity
    # C(v, j) = C(0, j - 1) + ... + C(v - 1, j - 1), then saturated
    table = np.zeros((n + 1, k + 1), dtype=object)
    table[:, 0] = 1
    for j in range(1, k + 1):
        table[1:, j] = np.cumsum(table[:-1, j - 1])
    return np.minimum(table, _INT64_MAX).astype(np.int64)


class KSetIndex:
    """The k-subsets of n vertices as ascending tuples, numbered by colex
    rank in [0, C(n, k))."""

    def __init__(self, n: int, k: int):
        if k < 1:
            raise ParameterError(f"k must be at least 1, got {k}")
        self.n = int(n)
        self.k = int(k)
        self.size = comb(self.n, self.k)
        if self.size > _INT64_MAX:
            raise ResourceLimitError(
                f"C({self.n}, {self.k}) k-sets do not fit 64-bit ranks")
        self._chooses = _choose_table(self.n, self.k)

    def unrank_rows(self, ranks) -> np.ndarray:
        """The ascending k-sets of the in-range ``ranks``, one row each."""
        r = np.array(ranks, dtype=np.int64)
        out = np.empty((len(r), self.k), dtype=np.int64)
        for i in range(self.k, 0, -1):
            # largest v with C(v, i) <= r
            v = np.searchsorted(self._chooses[:, i], r, side="right") - 1
            out[:, i - 1] = v
            r -= self._chooses[v, i]
        return out

    def all_sets(self) -> np.ndarray:
        """All k-sets as an (size, k) matrix, row r holding the set of rank r."""
        return self.unrank_rows(np.arange(self.size, dtype=np.int64))


def check_order(k: int) -> None:
    """Refuse a k outside 1..7 before any set is counted, enumerated or
    drawn.

    Iso types take a minimum over the k! member orderings of each set, a
    block of ``_BLOCK_ITEMS`` rows at a time.  k = 7 is the largest k with
    k! * 8 <= ``_BLOCK_ITEMS``, so that a block holds at least 8 sets; at
    k = 8 a block holds one set, and iso types of the 3,003 8-sets of one
    14-vertex MUTAG graph took 114 s, one Python iteration per set."""
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    largest = max(j for j in range(1, 21)
                  if factorial(j) * _MIN_BLOCK_SETS <= _BLOCK_ITEMS)
    if k > largest:
        raise ResourceLimitError(
            f"k = {k} needs {k}! orderings per set, too many for "
            f"{_MIN_BLOCK_SETS} sets in a block of {_BLOCK_ITEMS} rows; "
            f"the largest supported k is {largest}")
