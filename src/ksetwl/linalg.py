"""Refinement via sparse matrix-vector products over prime logarithms.

Each distinct label is mapped to a prime; an item's next value is the log of
its own prime plus the summed logs over its (out-)neighbors.  Regrouping the
real values recovers the refined partition.  The same step applies to vertex
adjacency (1-WL) and to the directed k-set graph (local k-set refinement).

Because own and neighbor contributions commute inside the sum, regrouping on
the value alone can merge classes that multiset refinement keeps apart (a
labeled edge x--y gives both endpoints the value log x + log y).  Values
are therefore regrouped on (own label, value), which restores exact
equivalence.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

DEFAULT_TOLERANCE = 1e-9

_prime_cache = np.array([2, 3, 5, 7, 11, 13], dtype=np.int64)


def prime_table(n: int) -> np.ndarray:
    """The first n primes, ascending; the backing table only ever grows."""
    global _prime_cache
    if n < 1:
        raise ParameterError("need at least one prime")
    # n-th prime is below n (ln n + ln ln n) for n >= 6; double the sieve
    # bound until it yields enough.
    bound = max(32, int(n * (np.log(n) + np.log(max(np.log(n), 2))) * 1.2))
    while len(_prime_cache) < n:
        sieve = np.ones(bound + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, int(bound ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        found = np.flatnonzero(sieve).astype(np.int64)
        if len(found) >= n:
            _prime_cache = found
        bound *= 2
    return _prime_cache[:n]


def _row_sums(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row sums of an already-gathered value array (CSR layout).

    Sums stay local to each row (reduceat over nonempty segments), keeping
    rounding error at row scale: a prefix-sum/difference formulation would
    accumulate error with the total entry count and could split value groups
    that the tolerance must keep together.  Deterministic for fixed input.
    """
    out = np.zeros(len(indptr) - 1, dtype=np.float64)
    if len(values) == 0:
        return out
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    if len(nonempty):
        out[nonempty] = np.add.reduceat(values, indptr[nonempty])
    return out


def la_step(indptr: np.ndarray, indices: np.ndarray, labels: np.ndarray,
            primes: np.ndarray, tolerance: float = DEFAULT_TOLERANCE):
    """One refinement step: value_i = log p(c_i) + sum of neighbor log p(c_j).

    ``labels`` must be dense ids indexing ``primes``.  Returns the raw value
    vector and the dense labels regrouped on (own label, value), ascending.
    """
    if len(labels) != len(indptr) - 1:
        raise ParameterError("label vector length does not match adjacency")
    logp = np.log(primes.astype(np.float64))[labels]
    values = logp + _row_sums(indptr, logp[indices])
    return values, discretize(values, labels, tolerance)


def discretize(values: np.ndarray, own_labels: np.ndarray,
               tolerance: float = DEFAULT_TOLERANCE) -> np.ndarray:
    """Group near-equal values into dense ids, ascending by sort order.

    The sort key is (own label, value); consecutive sorted values within
    ``tolerance`` of each other share a group, and a group never crosses
    an own-label boundary.
    """
    if tolerance <= 0:
        raise ParameterError("tolerance must be positive")
    n = len(values)
    out = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out
    order = np.lexsort((values, own_labels))
    breaks = ((np.diff(values[order]) > tolerance)
              | (np.diff(own_labels[order]) != 0))
    group_ids = np.concatenate([[0], np.cumsum(breaks)])
    out[order] = group_ids
    return out
