"""Feature blocks of a dataset, their gram matrix, and normalizations.

The features of n graphs are one :class:`Features`: for each refinement
iteration 0..h, a block of three parallel arrays (graph, label, weight)
sorted by (label, graph) as the gram reads them, one entry per label a graph
holds (integer counts for exact runs, probability masses for sampled runs).
Kernel values are inner products over matching (block, label) pairs, so all
graphs of one gram matrix must come from a single exact, linear-algebra or
sampled run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Bound on the entries of each dense scratch array of the gram (a column
# chunk of the feature matrix, one row block of its product): at most
# max(_GRAM_CHUNK, n), so K is the only array of size n^2.  It sets the
# order in which float products are added, so changing it can change the
# last bits of a gram of masses.
_GRAM_CHUNK = 1 << 18
# About the holder pairs per chunk of :func:`_add_pairs`, whose arrays then
# take about 32 KB, below glibc's default 128 KB mmap threshold.
_PAIR_CHUNK = 1 << 12
# About the entries of a block the gram reads at once, in whole labels.
_ENTRY_CHUNK = 1 << 14
# A label held by at most n / _GRAM_LIGHT of the n graphs adds its holder
# pairs one by one; a label held by more is a dense column.
_GRAM_LIGHT = 6


@dataclass
class Features:
    """Per-iteration label weights phi^0 .. phi^h of ``n`` graphs.

    ``blocks[i]`` is the (graph, label, weight) triple of iteration i:
    int32 graph positions and label ids (ids stay below 2^31) and float64
    weights, strictly ascending in (label, graph), so each graph's labels
    ascend as well.  Every builder, exact, linalg or sampled, stores these
    types; the gram forms its flat indices in int64.
    """

    n: int
    blocks: list


def stable_order(ids: np.ndarray) -> np.ndarray:
    """The stable ascending order of an array of ids in [0, 2^31), as
    int32 positions: one in-place sort of the words id * 2^32 + position,
    which are distinct, so no sort needs to be stable.  numpy sorts values
    several times faster than it argsorts them, and the words are the one
    int64 array as long as ``ids``."""
    if len(ids) > np.iinfo(np.int32).max:
        return np.argsort(ids, kind="stable")
    words = np.left_shift(ids, 32, dtype=np.int64)
    words |= np.arange(len(ids), dtype=np.int32)
    words.sort()
    words &= 0xFFFFFFFF
    return words.astype(np.int32)


def l1_normalize(features: Features, scope: str = "per-block") -> Features:
    """Divide each graph's weights by its L1 mass, per block or over the
    whole concatenation.

    Per-block is the form the sampling estimators target (each iteration's
    histogram becomes a probability vector).  A graph's mass adds its
    weights in ascending label order, block by block.  Weights of zero mass
    are left unchanged, which keeps graphs with fewer than k vertices
    representable as all-zero vectors.
    """
    if scope not in ("per-block", "whole-vector"):
        raise ParameterError(f"unknown normalization scope: {scope!r}")
    # bincount adds each bin's weights in input order, as sum() would
    masses = [np.bincount(graph, weight, minlength=features.n)
              for graph, _, weight in features.blocks]
    if scope == "whole-vector":     # block masses, added in block order
        masses = [sum(masses, np.zeros(features.n))] * len(masses)
    blocks = []
    for (graph, label, weight), mass in zip(features.blocks, masses):
        scale = mass[graph]
        blocks.append((graph, label, np.divide(
            weight, scale, out=weight.copy(), where=scale > 0)))
    return Features(features.n, blocks)


def gram_matrix(features: Features) -> np.ndarray:
    """Symmetric matrix of all pairwise inner products, K = X X^T.

    Each block must be strictly ascending in (label, graph), as
    :class:`Features` stores it; any other block is refused.  A label held
    by few graphs adds w_i w_j to K[i, j] for each pair of its holders
    i <= j, in chunks of pairs (:func:`_add_pairs`).  Labels held by many
    graphs are the columns of X, filled densely in bounded chunks; each
    chunk adds its products to the upper triangle of K in bounded row
    blocks.  K is then mirrored in place.  No step calls BLAS or depends on
    a thread count: integer features give exact sums, float features may
    differ from a plain pairwise sum in the last bits.  Rows follow the
    graph positions.

    A block is read in chunks of whole labels of about ``_ENTRY_CHUNK``
    entries, each checked as it is read, so past K the scratch is one
    chunk's arrays and the first entry and holder count of each label held
    by many graphs.
    """
    n = features.n
    K = np.zeros((n, n), dtype=np.float64)
    step = max(1, _GRAM_CHUNK // max(n, 1))   # chunk columns and block rows
    for graph, label, weight in features.blocks:
        # the first entry and the holder count of each dense column
        first, holders = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        a = 0
        while a < len(label):
            # whole labels from a: back to the start of the label the cut
            # falls in, or on to the end of a's label if that is a's
            z = min(a + _ENTRY_CHUNK, len(label))
            if z < len(label):
                z = int(np.searchsorted(label, label[z]))
                if z <= a:
                    z = max(a + 1, int(np.searchsorted(label, label[a],
                                                       side="right")))
            lo = max(a - 1, 0)   # and the pair across the cut
            same = label[lo + 1:z] == label[lo:z - 1]
            if (np.any(label[lo + 1:z] < label[lo:z - 1])
                    or np.any(same & (graph[lo + 1:z] <= graph[lo:z - 1]))):
                raise ParameterError("feature blocks must be strictly "
                                     "ascending in (label, graph)")
            new = np.ones(z - a, dtype=bool)
            new[1:] = ~same[a - lo:]
            del same
            starts = np.flatnonzero(new)
            count = np.diff(starts, append=z - a)
            dense = count * _GRAM_LIGHT > n
            first.append(starts[dense] + a)
            holders.append(count[dense])
            light = np.repeat(~dense, count)
            # an entry pairs with itself and its label's later holders
            later = np.repeat(starts + count, count) - np.arange(z - a)
            _add_pairs(K.reshape(-1), n, graph[a:z][light],
                       weight[a:z][light], later[light])
            a = z
        first, holders = np.concatenate(first), np.concatenate(holders)
        _add_columns(K, graph, weight, first, holders, step)
    for r in range(0, n, step):                # exactly symmetric
        diagonal = K[r:r + step, r:r + step]
        lower = np.tril_indices(len(diagonal), -1)
        diagonal[lower] = diagonal.T[lower]
        K[r + step:, r:r + step] = K[r:r + step, r + step:].T
    return K


def _add_pairs(flat: np.ndarray, n: int, rows: np.ndarray,
               weights: np.ndarray, later: np.ndarray) -> None:
    """Add weights[e] * weights[p] to entry (rows[e], rows[p]) of the n x n
    matrix whose flat view is ``flat``, for every entry e and every p in
    e, e + 1, ..., e + later[e] - 1.

    Pairs are added entry by entry, in chunks of whole entries: from the
    entry holding pair c * ``_PAIR_CHUNK`` to before the one holding pair
    (c + 1) * ``_PAIR_CHUNK``, each expanded into fresh arrays.
    """
    first = np.cumsum(later) - later           # each entry's first pair
    cuts = np.searchsorted(first, np.arange(0, later.sum(), _PAIR_CHUNK),
                           side="right") - 1
    for a, z in zip(cuts, [*cuts[1:], len(later)]):
        e = np.repeat(np.arange(a, z), later[a:z])
        # the partner of pair j is e + (j - first[e])
        p = e + np.arange(first[a], first[a] + len(e))
        p -= np.repeat(first[a:z], later[a:z])
        # the flat index in int64: rows may be int32, and n^2 may not be
        np.add.at(flat, rows[e].astype(np.int64) * n + rows[p],
                  weights[e] * weights[p])


def _add_columns(K: np.ndarray, graph: np.ndarray, weight: np.ndarray,
                 first: np.ndarray, holders: np.ndarray, step: int) -> None:
    """Add X X^T to the upper triangle of K, where column c of X holds the
    weights of entries first[c] .. first[c] + holders[c] - 1 at their
    graphs' rows: ``step`` columns at a time, each chunk in row blocks of
    ``step`` rows."""
    n = len(K)
    buf = np.empty(n * min(step, len(first)), dtype=np.float64)
    for lo in range(0, len(first), step):
        count = holders[lo:lo + step]
        X = buf[:n * len(count)].reshape(n, -1)
        X.fill(0.0)
        column = np.repeat(np.arange(len(count)), count)
        entry = np.repeat(first[lo:lo + step] - (np.cumsum(count) - count),
                          count) + np.arange(len(column))
        X[graph[entry], column] = weight[entry]
        for r in range(0, n, step):
            K[r:r + step, r:] += np.einsum(
                "ik,jk->ij", X[r:r + step], X[r:], optimize=False)


def cosine_normalize_gram(K: np.ndarray) -> np.ndarray:
    """Normalize to K_ij / sqrt(K_ii * K_jj).

    Rows and columns whose diagonal entry is zero (graphs that produced the
    all-zero feature vector) become entirely zero rather than dividing by
    zero.  The diagonal of nonzero rows is set to exactly 1, and values are
    clamped to [0, 1] against last-ulp rounding; for inner products of
    nonnegative features the true values always lie in that interval.
    """
    d = np.diag(K).copy()
    nz = d > 0
    scale = np.zeros_like(d)
    scale[nz] = 1.0 / np.sqrt(d[nz])
    out = K * np.outer(scale, scale)
    out[~nz, :] = 0.0
    out[:, ~nz] = 0.0
    np.clip(out, 0.0, 1.0, out=out)
    idx = np.flatnonzero(nz)
    out[idx, idx] = 1.0
    return out

