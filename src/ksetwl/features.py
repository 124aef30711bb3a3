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
# A label held by at most n / _GRAM_LIGHT of the n graphs adds its holder
# pairs one by one; a label held by more is a dense column.
_GRAM_LIGHT = 6


@dataclass
class Features:
    """Per-iteration label weights phi^0 .. phi^h of ``n`` graphs.

    ``blocks[i]`` is the (graph, label, weight) triple of iteration i:
    int64 graph positions and label ids and float64 weights, strictly
    ascending in (label, graph), so each graph's labels ascend as well.
    """

    n: int
    blocks: list


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
    """
    n = features.n
    K = np.zeros((n, n), dtype=np.float64)
    step = max(1, _GRAM_CHUNK // max(n, 1))   # chunk columns and block rows
    for graph, label, weight in features.blocks:
        rise = np.diff(label)
        if np.any(rise < 0) or np.any((rise == 0) & (np.diff(graph) <= 0)):
            raise ParameterError(
                "feature blocks must be strictly ascending in (label, graph)")
        new = np.ones(len(label), dtype=bool)
        new[1:] = rise != 0
        del rise
        starts = np.flatnonzero(new)
        holders = np.diff(starts, append=len(label))
        light = np.repeat(holders * _GRAM_LIGHT <= n, holders)
        # an entry pairs with itself and its label's later holders
        later = np.repeat(starts + holders, holders) - np.arange(len(label))
        _add_pairs(K.reshape(-1), n, graph[light], weight[light], later[light])
        rows, weights = graph[~light], weight[~light]
        column = np.cumsum(new[~light]) - 1
        columns = int(column[-1]) + 1 if len(column) else 0
        cuts = np.searchsorted(column, np.arange(0, columns + step, step))
        buf = np.empty(n * min(step, columns), dtype=np.float64)
        for lo, a, z in zip(range(0, columns, step), cuts[:-1], cuts[1:]):
            X = buf[:n * min(step, columns - lo)].reshape(n, -1)
            X.fill(0.0)
            X[rows[a:z], column[a:z] - lo] = weights[a:z]
            for r in range(0, n, step):
                K[r:r + step, r:] += np.einsum(
                    "ik,jk->ij", X[r:r + step], X[r:], optimize=False)
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
        np.add.at(flat, rows[e] * n + rows[p], weights[e] * weights[p])


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

