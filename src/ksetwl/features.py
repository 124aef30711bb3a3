"""Feature vectors, inner products, gram matrices, and their normalizations.

A feature vector is a list of per-iteration sparse blocks mapping label id
to weight (integer counts for exact runs, probability masses for sampled
runs).  Kernel values are inner products over matching (block, label) pairs,
so all vectors entering one gram matrix must come from a single interner or
linear-algebra run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ParameterError

# Bound on the entries of each scratch array of the gram (a dense column
# chunk of the feature matrix, one row block of its product, one chunk of
# holder pairs): at most max(_GRAM_CHUNK, n), so K is the only array of
# size n^2.
_GRAM_CHUNK = 1 << 18
# A label held by at most n / _GRAM_LIGHT of the n graphs adds its holder
# pairs one by one; a label held by more is a dense column.
_GRAM_LIGHT = 6


@dataclass
class FeatureVector:
    """Per-iteration sparse label histograms phi^0 .. phi^h."""

    blocks: list

    @property
    def h(self) -> int:
        return len(self.blocks) - 1

    def total_mass(self) -> float:
        return float(sum(sum(b.values()) for b in self.blocks))

    def copy(self) -> "FeatureVector":
        return FeatureVector([dict(b) for b in self.blocks])


def l1_normalize(v: FeatureVector, scope: str = "per-block") -> FeatureVector:
    """Divide by L1 mass, per block or over the whole concatenation.

    Per-block is the form the sampling estimators target (each iteration's
    histogram becomes a probability vector).  Blocks with zero mass are left
    unchanged, which keeps graphs with fewer than k vertices representable
    as all-zero vectors.
    """
    if scope not in ("per-block", "whole-vector"):
        raise ParameterError(f"unknown normalization scope: {scope!r}")
    if scope == "per-block":
        out = []
        for b in v.blocks:
            mass = sum(b.values())
            out.append({k: w / mass for k, w in b.items()} if mass > 0 else dict(b))
        return FeatureVector(out)
    mass = v.total_mass()
    if mass <= 0:
        return v.copy()
    return FeatureVector([{k: w / mass for k, w in b.items()} for b in v.blocks])


def dot(u: FeatureVector, v: FeatureVector) -> float:
    """Inner product over matching (block, label) pairs."""
    if u.h != v.h:
        raise ParameterError(
            f"feature vectors span different iteration counts: {u.h} vs {v.h}")
    total = 0.0
    for bu, bv in zip(u.blocks, v.blocks):
        if len(bv) < len(bu):
            bu, bv = bv, bu
        for label, w in bu.items():
            other = bv.get(label)
            if other is not None:
                total += w * other
    return total


def gram_matrix(features) -> np.ndarray:
    """Symmetric matrix of all pairwise inner products, K = X X^T.

    Per block, entries are sorted by (label, graph).  A label held by few
    graphs adds w_i w_j to K[i, j] for each pair of its holders i <= j, in
    chunks of pairs (:func:`_add_pairs`).  Labels held by many graphs are
    the columns of X, filled densely in bounded chunks; each chunk adds its
    products to the upper triangle of K in bounded row blocks.  K is then
    mirrored in place.  No step calls BLAS or depends on a thread count:
    integer features give exactly the sums of :func:`dot`, float features
    may differ from them in the last bits.  Row order follows the input
    order.
    """
    n = len(features)
    K = np.zeros((n, n), dtype=np.float64)
    if any(f.h != features[0].h for f in features):
        raise ParameterError("feature vectors span different iteration counts")
    step = max(1, _GRAM_CHUNK // max(n, 1))   # chunk columns and block rows
    for b in range(features[0].h + 1 if n else 0):
        blocks = [f.blocks[b] for f in features]
        rows = np.repeat(np.arange(n), [len(block) for block in blocks])
        labels = np.fromiter(chain.from_iterable(blocks), np.int64,
                             count=len(rows))
        weights = np.fromiter(chain.from_iterable(
            block.values() for block in blocks), np.float64, count=len(rows))
        order = np.argsort(labels, kind="stable")
        rows, labels, weights = rows[order], labels[order], weights[order]
        new = np.ones(len(labels), dtype=bool)
        new[1:] = labels[1:] != labels[:-1]
        starts = np.flatnonzero(new)
        holders = np.diff(starts, append=len(labels))
        light = np.repeat(holders * _GRAM_LIGHT <= n, holders)
        # an entry pairs with itself and its label's later holders
        later = np.repeat(starts + holders, holders) - np.arange(len(labels))
        _add_pairs(K.reshape(-1), n, rows[light], weights[light],
                   later[light])
        column = np.cumsum(new[~light]) - 1
        rows, weights = rows[~light], weights[~light]
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

    Pairs are numbered entry by entry and added in that order, at most
    ``_GRAM_CHUNK`` at a time.
    """
    first = np.cumsum(later) - later           # each entry's first pair
    total = int(first[-1] + later[-1]) if len(later) else 0
    shift = first - np.arange(len(later))      # pair - shift = partner
    for lo in range(0, total, _GRAM_CHUNK):
        hi = min(lo + _GRAM_CHUNK, total)
        a = int(np.searchsorted(first, lo, side="right")) - 1
        z = int(np.searchsorted(first, hi))
        entry = np.repeat(np.arange(a, z), np.minimum(
            first[a:z] + later[a:z], hi) - np.maximum(first[a:z], lo))
        partner = np.arange(lo, hi) - shift[entry]
        index = rows[entry] * n
        index += rows[partner]
        values = weights[entry]
        values *= weights[partner]
        np.add.at(flat, index, values)


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


def psd_check(K: np.ndarray, jitter: float = 0.0) -> bool:
    """Whether K + jitter*I admits a Cholesky factorization."""
    if jitter < 0:
        raise ParameterError("jitter must be nonnegative")
    shifted = np.asarray(K, dtype=np.float64) + jitter * np.eye(len(K))
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True
