"""Dataset-level runs: exact, linear-algebra, and sampled feature pipelines.

Exact runs advance all graphs in lockstep, one intern window per iteration,
so label ids depend only on the dataset and parameters, never on thread
scheduling.  Linear-algebra runs stack all graphs into one block-diagonal
operator and regroup values jointly, which keeps labels comparable across
graphs without an interner.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import ParameterError
from .features import FeatureVector
from .interner import (Coloring, LabelInterner, refine_coloring_window,
                       split_rows)
from .ksets import enumerate_ksets
from .kwl import DEFAULT_MAX_SETS, _neighbor_csr, iso_keys
from .linalg import DEFAULT_TOLERANCE, la_refinement
from .sampling import estimate_features_adaptive, estimate_features_fixed
from .wl1 import initial_colorings


def exact_wl1_run(graphs, h: int, interner: LabelInterner,
                  pool=None) -> list[list[Coloring]]:
    """Vertex refinement for all graphs, iterations 0..h, shared interner."""
    if h < 0:
        raise ParameterError("iteration count h must be nonnegative")
    current = initial_colorings(graphs, interner)
    runs = [[c] for c in current]
    batches = [(g.indptr, g.indices, None) for g in graphs]
    for it in range(1, h + 1):
        stepped = refine_coloring_window(
            [(ip, ix, col) for (ip, ix, _), col in zip(batches, current)],
            interner, depth=it, pool=pool)
        for run, col in zip(runs, stepped):
            run.append(col)
        current = stepped
    return runs


def _kset_structures(graphs, k: int, local: bool, csr: bool, max_sets: int,
                     pool=None):
    """The k-set front end of a dataset run, one graph at a time: the
    iso-type keys of all k-sets in rank order and, when ``csr``, their swap
    neighborhoods.  Every graph passes the k-set cap before any is built."""
    indexes = [enumerate_ksets(g, k, max_sets) for g in graphs]

    def build(pair):
        g, index = pair
        sets = index.all_sets()
        keys = iso_keys(g, sets)
        return keys, (_neighbor_csr(g, index, local, sets) if csr else None)

    work = list(zip(graphs, indexes))
    built = (pool.map_ordered(build, work) if pool is not None
             else [build(p) for p in work])
    return [b[0] for b in built], [b[1] for b in built]


def exact_kset_run(graphs, k: int, h: int, interner: LabelInterner,
                   local: bool = True, pool=None,
                   max_sets: int = DEFAULT_MAX_SETS) -> list[list[Coloring]]:
    """k-set refinement for all graphs in lockstep.

    Iteration 0 interns isomorphism-type codes of every k-set; later
    iterations refine over local or global swap neighborhoods.  Graphs with
    fewer than k vertices contribute empty colorings throughout.
    """
    if h < 0:
        raise ParameterError("iteration count h must be nonnegative")
    all_keys, csrs = _kset_structures(graphs, k, local, h > 0, max_sets, pool)
    ids = interner.intern_window(chain.from_iterable(all_keys), depth=0)
    current = [Coloring(0, labels) for labels in
               split_rows(ids, [len(keys) for keys in all_keys])]
    del all_keys   # refinement keys replace the iso keys from here on
    runs = [[c] for c in current]
    for it in range(1, h + 1):
        stepped = refine_coloring_window(
            [(ip, ix, col) for (ip, ix), col in zip(csrs, current)],
            interner, depth=it, pool=pool)
        for run, col in zip(runs, stepped):
            run.append(col)
        current = stepped
    return runs


def _block_diag(csrs, item_counts):
    """Stack per-graph CSRs into one block-diagonal CSR."""
    total = int(sum(item_counts))
    indptr = np.zeros(total + 1, dtype=np.int64)
    chunks = []
    row = 0
    nnz = 0
    offset = 0
    for (ip, ix), count in zip(csrs, item_counts):
        if count:
            indptr[row + 1: row + count + 1] = ip[1:] + nnz
        chunks.append(ix + offset)
        nnz += int(ip[-1])
        row += count
        offset += count
    indices = (np.concatenate(chunks) if chunks
               else np.empty(0, dtype=np.int64))
    return indptr, indices


def la_wl1_run(graphs, h: int, mode: str = "paired",
               tolerance: float = DEFAULT_TOLERANCE) -> list[list[np.ndarray]]:
    """Linear-algebra vertex refinement, regrouped jointly across graphs.

    Returns per graph a list of dense label vectors for iterations 0..h;
    labels are comparable across graphs of this run.
    """
    from .wl1 import initial_values
    counts = [g.num_vertices for g in graphs]
    indptr, indices = _block_diag([(g.indptr, g.indices) for g in graphs], counts)
    init = (np.concatenate([initial_values(g) for g in graphs])
            if sum(counts) else np.empty(0, dtype=np.int64))
    iters = la_refinement(indptr, indices, init, h, mode=mode,
                          tolerance=tolerance)
    per_graph = [split_rows(labels, counts) for labels in iters]
    return [[per_graph[it][gi] for it in range(h + 1)]
            for gi in range(len(graphs))]


def la_kset_run(graphs, k: int, h: int, local: bool = True,
                mode: str = "paired", tolerance: float = DEFAULT_TOLERANCE,
                pool=None,
                max_sets: int = DEFAULT_MAX_SETS) -> list[list[np.ndarray]]:
    """Linear-algebra k-set refinement over the (directed) k-set graphs.

    Iteration 0 labels are isomorphism-type codes compressed jointly across
    the dataset; refinement steps run on the block-diagonal stack of all
    k-set adjacency structures.
    """
    all_keys, csrs = _kset_structures(graphs, k, local, True, max_sets, pool)
    # a fresh interner numbers the distinct types in ascending key order
    init = LabelInterner().intern_window(chain.from_iterable(all_keys), 0)
    counts = [len(keys) for keys in all_keys]
    indptr, indices = _block_diag(csrs, counts)
    iters = la_refinement(indptr, indices, init, h, mode=mode,
                          tolerance=tolerance)
    per_graph = [split_rows(labels, counts) for labels in iters]
    return [[per_graph[it][gi] for it in range(h + 1)]
            for gi in range(len(graphs))]


def features_from_colorings(runs) -> list[FeatureVector]:
    return [FeatureVector([c.histogram() for c in run]) for run in runs]


def features_from_label_arrays(runs) -> list[FeatureVector]:
    return [FeatureVector([Coloring(0, labels).histogram() for labels in run])
            for run in runs]


def sampled_dataset_run(graphs, k: int, h: int, seed: int,
                        interner: LabelInterner, mode: str = "adaptive",
                        sample_count: int | None = None,
                        epsilon: float = 0.1, delta: float = 0.1,
                        initial_size: int = 100, growth: float = 2.0,
                        strict_delta: bool = False,
                        max_total_samples: int = 10_000_000):
    """Sampled estimates for every graph of a dataset.

    Each graph gets its own generator derived from (seed, graph position),
    so results do not depend on evaluation order.  Returns the estimates;
    their mass vectors serve directly as (normalized) feature vectors, and
    the sampled kernel is their plain inner product.
    """
    estimates = []
    for gi, g in enumerate(graphs):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([int(seed), gi])))
        if mode == "sampled":
            if sample_count is None:
                raise ParameterError("fixed-size sampling needs a sample count")
            est = estimate_features_fixed(g, k, h, sample_count, rng, interner)
        elif mode == "adaptive":
            est = estimate_features_adaptive(
                g, k, h, epsilon, delta, rng, interner,
                initial_size=initial_size, growth=growth,
                strict_delta=strict_delta,
                max_total_samples=max_total_samples)
        else:
            raise ParameterError(f"unknown sampling mode: {mode!r}")
        estimates.append(est)
    return estimates
