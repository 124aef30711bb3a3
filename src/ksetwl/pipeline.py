"""Dataset-level runs: exact, linear-algebra, and sampled feature pipelines.

Both exact and linear-algebra runs build their k-sets, iso types and swap
neighborhoods once over the block-diagonal stack of all graphs, and return
one label array per iteration over the stacked k-sets together with each
graph's k-set count.  1-WL is the local k-set refinement at k = 1.  Exact
runs advance all graphs in lockstep, one intern window per iteration
(:func:`ksetwl.interner.refine_coloring_window`), so label ids depend only
on the dataset and parameters.  Linear-algebra runs refine the stacked
k-set graph and regroup values jointly, which keeps labels comparable
across graphs without an interner.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import ParameterError, ResourceLimitError
from .features import Features
from .interner import LabelInterner, iso_key_batch, refine_coloring_window
from .ksets import KSetIndex, check_order
from .kwl import DEFAULT_MAX_SETS, _neighbor_csr, iso_keys, stack_graphs
from .linalg import la_step
from .sampling import (DEFAULT_MAX_TOTAL_SAMPLES, estimate_features_adaptive,
                       estimate_features_fixed)


def kset_front_end(graphs, k: int, local: bool, csr: bool, max_sets: int):
    """The k-set front end of a dataset run, built once over the stack of
    all graphs (:func:`ksetwl.kwl.stack_graphs`).

    Returns the distinct iso codes (:func:`ksetwl.kwl.iso_keys`), the iso
    type of every k-set, graph by graph in rank order, as its index into
    them, the number of k-sets of each graph and, when ``csr``, one CSR of
    their swap neighborhoods whose rows follow the types and whose entries
    are offsets from their row to positions in the stack
    (:func:`ksetwl.kwl._neighbor_csr`).  k and the k-sets of all graphs
    together pass their caps before anything is built.  Colex ranks do
    not depend on n, so one index over the widest graph serves every
    graph: graph g's k-sets are the first C(n_g, k) rows of its
    ``all_sets()``, shifted by g's vertex offset.
    """
    check_order(k)
    counts = [comb(g.num_vertices, k) for g in graphs]
    total = sum(counts)
    if total > max_sets:
        raise ResourceLimitError(
            f"the graphs have {total} {k}-sets in total, above the cap of "
            f"{max_sets}; use a sampled mode for datasets this large")
    stack, offsets = stack_graphs(graphs, k)
    index = KSetIndex(max((g.num_vertices for g in graphs), default=0), k)
    widest = index.all_sets()
    sets = np.concatenate([widest[:0]] + [
        widest[:count] + offset for count, offset in zip(counts, offsets)])
    codes, types = iso_keys(stack, sets)
    return codes, types, counts, (
        _neighbor_csr(stack, index, local, sets, offsets) if csr else None)


def exact_kset_run(graphs, k: int, h: int, interner: LabelInterner,
                   local: bool = True, max_sets: int = DEFAULT_MAX_SETS):
    """k-set refinement for all graphs in lockstep.

    Iteration 0 interns isomorphism-type codes of every k-set; later
    iterations refine over local or global swap neighborhoods, one intern
    window per iteration over the stacked k-sets of all graphs.  Returns
    one int32 label array per iteration 0..h over the stacked k-sets, and
    the number of k-sets of each graph; graphs with fewer than k vertices
    have none.  At k = 1 with local swaps this is 1-WL.
    """
    if h < 0:
        raise ParameterError("iteration count h must be nonnegative")
    codes, types, counts, csr = kset_front_end(graphs, k, local, h > 0,
                                               max_sets)
    # a window numbers fresh keys in byte order whatever their multiplicity;
    # the ids replace the types, so the refinement windows hold only one
    types = interner.intern_window(iso_key_batch(codes))[types]
    labels = [types]
    for _ in range(h):
        labels.append(refine_coloring_window(*csr, labels[-1], interner))
    return labels, counts


def la_kset_run(graphs, k: int, h: int, local: bool = True,
                max_sets: int = DEFAULT_MAX_SETS):
    """Linear-algebra k-set refinement over the (directed) k-set graphs.

    Iteration 0 labels are the iso types of :func:`kset_front_end`, whose
    codes ascend, so they are the ids a fresh interner issues; each later
    iteration is one :func:`ksetwl.linalg.la_step` over the stacked k-set
    graph of all graphs: wrapping 64-bit sums of label words, numbered
    densely in ascending value order by one ``np.unique``.  Returns what
    :func:`exact_kset_run` returns, int32 label arrays too.  At k = 1 with
    local swaps this is 1-WL.
    """
    if h < 0:
        raise ParameterError("iteration count h must be nonnegative")
    _, types, counts, csr = kset_front_end(graphs, k, local, h > 0, max_sets)
    labels = [types]
    for _ in range(h):
        labels.append(la_step(*csr, labels[-1])[1])
    return labels, counts


def features_from_label_arrays(labels, counts) -> Features:
    """The label counts of a run given as one label array per iteration
    over the stacked k-sets of all graphs and the k-set count of each
    graph: per iteration, one ``np.unique`` of graph * span + label."""
    n = len(counts)
    graph = np.repeat(np.arange(n, dtype=np.int64), counts)
    blocks = []
    for stacked in labels:
        span = int(stacked.max()) + 1 if len(stacked) else 1
        keys, weights = np.unique(graph * span + stacked, return_counts=True)
        blocks.append((*np.divmod(keys, span), weights.astype(np.float64)))
    return Features(n, blocks)


def features_from_estimates(estimates) -> Features:
    """The estimated masses of sampled runs, one per graph."""
    n = len(estimates)
    blocks = []
    for masses in zip(*(est.masses for est in estimates)):
        labels, weights = zip(*masses)
        graph = np.repeat(np.arange(n, dtype=np.int64), list(map(len, labels)))
        blocks.append((graph, np.concatenate(labels), np.concatenate(weights)))
    return Features(n, blocks)


def sampled_dataset_run(graphs, k: int, h: int, seed: int,
                        interner: LabelInterner, mode: str = "adaptive",
                        sample_count: int | None = None,
                        epsilon: float = 0.1, delta: float = 0.1,
                        max_total_samples: int = DEFAULT_MAX_TOTAL_SAMPLES):
    """Sampled estimates for every graph of a dataset.

    Each graph gets its own generator derived from (seed, graph position),
    so results do not depend on evaluation order.  Fixed-size runs draw
    ``sample_count`` samples per graph, adaptive ones 100 * 2^i in round i
    (:func:`ksetwl.sampling.estimate_features_adaptive`) until ``epsilon``
    is certified.  Returns the estimates; their mass vectors serve directly
    as (normalized) feature vectors, and the sampled kernel is their plain
    inner product.
    """
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    estimates = []
    for gi, g in enumerate(graphs):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([int(seed), gi])))
        if mode == "sampled":
            if sample_count is None:
                raise ParameterError("fixed-size sampling needs a sample count")
            est = estimate_features_fixed(
                g, k, h, sample_count, rng, interner,
                max_total_samples=max_total_samples)
        elif mode == "adaptive":
            est = estimate_features_adaptive(
                g, k, h, epsilon, delta, rng, interner,
                max_total_samples=max_total_samples)
        else:
            raise ParameterError(f"unknown sampling mode: {mode!r}")
        estimates.append(est)
    return estimates
