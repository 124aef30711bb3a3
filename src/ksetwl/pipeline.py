"""Dataset-level runs: exact, linear-algebra, and sampled feature pipelines.

Exact and linear-algebra runs build their k-sets, iso types and swap
neighborhoods once over the block-diagonal stack of all graphs, and one
loop advances all graphs in lockstep: iteration 0 is the iso types, each
later iteration one step over the stacked k-set graph, either a window
that numbers its own keys one run of whole own-label classes at a time,
so that only one run's keys are alive at once
(:func:`ksetwl.interner.refine_coloring_window`), or a joint regrouping
of 64-bit sums (:func:`ksetwl.linalg.la_step`).  So label ids depend only
on the dataset and parameters.  1-WL is the local k-set refinement at
k = 1.  Sampled runs label sets by 64-bit content words
(:mod:`ksetwl.sampling`), and their features number each iteration's
words once, over all graphs.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import ParameterError, ResourceLimitError
from .features import Features, stable_order
from .interner import _check_cap, refine_coloring_window
from .ksets import KSetIndex, check_order
from .kwl import (DEFAULT_MAX_SETS, _neighbor_csr, iso_keys, stack_graphs,
                  stacked_sets)
from .linalg import la_step
from .sampling import (DEFAULT_MAX_TOTAL_SAMPLES, estimate_features_adaptive,
                       estimate_features_fixed)


def kset_front_end(graphs, k: int, local: bool, csr: bool, max_sets: int):
    """The k-set front end of a dataset run, built once over the stack of
    all graphs (:func:`ksetwl.kwl.stack_graphs`).

    Returns the iso type of every k-set, graph by graph in rank order, as
    its index into the ascending distinct iso codes
    (:func:`ksetwl.kwl.iso_keys`), the number of k-sets of each graph and,
    when ``csr``, one CSR of their swap neighborhoods whose rows follow the
    types and whose entries are offsets from their row to positions in the
    stack (:func:`ksetwl.kwl._neighbor_csr`).  k and the k-sets of all
    graphs together pass their caps before anything is built.  Colex ranks
    do not depend on n, so one index over the widest graph serves every
    graph: its ``all_sets()`` fill one stacked set array
    (:func:`ksetwl.kwl.stacked_sets`), int32 while vertex ids fit.
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
    sets = stacked_sets(index, counts, offsets)
    return iso_keys(stack, sets)[1], counts, (
        _neighbor_csr(stack, index, local, sets, offsets) if csr else None)


def _refinement_run(graphs, k, h, local, max_sets, step):
    """Iteration 0 is the front end's iso types; iteration i + 1 is
    ``step(indptr, offsets, labels)`` of iteration i over its CSR."""
    if h < 0:
        raise ParameterError("iteration count h must be nonnegative")
    types, counts, csr = kset_front_end(graphs, k, local, h > 0, max_sets)
    labels = [types]
    for _ in range(h):
        labels.append(step(*csr, labels[-1]))
    return labels, counts


def _window_step(indptr, offsets, labels):
    # the ids issued so far are 0 .. labels.max(), and no key of a window
    # recurs in a later one, so its own numbering continues from there
    return refine_coloring_window(indptr, offsets, labels,
                                  int(labels.max(initial=-1)) + 1)


def exact_kset_run(graphs, k: int, h: int, local: bool = True,
                   max_sets: int = DEFAULT_MAX_SETS):
    """k-set refinement for all graphs in lockstep.

    Iteration 0 labels are the iso types of :func:`kset_front_end`, each
    set's index into the ascending distinct iso codes; each later
    iteration is one window over the local or global swaps of the stacked
    k-sets.
    Returns one int32 label array per iteration 0..h over the stacked
    k-sets, with ids consecutive from 0, and the number of k-sets of each
    graph; graphs with fewer than k vertices have none.  At k = 1 with
    local swaps this is 1-WL.
    """
    return _refinement_run(graphs, k, h, local, max_sets, _window_step)


def la_kset_run(graphs, k: int, h: int, local: bool = True,
                max_sets: int = DEFAULT_MAX_SETS):
    """Linear-algebra k-set refinement: iteration 0 as in
    :func:`exact_kset_run`, then one :func:`ksetwl.linalg.la_step` per
    iteration over the stacked (directed) k-set graph, which numbers
    wrapping 64-bit sums of label words densely in ascending order.
    Returns what :func:`exact_kset_run` returns.  At k = 1 with local swaps
    this is 1-WL.
    """
    return _refinement_run(graphs, k, h, local, max_sets, la_step)


def features_from_label_arrays(labels, counts) -> Features:
    """The label counts of a run given as one label array per iteration
    over the stacked k-sets of all graphs and the k-set count of each
    graph.  Per iteration, one in-place sort of the keys label * n + graph,
    int32 while they fit, puts equal (label, graph) pairs in runs, in
    (label, graph) order, and each run is one entry."""
    n = len(counts)
    blocks = []
    for stacked in labels:
        wide = (int(stacked.max(initial=-1)) + 1) * n > 1 << 31
        key = np.multiply(stacked, n, dtype=np.int64 if wide else np.int32)
        key += np.repeat(np.arange(n, dtype=key.dtype), counts)
        key.sort()
        new = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        del new
        label, holder = np.divmod(key[starts], max(n, 1))
        del key
        weight = np.empty(len(starts))
        np.subtract(starts[1:], starts[:-1], out=weight[:-1])
        weight[-1:] = len(stacked) - starts[-1:]
        blocks.append((holder.astype(np.int32, copy=False),
                       label.astype(np.int32, copy=False), weight))
    return Features(n, blocks)


def features_from_estimates(estimates) -> Features:
    """The estimated masses of sampled runs, one per graph.  Each
    iteration's distinct words over all graphs take the ids 0, 1, ... in
    ascending order (one ``np.unique``), so more than ``_ID_CAP`` of them
    are refused; each graph's words ascend, so one stable sort by id
    orders each block."""
    n = len(estimates)
    blocks = []
    for masses in zip(*(est.masses for est in estimates)):
        words, weights = zip(*masses)
        graph = np.repeat(np.arange(n, dtype=np.int32), list(map(len, words)))
        distinct, label = np.unique(np.concatenate(words), return_inverse=True)
        _check_cap(len(distinct))
        label = label.astype(np.int32)
        order = stable_order(label)
        blocks.append((graph[order], label[order],
                       np.concatenate(weights)[order]))
    return Features(n, blocks)


def sampled_dataset_run(graphs, k: int, h: int, seed: int,
                        mode: str = "adaptive",
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
    if mode not in ("sampled", "adaptive"):
        raise ParameterError(f"unknown sampling mode: {mode!r}")
    if mode == "sampled" and sample_count is None:
        raise ParameterError("fixed-size sampling needs a sample count")
    estimates = []
    for gi, g in enumerate(graphs):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([int(seed), gi])))
        if mode == "sampled":
            est = estimate_features_fixed(
                g, k, h, sample_count, rng,
                max_total_samples=max_total_samples)
        else:
            est = estimate_features_adaptive(
                g, k, h, epsilon, delta, rng,
                max_total_samples=max_total_samples)
        estimates.append(est)
    return estimates
