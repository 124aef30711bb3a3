"""Monte Carlo estimation of normalized k-set refinement features.

Two estimators are provided: a fixed-size one whose sample count comes from
a Hoeffding-style bound, and an adaptive one that keeps doubling the sample
until a data-dependent deviation bound (a conditional Rademacher average
bounded as in Massart's lemma), tested at delta / 2^(i+1) in round i, drops
below the requested error.  Both fill one label-count array per iteration.

Both rely on locality: the label a k-set receives after i iterations
depends only on the sets within i local swaps of it.  A sampled label is a
64-bit content word, a pure function of what it labels, so every batch,
round and graph labels alike without a shared table.  Each estimate keeps
one append-only table of the distinct sets drawn so far and their words; a
round keys its draw against it by base-n digits
(:func:`ksetwl.kwl._append_rows`, the dedupe of the swap levels too) and
labels only the sets it adds.  Those are labeled on the full graph from
the sets within h swaps of them, those within j swaps first, and their
swap CSR (:func:`ksetwl.kwl.swap_levels`): iteration 0 folds each set's
canonical iso row into a word (:func:`ksetwl.linalg._iso_words`), and each
later iteration is the linear-algebra sum of words
(:func:`ksetwl.linalg.word_sums`) over an ever shorter prefix, the step a
linear-algebra run takes over the whole graph, so a set's word is the word
that run gives it.  Labeling one sample costs a function of degree bound,
k, and h only, independent of graph size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ResourceLimitError
from .graph import Graph
from .ksets import check_order
from .kwl import _append_rows, iso_keys, swap_levels
from .linalg import _iso_words, word_sums

DEFAULT_MAX_TOTAL_SAMPLES = 10_000_000


def _check_probability(name: str, value: float, upper_inclusive: bool) -> None:
    if not (0 < value <= 1 if upper_inclusive else 0 < value < 1):
        rng = "(0, 1]" if upper_inclusive else "(0, 1)"
        raise ParameterError(f"{name} must lie in {rng}, got {value}")


def hoeffding_sample_size(epsilon: float, delta: float, gamma: int) -> int:
    """Samples sufficient for L1 error <= epsilon with probability 1 - delta.

    ceil( ln(2 * gamma / delta) / (2 * (epsilon / gamma)^2) ), where gamma
    upper-bounds the number of distinct labels the refinement can produce;
    :func:`observed_label_count` gives an empirical lower-bound reference.
    """
    return _hoeffding_count("epsilon", epsilon, delta, gamma, 1)


def hoeffding_sample_size_dataset(lam: float, delta: float, gamma: int,
                                  dataset_size: int) -> int:
    """Dataset-wide variant: sup kernel error <= 3*lam over all graph pairs,
    from ceil( ln(2 * gamma * dataset_size / delta) / (2 * (lam / gamma)^2) ):
    the extra log factor union-bounds over the dataset."""
    if dataset_size is None or dataset_size < 1:
        raise ParameterError("dataset_size must be a positive integer")
    return _hoeffding_count("lambda", lam, delta, gamma, dataset_size)


def _hoeffding_count(name: str, epsilon: float, delta: float, gamma: int,
                     union: int) -> int:
    """ceil( ln(2 * gamma * union / delta) / (2 * (epsilon / gamma)^2) ),
    refused when it is no finite count of 64-bit floats."""
    _check_probability(name, epsilon, upper_inclusive=True)
    _check_probability("delta", delta, upper_inclusive=False)
    if gamma < 1:
        raise ParameterError(f"gamma must be a positive integer, got {gamma}")
    try:
        return math.ceil(math.log(2.0 * gamma * union / delta)
                         / (2.0 * (epsilon / gamma) ** 2))
    except (OverflowError, ZeroDivisionError):
        raise ParameterError(
            f"the sample count for {name} {epsilon}, delta {delta} and "
            f"gamma {gamma} overflows; use a larger {name} or a smaller "
            f"gamma") from None


def make_rng(seed: int) -> np.random.Generator:
    """The package's deterministic generator (PCG64 behind the numpy API)
    from a nonnegative seed."""
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    return np.random.Generator(np.random.PCG64(int(seed)))


def _draw_batch(n: int, k: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """(size, k) matrix of ascending uniform k-sets; rows with duplicate
    vertices are redrawn wholesale, preserving uniformity."""
    out = np.empty((size, k), dtype=np.int64)
    pending = np.arange(size)
    while len(pending):
        draw = rng.integers(0, n, size=(len(pending), k))
        draw.sort(axis=1)
        ok = np.all(np.diff(draw, axis=1) > 0, axis=1)
        out[pending[ok]] = draw[ok]
        pending = pending[~ok]
    return out


def _label_sets(g: Graph, sets: np.ndarray, h: int) -> np.ndarray:
    """The ``uint64`` words of the distinct rows of ``sets`` for iterations
    0..h, one row each: iteration 0 is the iso word of each set within h
    swaps (:func:`ksetwl.kwl.swap_levels`), iteration i sums words over the
    prefix of them and of their swap CSR that holds the sets within h - i
    swaps."""
    rows, sizes, indptr, offsets = swap_levels(g, sets, h)
    codes, types = iso_keys(g, rows)
    words = _iso_words(codes)[types]
    out = np.empty((len(sets), h + 1), dtype=np.uint64)
    out[:, 0] = words[:len(sets)]   # a copy: word_sums mixes its input
    for i, m in enumerate(reversed(sizes[:-1]), 1):
        words = word_sums(indptr[:m + 1], offsets[:indptr[m]], words)
        out[:, i] = words[:len(sets)]
    return out


class RademacherState:
    """Label counts of the sample so far: of the ``m`` samples,
    ``counts[i][j]`` carry the word ``words[i][j]`` at iteration i, and
    each ``words[i]`` ascends."""

    def __init__(self, iterations: int):
        self.m = 0
        self.words = [np.zeros(0, dtype=np.uint64)] * (iterations + 1)
        self.counts = [np.zeros(0)] * (iterations + 1)

    def observe(self, labels, multiplicity) -> None:
        """Add multiplicity[j] samples labeled like row j of ``labels`` (one
        column of words per iteration): per iteration, one ``np.unique`` of
        the words so far and the new ones, and one bincount."""
        labels = np.asarray(labels, dtype=np.uint64)
        weights = np.asarray(multiplicity, dtype=np.float64)
        self.m += int(weights.sum())
        for it, (old, counts) in enumerate(zip(self.words, self.counts)):
            words, index = np.unique(np.concatenate([old, labels[:, it]]),
                                     return_inverse=True)
            self.words[it] = words
            self.counts[it] = np.bincount(
                index, np.concatenate([counts, weights]),
                minlength=len(words))

    def masses(self) -> list[tuple]:
        """Each iteration's observed words, ascending, and their masses."""
        return [(w, c / self.m) for w, c in zip(self.words, self.counts)]


def _rademacher_bound(counts: np.ndarray, m: int) -> float:
    """Bound on the Rademacher average over ``m`` samples of the zero vector
    and the indicator vectors with squared norms ``counts``.

    Every s > 0 gives R <= (1/s) ln(1 + sum_f exp(s^2 c_f / (2 m^2))),
    Massart's lemma before it raises each c_f to the largest.  Returns the
    least value on 25 points of ln s evenly spaced within a factor 2 of
    Massart's s (which holds the minimizer), Massart's s among them, and on
    25 around the best: never above sqrt(max c) * sqrt(2 ln(|c| + 1)) / m.
    """
    values, mult = np.unique(np.append(counts, 0.0), return_counts=True)
    top = values[-1]

    def at(log_t):   # the bound at each s = m * exp(log_t), a log-sum-exp
        t = np.exp(log_t)
        half = 0.5 * t * t
        terms = np.exp(np.multiply.outer(half, values - top)) @ mult
        return (half * top + np.log(terms)) / (m * t)

    mid = 0.5 * math.log(2.0 * math.log(len(counts) + 1) / top)
    steps = np.arange(-12, 13) * (math.log(2.0) / 12)
    coarse = at(mid + steps)
    fine = at(mid + steps[coarse.argmin()] + steps / 12)
    return float(min(coarse.min(), fine.min()))


def massart_deviation_bound(state: RademacherState, delta: float) -> float:
    """Data-dependent bound on the sup deviation of sample averages:
    2 * R + 3 * sqrt(ln(2/delta) / (2m)), with R the
    :func:`_rademacher_bound` of the observed (iteration, label) counts."""
    _check_probability("delta", delta, upper_inclusive=False)
    if state.m < 1:
        raise ParameterError("the deviation bound needs at least one sample")
    counts = np.concatenate(state.counts)
    # ln 2 - ln delta stays finite where 2 / delta overflows (delta < 1e-308)
    return (2.0 * _rademacher_bound(counts, state.m)
            + 3.0 * math.sqrt((math.log(2.0) - math.log(delta))
                              / (2.0 * state.m)))


@dataclass
class SampledEstimate:
    """Estimated per-iteration mass vectors plus the run's provenance:
    ``masses[i]`` holds iteration i's words, ascending, and their masses."""

    masses: list
    sample_count: int
    rounds: list = field(default_factory=list)


def _sample(g: Graph, k: int, h: int, rng, batches, max_total_samples: int,
            epsilon: float | None = None, delta: float = 0.0) -> SampledEstimate:
    """Draw ``batches`` in turn into one :class:`RademacherState`: only the
    first without ``epsilon``; with it, until the deviation bound at
    delta * 2^-(i+1) after round i is at most ``epsilon``.  A round whose
    delta is 0.0, beyond ``max_total_samples`` in total, or too large for
    one numpy array is refused before it is drawn.  Each round appends its
    draw to one table of the distinct sets drawn so far and their words,
    labels only the sets it adds, and observes the words it drew."""
    if h < 0:
        raise ParameterError("iteration count h must be nonnegative")
    check_order(k)
    if g.num_vertices < k:
        return SampledEstimate(RademacherState(h).masses(), 0)
    rows = np.empty((0, k), dtype=np.int64)
    words = np.empty((0, h + 1), dtype=np.uint64)
    state = RademacherState(iterations=h)
    rounds, bound = [], math.inf
    for i, batch in enumerate(batches):
        round_delta = delta * 2.0 ** -(i + 1)
        if epsilon is not None and round_delta == 0.0:
            raise ResourceLimitError(
                f"adaptive sampling ran out of rounds: delta * 2^-{i + 1} is "
                f"0.0 (drawn {state.m} samples in {i} rounds, last bound "
                f"{bound:.6g}, target epsilon {epsilon}); raise delta or "
                f"epsilon")
        if state.m + batch > max_total_samples:   # fixed counts pass here
            raise ResourceLimitError(
                f"adaptive sampling would exceed {max_total_samples} samples "
                f"(drawn {state.m}, last bound {bound:.6g}, target epsilon "
                f"{epsilon}); raise the cap or epsilon")
        if batch * k * 8 > np.iinfo(np.intp).max:
            raise ResourceLimitError(
                f"a batch of {batch} {k}-sets is beyond any array numpy can "
                f"allocate; lower the sample count or the cap")
        labeled = len(rows)
        rows, where = _append_rows(
            rows, _draw_batch(g.num_vertices, k, batch, rng), g.num_vertices)
        if len(rows) > labeled:   # label only the sets this round added
            words = np.concatenate([words, _label_sets(g, rows[labeled:], h)])
        drawn, counts = np.unique(where, return_counts=True)
        state.observe(words[drawn], counts)
        if epsilon is None:
            break
        bound = massart_deviation_bound(state, round_delta)
        rounds.append({"round": i, "batch": batch, "total": state.m,
                       "delta": round_delta, "bound": bound})
        if bound <= epsilon:
            break
    return SampledEstimate(state.masses(), state.m, rounds)


def estimate_features_fixed(g: Graph, k: int, h: int, sample_count: int,
                            rng: np.random.Generator,
                            max_total_samples: int = DEFAULT_MAX_TOTAL_SAMPLES
                            ) -> SampledEstimate:
    """Uniform fixed-size estimator of the per-iteration normalized features.

    Each sample adds 1/sample_count to the bucket of its label at every
    iteration 0..h, so every block's masses sum to one.  Each distinct set
    drawn is labeled once, however often it is drawn.  Graphs with fewer
    than k vertices yield the all-zero estimate of 0 samples; every other
    run draws at least one.  A count above ``max_total_samples`` is refused
    before anything is drawn.
    """
    if sample_count < 1:
        raise ParameterError("sample_count must be at least 1")
    if sample_count > max_total_samples:
        raise ResourceLimitError(
            f"fixed-size sampling would draw {sample_count} samples, above "
            f"the cap of {max_total_samples}; raise the cap or lower the "
            f"sample count")
    return _sample(g, k, h, rng, [sample_count], max_total_samples)


def estimate_features_adaptive(g: Graph, k: int, h: int, epsilon: float,
                               delta: float, rng: np.random.Generator,
                               max_total_samples: int = DEFAULT_MAX_TOTAL_SAMPLES
                               ) -> SampledEstimate:
    """Adaptive estimator: sample in doubling rounds until the deviation
    bound (:func:`massart_deviation_bound`) drops to ``epsilon``.

    Round i draws 100 * 2^i fresh samples and tests the bound at
    delta / 2^(i+1).  These deltas sum to less than ``delta``, so by a
    union bound over the rounds the estimate's sup deviation is at most
    ``epsilon`` with probability at least 1 - delta.  The rounds share one
    memo, so a set drawn in several rounds is labeled once.  The sample cap
    stops an unreachably small epsilon.
    """
    _check_probability("epsilon", epsilon, upper_inclusive=True)
    _check_probability("delta", delta, upper_inclusive=False)
    return _sample(g, k, h, rng, (100 << i for i in itertools.count()),
                   max_total_samples, epsilon, delta)


def observed_label_count(labels) -> int:
    """Distinct (iteration, label) pairs of an exact run given as one label
    array per iteration (the labels of
    :func:`ksetwl.pipeline.exact_kset_run`): an empirical lower-bound
    reference when choosing the label-count parameter gamma."""
    return sum(len(np.unique(it)) for it in labels)
