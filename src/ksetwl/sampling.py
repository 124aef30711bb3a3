"""Monte Carlo estimation of normalized k-set refinement features.

Two estimators are provided: a fixed-size one whose sample count comes from
a Hoeffding-style bound, and an adaptive one that keeps doubling the sample
until a data-dependent deviation bound (conditional Rademacher average via
Massart's lemma) drops below the requested error.

Both rely on locality: the label a k-set receives after i iterations
depends only on the sets within i local swaps of it.  A batch of samples is
labeled on the full graph from its radius-h swap levels (see
:func:`ksetwl.kwl.swap_levels`): iso types over the widest level, then one
refinement step per narrower level, each under one intern window.  Every key
is one the exact run of the same graph also makes, so a shared interner
gives samples the exact run's label ids.  Labeling one sample costs a
function of degree bound, k, and h only, independent of graph size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ResourceLimitError
from .graph import Graph
from .interner import LabelInterner, refinement_key_batch
from .kwl import _unique_rows, iso_keys, swap_levels

DEFAULT_MAX_TOTAL_SAMPLES = 10_000_000


def _check_probability(name: str, value: float, upper_inclusive: bool) -> None:
    ok = 0 < value <= 1 if upper_inclusive else 0 < value < 1
    if not ok:
        rng = "(0, 1]" if upper_inclusive else "(0, 1)"
        raise ParameterError(f"{name} must lie in {rng}, got {value}")


def hoeffding_sample_size(epsilon: float, delta: float, gamma: int) -> int:
    """Samples sufficient for L1 error <= epsilon with probability 1 - delta.

    ceil( ln(2 * gamma / delta) / (2 * (epsilon / gamma)^2) ), natural log,
    where gamma upper-bounds the number of distinct labels the refinement
    can produce.  No closed form for gamma is provided anywhere; callers
    supply it (or a sample count directly) and can consult
    :func:`observed_label_count` for an empirical lower-bound reference.
    """
    _check_probability("epsilon", epsilon, upper_inclusive=True)
    _check_probability("delta", delta, upper_inclusive=False)
    if gamma < 1:
        raise ParameterError(f"gamma must be a positive integer, got {gamma}")
    return _hoeffding_count(epsilon, delta, gamma, 1)


def hoeffding_sample_size_dataset(lam: float, delta: float, gamma: int,
                                  dataset_size: int) -> int:
    """Dataset-wide variant: sup kernel error <= 3*lam over all graph pairs.

    ceil( ln(2 * gamma * dataset_size / delta) / (2 * (lam / gamma)^2) );
    the extra log factor union-bounds over the dataset.
    """
    _check_probability("lambda", lam, upper_inclusive=True)
    _check_probability("delta", delta, upper_inclusive=False)
    if gamma < 1:
        raise ParameterError(f"gamma must be a positive integer, got {gamma}")
    if dataset_size is None or dataset_size < 1:
        raise ParameterError("dataset_size must be a positive integer")
    return _hoeffding_count(lam, delta, gamma, dataset_size)


def _hoeffding_count(epsilon: float, delta: float, gamma: int,
                     union: int) -> int:
    """ceil( ln(2 * gamma * union / delta) / (2 * (epsilon / gamma)^2) ),
    refused when it is no finite count of 64-bit floats."""
    try:
        return math.ceil(math.log(2.0 * gamma * union / delta)
                         / (2.0 * (epsilon / gamma) ** 2))
    except (OverflowError, ZeroDivisionError):
        raise ParameterError(
            f"the sample count for epsilon {epsilon}, delta {delta} and "
            f"gamma {gamma} overflows; use a larger epsilon or a smaller "
            f"gamma") from None


def make_rng(seed: int) -> np.random.Generator:
    """The package's deterministic generator (PCG64 behind the numpy API)."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def sample_kset_uniform(g: Graph, k: int, rng: np.random.Generator) -> tuple:
    """One k-set drawn uniformly from all C(n, k): a one-row
    :func:`_draw_batch`.  Constant expected time for n much larger than k."""
    n = g.num_vertices
    if n < k:
        raise ParameterError(f"cannot draw a {k}-set from {n} vertices")
    return tuple(_draw_batch(n, k, 1, rng)[0].tolist())


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


def _label_sets(g: Graph, sets: np.ndarray, h: int,
                interner: LabelInterner) -> np.ndarray:
    """Labels of the rows of ``sets`` for iterations 0..h, one row each.

    Iteration 0 interns the iso types of the widest swap level; iteration i
    refines level h - i by its rows' own and swap positions in level
    h - i + 1.
    """
    levels, links = swap_levels(g, sets, h)
    where = [np.arange(len(sets))]   # each row's position in every level
    for own, _, _ in links:
        where.append(own[where[-1]])
    keys, types = iso_keys(g, levels[h])
    labels = interner.intern_window(keys)[types]
    out = [labels[where[h]]]
    for i in range(1, h + 1):
        own, indptr, neighbors = links[h - i]
        labels = interner.intern_window(
            refinement_key_batch(indptr, neighbors, labels, own))
        out.append(labels[where[h - i]])
    return np.stack(out, axis=1)


def local_labels(g: Graph, s, k: int, h: int,
                 interner: LabelInterner) -> tuple:
    """Labels of the k-set ``s`` for iterations 0..h, computed on the full
    graph from its radius-h swap levels only.

    The keys are the ones the full-graph refinement makes for ``s``, so
    with a shared interner the labels equal the full run's ids; across
    separate interners they agree at the partition level.
    """
    if h < 0:
        raise ParameterError("iteration count h must be nonnegative")
    s = tuple(sorted(int(v) for v in s))
    if len(set(s)) != k or not 0 <= s[0] <= s[-1] < g.num_vertices:
        raise ParameterError(f"expected a {k}-set of vertices, got {s}")
    return tuple(_label_sets(g, np.asarray([s]), h, interner)[0].tolist())


@dataclass
class RademacherState:
    """Label counts over the sample so far, per refinement iteration.

    Tracks the two quantities the Massart bound needs incrementally: the
    count of the most frequent (iteration, label) pair and the number of
    distinct pairs observed.
    """

    iterations: int
    m: int = 0
    counts: list = field(default_factory=list)
    max_count: int = 0
    distinct_pairs: int = 0

    def __post_init__(self):
        if not self.counts:
            self.counts = [{} for _ in range(self.iterations + 1)]

    def observe(self, labels: tuple, multiplicity: int = 1) -> None:
        self.m += multiplicity
        for it, lab in enumerate(labels):
            c = self.counts[it].get(lab, 0)
            if c == 0:
                self.distinct_pairs += 1
            c += multiplicity
            self.counts[it][lab] = c
            if c > self.max_count:
                self.max_count = c


def massart_deviation_bound(state: RademacherState, delta: float) -> float:
    """Data-dependent bound on the sup deviation of sample averages.

    2 * R + 3 * sqrt(ln(2/delta) / (2m)), with the Rademacher average R
    bounded via Massart's lemma by max_f ||v_f|| * sqrt(2 ln |V|) / m.  Here
    ||v_f|| = sqrt(count of the most frequent observed (iteration, label)
    pair) and |V| = distinct observed pairs + 1, the +1 covering the zero
    vector of all never-observed indicator functions.
    """
    _check_probability("delta", delta, upper_inclusive=False)
    if state.m < 1:
        raise ParameterError("the deviation bound needs at least one sample")
    m = state.m
    vset = state.distinct_pairs + 1
    rademacher = math.sqrt(state.max_count) * math.sqrt(2.0 * math.log(vset)) / m
    return 2.0 * rademacher + 3.0 * math.sqrt(math.log(2.0 / delta) / (2.0 * m))


@dataclass
class SampledEstimate:
    """Estimated per-iteration mass vectors plus the run's provenance."""

    blocks: list
    sample_count: int
    rounds: list = field(default_factory=list)
    undersized: bool = False

    def to_feature_vector(self):
        from .features import FeatureVector
        return FeatureVector([dict(b) for b in self.blocks])


def _zero_estimate(h: int) -> SampledEstimate:
    return SampledEstimate(blocks=[{} for _ in range(h + 1)], sample_count=0,
                           rounds=[], undersized=True)


class _SampleLabeler:
    """Draws sample batches and memoizes labels per sampled vertex tuple."""

    def __init__(self, g: Graph, k: int, h: int, interner: LabelInterner,
                 cache: dict | None = None):
        self.g = g
        self.k = k
        self.h = h
        self.interner = interner
        self.cache = cache if cache is not None else {}

    def draw_counts(self, size: int, rng) -> tuple[list, list]:
        """Distinct drawn k-sets as vertex tuples in colex order (ascending
        colex rank) and how often each was drawn."""
        sets = _draw_batch(self.g.num_vertices, self.k, size, rng)
        uniq, _, counts = _unique_rows(sets)
        order = np.lexsort(uniq.T)
        return list(map(tuple, uniq[order].tolist())), counts[order].tolist()

    def labels_for(self, sets: list) -> None:
        """Ensure every set is labeled.  The new sets are labeled as one
        batch, whose intern windows depend only on which sets are new, not
        on their order."""
        new = [s for s in sets if s not in self.cache]
        if not new:
            return
        labeled = _label_sets(self.g, np.asarray(new), self.h, self.interner)
        self.cache.update(zip(new, map(tuple, labeled.tolist())))

    def observe(self, size: int, rng, state: RademacherState) -> None:
        """Draw ``size`` samples, label them and add them to ``state``."""
        sets, counts = self.draw_counts(size, rng)
        self.labels_for(sets)
        for s, c in zip(sets, counts):
            state.observe(self.cache[s], c)


def estimate_features_fixed(g: Graph, k: int, h: int, sample_count: int,
                            rng: np.random.Generator,
                            interner: LabelInterner,
                            cache: dict | None = None,
                            max_total_samples: int = DEFAULT_MAX_TOTAL_SAMPLES
                            ) -> SampledEstimate:
    """Uniform fixed-size estimator of the per-iteration normalized features.

    Each sample adds 1/sample_count to the bucket of its label at every
    iteration 0..h, so every block's masses sum to one.  Graphs with fewer
    than k vertices yield the all-zero estimate flagged ``undersized``
    rather than failing, so dataset runs survive tiny graphs.  A sample
    count above ``max_total_samples`` is refused before anything is drawn.
    """
    if sample_count < 1:
        raise ParameterError("sample_count must be at least 1")
    if sample_count > max_total_samples:
        raise ResourceLimitError(
            f"fixed-size sampling would draw {sample_count} samples, above "
            f"the cap of {max_total_samples}; raise the cap or lower the "
            f"sample count")
    if h < 0:
        raise ParameterError("iteration count h must be nonnegative")
    if g.num_vertices < k:
        return _zero_estimate(h)
    state = RademacherState(iterations=h)
    _SampleLabeler(g, k, h, interner, cache).observe(sample_count, rng, state)
    blocks = [{lab: cnt / state.m for lab, cnt in per_iter.items()}
              for per_iter in state.counts]
    return SampledEstimate(blocks=blocks, sample_count=state.m)


def estimate_features_adaptive(g: Graph, k: int, h: int, epsilon: float,
                               delta: float, rng: np.random.Generator,
                               interner: LabelInterner,
                               initial_size: int = 100,
                               growth: float = 2.0,
                               max_total_samples: int = DEFAULT_MAX_TOTAL_SAMPLES,
                               strict_delta: bool = False,
                               cache: dict | None = None) -> SampledEstimate:
    """Adaptive estimator: sample in growing rounds until the Massart-based
    deviation bound drops to ``epsilon``.

    Round i draws initial_size * growth^i fresh samples (doubling by
    default).  The bound is evaluated with the full ``delta`` every round,
    reproducing the plain doubling schedule; that reuses delta across
    adaptive looks, so ``strict_delta=True`` optionally splits it
    geometrically (delta / 2^(i+1)) to restore a sound union bound.

    The final estimate divides the accumulated counts by the total sample
    count.  A hard cap on total samples aborts with a diagnostic instead of
    looping unboundedly when epsilon is unreachably small.
    """
    _check_probability("epsilon", epsilon, upper_inclusive=True)
    _check_probability("delta", delta, upper_inclusive=False)
    if initial_size < 1:
        raise ParameterError("initial_size must be at least 1")
    if not (math.isfinite(growth) and growth > 1.0):
        raise ParameterError(f"growth factor must be finite and exceed 1, "
                             f"got {growth}")
    if h < 0:
        raise ParameterError("iteration count h must be nonnegative")
    if g.num_vertices < k:
        return _zero_estimate(h)

    labeler = _SampleLabeler(g, k, h, interner, cache)
    state = RademacherState(iterations=h)
    rounds = []
    round_idx = 0
    while True:
        try:
            batch = round(initial_size * growth ** round_idx)
        except OverflowError:   # a batch beyond every float is beyond the cap
            batch = math.inf
        if state.m + batch > max_total_samples:
            raise ResourceLimitError(
                f"adaptive sampling would exceed {max_total_samples} samples "
                f"(drawn {state.m}, last bound "
                f"{rounds[-1]['bound'] if rounds else float('inf'):.6g}, "
                f"target epsilon {epsilon}); raise the cap or epsilon")
        labeler.observe(batch, rng, state)
        round_delta = delta * 2.0 ** -(round_idx + 1) if strict_delta else delta
        bound = massart_deviation_bound(state, round_delta)
        rounds.append({"round": round_idx, "batch": batch,
                       "total": state.m, "bound": bound})
        if bound <= epsilon:
            break
        round_idx += 1

    blocks = [{lab: cnt / state.m for lab, cnt in per_iter.items()}
              for per_iter in state.counts]
    return SampledEstimate(blocks=blocks, sample_count=state.m, rounds=rounds)


def observed_label_count(colorings) -> int:
    """Distinct (iteration, label) pairs of an exact run: an empirical
    lower-bound reference when choosing the label-count parameter gamma."""
    total = 0
    for c in colorings:
        total += len(np.unique(c.labels))
    return total
