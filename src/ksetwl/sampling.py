"""Monte Carlo estimation of normalized k-set refinement features.

Two estimators are provided: a fixed-size one whose sample count comes from
a Hoeffding-style bound, and an adaptive one that keeps doubling the sample
until a data-dependent deviation bound (conditional Rademacher average via
Massart's lemma) drops below the requested error.

Both rely on locality: the label a k-set receives after h iterations on the
full graph equals its label after h iterations on the subgraph induced by
the vertices of its radius-h ball in the k-set graph.  Labeling one sample
therefore costs a function of degree bound, k, and h only, independent of
graph size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ResourceLimitError
from .graph import Graph, induced_subgraph
from .interner import (Coloring, LabelInterner, refine_coloring_window,
                       split_rows)
from .ksets import enumerate_ksets
from .kwl import c_neighborhood, _neighbor_csr, iso_keys

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
    return math.ceil(math.log(2.0 * gamma / delta) / (2.0 * (epsilon / gamma) ** 2))


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
    return math.ceil(math.log(2.0 * gamma * dataset_size / delta)
                     / (2.0 * (lam / gamma) ** 2))


def make_rng(seed: int) -> np.random.Generator:
    """The package's deterministic generator (PCG64 behind the numpy API)."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def sample_kset_uniform(g: Graph, k: int, rng: np.random.Generator) -> tuple:
    """One k-set drawn uniformly from all C(n, k): k sequential vertex draws
    with replacement-on-collision, then sorted.  Constant expected time for
    n much larger than k."""
    n = g.num_vertices
    if n < k:
        raise ParameterError(f"cannot draw a {k}-set from {n} vertices")
    chosen: set[int] = set()
    while len(chosen) < k:
        chosen.add(int(rng.integers(0, n)))
    return tuple(sorted(chosen))


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


def _prepare_local_context(g: Graph, s: tuple, k: int, h: int):
    """Interner-free part of labeling one sample: radius-h ball, induced
    subgraph, iso-type keys, and the subgraph's local-neighbor CSR."""
    ball = c_neighborhood(g, s, h)
    verts = sorted({v for t in ball for v in t})
    sub, mapping = induced_subgraph(g, verts)
    index = enumerate_ksets(sub, k)
    keys = iso_keys(sub, index.all_sets())
    indptr, indices = _neighbor_csr(sub, index, local=True)
    image_rank = index.rank(tuple(sorted(mapping[v] for v in s)))
    return keys, indptr, indices, image_rank


def _label_contexts(contexts, h: int, interner: LabelInterner) -> list[tuple]:
    """Run h local refinement iterations over a batch of prepared contexts
    under shared intern windows; returns each context's per-iteration labels
    of its sampled set."""
    ids = interner.intern_window(
        (kb for keys, _, _, _ in contexts for kb in keys), depth=0)
    colorings = [Coloring(0, labels) for labels in
                 split_rows(ids, [len(ctx[0]) for ctx in contexts])]
    results = [[int(col.labels[ctx[3]])] for col, ctx in zip(colorings, contexts)]
    for it in range(1, h + 1):
        batches = [(ctx[1], ctx[2], col) for ctx, col in zip(contexts, colorings)]
        colorings = refine_coloring_window(batches, interner, depth=it)
        for out, col, ctx in zip(results, colorings, contexts):
            out.append(int(col.labels[ctx[3]]))
    return [tuple(r) for r in results]


def local_labels(g: Graph, s, k: int, h: int,
                 interner: LabelInterner) -> tuple:
    """Labels of the k-set ``s`` for iterations 0..h, computed only from the
    subgraph induced by its radius-h ball in the k-set graph.

    Equal to the labels the full-graph refinement assigns (with a shared
    interner, equal as raw ids for any sets whose refinement keys match the
    full-graph run; across separate runs, equal at the partition level).
    """
    if h < 0:
        raise ParameterError("iteration count h must be nonnegative")
    s = tuple(sorted(int(v) for v in s))
    if len(s) != k:
        raise ParameterError(f"expected a {k}-set, got {s}")
    ctx = _prepare_local_context(g, s, k, h)
    return _label_contexts([ctx], h, interner)[0]


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
                 cache: dict | None = None, pool=None):
        self.g = g
        self.k = k
        self.h = h
        self.interner = interner
        self.cache = cache if cache is not None else {}
        self.pool = pool

    def draw_counts(self, size: int, rng) -> tuple[list, list]:
        """Distinct drawn k-sets as vertex tuples in colex order (ascending
        colex rank) and how often each was drawn."""
        sets = _draw_batch(self.g.num_vertices, self.k, size, rng)
        uniq, counts = np.unique(sets, axis=0, return_counts=True)
        order = np.lexsort(uniq.T)
        return list(map(tuple, uniq[order].tolist())), counts[order].tolist()

    def labels_for(self, sets: list) -> None:
        """Ensure every set is labeled; new sets are processed in the given
        (colex) order, so interning is independent of draw order."""
        new = [s for s in sets if s not in self.cache]
        if not new:
            return
        prepare = lambda s: _prepare_local_context(self.g, s, self.k, self.h)
        contexts = (self.pool.map_ordered(prepare, new) if self.pool is not None
                    else [prepare(s) for s in new])
        labeled = _label_contexts(contexts, self.h, self.interner)
        for s, labs in zip(new, labeled):
            self.cache[s] = labs

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
                            pool=None) -> SampledEstimate:
    """Uniform fixed-size estimator of the per-iteration normalized features.

    Each sample adds 1/sample_count to the bucket of its label at every
    iteration 0..h, so every block's masses sum to one.  Graphs with fewer
    than k vertices yield the all-zero estimate flagged ``undersized``
    rather than failing, so dataset runs survive tiny graphs.
    """
    if sample_count < 1:
        raise ParameterError("sample_count must be at least 1")
    if h < 0:
        raise ParameterError("iteration count h must be nonnegative")
    if g.num_vertices < k:
        return _zero_estimate(h)
    state = RademacherState(iterations=h)
    _SampleLabeler(g, k, h, interner, cache, pool).observe(sample_count, rng,
                                                           state)
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
                               cache: dict | None = None,
                               pool=None) -> SampledEstimate:
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
    if growth <= 1.0:
        raise ParameterError("growth factor must exceed 1")
    if h < 0:
        raise ParameterError("iteration count h must be nonnegative")
    if g.num_vertices < k:
        return _zero_estimate(h)

    labeler = _SampleLabeler(g, k, h, interner, cache, pool)
    state = RademacherState(iterations=h)
    rounds = []
    round_idx = 0
    while True:
        batch = int(round(initial_size * growth ** round_idx))
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
