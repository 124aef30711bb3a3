import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksetwl import (ParameterError, RademacherState, ResourceLimitError,
                    build_graph,
                    estimate_features_adaptive, estimate_features_fixed,
                    exact_kset_run, hoeffding_sample_size,
                    hoeffding_sample_size_dataset, make_rng,
                    massart_deviation_bound, observed_label_count)
from ksetwl import kwl, sampling
from ksetwl.kwl import _append_rows, swap_levels
from ksetwl.sampling import _draw_batch, _label_sets, _rademacher_bound

from conftest import label_groups, random_graph, scripts
from reference import (estimate_blocks, exact_word_run, histogram,
                       interned_exact_run, iso_type, local_labels, rank,
                       sample_kset_uniform)

# frozen by independent high-precision evaluation of the bound formulas
SIZE_SINGLE = 26492
SIZE_DATASET = 49518
# Massart's closed form for the counts (2, 1, 1) over m = 4 at delta 0.5
MASSART_EXAMPLE = 2.426241939252021


def state_of(rows, multiplicity):
    """A RademacherState holding ``multiplicity[j]`` samples labeled like
    ``rows[j]`` (one label per iteration)."""
    rows = np.asarray(rows, dtype=np.int64)
    state = RademacherState(iterations=rows.shape[1] - 1)
    state.observe(rows, multiplicity)
    return state


def pair_counts(state):
    return np.concatenate([c[c > 0] for c in state.counts])


def hoeffding_term(m, delta):
    return 3 * math.sqrt(math.log(2 / delta) / (2 * m))


def massart_closed_form(state, delta):
    """2 R + 3 sqrt(ln(2/delta) / (2m)) with Massart's lemma in its relaxed
    form: R <= sqrt(max count) * sqrt(2 ln(distinct pairs + 1)) / m."""
    counts = pair_counts(state)
    r = math.sqrt(counts.max()) * math.sqrt(2 * math.log(len(counts) + 1))
    return 2 * r / state.m + hoeffding_term(state.m, delta)


def dense_grid_rademacher(counts, m, points=200_001):
    """min of (1/s) ln(1 + sum exp(s^2 c / (2m^2))) over ``points``
    log-spaced s within a factor e^6 of Massart's s either way."""
    counts = np.asarray(counts, dtype=np.float64)
    t0 = math.sqrt(2 * math.log(len(counts) + 1) / counts.max())
    best = math.inf
    for t in np.array_split(t0 * np.exp(np.linspace(-6, 6, points)), 20):
        x = np.multiply.outer(0.5 * t * t, counts)
        lse = np.logaddexp(0.0, np.logaddexp.reduce(x, axis=1))
        best = min(best, float((lse / (m * t)).min()))
    return best


def test_sample_size_frozen_values():
    assert hoeffding_sample_size(0.1, 0.1, 10) == SIZE_SINGLE
    assert hoeffding_sample_size(1.0, 0.5, 1) == 1
    assert hoeffding_sample_size_dataset(0.1, 0.1, 10, 100) == SIZE_DATASET


@pytest.mark.parametrize("n, k, size, seed",
                         [(8, 2, 500, 1), (1000, 3, 300, 2), (6, 4, 200, 3),
                          (50, 2, 1, 4), (200_000, 4, 300, 5)])
def test_draw_counts_match_the_np_unique_formula(n, k, size, seed):
    # a draw appended to an empty memo table gives its distinct sets in
    # colex order, and their positions count the draws; n^k beyond int64
    # (the last case) takes the row-sort path
    drawn = _draw_batch(n, k, size, make_rng(seed))
    rows, where = _append_rows(np.empty((0, k), dtype=np.int64), drawn, n)
    uniq, counts = np.unique(drawn, axis=0, return_counts=True)
    order = np.lexsort(uniq.T)
    assert np.array_equal(rows, uniq[order])
    assert np.array_equal(np.bincount(where, minlength=len(rows)),
                          counts[order])


def test_sample_size_monotone_in_gamma():
    sizes = [hoeffding_sample_size(0.1, 0.1, gamma) for gamma in (1, 2, 5, 10, 50)]
    assert sizes == sorted(sizes)


def test_dataset_size_one_matches_single_graph_bound():
    assert (hoeffding_sample_size_dataset(0.25, 0.2, 7, 1)
            == hoeffding_sample_size(0.25, 0.2, 7))


def test_doubling_dataset_adds_log_two_shift():
    import math
    lam, delta, gamma = 0.1, 0.1, 10
    small = hoeffding_sample_size_dataset(lam, delta, gamma, 50)
    large = hoeffding_sample_size_dataset(lam, delta, gamma, 100)
    shift = math.log(2.0) / (2.0 * (lam / gamma) ** 2)
    assert abs((large - small) - shift) <= 1.0  # equal before the two ceils


@pytest.mark.parametrize("kwargs", [
    dict(epsilon=0.0, delta=0.1, gamma=1),
    dict(epsilon=1.5, delta=0.1, gamma=1),
    dict(epsilon=0.5, delta=0.0, gamma=1),
    dict(epsilon=0.5, delta=1.0, gamma=1),
    dict(epsilon=0.5, delta=0.1, gamma=0),
])
def test_sample_size_rejects_bad_params(kwargs):
    with pytest.raises(ParameterError):
        hoeffding_sample_size(**kwargs)


def test_dataset_size_required():
    with pytest.raises(ParameterError):
        hoeffding_sample_size_dataset(0.1, 0.1, 10, None)


def test_negative_seed_rejected():
    with pytest.raises(ParameterError, match="seed must be nonnegative"):
        make_rng(-1)


def test_uniform_draw_degenerate_cases(tri):
    assert sample_kset_uniform(tri, 3, make_rng(0)) == (0, 1, 2)
    with pytest.raises(ParameterError):
        sample_kset_uniform(build_graph(2, [(0, 1)]), 3, make_rng(0))


def test_uniform_draw_frequencies():
    g = build_graph(4, [(0, 1)])
    rng = make_rng(123)
    counts = {}
    draws = 60_000
    for _ in range(draws):
        s = sample_kset_uniform(g, 2, rng)
        counts[s] = counts.get(s, 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c / draws - 1 / 6) < 0.01


def test_uniform_draw_deterministic(tri):
    a = [sample_kset_uniform(tri, 2, make_rng(9)) for _ in range(50)]
    b = [sample_kset_uniform(tri, 2, make_rng(9)) for _ in range(50)]
    assert a == b


def test_local_labels_radius_zero_is_iso_type(p4):
    labs = local_labels(p4, (0, 1), 2, 0)
    assert len(labs) == 1
    full = exact_word_run([p4], 2, 0)[0]
    assert labs[0] == int(full[0][rank((0, 1))]) == iso_type(p4, (0, 1))


def test_local_labels_reject_non_sets(p4):
    for s in [(0, 4), (-1, 2), (1, 1), (0, 1, 2)]:
        with pytest.raises(ParameterError):
            local_labels(p4, s, 2, 1)


def test_local_labels_on_detached_edge(e1i):
    # the ball of {0,1} is just itself; every iteration refines against the
    # empty multiset on the 2-vertex induced subgraph
    labs = local_labels(e1i, (0, 1), 2, 3)
    assert len(labs) == 4
    assert len(set(labs)) == 4  # each refinement re-mixes the previous word


def test_local_labels_match_full_run_words():
    rng = np.random.default_rng(41)
    # (k, edge labels): k = None draws k from {2, 3}
    cases = [(None, False)] * 15 + [(None, True)] * 6 + [(4, False)] * 4 \
        + [(4, True)] * 6
    for fixed_k, edge_labeled in cases:
        n = int(rng.integers(4, 11))
        g = random_graph(rng, n, float(rng.choice([0.3, 0.6])),
                         labeled=bool(rng.integers(2)),
                         edge_labeled=edge_labeled)
        k = int(rng.integers(2, 4)) if fixed_k is None else fixed_k
        if n < k:
            continue
        h = int(rng.integers(0, 4))
        full = exact_word_run([g], k, h)[0]
        for _ in range(4):
            s = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            labs = local_labels(g, s, k, h)
            expected = [int(full[j][rank(s)]) for j in range(h + 1)]
            assert list(labs) == expected


def test_sampling_adds_no_label_to_an_exact_run(mutag):
    # every word the sampler observes is one the exact word run of the
    # same graphs gives, at the same iteration
    graphs = mutag.graphs[::25]
    words = [set(it.tolist()) for it in exact_word_run(graphs, 2, 3)[0]]
    for gi, g in enumerate(graphs):
        for est in (estimate_features_fixed(g, 2, 3, 300, make_rng(gi)),
                    estimate_features_adaptive(g, 2, 3, 0.1, 0.1,
                                               make_rng(gi))):
            for (seen, _), exact in zip(est.masses, words):
                assert set(seen.tolist()) <= exact


@st.composite
def labeled_graphs(draw):
    """Graphs on 1..9 vertices with or without node and edge labels."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    node_labels = draw(st.none() | st.lists(st.integers(0, 2), min_size=n,
                                            max_size=n))
    edge_labels = draw(st.none() | st.lists(
        st.integers(0, 2), min_size=len(edges), max_size=len(edges)))
    return build_graph(n, edges, node_labels=node_labels,
                       edge_labels=edge_labels)


@settings(max_examples=80, deadline=None)
@given(st.lists(labeled_graphs(), min_size=1, max_size=3), st.integers(1, 3),
       st.integers(0, 3), st.data())
def test_sampled_word_partitions_equal_exact_runs(graphs, k, h, data):
    # several graphs, each labeled in up to three batches of 1-8 sets that
    # may share sets: at every iteration, two sampled sets share a word,
    # across graphs and batches, exactly when the exact run over all the
    # graphs gives them one id
    labels, counts = exact_kset_run(graphs, k, h)
    first = np.cumsum([0] + counts).tolist()
    words, ids = [], []
    for gi, g in enumerate(graphs):
        sets = list(itertools.combinations(range(g.num_vertices), k))
        for _ in range(data.draw(st.integers(0, 3)) if sets else 0):
            batch = data.draw(st.lists(st.sampled_from(sets), min_size=1,
                                       max_size=8, unique=True))
            words.append(_label_sets(g, np.array(batch), h))
            rows = [first[gi] + rank(t) for t in batch]
            ids.append(np.stack([it[rows] for it in labels], axis=1))
    if not words:
        return
    words, ids = np.concatenate(words), np.concatenate(ids)
    assert words.dtype == np.uint64 and words.shape == ids.shape
    for it in range(h + 1):
        assert (label_groups(words[:, it].tolist())
                == label_groups(ids[:, it].tolist()))


@st.composite
def bounded_degree_graphs(draw, max_degree=4):
    """Graphs on 3..12 vertices: drawn pairs become edges in turn while
    both ends have fewer than ``max_degree`` neighbors."""
    n = draw(st.integers(3, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=30))
    degrees, edges = [0] * n, set()
    for u, v in pairs:
        e = (min(u, v), max(u, v))
        if u != v and e not in edges and max(degrees[u],
                                             degrees[v]) < max_degree:
            edges.add(e)
            degrees[u] += 1
            degrees[v] += 1
    return build_graph(n, sorted(edges))


@settings(max_examples=150, deadline=None)
@given(bounded_degree_graphs(), st.integers(2, 3), st.integers(0, 3),
       st.data())
def test_swap_levels_stay_within_the_per_sample_count_bound(g, k, h, data):
    # a set has at most k * delta local candidates and k^2 * delta swaps, so
    # a sample reaches at most sum_{j <= h} (k^2 delta)^j sets, whatever n
    fan = k * k * int(np.diff(g.indptr).max(initial=0))
    bound = sum(fan ** j for j in range(h + 1))
    every = list(itertools.combinations(range(g.num_vertices), k))
    picks = data.draw(st.lists(st.sampled_from(every), min_size=1,
                               max_size=4, unique=True))
    for sample in [[t] for t in picks] + [picks]:
        rows, sizes, indptr, offsets = swap_levels(g, np.array(sample), h)
        assert len(rows) <= len(sample) * bound
        # the CSR rows are the sets within h - 1 swaps, each with <= fan
        assert len(indptr) - 1 == (sizes[-2] if h else 0)
        assert np.diff(indptr).max(initial=0) <= fan


def test_fixed_estimate_on_triangle(tri):
    est = estimate_features_fixed(tri, 2, 2, 500, make_rng(1))
    assert est.sample_count == 500
    for blk in estimate_blocks(est):
        assert list(blk.values()) == [1.0]


def test_fixed_estimate_equals_the_per_set_count_oracle(mutag):
    # the same seed draws the same sets; every block holds their labels'
    # counts over the sample size, in ascending label order
    g = mutag.graphs[3]
    est = estimate_features_fixed(g, 2, 3, 700, make_rng(11))
    sets, counts = np.unique(_draw_batch(g.num_vertices, 2, 700, make_rng(11)),
                             axis=0, return_counts=True)
    want = [{} for _ in range(4)]
    for s, c in zip(sets.tolist(), counts.tolist()):
        for it, lab in enumerate(local_labels(g, s, 2, 3)):
            want[it][lab] = want[it].get(lab, 0) + c
    assert est.sample_count == 700 and est.rounds == []
    assert estimate_blocks(est) == [
        {lab: c / 700 for lab, c in blk.items()} for blk in want]
    assert all(list(blk) == sorted(blk) for blk in estimate_blocks(est))


@pytest.mark.parametrize("estimate", [
    lambda g, rng: estimate_features_fixed(g, 9, 1, 10, rng),
    lambda g, rng: estimate_features_adaptive(g, 9, 1, 0.1, 0.1, rng)],
    ids=["fixed", "adaptive"])
def test_estimators_refuse_k_nine_before_drawing(estimate):
    class NoDraws:
        def integers(self, *args, **kwargs):
            raise AssertionError("a set was drawn")
    g = build_graph(12, [(i, i + 1) for i in range(11)])
    with pytest.raises(ResourceLimitError, match="largest supported k is 7"):
        estimate(g, NoDraws())


def test_fixed_estimate_single_sample(p4):
    est = estimate_features_fixed(p4, 2, 1, 1, make_rng(3))
    for blk in estimate_blocks(est):
        assert list(blk.values()) == [1.0]


def test_fixed_estimate_blocks_sum_to_one():
    rng = np.random.default_rng(44)
    g = random_graph(rng, 9, 0.5)
    est = estimate_features_fixed(g, 2, 2, 333, make_rng(5))
    for blk in estimate_blocks(est):
        assert abs(sum(blk.values()) - 1.0) <= 1e-9


def test_fixed_estimate_undersized_graph():
    g = build_graph(2, [(0, 1)])
    est = estimate_features_fixed(g, 3, 2, 100, make_rng(0))
    assert est.sample_count == 0
    assert estimate_blocks(est) == [{}, {}, {}]


def test_fixed_estimate_rejects_zero_samples(tri):
    with pytest.raises(ParameterError):
        estimate_features_fixed(tri, 2, 1, 0, make_rng(0))


def test_estimator_is_unbiased():
    # average many independent estimates and compare to the exact
    # normalized histogram within three standard errors
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    exact = exact_word_run([g], 2, 1)[0]
    hist = histogram(exact[1])
    total = sum(hist.values())
    runs, samples = 60, 40
    sums = {}
    for r in range(runs):
        est = estimate_features_fixed(g, 2, 1, samples, make_rng(1000 + r))
        for lab, mass in estimate_blocks(est)[1].items():
            sums[lab] = sums.get(lab, 0.0) + mass
    for lab, count in hist.items():
        p = count / total
        mean = sums.get(lab, 0.0) / runs
        se = np.sqrt(p * (1 - p) / (runs * samples))
        assert abs(mean - p) <= 3 * se + 1e-12, (lab, mean, p, se)


def test_fixed_estimate_l1_accuracy_on_benchmark_graph(mutag):
    # 2000 samples at h=1 land within L1 distance 0.1 of the exact
    # normalized block (the Hoeffding bound would demand far more samples
    # for this guarantee; the check uses a fixed seed)
    g = mutag.graphs[0]
    exact = exact_word_run([g], 2, 1)[0]
    hist = histogram(exact[1])
    total = sum(hist.values())
    est = estimate_features_fixed(g, 2, 1, 2000, make_rng(70))
    masses = estimate_blocks(est)[1]
    labels = set(hist) | set(masses)
    l1 = sum(abs(hist.get(l, 0.0) / total - masses.get(l, 0.0))
             for l in labels)
    assert l1 <= 0.1


@pytest.mark.parametrize("h", [0, 3])
def test_observed_label_count_is_an_exact_runs_label_space(mutag, h):
    # a persistent interner issues consecutive ids and no id at two
    # iterations, so the distinct (iteration, label) pairs are the
    # manifest's label_space at h
    interned, _ = interned_exact_run(mutag.graphs, 2, h)
    labels, _ = exact_kset_run(mutag.graphs, 2, h)
    count = observed_label_count(labels)
    assert count == int(labels[-1].max()) + 1 == int(interned[-1].max()) + 1


def test_massart_bound_frozen_example():
    state = state_of([[10], [11], [12]], [2, 1, 1])
    assert state.m == 4 and state.words[0].tolist() == [10, 11, 12]
    assert state.counts[0].tolist() == [2, 1, 1]
    assert pair_counts(state).tolist() == [2, 1, 1]
    bound = massart_deviation_bound(state, 0.5)
    expected = (2 * dense_grid_rademacher([2, 1, 1], 4)
                + hoeffding_term(4, 0.5))
    assert bound == pytest.approx(expected, rel=1e-5)
    assert massart_closed_form(state, 0.5) == pytest.approx(MASSART_EXAMPLE,
                                                             abs=1e-12)
    assert bound < MASSART_EXAMPLE


def test_massart_single_label_closed_form():
    # one pair of count m: R = K / sqrt(m) with K = min_u ln(1 + e^(u^2/2)) / u
    # (s = u sqrt(m)), below Massart's sqrt(2 ln 2) / sqrt(m)
    K = dense_grid_rademacher([1], 1)
    assert K < math.sqrt(2 * math.log(2))
    for m in (1, 4, 16, 100):
        state = state_of([[7]], [m])
        bound = massart_deviation_bound(state, 0.5)
        expected = 2 * K / np.sqrt(m) + 3 * np.sqrt(np.log(4) / (2 * m))
        assert bound == pytest.approx(expected, rel=1e-5)
        closed = (2 * np.sqrt(2 * np.log(2) / m)
                  + 3 * np.sqrt(np.log(4) / (2 * m)))
        assert massart_closed_form(state, 0.5) == pytest.approx(closed,
                                                                rel=1e-12)
        assert bound < closed


def test_massart_decreasing_under_proportional_growth():
    previous = np.inf
    for scale in (1, 2, 4, 8):
        state = state_of([[0], [1], [2]], [2 * scale, scale, scale])
        bound = massart_deviation_bound(state, 0.1)
        assert bound < previous
        previous = bound


def test_massart_bound_finite_at_tiny_delta():
    # 2 / 1e-308 overflows to inf, ln 2 - ln 1e-308 is about 709.9
    state = state_of([[7]], [16])
    K = dense_grid_rademacher([1], 1)
    for delta in (1e-308, 5e-324):
        bound = massart_deviation_bound(state, delta)
        assert math.isfinite(bound)
        expected = (2 * K / 4
                    + 3 * math.sqrt((math.log(2) - math.log(delta)) / 32))
        assert bound == pytest.approx(expected, rel=1e-5)


def test_massart_needs_samples():
    with pytest.raises(ParameterError):
        massart_deviation_bound(RademacherState(iterations=1), 0.5)


@st.composite
def count_states(draw):
    """Distinct label rows (one label per iteration, h <= 3) with sample
    multiplicities, observed in two batches."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(
        st.lists(st.integers(0, 60), min_size=width, max_size=width),
        st.integers(1, 500)), min_size=1, max_size=60))
    cut = draw(st.integers(0, len(rows) - 1))
    state = RademacherState(iterations=width - 1)
    for part in (rows[:cut], rows[cut:]):
        if part:
            state.observe(np.array([r for r, _ in part]),
                          [c for _, c in part])
    return state


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.tuples(
    st.lists(st.integers(0, 3) | st.integers(2 ** 64 - 3, 2 ** 64 - 1),
             min_size=2, max_size=2), st.integers(1, 9)), max_size=6),
    max_size=4))
def test_rademacher_state_counts_words_across_batches(batches):
    # words anywhere in 64 bits, met again in later batches: each
    # iteration holds its distinct words ascending and their total counts
    state, want = RademacherState(iterations=1), [{}, {}]
    for batch in batches:
        state.observe(np.array([row for row, _ in batch], dtype=np.uint64)
                      .reshape(-1, 2), [c for _, c in batch])
        for row, c in batch:
            for it, word in enumerate(row):
                want[it][word] = want[it].get(word, 0) + c
    assert state.m == sum(c for batch in batches for _, c in batch)
    for words, counts, expected in zip(state.words, state.counts, want):
        assert words.dtype == np.uint64
        assert words.tolist() == sorted(expected)
        assert counts.tolist() == [expected[w] for w in sorted(expected)]


@settings(max_examples=300, deadline=None)
@given(count_states(), st.floats(0.001, 0.999))
def test_bound_never_exceeds_massarts_closed_form(state, delta):
    assert all(c.sum() == state.m for c in state.counts)
    bound = massart_deviation_bound(state, delta)
    assert hoeffding_term(state.m, delta) < bound <= massart_closed_form(
        state, delta)


@pytest.mark.parametrize("seed", range(20))
def test_rademacher_term_is_near_the_dense_grid_minimum(seed):
    # within 2e-5 of the best s on a grid 1,000 times finer and 6 times
    # wider, and not below it beyond that grid's own error
    rng = np.random.default_rng(seed)
    pairs = int(rng.integers(1, 200))
    m = int(rng.integers(pairs, 20_000))
    counts = rng.integers(1, max(2, m // 3), pairs).astype(np.float64)
    dense = dense_grid_rademacher(counts, m, points=40_001)
    assert dense * (1 - 1e-6) <= _rademacher_bound(counts, m) <= dense * (
        1 + 2e-5)


@pytest.mark.parametrize("seed", range(40))
def test_rademacher_term_bounds_the_exact_average(seed):
    # all 2^m sign vectors: E sup over the observed indicator vectors and
    # the zero vector of (1/m) sum_i sigma_i v_i, against the R the bound uses
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 13))
    width = int(rng.integers(1, 4))
    labels = rng.integers(0, int(rng.integers(1, 6)), size=(m, width))
    state = state_of(labels, [1] * m)
    vectors = [np.zeros(m)] + [
        (labels[:, it] == lab).astype(float)
        for it in range(width) for lab in np.unique(labels[:, it])]
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
    exact = float(np.max(signs @ np.array(vectors).T, axis=1).mean()) / m
    delta = 0.1
    used = (massart_deviation_bound(state, delta)
            - hoeffding_term(m, delta)) / 2
    assert used == pytest.approx(_rademacher_bound(pair_counts(state), m),
                                 rel=1e-12)
    assert exact <= used + 1e-12


def test_adaptive_on_triangle_terminates_quickly(tri):
    est = estimate_features_adaptive(tri, 2, 1, 0.5, 0.1, make_rng(2))
    assert len(est.rounds) <= 4
    for blk in estimate_blocks(est):
        assert list(blk.values()) == [1.0]


def test_adaptive_doubling_totals(tri):
    est = estimate_features_adaptive(tri, 2, 1, 0.05, 0.1, make_rng(2))
    for i, entry in enumerate(est.rounds):
        assert entry["batch"] == 100 * 2 ** i
        assert entry["total"] == 100 * (2 ** (i + 1) - 1)
    assert est.sample_count == est.rounds[-1]["total"]


def test_adaptive_bound_log_matches_termination(tri):
    est = estimate_features_adaptive(tri, 2, 1, 0.3, 0.2, make_rng(8))
    *rest, last = est.rounds
    assert all(entry["bound"] > 0.3 for entry in rest)
    assert last["bound"] <= 0.3


def test_adaptive_sample_cap(tri):
    with pytest.raises(ResourceLimitError):
        estimate_features_adaptive(tri, 2, 1, 0.001, 0.1, make_rng(0), max_total_samples=1000)


def test_adaptive_rounds_stop_before_their_delta_underflows(tri):
    # 2^-1070 * 2^-(i+1) is 0.0 from round 4; epsilon is out of reach
    with pytest.raises(ResourceLimitError) as info:
        estimate_features_adaptive(tri, 2, 1, 0.01, 2.0 ** -1070, make_rng(0))
    message = str(info.value)
    assert message.startswith("adaptive sampling ran out of rounds: delta * "
                              "2^-5 is 0.0 (drawn 1500 samples in 4 rounds, "
                              "last bound ")
    assert message.endswith("target epsilon 0.01); raise delta or epsilon")
    last_bound = message.split("last bound ")[1].split(",")[0]
    assert math.isfinite(float(last_bound)), last_bound


def test_adaptive_rounds_split_delta_geometrically(tri):
    est = estimate_features_adaptive(tri, 2, 1, 0.1, 0.2, make_rng(4))
    deltas = [entry["delta"] for entry in est.rounds]
    assert len(deltas) > 3
    assert deltas == [0.2 * 2.0 ** -(i + 1) for i in range(len(deltas))]
    assert sum(deltas) < 0.2
    for entry in est.rounds:
        state = RademacherState(iterations=1)
        state.observe(np.zeros((1, 2), dtype=np.int64), [entry["total"]])
        assert entry["bound"] == massart_deviation_bound(state,
                                                         entry["delta"])


def test_adaptive_undersized_graph():
    g = build_graph(2, [(0, 1)])
    est = estimate_features_adaptive(g, 3, 1, 0.1, 0.1, make_rng(0))
    assert est.sample_count == 0


def test_seed_controls_the_run(tri):
    a = estimate_features_fixed(tri, 2, 1, 50, make_rng(1))
    b = estimate_features_fixed(tri, 2, 1, 50, make_rng(1))
    c = estimate_features_fixed(tri, 2, 1, 50, make_rng(2))
    assert estimate_blocks(a) == estimate_blocks(b)
    assert a.sample_count == c.sample_count == 50


def test_fixed_estimate_beyond_64_bit_ranks(long_path):
    # n^k passes 2^63, so the memo sorts rows instead of int64 keys, and no
    # rank table is ever built
    est = estimate_features_fixed(long_path, 4, 1, 30, make_rng(0))
    assert est.sample_count == 30
    for blk in estimate_blocks(est):
        assert abs(sum(blk.values()) - 1.0) <= 1e-9


def test_adaptive_rounds_label_each_drawn_set_once(monkeypatch, mutag):
    # one memo table serves every round: each distinct set drawn in any
    # round is labeled exactly once, with its own words
    g, labeled = mutag.graphs[3], []

    def recorded(g, sets, h):
        words = _label_sets(g, sets, h)
        labeled.extend(zip(map(tuple, sets.tolist()),
                           map(tuple, words.tolist())))
        return words

    monkeypatch.setattr(sampling, "_label_sets", recorded)
    est = estimate_features_adaptive(g, 2, 2, 0.05, 0.1, make_rng(4))
    assert len(est.rounds) >= 4
    rng, drawn = make_rng(4), set()
    for r in est.rounds:   # the estimator's draws, replayed
        batch = _draw_batch(g.num_vertices, 2, r["batch"], rng)
        drawn |= set(map(tuple, batch.tolist()))
    sets = [s for s, _ in labeled]
    assert len(sets) == len(set(sets)) and set(sets) == drawn
    for s, words in labeled:
        assert words == local_labels(g, s, 2, 2)


def test_sampler_times_script_times_every_layer(capsys):
    script = scripts("sampler_times")
    assert script.main(["--sizes", "1000", "--samples", "40", "--repeats",
                        "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    layers = ["estimate", "draw", "swap_levels", "iso_keys", "word_sums",
              "other", "bound"]
    assert lines[1] == "n=1000" and [line.split("  ")[1] for line in
                                     lines[2:]] == [
        *layers, "samples", "drawn_sets", "labeled_sets", "ms_per_sample",
        "ms_per_labeled_set"]
    figures = {name: float(value) for value, name in
               (line.split("  ") for line in lines[2:])}
    assert all(figures[layer] >= 0 for layer in layers)
    # the estimate's draws, each distinct set labeled once with the sets
    # within 2 swaps of it
    g = script.regular_graph(1000, 0)
    drawn = np.unique(_draw_batch(1000, 2, 40, make_rng(0)), axis=0)
    assert figures["samples"] == 40 and figures["drawn_sets"] == len(drawn)
    assert figures["labeled_sets"] == len(swap_levels(g, drawn, 2)[0])
    assert np.diff(g.indptr).tolist() == [3] * 1000
    assert figures["ms_per_sample"] > 0 and figures["ms_per_labeled_set"] > 0
    # every wrapped name is restored
    assert sampling.swap_levels is kwl.swap_levels
    assert sampling.iso_keys is kwl.iso_keys

