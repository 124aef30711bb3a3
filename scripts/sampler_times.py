"""Print in-process median times of the sampler's layers on seeded random
3-regular graphs, per sample and per labeled set.

Usage: python scripts/sampler_times.py [--sizes 1000 4000 16000 64000]
           [--samples 10000] [--k 2] [--h 2] [--seed 0] [--repeats 3]

For each size n, builds a random 3-regular graph on n vertices with 4 node
labels from ``--seed`` (the configuration model, redrawn until simple)
and runs one ``sampling.estimate_features_fixed`` of ``--samples``
samples, from the checkout this script belongs to (its ``src/``),
``--repeats`` times in this process.  The layers are timed by wrapping the
names ``sampling`` calls them by: ``_draw_batch`` (draw), ``swap_levels``,
``iso_keys`` and ``word_sums`` (the refinement windows); a missing name
raises instead of going unmeasured.  A fixed estimate tests no deviation
bound, so after each estimate ``massart_deviation_bound`` is called once,
through its wrapped name, on a state holding the estimate's label counts,
as an adaptive round of that many samples would call it.

Prints one ``n=<n>`` line per size, then one ``<value>  <name>`` line
each: the median seconds of ``estimate`` (the whole estimate), ``draw``,
``swap_levels``, ``iso_keys``, ``word_sums``, ``other`` (the estimate
minus those four layers: the memo, its dedupe and the counts) and
``bound``; then ``samples``, ``drawn_sets`` (the distinct sets drawn,
each labeled once), ``labeled_sets`` (the sets within h swaps of them
that ``swap_levels`` returns, whose words are computed), and the
estimate's ``ms_per_sample`` and ``ms_per_labeled_set``.  The paper's
bounded-degree claim is that the last one stays flat in n.
"""

import argparse
import contextlib
import functools
import os
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ksetwl import build_graph, make_rng, sampling  # noqa: E402

# layer name -> the name sampling calls it by
WRAPPED = {"draw": "_draw_batch", "swap_levels": "swap_levels",
           "iso_keys": "iso_keys", "word_sums": "word_sums"}
DEGREE, NODE_LABELS, DELTA = 3, 4, 0.05


def regular_graph(n: int, seed: int):
    """A random 3-regular graph on n vertices with 4 node labels, seeded
    by (seed, n): shuffled vertex stubs paired up, redrawn until no pair
    is a loop or a repeat."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [seed, n])))
    stubs = np.repeat(np.arange(n, dtype=np.int64), DEGREE)
    while True:
        rng.shuffle(stubs)
        pairs = np.sort(stubs.reshape(-1, 2), axis=1)
        # a sort finds repeats many times faster than a bare np.unique
        keys = np.sort(pairs[:, 0] * n + pairs[:, 1])
        if np.all(pairs[:, 0] < pairs[:, 1]) and np.all(keys[1:] > keys[:-1]):
            break
    return build_graph(n, pairs, node_labels=rng.integers(0, NODE_LABELS, n))


@contextlib.contextmanager
def _wrapped(name, hook):
    """Route every call to the function ``name`` of ``sampling`` through
    ``hook(original, *args)`` while the context is open."""
    original = getattr(sampling, name)
    setattr(sampling, name, functools.partial(hook, original))
    try:
        yield
    finally:
        setattr(sampling, name, original)


def _timed(layer, log):
    """A hook that records (layer, seconds, args, result) in ``log``."""
    def hook(original, *args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        log.append((layer, time.perf_counter() - start, args, result))
        return result
    return hook


def counts_state(est, h: int):
    """A deviation-bound state holding the label counts of the estimate
    ``est``: each iteration's masses times its sample count."""
    state = sampling.RademacherState(h)
    state.m = est.sample_count
    state.counts = [np.rint(masses * est.sample_count)
                    for _, masses in est.masses]
    return state


def one_run(g, k: int, h: int, samples: int, seed: int):
    """One timed estimate on ``g`` and one bound on its counts: the
    seconds of each layer, and the drawn and the labeled set counts."""
    log = []
    with contextlib.ExitStack() as stack:
        for layer, name in [*WRAPPED.items(),
                            ("bound", "massart_deviation_bound")]:
            stack.enter_context(_wrapped(name, _timed(layer, log)))
        start = time.perf_counter()
        est = sampling.estimate_features_fixed(g, k, h, samples,
                                               make_rng(seed))
        estimate = time.perf_counter() - start
        sampling.massart_deviation_bound(counts_state(est, h), DELTA)
    times = dict.fromkeys([*WRAPPED, "bound"], 0.0)
    drawn = labeled = 0
    for layer, seconds, args, result in log:
        times[layer] += seconds
        if layer == "swap_levels":
            drawn += len(args[1])
            labeled += len(result[0])
    times["other"] = estimate - sum(times[layer] for layer in WRAPPED)
    return {"estimate": estimate, **times}, drawn, labeled


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", type=int, nargs="+",
                   default=[1000, 4000, 16000, 64000])
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args(argv)
    print(f"sampler k={args.k} h={args.h}, {args.samples} samples on random "
          f"3-regular graphs: median of {args.repeats} in-process runs")
    layers = ["estimate", *WRAPPED, "other", "bound"]
    for n in args.sizes:
        g = regular_graph(n, args.seed)
        runs = [one_run(g, args.k, args.h, args.samples, args.seed)
                for _ in range(args.repeats)]
        times = {layer: statistics.median(r[0][layer] for r in runs)
                 for layer in layers}
        _, drawn, labeled = runs[0]
        print(f"n={n}")
        for layer in layers:
            print(f"{times[layer]:.4f}  {layer}")
        print(f"{args.samples}  samples")
        print(f"{drawn}  drawn_sets")
        print(f"{labeled}  labeled_sets")
        print(f"{1e3 * times['estimate'] / args.samples:.6f}  ms_per_sample")
        print(f"{1e3 * times['estimate'] / max(labeled, 1):.6f}  "
              f"ms_per_labeled_set")
    return 0


if __name__ == "__main__":
    sys.exit(main())
