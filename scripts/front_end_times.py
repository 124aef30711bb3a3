"""Print in-process median times of the layers of an exact ksetwl run.

Usage: python scripts/front_end_times.py [--dataset DIR] [--name NAME]
           [--kernel kwl-local] [--k 3] [--h 3] [--repeats 5]

Runs ``pipeline.exact_kset_run``, the features and the gram of the checkout
this script belongs to (its ``src/``) on a TU dataset, the bundled MUTAG by
default, ``--repeats`` times in this process.  The front end's iso keys,
its neighbor CSR and every refinement window are timed by wrapping the
names ``pipeline`` calls them by; a missing name raises instead of going
unmeasured.  Prints one ``<median seconds>  <layer>`` line per layer
(``iso_keys``, ``neighbor_csr``, ``window_1`` .. ``window_h``,
``features``, ``gram`` and ``total``, the run plus features plus gram),
then the CSR's entry count and the process's peak RSS in MB.
"""

import argparse
import contextlib
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ksetwl import pipeline  # noqa: E402
from ksetwl.cli import KERNELS  # noqa: E402
from ksetwl.features import gram_matrix  # noqa: E402
from ksetwl.interner import LabelInterner  # noqa: E402
from ksetwl.tu_io import parse_tu_dataset  # noqa: E402

MUTAG = os.path.join(ROOT, "data", "MUTAG")
# layer name -> the name pipeline calls it by
WRAPPED = {"iso_keys": "iso_keys", "neighbor_csr": "_neighbor_csr",
           "window": "refine_coloring_window"}


@contextlib.contextmanager
def _timed(layer, log):
    """Record (layer, seconds, result) in ``log`` for every call pipeline
    makes to the function ``WRAPPED[layer]`` while the context is open."""
    name = WRAPPED[layer]
    original = getattr(pipeline, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        log.append((layer, time.perf_counter() - start, result))
        return result

    setattr(pipeline, name, wrapper)
    try:
        yield
    finally:
        setattr(pipeline, name, original)


def layer_times(graphs, k: int, h: int, local: bool):
    """One timed exact run: the seconds of each layer, the CSR's entry
    count (0 when h = 0 builds no CSR) and the gram."""
    log = []
    with contextlib.ExitStack() as stack:
        for layer in WRAPPED:
            stack.enter_context(_timed(layer, log))
        start = time.perf_counter()
        labels, counts = pipeline.exact_kset_run(graphs, k, h,
                                                 LabelInterner(), local=local)
    ran = time.perf_counter()
    features = pipeline.features_from_label_arrays(labels, counts)
    featured = time.perf_counter()
    gram = gram_matrix(features)
    end = time.perf_counter()
    times, windows, entries = {}, 0, 0
    for layer, seconds, result in log:
        if layer == "window":
            windows += 1
            layer = f"window_{windows}"
        elif layer == "neighbor_csr":
            entries = len(result[1])
        times[layer] = seconds
    times.update(features=featured - ran, gram=end - featured,
                 total=end - start)
    return times, entries, gram


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dataset", default=MUTAG)
    p.add_argument("--name", default=None,
                   help="dataset name prefix (default: directory basename)")
    p.add_argument("--kernel", choices=KERNELS, default="kwl-local")
    p.add_argument("--k", type=int, default=3, help="ignored for wl1")
    p.add_argument("--h", type=int, default=3)
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)
    graphs = parse_tu_dataset(args.dataset, args.name).graphs
    k = 1 if args.kernel == "wl1" else args.k
    local = args.kernel != "kwl-global"
    runs = [layer_times(graphs, k, args.h, local)
            for _ in range(args.repeats)]
    print(f"{args.kernel} k={k} h={args.h}, {len(graphs)} graphs: median "
          f"of {args.repeats} in-process runs")
    for layer in runs[0][0]:
        median = statistics.median(times[layer] for times, _, _ in runs)
        print(f"{median:.4f}  {layer}")
    print(f"{runs[0][1]}  csr_entries")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{peak:.1f}  peak_rss_mb")
    return 0


if __name__ == "__main__":
    sys.exit(main())
