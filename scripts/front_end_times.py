"""Print in-process median times of the layers of an exact or linalg ksetwl
run, and its memory figures.

Usage: python scripts/front_end_times.py [--dataset DIR] [--name NAME]
           [--kernel kwl-local] [--k 3] [--h 3] [--mode exact]
           [--repeats 5]

Runs ``pipeline.exact_kset_run`` (or ``pipeline.la_kset_run`` with
``--mode linalg``), the features, the gram and its libsvm write (to a
temporary directory) of the checkout this script belongs to (its
``src/``) on a TU dataset, the bundled MUTAG by default, ``--repeats``
times in this process.  The front end's stacked set array, its iso keys,
its neighbor CSR and every refinement window (in linalg runs, one
``word_sums`` and the ``_dense_ranks`` of its words) are timed by wrapping
the names ``pipeline`` calls them by; a missing name raises instead of
going unmeasured.  Prints one ``<median seconds> <layer>`` line per layer
(``sets``, ``iso_keys``, ``neighbor_csr``, ``window_1`` .. ``window_h``,
``features``, ``gram``, ``write`` and ``total``, the run plus features
plus gram plus write), then the CSR's entry count and its size in MB (row
pointer plus offsets).  One more run, untimed, under tracemalloc, gives
the run's peak in MB (``traced_peak_mb``) and each layer's peak above
what was allocated when it was entered (``<layer>_peak_mb``; a linalg
window's from its ``word_sums`` to its ``_dense_ranks``).  Then come one
``<count>  window_<i>_labels`` line per window, the distinct labels its
step issued, and, in exact runs, one ``<count>  window_<i>_largest_table``
line per window: the most distinct keys one ``number_window`` call of
the window numbered, which is the largest table it held, since an exact
window numbers its keys one run of own-label classes at a time.  The
tracemalloc peaks count what numpy and Python allocate, so unlike the
process's peak RSS they do not move with heap layout or with what earlier
runs left behind; the CLI manifest's ``peak_rss_mb`` gives one run's.
"""

import argparse
import contextlib
import functools
import os
import statistics
import sys
import tempfile
import time
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ksetwl import interner, pipeline  # noqa: E402
from ksetwl.cli import KERNELS  # noqa: E402
from ksetwl.features import gram_matrix  # noqa: E402
from ksetwl.tu_io import parse_tu_dataset, write_gram_libsvm  # noqa: E402

MUTAG = os.path.join(ROOT, "data", "MUTAG")
# layer name -> the name pipeline calls it by
WRAPPED = {"sets": "stacked_sets", "iso_keys": "iso_keys",
           "neighbor_csr": "_neighbor_csr"}
# mode -> the names pipeline calls one refinement window by, in call
# order; the last one returns the window's labels
WINDOWS = {"exact": ["refine_coloring_window"],
           "linalg": ["word_sums", "_dense_ranks"]}
MB = 1 << 20


@contextlib.contextmanager
def _wrapped(name, hook, module=pipeline):
    """Route every call to the function ``name`` of ``module`` (the name
    ``pipeline`` calls it by) through ``hook(original, *args)`` while the
    context is open."""
    original = getattr(module, name)
    setattr(module, name, functools.partial(hook, original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _timed(layer, log):
    """A hook that records (layer, seconds, result) in ``log``."""
    def hook(original, *args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        log.append((layer, time.perf_counter() - start, result))
        return result
    return hook


def _above_entry(layer, log, enter=True, leave=True):
    """A hook that records (layer, bytes) in ``log``: the tracemalloc peak
    from the last entry to the call's return above what was allocated at
    that entry.  A call enters with ``enter``: it records the peak so far as
    (None, bytes) and what is allocated as ("entry", bytes), and resets the
    peak.  Without ``leave`` a call records nothing on return, so a layer
    of several calls enters at its first and leaves at its last."""
    def hook(original, *args, **kwargs):
        if enter:
            log.append((None, tracemalloc.get_traced_memory()[1]))
            tracemalloc.reset_peak()
            log.append(("entry", tracemalloc.get_traced_memory()[0]))
        result = original(*args, **kwargs)
        if leave:
            entry = next(size for name, size in reversed(log)
                         if name == "entry")
            log.append((layer, tracemalloc.get_traced_memory()[1] - entry))
        return result
    return hook


def _tables(log):
    """A ``number_window`` hook that records ("table", distinct keys) in
    ``log``: its ids run densely from its first."""
    def hook(original, keys, first):
        ids = original(keys, first)
        log.append(("table", int(ids.max()) - first + 1 if len(ids) else 0))
        return ids
    return hook


def run(graphs, k: int, h: int, local: bool, mode: str):
    """The label arrays and k-set counts of one exact or linalg run."""
    if mode == "exact":
        return pipeline.exact_kset_run(graphs, k, h, local=local)
    return pipeline.la_kset_run(graphs, k, h, local=local)


def write(gram, classes) -> None:
    """Write the gram as ``ksetwl gram`` does by default, in libsvm form,
    to a file that is deleted afterwards."""
    with tempfile.TemporaryDirectory() as tmp:
        write_gram_libsvm(gram, classes, os.path.join(tmp, "gram"))


def layer_times(ds, k: int, h: int, local: bool, mode: str):
    """One timed run on the dataset ``ds``: the seconds of each layer, the
    CSR's entry count and bytes (0 when h = 0 builds no CSR), the gram and
    the distinct label count of each window."""
    graphs, log, parts = ds.graphs, [], WINDOWS[mode]
    with contextlib.ExitStack() as stack:
        # the calls before a window's last are logged as layer None
        for layer, name in [*WRAPPED.items(), *((None, n) for n in parts[:-1]),
                            ("window", parts[-1])]:
            stack.enter_context(_wrapped(name, _timed(layer, log)))
        start = time.perf_counter()
        labels, counts = run(graphs, k, h, local, mode)
    ran = time.perf_counter()
    features = pipeline.features_from_label_arrays(labels, counts)
    featured = time.perf_counter()
    gram = gram_matrix(features)
    grammed = time.perf_counter()
    write(gram, ds.class_labels)
    end = time.perf_counter()
    times, window_labels, entries, nbytes, before = {}, [], 0, 0, 0.0
    for layer, seconds, result in log:
        if layer is None:
            before += seconds
            continue
        if layer == "window":
            seconds, before = seconds + before, 0.0
            window_labels.append(len(np.unique(result)))
            layer = f"window_{len(window_labels)}"
        elif layer == "neighbor_csr":
            entries = len(result[1])
            nbytes = result[0].nbytes + result[1].nbytes
        times[layer] = seconds
    times.update(features=featured - ran, gram=grammed - featured,
                 write=end - grammed, total=end - start)
    return times, entries, nbytes, gram, window_labels


def traced_peaks(ds, k: int, h: int, local: bool, mode: str):
    """One untimed run on the dataset ``ds``, its features, its gram and
    their write under tracemalloc: the peak in bytes, each layer's peak
    above entry by layer name, and the largest table of each window of an
    exact run."""
    graphs, log, parts = ds.graphs, [], WINDOWS[mode]
    tracemalloc.start()
    try:
        with contextlib.ExitStack() as stack:
            for layer, name in WRAPPED.items():
                stack.enter_context(_wrapped(name, _above_entry(layer, log)))
            for name in parts:
                stack.enter_context(_wrapped(name, _above_entry(
                    "window", log, name == parts[0], name == parts[-1])))
            stack.enter_context(_wrapped("number_window", _tables(log),
                                         interner))
            labels, counts = run(graphs, k, h, local, mode)
        features = _above_entry("features", log)(
            pipeline.features_from_label_arrays, labels, counts)
        gram = _above_entry("gram", log)(gram_matrix, features)
        _above_entry("write", log)(write, gram, ds.class_labels)
        log.append((None, tracemalloc.get_traced_memory()[1]))
    finally:
        tracemalloc.stop()
    peaks, tables, largest = {}, [], 0
    for layer, size in log:
        if layer == "table":
            largest = max(largest, size)
        elif layer == "window":
            tables.append(largest)
            peaks[f"window_{len(tables)}"], largest = size, 0
        elif layer not in (None, "entry"):
            peaks[layer] = size
    return max(size for layer, size in log if layer is None), peaks, (
        tables if mode == "exact" else [])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dataset", default=MUTAG)
    p.add_argument("--name", default=None,
                   help="dataset name prefix (default: directory basename)")
    p.add_argument("--kernel", choices=KERNELS, default="kwl-local")
    p.add_argument("--k", type=int, default=3, help="ignored for wl1")
    p.add_argument("--h", type=int, default=3)
    p.add_argument("--mode", choices=WINDOWS, default="exact")
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)
    ds = parse_tu_dataset(args.dataset, args.name)
    k = 1 if args.kernel == "wl1" else args.k
    local = args.kernel != "kwl-global"
    runs = [layer_times(ds, k, args.h, local, args.mode)
            for _ in range(args.repeats)]
    traced, peaks, tables = traced_peaks(ds, k, args.h, local, args.mode)
    print(f"{args.kernel} {args.mode} k={k} h={args.h}, {len(ds.graphs)} "
          f"graphs: median of {args.repeats} in-process runs")
    for layer in runs[0][0]:
        median = statistics.median(times[layer] for times, *_ in runs)
        print(f"{median:.4f}  {layer}")
    print(f"{runs[0][1]}  csr_entries")
    print(f"{runs[0][2] / MB:.3f}  csr_mb")
    print(f"{traced / MB:.3f}  traced_peak_mb")
    for layer, size in peaks.items():
        print(f"{size / MB:.3f}  {layer}_peak_mb")
    for i, count in enumerate(runs[0][4], 1):
        print(f"{count}  window_{i}_labels")
    for i, count in enumerate(tables, 1):
        print(f"{count}  window_{i}_largest_table")
    return 0


if __name__ == "__main__":
    sys.exit(main())
