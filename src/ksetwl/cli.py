"""Command-line interface: dataset info, feature export, gram matrices, and
sample-size calculators.

Subcommands: info | features | gram | sample-size.  Exit codes: 0 success,
1 usage error, 2 data/format error, 3 resource-cap error.  Every output file
gets a sibling ``<output>.manifest.json`` recording the full configuration,
seed, wall times and peak resident memory; identical config + seed +
dataset bytes reproduce the output files byte for byte.  Every kernel runs
as k-set refinement: wl1 is the local k-set kernel at k = 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from . import __version__
from .errors import (FormatError, GraphError, KsetwlError, ParameterError,
                     ResourceLimitError)
from .features import (Features, cosine_normalize_gram, gram_matrix,
                       l1_normalize)
from .kwl import DEFAULT_MAX_SETS
from .pipeline import (exact_kset_run, features_from_estimates,
                       features_from_label_arrays, la_kset_run,
                       sampled_dataset_run)
from .sampling import (DEFAULT_MAX_TOTAL_SAMPLES, hoeffding_sample_size,
                       hoeffding_sample_size_dataset)
from .tu_io import (parse_tu_dataset, write_features_sparse, write_gram_csv,
                    write_gram_libsvm)

KERNELS = ("wl1", "kwl-local", "kwl-global")
MODES = ("exact", "linalg", "sampled", "adaptive")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ParameterError (exit 1)."""

    def error(self, message):
        raise ParameterError(message)


def _add_dataset_args(p):
    p.add_argument("--dataset", required=True, help="TU-format dataset directory")
    p.add_argument("--name", default=None,
                   help="dataset name prefix (default: directory basename)")


def _add_compute_args(p):
    p.add_argument("--kernel", choices=KERNELS, required=True)
    p.add_argument("--k", type=int, default=2,
                   help="k-set order (ignored for wl1)")
    p.add_argument("--h", type=int, default=None, help="refinement iterations")
    p.add_argument("--h-sweep", default=None, metavar="LO..HI",
                   help="emit one output per h in the range, e.g. 0..5")
    p.add_argument("--mode", choices=MODES, default="exact")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--gamma", type=int, default=None,
                   help="label-count bound for --mode sampled sizing")
    p.add_argument("--samples", type=int, default=None,
                   help="explicit sample count for --mode sampled")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalize", choices=("none", "l1-block", "l1-full"),
                   default="none")
    p.add_argument("--max-sets", type=int, default=DEFAULT_MAX_SETS,
                   help="refuse exact and linalg runs whose graphs have "
                   "more k-sets than this in total")
    p.add_argument("--max-samples", type=int,
                   default=DEFAULT_MAX_TOTAL_SAMPLES)
    p.add_argument("--output", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ksetwl", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_info = sub.add_parser("info", help="print dataset statistics")
    _add_dataset_args(p_info)

    p_feat = sub.add_parser("features", help="write per-graph feature vectors")
    _add_dataset_args(p_feat)
    _add_compute_args(p_feat)

    p_gram = sub.add_parser("gram", help="write the gram matrix")
    _add_dataset_args(p_gram)
    _add_compute_args(p_gram)
    p_gram.add_argument("--gram-normalize", action="store_true",
                        help="cosine-normalize the gram matrix")
    p_gram.add_argument("--format", choices=("libsvm", "csv"), default="libsvm")

    p_size = sub.add_parser("sample-size", help="evaluate sample-size bounds")
    p_size.add_argument("--gamma", type=int, required=True)
    p_size.add_argument("--delta", type=float, required=True)
    p_size.add_argument("--epsilon", type=float, required=True)
    p_size.add_argument("--dataset-size", type=int, default=None)
    return parser


def _parse_h_values(args) -> list[int]:
    if args.h_sweep is not None:
        if args.h is not None:
            raise ParameterError("give either --h or --h-sweep, not both")
        lo, sep, hi = args.h_sweep.partition("..")
        if not sep:
            raise ParameterError("--h-sweep expects LO..HI, e.g. 0..5")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError as exc:
            raise ParameterError("--h-sweep expects integer bounds") from exc
        if lo < 0 or hi < lo:
            raise ParameterError("--h-sweep range is empty or negative")
        return list(range(lo, hi + 1))
    if args.h is None:
        raise ParameterError("--h is required (or use --h-sweep)")
    if args.h < 0:
        raise ParameterError("--h must be nonnegative")
    return [args.h]


def _validate_mode(args) -> None:
    if args.kernel != "wl1" and args.k < 2:
        raise ParameterError("--k must be at least 2 for k-set kernels")
    if args.mode in ("sampled", "adaptive") and args.kernel != "kwl-local":
        raise ParameterError(
            f"--mode {args.mode} estimates the local k-set kernel; "
            "use --kernel kwl-local")
    if args.max_samples < 1 or args.max_sets < 0:
        raise ParameterError("--max-samples must be at least 1 and --max-sets "
                             "at least 0")
    if args.mode == "sampled" and args.samples is None and args.gamma is None:
        raise ParameterError(
            "--mode sampled needs --samples, or --gamma to derive one")


def _compute_features(graphs, args, h_values):
    """Yield (h, features, manifest extras) for each h of ``h_values``.

    Labels of iterations 0..h depend on no later iteration, and a fixed
    sample is drawn alike at every h, so each mode but adaptive runs once
    at the largest h and cuts each output from the first h + 1 feature
    blocks.  Adaptive rounds stop by a rule that depends on h.
    """
    adaptive = args.mode == "adaptive"
    for top in (h_values if adaptive else h_values[-1:]):
        features, extra = _run_features(graphs, args, top)
        for h in ([top] if adaptive else h_values):
            blocks = features.blocks[:h + 1]
            # each iteration's ids run from 0 to its label count - 1
            space = sum(int(label.max(initial=-1)) + 1
                        for _, label, _ in blocks)
            yield h, Features(features.n, blocks), {"label_space": space,
                                                    **extra}


def _run_features(graphs, args, h: int):
    """The features of one run of ``h`` iterations, plus manifest extras."""
    if args.mode in ("exact", "linalg"):
        run = exact_kset_run if args.mode == "exact" else la_kset_run
        labels, counts = run(graphs, 1 if args.kernel == "wl1" else args.k,
                             h, local=args.kernel != "kwl-global",
                             max_sets=args.max_sets)
        return features_from_label_arrays(labels, counts), {}
    extra, sample_count = {}, args.samples
    if args.mode == "sampled" and sample_count is None:
        sample_count = extra["derived_sample_count"] = hoeffding_sample_size(
            args.epsilon, args.delta, args.gamma)
    estimates = sampled_dataset_run(
        graphs, args.k, h, seed=args.seed, mode=args.mode,
        sample_count=sample_count, epsilon=args.epsilon, delta=args.delta,
        max_total_samples=args.max_samples)
    extra["sample_counts"] = [est.sample_count for est in estimates]
    empty = [i for i, est in enumerate(estimates) if est.sample_count == 0]
    if empty:
        extra["undersized_graphs"] = empty
    if args.mode == "adaptive":
        extra["rounds"] = {str(i): est.rounds
                           for i, est in enumerate(estimates)}
    return features_from_estimates(estimates), extra


def _manifest(args, path: str, timings: dict, extra: dict) -> None:
    payload = {
        "tool": {"name": "ksetwl", "version": __version__},
        "config": {key: value for key, value in sorted(vars(args).items())
                   if key != "command"},
        "command": args.command,
        "wall_times_sec": timings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        **extra,
    }
    with open(path + ".manifest.json", "w") as f:
        json.dump(payload, f, indent=2, default=str)
        f.write("\n")


def _run_info(args) -> int:
    ds = parse_tu_dataset(args.dataset, args.name)
    stats = ds.stats()
    print(f"dataset: {stats['name']}")
    print(f"graphs: {stats['graphs']}")
    print(f"classes: {stats['classes']}")
    print(f"avg nodes: {stats['avg_nodes']:.1f}")
    print(f"avg edges: {stats['avg_edges']:.1f}")
    print(f"node labels: {'yes' if stats['node_labels'] else 'no'}")
    print(f"edge labels: {'yes' if stats['edge_labels'] else 'no'}")
    return 0


def _run_sample_size(args) -> int:
    if args.dataset_size is None:
        print(hoeffding_sample_size(args.epsilon, args.delta, args.gamma))
    else:
        print(hoeffding_sample_size_dataset(args.epsilon, args.delta,
                                            args.gamma, args.dataset_size))
    return 0


def _run_compute(args) -> int:
    h_values = _parse_h_values(args)
    _validate_mode(args)
    t0 = time.perf_counter()
    ds = parse_tu_dataset(args.dataset, args.name)
    t_load = time.perf_counter() - t0
    stats = ds.stats()
    totals = {key: stats[key] for key in ("graphs", "vertices", "edges")}
    sweeping = len(h_values) > 1
    t1 = time.perf_counter()
    for h, features, extra in _compute_features(ds.graphs, args, h_values):
        if args.normalize != "none":
            scope = ("per-block" if args.normalize == "l1-block"
                     else "whole-vector")
            features = l1_normalize(features, scope)
        t_compute = time.perf_counter() - t1
        out = f"{args.output}.h{h}" if sweeping else args.output
        timings = {"load": t_load, "compute": t_compute}
        t2 = time.perf_counter()
        if args.command == "features":
            write_features_sparse(features, ds.class_labels, out)
        else:
            K = gram_matrix(features)
            if args.gram_normalize:
                K = cosine_normalize_gram(K)
            timings["gram"] = time.perf_counter() - t2
            t2 = time.perf_counter()
            if args.format == "libsvm":
                write_gram_libsvm(K, ds.class_labels, out)
            else:
                write_gram_csv(K, out)
        timings["write"] = time.perf_counter() - t2
        _manifest(args, out, timings,
                  {"dataset": totals, **extra, "h": h})
        t1 = time.perf_counter()
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "info":
            return _run_info(args)
        if args.command == "sample-size":
            return _run_sample_size(args)
        return _run_compute(args)
    except ParameterError as exc:
        print(f"ksetwl: usage error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, GraphError, OSError) as exc:
        print(f"ksetwl: data error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, MemoryError) as exc:
        print(f"ksetwl: resource limit: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return 3
    except KsetwlError as exc:
        print(f"ksetwl: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
