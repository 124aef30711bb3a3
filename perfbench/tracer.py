"""Per-layer spans recorded from outside the program.

A :class:`Tracer` replaces named functions in the ksetwl modules with thin
wrappers that time each call and keep counts, then puts the originals back.
Modules bind imported names at import time (``from .kwl import iso_code``),
so every site a layer is reached through is wrapped in the module that calls
it.  A span's self time is its duration minus the time of spans nested in
it.  A name that the program no longer has is reported as absent, and a
count whose hook no longer fits the call is reported under ``hook_errors``;
neither stops the traced run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

_MARK = "__perfbench_original__"


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = defaultdict(int)
        self.per_graph: list[dict] = []
        self.absent: list[str] = []
        self.interners: list = []          # every LabelInterner created
        self.hook_errors: dict[str, str] = {}
        self._patches: list[tuple] = []
        self._stack: list[float] = []      # child time of each open span

    def wrap(self, owner, attr: str, span: str | None = None, hook=None):
        """Wrap ``owner.attr``; ``span`` names the timed span (None: only
        run ``hook``), ``hook(tracer, args, kwargs, result, seconds)`` runs
        after each call that returns and may raise TypeError, IndexError,
        AttributeError or KeyError when the call no longer fits it."""
        original = vars(owner).get(attr)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if not callable(original):
            self.absent.append(label)
            return
        if hasattr(original, _MARK):
            raise RuntimeError(f"{label} is already wrapped")
        record = self.spans.setdefault(span, [0, 0.0, 0.0]) if span else None
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if record is not None:
                stack.append(0.0)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = clock() - t0
                if record is not None:
                    child = stack.pop()
                    record[0] += 1
                    record[1] += dt
                    record[2] += dt - child
                    if stack:
                        stack[-1] += dt
            if hook is not None:
                try:
                    hook(self, args, kwargs, result, dt)
                except (TypeError, IndexError, AttributeError, KeyError) as exc:
                    self.hook_errors.setdefault(label, repr(exc))
            return result

        setattr(wrapper, _MARK, original)
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def calls(self, span: str) -> int:
        return self.spans.get(span, [0, 0.0, 0.0])[0]

    def report(self) -> dict:
        return {"spans": {name: {"calls": c, "total_s": t, "self_s": s}
                          for name, (c, t, s) in sorted(self.spans.items())},
                "counts": dict(sorted(self.counts.items())),
                "per_graph": self.per_graph,
                "absent": sorted(self.absent),
                "hook_errors": self.hook_errors}


# ------------------------------------------------------------ ksetwl layers

def _count_rows(name, position):
    def hook(tracer, args, kwargs, result, dt):
        tracer.counts[name] += len(result[position] if position is not None
                                   else result)
    return hook


def _count_samples(tracer, args, kwargs, result, dt):
    # draw_counts(self, size, rng)
    tracer.counts["sampling.samples"] += int(kwargs.get("size") or args[1])


def _record_graph(tracer, args, kwargs, result, dt):
    # estimate_features_*(g, k, h, ...)
    g = kwargs.get("g") or args[0]
    tracer.per_graph.append({"n": int(g.num_vertices), "seconds": dt,
                             "samples": int(result.sample_count)})


def _remember_interner(tracer, args, kwargs, result, dt):
    tracer.interners.append(args[0])


# (module, owner attribute or None, function name, span, hook).  Each layer
# is wrapped at every module that calls through it.
SITES = (
    ("cli", None, "parse_tu_dataset", "tu_io.parse", None),
    ("cli", None, "features_from_colorings", "pipeline.features", None),
    ("cli", None, "features_from_label_arrays", "pipeline.features", None),
    ("cli", None, "gram_matrix", "features.gram", None),
    ("cli", None, "write_gram_libsvm", "tu_io.write", None),
    ("cli", None, "write_gram_csv", "tu_io.write", None),
    ("cli", None, "write_features_sparse", "tu_io.write", None),
    ("pipeline", None, "estimate_features_fixed", "sampling.estimate",
     _record_graph),
    ("pipeline", None, "estimate_features_adaptive", "sampling.estimate",
     _record_graph),
    ("pipeline", None, "enumerate_ksets", "ksets.enumerate", None),
    ("sampling", None, "enumerate_ksets", "ksets.enumerate", None),
    ("kwl", None, "enumerate_ksets", "ksets.enumerate", None),
    ("ksets", "KSetIndex", "all_sets", "ksets.enumerate",
     _count_rows("ksets.sets", None)),
    ("pipeline", None, "iso_code", "kwl.iso_code", None),
    ("sampling", None, "iso_code", "kwl.iso_code", None),
    ("kwl", None, "iso_code", "kwl.iso_code", None),
    ("pipeline", None, "_neighbor_csr", "kwl.neighbor_csr",
     _count_rows("kwl.kset_edges", 1)),
    ("sampling", None, "_neighbor_csr", "kwl.neighbor_csr",
     _count_rows("kwl.kset_edges", 1)),
    ("kwl", None, "_neighbor_csr", "kwl.neighbor_csr",
     _count_rows("kwl.kset_edges", 1)),
    ("pipeline", None, "refine_coloring_window", "interner.refine_window", None),
    ("sampling", None, "refine_coloring_window", "interner.refine_window", None),
    ("kwl", None, "refine_coloring_window", "interner.refine_window", None),
    ("interner", "LabelInterner", "__init__", None, _remember_interner),
    ("sampling", None, "_prepare_local_context", "sampling.ball_context", None),
    ("sampling", None, "c_neighborhood", "kwl.c_neighborhood", None),
    ("sampling", None, "induced_subgraph", "graph.induced_subgraph", None),
    ("sampling", None, "_label_contexts", "sampling.label", None),
    ("sampling", "_SampleLabeler", "draw_counts", "sampling.draw",
     _count_samples),
    ("sampling", None, "massart_deviation_bound", "sampling.bound", None),
)


def install(tracer: Tracer, package: str = "ksetwl", sites=SITES) -> Tracer:
    """Wrap every site of ``sites`` that exists in ``package``."""
    for module_name, owner_name, attr, span, hook in sites:
        try:
            module = importlib.import_module(f"{package}.{module_name}")
        except ImportError:
            tracer.absent.append(f"{module_name}.{attr}")
            continue
        owner = module if owner_name is None else getattr(module, owner_name,
                                                          None)
        if owner is None:
            tracer.absent.append(f"{module_name}.{owner_name}.{attr}")
            continue
        tracer.wrap(owner, attr, span, hook)
    return tracer
