"""Color refinement on vertices (1-WL) and its subtree features.

Iteration 0 interns the raw node labels, or vertex degrees when the graph is
unlabeled.  Each later iteration relabels every vertex by its previous label
together with the ascending multiset of neighbor labels.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .graph import Graph
from .interner import (Coloring, LabelInterner, initial_key,
                       refine_coloring_window, split_rows)


def initial_values(g: Graph) -> np.ndarray:
    """Raw iteration-0 values: node labels when present, else degrees."""
    if g.node_labels is not None:
        return g.node_labels.astype(np.int64)
    return np.diff(g.indptr)


def initial_colorings(graphs, interner: LabelInterner) -> list[Coloring]:
    """Iteration-0 colorings for a batch of graphs under one intern window."""
    values = [initial_values(g) for g in graphs]
    ids = interner.intern_window(
        (initial_key(int(v)) for vals in values for v in vals), depth=0)
    return [Coloring(0, labels)
            for labels in split_rows(ids, [len(vals) for vals in values])]


def initial_coloring(g: Graph, interner: LabelInterner) -> Coloring:
    return initial_colorings([g], interner)[0]


def wl1_step(g: Graph, coloring: Coloring, interner: LabelInterner) -> Coloring:
    """One refinement step for a single graph."""
    return refine_coloring_window([(g.indptr, g.indices, coloring)],
                                  interner, depth=coloring.iteration + 1)[0]


def wl1_colorings(g: Graph, h: int, interner: LabelInterner) -> list[Coloring]:
    """Colorings for iterations 0..h of one graph.

    Exactly h steps are executed even if the partition stabilizes early;
    the kernel counts all h+1 blocks and stable partitions still contribute
    fresh block entries.
    """
    if h < 0:
        raise ParameterError("iteration count h must be nonnegative")
    out = [initial_coloring(g, interner)]
    for _ in range(h):
        out.append(wl1_step(g, out[-1], interner))
    return out


def wl1_histograms(g: Graph, h: int,
                   interner: LabelInterner | None = None) -> list[dict]:
    """Per-iteration label histograms (the subtree feature blocks).

    Histograms of different graphs are only comparable when computed under
    one shared interner; without one, each call labels in its own space.
    """
    interner = interner if interner is not None else LabelInterner()
    return [c.histogram() for c in wl1_colorings(g, h, interner)]


def distinguishable(g1: Graph, g2: Graph, h: int) -> bool:
    """Isomorphism-heuristic mode: do the label histograms of the two graphs
    ever differ within h refinement steps?

    Runs both graphs in lockstep with a private interner and stops early
    once the joint partition is stable, after which no further iteration
    can separate them.  This termination rule applies only here, never in
    kernel mode.
    """
    interner = LabelInterner()
    cols = initial_colorings([g1, g2], interner)
    joint_classes = len(np.unique(np.concatenate([c.labels for c in cols])))
    for it in range(h + 1):
        if cols[0].histogram() != cols[1].histogram():
            return True
        if it == h:
            break
        cols = refine_coloring_window(
            [(g1.indptr, g1.indices, cols[0]), (g2.indptr, g2.indices, cols[1])],
            interner, depth=it + 1)
        new_classes = len(np.unique(np.concatenate([c.labels for c in cols])))
        if new_classes == joint_classes:
            return False
        joint_classes = new_classes
    return False
