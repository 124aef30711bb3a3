"""Color refinement on vertices (1-WL) and its subtree features.

1-WL is the local k-set refinement at k = 1: iteration 0 interns the raw
node labels, or vertex degrees when the graph is unlabeled, and each later
iteration relabels every vertex by its previous label together with the
ascending multiset of neighbor labels.  The functions here are thin calls
into :func:`ksetwl.pipeline.exact_kset_run`.
"""

from __future__ import annotations

from .graph import Graph
from .interner import Coloring, LabelInterner
from .pipeline import exact_kset_run


def wl1_colorings(g: Graph, h: int, interner: LabelInterner) -> list[Coloring]:
    """Colorings for iterations 0..h of one graph.

    Exactly h steps are executed even if the partition stabilizes early;
    the kernel counts all h+1 blocks and stable partitions still contribute
    fresh block entries.
    """
    return exact_kset_run([g], 1, h, interner)[0]


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

    Runs both graphs in lockstep with a private interner.  The joint
    partition of n1 + n2 vertices is stable after at most n1 + n2 steps, and
    no later step can separate the graphs, so h is capped there.  This
    termination rule applies only here, never in kernel mode.
    """
    h = min(h, g1.num_vertices + g2.num_vertices)
    first, second = exact_kset_run([g1, g2], 1, h, LabelInterner())
    return any(a.histogram() != b.histogram() for a, b in zip(first, second))
