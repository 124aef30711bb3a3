"""Cross-checks of the optimized refinement against the naive reference.

The reference path shares nothing with the optimized one: explicit
frozensets, full-range vertex scans, and structural keys compressed by
sorted order.  Partitions (not label values) are compared.
"""

import numpy as np

from ksetwl import KSetIndex, exact_kset_run

from conftest import label_groups, random_graph
import reference as ref
from reference import (global_neighbors, graph_slices, histogram,
                       local_neighbors, wl1_colorings)


def optimized_kset_partition(g, k, coloring):
    sets = KSetIndex(g.num_vertices, k).all_sets().tolist()
    return label_groups({tuple(t): int(coloring[r])
                         for r, t in enumerate(sets)})


def naive_partition(joint, graph_idx):
    return label_groups({
        tuple(sorted(fs)): lab
        for (gi, fs), lab in joint.items() if gi == graph_idx
    })


def test_neighborhoods_agree_with_reference():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(3, 10))
        k = int(rng.integers(2, min(3, n) + 1))
        g = random_graph(rng, n, float(rng.choice([0.2, 0.5, 0.8])))
        t = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        assert ({frozenset(s) for s in global_neighbors(g, t)}
                == set(ref.naive_global_neighbors(g, t)))
        assert ({frozenset(s) for s in local_neighbors(g, t)}
                == set(ref.naive_local_neighbors(g, t)))


def test_wl1_partitions_agree_with_reference():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        g = random_graph(rng, n, 0.5, labeled=bool(rng.integers(2)))
        optimized = wl1_colorings(g, 3)
        naive = ref.naive_wl1_partitions([g], 3)
        for it in range(4):
            left = label_groups(optimized[it].tolist())
            right = label_groups({v: lab for (gi, v), lab in naive[it].items()})
            assert left == right


def test_kset_partitions_agree_with_reference():
    rng = np.random.default_rng(23)
    for _ in range(12):
        n = int(rng.integers(4, 10))
        g = random_graph(rng, n, float(rng.choice([0.2, 0.5, 0.8])),
                         labeled=bool(rng.integers(2)))
        for k in (2, 3):
            for local in (True, False):
                optimized = exact_kset_run([g], k, 3, local=local)[0]
                naive = ref.naive_kset_partitions([g], k, 3, local=local)
                for it in range(4):
                    assert (optimized_kset_partition(g, k, optimized[it])
                            == naive_partition(naive[it], 0)), (
                        f"n={n} k={k} local={local} iteration={it}")


def test_cross_graph_consistency_matches_reference(c6, two_k3):
    # joint naive run and stacked optimized run must split the same
    # graph pairs at the same iterations
    from ksetwl.pipeline import exact_kset_run
    optimized, counts = exact_kset_run([c6, two_k3], 2, 2)
    naive = ref.naive_kset_partitions([c6, two_k3], 2, 2, local=True)
    for it in range(3):
        opt_hists = [histogram(optimized[it][rows])
                     for rows in graph_slices(counts)]
        nav_hists = [ref.naive_histograms(naive[it], gi) for gi in (0, 1)]
        assert (opt_hists[0] == opt_hists[1]) == (nav_hists[0] == nav_hists[1])
