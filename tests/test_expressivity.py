"""Expressive power on the circular skip link graphs CSL(41, R).

CSL(41, R) is the 41-cycle plus the chords i -- i + R (mod 41).  The ten
skips R of Murphy et al. (ICML 2019) give ten 4-regular graphs of one
order that are pairwise non-isomorphic.  Each kernel's power shows as the
number of distinct rows of its exact gram over the ten graphs:

- wl1 sees one graph: 1-WL cannot split regular graphs of one order and
  degree.
- kwl-global at k = 2 sees one graph: set-based global 2-WL is no finer
  than 2-WL, which has the power of 1-WL (Morris et al., AAAI 2019).
- kwl-local at k = 2 splits them more with every iteration, as the naive
  local 2-set refinement of ``reference`` confirms.
"""

from collections import Counter

import numpy as np
import pytest

from ksetwl import (Features, build_graph, exact_kset_run, gram_matrix,
                    la_kset_run)
from ksetwl.pipeline import features_from_label_arrays

from reference import naive_kset_partitions

N, SKIPS = 41, (2, 3, 4, 5, 6, 9, 11, 12, 13, 16)
H = 3


def csl(n: int, skip: int):
    """The cycle on n vertices plus the chords i -- i + skip (mod n)."""
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)]
                       + [(i, (i + skip) % n) for i in range(n)])


@pytest.fixture(scope="module")
def csl_graphs():
    return [csl(N, skip) for skip in SKIPS]


def grams(graphs, run, k: int, local: bool) -> list:
    """The gram of each h = 0..H, cut from one run at H."""
    labels, counts = run(graphs, k, H, local=local)
    features = features_from_label_arrays(labels, counts)
    return [gram_matrix(Features(features.n, features.blocks[:h + 1]))
            for h in range(H + 1)]


def row_classes(gram) -> set:
    """The graphs grouped by equal gram rows."""
    groups = {}
    for i, row in enumerate(gram):
        groups.setdefault(row.tobytes(), []).append(i)
    return {tuple(group) for group in groups.values()}


def test_csl_graphs_are_4_regular(csl_graphs):
    for g in csl_graphs:
        assert g.num_vertices == N
        assert np.diff(g.indptr).tolist() == [4] * N


@pytest.mark.parametrize("k, local, rows", [
    (1, True, [1, 1, 1]),    # 1-WL: one order and one degree
    (2, True, [3, 6, 10]),   # the local 2-set kernel splits them
    (2, False, [1, 1, 1]),   # global 2-WL: no finer than 1-WL
], ids=["wl1", "kwl-local-k2", "kwl-global-k2"])
def test_distinct_gram_rows_on_csl(csl_graphs, k, local, rows):
    exact = grams(csl_graphs, exact_kset_run, k, local)
    linalg = grams(csl_graphs, la_kset_run, k, local)
    for h in range(H + 1):
        assert np.array_equal(exact[h], linalg[h])
    assert [len(row_classes(exact[h])) for h in (1, 2, 3)] == rows


def test_local_k2_splits_agree_with_the_naive_refinement(csl_graphs):
    # a naive partition at h refines those before it, so each graph's
    # label histogram at h determines its whole feature vector up to h
    exact = grams(csl_graphs, exact_kset_run, 2, True)
    partitions = naive_kset_partitions(csl_graphs, 2, H, local=True)
    for h in (1, 2, 3):
        histograms = [Counter() for _ in csl_graphs]
        for (gi, _), label in partitions[h].items():
            histograms[gi][label] += 1
        naive = {}
        for gi, hist in enumerate(histograms):
            naive.setdefault(frozenset(hist.items()), []).append(gi)
        assert row_classes(exact[h]) == {tuple(g) for g in naive.values()}
