"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The heavier criteria (sampling over the bundled MUTAG
benchmark, per-sample timing) take a couple of minutes combined.
"""

import os
import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest

from ksetwl import (KSetIndex, build_graph,
                    estimate_features_adaptive, estimate_features_fixed,
                    exact_kset_run, hoeffding_sample_size,
                    hoeffding_sample_size_dataset, la_kset_run, make_rng)
from ksetwl.features import cosine_normalize_gram, gram_matrix
from ksetwl.pipeline import features_from_label_arrays

from conftest import MUTAG_DIR, SRC_DIR, label_groups, random_graph, scripts
import reference as ref
from reference import (estimate_blocks, graph_slices, histogram,
                       local_labels, psd_check)


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def optimized_partition(g, k, coloring):
    sets = KSetIndex(g.num_vertices, k).all_sets().tolist()
    return label_groups({tuple(t): int(coloring[r])
                         for r, t in enumerate(sets)})


def naive_partition(joint, graph_idx=0):
    return label_groups({tuple(sorted(fs)): lab
                         for (gi, fs), lab in joint.items() if gi == graph_idx})


def test_c01_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240101)
    mismatches = 0
    graphs_checked = 0
    while graphs_checked < 500:
        n = int(rng.integers(4, 11))
        p = float(rng.choice([0.2, 0.5, 0.8]))
        g = random_graph(rng, n, p, labeled=bool(rng.integers(2)))
        graphs_checked += 1
        for k in (2, 3):
            for local in (True, False):
                optimized = exact_kset_run([g], k, 3, local=local)[0]
                naive = ref.naive_kset_partitions([g], k, 3, local=local)
                for it in range(4):
                    if (optimized_partition(g, k, optimized[it])
                            != naive_partition(naive[it])):
                        mismatches += 1
    elapsed = time.perf_counter() - t0
    report("C01", mismatches == 0 and elapsed < 120,
           f"{graphs_checked} graphs x k in (2,3) x local/global x h<=3, "
           f"{mismatches} partition mismatches, {elapsed:.1f}s")


def test_c02_local_labeling_agreement():
    rng = np.random.default_rng(20240102)
    pairs = 0
    violations = 0
    while pairs < 500:
        n = int(rng.integers(4, 13))
        k = int(rng.choice([2, 3]))
        if n < k + 1:
            continue
        h = int(rng.integers(0, 4))
        g = random_graph(rng, n, float(rng.choice([0.3, 0.5, 0.7])),
                         labeled=bool(rng.integers(2)))
        full = exact_kset_run([g], k, h)[0]
        drawn = []
        for _ in range(4):
            s = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            drawn.append((s, local_labels(g, s, k, h)))
            pairs += 1
        for a, la in drawn:
            for b, lb in drawn:
                for j in range(h + 1):
                    local_eq = la[j] == lb[j]
                    global_eq = full[j][ref.rank(a)] == full[j][ref.rank(b)]
                    if local_eq != global_eq:
                        violations += 1
    report("C02", violations == 0,
           f"{pairs} (graph, k-set) pairs, {violations} partition violations")


def test_c03_expressiveness_separation(c6, two_k3):
    wl1_labels, counts = exact_kset_run([c6, two_k3], 1, 5)
    first, second = graph_slices(counts)
    for h in range(6):
        if (histogram(wl1_labels[h][first])
                != histogram(wl1_labels[h][second])):
            report("C03", False, f"1-WL separated the 2-regular pair at h={h}")
    labels, counts = exact_kset_run([c6, two_k3], 2, 1)
    first, second = graph_slices(counts)
    k2_differs = histogram(labels[1][first]) != histogram(labels[1][second])

    # independent confirmation of the derived neighbor-type signatures
    def profiles(g):
        edges = ref.edge_pairs(g)
        out = {}
        for s in combinations(range(6), 2):
            if frozenset(s) in {frozenset(e) for e in edges}:
                continue  # non-edge 2-sets only
            kinds = [ref.naive_iso_class(g, tuple(sorted(t)), edges)
                     for t in ref.naive_local_neighbors(g, s, edges)]
            edge_kind = ref.naive_iso_class(g, (0, 1), edges)
            n_edge = sum(1 for kd in kinds if kd == edge_kind)
            profile = (n_edge, len(kinds) - n_edge)
            out[profile] = out.get(profile, 0) + 1
        return out
    c6_profiles = profiles(c6)
    kk_profiles = profiles(two_k3)
    signatures_ok = (c6_profiles == {(4, 2): 6, (4, 4): 3}
                     and kk_profiles == {(4, 4): 9})
    report("C03", k2_differs and signatures_ok,
           f"1-WL identical h<=5; 2-set local refinement differs at h=1; "
           f"C6 profiles {c6_profiles}, 2xK3 profiles {kk_profiles}")


def test_c04_adaptive_estimates_on_mutag(mutag):
    t0 = time.perf_counter()
    graphs = mutag.graphs
    k, h, eps, delta, seeds = 2, 2, 0.1, 0.1, 10
    # both sides keyed by words: each graph's exact masses from the words
    # of the whole run (whose partition equals the exact run's,
    # test_c04_exact_word_run_partitions_like_the_exact_run)
    words, counts = ref.exact_word_run(graphs, k, h, local=True)
    exact = [[{word: count / len(it[rows]) for word, count in
               histogram(it[rows]).items()} for it in words]
             for rows in graph_slices(counts)]
    total = 0
    failures = 0
    for seed in range(seeds):
        for gi, g in enumerate(graphs):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([7700 + seed, gi])))
            est = estimate_features_adaptive(g, k, h, eps, delta, rng)
            exact_block = exact[gi][h]
            est_block = estimate_blocks(est)[h]
            sup = max(abs(exact_block.get(lab, 0.0) - est_block.get(lab, 0.0))
                      for lab in set(exact_block) | set(est_block))
            total += 1
            if sup > eps:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures <= 0.10 * total and elapsed < 900
    report("C04", ok,
           f"{total} (graph, seed) pairs, {failures} beyond sup-norm {eps} "
           f"({100 * (1 - failures / total):.1f}% within), {elapsed:.0f}s")


def test_c04_exact_word_run_partitions_like_the_exact_run(mutag):
    # the words C04 keys its exact masses by split the k-sets of MUTAG as
    # the exact run's ids do, at every iteration
    words, counts = ref.exact_word_run(mutag.graphs, 2, 2, local=True)
    labels, want = exact_kset_run(mutag.graphs, 2, 2, local=True)
    assert counts == want
    for w, ids in zip(words, labels):
        assert label_groups(w.tolist()) == label_groups(ids.tolist())


def test_c05_constant_per_sample_cost(monkeypatch):
    # time per distinct set labeled: on the smaller graph more of the
    # samples' swap neighborhoods overlap, so a sample labels fewer sets
    nx = pytest.importorskip("networkx")
    from ksetwl import sampling
    labeled, swap_levels = [], sampling.swap_levels

    def counted(g, sets, radius):
        levels = swap_levels(g, sets, radius)
        labeled.append(len(levels[0]))
        return levels

    monkeypatch.setattr(sampling, "swap_levels", counted)
    per_set, sets = {}, {}
    for n in (1000, 8000):
        gnx = nx.random_regular_graph(3, n, seed=99)
        g = build_graph(n, list(gnx.edges()))
        estimate_features_fixed(g, 2, 2, 50, make_rng(1))  # warmup
        # the least of three runs, since other processes can slow any one
        seconds = []
        for _ in range(3):
            labeled.clear()
            t0 = time.perf_counter()
            estimate_features_fixed(g, 2, 2, 1000, make_rng(2))
            seconds.append(time.perf_counter() - t0)
        sets[n] = sum(labeled)
        per_set[n] = min(seconds) / sets[n]
    ratio = per_set[8000] / per_set[1000]
    report("C05", ratio <= 2.0,
           f"per labeled set {per_set[1000] * 1e6:.2f} us at n=1000 "
           f"({sets[1000]} sets) vs {per_set[8000] * 1e6:.2f} us at n=8000 "
           f"({sets[8000]} sets) for 1000 samples (ratio {ratio:.2f} <= 2)")


def test_c06_sample_size_formulas():
    single = hoeffding_sample_size(epsilon=0.1, delta=0.1, gamma=10)
    dataset = hoeffding_sample_size_dataset(lam=0.1, delta=0.1, gamma=10,
                                            dataset_size=100)
    report("C06", single == 26492 and dataset == 49518,
           f"single-graph bound {single} (expect 26492), "
           f"dataset bound {dataset} (expect 49518)")


def test_c07_linear_algebra_equivalence(mutag):
    graphs = mutag.graphs
    mismatches = 0
    hash_wl1, counts = exact_kset_run(graphs, 1, 5)
    la_wl1, la_counts = la_kset_run(graphs, 1, 5)
    assert la_counts == counts
    for rows in graph_slices(counts):
        for it in range(6):
            if (label_groups(la_wl1[it][rows].tolist())
                    != label_groups(hash_wl1[it][rows].tolist())):
                mismatches += 1
    hash_k, counts = exact_kset_run(graphs, 2, 3, local=True)
    la_k, la_counts = la_kset_run(graphs, 2, 3, local=True)
    assert la_counts == counts
    for rows in graph_slices(counts):
        for it in range(4):
            if (label_groups(la_k[it][rows].tolist())
                    != label_groups(hash_k[it][rows].tolist())):
                mismatches += 1
    report("C07", mismatches == 0,
           f"paired-mode linear algebra vs hash partitions on 188 graphs "
           f"(1-WL h=5, local 2-set h=3): {mismatches} mismatches")


def test_c07_linalg_global_k3_partitions_on_mutag(mutag):
    # the partitions of all 185,200 stacked 3-sets agree at an iteration iff
    # each labeling has as many classes as the pairs of both labels
    exact, counts = exact_kset_run(mutag.graphs, 3, 3, local=False)
    la, la_counts = la_kset_run(mutag.graphs, 3, 3, local=False)
    assert la_counts == counts
    for it, (hashed, summed) in enumerate(zip(exact, la)):
        # labels are int32: pair them in int64
        pairs = np.unique(hashed.astype(np.int64) * (int(summed.max()) + 1)
                          + summed)
        assert (len(np.unique(hashed)) == len(pairs)
                == len(np.unique(summed))), f"iteration {it}"


def test_c08_psd_and_normalization(mutag):
    graphs = mutag.graphs
    details = []
    ok = True
    for label, runs in (
            ("1-WL h=5", exact_kset_run(graphs, 1, 5)),
            ("local 2-set h=3", exact_kset_run(graphs, 2, 3))):
        K = cosine_normalize_gram(gram_matrix(
            features_from_label_arrays(*runs)))
        psd = psd_check(K, jitter=1e-8)
        unit_diag = bool(np.all(np.diag(K) == 1.0))
        in_range = bool(K.min() >= 0.0 and K.max() <= 1.0)
        ok = ok and psd and unit_diag and in_range
        details.append(f"{label}: psd={psd}, unit diag={unit_diag}, "
                       f"range=[{K.min():.3f}, {K.max():.3f}]")
    report("C08", ok, "; ".join(details))


def test_c09_dataset_ingestion(mutag):
    stats = mutag.stats()
    distinct_node_labels = len({int(l) for g in mutag.graphs
                                for l in g.node_labels})
    ok = (stats["graphs"] == 188 and stats["classes"] == 2
          and abs(stats["avg_nodes"] - 17.9) <= 0.05
          and abs(stats["avg_edges"] - 19.8) <= 0.05
          and distinct_node_labels == 7)
    report("C09", ok,
           f"graphs={stats['graphs']}, classes={stats['classes']}, "
           f"avg nodes={stats['avg_nodes']:.4f}, avg edges={stats['avg_edges']:.4f}, "
           f"node labels={distinct_node_labels}")


def blas_gram(tmp_path, threads, dataset, args):
    """Gram bytes of ``ksetwl gram`` in a fresh process whose OpenBLAS runs
    ``threads`` threads; no step of a run should depend on them."""
    path = str(tmp_path / f"gram-{threads}.txt")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH":
           os.pathsep.join([SRC_DIR, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-m", "ksetwl.cli", "gram", "--dataset",
                    dataset, *args, "--output", path], env=env, check=True)
    with open(path, "rb") as f:
        return f.read()


KWL2_H3 = ["--kernel", "kwl-local", "--k", "2", "--h", "3"]


def test_c10_thread_count_determinism(tmp_path):
    # exact k=2 on the full benchmark and adaptive mode on every 25th graph,
    # each under 1 and 2 BLAS threads
    subset = scripts("output_digests").write_subset(str(tmp_path / "MUTAGSUB"))
    cases = (("exact", MUTAG_DIR, KWL2_H3),
             ("adaptive", subset, KWL2_H3 + ["--mode", "adaptive",
                                             "--seed", "5"]))
    same = {mode: len({blas_gram(tmp_path, threads, dataset, args)
                       for threads in ("1", "2")}) == 1
            for mode, dataset, args in cases}
    report("C10", all(same.values()),
           f"byte-identical gram files under OPENBLAS_NUM_THREADS 1 vs 2: "
           f"{same}")


@pytest.mark.parametrize("args", [
    KWL2_H3 + ["--mode", "sampled", "--samples", "300", "--seed", "9"],
    KWL2_H3 + ["--normalize", "l1-block"]], ids=["sampled", "l1-block"])
def test_c10_float_grams_under_blas_threads(tmp_path, args):
    assert (blas_gram(tmp_path, "1", MUTAG_DIR, args)
            == blas_gram(tmp_path, "2", MUTAG_DIR, args))
