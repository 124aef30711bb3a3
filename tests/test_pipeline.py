import numpy as np
import pytest

from ksetwl import (KSetIndex, ParameterError, ResourceLimitError,
                    SampledEstimate, build_graph, gram_matrix)
from ksetwl import interner, kwl, linalg, pipeline
from ksetwl.pipeline import (exact_kset_run, features_from_estimates,
                             features_from_label_arrays, la_kset_run,
                             sampled_dataset_run)
from ksetwl.sampling import _label_sets

from conftest import MUTAG_DIR, label_groups, scripts
from reference import blocks_of, graph_slices


def tiny_and_regular():
    # a 2-vertex graph survives k=3 dataset runs as the all-zero vector
    return [build_graph(2, [(0, 1)]),
            build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])]


def test_dataset_run_tolerates_undersized_graphs():
    feats = features_from_label_arrays(
        *exact_kset_run(tiny_and_regular(), 3, 2))
    small, regular = blocks_of(feats)
    assert all(b == {} for b in small)
    assert all(sum(b.values()) == 4 for b in regular)  # C(4,3)
    assert gram_matrix(feats)[0, 1] == 0.0


def test_la_dataset_run_tolerates_undersized_graphs():
    labels, counts = la_kset_run(tiny_and_regular(), 3, 2)
    small, regular = graph_slices(counts)
    assert all(len(it[small]) == 0 for it in labels)
    assert all(len(it[regular]) == 4 for it in labels)


def test_sampled_dataset_run_flags_undersized():
    estimates = sampled_dataset_run(tiny_and_regular(), 3, 1, seed=0,
                                    mode="adaptive", epsilon=0.5, delta=0.2)
    assert estimates[0].sample_count == 0 and estimates[1].sample_count > 0


def test_sampled_dataset_run_rejects_unknown_mode():
    # refused before the graph loop, so an empty dataset is refused too
    for graphs in (tiny_and_regular(), []):
        with pytest.raises(ParameterError, match="unknown sampling mode"):
            sampled_dataset_run(graphs, 2, 1, seed=0, mode="bootstrap")


def test_fixed_mode_requires_sample_count():
    for graphs in (tiny_and_regular(), []):
        with pytest.raises(ParameterError, match="needs a sample count"):
            sampled_dataset_run(graphs, 2, 1, seed=0, mode="sampled")


def test_exact_run_enumerates_each_graph_once(monkeypatch, c6, two_k3, p4):
    # one index over the widest graph enumerates the sets of every graph,
    # and the neighbor CSR reuses the sets matrix built for the iso types
    sizes = []
    all_sets = KSetIndex.all_sets

    def counted(index):
        sizes.append(index.n)
        return all_sets(index)

    monkeypatch.setattr(KSetIndex, "all_sets", counted)
    exact_kset_run([c6, two_k3, p4], 2, 2)
    assert sizes == [6]


def test_exact_windows_intern_into_tables_of_their_own(c6, two_k3):
    # each window numbers its own keys densely after the ids before it
    labels, _ = exact_kset_run([c6, two_k3], 2, 3)
    for before, after in zip(labels, labels[1:]):
        first = int(before.max()) + 1
        assert np.unique(after).tolist() == list(
            range(first, int(after.max()) + 1))


def test_dataset_run_partitions_match_single_graph_runs(c6, two_k3, p4):
    # the stacked front end labels each graph as a run on it alone would
    graphs = [c6, two_k3, build_graph(2, [(0, 1)]), p4]
    for local in (True, False):
        labels, counts = exact_kset_run(graphs, 2, 3, local=local)
        for g, rows in zip(graphs, graph_slices(counts)):
            alone = exact_kset_run([g], 2, 3, local=local)[0]
            for ca, cb in zip(labels, alone):
                assert (label_groups(ca[rows].tolist())
                        == label_groups(cb.tolist()))


def test_feature_paths_agree_on_kernel_values(c6, two_k3):
    # hash-path and la-path features use different label spaces but must
    # yield identical gram values
    graphs = [c6, two_k3]
    hash_feats = features_from_label_arrays(
        *exact_kset_run(graphs, 2, 2))
    la_feats = features_from_label_arrays(*la_kset_run(graphs, 2, 2))
    hash_gram, la_gram = gram_matrix(hash_feats), gram_matrix(la_feats)
    for i in range(2):
        for j in range(2):
            assert hash_gram[i, j] == pytest.approx(la_gram[i, j])


def test_wl1_dataset_lockstep_handles_mixed_sizes():
    graphs = [build_graph(1, []), build_graph(3, [(0, 1), (1, 2)])]
    labels, counts = exact_kset_run(graphs, 1, 2)
    first, second = graph_slices(counts)
    assert [len(it[first]) for it in labels] == [1, 1, 1]
    la_labels, la_counts = la_kset_run(graphs, 1, 2)
    assert la_counts == counts
    for it in range(3):
        assert (label_groups(la_labels[it][second].tolist())
                == label_groups(labels[it][second].tolist()))


def test_exact_runs_refuse_huge_graphs_before_building(long_path):
    # C(200000, 4) does not even fit a 64-bit rank; the cap check comes first
    with pytest.raises(ResourceLimitError):
        exact_kset_run([long_path], 4, 1)
    with pytest.raises(ResourceLimitError):
        la_kset_run([long_path], 4, 1)


def test_exact_runs_cap_the_dataset_total(p4):
    # each P4 has C(4, 2) = 6 pairs: two fit a cap of 12 but not one of 11
    graphs = [p4, p4]
    assert exact_kset_run(graphs, 2, 1, max_sets=12)[1] == [6, 6]
    with pytest.raises(ResourceLimitError, match="12 2-sets in total"):
        exact_kset_run(graphs, 2, 1, max_sets=11)
    with pytest.raises(ResourceLimitError, match="12 2-sets in total"):
        la_kset_run(graphs, 2, 1, max_sets=11)


@pytest.mark.parametrize("local", [True, False])
def test_label_arrays_are_int32(p4, local):
    graphs = tiny_and_regular() + [p4]
    for labels, _ in (exact_kset_run(graphs, 2, 2, local=local),
                      la_kset_run(graphs, 2, 2, local=local)):
        assert [it.dtype for it in labels] == [np.int32] * 3
    window = interner.number_window([b"\x01", b"\x00"], 0)
    assert window.dtype == np.int32 and window.tolist() == [1, 0]
    # sampled labels are 64-bit words, numbered as int32 ids in features
    labeled = _label_sets(p4, np.array([[0, 1], [1, 2]]), 2)
    assert labeled.dtype == np.uint64 and labeled.shape == (2, 3)


def test_label_ids_past_the_cap_are_refused_before_the_cast(monkeypatch, p4):
    # int32 labels hold ids below _ID_CAP; iso types and linalg classes
    # beyond it are refused as an exact window refuses its ids
    monkeypatch.setattr(interner, "_ID_CAP", 1)
    with pytest.raises(ResourceLimitError, match="label ids stop at 1"):
        la_kset_run([p4], 2, 0)
    monkeypatch.setattr(interner, "_ID_CAP", 2)
    with pytest.raises(ResourceLimitError, match="label ids stop at 2"):
        la_kset_run([p4], 2, 1)


def test_sampled_words_past_the_cap_are_refused(monkeypatch):
    # features number each iteration's distinct words over all graphs; two
    # graphs' three words pass a cap of 2
    words = [np.array([1, 5], dtype=np.uint64), np.array([5, 9],
                                                         dtype=np.uint64)]
    estimates = [SampledEstimate([(w, np.full(2, 0.5))], 2) for w in words]
    monkeypatch.setattr(interner, "_ID_CAP", 3)
    label = features_from_estimates(estimates).blocks[0][1]
    assert label.dtype == np.int32 and label.tolist() == [0, 1, 1, 2]
    monkeypatch.setattr(interner, "_ID_CAP", 2)
    with pytest.raises(ResourceLimitError, match="label ids stop at 2"):
        features_from_estimates(estimates)


def test_sampled_words_past_the_cap_exit_3(monkeypatch, tmp_path, capsys):
    # MUTAG's 2-sets have 36 iso types, below a cap of 100 in any batch;
    # the sampled words of their first refinement over all graphs are not
    from ksetwl.cli import main
    monkeypatch.setattr(interner, "_ID_CAP", 100)
    assert main(["gram", "--dataset", MUTAG_DIR, "--kernel", "kwl-local",
                 "--k", "2", "--h", "1", "--mode", "sampled", "--samples",
                 "300", "--output", str(tmp_path / "gram.txt")]) == 3
    assert "label ids stop at 100" in capsys.readouterr().err


def test_front_end_times_script_times_every_layer(two_triangle_dir, capsys):
    script = scripts("front_end_times")
    layers = ["sets", "iso_keys", "neighbor_csr", "window_1", "window_2",
              "features", "gram", "write"]
    for mode in ("exact", "linalg"):
        assert script.main(["--dataset", two_triangle_dir, "--kernel",
                            "kwl-global", "--k", "2", "--h", "2", "--mode",
                            mode, "--repeats", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        tables = ["window_1_largest_table", "window_2_largest_table"]
        assert [line.split("  ")[1] for line in lines[1:]] == [
            *layers, "total", "csr_entries", "csr_mb", "traced_peak_mb",
            *(f"{layer}_peak_mb" for layer in layers), "window_1_labels",
            "window_2_labels", *(tables if mode == "exact" else [])]
        figures = {name: float(value) for value, name in
                   (line.split("  ") for line in lines[1:])}
        # three 2-sets per triangle, each with k * (n - k) = 2 global swaps:
        # an int32 row pointer over 6 rows and 12 int16 offsets
        assert figures["csr_entries"] == 12
        assert figures["csr_mb"] == round((7 * 4 + 12 * 2) / (1 << 20), 3)
        assert figures["traced_peak_mb"] > 0
        assert all(0 <= figures[f"{layer}_peak_mb"] <= figures[
            "traced_peak_mb"] for layer in layers)
        # every 2-set of a triangle is alike, so each window issues one
        # label, from one table of one key
        assert figures["window_1_labels"] == figures["window_2_labels"] == 1
        if mode == "exact":
            assert figures[tables[0]] == figures[tables[1]] == 1
    assert pipeline.stacked_sets is kwl.stacked_sets
    assert pipeline._neighbor_csr is kwl._neighbor_csr
    assert pipeline.refine_coloring_window is interner.refine_coloring_window
    assert pipeline.word_sums is linalg.word_sums
    assert pipeline._dense_ranks is linalg._dense_ranks
