"""Tests of the benchmark itself: its inputs, its tracer and its checks.

Run with: python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import os
import time
import types

import numpy as np
import pytest

import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _read_dir(path):
    return {name: open(os.path.join(path, name), "rb").read()
            for name in sorted(os.listdir(path))}


# ---------------------------------------------------------------- inputs

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_deterministic(tmp_path, workload):
    first = workloads.prepare_inputs(workload, ROOT, str(tmp_path / "a"), 7)
    second = workloads.prepare_inputs(workload, ROOT, str(tmp_path / "b"), 7)
    assert first == second
    assert _read_dir(tmp_path / "a") == _read_dir(tmp_path / "b")


def test_regular_inputs_follow_the_seed(tmp_path):
    workloads.write_regular(str(tmp_path / "a"), 1, sizes=(200,))
    workloads.write_regular(str(tmp_path / "b"), 2, sizes=(200,))
    assert _read_dir(tmp_path / "a") != _read_dir(tmp_path / "b")


def test_random_regular_graph_is_simple_and_regular():
    rng = np.random.Generator(np.random.PCG64(5))
    edges = workloads.random_regular_edges(1000, 3, rng)
    assert len(edges) == 1500
    assert np.all(edges[:, 0] < edges[:, 1])
    assert len({tuple(e) for e in edges.tolist()}) == 1500
    assert np.all(np.bincount(edges.ravel(), minlength=1000) == 3)


def test_mutag_subset_is_parsed_with_labels(tmp_path):
    from ksetwl.tu_io import parse_tu_dataset
    out = tmp_path / "MUTAGSUB"
    classes = workloads.write_mutag_subset(os.path.join(ROOT, "data", "MUTAG"),
                                           str(out))
    full = parse_tu_dataset(os.path.join(ROOT, "data", "MUTAG"))
    sub = parse_tu_dataset(str(out))
    kept = full.graphs[::workloads.ADAPTIVE_STRIDE]
    assert classes == full.class_labels[::workloads.ADAPTIVE_STRIDE]
    assert len(sub) == len(kept)
    for a, b in zip(sub.graphs, kept):
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.node_labels, b.node_labels)
        assert a.edge_labels == b.edge_labels


# ---------------------------------------------------------------- tracer

def _site_owners():
    for module_name, owner_name, attr, _, _ in tracing.SITES:
        module = importlib.import_module(f"ksetwl.{module_name}")
        owner = module if owner_name is None else getattr(module, owner_name)
        yield owner, attr


def test_tracer_wraps_and_restores_every_site():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in
                 _site_owners()]
    tracer = tracing.install(tracing.Tracer())
    try:
        assert tracer.absent == []
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original
        from ksetwl import LabelInterner, build_graph
        from ksetwl.pipeline import exact_kset_run
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        exact_kset_run([g, g], 2, 2, LabelInterner())
    finally:
        tracer.restore()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original
    assert tracer.calls("kwl.iso_code") == 20
    assert tracer.calls("interner.refine_window") == 2
    assert tracer.counts["ksets.sets"] == 40
    assert len(tracer.interners) == 1


def test_tracer_self_time_excludes_nested_spans():
    fake = types.ModuleType("fake")
    fake.inner = lambda: time.sleep(0.02)
    fake.outer = lambda: (time.sleep(0.02), fake.inner())
    tracer = tracing.Tracer()
    tracer.wrap(fake, "outer", "outer")
    tracer.wrap(fake, "inner", "inner")
    fake.outer()
    tracer.restore()
    outer_calls, outer_total, outer_self = tracer.spans["outer"]
    inner_calls, inner_total, inner_self = tracer.spans["inner"]
    assert outer_calls == inner_calls == 1
    assert inner_self == inner_total >= 0.02
    assert outer_self == pytest.approx(outer_total - inner_total)
    assert outer_self >= 0.02


def test_missing_names_are_reported_absent():
    sites = (("kwl", None, "no_such_function", "x", None),
             ("sampling", "NoSuchClass", "method", "y", None),
             ("no_such_module", None, "f", "z", None),
             ("kwl", None, "iso_code", "kwl.iso_code", None))
    tracer = tracing.install(tracing.Tracer(), sites=sites)
    tracer.restore()
    assert tracer.report()["absent"] == ["ksetwl.kwl.no_such_function",
                                         "no_such_module.f",
                                         "sampling.NoSuchClass.method"]
    assert tracer.calls("kwl.iso_code") == 0


def test_a_hook_that_no_longer_fits_is_reported_not_raised():
    fake = types.ModuleType("fake")
    fake.draw = lambda: None          # once took (size, rng)
    tracer = tracing.Tracer()
    tracer.wrap(fake, "draw", "draw", hook=tracing._count_samples)
    assert fake.draw() is None
    tracer.restore()
    assert tracer.calls("draw") == 1
    assert list(tracer.report()["hook_errors"]) == ["fake.draw"]


# ---------------------------------------------------------------- checks

def _write_gram(path, classes, K):
    with open(path, "w") as f:
        for i, (c, row) in enumerate(zip(classes, K), start=1):
            cells = [str(c), f"0:{i}"]
            cells += [f"{j}:{float(v)!r}" for j, v in enumerate(row, start=1)]
            f.write(" ".join(cells) + "\n")
    return str(path)


def _corruptions(K):
    """Grams a correct run cannot produce."""
    out = []
    bumped = K.copy()
    bumped[0, 1] = bumped[1, 0] = K[0, 1] + 1.0
    out.append(bumped)
    asym = K.copy()
    asym[0, 1] += 1e-3
    out.append(asym)
    nan = K.copy()
    nan[1, 1] = np.nan
    out.append(nan)
    out.append(K[:-1, :-1])
    return out


def test_k3_check_rejects_any_changed_byte(tmp_path):
    K = np.array([[4.0, 1.0], [1.0, 3.0]])
    good = _write_gram(tmp_path / "good", [1, -1], K)
    reference = {"mutag-k3-exact": {"gram_sha256": workloads.sha256_file(good)}}
    workloads.check_k3_exact(good, [1, -1], reference)
    for i, bad_K in enumerate(_corruptions(K)):
        bad = _write_gram(tmp_path / f"bad{i}", [1, -1][:len(bad_K)], bad_K)
        with pytest.raises(workloads.CheckError):
            workloads.check_k3_exact(bad, [1, -1], reference)


def test_adaptive_check_rejects_corrupted_grams(tmp_path):
    reference = workloads.load_reference()
    exact = np.array(reference["mutag-adaptive"]["exact_l1_block_gram"])
    classes = [1] * len(exact)
    noisy = exact + 0.01 * np.eye(len(exact))
    workloads.check_adaptive(_write_gram(tmp_path / "good", classes, noisy),
                             classes, reference)
    for i, bad_K in enumerate(_corruptions(exact)):
        bad = _write_gram(tmp_path / f"bad{i}", classes[:len(bad_K)], bad_K)
        with pytest.raises(workloads.CheckError):
            workloads.check_adaptive(bad, classes, reference)
    with pytest.raises(workloads.CheckError):
        workloads.check_adaptive(_write_gram(tmp_path / "cls", classes, exact),
                                 [-1] * len(exact), reference)


def test_sampled_check_rejects_corrupted_grams(tmp_path):
    rng = np.random.Generator(np.random.PCG64(3))
    blocks = rng.random((4, 3, 50))
    blocks /= blocks.sum(axis=2, keepdims=True)
    X = blocks.reshape(4, -1)
    K = X @ X.T
    K = (K + K.T) / 2
    classes = [1, -1, 1, -1]
    workloads.check_sampled_structure(_write_gram(tmp_path / "good", classes, K),
                                      classes, {})
    not_psd = K.copy()
    not_psd[0, 1] = not_psd[1, 0] = 0.999 * np.sqrt(K[0, 0] * K[1, 1])
    not_psd[0, 2] = not_psd[2, 0] = 0.999 * np.sqrt(K[0, 0] * K[2, 2])
    not_psd[1, 2] = not_psd[2, 1] = 0.0
    negative = K.copy()
    negative[2, 3] = negative[3, 2] = -0.01
    for i, bad_K in enumerate(_corruptions(K) + [not_psd, negative]):
        bad = _write_gram(tmp_path / f"bad{i}", classes[:len(bad_K)], bad_K)
        with pytest.raises(workloads.CheckError):
            workloads.check_sampled_structure(bad, classes, {})


# ---------------------------------------------------------------- metrics

def test_reported_metrics_match_benchmark_json():
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    child = run.ChildRun(0, 2.0, 1.5, 40.0)
    e2e = run.end_to_end_metrics([0.5, 0.7, 0.6], [child, child])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, (_, unit) in e2e.items()]
    assert e2e["wall_s"][0] == 2.0 and e2e["setup_s"][0] == 0.6
    trace = {"spans": {"sampling.ball_context": {"calls": 3, "self_s": 0.1},
                       "kwl.iso_code": {"calls": 9, "self_s": 0.2}},
             "counts": {"sampling.samples": 12}, "labels": 5,
             "per_graph": [{"n": 1000, "seconds": 0.5, "samples": 10}]}
    layers = run.per_layer_metrics(trace, child, 1.0)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == \
        {(name, unit) for name, (_, unit) in layers.items()}
    assert layers["sampling.memo_hit_ratio"][0] == pytest.approx(0.75)
    assert layers["sampling.ms_per_sample.n1k"][0] == pytest.approx(50.0)
    assert layers["proc.other_s"][0] == pytest.approx(2.0 - 0.3)
    assert layers["trace.overhead_s"][0] == pytest.approx(1.0)
