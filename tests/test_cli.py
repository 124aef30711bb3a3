import json
import os
import subprocess
import sys
import time

import pytest

from ksetwl import cli, parse_tu_dataset
from ksetwl.cli import main
from ksetwl.pipeline import sampled_dataset_run

from conftest import MUTAG_DIR, SRC_DIR
from reference import interned_exact_run


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_mutag(capsys):
    code, out, _ = run_cli(capsys, "info", "--dataset", MUTAG_DIR)
    assert code == 0
    assert "graphs: 188" in out
    assert "avg nodes: 17.9" in out
    assert "avg edges: 19.8" in out
    assert "classes: 2" in out


def test_sample_size_command(capsys):
    code, out, _ = run_cli(capsys, "sample-size", "--gamma", "10",
                           "--delta", "0.1", "--epsilon", "0.1")
    assert code == 0 and out.strip() == "26492"
    code, out, _ = run_cli(capsys, "sample-size", "--gamma", "10",
                           "--delta", "0.1", "--epsilon", "0.1",
                           "--dataset-size", "100")
    assert code == 0 and out.strip() == "49518"


def test_gram_on_identical_graphs(two_triangle_dir, tmp_path, capsys):
    out_path = str(tmp_path / "gram.txt")
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir,
        "--kernel", "kwl-local", "--k", "2", "--h", "5", "--mode", "exact",
        "--gram-normalize", "--output", out_path)
    assert code == 0, err
    values = {}
    for i, line in enumerate(open(out_path)):
        for cell in line.split()[2:]:
            j, v = cell.split(":")
            values[(i, int(j) - 1)] = float(v)
    assert values == {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}
    manifest = json.load(open(out_path + ".manifest.json"))
    assert manifest["config"]["kernel"] == "kwl-local"
    assert manifest["config"]["seed"] == 0


def test_features_command(two_triangle_dir, tmp_path, capsys):
    out_path = str(tmp_path / "feat.txt")
    code, _, err = run_cli(
        capsys, "features", "--dataset", two_triangle_dir,
        "--kernel", "wl1", "--h", "2", "--normalize", "l1-block",
        "--output", out_path)
    assert code == 0, err
    lines = open(out_path).read().splitlines()
    assert len(lines) == 2
    assert lines[0].split()[0] == "1" and lines[1].split()[0] == "-1"


def test_h_sweep_writes_one_output_per_h(two_triangle_dir, tmp_path, capsys):
    out_path = str(tmp_path / "sweep.txt")
    code, _, _ = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel", "wl1",
        "--h-sweep", "0..2", "--output", out_path)
    assert code == 0
    for h in range(3):
        assert os.path.exists(f"{out_path}.h{h}")
        assert os.path.exists(f"{out_path}.h{h}.manifest.json")


SAMPLED = ("--kernel", "kwl-local", "--k", "2", "--mode", "sampled",
           "--samples", "300", "--seed", "9")
ADAPTIVE = ("--kernel", "kwl-local", "--k", "2", "--mode", "adaptive",
            "--epsilon", "0.4", "--delta", "0.1", "--seed", "3")
SWEPT_KEYS = ("label_space", "sample_counts", "derived_sample_count",
              "rounds")


def assert_sweep_equals_separate_runs(capsys, tmp_path, base, lo, hi):
    """A sweep over lo..hi writes, for each h, the bytes and the manifest
    counts of the single run at h."""
    code, _, err = run_cli(capsys, *base, "--h-sweep", f"{lo}..{hi}",
                           "--output", str(tmp_path / "sweep"))
    assert code == 0, err
    for h in range(lo, hi + 1):
        single = str(tmp_path / f"single{h}")
        code, _, err = run_cli(capsys, *base, "--h", str(h), "--output", single)
        assert code == 0, err
        swept = str(tmp_path / f"sweep.h{h}")
        assert open(swept, "rb").read() == open(single, "rb").read()
        got = json.load(open(swept + ".manifest.json"))
        want = json.load(open(single + ".manifest.json"))
        assert got["h"] == h
        for key in SWEPT_KEYS:
            assert got.get(key) == want.get(key), key


@pytest.mark.parametrize("command, config, sweep", [
    ("gram", ("--kernel", "wl1", "--mode", "exact"), (0, 3)),
    ("gram", ("--kernel", "kwl-local", "--k", "2", "--mode", "exact"), (0, 2)),
    ("features", ("--kernel", "kwl-local", "--k", "2", "--mode", "exact",
                  "--normalize", "l1-block"), (1, 2)),
    ("gram", ("--kernel", "kwl-local", "--k", "2", "--mode", "linalg"), (0, 2)),
    ("gram", SAMPLED, (0, 3)),
    ("features", (*SAMPLED, "--normalize", "l1-block"), (1, 3)),
    ("gram", ("--kernel", "kwl-local", "--k", "2", "--mode", "sampled",
              "--gamma", "2", "--epsilon", "0.2", "--delta", "0.1",
              "--seed", "4", "--normalize", "l1-full"), (0, 2)),
])
def test_h_sweep_equals_separate_runs(tmp_path, capsys, command, config,
                                      sweep):
    assert_sweep_equals_separate_runs(
        capsys, tmp_path, [command, "--dataset", MUTAG_DIR, *config], *sweep)


def test_adaptive_h_sweep_equals_separate_runs(two_triangle_dir, tmp_path,
                                               capsys):
    assert_sweep_equals_separate_runs(
        capsys, tmp_path, ["gram", "--dataset", two_triangle_dir, *ADAPTIVE],
        0, 2)


@pytest.mark.parametrize("config, sweep, runs", [
    (SAMPLED, "0..3", [3]),
    (ADAPTIVE, "0..2", [0, 1, 2]),
], ids=["sampled", "adaptive"])
def test_h_sweep_runs_the_sampler_once_unless_adaptive(
        two_triangle_dir, tmp_path, capsys, monkeypatch, config, sweep, runs):
    # a fixed-size sample draws the same sets at every h, so one run at the
    # largest h serves the whole sweep; adaptive rounds stop by a bound that
    # depends on h
    calls = []

    def counted(graphs, k, h, **kwargs):
        calls.append(h)
        return sampled_dataset_run(graphs, k, h, **kwargs)

    monkeypatch.setattr(cli, "sampled_dataset_run", counted)
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, *config,
        "--h-sweep", sweep, "--output", str(tmp_path / "sweep"))
    assert code == 0, err
    assert calls == runs


def test_h_sweep_label_space_is_the_interner_size(tmp_path, capsys):
    # the manifest counts the distinct labels of iterations 0..h, in exact
    # and linalg runs alike; a persistent interner's ids run from 0 and no
    # id serves two iterations, so after iteration h its table holds the
    # largest id of iteration h plus one keys
    labels, _ = interned_exact_run(parse_tu_dataset(MUTAG_DIR).graphs, 2, 3)
    for mode in ("exact", "linalg"):
        code, _, err = run_cli(
            capsys, "gram", "--dataset", MUTAG_DIR, "--kernel", "kwl-local",
            "--k", "2", "--mode", mode, "--h-sweep", "0..3", "--output",
            str(tmp_path / mode))
        assert code == 0, err
        for h in range(4):
            manifest = json.load(open(tmp_path / f"{mode}.h{h}.manifest.json"))
            assert manifest["label_space"] == int(labels[h].max()) + 1


def test_usage_error_exit_code(two_triangle_dir, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel", "kwl-global",
        "--h", "1", "--mode", "adaptive", "--output", str(tmp_path / "x"))
    assert code == 1
    assert "kwl-local" in err


def test_missing_h_is_usage_error(two_triangle_dir, tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel", "wl1",
        "--output", str(tmp_path / "x"))
    assert code == 1


def test_data_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "info", "--dataset", str(tmp_path / "NONE"))
    assert code == 2
    assert "data error" in err


def test_resource_error_exit_code(two_triangle_dir, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel", "kwl-local",
        "--h", "1", "--max-sets", "1", "--output", str(tmp_path / "x"))
    assert code == 3
    assert "sampled" in err


def test_memory_error_exits_3_with_one_line(two_triangle_dir, tmp_path,
                                            capsys, monkeypatch):
    from ksetwl import cli

    def no_memory(features):
        raise MemoryError

    monkeypatch.setattr(cli, "gram_matrix", no_memory)
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel", "wl1",
        "--h", "1", "--output", str(tmp_path / "g.txt"))
    assert code == 3
    assert err == "ksetwl: resource limit: out of memory\n"


@pytest.mark.parametrize("mode", [
    ["--mode", "exact"], ["--mode", "linalg"],
    ["--mode", "sampled", "--samples", "100"], ["--mode", "adaptive"]],
    ids=["exact", "linalg", "sampled", "adaptive"])
def test_k_ten_on_mutag_exits_3_before_building_sets(tmp_path, capsys, mode):
    # 10! orderings per set exceed a block; the exact front end would also
    # hold C(28, 10) = 13M rows for MUTAG's largest graph
    t0 = time.perf_counter()
    code, _, err = run_cli(
        capsys, "gram", "--dataset", MUTAG_DIR, "--kernel", "kwl-local",
        "--k", "10", "--h", "1", *mode, "--output", str(tmp_path / "g.txt"))
    assert code == 3 and "largest supported k is 7" in err
    assert time.perf_counter() - t0 < 10


@pytest.mark.parametrize("mode", [
    ["--mode", "exact"], ["--mode", "linalg"],
    ["--mode", "sampled", "--samples", "100"], ["--mode", "adaptive"]],
    ids=["exact", "linalg", "sampled", "adaptive"])
def test_k_eight_exits_3_before_any_set_is_built(tmp_path, capsys,
                                                 monkeypatch, mode):
    # a block of orderings would hold one 8-set
    def built(*args, **kwargs):
        raise AssertionError("a k-set was built")
    monkeypatch.setattr("ksetwl.ksets.KSetIndex.__init__", built)
    monkeypatch.setattr("ksetwl.sampling._draw_batch", built)
    code, _, err = run_cli(
        capsys, "gram", "--dataset", MUTAG_DIR, "--kernel", "kwl-local",
        "--k", "8", "--h", "1", *mode, "--output", str(tmp_path / "g.txt"))
    assert code == 3 and "largest supported k is 7" in err


@pytest.mark.parametrize("cap", [["--max-samples", "0"],
                                 ["--max-samples", "-5"]])
def test_max_samples_below_one_is_a_usage_error(two_triangle_dir, tmp_path,
                                                capsys, cap):
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel",
        "kwl-local", "--h", "1", "--mode", "adaptive", *cap,
        "--output", str(tmp_path / "g.txt"))
    assert code == 1 and "--max-samples must be at least 1" in err


def test_negative_max_sets_is_a_usage_error(two_triangle_dir, tmp_path,
                                            capsys):
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel",
        "kwl-local", "--h", "1", "--max-sets", "-1",
        "--output", str(tmp_path / "g.txt"))
    assert code == 1 and "--max-sets" in err


def test_linalg_mode_matches_exact_gram(two_triangle_dir, tmp_path, capsys):
    paths = {}
    for mode in ("exact", "linalg"):
        paths[mode] = str(tmp_path / f"{mode}.csv")
        code, _, _ = run_cli(
            capsys, "gram", "--dataset", two_triangle_dir, "--kernel",
            "kwl-local", "--h", "2", "--mode", mode, "--format", "csv",
            "--gram-normalize", "--output", paths[mode])
        assert code == 0
    left = open(paths["exact"]).read()
    right = open(paths["linalg"]).read()
    assert left == right


def test_adaptive_gram_runs(two_triangle_dir, tmp_path, capsys):
    out_path = str(tmp_path / "adaptive.txt")
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel", "kwl-local",
        "--h", "1", "--mode", "adaptive", "--epsilon", "0.4", "--delta", "0.1",
        "--seed", "3", "--output", out_path)
    assert code == 0, err
    manifest = json.load(open(out_path + ".manifest.json"))
    assert "rounds" in manifest and "0" in manifest["rounds"]
    for rounds in manifest["rounds"].values():
        assert [r["delta"] for r in rounds] == [
            0.1 * 2.0 ** -(i + 1) for i in range(len(rounds))]


@pytest.mark.parametrize("option", [["--growth", "2"],
                                    ["--initial-samples", "100"]],
                         ids=["growth", "initial-samples"])
def test_schedule_options_are_gone(two_triangle_dir, tmp_path, capsys,
                                   option):
    out_path = str(tmp_path / "g.txt")
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel",
        "kwl-local", "--h", "1", "--mode", "adaptive", *option,
        "--output", out_path)
    assert code == 1 and option[0] in err
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel",
        "kwl-local", "--h", "1", "--mode", "adaptive", "--output", out_path)
    assert code == 0, err
    config = json.load(open(out_path + ".manifest.json"))["config"]
    assert "growth" not in config and "initial_samples" not in config


@pytest.mark.parametrize("growth", ["nan", "inf", "1"])
def test_adaptive_rejects_a_growth_that_is_not_finite_above_one(
        two_triangle_dir, tmp_path, capsys, growth):
    # the schedule is fixed at 100 << i, so --growth is refused at any value
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel",
        "kwl-local", "--h", "1", "--mode", "adaptive", "--epsilon", "0.01",
        "--growth", growth, "--output", str(tmp_path / "g.txt"))
    assert code == 1 and "--growth" in err


@pytest.mark.parametrize("inverse_epsilon", ["100", "1e200", "1e308"])
def test_adaptive_batch_beyond_the_cap_exits_3(two_triangle_dir, tmp_path,
                                               capsys, inverse_epsilon):
    # the bound after round 0 misses epsilon, and round 1 would bring the
    # total from 100 to 300, above the cap of 150
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel",
        "kwl-local", "--h", "1", "--mode", "adaptive",
        "--epsilon", str(1 / float(inverse_epsilon)),
        "--max-samples", "150", "--output", str(tmp_path / "g.txt"))
    assert code == 3 and "adaptive sampling would exceed 150 samples" in err


def test_adaptive_schedule_running_out_of_rounds_exits_3(tmp_path, capsys):
    # round i tests its bound at 2^-1070 * 2^-(i+1), which is 0.0 from round 4
    code, _, err = run_cli(
        capsys, "gram", "--dataset", MUTAG_DIR, "--kernel", "kwl-local",
        "--k", "2", "--h", "1", "--mode", "adaptive", "--delta", "8e-323",
        "--output", str(tmp_path / "g.txt"))
    assert code == 3 and "got 0.0" not in err
    assert ("adaptive sampling ran out of rounds: delta * 2^-5 is 0.0 "
            "(drawn 1500 samples in 4 rounds, last bound " in err)
    assert "raise delta or epsilon" in err


@pytest.mark.parametrize("samples", ["4611686018427387904",
                                     "10000000000000000000"])
def test_sample_batch_numpy_cannot_allocate_exits_3(tmp_path, capsys,
                                                    samples):
    code, _, err = run_cli(
        capsys, "gram", "--dataset", MUTAG_DIR, "--kernel", "kwl-local",
        "--k", "2", "--h", "1", "--mode", "sampled", "--samples", samples,
        "--max-samples", "100000000000000000000",
        "--output", str(tmp_path / "g.txt"))
    assert code == 3 and err.count("\n") == 1
    assert f"a batch of {samples} 2-sets is beyond any array" in err


@pytest.mark.parametrize("count", [["--gamma", "100000000000000000000"],
                                   ["--samples", "10000001"]])
def test_fixed_sampling_beyond_the_cap_exits_3(two_triangle_dir, tmp_path,
                                               capsys, count):
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel",
        "kwl-local", "--h", "1", "--mode", "sampled", *count,
        "--output", str(tmp_path / "g.txt"))
    assert code == 3 and "fixed-size sampling would draw" in err


@pytest.mark.parametrize("mode", [["sampled", "--samples", "20"],
                                  ["adaptive"]])
def test_negative_seed_is_a_usage_error(two_triangle_dir, tmp_path, mode):
    # numpy's seed sequences refuse negative entropy with a ValueError
    env = {**os.environ, "PYTHONPATH":
           os.pathsep.join([SRC_DIR, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-m", "ksetwl.cli", "gram", "--dataset",
         two_triangle_dir, "--kernel", "kwl-local", "--h", "1", "--mode",
         *mode, "--seed", "-1", "--output", str(tmp_path / "g.txt")],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    assert "seed must be nonnegative, got -1" in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("extra", [[], ["--dataset-size", "10"]])
def test_sample_size_overflow_is_a_usage_error(capsys, extra):
    code, _, err = run_cli(capsys, "sample-size", "--gamma", "10",
                           "--delta", "0.1", "--epsilon", "1e-300", *extra)
    assert code == 1 and "overflows" in err


def test_threads_option_is_gone(two_triangle_dir, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel", "wl1",
        "--h", "1", "--threads", "2", "--output", str(tmp_path / "g.txt"))
    assert code == 1 and "--threads" in err


def test_features_format_option_is_gone(two_triangle_dir, tmp_path, capsys):
    out_path = str(tmp_path / "feat.txt")
    code, _, err = run_cli(
        capsys, "features", "--dataset", two_triangle_dir, "--kernel", "wl1",
        "--h", "1", "--format", "sparse-features", "--output", out_path)
    assert code == 1 and "--format" in err
    code, _, err = run_cli(
        capsys, "features", "--dataset", two_triangle_dir, "--kernel", "wl1",
        "--h", "1", "--output", out_path)
    assert code == 0, err
    assert "format" not in json.load(open(out_path + ".manifest.json"))[
        "config"]


def test_sampled_mode_derives_count_from_gamma(two_triangle_dir, tmp_path, capsys):
    path = str(tmp_path / "g.txt")
    code, _, _ = run_cli(
        capsys, "features", "--dataset", two_triangle_dir, "--kernel",
        "kwl-local", "--h", "1", "--mode", "sampled", "--gamma", "1",
        "--epsilon", "1", "--delta", "0.5", "--output", path)
    assert code == 0
    manifest = json.load(open(path + ".manifest.json"))
    assert manifest["derived_sample_count"] == 1
    assert manifest["sample_counts"] == [1, 1]


def test_manifest_times_gram_apart_from_write(two_triangle_dir, tmp_path,
                                              capsys, monkeypatch):
    import time
    from ksetwl import cli
    real_gram = cli.gram_matrix

    def slow_gram(features):
        time.sleep(0.3)
        return real_gram(features)

    monkeypatch.setattr(cli, "gram_matrix", slow_gram)
    out_path = str(tmp_path / "gram.txt")
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel", "wl1",
        "--h", "1", "--output", out_path)
    assert code == 0, err
    times = json.load(open(out_path + ".manifest.json"))["wall_times_sec"]
    assert set(times) == {"load", "compute", "gram", "write"}
    assert times["gram"] >= 0.3
    assert times["write"] < 0.3


def test_manifest_records_dataset_totals(two_triangle_dir, tmp_path, capsys):
    out_path = str(tmp_path / "gram.txt")
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel", "wl1",
        "--h", "1", "--output", out_path)
    assert code == 0, err
    manifest = json.load(open(out_path + ".manifest.json"))
    assert manifest["dataset"] == {"graphs": 2, "vertices": 6, "edges": 6}
    assert "load" in manifest["wall_times_sec"]


def test_manifest_records_peak_rss(two_triangle_dir, tmp_path, capsys):
    out_path = str(tmp_path / "gram.txt")
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel", "wl1",
        "--h", "1", "--output", out_path)
    assert code == 0, err
    manifest = json.load(open(out_path + ".manifest.json"))
    assert manifest["peak_rss_mb"] > 0


def test_max_sets_caps_the_dataset_total(tmp_path, capsys):
    # MUTAG has 185,200 3-sets, and 3,276 in its largest graph
    base = ["gram", "--dataset", MUTAG_DIR, "--kernel", "kwl-local", "--k",
            "3", "--h", "0", "--output", str(tmp_path / "gram.txt")]
    code, _, err = run_cli(capsys, *base, "--max-sets", "100000")
    assert code == 3
    assert "185200 3-sets in total" in err
    assert not os.path.exists(tmp_path / "gram.txt")
    code, _, err = run_cli(capsys, *base, "--max-sets", "185200")
    assert code == 0, err


BIG = "99999999999999999999"    # beyond 2^63


def test_info_rejects_a_node_label_beyond_64_bits(two_triangle_dir, capsys):
    path = os.path.join(two_triangle_dir, "TWOTRI_node_labels.txt")
    with open(path, "w") as f:
        f.write(f"1\n{BIG}\n3\n4\n5\n6")
    code, _, err = run_cli(capsys, "info", "--dataset", two_triangle_dir)
    assert code == 2
    assert f"TWOTRI_node_labels.txt:2: node label {BIG} is outside" in err


def test_gram_rejects_an_edge_label_beyond_64_bits(two_triangle_dir, tmp_path,
                                                   capsys):
    labels = ["1"] * 12
    labels[2] = labels[3] = BIG     # edge 2-3, listed both ways
    with open(os.path.join(two_triangle_dir, "TWOTRI_edge_labels.txt"),
              "w") as f:
        f.write("\n".join(labels) + "\n")
    code, _, err = run_cli(
        capsys, "gram", "--dataset", two_triangle_dir, "--kernel",
        "kwl-local", "--k", "2", "--h", "1", "--mode", "exact",
        "--output", str(tmp_path / "gram.txt"))
    assert code == 2
    assert f"TWOTRI_edge_labels.txt:3: edge label {BIG} is outside" in err
