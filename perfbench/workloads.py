"""Workloads of the ksetwl benchmark: their inputs, their command lines and
the checks every output must pass.

Each workload writes its dataset in the TU text layout into a work
directory; the program under test reads only those files.  Inputs depend
on nothing but the seed and the bundled MUTAG files, byte for byte.

Why each workload exists:

* ``mutag-k3-exact`` -- the exact k-set path at scale (185,200 3-sets over
  the 188 MUTAG graphs).  The k-set front end (enumeration, iso codes, the
  local neighbour CSR) and the per-iteration intern windows do almost all
  the work; the sampler never runs.
* ``mutag-adaptive`` -- adaptive sampling on small molecules.  Each radius-h
  ball is nearly the whole graph and almost every sample hits the per-graph
  label memo, so ball building dominates, and the adaptive rounds and the
  deviation bound run too.
* ``regular-sampled`` -- fixed-size sampling on random 3-regular graphs far
  beyond the exact cap.  Memo hits are about zero, the opposite use of the
  sampler from ``mutag-adaptive``; per-sample cost should not depend on n,
  and parsing about 85k vertices makes set-up time real.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

MUTAG_FILES = ("A", "graph_indicator", "graph_labels", "node_labels",
               "edge_labels")

# Every ADAPTIVE_STRIDE-th MUTAG graph, starting with the first.
ADAPTIVE_STRIDE = 25
ADAPTIVE_EPSILON = 0.1
ADAPTIVE_DELTA = 0.1
ADAPTIVE_H = 3

REGULAR_SIZES = (1000, 4000, 16000, 64000)
REGULAR_DEGREE = 3
REGULAR_NODE_LABELS = 4
REGULAR_SAMPLES = 50
REGULAR_H = 2


class CheckError(Exception):
    """An output of the program failed its workload's check."""


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str            # TU dataset name, also the directory name
    gram_args: tuple        # ksetwl gram arguments after --dataset/--output
    seeded: bool            # whether --seed reaches the program

    def command(self, data_dir: str, output: str, seed: int) -> list[str]:
        args = ["gram", "--dataset", data_dir, "--output", output,
                *self.gram_args]
        if self.seeded:
            args += ["--seed", str(seed)]
        return args


WORKLOADS = {
    "mutag-k3-exact": Workload(
        "mutag-k3-exact", "MUTAG",
        ("--kernel", "kwl-local", "--k", "3", "--h", "3", "--mode", "exact"),
        seeded=False),
    "mutag-adaptive": Workload(
        "mutag-adaptive", "MUTAGSUB",
        ("--kernel", "kwl-local", "--k", "2", "--h", str(ADAPTIVE_H),
         "--mode", "adaptive", "--epsilon", str(ADAPTIVE_EPSILON),
         "--delta", str(ADAPTIVE_DELTA)),
        seeded=True),
    "regular-sampled": Workload(
        "regular-sampled", "REG3",
        ("--kernel", "kwl-local", "--k", "2", "--h", str(REGULAR_H),
         "--mode", "sampled", "--samples", str(REGULAR_SAMPLES)),
        seeded=True),
}


# ----------------------------------------------------------------- inputs

def read_tu(path: str, name: str) -> dict:
    """The raw integer columns of a TU dataset directory."""
    cols = {}
    for part in MUTAG_FILES:
        with open(os.path.join(path, f"{name}_{part}.txt")) as f:
            rows = [line.strip() for line in f if line.strip()]
        if part == "A":
            cols[part] = np.array([[int(x) for x in r.split(",")]
                                   for r in rows], dtype=np.int64)
        else:
            cols[part] = np.array([int(r) for r in rows], dtype=np.int64)
    return cols


def _write_column(path: str, values) -> None:
    with open(path, "w") as f:
        f.write("".join(f"{int(v)}\n" for v in values))


def _write_edges(path: str, rows) -> None:
    with open(path, "w") as f:
        f.write("".join(f"{int(u)}, {int(v)}\n" for u, v in rows))


def write_mutag_full(mutag_dir: str, out_dir: str) -> None:
    """The bundled MUTAG, copied unchanged."""
    os.makedirs(out_dir, exist_ok=True)
    for part in MUTAG_FILES:
        shutil.copyfile(os.path.join(mutag_dir, f"MUTAG_{part}.txt"),
                        os.path.join(out_dir, f"MUTAG_{part}.txt"))


def write_mutag_subset(mutag_dir: str, out_dir: str,
                       stride: int = ADAPTIVE_STRIDE,
                       name: str = "MUTAGSUB") -> list[int]:
    """Every ``stride``-th MUTAG graph with its node and edge labels.

    Returns the class labels of the kept graphs, in output order.
    """
    cols = read_tu(mutag_dir, "MUTAG")
    indicator = cols["graph_indicator"]
    keep_graphs = np.arange(1, len(cols["graph_labels"]) + 1, stride)
    new_gid = np.zeros(len(cols["graph_labels"]) + 1, dtype=np.int64)
    new_gid[keep_graphs] = np.arange(1, len(keep_graphs) + 1)
    keep_nodes = new_gid[indicator] > 0
    new_node = np.zeros(len(indicator) + 1, dtype=np.int64)
    new_node[1:][keep_nodes] = np.arange(1, int(keep_nodes.sum()) + 1)
    edges = cols["A"]
    keep_edges = keep_nodes[edges[:, 0] - 1]

    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, name)
    _write_edges(f"{prefix}_A.txt", new_node[edges[keep_edges]])
    _write_column(f"{prefix}_edge_labels.txt", cols["edge_labels"][keep_edges])
    _write_column(f"{prefix}_graph_indicator.txt",
                  new_gid[indicator[keep_nodes]])
    _write_column(f"{prefix}_node_labels.txt", cols["node_labels"][keep_nodes])
    classes = cols["graph_labels"][keep_graphs - 1]
    _write_column(f"{prefix}_graph_labels.txt", classes)
    return [int(c) for c in classes]


def random_regular_edges(n: int, degree: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Edges (u < v, 0-based) of a uniform simple ``degree``-regular graph.

    Configuration model with rejection: pair up shuffled vertex stubs and
    retry until no pair is a loop or a repeat (about e^2 tries for degree 3).
    """
    if (n * degree) % 2:
        raise ValueError("n * degree must be even")
    stubs = np.repeat(np.arange(n, dtype=np.int64), degree)
    while True:
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        u, v = pairs.min(axis=1), pairs.max(axis=1)
        if np.any(u == v):
            continue
        if len(np.unique(u * n + v)) == len(u):
            return np.stack([u, v], axis=1)


def write_regular(out_dir: str, seed: int, sizes=REGULAR_SIZES,
                  name: str = "REG3") -> list[int]:
    """Seeded random 3-regular graphs with 4 node labels, one per size.

    Returns the class labels written, in graph order.
    """
    os.makedirs(out_dir, exist_ok=True)
    edges, indicator, labels = [], [], []
    offset = 0
    for gid, n in enumerate(sizes, start=1):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([int(seed), int(n)])))
        edges.append(random_regular_edges(n, REGULAR_DEGREE, rng) + offset + 1)
        labels.append(rng.integers(0, REGULAR_NODE_LABELS, size=n))
        indicator.append(np.full(n, gid, dtype=np.int64))
        offset += n
    classes = [1 if gid % 2 else -1 for gid in range(1, len(sizes) + 1)]
    prefix = os.path.join(out_dir, name)
    _write_edges(f"{prefix}_A.txt", np.concatenate(edges))
    _write_column(f"{prefix}_graph_indicator.txt", np.concatenate(indicator))
    _write_column(f"{prefix}_node_labels.txt", np.concatenate(labels))
    _write_column(f"{prefix}_graph_labels.txt", classes)
    return classes


def prepare_inputs(workload: str, root: str, out_dir: str, seed: int) -> list[int]:
    """Write the workload's dataset into ``out_dir`` and return its class
    labels.  ``root`` is the checkout holding the bundled MUTAG."""
    mutag_dir = os.path.join(root, "data", "MUTAG")
    if workload == "mutag-k3-exact":
        write_mutag_full(mutag_dir, out_dir)
        return [int(c) for c in read_tu(out_dir, "MUTAG")["graph_labels"]]
    if workload == "mutag-adaptive":
        return write_mutag_subset(mutag_dir, out_dir)
    if workload == "regular-sampled":
        return write_regular(out_dir, seed)
    raise KeyError(workload)


# ----------------------------------------------------------------- checks

def read_gram_libsvm(path: str) -> tuple[list[int], np.ndarray]:
    """Parse "<class> 0:<serial> 1:<K_i1> ... n:<K_in>" rows."""
    classes, rows = [], []
    with open(path) as f:
        for i, line in enumerate(f, start=1):
            cells = line.split()
            if len(cells) < 2 or cells[1] != f"0:{i}":
                raise CheckError(f"gram row {i}: bad serial cell")
            values = []
            for j, cell in enumerate(cells[2:], start=1):
                idx, sep, val = cell.partition(":")
                if not sep or idx != str(j):
                    raise CheckError(f"gram row {i}: bad cell {cell!r}")
                values.append(float(val))
            classes.append(int(cells[0]))
            rows.append(values)
    if not rows or any(len(r) != len(rows) for r in rows):
        raise CheckError("gram is not a non-empty square matrix")
    return classes, np.array(rows, dtype=np.float64)


def _check_basic(classes, K, expected_classes) -> None:
    if classes != list(expected_classes):
        raise CheckError("gram class column differs from the dataset's labels")
    if not np.all(np.isfinite(K)):
        raise CheckError("gram has non-finite entries")
    if not np.array_equal(K, K.T):
        raise CheckError("gram is not symmetric")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_k3_exact(path: str, expected_classes, reference: dict) -> dict:
    """Byte-identical to the recorded exact gram (which linalg mode matched)."""
    digest = sha256_file(path)
    if digest != reference["mutag-k3-exact"]["gram_sha256"]:
        raise CheckError(f"gram digest {digest[:16]} differs from the reference")
    classes, K = read_gram_libsvm(path)
    _check_basic(classes, K, expected_classes)
    return {}


def adaptive_error_bound(h: int = ADAPTIVE_H,
                         epsilon: float = ADAPTIVE_EPSILON) -> float:
    """Largest kernel-entry error the adaptive guarantee allows.

    The estimator bounds the sup error of every (iteration, label) mass by
    epsilon.  For probability blocks p, q with estimates p', q':
    |<p', q'> - <p, q>| <= |p' - p|_inf |q'|_1 + |p|_1 |q' - q|_inf = 2 eps,
    summed over the h + 1 blocks.
    """
    return 2.0 * (h + 1) * epsilon


def check_adaptive(path: str, expected_classes, reference: dict) -> dict:
    """Within the sampling guarantee of the exact l1-block-normalised gram."""
    classes, K = read_gram_libsvm(path)
    _check_basic(classes, K, expected_classes)
    exact = np.array(reference["mutag-adaptive"]["exact_l1_block_gram"])
    if K.shape != exact.shape:
        raise CheckError(f"gram shape {K.shape} differs from {exact.shape}")
    err = float(np.max(np.abs(K - exact)))
    if err > adaptive_error_bound():
        raise CheckError(f"max entry error {err:.4g} exceeds the guarantee "
                         f"{adaptive_error_bound():.4g}")
    return {"max_entry_error": err}


def check_sampled_structure(path: str, expected_classes, reference: dict,
                            h: int = REGULAR_H) -> dict:
    """Symmetric, finite, PSD, and shaped like inner products of h + 1
    probability blocks: 0 < K_ii <= h + 1 and 0 <= K_ij <= sqrt(K_ii K_jj)."""
    classes, K = read_gram_libsvm(path)
    _check_basic(classes, K, expected_classes)
    d = np.diag(K)
    if np.any(d <= 0) or np.any(d > h + 1 + 1e-9):
        raise CheckError("gram diagonal outside (0, h + 1]")
    if np.any(K < 0) or np.any(K > np.sqrt(np.outer(d, d)) * (1 + 1e-9)):
        raise CheckError("gram entry violates Cauchy-Schwarz or is negative")
    scale = max(1.0, float(np.max(np.abs(K))))
    if float(np.linalg.eigvalsh(K)[0]) < -1e-9 * scale * len(K):
        raise CheckError("gram is not positive semidefinite")
    return {}


CHECKS = {
    "mutag-k3-exact": check_k3_exact,
    "mutag-adaptive": check_adaptive,
    "regular-sampled": check_sampled_structure,
}
