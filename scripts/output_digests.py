"""Print the SHA-256 of a standard set of ksetwl outputs on the bundled MUTAG.

Usage: python scripts/output_digests.py

Runs the CLI of the checkout this script belongs to (its ``src/``) on
exact, linalg, feature, normalized, sampled and adaptive configurations of
every kernel, on a copy of MUTAG without node labels (where 1-WL starts
from vertex degrees) and on a copy in a messy but valid layout, and prints
one ``<digest>  <name>`` line per output file.  Sampled runs add the total
sample count over all graphs from their manifests, and adaptive runs the
most rounds any graph took and the SHA-256 of their whole round log (the
manifest's ``rounds``, dumped as JSON with sorted keys).  Everything is
written under a temporary directory that is removed afterwards.
Running the script on two checkouts and diffing the lines tells whether a
change keeps every output byte-identical, and what sampling cost.  The
messy copy's features must have the digest of ``k2-exact.features``.  The
two l1-normalized sampled outputs are the only ones whose bytes depend on
the order in which each graph's float masses are added up.
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ksetwl.cli import main  # noqa: E402

MUTAG = os.path.join(ROOT, "data", "MUTAG")
PARTS = ("A", "graph_indicator", "graph_labels", "node_labels", "edge_labels")
SUBSET_STRIDE = 25   # every 25th graph, as in the adaptive benchmark input

KWL2 = ("--kernel", "kwl-local", "--k", "2", "--h", "3")
KWL3 = ("--kernel", "kwl-local", "--k", "3", "--h", "3")
WL1 = ("--kernel", "wl1", "--h", "5")
SAMPLED = ("--mode", "sampled", "--samples", "300", "--seed", "9")
RUNS = (
    ("k3-exact.gram", "MUTAG", ("gram", *KWL3)),
    ("k3-exact.features", "MUTAG", ("features", *KWL3)),
    ("k2-linalg.gram", "MUTAG", ("gram", *KWL2, "--mode", "linalg")),
    ("k3-linalg.gram", "MUTAG", ("gram", *KWL3, "--mode", "linalg")),
    ("wl1-h5.gram", "MUTAG", ("gram", *WL1)),
    ("wl1-h5.features", "MUTAG", ("features", *WL1)),
    ("wl1-h5-linalg.gram", "MUTAG", ("gram", *WL1, "--mode", "linalg")),
    ("wl1-h5-unlabeled.features", "MUTAGNOLAB", ("features", *WL1)),
    ("k2-global.gram", "MUTAG",
     ("gram", "--kernel", "kwl-global", "--k", "2", "--h", "3")),
    ("k2-global-linalg.gram", "MUTAG",
     ("gram", "--kernel", "kwl-global", "--k", "2", "--h", "3",
      "--mode", "linalg")),
    ("k3-global.gram", "MUTAG",
     ("gram", "--kernel", "kwl-global", "--k", "3", "--h", "3")),
    ("k3-global-linalg.gram", "MUTAG",
     ("gram", "--kernel", "kwl-global", "--k", "3", "--h", "3",
      "--mode", "linalg")),
    ("k2-exact.features", "MUTAG", ("features", *KWL2)),
    ("k2-l1-block.gram", "MUTAG", ("gram", *KWL2, "--normalize", "l1-block")),
    ("subset-adaptive-seed5.gram", "MUTAGSUB",
     ("gram", *KWL2, "--mode", "adaptive", "--epsilon", "0.1",
      "--delta", "0.1", "--seed", "5")),
    ("k2-sampled-seed9.gram", "MUTAG", ("gram", *KWL2, *SAMPLED)),
    ("k2-sampled-seed9-l1-block.features", "MUTAG",
     ("features", *KWL2, *SAMPLED, "--normalize", "l1-block")),
    ("k2-sampled-seed9-l1-full.gram", "MUTAG",
     ("gram", *KWL2, *SAMPLED, "--normalize", "l1-full")),
    ("k3-sampled-seed9.gram", "MUTAG", ("gram", *KWL3, *SAMPLED)),
    ("k2-exact-messy.features", "MUTAGMESSY", ("features", *KWL2)),
    ("k3-linalg.features", "MUTAG", ("features", *KWL3, "--mode", "linalg")),
    ("k3-global-linalg.features", "MUTAG",
     ("features", "--kernel", "kwl-global", "--k", "3", "--h", "3",
      "--mode", "linalg")),
    ("wl1-h5-linalg.features", "MUTAG",
     ("features", *WL1, "--mode", "linalg")),
)


def _lines(path):
    with open(path) as f:
        return [line.strip() for line in f if line.strip()]


def write_subset(out_dir, stride=SUBSET_STRIDE):
    """Every ``stride``-th MUTAG graph, starting with the first, with its
    node and edge labels, as the TU dataset ``MUTAGSUB`` in ``out_dir``."""
    cols = {p: _lines(os.path.join(MUTAG, f"MUTAG_{p}.txt")) for p in PARTS}
    indicator = [int(x) for x in cols["graph_indicator"]]
    keep = {gid: i + 1 for i, gid in
            enumerate(range(1, len(cols["graph_labels"]) + 1, stride))}
    node_id, kept = {}, []
    for v, gid in enumerate(indicator, start=1):
        if gid in keep:
            node_id[v] = len(kept) + 1
            kept.append(v)
    edges = [(row, lab) for row, lab in zip(cols["A"], cols["edge_labels"])
             if int(row.split(",")[0]) in node_id]
    files = {
        "A": [", ".join(str(node_id[int(x)]) for x in row.split(","))
              for row, _ in edges],
        "edge_labels": [lab for _, lab in edges],
        "graph_indicator": [str(keep[indicator[v - 1]]) for v in kept],
        "node_labels": [cols["node_labels"][v - 1] for v in kept],
        "graph_labels": [cols["graph_labels"][gid - 1] for gid in keep],
    }
    os.makedirs(out_dir)
    for part, lines in files.items():
        with open(os.path.join(out_dir, f"MUTAGSUB_{part}.txt"), "w") as f:
            f.write("".join(line + "\n" for line in lines))
    return out_dir


def write_unlabeled(out_dir):
    """MUTAG without its node labels, as the TU dataset ``MUTAGNOLAB``."""
    os.makedirs(out_dir)
    for part in PARTS:
        if part != "node_labels":
            shutil.copyfile(os.path.join(MUTAG, f"MUTAG_{part}.txt"),
                            os.path.join(out_dir, f"MUTAGNOLAB_{part}.txt"))
    return out_dir


def write_messy(out_dir):
    """MUTAG as the TU dataset ``MUTAGMESSY``: CRLF line ends and no final
    newline, edge rows spaced alternately ``i,j`` and `` i ,\tj `` and each
    followed by its reverse, and one whitespace-only line among the node
    labels, so that one file takes the line-by-line reader."""
    cols = {p: _lines(os.path.join(MUTAG, f"MUTAG_{p}.txt")) for p in PARTS}
    pairs = [[x.strip() for x in row.split(",")] for row in cols["A"]]
    cols["A"] = [(" {} ,\t{} " if i % 2 else "{},{}").format(*ends)
                 for i, (u, v) in enumerate(pairs)
                 for ends in ((u, v), (v, u))]
    cols["edge_labels"] = [lab for lab in cols["edge_labels"]
                           for _ in range(2)]
    cols["node_labels"].insert(len(cols["node_labels"]) // 2, " \t ")
    os.makedirs(out_dir)
    for part, lines in cols.items():
        with open(os.path.join(out_dir, f"MUTAGMESSY_{part}.txt"), "wb") as f:
            f.write("\r\n".join(lines).encode())
    return out_dir


def main_digests() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        datasets = {"MUTAG": MUTAG,
                    "MUTAGSUB": write_subset(os.path.join(tmp, "MUTAGSUB")),
                    "MUTAGNOLAB": write_unlabeled(
                        os.path.join(tmp, "MUTAGNOLAB")),
                    "MUTAGMESSY": write_messy(
                        os.path.join(tmp, "MUTAGMESSY"))}
        for name, dataset, argv in RUNS:
            out = os.path.join(tmp, name)
            command, *rest = argv
            code = main([command, "--dataset", datasets[dataset], *rest,
                         "--output", out])
            if code != 0:
                print(f"{name}: ksetwl exited {code}", file=sys.stderr)
                return code
            with open(out, "rb") as f:
                print(f"{hashlib.sha256(f.read()).hexdigest()}  {name}")
            with open(out + ".manifest.json") as f:
                manifest = json.load(f)
            if "sample_counts" in manifest:
                print(f"{sum(manifest['sample_counts'])}  {name}.samples")
            if "rounds" in manifest:
                rounds = max(map(len, manifest["rounds"].values()))
                print(f"{rounds}  {name}.rounds")
                log = json.dumps(manifest["rounds"], sort_keys=True)
                print(f"{hashlib.sha256(log.encode()).hexdigest()}  "
                      f"{name}.round-log")
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
