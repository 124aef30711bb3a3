"""Record the reference outputs the benchmark checks grams against.

Usage, from the root of a checkout: python3 perfbench/record_reference.py

* ``mutag-k3-exact``: the SHA-256 of the exact-mode gram file.  The
  linalg-mode gram of the same configuration must be byte-identical (equal
  partitions give identical integer grams), or nothing is recorded.
* ``mutag-adaptive``: the exact l1-block-normalised gram of the same graphs,
  cross-checked against linalg mode.

Run it only on code whose outputs are trusted; the result is
``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

import run
import workloads


def gram(data_dir: str, out: str, args: list[str]) -> str:
    child = run.run_child(
        run.ksetwl_argv(["gram", "--dataset", data_dir, "--output", out,
                         *args]),
        out + ".log", timeout_s=900)
    if child.code != 0:
        raise SystemExit(f"ksetwl gram {' '.join(args)} exited {child.code}")
    return out


def main() -> int:
    work = os.path.join(run.BUILD, "reference")
    os.makedirs(work, exist_ok=True)

    k3_dir = os.path.join(work, "MUTAG")
    workloads.prepare_inputs("mutag-k3-exact", run.ROOT, k3_dir, 0)
    k3 = ["--kernel", "kwl-local", "--k", "3", "--h", "3"]
    exact = gram(k3_dir, os.path.join(work, "k3-exact"),
                 k3 + ["--mode", "exact"])
    linalg = gram(k3_dir, os.path.join(work, "k3-linalg"),
                  k3 + ["--mode", "linalg"])
    digest = workloads.sha256_file(exact)
    if digest != workloads.sha256_file(linalg):
        raise SystemExit("k=3 exact and linalg grams differ; not recording")

    sub_dir = os.path.join(work, "MUTAGSUB")
    workloads.prepare_inputs("mutag-adaptive", run.ROOT, sub_dir, 0)
    sub = ["--kernel", "kwl-local", "--k", "2", "--h",
           str(workloads.ADAPTIVE_H), "--normalize", "l1-block"]
    _, exact_sub = workloads.read_gram_libsvm(
        gram(sub_dir, os.path.join(work, "sub-exact"), sub + ["--mode", "exact"]))
    _, linalg_sub = workloads.read_gram_libsvm(
        gram(sub_dir, os.path.join(work, "sub-linalg"),
             sub + ["--mode", "linalg"]))
    if not np.allclose(exact_sub, linalg_sub, rtol=0, atol=1e-12):
        raise SystemExit("subset exact and linalg grams differ; not recording")

    reference = {
        "mutag-k3-exact": {"gram_sha256": digest},
        "mutag-adaptive": {"exact_l1_block_gram": exact_sub.tolist()},
    }
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
