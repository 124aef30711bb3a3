"""The README's code examples run as written."""

import os
import re

from conftest import ROOT
from reference import estimate_blocks, shared_exact_run


def readme_block(heading):
    """The first fenced python block under the README's ``heading``."""
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    section = text[text.index(f"## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    scope = {}
    exec(readme_block("Library quick start"), scope)
    labels, counts = scope["labels"], scope["counts"]
    estimate = scope["estimate"]
    # two triangles: 15 2-sets, and every block of the estimate is a
    # probability vector; an exact run under the sampler's own interner
    # meets every key a sample met, so it holds every sampled label at
    # its iteration
    assert counts == [15] and [len(it) for it in labels] == [15] * 4
    assert estimate.sample_count > 0 and len(estimate.rounds) >= 1
    shared, _ = shared_exact_run([scope["g"]], 2, 3, scope["interner"])
    for exact, sampled in zip(shared, estimate_blocks(estimate)):
        assert abs(sum(sampled.values()) - 1) < 1e-12
        assert set(sampled) <= set(exact.tolist())
