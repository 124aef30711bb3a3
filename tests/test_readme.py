"""The README's code examples run as written."""

import os
import re

from conftest import ROOT, label_groups
from reference import estimate_blocks, exact_word_run


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
    # probability vector; the words of all 2-sets split them as the exact
    # labels do, and hold every sampled word at its iteration
    assert counts == [15] and [len(it) for it in labels] == [15] * 4
    assert estimate.sample_count > 0 and len(estimate.rounds) >= 1
    words, _ = exact_word_run([scope["g"]], 2, 3)
    for exact, word, sampled in zip(labels, words, estimate_blocks(estimate)):
        assert label_groups(word.tolist()) == label_groups(exact.tolist())
        assert abs(sum(sampled.values()) - 1) < 1e-12
        assert set(sampled) <= set(word.tolist())
