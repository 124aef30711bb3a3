"""The package exports exactly the names the CLI, the README and the library
quick start rely on, and every dotted name the README mentions exists."""

import importlib
import os
import re

import ksetwl

from conftest import ROOT

EXPORTS = [
    "Dataset", "Features", "FormatError", "Graph", "GraphError", "KSetIndex",
    "KsetwlError", "ParameterError", "RademacherState",
    "ResourceLimitError", "SampledEstimate", "build_graph",
    "cosine_normalize_gram", "estimate_features_adaptive",
    "estimate_features_fixed", "exact_kset_run", "gram_matrix",
    "hoeffding_sample_size", "hoeffding_sample_size_dataset", "l1_normalize",
    "la_kset_run", "make_rng", "massart_deviation_bound",
    "observed_label_count", "parse_tu_dataset", "write_features_sparse",
    "write_gram_csv", "write_gram_libsvm",
]


def resolve(dotted):
    """The object a dotted name refers to: its longest importable module
    prefix, then attribute lookups for the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ModuleNotFoundError(dotted)


def test_exports_and_readme_names_exist():
    assert sorted(ksetwl.__all__) == EXPORTS
    with open(os.path.join(ROOT, "README.md")) as f:
        names = set(re.findall(r"\bksetwl(?:\.\w+)+", f.read()))
    assert {"ksetwl.linalg._split_collisions",
            "ksetwl.linalg.word_sums",
            "ksetwl.sampling.observed_label_count"} <= names
    missing = []
    for name in sorted(names):
        try:
            resolve(name)
        except (AttributeError, ModuleNotFoundError):
            missing.append(name)
    assert missing == []
