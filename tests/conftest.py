import importlib.util
import os

import pytest

from ksetwl import KSetIndex, build_graph, parse_tu_dataset

from reference import neighbor_csr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_DIR = os.path.join(ROOT, "data")
MUTAG_DIR = os.path.join(DATA_DIR, "MUTAG")
SRC_DIR = os.path.join(ROOT, "src")


def scripts(name):
    """The module ``scripts/<name>.py`` of this checkout."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tri():
    """K3: the complete graph on three vertices."""
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def e1i():
    """One edge 0-1 plus the isolated vertex 2."""
    return build_graph(3, [(0, 1)])


@pytest.fixture
def p3():
    return build_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def p4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def c6():
    return build_graph(6, [(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture
def two_k3():
    """Two disjoint triangles; 2-regular like C6 but not isomorphic to it."""
    return build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def random_graph(rng, n, p, labeled=False, edge_labeled=False):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    labels = rng.integers(0, 3, size=n).tolist() if labeled else None
    edge_labels = (rng.integers(0, 3, size=len(edges)).tolist()
                   if edge_labeled else None)
    return build_graph(n, edges, node_labels=labels, edge_labels=edge_labels)


def local_kset_csr(g, k):
    """The k-set index of ``g`` and the rank-space CSR of its local swaps."""
    index = KSetIndex(g.num_vertices, k)
    return (index, *neighbor_csr(g, index, True, index.all_sets()))


@pytest.fixture(scope="session")
def long_path():
    """A 200k-vertex path: C(n, 4) exceeds the 64-bit rank range."""
    n = 200_000
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


@pytest.fixture(scope="session")
def mutag():
    return parse_tu_dataset(MUTAG_DIR, "MUTAG")


@pytest.fixture
def two_triangle_dir(tmp_path):
    """Hand-built TU fixture: 6 nodes, two triangles, edges both directions."""
    d = tmp_path / "TWOTRI"
    d.mkdir()
    edges = []
    for a, b in [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]:
        edges += [f"{a}, {b}", f"{b}, {a}"]
    (d / "TWOTRI_A.txt").write_text("\n".join(edges) + "\n")
    (d / "TWOTRI_graph_indicator.txt").write_text(
        "\n".join(["1"] * 3 + ["2"] * 3) + "\n")
    (d / "TWOTRI_graph_labels.txt").write_text("1\n-1\n")
    return str(d)


def label_groups(labels_by_item):
    """Partition induced by a labeling, independent of label values."""
    groups = {}
    items = (labels_by_item.items() if isinstance(labels_by_item, dict)
             else enumerate(labels_by_item))
    for item, lab in items:
        groups.setdefault(lab, []).append(item)
    return {frozenset(members) for members in groups.values()}
