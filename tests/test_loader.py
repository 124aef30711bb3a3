"""The TU loader and the graph builder: error messages, accepted layouts and
totality.

Error messages are pinned word for word, with the file and line they name.
A hypothesis test writes random valid TU directories in every accepted
layout and compares each parsed Graph field with a per-edge dict oracle,
and fuzz tests mutate the bytes of a small dataset and check that
``ksetwl info`` exits 0 or 2, that ``ksetwl gram``/``features`` exit 0-3,
and that numpy's C reader and the line reader agree on every file.
"""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ksetwl import (FormatError, GraphError, build_graph, parse_tu_dataset,
                    tu_io)
from ksetwl.cli import main

# Two triangles, each edge listed once: vertices 1-3 form graph 1, 4-6 graph 2.
BASE = {
    "A": "1, 2\n2, 3\n1, 3\n4, 5\n5, 6\n4, 6\n",
    "graph_indicator": "1\n1\n1\n2\n2\n2\n",
    "graph_labels": "1\n-1\n",
    "node_labels": "0\n1\n0\n1\n0\n1\n",
    "edge_labels": "1\n2\n1\n2\n1\n2\n",
}
BIG = "99999999999999999999"     # beyond 2^63


def write_tu(root, files, name="DS"):
    """Write ``{name}_{part}.txt`` for each part; None leaves a part out."""
    d = os.path.join(str(root), name)
    os.makedirs(d, exist_ok=True)
    for part, text in files.items():
        path = os.path.join(d, f"{name}_{part}.txt")
        if text is None:
            if os.path.exists(path):
                os.remove(path)
            continue
        with open(path, "wb") as f:
            f.write(text.encode() if isinstance(text, str) else text)
    return d


def with_line(part, lineno, text):
    """BASE with line ``lineno`` of ``part`` replaced by ``text``."""
    lines = BASE[part].splitlines()
    lines[lineno - 1] = text
    return {**BASE, part: "\n".join(lines) + "\n"}


def parse_error(tmp_path, files):
    d = write_tu(tmp_path, files)
    with pytest.raises((FormatError, GraphError)) as info:
        parse_tu_dataset(d)
    return type(info.value), str(info.value).replace(os.path.join(d, "DS_"), "")


# ----------------------------------------------------------- error messages

@pytest.mark.parametrize("files, kind, message", [
    (with_line("A", 2, "2, 3, 1"), FormatError,
     "A.txt:2: expected 'i, j', got '2, 3, 1'"),
    (with_line("A", 2, "2, x"), FormatError,
     "A.txt:2: non-integer node id in '2, x'"),
    (with_line("A", 2, "0, 1"), FormatError,
     "A.txt:2: node id outside [1, 6] (ids are 1-based)"),
    (with_line("A", 2, "3, 4"), FormatError,
     "A.txt:2: edge joins graph 1 and graph 2"),
    (with_line("A", 5, "5, 5"), FormatError,
     "A.txt:5: self-loop on node 5"),
    ({**BASE, "graph_indicator": "", "node_labels": None}, FormatError,
     "A.txt:1: node id outside [1, 0] (ids are 1-based)"),
    ({**BASE, "edge_labels": "1\n2\n"}, FormatError,
     "edge_labels.txt: 2 labels for 6 edge rows"),
    ({**BASE, "node_labels": "1\n2\n"}, FormatError,
     "node_labels.txt: 2 labels for 6 nodes"),
    (with_line("node_labels", 3, "x"), FormatError,
     "node_labels.txt:3: expected an integer node label, got 'x'"),
    (with_line("graph_indicator", 6, "3"), FormatError,
     "graph indicator references graph ids outside [1, 2]"),
    ({**BASE, "A": "1, 2\n2, 1\n" + BASE["A"][5:],
      "edge_labels": "1\n2\n1\n2\n1\n2\n1\n"}, GraphError,
     "conflicting labels for edge (0, 1)"),
], ids=["comma-count", "non-integer-id", "zero-based-id", "cross-graph",
        "self-loop", "no-vertices", "edge-label-count", "node-label-count",
        "non-integer-label", "graph-id-range", "conflicting-edge-labels"])
def test_error_messages_are_pinned(tmp_path, files, kind, message):
    assert parse_error(tmp_path, files) == (kind, message)


@pytest.mark.parametrize("files, message", [
    (with_line("node_labels", 2, BIG),
     f"node_labels.txt:2: node label {BIG} is outside the signed 64-bit range"),
    (with_line("edge_labels", 3, "-" + BIG),
     f"edge_labels.txt:3: edge label -{BIG} is outside the signed 64-bit range"),
    (with_line("graph_labels", 1, BIG),
     f"graph_labels.txt:1: class label {BIG} is outside the signed 64-bit range"),
    (with_line("A", 4, f"{BIG}, 5"),
     "A.txt:4: node id outside [1, 6] (ids are 1-based)"),
    (with_line("graph_indicator", 2, BIG),
     "graph indicator references graph ids outside [1, 2]"),
], ids=["node-label", "edge-label", "class-label", "node-id", "graph-id"])
def test_values_beyond_64_bits_name_their_line(tmp_path, files, message):
    assert parse_error(tmp_path, files) == (FormatError, message)


def test_labels_at_the_64_bit_limits_parse(tmp_path):
    files = with_line("node_labels", 1, str(2 ** 63 - 1))
    files = {**files, "edge_labels": f"{-2 ** 63}\n" + BASE["edge_labels"][2:]}
    ds = parse_tu_dataset(write_tu(tmp_path, files))
    assert ds.graphs[0].node_labels[0] == 2 ** 63 - 1
    assert ds.graphs[0].edge_labels[(1, 0)] == -2 ** 63


def test_first_offending_line_wins(tmp_path):
    lines = BASE["A"].splitlines()
    lines[1], lines[3] = "3, 4", "x, 1"
    assert parse_error(tmp_path, {**BASE, "A": "\n".join(lines)}) == (
        FormatError, "A.txt:2: edge joins graph 1 and graph 2")
    lines[1], lines[3] = "1; 2", "0, 1"
    assert parse_error(tmp_path, {**BASE, "A": "\n".join(lines)}) == (
        FormatError, "A.txt:2: expected 'i, j', got '1; 2'")
    lines[1], lines[3] = "2, 2", "3, 3"
    assert parse_error(tmp_path, {**BASE, "A": "\n".join(lines)}) == (
        FormatError, "A.txt:2: self-loop on node 2")


def test_line_checks_come_before_label_count_before_self_loops(tmp_path):
    lines = BASE["A"].splitlines()
    lines[1], lines[4] = "2, 2", "5, 6, 4"
    assert parse_error(tmp_path, {**BASE, "A": "\n".join(lines),
                                  "edge_labels": "1\n"}) == (
        FormatError, "A.txt:5: expected 'i, j', got '5, 6, 4'")
    lines[4] = "5, 6"
    assert parse_error(tmp_path, {**BASE, "A": "\n".join(lines),
                                  "edge_labels": "1\n"}) == (
        FormatError, "edge_labels.txt: 1 labels for 6 edge rows")


def test_line_numbers_count_blank_lines_and_crlf(tmp_path):
    text = "1, 2\r\n\r\n  \r\n2, 3\r\n3, 3\r\n"
    assert parse_error(tmp_path, {**BASE, "A": text, "edge_labels": None}) == (
        FormatError, "A.txt:5: self-loop on node 3")


def test_conflict_in_the_first_graph_with_one_wins(tmp_path):
    # graph 2's conflict comes first in the file, graph 1's is reported
    files = {**BASE, "A": "6, 5\n5, 6\n1, 2\n2, 1\n",
             "edge_labels": "1\n2\n3\n4\n"}
    assert parse_error(tmp_path, files) == (
        GraphError, "conflicting labels for edge (0, 1)")


@pytest.mark.parametrize("edges, labels, message", [
    ([(0, 1), (1, 2), (2, 1)], [0, 1, 2], "conflicting labels for edge (1, 2)"),
    ([(0, 3)], None, "edge (0, 3) references a vertex outside [0, 3)"),
    ([(-1, 1)], None, "edge (-1, 1) references a vertex outside [0, 3)"),
    ([(1, 1)], None, "self-loop at vertex 1"),
    ([(0, 1), (1, 0), (5, 6)], [1, 2, 0], "conflicting labels for edge (0, 1)"),
    ([(5, 6), (0, 1), (1, 0)], [0, 1, 2],
     "edge (5, 6) references a vertex outside [0, 3)"),
    ([(0, 1), (2, 2), (0, 9)], None, "self-loop at vertex 2"),
    ([(0, 1)], [2 ** 64], "edge labels must be signed 64-bit integers"),
])
def test_build_graph_reports_the_first_bad_edge(edges, labels, message):
    with pytest.raises(GraphError) as info:
        build_graph(3, edges, edge_labels=labels)
    assert str(info.value) == message


def test_build_graph_rejects_oversized_node_labels():
    with pytest.raises(GraphError, match="node labels must be signed 64-bit"):
        build_graph(2, [(0, 1)], node_labels=[0, 2 ** 63])


# ------------------------------------- where numpy's C reader and int() differ

def outcome(d):
    """(indptr, indices, node labels, arc labels) per graph and the classes
    of the dataset in ``d``, or the type and message of its error."""
    try:
        ds = parse_tu_dataset(d)
    except (FormatError, GraphError) as exc:
        return type(exc), str(exc).replace(os.path.join(d, "DS_"), "")
    return [tuple(None if a is None else a.tolist() for a in
                  (g.indptr, g.indices, g.node_labels, g.arc_labels))
            for g in ds.graphs], ds.class_labels


@pytest.mark.parametrize("files, message", [
    (with_line("node_labels", 2, "\x1c1"),
     "node_labels.txt:2: expected an integer node label, got '\\x1c1'"),
    (with_line("A", 3, "1,\x1f3"),
     "A.txt:3: non-integer node id in '1,\\x1f3'"),
    ({**BASE, "graph_labels": b"\xa01\n-1\n"},
     "graph_labels.txt:1: expected an integer class label, got '\\\\xa01'"),
    ({**BASE, "A": b"1, 2\x85\n" + BASE["A"][5:].encode()},
     "A.txt:1: non-integer node id in '1, 2\\\\x85'"),
    ({**BASE, "A": "1,2,3\n4,5,6\n", "edge_labels": None},
     "A.txt:1: expected 'i, j', got '1,2,3'"),
    ({**BASE, "graph_labels": "1,1\n-1,1\n"},
     "graph_labels.txt:1: expected an integer class label, got '1,1'"),
    (with_line("A", 2, "2, 3#c"), "A.txt:2: non-integer node id in '2, 3#c'"),
    (with_line("node_labels", 4, "1#c"),
     "node_labels.txt:4: expected an integer node label, got '1#c'"),
    (with_line("node_labels", 1, "1.0"),
     "node_labels.txt:1: expected an integer node label, got '1.0'"),
    (with_line("A", 6, "4, 6.0"), "A.txt:6: non-integer node id in '4, 6.0'"),
], ids=["x1c-label", "x1f-edge", "xa0-class", "x85-edge", "three-columns",
        "two-column-labels", "comment-edge", "comment-label", "float-label",
        "float-edge"])
def test_what_int_refuses_numpy_does_not_accept(tmp_path, files, message):
    assert outcome(write_tu(tmp_path, files)) == (FormatError, message)


@pytest.mark.parametrize("files, same_as", [
    ({**BASE, "A": "1, 2\n \t \n2, 3\n\x0b\n1, 3\n4, 5\n5, 6\n4, 6\n"},
     BASE),
    (with_line("graph_indicator", 2, "\x0c1\x0b"), BASE),
    ({**with_line("A", 1, "0_1, 2"), "node_labels": "1_0\n1\n0\n1\n0\n1\n"},
     {**BASE, "node_labels": "10\n1\n0\n1\n0\n1\n"}),
], ids=["whitespace-only-lines", "vertical-space", "underscore"])
def test_what_int_accepts_reads_as_plain_digits(tmp_path, files, same_as):
    assert (outcome(write_tu(tmp_path / "case", files)) ==
            outcome(write_tu(tmp_path / "plain", same_as)))


@pytest.mark.parametrize("edges", ["", "\n", " \r\n\t"],
                         ids=["empty", "blank", "whitespace"])
def test_an_edge_file_without_rows_means_no_edges(tmp_path, edges):
    files = {**BASE, "A": edges, "edge_labels": None}
    assert outcome(write_tu(tmp_path, files)) == (
        [([0, 0, 0, 0], [], [0, 1, 0], None),
         ([0, 0, 0, 0], [], [1, 0, 1], None)], [1, -1])


def test_one_point_zero_exits_2(tmp_path, capsys):
    d = write_tu(tmp_path, with_line("graph_labels", 2, "-1.0"))
    assert main(["info", "--dataset", d]) == 2
    assert "expected an integer class label, got '-1.0'" in (
        capsys.readouterr().err)


# ------------------------------------------------ differential property test

def oracle(indicator, rows, classes, node_labels, row_labels):
    """Per-graph fields from sets and dicts, one edge row at a time.

    ``indicator`` holds 1-based graph ids per vertex, ``rows`` 1-based
    vertex pairs.  Edge labels are None without labels or without rows.
    """
    members = {g: [x for x, gx in enumerate(indicator) if gx == g + 1]
               for g in range(len(classes))}
    local = {x: members[g].index(x) for g in members for x in members[g]}
    adjacency = {g: {i: set() for i in range(len(members[g]))} for g in members}
    labels = {g: {} for g in members} if row_labels else None
    for i, (u, v) in enumerate(rows):
        g, a, b = indicator[u - 1] - 1, local[u - 1], local[v - 1]
        adjacency[g][a].add(b)
        adjacency[g][b].add(a)
        if labels is not None and (min(a, b), max(a, b)) not in labels[g]:
            labels[g][(min(a, b), max(a, b))] = row_labels[i]
            labels[g][(max(a, b), min(a, b))] = row_labels[i]
    out = []
    for g in members:
        rows_g = [sorted(adjacency[g][i]) for i in range(len(members[g]))]
        out.append({
            "num_vertices": len(members[g]),
            "indptr": np.cumsum([0] + [len(r) for r in rows_g]).tolist(),
            "indices": [x for r in rows_g for x in r],
            "node_labels": (None if node_labels is None else
                            [node_labels[x] for x in members[g]]),
            "edge_labels": None if labels is None else labels[g],
            "arc_labels": (None if labels is None else
                           [labels[g][(i, x)] for i, r in enumerate(rows_g)
                            for x in r]),
            "class_label": classes[g],
        })
    return out


@st.composite
def tu_datasets(draw):
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    indicator = [g + 1 for g, n in enumerate(sizes) for _ in range(n)]
    indicator = draw(st.permutations(indicator))
    members = [[x for x, gx in enumerate(indicator) if gx == g + 1]
               for g in range(len(sizes))]
    rows, edge_label_of = [], {}
    for vs in members:
        for i, a in enumerate(vs):
            for b in vs[i + 1:]:
                if draw(st.booleans()):
                    edge_label_of[(a, b)] = draw(st.integers(-3, 3))
                    ends = draw(st.sampled_from(["once", "reversed", "both",
                                                 "repeated"]))
                    pair = [(a + 1, b + 1), (b + 1, a + 1)]
                    rows += {"once": pair[:1], "reversed": pair[1:],
                             "both": pair,
                             "repeated": pair + pair[:1]}[ends]
    rows = draw(st.permutations(rows))
    row_labels = [edge_label_of[(min(u, v) - 1, max(u, v) - 1)]
                  for u, v in rows]
    label_values = st.integers(-2 ** 63, 2 ** 63 - 1)
    return {
        "indicator": indicator, "rows": rows,
        "classes": draw(st.lists(label_values, min_size=len(sizes),
                                 max_size=len(sizes))),
        "node_labels": draw(st.none() | st.lists(
            label_values, min_size=len(indicator), max_size=len(indicator))),
        "row_labels": draw(st.none() | st.just(row_labels)),
        "newline": draw(st.sampled_from(["\n", "\r\n", "\r"])),
        "blank": draw(st.lists(st.integers(0, 20), max_size=3)),
        "final_newline": draw(st.booleans()),
        "spacing": draw(st.sampled_from(["{}, {}", "{},{}", " {} ,\t{} "])),
    }


def render(lines, case):
    for at in case["blank"]:
        lines.insert(min(at, len(lines)), "  " if at % 2 else "")
    text = case["newline"].join(lines)
    return text + case["newline"] if case["final_newline"] else text


@given(tu_datasets())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_parsed_graphs_match_a_per_edge_oracle(case):
    spacing = case["spacing"]
    files = {
        "A": render([spacing.format(u, v) for u, v in case["rows"]], case),
        "graph_indicator": render(list(map(str, case["indicator"])), case),
        "graph_labels": render(list(map(str, case["classes"])), case),
        "node_labels": (None if case["node_labels"] is None else
                        render(list(map(str, case["node_labels"])), case)),
        "edge_labels": (None if case["row_labels"] is None else
                        render(list(map(str, case["row_labels"])), case)),
    }
    with tempfile.TemporaryDirectory() as root:
        ds = parse_tu_dataset(write_tu(root, files))
    expected = oracle(case["indicator"], case["rows"], case["classes"],
                      case["node_labels"], case["row_labels"] or None)
    assert ds.class_labels == case["classes"]
    assert len(ds.graphs) == len(expected)
    for g, label, want in zip(ds.graphs, ds.class_labels, expected):
        assert g.indptr.dtype == g.indices.dtype == np.int64
        got = {
            "num_vertices": g.num_vertices,
            "indptr": g.indptr.tolist(),
            "indices": g.indices.tolist(),
            "node_labels": (None if g.node_labels is None
                            else g.node_labels.tolist()),
            "edge_labels": g.edge_labels,
            "arc_labels": (None if g.arc_labels is None
                           else g.arc_labels.tolist()),
            "class_label": label,
        }
        assert got == want
        assert type(label) is int


@given(st.integers(0, 6), st.lists(st.tuples(st.integers(0, 5),
                                             st.integers(0, 5)), max_size=20),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_build_graph_matches_the_oracle(n, pairs, labeled):
    edges = [(u, v) for u, v in pairs if u != v and max(u, v) < n]
    labels = [min(u, v) * 7 + max(u, v) for u, v in edges] if labeled else None
    g = build_graph(n, edges, edge_labels=labels)
    want = oracle([1] * n, [(u + 1, v + 1) for u, v in edges], [3], None,
                  labels)[0]
    if labeled and not edges:
        want["edge_labels"], want["arc_labels"] = {}, []
    assert (g.num_vertices, g.indptr.tolist(), g.indices.tolist()) == (
        want["num_vertices"], want["indptr"], want["indices"])
    assert g.edge_labels == want["edge_labels"]
    assert (None if g.arc_labels is None
            else g.arc_labels.tolist()) == want["arc_labels"]


def test_empty_edge_label_file_means_unlabeled(tmp_path):
    files = {**BASE, "A": "", "edge_labels": "\n"}
    ds = parse_tu_dataset(write_tu(tmp_path, files))
    assert all(g.edge_labels is None and g.num_edges == 0 for g in ds.graphs)


# ------------------------------------------------------------- totality fuzz

SMALL = {part: text.encode() for part, text in BASE.items()}
POOL = b"0123456789,-+ \t\n\r_x\x00\xff\xe3"


def edits(pool):
    """One to four byte edits, each with a byte from ``pool`` or any byte."""
    return st.lists(st.tuples(
        st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 40),
        st.sampled_from(list(pool)))
        | st.tuples(st.just("replace"), st.integers(0, 40),
                    st.integers(0, 255)), min_size=1, max_size=4)


EDITS = edits(POOL)
# plus bytes that numpy's C reader or a latin-1 decoder skip as whitespace
SPACES = edits(POOL + b"\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0")


def mutated(part, edits) -> dict:
    """SMALL with the bytes of ``part`` edited."""
    data = bytearray(SMALL[part])
    for op, at, byte in edits:
        at = min(at, len(data))
        if op == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if op == "replace":
                data[at] = byte
            else:
                del data[at]
    return {**SMALL, part: bytes(data)}


@given(st.sampled_from(sorted(SMALL)), EDITS)
@settings(max_examples=300, deadline=None)
def test_info_exits_0_or_2_on_mutated_bytes(part, edits):
    with tempfile.TemporaryDirectory() as root:
        d = write_tu(root, mutated(part, edits))
        assert main(["info", "--dataset", d]) in (0, 2)


@given(st.sampled_from(sorted(SMALL)), SPACES)
@settings(max_examples=300, deadline=None)
def test_c_reader_and_line_reader_agree_on_mutated_bytes(part, edits):
    with tempfile.TemporaryDirectory() as root:
        d = write_tu(root, mutated(part, edits))
        shipped = outcome(d)
        with mock.patch.object(tu_io, "_c_read", lambda path, columns: None):
            assert outcome(d) == shipped


KWL2 = ("--kernel", "kwl-local", "--k", "2")
RUNS = [
    (*KWL2, "--mode", "exact"),
    (*KWL2, "--mode", "linalg"),
    (*KWL2, "--mode", "sampled", "--samples", "20"),
    (*KWL2, "--mode", "adaptive", "--epsilon", "0.5"),
    ("--kernel", "wl1", "--mode", "exact"),
    ("--kernel", "wl1", "--mode", "linalg"),
]


@given(st.sampled_from(sorted(SMALL)), EDITS,
       st.sampled_from(["gram", "features"]), st.sampled_from(RUNS))
@settings(max_examples=200, deadline=None)
def test_compute_exits_0_to_3_on_mutated_bytes(part, edits, command, run):
    with tempfile.TemporaryDirectory() as root:
        d = write_tu(root, mutated(part, edits))
        assert main([command, "--dataset", d, *run, "--h", "1",
                     "--output", os.path.join(root, "out")]) in (0, 1, 2, 3)
