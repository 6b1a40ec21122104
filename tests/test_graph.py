import hashlib
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fane
from fane import (AttributedGraph, GraphFormatError, build_augmented, load_attributes,
                  load_edge_list, load_labels, stats)


def test_minimal_path_graph():
    g = load_edge_list(io.StringIO("0 1\n1 2\n"))
    assert g.n_nodes == 3
    assert g.n_edges == 2
    assert np.all(g.edge_weight == 1.0)


def test_duplicate_edges_merge_by_weight_sum():
    g = load_edge_list(io.StringIO("0 1 2.5\n1 0 2.5\n"))
    assert g.n_edges == 1
    assert g.edge_weight[0] == 5.0
    assert g.merged_duplicate_edges == 1


def test_self_loops_dropped_with_count():
    g = load_edge_list(io.StringIO("0 0\n0 1\n2 2\n1 2\n"))
    assert g.n_edges == 2
    assert g.dropped_self_loops == 2


@pytest.mark.parametrize("text,line", [
    ("0 1\n1 2\n3 3\n", 3),
    ("# c\n5 5\n0 1\n5 5\n1 2\n4 4\n", 2),
    ("0 1\n2 2\n3 3\n2 2\n", 2),
])
def test_node_only_in_self_loops_rejected_with_line(text, line):
    with pytest.raises(GraphFormatError, match=f"line {line}: node .* only in self-loops"):
        load_edge_list(io.StringIO(text))


def test_comments_and_blank_lines_skipped():
    g = load_edge_list(io.StringIO("# header\n\n0 1\n# mid\n1 2\n"))
    assert g.n_edges == 2


@pytest.mark.parametrize("text,fragment", [
    ("0\n", "line 1"),
    ("0 1 x\n", "weight"),
    ("0 1 -1.0\n", "positive"),
    ("0 1 0\n", "positive"),
    ("", "no edges"),
])
def test_edge_list_errors(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        load_edge_list(io.StringIO(text))


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.floats(0.1, 10.0, allow_nan=False)),
                min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_merge_rule_matches_dict_accumulation(pairs):
    expected = {}
    for u, v, w in pairs:
        if u == v:
            continue
        w = float(np.float64(w))
        key = (min(u, v), max(u, v))
        expected[key] = expected.get(key, 0.0) + w
    if not expected:
        return
    text = "".join(f"{u} {v} {w!r}\n" for u, v, w in pairs)
    if {u for u, v, _ in pairs if u == v} - {x for key in expected for x in key}:
        with pytest.raises(GraphFormatError, match="only in self-loops"):
            load_edge_list(io.StringIO(text))
        return
    g = load_edge_list(io.StringIO(text))
    assert g.n_edges == len(expected)
    names = g.node_names
    got = {(min(int(names[a]), int(names[b])), max(int(names[a]), int(names[b]))): w
           for a, b, w in zip(g.edge_src, g.edge_dst, g.edge_weight)}
    assert set(got) == set(expected)
    for k in expected:
        assert got[k] == pytest.approx(expected[k], abs=1e-12)


def _path_graph():
    return load_edge_list(io.StringIO("0 1\n1 2\n"))


def test_sparse_attribute_errors():
    g = _path_graph()
    with pytest.raises(GraphFormatError, match="unknown node"):
        load_attributes(io.StringIO("9 0\n"), g)
    with pytest.raises(GraphFormatError, match="negative value"):
        load_attributes(io.StringIO("0 0 -3\n"), g)
    with pytest.raises(GraphFormatError, match=r"duplicate entry.*first at line 1"):
        load_attributes(io.StringIO("0 1\n0 1 2.0\n"), g)


@pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
def test_attribute_non_finite_value(token):
    g = _path_graph()
    with pytest.raises(GraphFormatError, match="line 2: non-finite value"):
        load_attributes(io.StringIO(f"0 0\n1 0 {token}\n"), g)


def test_labels_load_and_errors():
    g = _path_graph()
    load_labels(io.StringIO("0 spam\n2 ham\n"), g)
    assert g.class_names == ["ham", "spam"]
    assert g.labels == {0: 1, 2: 0}
    with pytest.raises(GraphFormatError, match="unknown node"):
        load_labels(io.StringIO("7 spam\n"), g)
    with pytest.raises(GraphFormatError, match="conflicting"):
        load_labels(io.StringIO("0 spam\n0 ham\n"), g)


def test_empty_label_file_gives_empty_map():
    g = _path_graph()
    load_labels(io.StringIO(""), g)
    assert g.labels == {}


def test_augmented_counts_and_bipartite_virtual_edges():
    # 3 nodes sharing the same 2 binary attributes
    g = load_edge_list(io.StringIO("0 1\n1 2\n"))
    load_attributes(io.StringIO("0 0\n0 1\n1 0\n1 1\n2 0\n2 1\n"), g)
    ag = build_augmented(g)
    s = stats(ag)
    assert s["n_virtual_edges"] == 6
    assert s["n_attr_nodes"] == 2
    assert s["n_total_edges"] == s["n_raw_edges"] + s["n_virtual_edges"]
    # attribute nodes never touch each other
    for v in range(ag.n_raw, ag.n_total):
        nbrs, _ = ag.neighbor_slice(v)
        assert np.all(nbrs < ag.n_raw)


def test_augmented_no_attributes_equals_raw():
    g = load_edge_list(io.StringIO("0 1\n1 2\n"))
    ag = build_augmented(g)
    assert ag.n_total == g.n_nodes
    assert ag.n_total_edges == g.n_edges
    assert ag.n_attr_nodes == 0


def test_zero_incidence_attributes_skipped_and_counted():
    g = load_edge_list(io.StringIO("0 1\n"))
    load_attributes(io.StringIO("0 3\n"), g)
    ag = build_augmented(g)
    assert ag.n_attr_nodes == 1
    assert ag.skipped_attrs == 3
    assert ag.attr_ids.tolist() == [3]


def test_build_augmented_memory_independent_of_largest_attribute_id():
    # one entry at attribute id 2*10^7; a fresh interpreter, so that the
    # high-water mark is this build's own
    script = textwrap.dedent("""
        import io, resource
        from fane import build_augmented, load_attributes, load_edge_list
        g = load_edge_list(io.StringIO("0 1\\n"))
        load_attributes(io.StringIO("0 20000000\\n"), g)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ag = build_augmented(g)
        assert ag.attr_ids.tolist() == [20000000] and ag.skipped_attrs == 20000000
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
    """)
    src = str(Path(fane.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert int(out.stdout) < 50 * 1024     # ru_maxrss is in KiB on Linux


def test_attribute_node_degree_equals_incidence():
    rng = np.random.default_rng(7)
    lines = [f"{i} {i + 1}" for i in range(9)]
    g = load_edge_list(io.StringIO("\n".join(lines)))
    entries = set()
    while len(entries) < 20:
        entries.add((int(rng.integers(10)), int(rng.integers(3))))
    text = "".join(f"{v} {a}\n" for v, a in sorted(entries))
    load_attributes(io.StringIO(text), g)
    ag = build_augmented(g)
    for slot, attr in enumerate(ag.attr_ids):
        expected = sum(1 for v, a in entries if a == attr)
        assert ag.degree(ag.n_raw + slot) == expected


def test_attr_edge_weight_rules():
    g = load_edge_list(io.StringIO("0 1\n"))
    load_attributes(io.StringIO("0 0 2.5\n1 0 4.0\n"), g)
    ag = build_augmented(g)  # weight = attribute value
    nbrs, wgts = ag.neighbor_slice(2)
    assert wgts.tolist() == [2.5, 4.0]


def test_save_load_round_trip_bit_exact(tmp_path):
    g = load_edge_list(io.StringIO("5 9 1.25\n9 3 0.1\n3 5 2.7182818284590451\n"))
    load_attributes(io.StringIO("5 0 0.30000000000000004\n3 2\n"), g)
    load_labels(io.StringIO("5 x\n9 y\n"), g)
    g.save(tmp_path / "g")
    from fane.graph import AttributedGraph
    g2 = AttributedGraph.load_dir(tmp_path / "g")
    assert g2.n_nodes == g.n_nodes
    assert g2.n_edges == g.n_edges
    assert np.array_equal(g2.edge_weight, g.edge_weight)
    assert np.array_equal(g2.attr_value, g.attr_value)
    assert g2.labels and all(
        g2.class_names[g2.labels[g2.name_to_id()[name]]] ==
        g.class_names[g.labels[g.name_to_id()[name]]]
        for name in ("5", "9"))
    # second save is byte-identical
    g2.save(tmp_path / "g2")
    for fn in ("edges.txt", "attrs.txt", "labels.txt", "nodemap.txt"):
        assert (tmp_path / "g" / fn).read_bytes() == (tmp_path / "g2" / fn).read_bytes()


@pytest.mark.parametrize("name", ["cora", "citeseer", "webkb", "adjnoun"])
def test_save_load_keeps_every_field_of_a_dataset(name, data_root, tmp_path):
    """load_dir(save(g)) keeps the ids, the edge order and weights, the
    attributes and the labels, to the bit."""
    def digest(g):
        h = hashlib.sha1(repr((g.n_nodes, g.node_names, g.n_attrs, sorted(g.labels.items()),
                               g.class_names)).encode())
        for a in (g.edge_src, g.edge_dst, g.edge_weight, g.attr_node, g.attr_id, g.attr_value):
            h.update(a.dtype.str.encode() + np.ascontiguousarray(a).tobytes())
        return h.hexdigest()
    g = AttributedGraph.load_dir(data_root / name)
    g.save(tmp_path / name)
    assert digest(AttributedGraph.load_dir(tmp_path / name)) == digest(g)


def test_dump_format(five_node_graph, tmp_path):
    path = tmp_path / "dump.txt"
    five_node_graph.dump(path)
    lines = path.read_text().splitlines()
    assert len(lines) == five_node_graph.n_total
    assert lines[0].startswith("raw 0 :")
    assert lines[-1].startswith("attr 0 :")
    assert "a0" in lines[1]  # node 1 carries attribute 0


def test_stats_on_fixture(five_node_graph):
    s = stats(five_node_graph)
    assert s["n_raw"] == 5
    assert s["n_attr_nodes"] == 1
    assert s["n_virtual_edges"] == 2
    assert s["n_total_edges"] == 8
