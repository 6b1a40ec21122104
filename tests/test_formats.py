import io
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fane import EmbeddingMatrix, GraphFormatError, graph, load_attributes, load_edge_list, load_labels
from fane.cli import main
from fane.graph import read_records
from fane.walks import load_corpus_tokens

from oracles.edge_records import load_edge_records


def test_reader_skips_comments_and_checks_field_count():
    text = "# head\n\n  a b  \n#x y\nc d e\n"
    assert list(read_records(io.StringIO(text), "pair", "left right [extra]")) == [
        (3, ["a", "b"]), (5, ["c", "d", "e"])]
    with pytest.raises(GraphFormatError, match=r"pair line 2: expected 'left right', got 'b'"):
        list(read_records(io.StringIO("a b\nb\n"), "pair", "left right"))


def test_reader_separator_keeps_rest_of_last_field():
    records = list(read_records(b"k = a=b c\n", "config", "key=value", sep="="))
    assert records == [(1, ["k ", " a=b c"])]


def test_reader_leaves_callers_streams_open():
    text = io.StringIO("0 1\n")
    binary = io.BytesIO(b"0 1\n")
    load_edge_list(text)
    load_edge_list(binary)
    assert not text.closed and not binary.closed


def test_duplicate_attribute_reports_earliest_repeat():
    g = load_edge_list(io.StringIO("0 1\n1 2\n"))
    text = "0 1\n2 0\n1 0\n2 0\n1 0\n0 1\n"
    with pytest.raises(GraphFormatError,
                       match=r"line 4: duplicate entry for node '2' attr 0 \(first at line 2\)"):
        load_attributes(io.StringIO(text), g)


def test_attribute_index_must_fit_32_bits(tmp_path, capsys):
    g = load_edge_list(io.StringIO("0 1\n"))
    assert load_attributes(io.StringIO(f"0 {2**31 - 1}\n"), g).n_attrs == 2**31
    with pytest.raises(GraphFormatError, match=r"attribute line 2: attribute index 2147483648 is 2\^31 or more"):
        load_attributes(io.StringIO(f"1 0\n0 {2**31}\n"), load_edge_list(io.StringIO("0 1\n")))
    (tmp_path / "edges.txt").write_text("0 1\n")
    (tmp_path / "attrs.txt").write_text("0 3000000000\n")
    rc = main(["build", "--edges", str(tmp_path / "edges.txt"), "--attrs", str(tmp_path / "attrs.txt"),
               "--out", str(tmp_path / "bundle")])
    assert rc == 2
    assert "attribute line 1: attribute index 3000000000 is 2^31 or more" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("", "line 1: bad header"),
    ("2\n", "line 1: bad header"),
    ("two 1\n", "line 1: bad header"),
    ("\u00b2 2\n", "line 1: bad header"),
    ("2 0\n", "line 1: bad header"),
    ("2 2\na 0.5 1\nb 0.5\n", "line 3: expected a key and 2 values, got 2 fields"),
    ("2 2\na 0.5 1\n", "line 3: expected a key and 2 values, got 0 fields"),
    ("2 2\na 0.5 1\nb x 1\n", "line 3: could not convert string to float: 'x'"),
    ("2 1\na 0.5\nb 0.5\n\nc 0.5\n", "line 5: row beyond the header's count of 2"),
    ("3 1\na 0.5\nb 0.5\na 0.7\n", "line 4: key 'a' repeats line 2"),
    ("99999999999 128\na" + " 0.5" * 128 + "\n", "line 3: expected a key and 128 values, got 0 fields"),
], ids=["empty", "one-field", "non-integer", "superscript", "zero-dimension", "short-row",
        "missing-row", "non-numeric", "extra-row", "repeated-key", "huge-count"])
def test_text_embedding_errors_name_file_line(tmp_path, capsys, text, message):
    path = tmp_path / "emb.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^embedding file {message}"):
        EmbeddingMatrix.load_text(path)
    (tmp_path / "labels.txt").write_text("a x\nb y\n")
    rc = main(["eval", "--embeddings", str(path), "--labels", str(tmp_path / "labels.txt"),
               "--out", str(tmp_path / "report.csv")])
    assert rc == 2
    assert f"embedding file {message}" in capsys.readouterr().err


def test_non_ascii_utf8_text_parses(tmp_path):
    """Tokens outside ASCII are valid UTF-8: the corpus and text embedding
    readers keep them."""
    path = tmp_path / "in.txt"
    path.write_text("\u00e9 \u4e2d\n\u4e2d \u00e9\n", encoding="utf-8")
    assert load_corpus_tokens(path)[1] == ["\u00e9", "\u4e2d"]
    path.write_text("2 1\n\u00e9 0.5\n\u4e2d -0.5\n", encoding="utf-8")
    assert EmbeddingMatrix.load_text(path).keys == ["\u00e9", "\u4e2d"]


def _binary_row(key: bytes, values) -> bytes:
    return key + b" " + np.asarray(values, "<f4").tobytes() + b"\n"


@pytest.mark.parametrize("data, message", [
    (b"", "line 1: bad header"),
    (b"2 x\n", "line 1: bad header"),
    (b"2 2\n" + _binary_row(b"a", [1, 2]) + b"b", "line 3: expected a key, a space, 2 float32"),
    (b"2 2\n" + _binary_row(b"a", [1, 2]) + b"b " + bytes(6), "line 3: expected a key, a space, 2 float32"),
    (b"2 2\n" + _binary_row(b"a", [1, 2])[:-1] + b"xb " + bytes(9), "line 2: expected a key, a space, 2 float32"),
    (b"2 2\n" + b"".join(_binary_row(k, [1, 2]) for k in (b"a", b"b", b"c")),
     "line 4: row beyond the header's count of 2"),
    (b"3 2\n" + b"".join(_binary_row(k, [1, 2]) for k in (b"a", b"b", b"b")),
     "line 4: key 'b' repeats line 3"),
    (b"1 2\n" + _binary_row(b"\xff", [1, 2]), "line 2: not valid UTF-8"),
    (b"99999999999 128\n" + _binary_row(b"a", range(128)), "line 3: expected a key, a space, 128 float32"),
], ids=["empty", "non-integer", "truncated-key", "short-vector", "no-newline", "extra-row",
        "repeated-key", "non-utf8-key", "huge-count"])
def test_binary_embedding_errors_name_file_line(tmp_path, capsys, data, message):
    path = tmp_path / "emb.bin"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^embedding file {message}"):
        EmbeddingMatrix.load_binary(path)
    (tmp_path / "labels.txt").write_text("a x\nb y\n")
    rc = main(["eval", "--binary", "--embeddings", str(path), "--labels", str(tmp_path / "labels.txt"),
               "--out", str(tmp_path / "report.csv")])
    assert rc == 2
    assert f"embedding file {message}" in capsys.readouterr().err


# The edge list against its oracle, and the attribute scanner against the
# per-record parser -----------------------------------------------------------

NAMES = ["0", "1", "2", "17", "x", "n#3", "a_b", "node-9", "+4", "1e3"]
SPACES = st.sampled_from([" ", "\t", "  ", " \t"])
ENDS = st.sampled_from(["\n", "\r\n"])


def _decimal(x: float):
    """Spellings of a positive float that float() reads: its repr, short
    decimals, exponents and signs, a bare leading or trailing dot (.5e-3,
    5.e-03), digit-group underscores (1_234.5), padding zeros (0005.50) and
    an exponent without a dot (1E+05)."""
    mantissa, exponent = f"{x:.6e}".split("e")
    leading_dot = f".{mantissa.replace('.', '')}e{int(exponent) + 1}"
    return st.sampled_from([repr(x), f"{x:.3f}", f"{x:.1e}", f"{x:.6E}", f"+{x!r}", f"{x:.17g}",
                            leading_dot, f"+{leading_dot}", f"{x:#.0e}", f"{x:_.8f}",
                            f"000{x:.8f}0", f"{x:.0E}"])


def _file(lines, ends=ENDS, unique_by=None):
    """A file of data lines with comments, blank lines, mixed separators and
    line endings; bytes encoded from the drawn text. ``unique_by`` keys the
    data lines that must not repeat."""
    def render(parts):
        body, lead, seps, trail, end, extra = parts
        line = lead + "".join(f + s for f, s in zip(body, seps + [""])) + trail
        return extra + line + end
    line = st.tuples(lines, st.sampled_from(["", " ", "\t"]), st.lists(SPACES, min_size=2, max_size=2),
                     st.sampled_from(["", " ", "\t"]), ends,
                     st.sampled_from(["", "", "", "# a comment\n", "\n", "  \t\n", "#\n"]))
    rows = st.lists(line, max_size=40, unique_by=(lambda parts: unique_by(parts[0])) if unique_by else None)
    return rows.map(lambda rows: "".join(map(render, rows)).encode())


_weights = st.floats(1e-6, 1e6).flatmap(_decimal)
EDGE_FILES = _file(st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)).flatmap(
    lambda uv: st.one_of(st.just(list(uv)), _weights.map(lambda w: [*uv, w]))))
ATTR_FILES = _file(st.tuples(st.sampled_from(NAMES), st.integers(0, 40).flatmap(
    lambda a: st.sampled_from([str(a), f"+{a}", f"0{a}"]))).flatmap(
    lambda na: st.one_of(st.just(list(na)), _weights.map(lambda x: [*na, x]))))
# the plain "node attr" lines the scanner reads, each (node, attr) pair once
PLAIN_ATTR_FILES = _file(st.tuples(st.sampled_from(NAMES), st.integers(0, 40).flatmap(
    lambda a: st.sampled_from([str(a), f"0{a}"]))).map(list), st.just("\n"),
    unique_by=lambda na: (na[0], int(na[1])))


def _state(g: graph.AttributedGraph):
    """Every field of a graph, arrays as (dtype, bytes)."""
    return {k: (v.dtype.str, v.tobytes()) if isinstance(v, np.ndarray) else
            list(v.items()) if isinstance(v, dict) else v for k, v in vars(g).items()}


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except GraphFormatError as e:
        return "error", str(e)


def _base_graph():
    return load_edge_list(("".join(f"{a} {b}\n" for a, b in zip(NAMES, NAMES[1:]))).encode())


@given(EDGE_FILES)
@settings(max_examples=150, deadline=None)
def test_edge_list_matches_records(data):
    _same_result(load_edge_list, load_edge_records, data)


def _scanned(data):
    """The base graph with the scanner's attributes of ``data``, or None
    where the scanner declines."""
    g = _base_graph()
    try:
        g.n_attrs, g.attr_node, g.attr_id, g.attr_value = graph._scan_sparse_attributes(data, g)
    except graph._Declined:
        return None
    return g


@given(ATTR_FILES, PLAIN_ATTR_FILES)
@settings(max_examples=150, deadline=None)
def test_attribute_scanner_matches_records(data, plain):
    # on any input the scanner declines or matches, and declines what fails
    kind, want = _outcome(graph._load_attribute_records, data, _base_graph())
    got = _scanned(data)
    assert got is None if kind == "error" else got is None or _state(got) == _state(want)
    _same_result(load_attributes, graph._load_attribute_records, data, _base_graph)
    # plain two-field lines it reads itself
    got = _scanned(plain)
    assert got is not None
    assert _state(got) == _state(graph._load_attribute_records(plain, _base_graph()))


# "9" * 19 is wider than the scanner's integers (18 bytes); "\udcff" is
# written as the byte 0xff, which is not UTF-8
CORRUPTIONS = ["x", "-1", "0", "nan", "inf", "1e999", "", "a b c d", "\u0663", "1_0x", "\udcff",
               "9" * 19, "0." + "0" * 30 + "1"]


def _same_result(load, per_record, data, *graph_args):
    """load(data) and per_record(data) both raise the same GraphFormatError
    text or both give the same graph."""
    got = _outcome(load, data, *[a() for a in graph_args])
    want = _outcome(per_record, data, *[a() for a in graph_args])
    assert got[0] == want[0]
    assert got[1] == want[1] if got[0] == "error" else _state(got[1]) == _state(want[1])
    return got


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30), st.floats(0.1, 9.0)),
                min_size=2, max_size=30), st.data())
@settings(max_examples=100, deadline=None)
def test_one_corrupted_line_raises_the_per_record_message(rows, draw):
    k = draw.draw(st.integers(0, len(rows) - 1))
    bad = draw.draw(st.sampled_from(CORRUPTIONS))
    edges = [f"{u} {v + 31} {w!r}" for u, v, w in rows]
    edges[k] = f"{rows[k][0]} {rows[k][1] + 31} {bad}".strip()
    kind, message = _same_result(load_edge_list, load_edge_records,
                                 ("\n".join(edges) + "\n").encode(errors="surrogateescape"))
    assert kind == "ok" or f"line {k + 1}:" in message
    attrs = [f"{NAMES[u % len(NAMES)]} {v} {w!r}" for u, v, w in rows]
    attrs[k] = f"{NAMES[rows[k][0] % len(NAMES)]} {bad} {rows[k][2]!r}"
    _same_result(lambda d, g: load_attributes(d, g),
                 graph._load_attribute_records,
                 ("\n".join(attrs) + "\n").encode(errors="surrogateescape"), _base_graph)


@pytest.mark.parametrize("bad", CORRUPTIONS)
def test_a_corrupted_plain_line_raises_the_per_record_message(bad):
    # two-field lines reach the scanner, which declines what the records reject
    data = f"0 1\n1 {bad}\n2 3\n".encode(errors="surrogateescape")
    kind, message = _same_result(load_attributes, graph._load_attribute_records, data, _base_graph)
    assert kind == "ok" or (message.startswith("attribute line 2:") and _scanned(data) is None)


def test_edge_list_merges_duplicate_edges_as_records_add():
    # 20 nodes, 3000 lines: each edge recurs about 16 times, with weights
    # over ten decades, so the sum's bytes depend on the order of the adds
    rng = np.random.default_rng(9)
    u, v = rng.integers(0, 20, (2, 3000))
    rows = list(zip(u.tolist(), v.tolist(), (10.0 ** rng.uniform(-5, 5, 3000)).tolist()))
    data = "".join(f"{a} {b} {w!r}\n" for a, b, w in rows).encode()
    runs = np.unique(np.minimum(u, v) * 20 + np.maximum(u, v), return_counts=True)[1]
    assert (runs > 8).mean() > 0.8
    assert _state(load_edge_list(data)) == _state(load_edge_records(data))


def test_scanner_blocks_split_on_newlines(monkeypatch):
    # tiny blocks, and a line longer than a block
    long_name = "long_name_" + "z" * 50
    g = load_edge_list(("".join(f"{i} {i + 1}\n" for i in range(40)) + f"0 {long_name}\n").encode())
    text = "# head\n" + "".join(f"{i} {i % 7}\n" for i in range(40)) + f"{long_name} 3\n"
    want = _state(graph._load_attribute_records(text.encode(), g))
    monkeypatch.setattr(graph, "_BLOCK_BYTES", 16)
    g.n_attrs, g.attr_node, g.attr_id, g.attr_value = graph._scan_sparse_attributes(text.encode(), g)
    assert _state(g) == want


@pytest.mark.parametrize("name", ["cora", "citeseer", "webkb", "adjnoun", "er", "bundle"])
def test_dataset_and_benchmark_attributes_take_the_scanner(name, data_root, tmp_path):
    # their plain "node attr" lines must not fall back to the slower per-record parser
    root = data_root / name
    if name == "er":    # as the benchmark writes a workload's input, at a small size
        root = tmp_path
        subprocess.run([sys.executable, str(Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"),
                        "er", str(root), "1", "1000", "10", "50", "3"], check=True)
    if name == "bundle":    # what `fane build` writes and `fane walk` reads
        root = tmp_path / "bundle"
        cora = data_root / "cora"
        assert main(["build", "--edges", str(cora / "edges.txt"), "--attrs", str(cora / "attrs.txt"),
                     "--out", str(root)]) == 0
    g = load_edge_list(root / "edges.txt")
    want = _state(graph._load_attribute_records(root / "attrs.txt", g))
    g.n_attrs, g.attr_node, g.attr_id, g.attr_value = graph._scan_sparse_attributes(
        (root / "attrs.txt").read_bytes(), g)
    assert _state(g) == want


@pytest.mark.parametrize("source", ["path", "bytes", "text", "binary"])
def test_bytes_the_scanner_declines_load_as_per_record(tmp_path, source):
    def load(fn, data, *args):
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        src = {"path": path, "bytes": data, "text": io.StringIO(data.decode()),
               "binary": io.BytesIO(data)}[source]
        return fn(src, *args)
    # every kind of source is read with universal newlines, so a bare CR ends a line
    assert load(load_edge_list, b"0 1\r1 2\n").n_edges == 2
    with pytest.raises(GraphFormatError, match=r"edge list line 3: expected 'src dst \[weight\]'"):
        load(load_edge_list, b"0 1\r1 2\r3\n")
    # str.split() splits on U+00A0, so the name is two fields
    g = load(load_edge_list, "x\u00a0y 2\n".encode())
    assert g.node_names == ["x", "y"] and g.edge_weight.tolist() == [2.0]
    # int() reads 1_0 as 10, and float() 2_5 as 25
    g = load(load_attributes, b"0 1_0 2_5\n", load_edge_list(b"0 1\n"))
    assert g.attr_id.tolist() == [10] and g.attr_value.tolist() == [25.0] and g.n_attrs == 11
    # labels, parsed per record from every kind of source, split lines the same way
    g = load_edge_list(b"0 1\n1 2\n")
    load(load_labels, b"0 b\r2 a\n", g)
    assert g.labels == {0: 1, 2: 0} and g.class_names == ["a", "b"]


def test_scanner_peak_memory_at_most_per_record(tmp_path):
    import tracemalloc
    rng = np.random.default_rng(5)
    g = load_edge_list("".join(f"{i} {i + 1}\n" for i in range(999)).encode())
    attrs = np.concatenate([rng.choice(2000, 200, replace=False) for _ in range(1000)])
    path = tmp_path / "attrs.txt"
    path.write_text("".join(f"{v} {a}\n" for v, a in zip(np.repeat(np.arange(1000), 200).tolist(),
                                                        attrs.tolist())))

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    scanned = peak(load_attributes, path, g)
    state = _state(g)
    per_record = peak(graph._load_attribute_records, path, g)
    assert _state(g) == state
    assert scanned <= per_record, (scanned, per_record)
