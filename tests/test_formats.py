import io

import numpy as np
import pytest

from fane import EmbeddingMatrix, GraphFormatError, load_attributes, load_edge_list
from fane.cli import main
from fane.graph import read_records


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
    ("2 0\n", "line 1: bad header"),
    ("2 2\na 0.5 1\nb 0.5\n", "line 3: expected a key and 2 values, got 2 fields"),
    ("2 2\na 0.5 1\n", "line 3: expected a key and 2 values, got 0 fields"),
    ("2 2\na 0.5 1\nb x 1\n", "line 3: could not convert string to float: 'x'"),
    ("2 1\na 0.5\nb 0.5\n\nc 0.5\n", "line 5: row beyond the header's count of 2"),
    ("3 1\na 0.5\nb 0.5\na 0.7\n", "line 4: key 'a' repeats line 2"),
], ids=["empty", "one-field", "non-integer", "zero-dimension", "short-row", "missing-row",
        "non-numeric", "extra-row", "repeated-key"])
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
], ids=["empty", "non-integer", "truncated-key", "short-vector", "no-newline", "extra-row",
        "repeated-key"])
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
