"""Attributed graphs and the augmented graph with virtual attribute nodes.

The raw input is an undirected weighted graph whose nodes carry sparse
non-negative attribute vectors. Augmentation adds one virtual node per
attribute that occurs on at least one raw node, plus a virtual edge
(node, attribute-node) for every nonzero attribute entry. In the unified
id space raw nodes occupy 0..n-1 and attribute nodes n..n+m_used-1.
"""

from __future__ import annotations

import io
import logging
import math
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)


class GraphFormatError(ValueError):
    """Malformed or inconsistent graph input."""


@contextmanager
def _open_text(source):
    """Text view of a path, bytes or stream, read with universal newlines
    (a bare CR ends a line) as open() reads a file; closes only what it
    opened. A byte that is not UTF-8 decodes to a lone surrogate."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as f:
            yield f
    elif isinstance(source, io.TextIOBase):
        yield io.StringIO(source.read(), newline=None)
    else:  # bytes or a binary stream: wrap it, and hand a stream back open
        f = io.TextIOWrapper(io.BytesIO(source) if isinstance(source, bytes) else source,
                             encoding="utf-8", errors="surrogateescape")
        try:
            yield f
        finally:
            f.detach()


# load_attributes reads a sparse attribute file's bytes once and parses the
# plain "node attr" lines of datasets and of AttributedGraph.save with numpy,
# block by block: printable ASCII, two fields, the index plain digits, LF line
# ends. On a value column, a CR, a sign, any other byte, or any fault, it hands
# the same text to the per-record parser, which gives the same matrix or names
# the bad line. load_edge_list and load_labels parse per record: on edge and
# label files the scanner measured no faster.

# Bytes per block, each ending on a newline. 128 KB keeps one block's
# temporaries below the key and order of the attribute sort, where the scanner
# holds the file's bytes and the per-record parser its line numbers.
_BLOCK_BYTES = 1 << 17
# Largest padded name matrix, in bytes, that one np.unique sorts.
_NAME_BYTES = 1 << 22

# Bytes the scanner defines: tab, LF and printable ASCII.
_SCANNED = np.zeros(256, bool)
_SCANNED[[9, 10]] = True
_SCANNED[32:127] = True
_SPACE = np.zeros(256, bool)
_SPACE[[9, 10, 32]] = True
# what errors="surrogateescape" decodes a byte that is not UTF-8 to
_ESCAPED = re.compile("[\udc80-\udcff]")


class _Declined(Exception):
    """The bulk scanner does not parse this input; the per-record parser will."""


def _read_once(source) -> tuple[bytes, object]:
    """The source's bytes, read once, and a source that gives the per-record
    parser the text the original source would have given it."""
    if isinstance(source, io.TextIOBase):
        text = source.read()
        return text.encode("utf-8", "surrogatepass"), io.StringIO(text)
    if isinstance(source, (str, Path)):
        source = Path(source).read_bytes()
    elif not isinstance(source, bytes):
        source = source.read()
    return source, source


def _blocks(data: bytes):
    """Yield (buf, node, attr) for each block of ``data``: the block's bytes
    and the (starts, ends) spans of each data line's two tokens.

    Raises _Declined on a byte the scanner does not define or on a data line
    with other than 2 fields, the layout "node attr". Lines whose first
    field starts with '#' are comments.
    """
    pos = 0
    while pos < len(data):
        end = len(data)
        if pos + _BLOCK_BYTES < end:
            end = data.rfind(b"\n", pos, pos + _BLOCK_BYTES) + 1
            if end == 0:    # a line longer than a block
                end = data.find(b"\n", pos + _BLOCK_BYTES) + 1 or len(data)
        buf = np.frombuffer(data, np.uint8, end - pos, pos)
        pos = end
        if not _SCANNED[buf].all():
            raise _Declined
        flips = np.flatnonzero(np.diff(_SPACE[buf], prepend=True, append=True))
        starts, ends = flips[::2], flips[1::2]
        # a line's first token is token 0 or the first one after a newline
        is_head = np.zeros(len(starts) + 1, bool)
        is_head[0] = True
        is_head[np.searchsorted(starts, np.flatnonzero(buf == 10))] = True
        head = np.flatnonzero(is_head[:-1])
        count = np.diff(head, append=len(starts))
        data_line = buf[starts[head]] != 35
        if (count[data_line] != 2).any():
            raise _Declined
        head = head[data_line]
        yield buf, (starts[head], ends[head]), (starts[head + 1], ends[head + 1])


def _padded(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, width: int) -> np.ndarray:
    """Tokens as a bytes array of ``width``, zero-padded."""
    mat = np.empty((len(starts), width), np.uint8)
    for j in range(width):
        mat[:, j] = buf[np.minimum(starts + j, len(buf) - 1)]
    mat[np.arange(width) >= (ends - starts)[:, None]] = 0
    return mat.view(f"S{width}").ravel()


def _name_ids(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, lookup: dict) -> np.ndarray:
    """Id of each name token in ``lookup``; raises _Declined on a name it
    lacks. The tokens are looked up in batches of at most ``_NAME_BYTES``
    padded bytes, each made distinct by one np.unique."""
    out = np.empty(len(starts), np.int64)
    width = max(8, int((ends - starts).max(initial=0)))
    step = max(1, _NAME_BYTES // width)
    for lo in range(0, len(starts), step):
        keys = _padded(buf, starts[lo:lo + step], ends[lo:lo + step], width)
        uniq, inverse = np.unique(keys.view(np.uint64) if width == 8 else keys, return_inverse=True)
        ids = np.array([lookup.get(name, -1) for name in uniq.view(f"S{width}").astype(str).tolist()])
        if (ids < 0).any():
            raise _Declined
        out[lo:lo + step] = ids[inverse]
    return out


def _integers(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Tokens of plain digits, at most 18 bytes, as int64."""
    width = int((ends - starts).max(initial=0))
    if width > 18:
        raise _Declined
    bad = np.zeros(len(starts), bool)
    value = np.zeros(len(starts), np.int64)
    for j in range(width, 0, -1):   # right-aligned: byte ends - j
        pos = ends - j
        digit = buf[np.maximum(pos, 0)].astype(np.int64) - 48
        digit[pos < starts] = 0
        bad |= (digit < 0) | (digit > 9)
        value = value * 10 + digit
    if bad.any():
        raise _Declined
    return value


def valid_utf8(line: str, kind: str, lineno: int) -> str:
    """``line``, unless it holds a byte that is not UTF-8, escaped to a lone
    surrogate by errors="surrogateescape": that raises GraphFormatError."""
    if not line.isascii() and _ESCAPED.search(line):
        raise GraphFormatError(f"{kind} line {lineno}: not valid UTF-8")
    return line


def read_records(source, kind: str, layout: str, sep: str | None = None):
    """Yield (lineno, fields) for each line of a text input that holds data.

    Blank lines and lines starting with '#' are skipped. ``layout`` names the
    fields, e.g. "src dst [weight]" (bracketed fields are optional); a line
    with another field count, or one that is not UTF-8, raises
    GraphFormatError("<kind> line N: ..."). Fields split on whitespace, or on
    ``sep``, where the last field keeps any further separators (a config
    value may contain '=').
    """
    names = layout.split(sep)
    most = len(names)
    least = sum(not name.startswith("[") for name in names)
    maxsplit = most - 1 if sep else -1
    with _open_text(source) as f:
        for lineno, raw in enumerate(f, start=1):
            line = valid_utf8(raw.strip(), kind, lineno)
            if not line or line[0] == "#":
                continue
            fields = line.split(sep, maxsplit)
            if not least <= len(fields) <= most:
                raise GraphFormatError(f"{kind} line {lineno}: expected '{layout}', got {line!r}")
            yield lineno, fields


def _attr_value(token: str, lineno: int) -> float:
    try:
        x = float(token)
    except ValueError:
        raise GraphFormatError(f"attribute line {lineno}: bad value {token!r}") from None
    if not math.isfinite(x):
        raise GraphFormatError(f"attribute line {lineno}: non-finite value {x}")
    if x < 0:
        raise GraphFormatError(f"attribute line {lineno}: negative value {x}")
    return x


def parse_sparse_attributes(source):
    """Yield (lineno, node, attr, value) from "node attr [value]" lines.

    attr is an integer in [0, 2^31); value defaults to 1.0 and must be
    positive and finite (zero means absent and must not be stored).
    """
    for lineno, fields in read_records(source, "attribute", "node attr [value]"):
        try:
            a = int(fields[1])
        except ValueError:
            raise GraphFormatError(f"attribute line {lineno}: bad attr index {fields[1]!r}") from None
        if not 0 <= a < 1 << 31:
            raise GraphFormatError(f"attribute line {lineno}: " + (
                "negative attribute index" if a < 0 else f"attribute index {a} is 2^31 or more"))
        x = _attr_value(fields[2], lineno) if len(fields) == 3 else 1.0
        if x == 0.0:
            raise GraphFormatError(f"attribute line {lineno}: zero values must not be stored")
        yield lineno, fields[0], a, x


def parse_labels(source):
    """Yield (lineno, node, class) from "node class" lines.

    A node listed twice with different classes raises GraphFormatError.
    """
    first: dict[str, str] = {}
    for lineno, (node, cls) in read_records(source, "label", "node class"):
        if first.setdefault(node, cls) != cls:
            raise GraphFormatError(f"label line {lineno}: conflicting duplicate label for node {node!r}")
        yield lineno, node, cls


def read_nodemap(source) -> dict[str, tuple[str, int]]:
    """id -> (name, line number) from "id name" lines, in line order. An id
    or a name that repeats raises GraphFormatError naming both lines."""
    out, seen = {}, {}
    for lineno, (node, name) in read_records(source, "nodemap", "id name"):
        for what, value in (("id", node), ("name", name)):
            if (what, value) in seen:
                raise GraphFormatError(f"nodemap line {lineno}: {what} {value!r} "
                                       f"repeats line {seen[what, value]}")
            seen[what, value] = lineno
        out[node] = name, lineno
    return out


@dataclass
class AttributedGraph:
    """Undirected weighted graph + sparse attribute matrix + optional labels.

    Node ids are dense 0..n_nodes-1; ``node_names`` maps them back to the
    source labels. Attribute entries are strictly positive (zero means
    absent and is never stored).
    """

    n_nodes: int
    edge_src: np.ndarray        # int32, one entry per undirected edge
    edge_dst: np.ndarray        # int32
    edge_weight: np.ndarray     # float64
    node_names: list[str]
    n_attrs: int = 0
    attr_node: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    attr_id: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    attr_value: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    labels: dict[int, int] = field(default_factory=dict)
    class_names: list[str] = field(default_factory=list)
    dropped_self_loops: int = 0
    merged_duplicate_edges: int = 0

    @property
    def n_edges(self) -> int:
        return len(self.edge_src)

    @property
    def nnz_attributes(self) -> int:
        return len(self.attr_node)

    def name_to_id(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.node_names)}

    def without_attributes(self) -> "AttributedGraph":
        """Copy with the attribute matrix emptied (structure-only graph)."""
        return AttributedGraph(
            n_nodes=self.n_nodes,
            edge_src=self.edge_src,
            edge_dst=self.edge_dst,
            edge_weight=self.edge_weight,
            node_names=self.node_names,
            n_attrs=0,
            labels=dict(self.labels),
            class_names=list(self.class_names),
        )

    def save(self, out_dir) -> None:
        """Write edges/attrs/labels/nodemap text files.

        nodemap.txt holds one "id name" line per node in id order, so
        :meth:`load_dir` reads back the same ids, names, edges, weights,
        attributes and labels; attrs.txt leaves out a value of 1.0, so the
        bulk scanner reads indicators. A node name starting with '#' would
        begin a comment line, so it raises GraphFormatError before any file
        is written.
        """
        for name in self.node_names:
            if name.startswith("#"):
                raise GraphFormatError(f"node {name!r} cannot be saved: a line starting with '#' is a comment")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "edges.txt", "w", encoding="utf-8") as f:
            for a, b, w in zip(self.edge_src, self.edge_dst, self.edge_weight):
                f.write(f"{self.node_names[a]} {self.node_names[b]} {float(w)!r}\n")
        with open(out / "nodemap.txt", "w", encoding="utf-8") as f:
            for i, name in enumerate(self.node_names):
                f.write(f"{i} {name}\n")
        if self.nnz_attributes:
            with open(out / "attrs.txt", "w", encoding="utf-8") as f:
                for v, a, x in zip(self.attr_node, self.attr_id, self.attr_value):
                    value = "" if x == 1.0 else f" {float(x)!r}"
                    f.write(f"{self.node_names[v]} {a}{value}\n")
        if self.labels:
            with open(out / "labels.txt", "w", encoding="utf-8") as f:
                for v in sorted(self.labels):
                    f.write(f"{self.node_names[v]} {self.class_names[self.labels[v]]}\n")

    @classmethod
    def load_dir(cls, in_dir) -> "AttributedGraph":
        """Load a directory of edges.txt and optional sparse attrs.txt / labels.txt.

        Reads what :meth:`save` writes, or a dataset's hand-written files. A
        nodemap.txt fixes the ids: its ids must run 0, 1, ... in line order
        and name each node of the edge lines once.
        """
        in_dir, names = Path(in_dir), None
        if (in_dir / "nodemap.txt").exists():
            entries = read_nodemap(in_dir / "nodemap.txt")
            names, lines = [name for name, _ in entries.values()], [line for _, line in entries.values()]
            for i, node in enumerate(entries):
                if node != str(i):
                    raise GraphFormatError(f"nodemap line {lines[i]}: id {node!r}, expected {i}")
        g = load_edge_list(in_dir / "edges.txt", names)
        unlinked = np.setdiff1d(np.arange(g.n_nodes), np.concatenate([g.edge_src, g.edge_dst]))
        if len(unlinked):    # only a map numbers a node that no edge line names
            v = unlinked[0]
            raise GraphFormatError(f"nodemap line {lines[v]}: node {names[v]!r} is on no edge line")
        attrs = in_dir / "attrs.txt"
        if attrs.exists():
            load_attributes(attrs, g)
        labels = in_dir / "labels.txt"
        if labels.exists():
            load_labels(labels, g)
        return g


def load_edge_list(source, names: list[str] | None = None) -> AttributedGraph:
    """Parse "src dst [weight]" lines into an AttributedGraph (edges only).

    Lines starting with '#' are comments; the weight defaults to 1.0 and
    must be positive and finite. Self-loops are dropped (counted), duplicate
    undirected edges are merged by summing weights, and node ids are
    remapped to dense integers in first-seen order, or to their index in
    ``names`` when given, which must hold every node. A node named only in
    self-loop lines would be left without neighbours, and raises
    GraphFormatError naming the first such line.
    """
    ids = {name: i for i, name in enumerate(names or ())}
    ends, weights, lines = array("q"), array("d"), array("q")
    for lineno, fields in read_records(source, "edge list", "src dst [weight]"):
        w = 1.0
        if len(fields) == 3:
            try:
                w = float(fields[2])
            except ValueError:
                raise GraphFormatError(f"edge list line {lineno}: bad weight {fields[2]!r}") from None
            if not 0.0 < w < math.inf:
                raise GraphFormatError(f"edge list line {lineno}: weight must be positive and finite, got {w}")
        ends.append(ids.setdefault(fields[0], len(ids)))
        ends.append(ids.setdefault(fields[1], len(ids)))
        weights.append(w)
        lines.append(lineno)
    uv, lines = np.frombuffer(ends, np.int64).reshape(-1, 2), np.frombuffer(lines, np.int64)
    if names is not None and len(ids) > len(names):
        i = int(np.argmax(uv.max(axis=1) >= len(names)))     # the first line of the first new name
        raise GraphFormatError(f"edge list line {lines[i]}: node {list(ids)[len(names)]!r} is not in nodemap.txt")
    g = _edge_graph(uv, np.frombuffer(weights), list(ids), lines)
    if g.dropped_self_loops:
        logger.warning("dropped %d self-loop(s) while loading edge list", g.dropped_self_loops)
    return g


def _edge_graph(uv: np.ndarray, w: np.ndarray, names: list[str], lines: np.ndarray) -> AttributedGraph:
    """The graph of the (src, dst) id rows ``uv`` with weights ``w``, in file
    order: self-loops are dropped and duplicate undirected edges merged.

    An empty list, or a node named only in self-loops, raises
    GraphFormatError naming the line from ``lines``.
    """
    n = len(names)
    loop = uv[:, 0] == uv[:, 1]
    key = uv.min(axis=1) * n + uv.max(axis=1)
    order = np.flatnonzero(~loop)
    order = order[np.argsort(key[order], kind="stable")]    # ties stay in file order
    key = key[order]
    head = np.diff(key, prepend=-1) != 0
    runs = np.flatnonzero(head)
    if not len(runs):
        raise GraphFormatError("edge list: no edges found")
    wgt = np.zeros(len(runs))
    np.add.at(wgt, np.cumsum(head) - 1, w[order])    # each edge's weights added in file order
    src, dst = np.divmod(key[runs], n)
    linked = np.zeros(n, bool)
    linked[src] = linked[dst] = True
    lonely = np.flatnonzero(loop & ~linked[uv[:, 0]])
    if len(lonely):
        i = lonely[0]
        raise GraphFormatError(f"edge list line {lines[i]}: node {names[uv[i, 0]]!r} appears only in "
                               "self-loops, which are dropped, and would have no neighbours")
    return AttributedGraph(
        n_nodes=n,
        edge_src=src.astype(np.int32),
        edge_dst=dst.astype(np.int32),
        edge_weight=wgt,
        node_names=names,
        dropped_self_loops=int(loop.sum()),
        merged_duplicate_edges=len(key) - len(runs),
    )


def load_attributes(source, g: AttributedGraph) -> AttributedGraph:
    """Attach an attribute matrix to ``g`` from "node attr [value]" lines.

    node is in source-label space and value defaults to 1.0. Entries must be
    positive: a zero is absence and is rejected. The bulk scanner reads plain
    "node attr" lines; any other text, a value column included, goes to the
    per-record parser, which gives the same matrix.
    """
    data, source = _read_once(source)
    try:
        g.n_attrs, g.attr_node, g.attr_id, g.attr_value = _scan_sparse_attributes(data, g)
        return g
    except _Declined:
        pass    # parse outside the handler, whose traceback holds the scanner's arrays
    return _load_attribute_records(source, g)


def _load_attribute_records(source, g: AttributedGraph) -> AttributedGraph:
    """load_attributes by the per-record parser, which names a bad line."""
    nodes, attrs, values, lines = array("i"), array("i"), array("d"), array("q")
    name_to_id = g.name_to_id()
    for lineno, name, a, x in parse_sparse_attributes(source):
        v = name_to_id.get(name)
        if v is None:
            raise GraphFormatError(f"attribute line {lineno}: unknown node id {name!r}")
        nodes.append(v)
        attrs.append(a)
        values.append(x)
        lines.append(lineno)
    g.n_attrs, g.attr_node, g.attr_id, g.attr_value = _attribute_matrix(
        g, *map(np.asarray, (nodes, attrs, values, lines)))     # views of the arrays' buffers
    return g


def _scan_sparse_attributes(data: bytes, g: AttributedGraph):
    """(n_attrs, nodes, attrs, values) of a sparse attribute file by the bulk
    scanner, sorted by (node, attr); raises _Declined on any fault."""
    lookup = g.name_to_id()
    size = data.count(b"\n") + 1    # at least the number of data lines
    nodes, attrs = np.empty(size, np.int32), np.empty(size, np.int32)
    filled = 0
    for buf, node, attr in _blocks(data):
        rows = slice(filled, filled + len(node[0]))
        nodes[rows] = _name_ids(buf, *node, lookup)
        a = _integers(buf, *attr)
        if (a >= 1 << 31).any():
            raise _Declined
        attrs[rows] = a
        filled = rows.stop
    node = attr = a = None    # free the last block's token arrays before the sort
    return _attribute_matrix(g, nodes[:filled], attrs[:filled], np.ones(filled))


def _attribute_matrix(g: AttributedGraph, nodes, attrs, values, lines=None):
    """(n_attrs, nodes, attrs, values) of the entries, sorted by (node, attr)
    in place, so no second copy of a column is held.

    A repeated (node, attr) pair raises GraphFormatError naming the repeat
    earliest in the file from ``lines``, or _Declined without them.
    """
    key = nodes.astype(np.int64)
    key <<= 31
    key |= attrs
    order = np.argsort(key)     # distinct keys have one sorted order
    del key
    for column in (nodes, attrs, values):
        column[:] = column[order]
    repeat = np.flatnonzero((nodes[1:] == nodes[:-1]) & (attrs[1:] == attrs[:-1])) + 1
    if len(repeat):
        if lines is None:
            raise _Declined
        lines = lines[order]
        lines = lines[np.lexsort((lines, attrs, nodes))]    # ties in file order
        i = repeat[np.argmin(lines[repeat])]
        raise GraphFormatError(
            f"attribute line {lines[i]}: duplicate entry for node {g.node_names[nodes[i]]!r} "
            f"attr {attrs[i]} (first at line {lines[i - 1]})"
        )
    return int(attrs.max(initial=-1)) + 1, nodes, attrs, values


def load_labels(source, g: AttributedGraph) -> AttributedGraph:
    """Attach a partial node -> class map from "node class" lines.

    Class tokens are mapped to dense integers in sorted token order, so the
    mapping does not depend on line order.
    """
    raw_labels: dict[int, str] = {}
    name_to_id = g.name_to_id()
    for lineno, name, cls in parse_labels(source):
        v = name_to_id.get(name)
        if v is None:
            raise GraphFormatError(f"label line {lineno}: unknown node id {name!r}")
        raw_labels[v] = cls
    class_names = sorted(set(raw_labels.values()))
    class_index = {c: i for i, c in enumerate(class_names)}
    g.labels = {v: class_index[c] for v, c in raw_labels.items()}
    g.class_names = class_names
    return g


@dataclass
class AugmentedGraph:
    """Unified graph over raw nodes (0..n_raw-1) and attribute nodes.

    Adjacency is CSR with neighbor lists sorted by unified id, which makes
    every downstream distribution and alias table reproducible. Immutable
    after construction; safe for concurrent readers.
    """

    n_raw: int
    n_attr_nodes: int
    indptr: np.ndarray          # int64, len n_total+1
    neighbors: np.ndarray       # int32
    weights: np.ndarray         # float64
    n_raw_edges: int
    n_virtual_edges: int
    attr_ids: np.ndarray        # int32, attribute node slot -> original AttrId
    skipped_attrs: int
    node_names: list[str]
    labels: dict[int, int] = field(default_factory=dict)
    class_names: list[str] = field(default_factory=list)

    @property
    def n_total(self) -> int:
        return self.n_raw + self.n_attr_nodes

    @property
    def n_total_edges(self) -> int:
        return self.n_raw_edges + self.n_virtual_edges

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbor_slice(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        s, e = self.indptr[v], self.indptr[v + 1]
        return self.neighbors[s:e], self.weights[s:e]

    def has_edge(self, u: int, x) -> np.ndarray:
        """Adjacency test against u's (sorted) neighbor list, a bool array
        shaped like x."""
        nbrs = self.neighbors[self.indptr[u]:self.indptr[u + 1]]
        x = np.asarray(x)
        pos = np.searchsorted(nbrs, x)
        hit = pos < len(nbrs)
        out = np.zeros(x.shape, bool)
        out[hit] = nbrs[pos[hit]] == x[hit]
        return out

    def export_key(self, v: int) -> str:
        """Key used in embedding exports: original label or a<attrid>."""
        if v < self.n_raw:
            return self.node_names[v]
        return f"a{self.attr_ids[v - self.n_raw]}"

    def dump(self, sink) -> None:
        """Debug dump, one line per node in unified-id order: "raw <name> : ..."
        or "attr <attrid> : ...", then each neighbor(weight) by export key."""
        close = False
        if isinstance(sink, (str, Path)):
            sink = open(sink, "w", encoding="utf-8")
            close = True
        try:
            for v in range(self.n_total):
                kind = "raw" if v < self.n_raw else "attr"
                ident = self.node_names[v] if v < self.n_raw else int(self.attr_ids[v - self.n_raw])
                nbrs, wgts = self.neighbor_slice(v)
                parts = " ".join(f"{self.export_key(int(x))}({float(w)!r})" for x, w in zip(nbrs, wgts))
                sink.write(f"{kind} {ident} : {parts}\n")
        finally:
            if close:
                sink.close()


def build_augmented(g: AttributedGraph) -> AugmentedGraph:
    """Construct the augmented graph: virtual node per used attribute, virtual
    edge per nonzero attribute entry, weighted by the attribute value (1.0
    for binary attributes).

    Attributes with zero incidence get no node (walks cannot leave an
    isolated node); the skipped count is reported in the result. A raw node
    named like an attribute node's key, a<attrid>, raises GraphFormatError.
    """
    n = g.n_nodes
    # unified id of each entry's attribute node: n + its rank among the used
    # ids (a table indexed by attribute id would be sized by the largest id)
    used, attr_unified = np.unique(g.attr_id, return_inverse=True)
    attr_unified += n
    m_used = len(used)
    skipped = g.n_attrs - m_used
    # attribute nodes are keyed a<attrid>; no raw node may be named so
    named = {s for s in g.node_names if s[:1] == "a"}
    clash = [a for a in used.tolist() if f"a{a}" in named] if named else []
    if clash:
        raise GraphFormatError(f"node 'a{clash[0]}' would share its embedding key with attribute {clash[0]}")

    n_total = n + m_used
    # symmetrize, then CSR with neighbor lists sorted by unified id: one
    # stable argsort of the key src·n_total + dst, built in all_src's buffer;
    # neighbors are int32 from the start, and each array is permuted in
    # turn, so one copy at a time is alive beside it
    ends = [g.edge_src, g.attr_node, g.edge_dst, attr_unified]
    all_src = np.concatenate(ends, dtype=np.int64)
    all_dst = np.concatenate(ends[2:] + ends[:2], dtype=np.int32)
    all_wgt = np.concatenate([g.edge_weight, g.attr_value, g.edge_weight, g.attr_value])
    indptr = np.zeros(n_total + 1, np.int64)
    np.cumsum(np.bincount(all_src, minlength=n_total), out=indptr[1:])
    key = all_src
    key *= n_total
    key += all_dst
    order = np.argsort(key, kind="stable")
    del key, all_src
    all_dst = all_dst[order]
    all_wgt = all_wgt[order]
    del order

    return AugmentedGraph(
        n_raw=n,
        n_attr_nodes=m_used,
        indptr=indptr,
        neighbors=all_dst,
        weights=all_wgt,
        n_raw_edges=g.n_edges,
        n_virtual_edges=g.nnz_attributes,
        attr_ids=used.astype(np.int32),
        skipped_attrs=skipped,
        node_names=list(g.node_names),
        labels=dict(g.labels),
        class_names=list(g.class_names),
    )


def stats(ag: AugmentedGraph) -> dict:
    """Count summary plus a degree histogram (index = degree)."""
    degrees = np.diff(ag.indptr)
    return {
        "n_raw": ag.n_raw,
        "n_raw_edges": ag.n_raw_edges,
        "n_attr_nodes": ag.n_attr_nodes,
        "n_virtual_edges": ag.n_virtual_edges,
        "n_total_nodes": ag.n_total,
        "n_total_edges": ag.n_total_edges,
        "skipped_attrs": ag.skipped_attrs,
        "degree_histogram": np.bincount(degrees.astype(np.int64)).tolist(),
    }
