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
    """Text view of a path, bytes or stream; closes only what it opened."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as f:
            yield f
    elif isinstance(source, bytes):
        yield io.StringIO(source.decode("utf-8"))
    elif isinstance(source, io.TextIOBase):
        yield source
    else:  # binary stream: wrap it, and hand it back open
        f = io.TextIOWrapper(source, encoding="utf-8")
        try:
            yield f
        finally:
            f.detach()


def read_records(source, kind: str, layout: str | None = None, sep: str | None = None):
    """Yield (lineno, fields) for each line of a text input that holds data.

    Blank lines and lines starting with '#' are skipped. ``layout`` names the
    fields, e.g. "src dst [weight]" (bracketed fields are optional); a line
    with another field count raises GraphFormatError("<kind> line N: ...").
    Fields split on whitespace, or on ``sep``, where the last field keeps any
    further separators (a config value may contain '=').
    """
    names = layout.split(sep) if layout else []
    most = len(names)
    least = sum(not name.startswith("[") for name in names)
    maxsplit = most - 1 if sep else -1
    with _open_text(source) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            fields = line.split(sep, maxsplit)
            if layout and not least <= len(fields) <= most:
                raise GraphFormatError(f"{kind} line {lineno}: expected '{layout}', got {line!r}")
            yield lineno, fields


def _attr_value(token: str, lineno: int, kind: str = "attribute") -> float:
    try:
        x = float(token)
    except ValueError:
        raise GraphFormatError(f"{kind} line {lineno}: bad value {token!r}") from None
    if not math.isfinite(x):
        raise GraphFormatError(f"{kind} line {lineno}: non-finite value {x}")
    if x < 0:
        raise GraphFormatError(f"{kind} line {lineno}: negative value {x}")
    return x


def parse_edges(source):
    """Yield (lineno, src, dst, weight) from "src dst [weight]" lines.

    The weight defaults to 1.0 and must be positive and finite.
    """
    for lineno, fields in read_records(source, "edge list", "src dst [weight]"):
        w = 1.0
        if len(fields) == 3:
            try:
                w = float(fields[2])
            except ValueError:
                raise GraphFormatError(f"edge list line {lineno}: bad weight {fields[2]!r}") from None
            if not 0.0 < w < math.inf:
                raise GraphFormatError(f"edge list line {lineno}: weight must be positive and finite, got {w}")
        yield lineno, fields[0], fields[1], w


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


def parse_dense_attributes(source, width: int | None = None):
    """Yield (lineno, values) per row of a dense matrix, zeros included.

    Every row has ``width`` columns, or as many as the first row if None;
    values are non-negative and finite.
    """
    for lineno, fields in read_records(source, "attribute"):
        if width is None:
            width = len(fields)
        if len(fields) != width:
            raise GraphFormatError(f"attribute line {lineno}: expected {width} columns, got {len(fields)}")
        yield lineno, [_attr_value(tok, lineno) for tok in fields]


def read_attr_scales(source) -> np.ndarray:
    """Scales for attr_weight="scale", attribute i's on the i-th data line."""
    return np.array([_attr_value(tok, n, "attr scale") for n, (tok,) in
                     read_records(source, "attr scale", "scale")], np.float64)


def parse_labels(source):
    """Yield (lineno, node, class) from "node class" lines.

    A node listed twice with different classes raises GraphFormatError.
    """
    first: dict[str, str] = {}
    for lineno, (node, cls) in read_records(source, "label", "node class"):
        if first.setdefault(node, cls) != cls:
            raise GraphFormatError(f"label line {lineno}: conflicting duplicate label for node {node!r}")
        yield lineno, node, cls


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
        """Write edges/attrs/labels/nodemap text files that load back bit-exactly."""
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
                    f.write(f"{self.node_names[v]} {a} {float(x)!r}\n")
        if self.labels:
            with open(out / "labels.txt", "w", encoding="utf-8") as f:
                for v in sorted(self.labels):
                    f.write(f"{self.node_names[v]} {self.class_names[self.labels[v]]}\n")

    @classmethod
    def load_dir(cls, in_dir) -> "AttributedGraph":
        """Load a directory of edges.txt and optional sparse attrs.txt / labels.txt.

        Reads what :meth:`save` writes, or a dataset's hand-written files.
        """
        in_dir = Path(in_dir)
        g = load_edge_list(in_dir / "edges.txt")
        attrs = in_dir / "attrs.txt"
        if attrs.exists():
            load_attributes(attrs, g)
        labels = in_dir / "labels.txt"
        if labels.exists():
            load_labels(labels, g)
        return g


def load_edge_list(source) -> AttributedGraph:
    """Parse "src dst [weight]" lines into an AttributedGraph (edges only).

    Lines starting with '#' are comments. Self-loops are dropped (counted),
    duplicate undirected edges are merged by summing weights, and node ids
    are remapped to dense integers in first-seen order. A node named only in
    self-loop lines would be left without neighbours, and raises
    GraphFormatError naming the first such line.
    """
    ids: dict[str, int] = {}
    merged: dict[tuple[int, int], float] = {}
    loop_line: dict[int, int] = {}     # node -> first self-loop line
    dropped = 0
    n_merged = 0
    for lineno, a, b, w in parse_edges(source):
        u = ids.setdefault(a, len(ids))
        v = ids.setdefault(b, len(ids))
        if u == v:
            dropped += 1
            loop_line.setdefault(u, lineno)
            continue
        key = (u, v) if u < v else (v, u)
        if key in merged:
            n_merged += 1
        merged[key] = merged.get(key, 0.0) + w
    if not merged:
        raise GraphFormatError("edge list: no edges found")
    if dropped:
        logger.warning("dropped %d self-loop(s) while loading edge list", dropped)
    keys = sorted(merged)
    src = np.fromiter((k[0] for k in keys), np.int32, len(keys))
    dst = np.fromiter((k[1] for k in keys), np.int32, len(keys))
    wgt = np.fromiter((merged[k] for k in keys), np.float64, len(keys))
    names = [None] * len(ids)
    for name, i in ids.items():
        names[i] = name
    linked = np.zeros(len(ids), bool)
    linked[src] = linked[dst] = True
    lonely = [(line, u) for u, line in loop_line.items() if not linked[u]]
    if lonely:
        line, u = min(lonely)
        raise GraphFormatError(f"edge list line {line}: node {names[u]!r} appears only in "
                               "self-loops, which are dropped, and would have no neighbours")
    return AttributedGraph(
        n_nodes=len(ids),
        edge_src=src,
        edge_dst=dst,
        edge_weight=wgt,
        node_names=names,
        dropped_self_loops=dropped,
        merged_duplicate_edges=n_merged,
    )


def load_attributes(source, g: AttributedGraph, fmt: str = "sparse", n_attrs: int | None = None) -> AttributedGraph:
    """Attach an attribute matrix to ``g`` from a sparse-triplet or dense file.

    Sparse format: "node attr [value]" per line, node in source-label space,
    value defaults to 1.0. Dense format: row i holds the values of dense node
    i, every row with the same column count. Entries must be positive; zeros
    are absence and are skipped (dense) or rejected (sparse).
    """
    if fmt not in ("sparse", "dense"):
        raise ValueError(f"unknown attribute format {fmt!r}")
    nodes, attrs, values, lines = array("i"), array("i"), array("d"), array("q")
    if fmt == "sparse":
        name_to_id = g.name_to_id()
        for lineno, name, a, x in parse_sparse_attributes(source):
            v = name_to_id.get(name)
            if v is None:
                raise GraphFormatError(f"attribute line {lineno}: unknown node id {name!r}")
            if n_attrs is not None and a >= n_attrs:
                raise GraphFormatError(f"attribute line {lineno}: attribute index {a} >= {n_attrs}")
            nodes.append(v)
            attrs.append(a)
            values.append(x)
            lines.append(lineno)
        m = n_attrs if n_attrs is not None else int(np.frombuffer(attrs, np.int32).max(initial=-1)) + 1
    else:
        m = n_attrs or 0
        for row, (lineno, row_values) in enumerate(parse_dense_attributes(source, n_attrs)):
            if row >= g.n_nodes:
                raise GraphFormatError(f"attribute line {lineno}: row {row} exceeds node count {g.n_nodes}")
            m = len(row_values)
            for a, x in enumerate(row_values):
                if x > 0.0:
                    nodes.append(row)
                    attrs.append(a)
                    values.append(x)
                    lines.append(lineno)
    node_arr = np.frombuffer(nodes, np.int32)
    attr_arr = np.frombuffer(attrs, np.int32)
    order = np.lexsort((attr_arr, node_arr))
    node_arr, attr_arr = node_arr[order], attr_arr[order]
    _reject_duplicates(g, node_arr, attr_arr, np.frombuffer(lines, np.int64)[order])
    g.n_attrs = int(m)
    g.attr_node = node_arr
    g.attr_id = attr_arr
    g.attr_value = np.frombuffer(values, np.float64)[order]
    return g


def _reject_duplicates(g: AttributedGraph, nodes, attrs, lines) -> None:
    """Raise for the (node, attr) pair repeated earliest in the file.

    The rows are sorted by (node, attr) with ties in file order, so a repeat
    sits right after an earlier line of the same pair.
    """
    repeat = np.flatnonzero((nodes[1:] == nodes[:-1]) & (attrs[1:] == attrs[:-1])) + 1
    if len(repeat):
        i = repeat[np.argmin(lines[repeat])]
        raise GraphFormatError(
            f"attribute line {lines[i]}: duplicate entry for node {g.node_names[nodes[i]]!r} "
            f"attr {attrs[i]} (first at line {lines[i - 1]})"
        )


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

    def has_edge(self, u: int, x) -> bool | np.ndarray:
        """Adjacency test against u's (sorted) neighbor list; vectorized over x."""
        nbrs = self.neighbors[self.indptr[u]:self.indptr[u + 1]]
        if np.isscalar(x) or np.ndim(x) == 0:
            pos = np.searchsorted(nbrs, x)
            return bool(pos < len(nbrs) and nbrs[pos] == x)
        x = np.asarray(x)
        pos = np.searchsorted(nbrs, x)
        hit = pos < len(nbrs)
        out = np.zeros(x.shape, bool)
        out[hit] = nbrs[pos[hit]] == x[hit]
        return out

    def node_token(self, v: int) -> str:
        """Render a unified id for text outputs: raw id, or a<attrid>."""
        if v < self.n_raw:
            return str(v)
        return f"a{self.attr_ids[v - self.n_raw]}"

    def export_key(self, v: int) -> str:
        """Key used in embedding exports: original label or a<attrid>."""
        if v < self.n_raw:
            return self.node_names[v]
        return f"a{self.attr_ids[v - self.n_raw]}"

    def dump(self, sink) -> None:
        """Debug dump: "kind id : neighbor(weight) ..." ordered by unified id."""
        close = False
        if isinstance(sink, (str, Path)):
            sink = open(sink, "w", encoding="utf-8")
            close = True
        try:
            for v in range(self.n_total):
                kind = "raw" if v < self.n_raw else "attr"
                ident = v if v < self.n_raw else int(self.attr_ids[v - self.n_raw])
                nbrs, wgts = self.neighbor_slice(v)
                parts = " ".join(f"{self.node_token(int(x))}({float(w)!r})" for x, w in zip(nbrs, wgts))
                sink.write(f"{kind} {ident} : {parts}\n")
        finally:
            if close:
                sink.close()


def build_augmented(g: AttributedGraph, attr_weight: str = "value",
                    uniform_weight: float = 1.0,
                    attr_scale: np.ndarray | None = None) -> AugmentedGraph:
    """Construct the augmented graph: virtual node per used attribute, virtual
    edge per nonzero attribute entry.

    Virtual edge weights follow ``attr_weight``:
      - "value": the attribute value itself (1.0 for binary attributes);
      - "uniform": ``uniform_weight`` for every virtual edge;
      - "scale": value * attr_scale[attr_id], positive and finite if used.
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

    if attr_weight == "value":
        vw = g.attr_value
    elif attr_weight == "uniform":
        if not (uniform_weight > 0):
            raise ValueError("uniform attribute-edge weight must be positive")
        vw = np.full(g.nnz_attributes, float(uniform_weight))
    elif attr_weight == "scale":
        if attr_scale is None:
            raise ValueError("attr_weight='scale' requires attr_scale")
        scale = np.asarray(attr_scale, np.float64)
        if len(scale) < g.n_attrs:
            raise ValueError("attr_scale shorter than attribute count")
        bad = used[~(np.isfinite(scale[used]) & (scale[used] > 0))]
        if len(bad):
            raise ValueError(f"attr_scale of attribute {bad[0]} is {scale[bad[0]]}; "
                             "it must be positive and finite")
        vw = g.attr_value * scale[g.attr_id]
    else:
        raise ValueError(f"unknown attr_weight rule {attr_weight!r}")

    n_total = n + m_used
    # symmetrize, then CSR with neighbor lists sorted by unified id; each
    # array is permuted in turn, so one copy at a time is alive beside it
    ends = [g.edge_src, g.attr_node, g.edge_dst, attr_unified]
    all_src = np.concatenate(ends, dtype=np.int64)
    all_dst = np.concatenate(ends[2:] + ends[:2], dtype=np.int64)
    all_wgt = np.concatenate([g.edge_weight, vw, g.edge_weight, vw])
    order = np.lexsort((all_dst, all_src))
    all_src = all_src[order]
    all_dst = all_dst[order]
    all_wgt = all_wgt[order]
    indptr = np.zeros(n_total + 1, np.int64)
    np.add.at(indptr, all_src + 1, 1)
    np.cumsum(indptr, out=indptr)

    return AugmentedGraph(
        n_raw=n,
        n_attr_nodes=m_used,
        indptr=indptr,
        neighbors=all_dst.astype(np.int32),
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
