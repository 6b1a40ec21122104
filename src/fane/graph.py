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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)


class GraphFormatError(ValueError):
    """Malformed or inconsistent graph input."""


def _open_text(source):
    """Accept a path, str path, bytes, or file-like object; yield text lines."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if isinstance(source, io.TextIOBase):
        return source
    # binary stream
    return io.TextIOWrapper(source, encoding="utf-8")


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
    def load_dir(cls, in_dir, attr_format: str = "sparse") -> "AttributedGraph":
        """Load a directory produced by :meth:`save` (or hand-written files)."""
        in_dir = Path(in_dir)
        g = load_edge_list(in_dir / "edges.txt")
        attrs = in_dir / "attrs.txt"
        if attrs.exists():
            load_attributes(attrs, g, fmt=attr_format)
        labels = in_dir / "labels.txt"
        if labels.exists():
            load_labels(labels, g)
        return g


def load_edge_list(source) -> AttributedGraph:
    """Parse "src dst [weight]" lines into an AttributedGraph (edges only).

    Lines starting with '#' are comments. Self-loops are dropped (counted),
    duplicate undirected edges are merged by summing weights, and node ids
    are remapped to dense integers in first-seen order.
    """
    ids: dict[str, int] = {}
    merged: dict[tuple[int, int], float] = {}
    dropped = 0
    n_merged = 0
    f = _open_text(source)
    try:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(f"edge list line {lineno}: expected 'src dst [weight]', got {line!r}")
            try:
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise GraphFormatError(f"edge list line {lineno}: bad weight {parts[2]!r}") from None
            if not (w > 0.0) or not np.isfinite(w):
                raise GraphFormatError(f"edge list line {lineno}: weight must be positive and finite, got {w}")
            u = ids.setdefault(parts[0], len(ids))
            v = ids.setdefault(parts[1], len(ids))
            if u == v:
                dropped += 1
                continue
            key = (u, v) if u < v else (v, u)
            if key in merged:
                n_merged += 1
            merged[key] = merged.get(key, 0.0) + w
    finally:
        if isinstance(source, (str, Path)):
            f.close()
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
    nodes: list[int] = []
    attrs: list[int] = []
    values: list[float] = []
    name_to_id = g.name_to_id()
    f = _open_text(source)
    try:
        if fmt == "sparse":
            seen: dict[tuple[int, int], int] = {}
            max_attr = -1
            for lineno, raw in enumerate(f, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) not in (2, 3):
                    raise GraphFormatError(f"attribute line {lineno}: expected 'node attr [value]'")
                if parts[0] not in name_to_id:
                    raise GraphFormatError(f"attribute line {lineno}: unknown node id {parts[0]!r}")
                v = name_to_id[parts[0]]
                try:
                    a = int(parts[1])
                    x = float(parts[2]) if len(parts) == 3 else 1.0
                except ValueError:
                    raise GraphFormatError(f"attribute line {lineno}: bad attr index or value") from None
                if a < 0:
                    raise GraphFormatError(f"attribute line {lineno}: negative attribute index")
                if n_attrs is not None and a >= n_attrs:
                    raise GraphFormatError(f"attribute line {lineno}: attribute index {a} >= {n_attrs}")
                if not np.isfinite(x):
                    raise GraphFormatError(f"attribute line {lineno}: non-finite value {x}")
                if x < 0:
                    raise GraphFormatError(f"attribute line {lineno}: negative value {x}")
                if x == 0.0:
                    raise GraphFormatError(f"attribute line {lineno}: zero values must not be stored")
                if (v, a) in seen:
                    raise GraphFormatError(
                        f"attribute line {lineno}: duplicate entry for node {parts[0]!r} attr {a} "
                        f"(first at line {seen[(v, a)]})"
                    )
                seen[(v, a)] = lineno
                nodes.append(v)
                attrs.append(a)
                values.append(x)
                max_attr = max(max_attr, a)
            m = n_attrs if n_attrs is not None else max_attr + 1
        else:
            m = n_attrs
            row = -1
            for lineno, raw in enumerate(f, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                row += 1
                if row >= g.n_nodes:
                    raise GraphFormatError(f"attribute line {lineno}: row {row} exceeds node count {g.n_nodes}")
                parts = line.split()
                if m is None:
                    m = len(parts)
                if len(parts) != m:
                    raise GraphFormatError(f"attribute line {lineno}: expected {m} columns, got {len(parts)}")
                for a, tok in enumerate(parts):
                    try:
                        x = float(tok)
                    except ValueError:
                        raise GraphFormatError(f"attribute line {lineno}: bad value {tok!r}") from None
                    if not np.isfinite(x):
                        raise GraphFormatError(f"attribute line {lineno}: non-finite value {x}")
                    if x < 0:
                        raise GraphFormatError(f"attribute line {lineno}: negative value {x}")
                    if x > 0.0:
                        nodes.append(row)
                        attrs.append(a)
                        values.append(x)
            if m is None:
                m = 0
    finally:
        if isinstance(source, (str, Path)):
            f.close()
    order = np.lexsort((np.asarray(attrs, np.int64), np.asarray(nodes, np.int64))) if nodes else np.empty(0, np.int64)
    g.n_attrs = int(m)
    g.attr_node = np.asarray(nodes, np.int32)[order]
    g.attr_id = np.asarray(attrs, np.int32)[order]
    g.attr_value = np.asarray(values, np.float64)[order]
    return g


def load_labels(source, g: AttributedGraph) -> AttributedGraph:
    """Attach a partial node -> class map from "node class" lines.

    Class tokens are mapped to dense integers in sorted token order, so the
    mapping does not depend on line order.
    """
    raw_labels: dict[int, str] = {}
    name_to_id = g.name_to_id()
    f = _open_text(source)
    try:
        for lineno, rawline in enumerate(f, start=1):
            line = rawline.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(f"label line {lineno}: expected 'node class'")
            if parts[0] not in name_to_id:
                raise GraphFormatError(f"label line {lineno}: unknown node id {parts[0]!r}")
            v = name_to_id[parts[0]]
            if v in raw_labels and raw_labels[v] != parts[1]:
                raise GraphFormatError(
                    f"label line {lineno}: conflicting duplicate label for node {parts[0]!r}"
                )
            raw_labels[v] = parts[1]
    finally:
        if isinstance(source, (str, Path)):
            f.close()
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

    def is_attr(self, v) -> bool | np.ndarray:
        return v >= self.n_raw

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
      - "scale": value * attr_scale[attr_id].
    Attributes with zero incidence get no node (walks cannot leave an
    isolated node); the skipped count is reported in the result.
    """
    n = g.n_nodes
    used = np.unique(g.attr_id) if g.nnz_attributes else np.empty(0, np.int32)
    m_used = len(used)
    skipped = g.n_attrs - m_used
    attr_slot = np.full(g.n_attrs if g.n_attrs else 1, -1, np.int64)
    attr_slot[used] = np.arange(m_used)

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
        if np.any(scale[used] <= 0):
            raise ValueError("attr_scale entries must be positive")
        vw = g.attr_value * scale[g.attr_id]
    else:
        raise ValueError(f"unknown attr_weight rule {attr_weight!r}")

    attr_unified = (n + attr_slot[g.attr_id]).astype(np.int64) if g.nnz_attributes else np.empty(0, np.int64)
    src = np.concatenate([g.edge_src.astype(np.int64), g.attr_node.astype(np.int64)])
    dst = np.concatenate([g.edge_dst.astype(np.int64), attr_unified])
    wgt = np.concatenate([g.edge_weight, vw])

    n_total = n + m_used
    # symmetrize, then CSR with neighbor lists sorted by unified id
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    all_wgt = np.concatenate([wgt, wgt])
    order = np.lexsort((all_dst, all_src))
    all_src, all_dst, all_wgt = all_src[order], all_dst[order], all_wgt[order]
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
