"""The per-record edge-list loader before it fed a numpy builder: a dict
merges duplicate edges with ``+=`` in file order, and the first self-loop
line of each node names a node left without neighbours.
``fane.graph.load_edge_list`` must give the same graph, or raise the same
GraphFormatError text."""

import math

import numpy as np

from fane.graph import AttributedGraph, GraphFormatError, read_records


def load_edge_records(source) -> AttributedGraph:
    ids: dict[str, int] = {}
    merged: dict[tuple[int, int], float] = {}
    loop_line: dict[int, int] = {}     # node -> first self-loop line
    dropped = 0
    n_merged = 0
    for lineno, fields in read_records(source, "edge list", "src dst [weight]"):
        w = 1.0
        if len(fields) == 3:
            try:
                w = float(fields[2])
            except ValueError:
                raise GraphFormatError(f"edge list line {lineno}: bad weight {fields[2]!r}") from None
            if not 0.0 < w < math.inf:
                raise GraphFormatError(f"edge list line {lineno}: weight must be positive and finite, got {w}")
        u = ids.setdefault(fields[0], len(ids))
        v = ids.setdefault(fields[1], len(ids))
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
    keys = sorted(merged)
    src = np.fromiter((k[0] for k in keys), np.int32, len(keys))
    dst = np.fromiter((k[1] for k in keys), np.int32, len(keys))
    wgt = np.fromiter((merged[k] for k in keys), np.float64, len(keys))
    names = list(ids)
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
