"""Per-state reference for the precomputed transition tables.

Builds every alias table one state at a time from the package's scalar
distributions and the scalar alias builder, in the layout of
``TransitionModel``: first-step tables for nodes in id order, then one
table per directed edge in CSR order, each for states whose current node
has degree <= tau. The batched construction in ``fane.walks`` must
reproduce these arrays byte for byte.
"""

import numpy as np

from fane.alias import build_alias
from fane.walks import SENTINEL_START, transition_distribution


def per_state_tables(g, params, tau):
    """Return (node_off, node_accept, node_alias, edge_off, edge_accept, edge_alias)."""
    deg = np.diff(g.indptr)
    small = deg <= tau
    node_entries = int(deg[small].sum())
    edge_entries = int((deg[small] * deg[small]).sum())

    node_off = np.full(g.n_total, -1, np.int32)
    node_accept = np.empty(node_entries, np.float64)
    node_alias = np.empty(node_entries, np.uint16)
    pos = 0
    for v in np.nonzero(small)[0]:
        acc, ali = build_alias(transition_distribution(g, params, SENTINEL_START, int(v)))
        d = len(acc)
        node_off[v] = pos
        node_accept[pos:pos + d] = acc
        node_alias[pos:pos + d] = ali
        pos += d

    edge_off = np.full(len(g.neighbors), -1, np.int32)
    edge_accept = np.empty(edge_entries, np.float64)
    edge_alias = np.empty(edge_entries, np.uint16)
    pos = 0
    for u in range(g.n_total):
        for e in range(g.indptr[u], g.indptr[u + 1]):
            v = int(g.neighbors[e])
            if not small[v]:
                continue
            acc, ali = build_alias(transition_distribution(g, params, u, v))
            d = len(acc)
            edge_off[e] = pos
            edge_accept[pos:pos + d] = acc
            edge_alias[pos:pos + d] = ali
            pos += d

    return node_off, node_accept, node_alias, edge_off, edge_accept, edge_alias
