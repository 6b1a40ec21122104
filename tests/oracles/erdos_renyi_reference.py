"""``fane.bench.erdos_renyi`` as first written, on a Python set of edges.

The pair codes are decoded in drawn order into a set of (i, j) tuples,
degrees are counted per edge, each isolated node is re-attached by drawing
partners until one is new, and the edges come out of ``sorted(edge_set)``.
The shipped function keeps the codes as a sorted array instead and must give
byte-identical graphs for every (n, mean_degree, seed).
"""

import numpy as np

from fane.graph import AttributedGraph


def erdos_renyi(n: int, mean_degree: float, seed: int) -> AttributedGraph:
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if mean_degree >= n:
        raise ValueError("mean degree must be below n")
    rng = np.random.default_rng(seed)
    p = mean_degree / (n - 1)
    n_pairs = n * (n - 1) // 2
    m = int(rng.binomial(n_pairs, p)) if p < 1.0 else n_pairs

    codes = np.empty(0, np.int64)
    while len(codes) < m:
        want = m - len(codes)
        draw = rng.integers(0, n_pairs, size=int(want * 1.1) + 16)
        codes = np.unique(np.concatenate([codes, draw]))
    codes = rng.permutation(codes)[:m]

    i = (n - 2 - np.floor((np.sqrt((2 * n - 1) ** 2 - 8 * (codes + 1) + 8) - 1) / 2)).astype(np.int64)
    first = i * (2 * n - i - 1) // 2
    too_big = first > codes
    i[too_big] -= 1
    first = i * (2 * n - i - 1) // 2
    too_small = codes >= first + (n - 1 - i)
    i[too_small] += 1
    first = i * (2 * n - i - 1) // 2
    j = (codes - first + i + 1).astype(np.int64)

    edge_set = set(map(tuple, np.stack([i, j], axis=1).tolist()))
    deg = np.zeros(n, np.int64)
    for a, b in edge_set:
        deg[a] += 1
        deg[b] += 1
    for v in np.nonzero(deg == 0)[0]:
        v = int(v)
        while True:
            u = int(rng.integers(n))
            key = (u, v) if u < v else (v, u)
            if u != v and key not in edge_set:
                edge_set.add(key)
                deg[u] += 1
                deg[v] += 1
                break

    pairs = sorted(edge_set)
    src = np.fromiter((a for a, _ in pairs), np.int32, len(pairs))
    dst = np.fromiter((b for _, b in pairs), np.int32, len(pairs))
    return AttributedGraph(
        n_nodes=n,
        edge_src=src,
        edge_dst=dst,
        edge_weight=np.ones(len(pairs)),
        node_names=[str(v) for v in range(n)],
    )
