"""Scalability benchmarking on random graphs.

Times each pipeline stage (construct, preprocess, walk, train) over a
geometric series of node counts at fixed mean degree, and over a series of
attributes-per-node at fixed node count, then fits total time against size
by ordinary least squares. Timing covers computation only; no file I/O
happens inside a measured region.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass, field


import numpy as np

from .graph import AttributedGraph, build_augmented
from .sgns import TrainParams, train
from .walks import WalkParams, generate_corpus, preprocess_transitions

logger = logging.getLogger(__name__)

STAGES = ("construct", "preprocess", "walk", "train")
# walk and SGNS settings at every point of both series
WALK_LENGTH, WALKS_PER_NODE = 20, 2
DIMENSION, WINDOW, EPOCHS = 8, 3, 1


def _decode_pairs(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j), i < j, of each triangular pair code; row i's codes start at
    i * (2n - i - 1) / 2."""
    rows = np.arange(n - 1, dtype=np.int64)
    first = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(first, codes, side="right") - 1
    return i, codes - first[i] + i + 1


def erdos_renyi(n: int, mean_degree: float, seed: int) -> AttributedGraph:
    """G(n, p) with p = mean_degree/(n-1), sampled reproducibly.

    Isolated nodes are re-attached with one random edge so every node can
    start a walk.
    """
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
    codes = np.sort(rng.permutation(codes)[:m])     # sorted codes are pairs in (i, j) order
    i, j = _decode_pairs(codes, n)

    # an isolated v has no drawn edge, so only an earlier repair can clash
    deg = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    added: set[int] = set()
    for v in np.flatnonzero(deg == 0).tolist():
        while True:
            u = int(rng.integers(n))
            a, b = min(u, v), max(u, v)
            key = a * (2 * n - a - 1) // 2 + b - a - 1
            if u != v and key not in added:
                added.add(key)
                break
    if added:
        codes = np.sort(np.concatenate([codes, np.fromiter(added, np.int64, len(added))]))
        i, j = _decode_pairs(codes, n)

    return AttributedGraph(
        n_nodes=n,
        edge_src=i.astype(np.int32),
        edge_dst=j.astype(np.int32),
        edge_weight=np.ones(len(codes)),
        node_names=[str(v) for v in range(n)],
    )


def attach_random_attributes(g: AttributedGraph, attrs_per_node: int,
                             universe: int, seed: int) -> AttributedGraph:
    """Give every node ``attrs_per_node`` distinct uniform-random attributes."""
    if attrs_per_node == 0:
        return g
    if universe < attrs_per_node:
        raise ValueError("attribute universe smaller than attrs per node")
    rng = np.random.default_rng(seed)
    n = g.n_nodes
    nodes = np.repeat(np.arange(n, dtype=np.int32), attrs_per_node)
    attrs = np.empty(n * attrs_per_node, np.int32)
    for v in range(n):
        attrs[v * attrs_per_node:(v + 1) * attrs_per_node] = rng.choice(
            universe, size=attrs_per_node, replace=False)
    order = np.lexsort((attrs, nodes))
    return AttributedGraph(
        n_nodes=n,
        edge_src=g.edge_src,
        edge_dst=g.edge_dst,
        edge_weight=g.edge_weight,
        node_names=list(g.node_names),
        n_attrs=universe,
        attr_node=nodes[order],
        attr_id=attrs[order],
        attr_value=np.ones(len(nodes)),
    )


@dataclass
class BenchSpec:
    node_counts: tuple = (100, 1000, 10000, 100000)
    mean_degree: float = 10.0
    attr_counts: tuple = (10, 100, 1000, 10000)
    attr_n_nodes: int = 1000
    repetitions: int = 3
    seed: int = 1
    tau: int = 128

    def __post_init__(self):
        for v in (*self.node_counts, *self.attr_counts, self.attr_n_nodes,
                  self.repetitions):
            if v < 1:
                raise ValueError("all benchmark counts must be >= 1")


@dataclass
class FitResult:
    slope: float
    intercept: float
    r2: float


@dataclass
class BenchResult:
    rows: list[dict] = field(default_factory=list)   # series, size, stage, median_seconds
    node_fit: FitResult | None = None
    attr_fit: FitResult | None = None

    def save_csv(self, path, series: str) -> None:
        """Spec'd columns (size, stage, median_seconds, workers) for one series;
        the walk and the trainer run on one thread, so workers is 1."""
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["size", "stage", "median_seconds", "workers"])
            for r in self.rows:
                if r["series"] != series:
                    continue
                w.writerow([r["size"], r["stage"], f"{r['median_seconds']:.6f}", 1])


def ols_fit(x, y) -> FitResult | None:
    """Least-squares line and R^2; None when under 2 points."""
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    if len(x) < 2:
        return None
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitResult(slope=float(slope), intercept=float(intercept), r2=r2)


def _time_pipeline(g: AttributedGraph, spec: BenchSpec, seed: int):
    """Run construct/preprocess/walk/train once; returns stage seconds."""
    wp = WalkParams(walk_length=WALK_LENGTH, walks_per_node=WALKS_PER_NODE, seed=seed, tau=spec.tau)
    tp = TrainParams(dimension=DIMENSION, window=WINDOW, epochs=EPOCHS, seed=seed)
    times = {}
    t0 = time.perf_counter()
    ag = build_augmented(g)
    times["construct"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    model = preprocess_transitions(ag, wp)
    times["preprocess"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    corpus = generate_corpus(ag, model)
    times["walk"] = time.perf_counter() - t0
    del model   # the tables go before train allocates

    t0 = time.perf_counter()
    train(corpus.walks, tp)
    times["train"] = time.perf_counter() - t0
    return times


def run_scaling(spec: BenchSpec, run_nodes: bool = True, run_attrs: bool = True) -> BenchResult:
    """Median stage timings over the node and attribute series, plus OLS fits."""
    result = BenchResult()

    def run_series(series: str, points):
        sizes, totals = [], []
        for point in points:
            reps = []
            for rep in range(spec.repetitions):
                seed = spec.seed + 1000 * rep
                if series == "nodes":
                    g = erdos_renyi(point, spec.mean_degree, seed)
                else:
                    g = erdos_renyi(spec.attr_n_nodes, spec.mean_degree, seed)
                    g = attach_random_attributes(g, point, 2 * point, seed + 7)
                reps.append(_time_pipeline(g, spec, seed))
            medians = {s: float(np.median([t[s] for t in reps])) for s in STAGES}
            total = sum(medians.values())
            size = point if series == "nodes" else point * spec.attr_n_nodes
            for s in STAGES:
                result.rows.append({"series": series, "size": size, "stage": s,
                                    "median_seconds": medians[s]})
            result.rows.append({"series": series, "size": size, "stage": "total",
                                "median_seconds": total})
            sizes.append(size)
            totals.append(total)
            logger.info("bench %s size=%d total=%.3fs", series, size, total)
        return ols_fit(sizes, totals)

    if run_nodes:
        result.node_fit = run_series("nodes", spec.node_counts)
    if run_attrs:
        result.attr_fit = run_series("attrs", spec.attr_counts)
    return result
