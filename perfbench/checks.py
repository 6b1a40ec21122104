"""Output checks computed without the program's own code paths.

Every check raises ``CheckError`` on a wrong output. Expected values come
from the benchmark's own parse of the input files (``InputFacts``), from
the paper's definitions of the walk bias, or from properties the method
must have. None of them compares against a stored copy of earlier output.
The inputs the benchmark feeds the program are integer-token files with
two columns and no weights, which is what ``InputFacts`` parses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class CheckError(AssertionError):
    """A layer's output contradicts an independent expectation."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------- inputs

def _pairs(path: Path) -> np.ndarray:
    """Two-column integer file as an (n, 2) int64 array."""
    flat = np.fromfile(path, dtype=np.int64, sep=" ")
    lines = path.read_bytes().count(b"\n")
    if flat.size != 2 * lines:
        raise ValueError(f"{path}: expected two integer columns on every line")
    return flat.reshape(-1, 2)


def _keys(a: np.ndarray, b: np.ndarray, base: int) -> np.ndarray:
    return a.astype(np.int64) * base + b.astype(np.int64)


@dataclass
class InputFacts:
    """Counts and key sets parsed from the input files by the benchmark."""

    n_nodes: int
    edge_keys: np.ndarray       # sorted min*base+max of distinct undirected pairs
    attr_keys: np.ndarray       # sorted node*base+attr of distinct entries
    n_attrs: int                # largest attribute index + 1
    used_attrs: int
    labels: dict                # node token -> class token
    lines: int
    base: int

    @property
    def n_edges(self) -> int:
        return len(self.edge_keys)

    @property
    def nnz(self) -> int:
        return len(self.attr_keys)

    @classmethod
    def parse(cls, edges: Path, attrs: Path, labels: Path) -> "InputFacts":
        e, a, lab = _pairs(edges), _pairs(attrs), _pairs(labels)
        base = int(max(e.max(), a.max())) + 1
        loops = e[:, 0] == e[:, 1]
        return cls(
            n_nodes=len(np.unique(e)),
            edge_keys=np.unique(_keys(e[~loops].min(axis=1), e[~loops].max(axis=1), base)),
            attr_keys=np.unique(_keys(a[:, 0], a[:, 1], base)),
            n_attrs=int(a[:, 1].max()) + 1,
            used_attrs=len(np.unique(a[:, 1])),
            labels={str(v): str(c) for v, c in lab.tolist()},
            lines=len(e) + len(a) + len(lab),
            base=base,
        )


# ---------------------------------------------------------------- graph

def edges_loaded(g, facts: InputFacts, known=None) -> None:
    require(g.n_nodes == facts.n_nodes, f"|V| = {g.n_nodes}, input has {facts.n_nodes}")
    require(g.n_edges == facts.n_edges, f"|E| = {g.n_edges}, input has {facts.n_edges}")
    if known is not None:
        require((g.n_nodes, g.n_edges) == tuple(known[:2]),
                f"(|V|, |E|) = {(g.n_nodes, g.n_edges)}, expected {tuple(known[:2])}")


def attributes_loaded(g, facts: InputFacts, known=None) -> None:
    require(g.nnz_attributes == facts.nnz,
            f"nnz(attrs) = {g.nnz_attributes}, input has {facts.nnz}")
    require(g.n_attrs == facts.n_attrs, f"m = {g.n_attrs}, input has {facts.n_attrs}")
    if known is not None:
        require(g.n_attrs == known[2], f"m = {g.n_attrs}, expected {known[2]}")


def labels_loaded(g, facts: InputFacts) -> None:
    require(len(g.labels) == len(facts.labels),
            f"{len(g.labels)} labels loaded, input has {len(facts.labels)}")
    for v, c in g.labels.items():
        require(g.class_names[c] == facts.labels.get(g.node_names[v]),
                f"node {g.node_names[v]} labeled {g.class_names[c]!r}")


def csr_keys(ag) -> np.ndarray:
    """u*n_total+x for every directed CSR entry, in CSR order."""
    src = np.repeat(np.arange(ag.n_total, dtype=np.int64), np.diff(ag.indptr))
    return src * ag.n_total + ag.neighbors.astype(np.int64)


def augmented(ag, facts: InputFacts) -> None:
    """|E'| = |E| + nnz, |V'| = n + used attributes, and the CSR holds
    exactly the input's edges and attribute entries, in both directions."""
    n, N = ag.n_raw, ag.n_total
    require(ag.n_total_edges == facts.n_edges + facts.nnz,
            f"|E'| = {ag.n_total_edges}, expected {facts.n_edges} + {facts.nnz}")
    require(N == facts.n_nodes + facts.used_attrs,
            f"|V'| = {N}, expected {facts.n_nodes} + {facts.used_attrs}")
    keys = csr_keys(ag)
    require(len(keys) == 2 * ag.n_total_edges, "CSR length is not 2|E'|")
    require(np.all(np.diff(keys) > 0), "CSR rows unsorted or holding duplicates")
    src, dst = keys // N, keys % N
    require(np.array_equal(np.sort(dst * N + src), keys), "CSR is not symmetric")
    require(np.all(ag.weights == 1.0), "unweighted input produced weights other than 1")
    names = np.asarray(ag.node_names, dtype=np.int64)
    raw = (dst < n) & (src < dst)
    got = np.sort(_keys(np.minimum(names[src[raw]], names[dst[raw]]),
                        np.maximum(names[src[raw]], names[dst[raw]]), facts.base))
    require(np.array_equal(got, facts.edge_keys), "raw edges differ from the edge file")
    virt = (src < n) & (dst >= n)
    attr_of = ag.attr_ids.astype(np.int64)[dst[virt] - n]
    got = np.sort(_keys(names[src[virt]], attr_of, facts.base))
    require(np.array_equal(got, facts.attr_keys), "virtual edges differ from the attribute file")


# ---------------------------------------------------------------- walk bias

@dataclass(frozen=True)
class Bias:
    """The paper's (p, q, r) under the tf strategy, where 1/r damps every
    step onto an attribute node; beta over the augmented graph."""

    p: float
    q: float
    r: float

    def probs(self, ag, keys: np.ndarray, u: int, v: int) -> np.ndarray:
        """Normalized w(v,x)*alpha(u,v,x) over v's CSR neighbors; u < 0 is the
        first step, where only the 1/r factor applies."""
        s, e = int(ag.indptr[v]), int(ag.indptr[v + 1])
        x = ag.neighbors[s:e].astype(np.int64)
        w = ag.weights[s:e]
        to_attr = x >= ag.n_raw
        if u < 0:
            alpha = np.where(to_attr, 1.0 / self.r, 1.0)
        else:
            pos = np.minimum(np.searchsorted(keys, u * ag.n_total + x), len(keys) - 1)
            adjacent = keys[pos] == u * ag.n_total + x
            beta = np.where(x == u, 1.0 / self.p, np.where(adjacent, 1.0, 1.0 / self.q))
            alpha = np.where(to_attr, 1.0 / self.r, beta)
        pi = w * alpha
        return pi / pi.sum()


def _implied(accept: np.ndarray, alias: np.ndarray) -> np.ndarray:
    k = len(accept)
    out = accept / k
    np.add.at(out, alias, (1.0 - accept) / k)
    return out


def tables(ag, model, bias: Bias, tau: int, n_states: int = 48) -> None:
    """Entry count from the degrees alone; sampled alias tables encode
    exactly the bias distribution of their state."""
    deg = np.diff(ag.indptr)
    small = deg <= tau
    want = int(deg[small].sum() + (deg[small] ** 2).sum())
    require(model.n_precomputed_entries == want,
            f"{model.n_precomputed_entries} table entries, degrees give {want}")
    require(np.array_equal(model.node_off >= 0, small), "node tables on the wrong nodes")
    keys = csr_keys(ag)
    dst = keys % ag.n_total
    require(np.array_equal(model.edge_off >= 0, small[dst]), "edge tables on the wrong states")
    have = np.nonzero(model.edge_off >= 0)[0]
    for e in have[np.linspace(0, len(have) - 1, min(n_states, len(have))).astype(np.int64)]:
        u, v = int(keys[e] // ag.n_total), int(dst[e])
        off, d = int(model.edge_off[e]), int(deg[v])
        got = _implied(model.edge_accept[off:off + d], model.edge_alias[off:off + d])
        require(np.allclose(got, bias.probs(ag, keys, u, v), rtol=0, atol=1e-9),
                f"alias table of state ({u}, {v}) is off the bias distribution")
    have = np.nonzero(small)[0]
    for v in have[np.linspace(0, len(have) - 1, min(n_states, len(have))).astype(np.int64)]:
        off, d = int(model.node_off[v]), int(deg[v])
        got = _implied(model.node_accept[off:off + d], model.node_alias[off:off + d])
        require(np.allclose(got, bias.probs(ag, keys, -1, int(v)), rtol=0, atol=1e-9),
                f"first-step table of node {v} is off the bias distribution")


# ---------------------------------------------------------------- corpus

def corpus_shape(ag, walks: np.ndarray, starts: np.ndarray, walks_per_node: int,
                 walk_length: int) -> None:
    """Every step is an edge of the augmented CSR, every row begins at its
    start node, and every node starts walks_per_node walks."""
    N = ag.n_total
    require(walks.shape == (walks_per_node * N, walk_length),
            f"corpus shape {walks.shape}, expected {(walks_per_node * N, walk_length)}")
    require(np.array_equal(walks[:, 0], starts), "a walk does not begin at its start node")
    require(np.all(np.bincount(starts, minlength=N) == walks_per_node),
            f"some node does not start exactly {walks_per_node} walks")
    keys = csr_keys(ag)
    steps = _keys(walks[:, :-1], walks[:, 1:], N).ravel()
    pos = np.minimum(np.searchsorted(keys, steps), len(keys) - 1)
    bad = int((keys[pos] != steps).sum())
    require(bad == 0, f"{bad} walk steps are not edges of the augmented graph")


def table_step_share(ag, model, walks: np.ndarray) -> float:
    """Share of walk steps whose state had a precomputed alias table."""
    keys = csr_keys(ag)
    first = model.node_off[walks[:, 0]] >= 0
    edge = np.searchsorted(keys, _keys(walks[:, :-2], walks[:, 1:-1], ag.n_total))
    later = model.edge_off[edge] >= 0
    return float((first.sum() + later.sum()) / (walks.shape[0] * (walks.shape[1] - 1)))


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail of chi-square by the Wilson-Hilferty normal approximation."""
    k = float(dof)
    z = ((x / k) ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * k))) / math.sqrt(2.0 / (9.0 * k))
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def sampler(ag, walks: np.ndarray, bias: Bias, min_visits: int = 10,
            max_states: int = 200, min_expected: float = 5.0, alpha: float = 1e-6):
    """Chi-square goodness of fit of next-step counts on the most visited
    states against ``bias``; returns (states, dof, p-value).

    A state is the pair (previous, current). With p = q = 1 the bias does
    not depend on the previous node, so states pool by current node.
    Neighbors are merged into consecutive bins of at least ``min_expected``
    expected draws; the statistics of all states are summed into one test.
    """
    N = ag.n_total
    keys = csr_keys(ag)
    u = walks[:, :-2].ravel().astype(np.int64)
    v = walks[:, 1:-1].ravel().astype(np.int64)
    x = walks[:, 2:].ravel().astype(np.int64)
    pooled = bias.p == 1.0 and bias.q == 1.0
    state = v if pooled else u * N + v
    order = np.argsort(state, kind="stable")
    uniq, first, counts = np.unique(state[order], return_index=True, return_counts=True)
    top = np.argsort(-counts, kind="stable")[:max_states]
    top = top[counts[top] >= min_visits]
    require(len(top) > 0, f"no state visited {min_visits} times; the sampler test has no data")
    stat, dof = 0.0, 0
    for k in top:
        rows = order[first[k]:first[k] + counts[k]]
        uu, vv = int(u[rows[0]]), int(v[rows[0]])
        s, e = int(ag.indptr[vv]), int(ag.indptr[vv + 1])
        j = np.searchsorted(ag.neighbors[s:e], x[rows])
        observed = np.bincount(j, minlength=e - s)
        expected = bias.probs(ag, keys, uu, vv) * counts[k]
        bins_o, bins_e, acc_o, acc_e = [], [], 0.0, 0.0
        for o, ex in zip(observed.tolist(), expected.tolist()):
            acc_o += o
            acc_e += ex
            if acc_e >= min_expected:
                bins_o.append(acc_o)
                bins_e.append(acc_e)
                acc_o = acc_e = 0.0
        if bins_e:
            bins_o[-1] += acc_o
            bins_e[-1] += acc_e
        if len(bins_e) < 2:
            continue
        bo, be = np.asarray(bins_o), np.asarray(bins_e)
        stat += float(((bo - be) ** 2 / be).sum())
        dof += len(be) - 1
    require(dof > 0, "no visited state has two bins; the sampler test has no data")
    p = chi2_sf(stat, dof)
    require(p > alpha, f"next-step counts off the bias distribution: chi2 = {stat:.1f} "
                       f"on {dof} dof, p = {p:.2e} over {len(top)} states")
    return len(top), dof, p


def corpus_roundtrip(walks: np.ndarray, token_of, matrix: np.ndarray, tokens) -> None:
    """The reloaded corpus maps token for token onto the in-memory walks."""
    require(matrix.shape == walks.shape,
            f"reloaded corpus shape {matrix.shape}, saved {walks.shape}")
    ids = {token_of(v): v for v in np.unique(walks).tolist()}
    require(all(t in ids for t in tokens), "reloaded corpus holds a token never saved")
    as_ids = np.fromiter((ids[t] for t in tokens), np.int64, len(tokens))
    bad = int((as_ids[matrix] != walks).sum())
    require(bad == 0, f"{bad} reloaded corpus tokens differ from the walks")


# ---------------------------------------------------------------- sgns

def training(emb, keys: set, dim: int, epochs: int, negatives: int) -> None:
    """Finite losses below the all-zero-output loss (1+negatives)*ln 2,
    finite vectors, and one row per corpus token."""
    losses = np.asarray(emb.epoch_losses, np.float64)
    require(len(losses) == epochs, f"{len(losses)} epoch losses for {epochs} epochs")
    require(np.all(np.isfinite(losses)), f"non-finite epoch loss {losses.tolist()}")
    ceiling = (1 + negatives) * math.log(2.0)
    require(losses[-1] < ceiling, f"final loss {losses[-1]:.4f} >= {ceiling:.4f}")
    require(emb.vectors.shape == (len(keys), dim),
            f"embedding shape {emb.vectors.shape}, expected {(len(keys), dim)}")
    require(set(emb.keys) == keys, "embedding keys differ from the corpus tokens")
    bad = int((~np.isfinite(emb.vectors).all(axis=1)).sum())
    require(bad == 0, f"{bad} embedding rows hold non-finite values")


def embedding_roundtrip(saved, loaded) -> None:
    require(list(loaded.keys) == list(saved.keys), "reloaded embedding keys differ")
    require(np.array_equal(loaded.vectors, saved.vectors.astype(np.float32)),
            "reloaded embedding vectors differ from the saved ones")


# ---------------------------------------------------------------- evaluate

def middle_share_f1(report, ratios) -> tuple[float, float]:
    """Mean (Micro-F1, Macro-F1) over the repetitions at the middle share."""
    mid = sorted(ratios)[len(ratios) // 2]
    rows = [r for r in report.rows if r["ratio"] == mid]
    return (float(np.mean([r["micro_f1"] for r in rows])),
            float(np.mean([r["macro_f1"] for r in rows])))


def classification(report, y: np.ndarray, ratios) -> None:
    """Micro-F1 at the middle share above the majority-class rate of the
    labeled nodes (which the stratified split keeps in its test part), and
    rising from the lowest share to the highest."""
    require(all(0.0 <= r[k] <= 1.0 for r in report.rows for k in ("micro_f1", "macro_f1")),
            "an F1 score lies outside [0, 1]")
    mid = sorted(ratios)[len(ratios) // 2]
    micro, _ = middle_share_f1(report, ratios)
    majority = float(np.bincount(y).max() / len(y))
    require(micro > majority, f"Micro-F1@{mid} {micro:.4f} <= majority rate {majority:.4f}")
    if len(ratios) > 1:
        lo, hi = min(ratios), max(ratios)
        f_lo, f_hi = report.mean_micro(lo), report.mean_micro(hi)
        require(f_hi > f_lo, f"Micro-F1 {f_lo:.4f}@{lo} does not rise to {f_hi:.4f}@{hi}")
