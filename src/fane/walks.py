"""Biased second-order random walks over the augmented graph.

A step from v, having arrived via u, scores each neighbor x with
pi(v,x) = w(v,x) * alpha(v,x). alpha applies the attribute bias 1/r
according to the strategy (sf: source is an attribute node, tf: target is,
stf: either is) and otherwise falls back to the return/in-out kernel
beta: 1/p if x == u, 1 if x is adjacent to u, else 1/q.

_scores states this rule once, first steps included, and _envelope the
proposal's bound c(v,x); tables, rejection and exact draws all read them.
preprocess_transitions builds the whole sampler. States (u -> v) with
deg(v) <= tau sample from alias tables, built grouped by deg(v) in lockstep
through Vose's construction; tau=0 builds none, and so does a tau whose
tables would exceed _MAX_TABLE_ENTRIES entries. Every other state takes one
batched rejection step (KnightKing, Yang et al., SOSP 2019): x is proposed
from w(v,x) * c(v,x) by inverse CDF over row-local prefix sums built with
the tables, and accepted with alpha / c; the return edge's mass above c is
an outlier drawn past the end of the proposal. After _MAX_TRIALS
rejections a walker makes one exact draw, so every step follows pi exactly.

Every uniform a walk draws comes from one counter-based Philox4x32 stream
keyed by the seed: trial t of step s of the walk (iteration, start) is the
block at counter (start, s, t, iteration), whether a table, a rejection
trial or the exact fallback reads it. A corpus walks its (iteration, start)
pairs in canonical order, one chunk of walkers at a time, with no shuffle
and no threads; since every walk draws only from its own counters, the
chunk size cannot change it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .alias import alias_draw, build_alias_rows
from .graph import AugmentedGraph, valid_utf8

SF = "sf"
TF = "tf"
STF = "stf"
STRATEGIES = (SF, TF, STF)

SENTINEL_START = -1

logger = logging.getLogger(__name__)

# sub-stream tag of the walk stream's key
_WALK_STREAM = 2

# table entries per chunk of the batched alias and prefix-sum builds;
# bounds their temporaries
_CHUNK_ENTRIES = 1 << 16

# alias table entries a model may hold; a tau that needs more builds none
_MAX_TABLE_ENTRIES = 10**8

# rejection trials per table-less step before its one exact draw from pi
_MAX_TRIALS = 16

# walkers per chunk of a corpus; bounds the chunk's per-walker arrays
# whatever the graph's size
_CHUNK_WALKERS = 1 << 15

# Philox4x32-10 multipliers and Weyl key increments
_PHILOX_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_M32 = 0xFFFFFFFF


@dataclass(frozen=True)
class WalkParams:
    """Walk configuration: biases (p, q, r), strategy, corpus shape, table threshold."""

    p: float = 1.0
    q: float = 1.0
    r: float = 1.0
    strategy: str = TF
    walk_length: int = 80
    walks_per_node: int = 10
    seed: int = 1
    tau: int = 1024

    def __post_init__(self):
        if not (self.p > 0 and self.q > 0 and self.r > 0):
            raise ValueError("p, q, r must all be positive")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.walk_length < 2:
            raise ValueError("walk_length must be >= 2")
        if self.walks_per_node < 1:
            raise ValueError("walks_per_node must be >= 1")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")


def _damped(params: WalkParams, x_attr, v_attr):
    """Moves the strategy damps by 1/r: into an attribute node (tf, stf) or
    out of one (sf, stf)."""
    if params.strategy == STF:
        return x_attr | v_attr
    return x_attr if params.strategy == TF else v_attr


def _scores(params: WalkParams, n_raw: int, x, w, u, v, adj) -> np.ndarray:
    """Unnormalized scores w(v,x) * alpha(v,x) of the moves v -> x after
    u -> v, elementwise over arrays that broadcast together.

    ``adj`` marks x adjacent to u and is not read where u < 0
    (SENTINEL_START): that scores a first step, w * gamma, gamma being 1/r
    where the strategy would damp the move mid-walk, else 1, so at r = 1 the
    first step is the weighted-uniform start of node2vec.
    """
    x_attr, v_attr = x >= n_raw, v >= n_raw
    beta = np.where(x == u, 1.0 / params.p, np.where(adj, 1.0, 1.0 / params.q))
    pi = w * np.where(_damped(params, x_attr, v_attr), 1.0 / params.r, np.where(u < 0, 1.0, beta))
    if params.strategy in (SF, STF):
        # mid-walk, a move out of an attribute node divides w by r
        pi = np.where(v_attr & (u >= 0), w / params.r, pi)
    return pi


def _envelope(params: WalkParams, n_raw: int, x, v) -> np.ndarray:
    """c(v,x), the proposal's factor over w(v,x): 1/r on the moves the
    strategy damps, max(1, 1/q) elsewhere. alpha <= c on every move but the
    return edge."""
    return np.where(_damped(params, x >= n_raw, v >= n_raw), 1.0 / params.r, max(1.0, 1.0 / params.q))


def _pi(g: AugmentedGraph, params: WalkParams, u: int, v: int) -> np.ndarray:
    """Scores of the state (u, v); u = SENTINEL_START for a first step."""
    x, w = g.neighbor_slice(v)
    return _scores(params, g.n_raw, x, w, u, v, g.has_edge(u, x))


def transition_distribution(g: AugmentedGraph, params: WalkParams, u: int, v: int) -> np.ndarray:
    """Normalized transition distribution for state (u, v).

    u = SENTINEL_START selects the first-step distribution. The vector is
    aligned with g.neighbor_slice(v)[0], ascending unified ids.
    """
    pi = _pi(g, params, u, v)
    if len(pi) == 0:
        raise ValueError(f"node {v} has no neighbors")
    return pi / pi.sum()


@dataclass
class TransitionModel:
    """The whole sampler of one graph and WalkParams, immutable once built.

    ``edge_off[e]`` indexes the flat alias arrays for the directed edge with
    CSR position e, or is -1 when deg(v) > tau (same for ``node_off`` and
    first steps). Those states are sampled by rejection from the proposal
    prefix sums of row v, ``sum_cum[sum_off[v]:sum_off[v] + deg(v)]``;
    ``sum_off`` is -1 on rows with tables. ``params.tau`` is the threshold
    the tables were built at, 0 when none were. An entry is a float64
    acceptance and a uint16 alias column; offsets are int32. Both always
    suffice: the tables hold at most _MAX_TABLE_ENTRIES = 10**8 entries, so
    offsets stay below 2**31, and the deg(v)**2 among them of a tabled row
    v keep its columns below 10**4.
    """

    params: WalkParams
    node_off: np.ndarray
    node_accept: np.ndarray
    node_alias: np.ndarray
    edge_off: np.ndarray
    edge_accept: np.ndarray
    edge_alias: np.ndarray
    sum_off: np.ndarray
    sum_cum: np.ndarray

    @property
    def n_precomputed_entries(self) -> int:
        return len(self.node_accept) + len(self.edge_accept)


def preprocess_transitions(g: AugmentedGraph, params: WalkParams, tau: int | None = None) -> TransitionModel:
    """Build the sampler: alias tables for all states sampling over nodes of
    degree <= tau, and proposal prefix sums over every other node's row.
    ``tau``, when given, replaces ``params.tau``.

    Each node v with deg(v) <= tau gets a first-step table and each edge
    (u -> v) one over N(v), equal bit for bit to ``build_alias`` of the
    state's distribution. States of one deg(v) are built in lockstep,
    ``_CHUNK_ENTRIES // deg(v)`` at a time, so besides the tables and sums
    memory holds a few ``_CHUNK_ENTRIES``-sized arrays and a few int64 per
    directed edge. Tables that would exceed ``_MAX_TABLE_ENTRIES`` entries
    are not built: a WARNING is logged and the model is that of tau=0.
    """
    params = params if tau is None else replace(params, tau=tau)
    deg = np.diff(g.indptr)
    if not deg.all():
        raise ValueError(f"node {int(np.argmin(deg))} has no neighbors")
    small = deg <= params.tau
    node_entries = int(deg[small].sum())
    edge_entries = int((deg[small] * deg[small]).sum())
    if node_entries + edge_entries > _MAX_TABLE_ENTRIES:
        logger.warning("alias tables at tau=%d would need %d entries (budget %d); building none, "
                       "as at tau=0", params.tau, node_entries + edge_entries, _MAX_TABLE_ENTRIES)
        return preprocess_transitions(g, params, tau=0)

    node_off = np.full(g.n_total, -1, np.int32)
    node_accept = np.empty(node_entries, np.float64)
    node_alias = np.empty(node_entries, np.uint16)
    edge_off = np.full(int(g.indptr[-1]), -1, np.int32)
    edge_accept = np.empty(edge_entries, np.float64)
    edge_alias = np.empty(edge_entries, np.uint16)
    if node_entries:
        # CSR order is (source, target) order, so these keys come sorted
        keys = np.repeat(np.arange(g.n_total, dtype=np.int64) * g.n_total, deg)
        keys += g.neighbors
        nodes = np.flatnonzero(small)
        node_off[nodes] = np.cumsum(deg[nodes]) - deg[nodes]
        _fill_tables(g, params, keys, np.full(len(nodes), SENTINEL_START), nodes, node_off[nodes],
                     node_accept, node_alias)
        edges = np.flatnonzero(small[g.neighbors])
        cur = g.neighbors[edges].astype(np.int64)
        edge_off[edges] = np.cumsum(deg[cur]) - deg[cur]
        prev = np.searchsorted(g.indptr, edges, side="right") - 1
        _fill_tables(g, params, keys, prev, cur, edge_off[edges], edge_accept, edge_alias)
    sum_off, sum_cum = _proposal_sums(g, params, np.flatnonzero(~small))
    return TransitionModel(params=params, node_off=node_off, node_accept=node_accept,
                           node_alias=node_alias, edge_off=edge_off, edge_accept=edge_accept,
                           edge_alias=edge_alias, sum_off=sum_off, sum_cum=sum_cum)


def _fill_tables(g: AugmentedGraph, params: WalkParams, keys: np.ndarray, prev: np.ndarray,
                 cur: np.ndarray, off: np.ndarray, accept: np.ndarray, alias: np.ndarray) -> None:
    """Write the alias table of state (prev[i] -> cur[i]) at off[i]. ``keys``
    holds u * n_total + x for every directed edge u -> x, in CSR order."""
    for rows, cols in _degree_chunks(np.diff(g.indptr)[cur]):
        at = g.indptr[cur[rows]][:, None] + cols
        x = g.neighbors[at]
        u = prev[rows][:, None]
        ux = u * g.n_total + x
        adj = keys[np.minimum(np.searchsorted(keys, ux), len(keys) - 1)] == ux
        pi = _scores(params, g.n_raw, x, g.weights[at], u, cur[rows][:, None], adj)
        dst = off[rows][:, None] + cols
        accept[dst], alias[dst] = build_alias_rows(pi / pi.sum(axis=1, keepdims=True))


def _degree_chunks(d: np.ndarray):
    """Yield (rows, arange(k)) over the indices of ``d`` grouped by equal
    value k, at most ``_CHUNK_ENTRIES // k`` rows at a time."""
    if not len(d):
        return
    order = np.argsort(d, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(d[order])) + 1):
        k = int(d[group[0]])
        cols = np.arange(k)
        step = max(1, _CHUNK_ENTRIES // k)
        for i in range(0, len(group), step):
            yield group[i:i + step], cols


def _philox4x32(ctr, key):
    """Philox4x32-10 (Salmon et al., SC 2011) of the counters ``ctr``, four
    uint64 arrays of 32-bit words, under the two 32-bit words of ``key``.
    The rounds run in place: ``ctr`` is overwritten by the output words and
    returned."""
    c0, c1, c2, c3 = ctr
    k0, k1 = key
    p0, p1 = np.empty((2, *np.shape(c0)), np.uint64)
    for _ in range(10):
        np.multiply(c0, _PHILOX_M[0], out=p0)
        np.multiply(c2, _PHILOX_M[1], out=p1)
        # c0, c1, c2, c3 = hi(p1) ^ c1 ^ k0, lo(p1), hi(p0) ^ c3 ^ k1, lo(p0)
        np.right_shift(p1, 32, out=c0)
        c0 ^= c1
        c0 ^= k0
        np.right_shift(p0, 32, out=c2)
        c2 ^= c3
        c2 ^= k1
        np.bitwise_and(p1, _M32, out=c1)
        np.bitwise_and(p0, _M32, out=c3)
        k0, k1 = (k0 + _PHILOX_W[0]) & _M32, (k1 + _PHILOX_W[1]) & _M32
    return ctr


def _uniforms(seed: int, iteration: np.ndarray, start: np.ndarray, step: int,
              trial) -> tuple[np.ndarray, np.ndarray]:
    """(u1, u2) of trial ``trial`` (one int, or one per walker) of the walks
    (iteration[i], start[i]): the Philox4x32 block at counter (start, step,
    trial, iteration) under the seed's two words, the high one tagged with
    ``_WALK_STREAM``."""
    words = np.empty((4, len(start)), np.uint64)
    for w, value in zip(words, (start, step & _M32, trial, iteration)):
        np.copyto(w, value, casting="unsafe")
    words[3] &= np.uint64(_M32)
    out = _philox4x32(words, (seed & _M32, ((seed >> 32) ^ _WALK_STREAM) & _M32))
    # u1 = ((o0 >> 5) * 2**26 + (o1 >> 6)) / 2**53, and u2 likewise from o2 and o3
    out >>= np.array([[5], [6], [5], [6]], np.uint64)
    hi, lo = out[0::2], out[1::2]
    hi <<= np.uint64(26)
    hi += lo
    u1, u2 = hi * (1.0 / (1 << 53))
    return u1, u2


def _row_search(a: np.ndarray, lo: np.ndarray, hi: np.ndarray, key, side: str = "left") -> np.ndarray:
    """``lo[i] + np.searchsorted(a[lo[i]:hi[i]], key[i], side)`` for every i,
    by one bisection over all the sorted rows in lockstep."""
    last = len(a) - 1
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        open_ = lo < hi
        mid = (lo + hi) >> 1
        at = a[np.minimum(mid, last)]
        right = (at <= key) if side == "right" else (at < key)
        lo = np.where(open_ & right, mid + 1, lo)
        hi = np.where(open_ & ~right, mid, hi)
    return lo


def _proposal_sums(g: AugmentedGraph, params: WalkParams, nodes: np.ndarray):
    """Row-local prefix sums of the proposal w(v,x) * c(v,x) over N(v) for v
    in ``nodes``, as (off, cum): row v spans cum[off[v]:off[v] + deg(v)], off
    is -1 elsewhere. Each row is summed on its own and carries no rounding
    from another."""
    d = np.diff(g.indptr)[nodes]
    off = np.full(g.n_total, -1, np.int64)
    off[nodes] = np.cumsum(d) - d
    cum = np.empty(int(d.sum()))
    for rows, cols in _degree_chunks(d):
        v = nodes[rows][:, None]
        at = g.indptr[v] + cols
        cum[off[v] + cols] = np.cumsum(g.weights[at] * _envelope(params, g.n_raw, g.neighbors[at], v), axis=1)
    return off, cum


def _exact_draw(g: AugmentedGraph, params: WalkParams, u: int, v: int, u1: float) -> int:
    """Position drawn from pi of the state (u, v) by inverse CDF."""
    cdf = np.cumsum(_pi(g, params, u, v))
    return min(int(np.searchsorted(cdf, u1 * cdf[-1], side="right")), len(cdf) - 1)


def _reject(g: AugmentedGraph, model: TransitionModel, prev: np.ndarray, cur: np.ndarray,
            walk: tuple, counts: np.ndarray) -> np.ndarray:
    """Positions drawn from pi of the states (prev[i] -> cur[i]) by rejection;
    prev[i] = SENTINEL_START for a first step.

    A trial draws y = u1 * (Z + E), Z the row's proposal sum and E the
    return edge's mass above the envelope, w(v,u) * (alpha(v,u) - c(v,u))+.
    y < Z proposes x by inverse CDF and keeps it if u2 < alpha / c; y >= Z
    takes x = u outright. Trial t reads ``_uniforms`` at (seed, iteration,
    start, step) = ``walk`` and t, and the exact draw trial ``_MAX_TRIALS``.
    Trials run in rounds of 1, 3 and 12, each round for all walkers still
    rejected at once; a walker keeps its first accepted trial, so rounds
    change no draw. Walkers rejected ``_MAX_TRIALS`` times make one exact
    draw.
    """
    params, cum = model.params, model.sum_cum
    seed, iteration, start, step = walk
    lo = g.indptr[cur]
    deg = g.indptr[cur + 1] - lo
    base = model.sum_off[cur]
    total = cum[base + deg - 1]
    # alpha(v,u) - c(v,u): how far the return move's alpha is above the envelope
    above = _scores(params, g.n_raw, prev, 1.0, prev, cur, True) - _envelope(params, g.n_raw, prev, cur)
    m = np.flatnonzero((prev >= 0) & (above > 0))
    home = np.zeros(len(cur), np.int64)
    home[m] = _row_search(g.neighbors, lo[m], lo[m] + deg[m], prev[m]) - lo[m]
    extra = np.zeros(len(cur))
    extra[m] = g.weights[lo[m] + home[m]] * above[m]
    out = np.empty(len(cur), np.int64)
    live = np.arange(len(cur))
    first, n = 0, 1
    while len(live) and first < _MAX_TRIALS:
        # trials first .. first+n-1 of each live walker
        w = np.repeat(live, n)
        a, b = _uniforms(seed, iteration[w], start[w], step, np.tile(np.arange(first, first + n), len(live)))
        u, v, z, e, bw, dw = prev[w], cur[w], total[w], extra[w], base[w], deg[w]
        y = a * (z + e)
        j = np.where((y >= z) & (e > 0), home[w],
                     np.minimum(_row_search(cum, bw, bw + dw, y, "right") - bw, dw - 1))
        x = g.neighbors[lo[w] + j]
        # alpha as if x were not adjacent to u, and as if it were; u's row
        # is searched only where the two differ
        alpha, near = _scores(params, g.n_raw, x, 1.0, u, v, np.array([[False], [True]]))
        i = np.flatnonzero(near != alpha)
        end = g.indptr[u[i] + 1]
        at = _row_search(g.neighbors, g.indptr[u[i]], end, x[i])
        i = i[(at < end) & (g.neighbors[np.minimum(at, len(g.neighbors) - 1)] == x[i])]
        alpha[i] = near[i]
        ok = (b < alpha / _envelope(params, g.n_raw, x, v)).reshape(len(live), n)
        took = ok.argmax(axis=1)
        done = ok[np.arange(len(live)), took]
        counts[2] += int(np.where(done, took + 1, n).sum())
        out[live[done]] = j.reshape(len(live), n)[done, took[done]]
        live = live[~done]
        first, n = first + n, min(3 * (first + n), _MAX_TRIALS - first - n)
    if len(live):
        counts[3] += len(live)
        a, _ = _uniforms(seed, iteration[live], start[live], step, _MAX_TRIALS)
        for i, ai in zip(live.tolist(), a.tolist()):
            out[i] = _exact_draw(g, params, int(prev[i]), int(cur[i]), ai)
    return out


def _next_positions(g: AugmentedGraph, model: TransitionModel, prev: np.ndarray, cur: np.ndarray,
                    edge: np.ndarray, walk: tuple, counts: np.ndarray) -> np.ndarray:
    """Position in cur's neighbor row of each walker's next node.

    ``edge`` is the CSR index of (prev -> cur), -1 for a first step, and
    ``walk`` = (seed, iteration, start, step), iteration and start per
    walker. States with a table draw from it with trial 0 of ``_uniforms``;
    the rest go through ``_reject`` together. ``counts`` accumulates [table
    steps, rejection steps, rejection trials, exact fallbacks].
    """
    seed, iteration, start, step = walk
    idx = np.empty(len(cur), np.int64)
    first = edge < 0
    rest = []
    for rows, offs, accept, alias in (
            (np.flatnonzero(first), model.node_off[cur[first]], model.node_accept, model.node_alias),
            (np.flatnonzero(~first), model.edge_off[edge[~first]], model.edge_accept, model.edge_alias)):
        pre = offs >= 0
        sel = rows[pre]
        if len(sel):
            idx[sel] = alias_draw(accept, alias, offs[pre], g.indptr[cur[sel] + 1] - g.indptr[cur[sel]],
                                  *_uniforms(seed, iteration[sel], start[sel], step, 0))
        rest.append(rows[~pre])
    rows = np.concatenate(rest)
    counts[0] += len(cur) - len(rows)
    if len(rows):
        counts[1] += len(rows)
        idx[rows] = _reject(g, model, prev[rows], cur[rows], (seed, iteration[rows], start[rows], step),
                            counts)
    return idx


def _walk_chunk(g: AugmentedGraph, model: TransitionModel, iteration: np.ndarray,
                start: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The walks of the (iteration[i], start[i]) pairs, advanced in
    lockstep, as a (len(start), l) id array; adds the step counts of
    ``_next_positions`` to ``counts``."""
    seed, l = model.params.seed, model.params.walk_length
    B = len(start)
    walks = np.empty((B, l), np.int32)
    walks[:, 0] = start
    cur = start.astype(np.int64)
    prev = np.full(B, SENTINEL_START, np.int64)
    edge = np.full(B, -1, np.int64)   # CSR index of (prev -> cur)
    for s in range(l - 1):
        idx = _next_positions(g, model, prev, cur, edge, (seed, iteration, start, s), counts)
        edge = g.indptr[cur] + idx
        prev = cur
        cur = g.neighbors[edge].astype(np.int64)
        walks[:, s + 1] = cur
    return walks


def edge_csr_index(g: AugmentedGraph, u: int, v: int) -> int:
    """CSR position of the directed edge u -> v; raises if absent."""
    _check_node(g, u)
    s, e = g.indptr[u], g.indptr[u + 1]
    pos = int(np.searchsorted(g.neighbors[s:e], v))
    if pos >= e - s or g.neighbors[s + pos] != v:
        raise KeyError(f"no edge {u} -> {v}")
    return int(s + pos)


def _check_node(g: AugmentedGraph, v: int) -> None:
    """Raise unless v is a node id of g."""
    if not 0 <= v < g.n_total:
        raise ValueError(f"node id {v} is not in [0, {g.n_total})")


def sample_next(g: AugmentedGraph, model: TransitionModel, u: int, v: int,
                n_samples: int, seed: int) -> np.ndarray:
    """Draw next-step neighbor positions for state (u, v) through the walk
    kernel, table or rejection as the model has it; u = SENTINEL_START
    samples the first step. Draw i is step 0 of the walk (iteration 0,
    start i), so at u = SENTINEL_START and i = v it is that corpus walk's
    first step."""
    _check_node(g, v)
    e = -1 if u == SENTINEL_START else edge_csr_index(g, u, v)
    return _next_positions(g, model, np.full(n_samples, u, np.int64), np.full(n_samples, v, np.int64),
                           np.full(n_samples, e, np.int64),
                           (seed, np.zeros(n_samples, np.int64), np.arange(n_samples), 0), np.zeros(4, np.int64))


def generate_walk(g: AugmentedGraph, model: TransitionModel, start: int,
                  iteration: int = 0) -> np.ndarray:
    """One walk from ``start``; identical to the corresponding corpus row."""
    _check_node(g, start)
    return _walk_chunk(g, model, np.array([iteration], np.int64),
                       np.array([start], np.int64), np.zeros(4, np.int64))[0]


@dataclass
class Corpus:
    """Walk corpus in canonical (iteration, start id) order."""

    walks: np.ndarray           # (n_walks, walk_length) int32 unified ids
    n_raw: int
    attr_ids: np.ndarray        # attribute node slot -> AttrId (for rendering)

    @property
    def n_walks(self) -> int:
        return self.walks.shape[0]

    @property
    def walk_length(self) -> int:
        return self.walks.shape[1]

    def save(self, path) -> None:
        """One walk per line, space-separated tokens, attribute nodes a<attrid>."""
        tokens = [str(v) for v in range(self.n_raw)] + [f"a{a}" for a in self.attr_ids.tolist()]
        with open(path, "w", encoding="utf-8") as f:
            for row in self.walks:
                f.write(" ".join(map(tokens.__getitem__, row.tolist())) + "\n")


def load_corpus_tokens(path) -> tuple[np.ndarray, list[str]]:
    """Read a corpus file into (index matrix, token list).

    Tokens are numbered in first-appearance order; the matrix holds those
    indices. Blank lines are skipped; all other lines must be UTF-8 and of
    equal length, and the error names the first file line that is not.
    """
    vocab: dict[str, int] = {}
    rows: list[list[int]] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            toks = valid_utf8(line, "corpus", lineno).split()
            if not toks:
                continue
            if rows and len(toks) != len(rows[0]):
                raise ValueError(f"corpus line {lineno}: walk of length {len(toks)}, "
                                 f"expected {len(rows[0])} as in the first walk")
            rows.append([vocab.setdefault(t, len(vocab)) for t in toks])
    if not rows:
        raise ValueError("empty corpus file")
    return np.asarray(rows, np.int32), list(vocab)   # dicts keep first-appearance order


def generate_corpus(g: AugmentedGraph, model: TransitionModel) -> Corpus:
    """Alg.-style corpus: walks_per_node iterations over every start node.

    Starts cover all of V', each exactly walks_per_node times. The
    (iteration, start id) pairs are walked in that canonical order,
    sequentially, in chunks of at most ``_CHUNK_WALKERS`` walkers that may
    straddle iterations.
    Logs at INFO how many steps drew from tables and how many by rejection,
    the mean trials per rejection step and the exact fallbacks.
    """
    params = model.params
    n_walks = params.walks_per_node * g.n_total
    all_walks = np.empty((n_walks, params.walk_length), np.int32)
    counts = np.zeros(4, np.int64)
    for k in range(0, n_walks, _CHUNK_WALKERS):
        iteration, start = np.divmod(np.arange(k, min(k + _CHUNK_WALKERS, n_walks)), g.n_total)
        all_walks[k:k + len(start)] = _walk_chunk(g, model, iteration, start, counts)

    table, rejection, trials, fallbacks = counts.tolist()
    logger.info("walk steps: %d from tables, %d by rejection at %.3f trials each, %d exact fallbacks",
                table, rejection, trials / max(rejection, 1), fallbacks)

    return Corpus(walks=all_walks, n_raw=g.n_raw, attr_ids=g.attr_ids.copy())
