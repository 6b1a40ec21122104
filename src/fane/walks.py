"""Biased second-order random walks over the augmented graph.

A step from v, having arrived via u, scores each neighbor x with
pi(v,x) = w(v,x) * alpha(v,x). alpha applies the attribute bias 1/r
according to the strategy (sf: source is an attribute node, tf: target is,
stf: either is) and otherwise falls back to the return/in-out kernel
beta: 1/p if x == u, 1 if x is adjacent to u, else 1/q.

Sampling uses alias tables precomputed for every state (u -> v) with
deg(v) <= tau, built in one batched pass: states grouped by deg(v) run
through Vose's construction in lockstep, in chunks of a fixed number of
entries. Remaining states are sampled on demand. Each walk draws its
randomness from a dedicated counter window of a Philox stream keyed by
(seed, iteration), so corpora are reproducible and independent of worker
scheduling.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass

import numpy as np

from .graph import AugmentedGraph

SF = "sf"
TF = "tf"
STF = "stf"
STRATEGIES = (SF, TF, STF)

SENTINEL_START = -1

# sub-stream tags for the non-walk generators (shuffle order)
_ORDER_STREAM = 1

# table entries per chunk of the batched alias build; bounds its temporaries
_CHUNK_ENTRIES = 1 << 16


class TransitionMemoryError(RuntimeError):
    """Precomputed tables would exceed the entry budget."""


@dataclass(frozen=True)
class WalkParams:
    """Walk configuration: biases (p, q, r), strategy, and corpus shape."""

    p: float = 1.0
    q: float = 1.0
    r: float = 1.0
    strategy: str = TF
    walk_length: int = 80
    walks_per_node: int = 10
    seed: int = 1
    beta_graph: str = "augmented"   # adjacency space for the beta kernel
    raw_starts_only: bool = False

    def __post_init__(self):
        if not (self.p > 0 and self.q > 0 and self.r > 0):
            raise ValueError("p, q, r must all be positive")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.walk_length < 2:
            raise ValueError("walk_length must be >= 2")
        if self.walks_per_node < 1:
            raise ValueError("walks_per_node must be >= 1")
        if self.beta_graph not in ("augmented", "raw"):
            raise ValueError("beta_graph must be 'augmented' or 'raw'")


def _scores(params: WalkParams, n_raw: int, x: np.ndarray, w: np.ndarray, v_attr,
            u=None, adj=None) -> np.ndarray:
    """Unnormalized scores w(v,x) * alpha over neighbors x of v, for one state
    (scalar u, v_attr) or rows of states (u, v_attr of shape (rows, 1)).

    ``adj`` marks x adjacent to u. u=None scores a first step, w * gamma:
    gamma is 1/r where the strategy would damp the move mid-walk, else 1, so
    at r = 1 the first step is the weighted-uniform start of node2vec.
    """
    x_attr = x >= n_raw
    strat = params.strategy
    if u is None:
        damp = (x_attr & (strat in (TF, STF))) | (v_attr & (strat in (SF, STF)))
        return w * np.where(damp, 1.0 / params.r, 1.0)
    if params.beta_graph == "raw":
        adj = adj & ~x_attr & (u < n_raw)
    a = np.where(adj, 1.0, 1.0 / params.q)
    a[x == u] = 1.0 / params.p
    if strat in (TF, STF):
        a[x_attr] = 1.0 / params.r
    if strat in (SF, STF):
        return np.where(v_attr, w / params.r, w * a)
    return w * a


def _pi(g: AugmentedGraph, params: WalkParams, u: int, v: int) -> np.ndarray:
    """Scores of the state (u, v); u = SENTINEL_START for a first step."""
    x, w = g.neighbor_slice(v)
    if u == SENTINEL_START:
        return _scores(params, g.n_raw, x, w, v >= g.n_raw)
    return _scores(params, g.n_raw, x, w, v >= g.n_raw, u, g.has_edge(u, x))


def first_step_distribution(g: AugmentedGraph, params: WalkParams, v: int) -> np.ndarray:
    """Normalized first-step distribution over the (sorted) neighbors of v."""
    return transition_distribution(g, params, SENTINEL_START, v)


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
    """Hybrid precomputed/on-demand transition tables for one parameter set.

    Immutable after preprocessing; shareable across workers. ``edge_off[e]``
    indexes the flat alias arrays for the directed edge with CSR position e,
    or -1 when that state is sampled on demand (same for ``node_off`` and
    first steps).
    """

    params: WalkParams
    tau: int
    node_off: np.ndarray
    node_accept: np.ndarray
    node_alias: np.ndarray
    edge_off: np.ndarray
    edge_accept: np.ndarray
    edge_alias: np.ndarray

    @property
    def n_precomputed_entries(self) -> int:
        return len(self.node_accept) + len(self.edge_accept)


def preprocess_transitions(g: AugmentedGraph, params: WalkParams, tau: int = 1024,
                           max_entries: int = 100_000_000) -> TransitionModel:
    """Build alias tables for all states sampling over nodes of degree <= tau.

    Each node v with deg(v) <= tau gets a first-step table and each edge
    (u -> v) one over N(v), equal bit for bit to ``build_alias`` of the
    state's distribution. States of one deg(v) are built in lockstep,
    ``_CHUNK_ENTRIES // deg(v)`` at a time, so besides the tables memory holds
    a few ``_CHUNK_ENTRIES``-sized arrays and a few int64 per directed edge;
    with no such node (as at tau=0) no edge is visited.

    Raises TransitionMemoryError, naming the largest tau that fits, when the
    tables would exceed ``max_entries`` entries (tau=0 is fully on-demand).
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    deg = np.diff(g.indptr)
    if not deg.all():
        raise ValueError(f"node {int(np.argmin(deg))} has no neighbors")
    small = deg <= tau
    node_entries = int(deg[small].sum())
    edge_entries = int((deg[small] * deg[small]).sum())
    if node_entries + edge_entries > max_entries:
        d = np.sort(deg[small])
        fit = int(d[np.searchsorted(np.cumsum(d + d * d), max_entries, side="right")]) - 1
        raise TransitionMemoryError(
            f"precomputing needs {node_entries + edge_entries} table entries (> budget {max_entries}); "
            f"lower tau (currently {tau}) to {fit} or less, or use tau=0 for fully on-demand sampling")

    node_off = np.full(g.n_total, -1, np.int64)
    node_accept = np.empty(node_entries, np.float64)
    node_alias = np.empty(node_entries, np.int32)
    edge_off = np.full(int(g.indptr[-1]), -1, np.int64)
    edge_accept = np.empty(edge_entries, np.float64)
    edge_alias = np.empty(edge_entries, np.int32)
    if node_entries:
        nodes = np.flatnonzero(small)
        node_off[nodes] = np.cumsum(deg[nodes]) - deg[nodes]
        _fill_tables(g, params, None, nodes, node_off[nodes], node_accept, node_alias)
        edges = np.flatnonzero(small[g.neighbors])
        cur = g.neighbors[edges].astype(np.int64)
        edge_off[edges] = np.cumsum(deg[cur]) - deg[cur]
        prev = np.searchsorted(g.indptr, edges, side="right") - 1
        _fill_tables(g, params, prev, cur, edge_off[edges], edge_accept, edge_alias)

    return TransitionModel(
        params=params, tau=tau,
        node_off=node_off, node_accept=node_accept, node_alias=node_alias,
        edge_off=edge_off, edge_accept=edge_accept, edge_alias=edge_alias,
    )


def _fill_tables(g: AugmentedGraph, params: WalkParams, prev: np.ndarray | None, cur: np.ndarray,
                 off: np.ndarray, accept: np.ndarray, alias: np.ndarray) -> None:
    """Write the alias table of state (prev[i] -> cur[i]) at off[i]; prev=None for first steps."""
    if prev is not None:
        # CSR order is (source, target) order, so these keys come sorted
        keys = np.repeat(np.arange(g.n_total, dtype=np.int64) * g.n_total, np.diff(g.indptr))
        keys += g.neighbors
    d_cur = np.diff(g.indptr)[cur]
    order = np.argsort(d_cur, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(d_cur[order])) + 1):
        d = int(d_cur[group[0]])
        cols = np.arange(d)
        step = max(1, _CHUNK_ENTRIES // d)
        for i in range(0, len(group), step):
            rows = group[i:i + step]
            at = g.indptr[cur[rows]][:, None] + cols
            x = g.neighbors[at]
            u = adj = None
            if prev is not None:
                u = prev[rows][:, None]
                ux = u * g.n_total + x
                adj = keys[np.minimum(np.searchsorted(keys, ux), len(keys) - 1)] == ux
            pi = _scores(params, g.n_raw, x, g.weights[at], (cur[rows] >= g.n_raw)[:, None], u, adj)
            dst = off[rows][:, None] + cols
            accept[dst], alias[dst] = _alias_rows(pi / pi.sum(axis=1, keepdims=True))


def _alias_rows(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``build_alias`` of every row of ``probs`` at once, bit for bit.

    Each row's small and large stacks are filled in index order and popped
    from the end, as in ``build_alias``. They share one array, small first:
    neither outgrows its start, since a step pops s and l, then puts l where
    s was or leaves it on top of the large stack.
    """
    n_rows, d = probs.shape
    scaled = (probs * d).ravel()
    accept = np.ones(n_rows * d)
    alias = np.tile(np.arange(d, dtype=np.int32), n_rows)
    large = (scaled >= 1.0).reshape(n_rows, d)
    base = np.arange(0, n_rows * d, d)
    stack = (np.argsort(large, axis=1, kind="stable") + base[:, None]).ravel()
    floor = base + d - large.sum(axis=1)   # bottom of the large stack
    sp = floor - 1                         # top of the small stack
    lp = base + d - 1                      # top of the large stack
    while True:
        live = (sp >= base) & (lp >= floor)
        if not live.all():
            sp, lp, base, floor = sp[live], lp[live], base[live], floor[live]
        if not len(sp):
            return accept.reshape(n_rows, d), alias.reshape(n_rows, d)
        s = stack[sp]
        l = stack[lp]
        accept[s] = scaled[s]
        alias[s] = l - base
        rest = (scaled[l] + scaled[s]) - 1.0
        scaled[l] = rest
        down = rest < 1.0
        stack[sp[down]] = l[down]
        lp = lp - down
        sp = sp - ~down


def _philox(seed: int, iteration: int) -> np.random.Generator:
    """Philox stream of one iteration; read as an (n_total, 2(l-1)) uniform
    block, row v is the stream of the walk at v.

    Philox is counter-based: row v occupies a fixed counter window, which is
    what makes per-walk randomness independent of batching and scheduling.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, iteration & 0xFFFFFFFFFFFFFFFF], np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _alias_draw(accept: np.ndarray, alias: np.ndarray, off, d, u1, u2) -> np.ndarray:
    """Positions drawn from the tables at ``off``: column j by u1, kept if u2 < accept."""
    j = np.minimum((u1 * d).astype(np.int64), d - 1)
    at = off + j
    return np.where(u2 < accept[at], j, alias[at])


def _sample_on_demand(pi: np.ndarray, u1):
    cdf = np.cumsum(pi)
    return np.minimum(np.searchsorted(cdf, u1 * cdf[-1], side="right"), len(pi) - 1)


def _walk_batch_impl(g: AugmentedGraph, model: TransitionModel, starts: np.ndarray,
                     ublock: np.ndarray) -> np.ndarray:
    """Advance a batch of walks in lockstep; returns (len(starts), l) ids."""
    params = model.params
    l = params.walk_length
    B = len(starts)
    deg = np.diff(g.indptr)

    walks = np.empty((B, l), np.int32)
    walks[:, 0] = starts
    cur = starts.astype(np.int64)
    prev = np.full(B, SENTINEL_START, np.int64)
    edge = np.full(B, -1, np.int64)   # CSR index of (prev -> cur)

    for s in range(l - 1):
        u1 = ublock[:, 2 * s]
        u2 = ublock[:, 2 * s + 1]
        idx = np.empty(B, np.int64)
        first = edge < 0
        for rows, offs, accept, alias in (
                (np.flatnonzero(first), model.node_off[cur[first]], model.node_accept, model.node_alias),
                (np.flatnonzero(~first), model.edge_off[edge[~first]], model.edge_accept, model.edge_alias)):
            pre = offs >= 0
            sel = rows[pre]
            idx[sel] = _alias_draw(accept, alias, offs[pre], deg[cur[sel]], u1[sel], u2[sel])
            for i in rows[~pre]:
                idx[i] = _sample_on_demand(_pi(g, params, int(prev[i]), int(cur[i])), u1[i])

        edge = g.indptr[cur] + idx
        prev = cur
        cur = g.neighbors[edge].astype(np.int64)
        walks[:, s + 1] = cur

    return walks


def edge_csr_index(g: AugmentedGraph, u: int, v: int) -> int:
    """CSR position of the directed edge u -> v; raises if absent."""
    s, e = g.indptr[u], g.indptr[u + 1]
    pos = int(np.searchsorted(g.neighbors[s:e], v))
    if pos >= e - s or g.neighbors[s + pos] != v:
        raise KeyError(f"no edge {u} -> {v}")
    return int(s + pos)


def sample_next(g: AugmentedGraph, model: TransitionModel, u: int, v: int,
                n_samples: int, seed: int) -> np.ndarray:
    """Draw next-step neighbor positions for state (u, v), honoring the
    model's precomputed/on-demand mode for that state. u = SENTINEL_START
    samples the first step."""
    rng = np.random.default_rng(seed)
    u1 = rng.random(n_samples)
    u2 = rng.random(n_samples)
    if u == SENTINEL_START:
        off, tables = int(model.node_off[v]), (model.node_accept, model.node_alias)
    else:
        off, tables = int(model.edge_off[edge_csr_index(g, u, v)]), (model.edge_accept, model.edge_alias)
    if off >= 0:
        return _alias_draw(*tables, off, g.degree(v), u1, u2)
    return _sample_on_demand(_pi(g, model.params, u, v), u1)


def generate_walk(g: AugmentedGraph, model: TransitionModel, start: int,
                  iteration: int = 0) -> np.ndarray:
    """One walk from ``start``; identical to the corresponding corpus row."""
    if g.degree(start) == 0:
        raise ValueError(f"start node {start} has no neighbors")
    # row ``start`` of the iteration's uniform block: each Philox counter
    # yields four doubles, so skip whole counters, then the head of one
    n = 2 * (model.params.walk_length - 1)
    skip, head = divmod(int(start) * n, 4)
    gen = _philox(model.params.seed, iteration)
    gen.bit_generator.advance(skip)
    u = gen.random(head + n)[head:]
    return _walk_batch_impl(g, model, np.array([start], np.int64), u[None, :])[0]


@dataclass
class Corpus:
    """Walk corpus in canonical (iteration, start id) order."""

    walks: np.ndarray           # (n_walks, walk_length) int32 unified ids
    walks_per_node: int
    n_raw: int
    attr_ids: np.ndarray        # attribute node slot -> AttrId (for rendering)

    @property
    def n_walks(self) -> int:
        return self.walks.shape[0]

    @property
    def walk_length(self) -> int:
        return self.walks.shape[1]

    def token(self, v: int) -> str:
        return str(v) if v < self.n_raw else f"a{self.attr_ids[v - self.n_raw]}"

    def save(self, path) -> None:
        """One walk per line, space-separated tokens, attribute nodes a<attrid>."""
        raw = self.walks
        with open(path, "w", encoding="utf-8") as f:
            for row in raw:
                f.write(" ".join(self.token(int(v)) for v in row))
                f.write("\n")


def load_corpus_tokens(path) -> tuple[np.ndarray, list[str]]:
    """Read a corpus file into (index matrix, token list).

    Tokens are numbered in first-appearance order; the matrix holds those
    indices. All lines must have equal length.
    """
    vocab: dict[str, int] = {}
    rows: list[list[int]] = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            toks = line.split()
            if not toks:
                continue
            rows.append([vocab.setdefault(t, len(vocab)) for t in toks])
    if not rows:
        raise ValueError("empty corpus file")
    length = len(rows[0])
    if any(len(r) != length for r in rows):
        raise ValueError("corpus walks have unequal lengths")
    tokens = [None] * len(vocab)
    for t, i in vocab.items():
        tokens[i] = t
    return np.asarray(rows, np.int32), tokens


def generate_corpus(g: AugmentedGraph, model: TransitionModel, workers: int = 1,
                    batch_size: int = 16384) -> Corpus:
    """Alg.-style corpus: walks_per_node iterations over every start node.

    Starts cover all of V' (or raw nodes only with raw_starts_only), each
    exactly walks_per_node times. Generation order within an iteration is
    shuffled (and possibly parallel); assembly is canonical by
    (iteration, start id) and independent of worker count.
    """
    params = model.params
    n_total = g.n_total
    n_starts = g.n_raw if params.raw_starts_only else n_total
    starts = np.arange(n_starts, dtype=np.int64)
    l = params.walk_length
    all_walks = np.empty((params.walks_per_node * n_starts, l), np.int32)

    for it in range(params.walks_per_node):
        ublock = _philox(params.seed, it).random((n_total, 2 * (l - 1)))
        order = np.random.default_rng((params.seed, _ORDER_STREAM, it)).permutation(starts)
        chunks = [order[i:i + batch_size] for i in range(0, n_starts, batch_size)]
        base = it * n_starts

        def run_chunk(chunk):
            res = _walk_batch_impl(g, model, chunk, ublock[chunk])
            all_walks[base + chunk] = res

        if workers > 1 and len(chunks) > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run_chunk, chunks))
        else:
            for chunk in chunks:
                run_chunk(chunk)

    return Corpus(
        walks=all_walks,
        walks_per_node=params.walks_per_node,
        n_raw=g.n_raw,
        attr_ids=g.attr_ids.copy(),
    )
