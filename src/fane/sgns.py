"""Skip-gram with negative sampling over walk corpora.

Training maximizes log sigma(f_in(c) . f_out(ctx)) + sum log sigma(-f_in(c)
. f_out(neg)) over (center, context) pairs taken from a dynamic window of
uniform size 1..k around each walk position, with negatives drawn from the
unigram^0.75 noise distribution. Everything is keyed by vocabulary position
(first appearance in the corpus), so relabeling node ids permutes the
output rows and nothing else.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field


import numpy as np

from .alias import build_alias

_INIT_STREAM = 0
_EPOCH_STREAM = 10


@dataclass(frozen=True)
class TrainParams:
    dimension: int = 128
    window: int = 10
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    seed: int = 1
    dynamic_window: bool = True
    subsample: float = 0.0      # 0 disables frequent-token subsampling
    workers: int = 1
    deterministic: bool = True  # force sequential updates regardless of workers

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.window < 1:
            raise ValueError("window (context size) must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (self.learning_rate > 0):
            raise ValueError("learning rate must be positive")


def build_vocabulary(walks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vocabulary in first-appearance order, counts, and noise distribution.

    The noise distribution is count^0.75, normalized.
    """
    flat = np.asarray(walks).ravel()
    if flat.size == 0:
        raise ValueError("empty corpus")
    uniq, first, counts = np.unique(flat, return_index=True, return_counts=True)
    order = np.argsort(first, kind="stable")
    tokens = uniq[order]
    counts = counts[order]
    noise = counts.astype(np.float64) ** 0.75
    noise /= noise.sum()
    return tokens, counts, noise


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sgns_gradients(center_vec, context_vec, negative_vecs):
    """Objective gradients for one (center, context, negatives) triple.

    Objective: log sigma(c.o) + sum_i log sigma(-c.n_i). Returns
    (g_center, g_context, g_negatives, objective_value); dtype follows the
    inputs.
    """
    c = np.asarray(center_vec)
    o = np.asarray(context_vec)
    negs = np.atleast_2d(np.asarray(negative_vecs))
    pos_dot = float(c @ o)
    neg_dot = negs @ c
    g_pos = 1.0 - _sigmoid(np.array([pos_dot]))[0]
    g_neg = -_sigmoid(neg_dot)
    g_center = g_pos * o + g_neg @ negs
    g_context = g_pos * c
    g_negatives = g_neg[:, None] * c[None, :]
    value = float(_log_sigmoid(np.array([pos_dot]))[0] + _log_sigmoid(-neg_dot).sum())
    return g_center.astype(c.dtype), g_context.astype(c.dtype), g_negatives.astype(c.dtype), value


@dataclass
class EmbeddingMatrix:
    """Learned vectors keyed by node token; in-vectors are the embedding."""

    keys: list[str]
    vectors: np.ndarray                  # (V, d) float32, the published embedding
    out_vectors: np.ndarray | None = None
    epoch_losses: list[float] = field(default_factory=list)

    def __post_init__(self):
        self._index = {k: i for i, k in enumerate(self.keys)}

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def vector(self, key: str) -> np.ndarray:
        return self.vectors[self._index[key]]

    def rows_for(self, keys) -> np.ndarray:
        return self.vectors[[self._index[k] for k in keys]]

    def save_text(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{len(self.keys)} {self.dimension}\n")
            for k, row in zip(self.keys, self.vectors):
                f.write(k + " " + " ".join(repr(float(x)) for x in row) + "\n")

    @classmethod
    def load_text(cls, path) -> "EmbeddingMatrix":
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().split()
            if len(header) != 2:
                raise ValueError("embedding file: bad header")
            n, d = int(header[0]), int(header[1])
            keys = []
            vecs = np.empty((n, d), np.float32)
            for i in range(n):
                parts = f.readline().split()
                if len(parts) != d + 1:
                    raise ValueError(f"embedding file: bad row {i}")
                keys.append(parts[0])
                vecs[i] = [float(t) for t in parts[1:]]
        return cls(keys=keys, vectors=vecs)

    def save_binary(self, path) -> None:
        with open(path, "wb") as f:
            f.write(f"{len(self.keys)} {self.dimension}\n".encode())
            for k, row in zip(self.keys, self.vectors):
                f.write(k.encode() + b" ")
                f.write(row.astype("<f4").tobytes())
                f.write(b"\n")

    @classmethod
    def load_binary(cls, path) -> "EmbeddingMatrix":
        with open(path, "rb") as f:
            header = f.readline().split()
            n, d = int(header[0]), int(header[1])
            keys = []
            vecs = np.empty((n, d), np.float32)
            for i in range(n):
                key = bytearray()
                while True:
                    ch = f.read(1)
                    if ch == b" ":
                        break
                    if not ch:
                        raise ValueError("embedding file: truncated")
                    key.extend(ch)
                keys.append(key.decode())
                vecs[i] = np.frombuffer(f.read(4 * d), "<f4")
                f.read(1)  # trailing newline
        return cls(keys=keys, vectors=vecs)


def _pairs_for_chunk(idx_chunk: np.ndarray, kp_chunk: np.ndarray, window: int):
    """(centers, contexts) vocab-index arrays for a chunk of walks.

    Entries of -1 are padding (from subsampling compaction) and never pair.
    """
    l = idx_chunk.shape[1]
    cs, os_ = [], []
    for o in range(1, min(window, l - 1) + 1):
        valid = (idx_chunk[:, :l - o] >= 0) & (idx_chunk[:, o:] >= 0)
        right = (kp_chunk[:, :l - o] >= o) & valid
        left = (kp_chunk[:, o:] >= o) & valid
        cs.append(idx_chunk[:, :l - o][right])
        os_.append(idx_chunk[:, o:][right])
        cs.append(idx_chunk[:, o:][left])
        os_.append(idx_chunk[:, :l - o][left])
    return np.concatenate(cs), np.concatenate(os_)


def _compact_rows(idx: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Drop masked tokens and close the gaps (word2vec-style subsampling);
    rows are left-packed and padded with -1."""
    drop_order = np.argsort(~keep, axis=1, kind="stable")
    packed = np.take_along_axis(idx, drop_order, axis=1)
    packed[~np.take_along_axis(keep, drop_order, axis=1)] = -1
    return packed


def train(walks: np.ndarray, params: TrainParams, key_fn=None,
          chunk_walks: int = 1024, batch_pairs: int = 8192) -> EmbeddingMatrix:
    """Train an embedding over a (n_walks, walk_length) token matrix.

    key_fn maps a token to its output key (default str). Deterministic for a
    fixed seed when params.deterministic or workers == 1; with workers > 1
    and deterministic=False, updates race benignly (hogwild) and results are
    only statistically reproducible.
    """
    walks = np.asarray(walks)
    if walks.ndim != 2:
        raise ValueError("walks must be a 2-D token matrix")
    tokens, counts, noise = build_vocabulary(walks)
    V = len(tokens)
    d = params.dimension
    lookup = np.full(int(tokens.max()) + 1, -1, np.int32)
    lookup[tokens] = np.arange(V, dtype=np.int32)
    idx = lookup[walks]
    noise_accept, noise_alias = build_alias(noise)

    rng_init = np.random.default_rng((params.seed, _INIT_STREAM))
    in_vecs = ((rng_init.random((V, d)) - 0.5) / d).astype(np.float32)
    out_vecs = np.zeros((V, d), np.float32)

    # small vocabularies need small batches to stay close to sequential SGD
    batch_pairs = min(batch_pairs, max(256, 4 * V))

    n_walks, l = idx.shape
    keep_prob = None
    if params.subsample > 0:
        freq = counts / counts.sum()
        keep_prob = np.minimum(1.0, np.sqrt(params.subsample / freq))

    # exact pair budget for the linear lr decay
    epoch_state = []
    total_pairs = 0
    for e in range(params.epochs):
        rng_e = np.random.default_rng((params.seed, _EPOCH_STREAM, e))
        if params.dynamic_window:
            kp = rng_e.integers(1, params.window + 1, size=(n_walks, l), dtype=np.uint8)
        else:
            kp = np.full((n_walks, l), params.window, np.uint8)
        idx_e = idx
        if keep_prob is not None:
            keep = rng_e.random((n_walks, l)) < keep_prob[idx]
            idx_e = _compact_rows(idx, keep)
        perm = rng_e.permutation(n_walks)
        epoch_state.append((kp, idx_e, perm, rng_e))
        for o in range(1, min(params.window, l - 1) + 1):
            valid = (idx_e[:, :l - o] >= 0) & (idx_e[:, o:] >= 0)
            total_pairs += int(((kp[:, :l - o] >= o) & valid).sum())
            total_pairs += int(((kp[:, o:] >= o) & valid).sum())
    if total_pairs == 0:
        raise ValueError("corpus produced no training pairs")

    use_threads = params.workers > 1 and not params.deterministic
    losses = []
    done = 0
    for e in range(params.epochs):
        kp, idx_e, perm, rng_e = epoch_state[e]
        epoch_loss = 0.0
        epoch_pairs = 0
        for c0 in range(0, n_walks, chunk_walks):
            rows = perm[c0:c0 + chunk_walks]
            centers, contexts = _pairs_for_chunk(idx_e[rows], kp[rows], params.window)
            if len(centers) == 0:
                continue
            shuffle = rng_e.permutation(len(centers))
            centers = centers[shuffle]
            contexts = contexts[shuffle]
            nu = rng_e.random((2, len(centers), params.negatives))
            j = np.minimum((nu[0] * V).astype(np.int32), V - 1)
            negs = np.where(nu[1] < noise_accept[j], j, noise_alias[j]).astype(np.int32)
            batches = []
            for b0 in range(0, len(centers), batch_pairs):
                frac = (done + b0) / total_pairs
                lr = max(params.min_learning_rate, params.learning_rate * (1.0 - frac))
                batches.append((b0, min(b0 + batch_pairs, len(centers)), lr))

            def run_batch(span):
                b0, b1, lr = span
                return _apply_batch(in_vecs, out_vecs, centers[b0:b1], contexts[b0:b1],
                                    negs[b0:b1], lr)

            if use_threads:
                with concurrent.futures.ThreadPoolExecutor(max_workers=params.workers) as pool:
                    for part in pool.map(run_batch, batches):
                        epoch_loss += part
            else:
                for span in batches:
                    epoch_loss += run_batch(span)
            done += len(centers)
            epoch_pairs += len(centers)
        losses.append(epoch_loss / max(epoch_pairs, 1))

    order = np.argsort(tokens, kind="stable")
    if key_fn is None:
        key_fn = str
    keys = [key_fn(int(t)) for t in tokens[order]]
    return EmbeddingMatrix(
        keys=keys,
        vectors=in_vecs[order],
        out_vectors=out_vecs[order],
        epoch_losses=losses,
    )


def _apply_batch(in_vecs, out_vecs, centers, contexts, negs, lr) -> float:
    """One mini-batch of SGNS updates; returns the summed negative objective.

    A parameter row recurring m times within the batch accumulates a summed
    update scaled by min(1, 1/(lr*m)): the plain sum while lr*m is small
    (sequential-SGD regime), a bounded step once duplicates would overshoot.
    """
    vc = in_vecs[centers]
    vo = out_vecs[contexts]
    vn = out_vecs[negs]
    pos_dot = np.einsum("bd,bd->b", vc, vo)
    neg_dot = np.einsum("bd,bkd->bk", vc, vn)
    g_pos = (1.0 - _sigmoid(pos_dot)).astype(np.float32)
    g_neg = (-_sigmoid(neg_dot)).astype(np.float32)
    d_in = g_pos[:, None] * vo + np.einsum("bk,bkd->bd", g_neg, vn)

    c_uniq, c_inv, c_cnt = np.unique(centers, return_inverse=True, return_counts=True)
    c_scale = np.minimum(1.0, 1.0 / (lr * c_cnt))
    w_c = (lr * c_scale[c_inv]).astype(np.float32)
    _scatter_add(in_vecs, c_uniq, c_inv, w_c[:, None] * d_in)

    out_idx = np.concatenate([contexts, negs.ravel()])
    o_uniq, o_inv, o_cnt = np.unique(out_idx, return_inverse=True, return_counts=True)
    o_scale = np.minimum(1.0, 1.0 / (lr * o_cnt))
    w_out = (lr * o_scale[o_inv]).astype(np.float32)
    w_ctx = w_out[:len(contexts)]
    w_neg = w_out[len(contexts):].reshape(negs.shape)
    d_out = np.concatenate([
        (w_ctx * g_pos)[:, None] * vc,
        ((w_neg * g_neg)[:, :, None] * vc[:, None, :]).reshape(-1, vc.shape[1]),
    ])
    _scatter_add(out_vecs, o_uniq, o_inv, d_out)
    loss = -(_log_sigmoid(pos_dot).sum() + _log_sigmoid(-neg_dot).sum())
    return float(loss)


def _scatter_add(target, uniq, inverse, updates) -> None:
    """target[uniq] += per-unique sums of updates (bincount per column)."""
    acc = np.empty((len(uniq), updates.shape[1]), target.dtype)
    for j in range(updates.shape[1]):
        acc[:, j] = np.bincount(inverse, weights=updates[:, j], minlength=len(uniq))
    target[uniq] += acc
