"""Skip-gram with negative sampling over walk corpora.

Training maximizes log sigma(f_in(c) . f_out(ctx)) + sum log sigma(-f_in(c)
. f_out(neg)) over (center, context) pairs taken from a dynamic window of
uniform size 1..k around each walk position, with negatives drawn from the
unigram^0.75 noise distribution, each pair drawing its own negatives.
Training is one sequential loop, byte-reproducible for a fixed seed: every
epoch draws its windows, subsampling and walk order from its own stream,
and mini-batches, each drawing its negatives from that stream just before
it trains, apply the gradients of sgns_gradients in order. Each side's row
updates are sorted by row, a row's entries kept in the order the batch made
them (stable radix passes, _row_order), and summed one entry after another
in batch order, from power-of-two buckets of rows, which makes a few numpy
calls per bucket instead of one per (row, column). That order is the same
at every width d and on AVX-512 and AVX2 hosts, and so are the losses
(log1p runs in float64); builds without AVX2 give other vectors (other
float32 kernels round differently). A chunk of walks makes its pairs in
one int32 (n, 2) buffer, 8 bytes a pair, and shuffles its rows in place.
A batch holds d_in at (B, d), a few values per pair and negative, one
slice of its center, context and negative rows and one piece of its sorted
update slots, each about _SLICE_ELEMENTS floats; slicing changes no bit of
the result. train allocates these once, in a _Workspace sized for its
largest batch, and every batch writes into it.
Everything is keyed by vocabulary position (first appearance in the
corpus), and the output rows are in that order, so relabeling node ids
changes the row keys and nothing else.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .alias import alias_draw, build_alias
from .graph import valid_utf8

_INIT_STREAM = 0
_EPOCH_STREAM = 10
_CHUNK_WALKS = 1024     # walks whose pairs are drawn, shuffled and trained together
_BATCH_PAIRS = 8192     # pairs per _apply_batch call, at most
_SLICE_ELEMENTS = 1 << 16  # floats in a slice or piece of an _apply_batch pass (256 KB)
_COUNT_SLICE = 1 << 16  # corpus tokens per np.bincount call in build_vocabulary
_MIN_LEARNING_RATE = 1e-4  # floor of the linear learning-rate decay


@dataclass(frozen=True)
class TrainParams:
    dimension: int = 128
    window: int = 10
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    seed: int = 1
    subsample: float = 0.0      # 0 disables frequent-token subsampling

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

    Tokens are non-negative integers, counted without a sorted copy of the
    corpus. The noise distribution is count^0.75, normalized.
    """
    flat = np.asarray(walks).ravel()
    if flat.size == 0:
        raise ValueError("empty corpus")
    # bincount copies its input to int64, so counting goes slice by slice
    size = int(flat.max()) + 1
    counts = np.zeros(size, np.int64)
    pos_type = np.min_scalar_type(flat.size)
    first = np.full(size, flat.size, pos_type)
    for lo in range(0, flat.size, _COUNT_SLICE):
        part = flat[lo:lo + _COUNT_SLICE]
        counts += np.bincount(part, minlength=size)
        np.minimum.at(first, part, np.arange(lo, lo + len(part), dtype=pos_type))
    tokens = np.flatnonzero(counts)
    tokens = tokens[np.argsort(first[tokens], kind="stable")]
    counts = counts[tokens]
    tokens = tokens.astype(flat.dtype)
    noise = counts.astype(np.float64) ** 0.75
    noise /= noise.sum()
    return tokens, counts, noise


def _log_sigmoid(y: np.ndarray, out=None, scratch=None) -> tuple[np.ndarray, np.ndarray]:
    """log sigma(y) and its derivative 1 - sigma(y) = sigma(-y), both from
    one exp(-|y|) and stable at any |y|. log1p runs in float64: numpy's
    float32 log1p rounds differently on AVX-512 and AVX2 hosts, and its
    float64 result rounded to float32 does not. They are written into out,
    (log_sig, slope), and the work into scratch, (e, wide, ge): arrays
    shaped like y, float64 for wide and bool for ge, new ones if None. y
    may be slope itself."""
    log_sig, slope = np.empty((2, *y.shape), y.dtype) if out is None else out
    e, wide, ge = ((np.empty_like(y), np.empty(y.shape), np.empty(y.shape, bool))
                   if scratch is None else scratch)
    np.abs(y, out=e)
    np.exp(np.negative(e, out=e), out=e)
    np.minimum(y, 0.0, out=log_sig)
    np.greater_equal(y, 0, out=ge)
    np.copyto(slope, np.log1p(e, dtype=np.float64, out=wide))   # rounded to y's dtype
    log_sig -= slope
    np.copyto(slope, 1.0)
    np.copyto(slope, e, where=ge)
    slope /= np.add(e, 1.0, out=e)
    return log_sig, slope


def sgns_gradients(center_vec, context_vec, negative_vecs):
    """Objective gradients for one (center, context, negatives) triple.

    Objective: log sigma(c.o) + sum_i log sigma(-c.n_i). Returns
    (g_center, g_context, g_negatives, objective_value); dtype follows the
    inputs.
    """
    c = np.asarray(center_vec)
    o = np.asarray(context_vec)
    negs = np.atleast_2d(np.asarray(negative_vecs))
    # scores y: c.o for the pair, -c.n_i for each negative
    log_sig, slope = _log_sigmoid(np.concatenate([[c @ o], -(negs @ c)]))
    g_pos, g_neg = slope[0], -slope[1:]
    g_center = g_pos * o + g_neg @ negs
    g_context = g_pos * c
    g_negatives = g_neg[:, None] * c[None, :]
    return (g_center.astype(c.dtype), g_context.astype(c.dtype), g_negatives.astype(c.dtype),
            float(log_sig.sum()))


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

    def rows_for(self, keys) -> np.ndarray:
        return self.vectors[[self._index[k] for k in keys]]

    def save_text(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{len(self.keys)} {self.dimension}\n")
            for k, row in zip(self.keys, self.vectors):
                f.write(k + " " + " ".join(repr(float(x)) for x in row) + "\n")

    @classmethod
    def load_text(cls, path) -> "EmbeddingMatrix":
        """Errors name the file line: the header is line 1, row i line i + 2."""
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
            n, d = _header(valid_utf8(f.readline(), "embedding file", 1))
            keys = {}   # key -> file line
            # a row is at least 2d + 1 bytes: a header count beyond what the
            # file holds fails on its first missing row, not in np.empty
            vecs = np.empty((min(n, os.fstat(f.fileno()).st_size // (2 * d + 1)), d), np.float32)
            for line in range(2, n + 2):
                parts = valid_utf8(f.readline(), "embedding file", line).split()
                if len(parts) != d + 1:
                    raise ValueError(f"embedding file line {line}: expected a key and {d} values, "
                                     f"got {len(parts)} fields")
                _add_key(keys, parts[0], line)
                try:
                    vecs[line - 2] = [float(t) for t in parts[1:]]
                except ValueError as e:
                    raise ValueError(f"embedding file line {line}: {e}") from None
            for line, rest in enumerate(f, n + 2):
                if rest.strip():
                    raise ValueError(f"embedding file line {line}: row beyond the header's count of {n}")
        return cls(keys=list(keys), vectors=vecs)

    def save_binary(self, path) -> None:
        with open(path, "wb") as f:
            f.write(f"{len(self.keys)} {self.dimension}\n".encode())
            for k, row in zip(self.keys, self.vectors):
                f.write(k.encode() + b" ")
                f.write(row.astype("<f4").tobytes())
                f.write(b"\n")

    @classmethod
    def load_binary(cls, path) -> "EmbeddingMatrix":
        """Errors name the record as a file line: the header is line 1, row
        i (key, space, d little-endian float32, newline) line i + 2."""
        with open(path, "rb") as f:
            n, d = _header(f.readline().decode("ascii", "surrogateescape"))
            data = f.read()
        keys = {}   # key -> file line
        vecs = np.empty((min(n, len(data) // (4 * d + 2)), d), np.float32)    # a row is >= 4d + 2 bytes
        pos = 0
        for line in range(2, n + 2):
            sp = data.find(b" ", pos)
            end = sp + 1 + 4 * d
            if sp < 0 or data[end:end + 1] != b"\n":
                raise ValueError(f"embedding file line {line}: expected a key, a space, "
                                 f"{d} float32 values and a newline")
            key = data[pos:sp].decode("utf-8", "surrogateescape")
            _add_key(keys, valid_utf8(key, "embedding file", line), line)
            vecs[line - 2] = np.frombuffer(data, "<f4", d, sp + 1)
            pos = end + 1
        if pos < len(data):
            raise ValueError(f"embedding file line {n + 2}: row beyond the header's count of {n}")
        return cls(keys=list(keys), vectors=vecs)


def _add_key(keys: dict, key: str, line: int) -> None:
    """keys[key] = line, unless an earlier line has the key."""
    if keys.setdefault(key, line) != line:
        raise ValueError(f"embedding file line {line}: key {key!r} repeats line {keys[key]}")


def _header(line) -> tuple[int, int]:
    """(count, dimension) from an embedding file's first line."""
    fields = line.split()
    if len(fields) != 2 or not (fields[0].isdecimal() and fields[1].isdecimal()) or int(fields[1]) < 1:
        raise ValueError("embedding file line 1: bad header, expected '<count> <dimension>'")
    return int(fields[0]), int(fields[1])


def _pair_masks(idx: np.ndarray, kp: np.ndarray, window: int):
    """For each offset o, the masks over (idx[:, :l-o], idx[:, o:]) of the
    pairs that exist: right where the left token's window kp reaches o, left
    where the right token's does. Entries of -1 are padding (from
    subsampling compaction) and never pair."""
    l = idx.shape[1]
    for o in range(1, min(window, l - 1) + 1):
        valid = (idx[:, :l - o] >= 0) & (idx[:, o:] >= 0)
        yield o, (kp[:, :l - o] >= o) & valid, (kp[:, o:] >= o) & valid


def _pairs_for_chunk(idx_chunk: np.ndarray, kp_chunk: np.ndarray, window: int, rng=None):
    """(centers, contexts) of a chunk of walks: the columns of one int32 (n, 2)
    buffer, sized by a first pass over the masks. With ``rng`` its rows are
    shuffled in place by its int64 view, drawing what rng.permutation(n) does."""
    l = idx_chunk.shape[1]
    n = sum(np.count_nonzero(r) + np.count_nonzero(s) for _, r, s in _pair_masks(idx_chunk, kp_chunk, window))
    pairs, at = np.empty((n, 2), np.int32), 0
    for o, right, left in _pair_masks(idx_chunk, kp_chunk, window):
        first, second = idx_chunk[:, :l - o], idx_chunk[:, o:]
        for mask, center, context in ((right, first, second), (left, second, first)):
            m = np.count_nonzero(mask)
            pairs[at:at + m, 0] = center[mask]
            pairs[at:at + m, 1] = context[mask]
            at += m
    if rng is not None:
        rng.shuffle(pairs.view(np.int64)[:, 0])
    return pairs.T


def _compact_rows(idx: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Drop masked tokens and close the gaps (word2vec-style subsampling);
    rows are left-packed and padded with -1."""
    drop_order = np.argsort(~keep, axis=1, kind="stable")
    packed = np.take_along_axis(idx, drop_order, axis=1)
    packed[~np.take_along_axis(keep, drop_order, axis=1)] = -1
    return packed


def _epoch_draws(idx: np.ndarray, keep_prob, params: TrainParams, epoch: int):
    """Epoch ``epoch``'s draws from its own stream (seed, _EPOCH_STREAM, epoch):
    the subsampled token matrix, the window sizes kp, the walk order, and the
    generator, which goes on to draw the epoch's pair shuffles and negatives.
    kp's dtype is the smallest that holds the window."""
    rng = np.random.default_rng((params.seed, _EPOCH_STREAM, epoch))
    kp_type = np.min_scalar_type(params.window)
    kp = rng.integers(1, params.window + 1, size=idx.shape, dtype=kp_type)
    if keep_prob is not None:
        idx = _compact_rows(idx, rng.random(idx.shape) < keep_prob[idx])
    return idx, kp, rng.permutation(len(idx)), rng


def train(walks: np.ndarray, params: TrainParams, key_fn=None) -> EmbeddingMatrix:
    """Train an embedding over a (n_walks, walk_length) token matrix.

    Rows are in vocabulary order, each token's first appearance in
    ``walks``; key_fn maps a token to its row's key (default str). Updates
    are sequential, so the result is byte-reproducible for a fixed seed.
    The learning rate decays linearly over the exact pair budget: one pass
    counts every epoch's pairs, then training redraws each epoch from its
    stream, so memory holds one epoch's window draws at a time; each batch
    draws its negatives from that stream just before it trains. Every
    batch works in one _Workspace and one pair of draw buffers, sized for
    the largest batch.
    """
    walks = np.asarray(walks)
    if walks.ndim != 2:
        raise ValueError("walks must be a 2-D token matrix")
    tokens, counts, noise = build_vocabulary(walks)
    V = len(tokens)
    d, k = params.dimension, params.negatives
    lookup = np.full(int(tokens.max()) + 1, -1, np.int32)
    lookup[tokens] = np.arange(V, dtype=np.int32)
    idx = lookup[walks]
    noise_accept, noise_alias = build_alias(noise)

    rng_init = np.random.default_rng((params.seed, _INIT_STREAM))
    in_vecs = ((rng_init.random((V, d)) - 0.5) / d).astype(np.float32)
    out_vecs = np.zeros((V, d), np.float32)

    # small vocabularies need small batches to stay close to sequential SGD
    batch_pairs = min(_BATCH_PAIRS, max(256, 4 * V))
    ws = _Workspace(batch_pairs, k, d)
    uniforms, negs = np.empty(2 * batch_pairs * k), np.empty(batch_pairs * k, np.int64)

    keep_prob = None
    if params.subsample > 0:
        freq = counts / counts.sum()
        keep_prob = np.minimum(1.0, np.sqrt(params.subsample / freq))

    # exact pair budget for the lr decay; each exhausted _pair_masks frees its epoch's draws
    total_pairs = 0
    for e in range(params.epochs):
        masks = _pair_masks(*_epoch_draws(idx, keep_prob, params, e)[:2], params.window)
        total_pairs += sum(int(right.sum()) + int(left.sum()) for _, right, left in masks)
    if total_pairs == 0:
        raise ValueError("corpus produced no training pairs")

    losses, done = [], 0
    for e in range(params.epochs):
        # the last epoch's draws and last chunk go before this epoch's are drawn
        idx_e = kp = perm = rows = centers = contexts = None
        idx_e, kp, perm, rng_e = _epoch_draws(idx, keep_prob, params, e)
        epoch_loss, epoch_pairs = 0.0, 0
        for c0 in range(0, len(perm), _CHUNK_WALKS):
            rows = perm[c0:c0 + _CHUNK_WALKS]
            # one pair buffer per chunk, shuffled in place; the last chunk's is freed first
            centers = contexts = None
            centers, contexts = _pairs_for_chunk(idx_e[rows], kp[rows], params.window, rng_e)
            for b0 in range(0, len(centers), batch_pairs):
                lr = max(_MIN_LEARNING_RATE, params.learning_rate * (1.0 - (done + b0) / total_pairs))
                b1 = min(b0 + batch_pairs, len(centers))
                n = (b1 - b0) * k
                u = rng_e.random(out=uniforms[:2 * n])
                alias_draw(noise_accept, noise_alias, 0, V, u[:n], u[n:], out=negs[:n])
                epoch_loss += _apply_batch(in_vecs, out_vecs, centers[b0:b1], contexts[b0:b1],
                                           negs[:n].reshape(b1 - b0, k), lr, ws)
            done += len(centers)
            epoch_pairs += len(centers)
        losses.append(epoch_loss / max(epoch_pairs, 1))

    keys = [(key_fn or str)(t) for t in tokens.tolist()]
    return EmbeddingMatrix(keys=keys, vectors=in_vecs, out_vectors=out_vecs, epoch_losses=losses)


class _Workspace:
    """The buffers of _apply_batch and everything below it, sized for
    batches of up to ``pairs`` pairs with ``negatives`` negatives each at
    width d: d_in at (pairs, d), a few values per entry (a pair or one of
    its negatives), a slice of pairs' rows for _score and a piece of slots
    for _add_runs_bucketed, each about _SLICE_ELEMENTS floats. Every batch
    writes into views of them, so it allocates only its argsort orders and
    arrays of one value per run."""

    def __init__(self, pairs: int, negatives: int, d: int):
        entries = pairs * (1 + negatives)
        step = max(1, _SLICE_ELEMENTS // (max(1, negatives) * d))   # pairs per slice
        cap = max(1, _SLICE_ELEMENTS // d)                          # slots per piece
        self.d_in = np.empty((pairs, d), np.float32)
        self.pairs = np.arange(pairs, dtype=np.int32)
        # [pairs, negatives] layout: loss terms, coefficients, out-side rows and sources
        self.log_sig, self.coef = np.empty((2, entries), np.float32)
        self.rows, self.src_idx = np.empty((2, entries), np.int32)
        # _segment_add's sorted rows, then sorted sources; and its sort key,
        # then run starts, then sorted coefficients
        self.sorted = np.empty(entries, np.int32)
        self.spare = np.empty(entries, np.float32)
        self.vc, self.vo, self.d_neg = np.empty((3, step, d), np.float32)
        self.vn = np.empty((step, negatives, d), np.float32)
        n = step * (1 + negatives)
        self.scratch = (np.empty(n, np.float32), np.empty(n), np.empty(n, bool))   # _log_sigmoid's
        # slots laid out at once, 17 bytes each: a piece's and a carried sum's
        # at least, in about _SLICE_ELEMENTS floats of buffers
        slots = max(cap, _SLICE_ELEMENTS // 4) + 1
        self.pos = np.empty(slots, np.int64)
        self.pad = np.empty(slots, bool)
        self.wts = np.empty(slots, np.float32)
        self.idx = np.empty(slots, np.int32)
        self.cols = np.arange(cap + 1)
        self.block = np.empty((cap + 1, d), np.float32)
        self.sums, self.upd = np.empty((2, cap, d), np.float32)


def _apply_batch(in_vecs, out_vecs, centers, contexts, negs, lr, ws=None) -> float:
    """One mini-batch of SGNS updates; returns the summed negative objective.

    Pair b scores y = c.o, each of its negatives y = -c.n, and the gradients
    are those of sgns_gradients: the in-row of c gets d_in[b], and each
    out-row (the context, every negative) gets a coefficient times c, so
    both sides are (row, coefficient, source) entries for _segment_add. The
    out side goes first, so it reads the in-rows c as they were scored. A
    parameter row recurring m times within the batch accumulates a summed
    update scaled by min(1, 1/(lr*m)): the plain sum while lr*m is small
    (sequential-SGD regime), a bounded step once duplicates would overshoot.
    ws is the workspace (a new one for this batch if None).
    """
    B, k = negs.shape
    ws = _Workspace(B, k, in_vecs.shape[1]) if ws is None else ws
    d_in = ws.d_in[:B]
    # slices fill the batch's [pairs, negatives] layout, so the loss sums as unsliced
    log_sig, coef = ws.log_sig[:B * (1 + k)], ws.coef[:B * (1 + k)]
    step = len(ws.vc)
    for s in range(0, B, step):
        t = min(s + step, B)
        _score(np.take(in_vecs, centers[s:t], axis=0, out=ws.vc[:t - s], mode="clip"),
               np.take(out_vecs, contexts[s:t], axis=0, out=ws.vo[:t - s], mode="clip"),
               np.take(out_vecs, negs[s:t], axis=0, out=ws.vn[:t - s], mode="clip"),
               log_sig, coef, s, d_in[s:t], ws)
    rows, src_idx = ws.rows[:len(coef)], ws.src_idx[:len(coef)]
    np.concatenate([contexts, negs.ravel()], out=rows)
    src_idx[:B] = centers
    src_idx[B:].reshape(B, k)[:] = src_idx[:B, None]
    _segment_add(out_vecs, rows, in_vecs, src_idx, coef, lr, ws)
    _segment_add(in_vecs, centers, d_in, ws.pairs[:B], None, lr, ws)
    return float(-log_sig.sum())


def _score(vc, vo, vn, log_sig, coef, s, d_in, ws) -> None:
    """Loss terms and coefficients of the batch's pairs s, s + 1, ... (one
    per row of vc), written into their places in the batch's [pairs,
    negatives] layout in log_sig and coef, and their d_in, in place."""
    m, k = vn.shape[:2]
    B = len(coef) // (1 + k)
    pos, neg = slice(s, s + m), slice(B + s * k, B + (s + m) * k)
    np.einsum("bd,bd->b", vc, vo, out=coef[pos])   # the scores go where their slopes will
    scores = coef[neg].reshape(m, k)
    np.negative(np.einsum("bd,bkd->bk", vc, vn, out=scores), out=scores)
    for span in ([slice(0, len(coef))] if m == B else [pos, neg]):   # adjacent when m == B
        n = span.stop - span.start
        _log_sigmoid(coef[span], (log_sig[span], coef[span]), [a[:n] for a in ws.scratch])
    scores *= -1   # d objective / d(c.o) for the pair, / d(c.n) for a negative
    np.multiply(coef[pos, None], vo, out=d_in)
    d_in += np.einsum("bk,bkd->bd", scores, vn, out=ws.d_neg[:m])


def _segment_add(target, rows, src, src_idx, coef, lr, ws=None) -> None:
    """target[r] += lr * min(1, 1/(lr*m)) * sum of coef[i] * src[src_idx[i]]
    over the m entries i with rows[i] == r (coef None means 1).

    Sorting by row makes each row's entries one run, in batch order, and
    _add_runs_bucketed sums each run whole, one entry after another, a
    piece of about _SLICE_ELEMENTS floats at a time. ws is the workspace
    (a new one for this call if None).
    """
    n = len(rows)
    ws = _Workspace(n, 0, src.shape[1]) if ws is None else ws
    srt = ws.sorted[:n]
    order = _row_order(rows, len(target), ws.spare.view(np.uint16)[:n], srt)
    np.take(rows, order, out=srt, mode="clip")
    first = ws.spare.view(bool)[:n]   # where a run starts
    first[0] = True
    np.not_equal(srt[1:], srt[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    heads = np.take(srt, starts)   # distinct target rows, one per run
    src_idx = np.take(src_idx, order, out=srt, mode="clip")
    coef = None if coef is None else np.take(coef, order, out=ws.spare[:n], mode="clip")
    counts = np.diff(np.append(starts, n))
    order = None
    scale = (lr * np.minimum(1.0, 1.0 / (lr * counts))).astype(np.float32)
    _add_runs_bucketed(target, heads, starts, counts, scale, src, src_idx, coef, ws)


def _add_runs_bucketed(target, heads, starts, counts, scale, src, src_idx, coef, ws) -> None:
    """Runs laid out W = 2**ceil(log2 m) slots each and grouped by W, padded
    slots weighted 0. R runs of one width are gathered as an (R, W, d) block
    and weighted and summed by one einsum. With d > 1 numpy iterates d
    innermost, so each run's entries are added one after another in batch
    order, from zero; at d = 1 einsum drops the unit axis and sums
    pairwise, so there the slots are added one by one. A run wider than a
    piece is summed a piece at a time, its sum so far carried into the next
    piece as a leading slot of weight 1, which keeps the order. The slot
    layout is built in ws's slot buffers, many pieces at a time, and the
    sums are scaled and added to target a buffer of up to a piece's
    rows at a time, so a small batch costs a gather and an einsum per
    width."""
    cap = len(ws.sums)                   # slots per piece, rows per buffer
    exps = np.frexp(counts - 1)[1]       # m <= W = 2**exps
    runs = np.argsort(exps, kind="stable")
    bounds = [0, *np.cumsum(np.bincount(exps)).tolist()]   # width 2**e: runs bounds[e:e + 2]
    heads, scale, starts, counts = (np.take(x, runs) for x in (heads, scale, starts, counts))
    widths = 1 << np.take(exps, runs)
    ends = np.cumsum(widths)             # each run's slots end here
    narrow = int(np.searchsorted(widths, cap, "right"))   # runs [0, narrow) fit in a piece
    room = len(ws.wts) - 1               # slots laid out at once, at least a piece's
    sums, done, a = ws.sums, 0, 0        # runs [done, r) in sums
    while a < narrow:
        # runs [a, b) laid out at once, by width: [r, end) of width w
        b = min(narrow, int(np.searchsorted(ends, ends[a] - widths[a] + room, "right")))
        groups, r = [], a
        while r < b:
            w = int(widths[r])
            groups.append((r, min(b, bounds[w.bit_length()]), w))   # w = 2**e: bounds[e + 1]
            r = groups[-1][1]
        wt, rows = _lay_out(ws, [(starts[r0:r1, None], counts[r0:r1, None], w) for r0, r1, w in groups],
                            src_idx, coef)
        at = 0
        for r0, r1, w in groups:
            for r in range(r0, r1, cap // w):
                R = min(cap // w, r1 - r)
                if r + R - done > len(sums):
                    _add_rows(target, heads[done:r], sums[:r - done], scale[done:r], ws)
                    done = r
                _weighted_sum(wt[at:at + R * w].reshape(R, w), _gather(ws, src, rows[at:at + R * w], R),
                              sums[r - done:r - done + R], ws)
                at += R * w
        a = b
    for r in range(narrow, len(runs)):   # runs wider than a piece, each alone
        if r + 1 - done > len(sums):
            _add_rows(target, heads[done:r], sums[:r - done], scale[done:r], ws)
            done = r
        w, acc = int(widths[r]), sums[r - done:r - done + 1]
        for w0 in range(0, w, cap):
            lo = w0 - (w0 > 0)   # the sum so far goes in the slot before the window
            wt, rows = _lay_out(ws, [(starts[r] + lo, counts[r] - lo, min(w0 + cap, w) - lo)],
                                src_idx, coef)
            block = _gather(ws, src, rows, 1)
            if w0:
                block[0, 0], wt[0] = acc[0], 1.0
            _weighted_sum(wt[None], block, acc, ws)
    _add_rows(target, heads[done:], sums[:len(runs) - done], scale[done:], ws)


def _lay_out(ws, layout, src_idx, coef):
    """(weights, source rows) of the slots of ``layout``, laid out one
    after another in ws's slot buffers. Each (first, count, width) of it is
    a group of runs, R rows of width slots: slot j of run i holds entry
    first[i] + j, or is padding from count[i] on, which reads the last
    entry with weight 0. first and count are (R, 1) arrays, or numbers for
    one run."""
    n = 0
    for first, count, width in layout:
        m = np.size(first) * width
        cols = ws.cols[:width]
        np.add(cols, first, out=ws.pos[n:n + m].reshape(-1, width))
        np.greater_equal(cols, count, out=ws.pad[n:n + m].reshape(-1, width))
        n += m
    pos, pad, wt = ws.pos[:n], ws.pad[:n], ws.wts[:n]
    np.copyto(pos, len(src_idx) - 1, where=pad)
    if coef is None:
        np.logical_not(pad, out=wt)
    else:
        np.take(coef, pos, out=wt, mode="clip")
        np.copyto(wt, 0.0, where=pad)
    np.copyto(pos, np.take(src_idx, pos, out=ws.idx[:n], mode="clip"))
    return wt, pos


def _gather(ws, src, rows, R):
    """src's rows, gathered into ws.block as an (R, len(rows) / R, d) block."""
    return np.take(src, rows, axis=0, out=ws.block[:len(rows)], mode="clip").reshape(R, -1, src.shape[1])


def _weighted_sum(wt, block, acc, ws) -> None:
    """acc[i] = sum over j of wt[i, j] * block[i, j], one slot after another."""
    if block.shape[2] > 1:
        np.einsum("rw,rwd->rd", wt, block, out=acc)
    else:
        acc[:] = 0.0
        prod = ws.upd[:len(acc)]
        for j in range(wt.shape[1]):
            acc += np.multiply(wt[:, j, None], block[:, j], out=prod)


def _add_rows(target, r, acc, scale, ws) -> None:
    """target[r] += acc * scale[:, None] for distinct rows r, as one gather
    into ws.upd, add and write; acc is scaled in place."""
    acc *= scale[:, None]
    upd = np.take(target, r, axis=0, out=ws.upd[:len(r)], mode="clip")
    upd += acc
    target[r] = upd


def _row_order(rows: np.ndarray, n_rows: int, key=None, digit=None) -> np.ndarray:
    """np.argsort(rows, kind="stable") for rows in [0, n_rows): a stable sort
    of each 16-bit digit, least significant first, which numpy does by radix
    sort, so ties keep one order on every host. key (uint16) and digit
    (int32), buffers of len(rows), are overwritten; new ones if None."""
    key = np.empty(len(rows), np.uint16) if key is None else key
    np.copyto(key, rows, casting="unsafe")   # the low 16 bits
    order = np.argsort(key, kind="stable")
    for shift in range(16, (n_rows - 1).bit_length(), 16):
        digit = np.take(rows, order, out=digit, mode="clip")
        np.copyto(key, np.right_shift(digit, shift, out=digit), casting="unsafe")
        order = np.take(order, np.argsort(key, kind="stable"))
    return order
