import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fane import EmbeddingMatrix, TrainParams, build_vocabulary, sgns, train
from fane.sgns import (_apply_batch, _epoch_draws, _log_sigmoid, _pairs_for_chunk, _row_order,
                       sgns_gradients)
from oracles import chunk_shuffle, row_loop, unsliced_batch
from oracles.sgns_reference import apply_batch, log_sigmoid, sigmoid, sgns_step


def test_vocabulary_counts_and_order():
    tokens, counts, noise = build_vocabulary(np.array([[0, 1, 0]]))
    assert tokens.tolist() == [0, 1]
    assert counts.tolist() == [2, 1]


def test_noise_distribution_three_quarters_power():
    # counts {16, 1} -> 16^0.75 = 8 -> probs {8/9, 1/9}
    walks = np.array([[5] * 16 + [7]])
    tokens, counts, noise = build_vocabulary(walks)
    assert counts.tolist() == [16, 1]
    assert noise[0] == pytest.approx(8 / 9, abs=1e-15)
    assert noise[1] == pytest.approx(1 / 9, abs=1e-15)


@pytest.mark.parametrize("dtype", [np.int32, np.int64], ids=["int32", "int64"])
def test_vocabulary_peak_memory_below_one_and_a_half_corpora(dtype):
    """Counts and first positions are taken without a sorted copy of the corpus,
    and without an int64 copy of an int32 corpus (walks are int32)."""
    walks = np.random.default_rng(3).integers(0, 3000, (12000, 20)).astype(dtype)
    tracemalloc.start()
    try:
        tokens, counts, _ = build_vocabulary(walks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * walks.nbytes, peak / walks.nbytes
    flat = walks.ravel().tolist()
    assert tokens.dtype == walks.dtype and tokens.tolist() == list(dict.fromkeys(flat))
    uniq, want = np.unique(walks, return_counts=True)
    assert dict(zip(tokens.tolist(), counts.tolist())) == dict(zip(uniq.tolist(), want.tolist()))


def test_vocabulary_rejects_empty():
    with pytest.raises(ValueError):
        build_vocabulary(np.empty((0, 0)))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-5
    for _ in range(100):
        d = int(rng.integers(3, 9))
        k = int(rng.integers(1, 5))
        c = rng.normal(scale=0.8, size=d)
        o = rng.normal(scale=0.8, size=d)
        negs = rng.normal(scale=0.8, size=(k, d))

        def objective(cv, ov, nv):
            def ls(x):
                return -np.logaddexp(0.0, -x)
            return ls(cv @ ov) + sum(ls(-(nv[i] @ cv)) for i in range(k))

        g_c, g_o, g_n, _ = sgns_gradients(c, o, negs)

        def central(fplus, fminus):
            return (fplus - fminus) / (2 * h)

        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd = central(objective(c + e, o, negs), objective(c - e, o, negs))
            assert abs(fd - g_c[i]) / max(abs(fd), abs(g_c[i]), 1e-8) < 1e-4
            fd = central(objective(c, o + e, negs), objective(c, o - e, negs))
            assert abs(fd - g_o[i]) / max(abs(fd), abs(g_o[i]), 1e-8) < 1e-4
        for j in range(k):
            for i in range(d):
                bump = np.zeros((k, d))
                bump[j, i] = h
                fd = central(objective(c, o, negs + bump), objective(c, o, negs - bump))
                assert abs(fd - g_n[j, i]) / max(abs(fd), abs(g_n[j, i]), 1e-8) < 1e-4


def test_update_direction_at_origin():
    # zero in-vector: sigma(0) = 0.5, so the positive-term in-update is
    # lr * 0.5 * f_out(ctx)
    d = 4
    c = np.zeros(d)
    o = np.array([1.0, -2.0, 0.5, 3.0])
    negs = np.zeros((1, d))
    dc, do, dn, _ = sgns_step(c, o, negs, lr=0.2)
    assert np.allclose(dc, 0.2 * 0.5 * o + 0.2 * (-0.5) * negs[0], atol=1e-15)
    assert np.allclose(do, np.zeros(d), atol=1e-15)   # scaled by the zero in-vector


def test_window_one_pair_enumeration():
    walk = np.array([[0, 1, 2]])
    kp = np.ones_like(walk, dtype=np.uint8)
    centers, contexts = _pairs_for_chunk(walk, kp, window=1)
    pairs = set(zip(centers.tolist(), contexts.tolist()))
    assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1)}


def test_dynamic_window_respects_kprime():
    walk = np.array([[0, 1, 2, 3]])
    kp = np.array([[1, 2, 1, 3]], dtype=np.uint8)
    centers, contexts = _pairs_for_chunk(walk, kp, window=3)
    pairs = sorted(zip(centers.tolist(), contexts.tolist()))
    expected = sorted([(0, 1), (1, 0), (1, 2), (1, 3), (2, 1), (2, 3),
                       (3, 2), (3, 1), (3, 0)])
    assert pairs == expected


@pytest.mark.parametrize("min_keep", [None, 0.6], ids=["all-tokens", "subsampled"])
def test_chunk_shuffle_matches_permutation_and_take(min_keep):
    walks = np.random.default_rng(8).integers(0, 300, size=(1500, 30)).astype(np.int32)
    keep_prob = None if min_keep is None else np.random.default_rng(9).uniform(min_keep, 1.0, 300)
    idx, kp, perm, rng = _epoch_draws(walks, keep_prob, TrainParams(window=5, seed=4), 0)
    ref = np.random.default_rng()
    ref.bit_generator.state = rng.bit_generator.state
    for c0 in (0, 1024):   # two chunks: the stream carries from one to the next
        rows = perm[c0:c0 + 1024]
        got = _pairs_for_chunk(idx[rows], kp[rows], 5, rng)
        want = chunk_shuffle.shuffled_pairs(idx[rows], kp[rows], 5, ref)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    assert np.array_equal(rng.random(16), ref.random(16))


@pytest.mark.parametrize("shuffled", [False, True])
def test_chunk_pairs_peak_memory_is_one_pair_buffer(shuffled):
    # the pairs of a chunk in one int32 buffer, shuffled in place: no
    # per-offset lists beside their concatenation, no permuted copies
    walks = np.random.default_rng(6).integers(0, 2000, size=(1024, 40)).astype(np.int32)
    idx, kp, _, rng = _epoch_draws(walks, None, TrainParams(window=5), 0)
    tracemalloc.start()
    try:
        centers, _ = _pairs_for_chunk(idx, kp, 5, rng) if shuffled else _pairs_for_chunk(idx, kp, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 8 * len(centers), peak / (8 * len(centers))


def _clique_corpus(rng, tokens, n_walks, length):
    return np.array([[rng.choice(tokens) for _ in range(length)] for _ in range(n_walks)])


def test_loss_decreases_over_epochs():
    rng = np.random.default_rng(3)
    a = _clique_corpus(rng, list(range(5)), 120, 12)
    b = _clique_corpus(rng, list(range(5, 10)), 120, 12)
    walks = np.concatenate([a, b])
    params = TrainParams(dimension=8, window=3, epochs=4, seed=9)
    emb = train(walks, params)
    losses = emb.epoch_losses
    assert len(losses) == 4
    upticks = sum(1 for x, y in zip(losses, losses[1:]) if y > x * 1.01)
    assert upticks == 0
    assert losses[-1] < losses[0]


def test_two_clique_separation_after_one_epoch():
    rng = np.random.default_rng(11)
    a = _clique_corpus(rng, list(range(5)), 150, 12)
    b = _clique_corpus(rng, list(range(5, 10)), 150, 12)
    walks = np.concatenate([a, b])
    emb = train(walks, TrainParams(dimension=8, window=3, epochs=1, seed=4))
    vecs = emb.rows_for([str(t) for t in range(10)])
    norm = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    cos = norm @ norm.T
    intra = np.concatenate([cos[:5, :5][np.triu_indices(5, 1)],
                            cos[5:, 5:][np.triu_indices(5, 1)]])
    inter = cos[:5, 5:].ravel()
    assert intra.mean() > inter.mean()


def test_output_shape_and_finiteness():
    rng = np.random.default_rng(0)
    walks = rng.integers(0, 20, size=(50, 10))
    params = TrainParams(dimension=6, window=2, epochs=1, seed=1)
    emb = train(walks, params)
    present = {int(t) for t in np.unique(walks)}
    assert len(emb) == len(present)
    assert emb.vectors.shape == (len(present), 6)
    assert np.all(np.isfinite(emb.vectors))
    assert np.all(np.isfinite(emb.out_vectors))


def test_permutation_equivariance():
    rng = np.random.default_rng(8)
    walks = rng.integers(0, 12, size=(40, 8))
    sigma = rng.permutation(12)
    params = TrainParams(dimension=5, window=3, epochs=2, seed=6)
    base = train(walks, params)
    relabeled = train(sigma[walks], params)
    for t in np.unique(walks):
        assert np.array_equal(base.rows_for([str(int(t))]),
                              relabeled.rows_for([str(int(sigma[t]))]))


def test_determinism_and_seed_sensitivity():
    rng = np.random.default_rng(2)
    walks = rng.integers(0, 15, size=(60, 10))
    p1 = TrainParams(dimension=4, window=2, epochs=2, seed=5)
    a = train(walks, p1)
    b = train(walks, p1)
    assert np.array_equal(a.vectors, b.vectors)
    c = train(walks, TrainParams(dimension=4, window=2, epochs=2, seed=6))
    assert not np.array_equal(a.vectors, c.vectors)


def test_subsampling_smoke():
    rng = np.random.default_rng(15)
    walks = rng.integers(0, 10, size=(60, 10))
    emb = train(walks, TrainParams(dimension=4, window=2, epochs=1, seed=3,
                                   subsample=0.05))
    assert np.all(np.isfinite(emb.vectors))


def _record_batches(monkeypatch) -> list:
    """(pairs, lr) of every _apply_batch call that train makes."""
    calls = []

    def spy(in_vecs, out_vecs, centers, contexts, negs, lr, ws):
        calls.append((len(centers), lr))
        return _apply_batch(in_vecs, out_vecs, centers, contexts, negs, lr, ws)
    monkeypatch.setattr(sgns, "_apply_batch", spy)
    return calls


def test_window_beyond_uint8():
    # a window of 300 on walks of 280: every window size up to 279 occurs
    walks = np.random.default_rng(17).integers(0, 20, size=(3, 280))
    params = TrainParams(dimension=4, window=300, epochs=1, seed=3)
    _, kp, _, _ = _epoch_draws(walks, None, params, 0)
    assert kp.dtype == np.uint16 and kp.max() > 255
    emb = train(walks, params)
    assert np.all(np.isfinite(emb.vectors))
    # windows that fit a byte keep their uint8 draws
    assert _epoch_draws(walks, None, TrainParams(window=255), 0)[1].dtype == np.uint8


def test_pairs_applied_add_up_to_pair_budget(monkeypatch):
    # lr = lr0 (1 - done / budget) at every batch, so each batch after the
    # first recovers the budget; the batches must use up exactly that many.
    # Subsampling keeps each token with probability sqrt(0.005 / 0.02) = 0.5.
    calls = _record_batches(monkeypatch)
    monkeypatch.setattr(sgns, "_MIN_LEARNING_RATE", 0.0)
    walks = np.random.default_rng(31).integers(0, 50, size=(3000, 12))
    train(walks, TrainParams(dimension=4, window=3, epochs=3, seed=2, subsample=0.005,
                             learning_rate=0.5))
    sizes = np.array([n for n, _ in calls])
    lrs = np.array([lr for _, lr in calls])
    done = np.cumsum(sizes) - sizes
    assert len(calls) > 100
    np.testing.assert_allclose(done[1:] / (1.0 - lrs[1:] / 0.5), sizes.sum(), rtol=1e-9)


def test_train_peak_memory_does_not_grow_with_epochs():
    # one epoch's windows, subsampled tokens and walk order at a time
    walks = np.random.default_rng(41).integers(0, 100, size=(12000, 20))
    peaks = []
    for epochs in (1, 4):
        tracemalloc.start()
        try:
            train(walks, TrainParams(dimension=4, window=1, epochs=epochs, seed=3, subsample=2e-4))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]


def test_train_peak_memory_grows_with_the_batch_not_the_chunk():
    # one chunk of 1024 walks; a chunk-wide float64 (2, pairs, k) block of
    # negative uniforms would grow by 2 * pairs * 20 * 8 bytes from k=5 to k=25
    walks = np.random.default_rng(5).integers(0, 2000, size=(1024, 40))
    params = TrainParams(dimension=4, window=5, epochs=1)
    pairs = len(_pairs_for_chunk(*_epoch_draws(walks, None, params, 0)[:2], params.window)[0])
    peaks = {}
    for k in (5, 25):
        tracemalloc.start()
        try:
            train(walks, TrainParams(dimension=4, window=5, epochs=1, negatives=k))
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[25] - peaks[5] < 2 * pairs * 20 * 8 / 4


def test_train_peaks_in_its_batch_loop(monkeypatch):
    """Nothing after the last batch raises train's traced peak: it hands out
    its rows in vocabulary order (first appearance), not copies of them in
    another order."""
    walks = np.random.default_rng(9).integers(0, 400, size=(100, 20))
    peaks = []

    def spy(*args):
        loss = _apply_batch(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return loss
    monkeypatch.setattr(sgns, "_apply_batch", spy)
    tracemalloc.start()
    try:
        emb = train(walks, TrainParams(dimension=64, window=2, negatives=2, epochs=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak == peaks[-1], peak - peaks[-1]
    assert emb.keys == [str(t) for t in dict.fromkeys(walks.ravel().tolist())]


def test_export_import_round_trip_text(tmp_path):
    rng = np.random.default_rng(21)
    walks = rng.integers(0, 8, size=(30, 6))
    emb = train(walks, TrainParams(dimension=3, window=2, epochs=1, seed=2),
                key_fn=lambda t: f"n{t}")
    p1 = tmp_path / "emb.txt"
    emb.save_text(p1)
    loaded = EmbeddingMatrix.load_text(p1)
    assert loaded.keys == emb.keys
    assert np.array_equal(loaded.vectors, emb.vectors)
    p2 = tmp_path / "emb2.txt"
    loaded.save_text(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == f"{len(emb)} 3"


def test_export_import_round_trip_binary(tmp_path):
    rng = np.random.default_rng(22)
    walks = rng.integers(0, 8, size=(30, 6))
    emb = train(walks, TrainParams(dimension=3, window=2, epochs=1, seed=2))
    p1 = tmp_path / "emb.bin"
    emb.save_binary(p1)
    loaded = EmbeddingMatrix.load_binary(p1)
    assert loaded.keys == emb.keys
    assert np.array_equal(loaded.vectors, emb.vectors)
    p2 = tmp_path / "emb2.bin"
    loaded.save_binary(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_two_node_export_line_count(tmp_path):
    emb = EmbeddingMatrix(keys=["0", "1"], vectors=np.zeros((2, 2), np.float32))
    path = tmp_path / "e.txt"
    emb.save_text(path)
    assert len(path.read_text().splitlines()) == 3


def test_train_params_validation():
    for bad in (dict(dimension=0), dict(window=0), dict(negatives=0),
                dict(epochs=0), dict(learning_rate=0.0)):
        with pytest.raises(ValueError):
            TrainParams(**bad)


def _random_batch(rng, V, B, k, d):
    in_vecs = (rng.normal(size=(V, d)) / np.sqrt(d)).astype(np.float32)
    out_vecs = (rng.normal(size=(V, d)) / np.sqrt(d)).astype(np.float32)
    centers = rng.integers(0, V, B).astype(np.int32)
    contexts = rng.integers(0, V, B).astype(np.int32)
    negs = rng.integers(0, V, (B, k)).astype(np.int32)
    return in_vecs, out_vecs, centers, contexts, negs


# lr * m for the rows of a V=7, B=300, k=5 batch: about 43 in-rows and 257
# out-rows per row, so 1e-3 stays under the cap on both sides, 0.01 caps
# the out side only and 0.2 caps both.
@pytest.mark.parametrize("d", [1, 8, 128])
@pytest.mark.parametrize("lr", [1e-3, 0.01, 0.2])
def test_apply_batch_matches_bincount_reference(d, lr):
    rng = np.random.default_rng(1000 * d + int(lr * 1000))
    for _ in range(3):
        in_vecs, out_vecs, centers, contexts, negs = _random_batch(rng, 7, 300, 5, d)
        ref_in, ref_out = in_vecs.copy(), out_vecs.copy()
        ref_loss = apply_batch(ref_in, ref_out, centers, contexts, negs, lr)
        loss = _apply_batch(in_vecs, out_vecs, centers, contexts, negs, lr)
        # float32 sums of up to ~260 terms in another order
        for got, want in ((in_vecs, ref_in), (out_vecs, ref_out)):
            np.testing.assert_allclose(got, want, rtol=1e-5,
                                       atol=1e-5 * float(np.abs(want).max()))
        assert loss == pytest.approx(ref_loss, rel=1e-5)


# A slice of 7 pairs and pieces of 7k entries: B=300 ends on a partial
# slice, V=7 gives runs of about 260 out-entries that cross many piece
# boundaries, V=60 pieces that hold several runs each. d=1 sums slot by
# slot, every other width by einsum.
@pytest.mark.parametrize("d", [1, 8, 31, 32, 128])
@pytest.mark.parametrize("lr", [1e-3, 0.2])
@pytest.mark.parametrize("V", [7, 60])
def test_sliced_batch_is_byte_identical_to_unsliced(monkeypatch, d, lr, V):
    k = 5
    monkeypatch.setattr(sgns, "_SLICE_ELEMENTS", 7 * k * d)
    rng = np.random.default_rng(10 * d + V)
    for _ in range(2):
        in_vecs, out_vecs, centers, contexts, negs = _random_batch(rng, V, 300, k, d)
        ref_in, ref_out = in_vecs.copy(), out_vecs.copy()
        ref_loss = unsliced_batch.apply_batch(ref_in, ref_out, centers, contexts, negs, lr)
        loss = _apply_batch(in_vecs, out_vecs, centers, contexts, negs, lr)
        assert in_vecs.tobytes() == ref_in.tobytes()
        assert out_vecs.tobytes() == ref_out.tobytes()
        assert loss == ref_loss


def test_train_byte_identical_at_any_slice_size(monkeypatch):
    # d=16 and d=128: one row's entries span pieces at the small slice size
    walks = np.random.default_rng(29).integers(0, 80, size=(200, 15))
    full = sgns._SLICE_ELEMENTS
    for d in (16, 128):
        params = TrainParams(dimension=d, window=3, epochs=2, seed=4, learning_rate=0.2)
        monkeypatch.setattr(sgns, "_SLICE_ELEMENTS", full)
        a = train(walks, params)
        monkeypatch.setattr(sgns, "_SLICE_ELEMENTS", 3 * params.negatives * params.dimension)
        b = train(walks, params)
        assert a.vectors.tobytes() == b.vectors.tobytes()
        assert a.out_vectors.tobytes() == b.out_vectors.tobytes()
        assert a.epoch_losses == b.epoch_losses


@st.composite
def row_runs(draw):
    """(d, piece, rows, seed): runs of 1 to past one piece of entries, or a
    single row that holds every entry, interleaved in a drawn batch order."""
    d = draw(st.sampled_from([1, 2, 3, 8, 31, 32, 128]))
    piece = draw(st.integers(1, 24))   # entries per piece of _segment_add
    lengths = draw(st.one_of(st.lists(st.integers(1, 3 * piece + 2), min_size=1, max_size=10),
                             st.integers(1, 3 * piece + 2).map(lambda m: [m])))
    rows = np.repeat(np.arange(len(lengths), dtype=np.int32) * 2 + 1, lengths)
    seed = draw(st.integers(0, 2**32 - 1))
    return d, piece, np.random.default_rng(seed).permutation(rows), seed


@settings(max_examples=120, deadline=None)
@given(row_runs(), st.booleans(), st.sampled_from([1e-3, 0.2]))
@example((128, 1, np.full(70, 1, np.int32), 0), True, 0.2)   # one row, 70 pieces
@example((32, 24, np.full(70, 1, np.int32), 1), False, 1e-3)
@example((1, 5, np.full(70, 1, np.int32), 2), True, 0.2)
def test_segment_add_sums_every_width_entry_after_entry(case, with_coef, lr):
    d, piece, rows, seed = case
    rng = np.random.default_rng(seed)
    target = rng.normal(size=(int(rows.max()) + 2, d)).astype(np.float32)
    src = rng.normal(size=(50, d)).astype(np.float32)
    src_idx = rng.integers(0, len(src), len(rows)).astype(np.int32)
    coef = rng.normal(size=len(rows)).astype(np.float32) if with_coef else None
    want = target.copy()
    row_loop.segment_add(want, rows, src, src_idx, coef, lr)
    with mock.patch.object(sgns, "_SLICE_ELEMENTS", piece * d):
        sgns._segment_add(target, rows, src, src_idx, coef, lr)
    assert target.tobytes() == want.tobytes()


def _traced_peak(kernel, batch, lr=0.2) -> int:
    """Traced peak of one kernel call on copies of batch's vectors."""
    in_vecs, out_vecs, centers, contexts, negs = batch
    in_vecs, out_vecs = in_vecs.copy(), out_vecs.copy()
    tracemalloc.start()
    try:
        kernel(in_vecs, out_vecs, centers, contexts, negs, lr)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_apply_batch_peak_memory_bounded_in_negatives():
    # B=8192, d=128: the unsliced kernel holds a (B, k, d) negative block and
    # a (d, B(1+k)) out-side block; the sliced one holds neither
    B, d = 8192, 128
    peaks = {}
    for k in (5, 20):
        batch = _random_batch(np.random.default_rng(k), 2000, B, k, d)
        peaks[k] = _traced_peak(_apply_batch, batch)
        if k == 5:
            oracle_peak = _traced_peak(unsliced_batch.apply_batch, batch)
    assert peaks[20] - peaks[5] < B * d * 4
    assert peaks[5] < oracle_peak / 2


def test_warm_workspace_batch_peak_memory_is_small():
    # with the train call's workspace in hand, a batch allocates only its
    # argsort orders and per-run arrays: no (B, d), (B, k, d) or per-entry
    # temporaries
    B, k, d = 8192, 5, 128
    batch = _random_batch(np.random.default_rng(8), 2000, B, k, d)
    ws = sgns._Workspace(B, k, d)
    _apply_batch(batch[0].copy(), batch[1].copy(), *batch[2:], 0.2, ws)
    peak = _traced_peak(lambda *args: _apply_batch(*args, ws), batch)
    assert peak <= 2 * 2**20


# A full batch, a partial one, then a full one again through one workspace:
# loss terms, sorted entries, padded slots or sums left from a larger batch
# must not reach a smaller one. d=1 sums slot by slot, the rest by einsum;
# pieces of 3 entries make V=7's runs of about 260 out-entries cross many
# pieces and carry their sums.
@pytest.mark.parametrize("d, piece", [(1, None), (8, None), (128, None), (8, 3), (128, 3)])
def test_reused_workspace_is_byte_identical_to_a_fresh_one(monkeypatch, d, piece):
    k = 5
    if piece is not None:
        monkeypatch.setattr(sgns, "_SLICE_ELEMENTS", piece * d)
    rng = np.random.default_rng(100 + d)
    ws = sgns._Workspace(300, k, d)
    for V, B in ((7, 300), (60, 130), (7, 300), (60, 1), (60, 300)):
        in_vecs, out_vecs, centers, contexts, negs = _random_batch(rng, V, B, k, d)
        ref_in, ref_out = in_vecs.copy(), out_vecs.copy()
        want = _apply_batch(ref_in, ref_out, centers, contexts, negs, 0.2)
        got = _apply_batch(in_vecs, out_vecs, centers, contexts, negs, 0.2, ws)
        assert in_vecs.tobytes() == ref_in.tobytes()
        assert out_vecs.tobytes() == ref_out.tobytes()
        assert got == want


def test_apply_batch_single_pair_is_sgns_gradients():
    # one pair, context and negatives distinct, lr * m <= 1: the trainer's
    # row deltas are lr times the gradients the acceptance check verifies
    rng = np.random.default_rng(77)
    for d, k, lr in ((1, 1, 0.5), (8, 5, 0.025), (128, 5, 1.0), (16, 3, 0.2)):
        in_vecs, out_vecs, _, _, _ = _random_batch(rng, k + 2, 1, k, d)
        in0, out0 = in_vecs.copy(), out_vecs.copy()
        center, context, negs = np.array([k + 1]), np.array([0]), np.arange(1, k + 1)
        loss = _apply_batch(in_vecs, out_vecs, center, context, negs[None, :], lr)
        g_c, g_o, g_n, value = sgns_gradients(in0[k + 1].astype(np.float64),
                                              out0[0].astype(np.float64),
                                              out0[1:k + 1].astype(np.float64))
        tol = dict(rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(in_vecs[k + 1] - in0[k + 1], lr * g_c, **tol)
        np.testing.assert_allclose(out_vecs[0] - out0[0], lr * g_o, **tol)
        np.testing.assert_allclose(out_vecs[1:k + 1] - out0[1:k + 1], lr * g_n, **tol)
        assert np.array_equal(in_vecs[:k + 1], in0[:k + 1])
        assert np.array_equal(out_vecs[k + 1], out0[k + 1])
        assert loss == pytest.approx(-value, rel=1e-5)


def test_log_sigmoid_one_exp_matches_reference():
    x = np.concatenate([np.linspace(-30, 30, 2001), [-1e-3, 0.0, 1e-3]]).astype(np.float32)
    log_sig, slope = _log_sigmoid(x)
    assert log_sig.dtype == slope.dtype == np.float32
    np.testing.assert_allclose(log_sig, log_sigmoid(x), rtol=1e-6)
    np.testing.assert_allclose(slope, sigmoid(-x), rtol=1e-6)
    log_sig, slope = _log_sigmoid(np.array([-100.0, 100.0], np.float32))
    assert np.all(np.isfinite(log_sig)) and np.all(np.isfinite(slope))
    assert log_sig[0] == np.float32(-100.0) and -1e-40 <= log_sig[1] <= 0.0
    assert slope[0] == np.float32(1.0) and 0.0 <= slope[1] <= 1e-40


def test_train_byte_identical_for_fixed_seed_d128():
    rng = np.random.default_rng(23)
    walks = rng.integers(0, 40, size=(60, 20))
    params = TrainParams(dimension=128, window=3, epochs=2, seed=12, learning_rate=0.2)
    a = train(walks, params)
    b = train(walks, params)
    assert a.vectors.tobytes() == b.vectors.tobytes()
    assert a.out_vectors.tobytes() == b.out_vectors.tobytes()


# 2**16 - 1 and 2**16 take one 16-bit pass, 2**16 + 1 and 10**6 two
ROW_COUNTS = [1, 2**16 - 1, 2**16, 2**16 + 1, 10**6]


@st.composite
def row_ids(draw):
    """(rows, n_rows): a few distinct ids, the digit edges among them, each
    drawn many times, so that ties are the rule."""
    n_rows = draw(st.sampled_from(ROW_COUNTS))
    edges = [0, n_rows - 1, min(2**16 - 1, n_rows - 1), min(2**16, n_rows - 1)]
    ids = st.one_of(st.sampled_from(edges), st.integers(0, n_rows - 1))
    pool = draw(st.lists(ids, min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), max_size=3000))
    return np.array(rows, np.int32), n_rows


@settings(max_examples=150, deadline=None)
@given(row_ids())
@example((np.array([], np.int32), 1))
@example((np.array([], np.int32), 10**6))
@example((np.array([0], np.int32), 1))
@example((np.array([10**6 - 1], np.int32), 10**6))
@example((np.full(5000, 2**16, np.int32), 2**16 + 1))
@example((np.full(5000, 2**16 - 1, np.int32), 2**16))
def test_row_order_is_stable_argsort(case):
    rows, n_rows = case
    assert np.array_equal(_row_order(rows, n_rows), np.argsort(rows, kind="stable"))


def test_train_bytes_agree_with_avx512_kernels_disabled():
    # np.argsort's default tie order and float32 np.log1p depend on the SIMD
    # kernels numpy dispatches to; the row order of _segment_add and the
    # loss must not. d=1 sums rows slot by slot, d=8 and d=128 by einsum
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    avx512 = [t for t in __cpu_dispatch__
              if (t.startswith("AVX512") or t == "X86_V4") and __cpu_features__.get(t)]
    if not avx512:
        pytest.skip("numpy dispatches no AVX-512 kernel on this host")
    script = textwrap.dedent("""
        import hashlib, numpy as np
        from fane import TrainParams, train
        walks = np.random.default_rng(3).integers(0, 300, size=(400, 20))
        for d in (1, 8, 128):
            emb = train(walks, TrainParams(dimension=d, window=5, epochs=2, learning_rate=0.2))
            for a in (emb.vectors, emb.out_vectors):
                print(hashlib.sha256(a.tobytes()).hexdigest())
            print(*map(repr, emb.epoch_losses))
    """)
    src = str(Path(sgns.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = src
    runs = []
    for disabled in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}):
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={**env, **disabled}, check=True, timeout=300)
        runs.append(out.stdout.split("\n"))
    assert len(runs[0]) == 10 and runs[0] == runs[1]
