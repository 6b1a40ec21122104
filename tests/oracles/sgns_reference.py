"""Reference forms of the trainer's step.

``sgns_step`` is the single-pair update. ``apply_batch`` is the mini-batch
kernel as first written: per-unique-row sums by one ``np.bincount`` per
embedding column, the same duplicate-row cap, and separate sigmoid and
log-sigmoid passes. The shipped ``fane.sgns._apply_batch`` must agree with
it to float32 rounding.
"""

import numpy as np

from fane.sgns import sgns_gradients


def sgns_step(center_vec, context_vec, negative_vecs, lr: float):
    """Additive update triple (lr * gradient) for a single positive pair."""
    g_c, g_o, g_n, value = sgns_gradients(center_vec, context_vec, negative_vecs)
    return lr * g_c, lr * g_o, lr * g_n, value


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def apply_batch(in_vecs, out_vecs, centers, contexts, negs, lr) -> float:
    """One mini-batch of SGNS updates in place; returns the summed negative
    objective. A row recurring m times in the batch gets its summed update
    scaled by min(1, 1/(lr*m))."""
    vc = in_vecs[centers]
    vo = out_vecs[contexts]
    vn = out_vecs[negs]
    pos_dot = np.einsum("bd,bd->b", vc, vo)
    neg_dot = np.einsum("bd,bkd->bk", vc, vn)
    g_pos = (1.0 - sigmoid(pos_dot)).astype(np.float32)
    g_neg = (-sigmoid(neg_dot)).astype(np.float32)
    d_in = g_pos[:, None] * vo + np.einsum("bk,bkd->bd", g_neg, vn)

    c_uniq, c_inv, c_cnt = np.unique(centers, return_inverse=True, return_counts=True)
    c_scale = np.minimum(1.0, 1.0 / (lr * c_cnt))
    w_c = (lr * c_scale[c_inv]).astype(np.float32)
    scatter_add(in_vecs, c_uniq, c_inv, w_c[:, None] * d_in)

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
    scatter_add(out_vecs, o_uniq, o_inv, d_out)
    loss = -(log_sigmoid(pos_dot).sum() + log_sigmoid(-neg_dot).sum())
    return float(loss)


def scatter_add(target, uniq, inverse, updates) -> None:
    """target[uniq] += per-unique sums of updates (bincount per column)."""
    acc = np.empty((len(uniq), updates.shape[1]), target.dtype)
    for j in range(updates.shape[1]):
        acc[:, j] = np.bincount(inverse, weights=updates[:, j], minlength=len(uniq))
    target[uniq] += acc
