"""The mini-batch kernel before it was cache-blocked.

``apply_batch`` and ``segment_add`` gather, score and sum a whole batch at
once: the (B, k, d) negative block and the (d, B(1+k)) out-side block are
each built in full. The shipped ``fane.sgns._apply_batch`` does the same
arithmetic a slice of pairs and a piece of sorted entries at a time, so its
in-vectors, out-vectors and loss must equal these bit for bit. The stable
sort in ``segment_add`` defines the canonical order of a row's entries:
the order the batch made them. Every row's entries are added one after
another in that order, starting from zero, at every width.
"""

import numpy as np

from fane.sgns import _log_sigmoid


def apply_batch(in_vecs, out_vecs, centers, contexts, negs, lr) -> float:
    """One mini-batch of SGNS updates in place; returns the summed negative
    objective."""
    B, k = negs.shape
    vc = in_vecs[centers]
    vo = out_vecs[contexts]
    vn = out_vecs[negs]
    log_sig, coef = _log_sigmoid(np.concatenate([np.einsum("bd,bd->b", vc, vo),
                                                 -np.einsum("bd,bkd->bk", vc, vn).ravel()]))
    coef[B:] *= -1   # d objective / d(c.o) for the pair, / d(c.n) for a negative
    d_in = coef[:B, None] * vo + np.einsum("bk,bkd->bd", coef[B:].reshape(B, k), vn)
    segment_add(in_vecs, centers, d_in, np.arange(B), None, lr)
    segment_add(out_vecs, np.concatenate([contexts, negs.ravel()]), vc,
                np.concatenate([np.arange(B), np.repeat(np.arange(B), k)]), coef, lr)
    return float(-log_sig.sum())


def segment_add(target, rows, src, src_idx, coef, lr) -> None:
    """target[r] += lr * min(1, 1/(lr*m)) * sum of coef[i] * src[src_idx[i]]
    over the m entries i with rows[i] == r (coef None means 1)."""
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    m = np.diff(np.append(starts, len(rows)))
    block = src[src_idx[order]]
    if coef is not None:
        block *= coef[order, None]
    acc = np.zeros((len(starts), src.shape[1]), np.float32)
    np.add.at(acc, np.repeat(np.arange(len(starts)), m), block)   # entry after entry
    acc *= (lr * np.minimum(1.0, 1.0 / (lr * m))).astype(np.float32)[:, None]
    target[rows[starts]] += acc
