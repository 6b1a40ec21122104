"""A row's summed update, one entry at a time.

``segment_add`` is what ``fane.sgns._segment_add`` computes at every row
width, written as a Python loop: each target row's entries are added in
turn, in the order the batch made them, starting from zero, and the sum is
then scaled and added to the row.
"""

import numpy as np


def segment_add(target, rows, src, src_idx, coef, lr) -> None:
    """target[r] += lr * min(1, 1/(lr*m)) * sum of coef[i] * src[src_idx[i]]
    over the m entries i with rows[i] == r (coef None means 1)."""
    sums, counts = {}, {}
    for i, r in enumerate(np.asarray(rows).tolist()):
        term = src[src_idx[i]] if coef is None else src[src_idx[i]] * coef[i]
        sums[r] = sums.get(r, np.zeros(src.shape[1], np.float32)) + term
        counts[r] = counts.get(r, 0) + 1
    for r, total in sums.items():
        total *= np.float32(lr * min(1.0, 1.0 / (lr * counts[r])))
        target[r] += total
