"""Alias method: O(k) table construction for O(1) categorical sampling."""

from __future__ import annotations

import numpy as np


def build_alias(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build (accept, alias) arrays for a probability vector.

    accept[i] is the probability of keeping bin i when it is drawn uniformly;
    otherwise alias[i] is returned. Construction is deterministic (small and
    large stacks filled in index order).
    """
    p = np.asarray(probs, np.float64)
    k = len(p)
    if k == 0:
        raise ValueError("empty probability vector")
    scaled = p * k
    accept = np.ones(k, np.float64)
    alias = np.arange(k, dtype=np.int32)
    small = [i for i in range(k) if scaled[i] < 1.0]
    large = [i for i in range(k) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        accept[s] = scaled[s]
        alias[s] = l
        scaled[l] = (scaled[l] + scaled[s]) - 1.0
        if scaled[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    # leftovers are 1.0 up to rounding
    for i in small + large:
        accept[i] = 1.0
    return accept, alias

