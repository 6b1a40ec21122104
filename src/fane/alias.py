"""Alias method: O(k) table construction for O(1) categorical sampling;
many tables may lie side by side in flat arrays, each at its offset."""

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


def build_alias_rows(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def alias_draw(accept: np.ndarray, alias: np.ndarray, off, d, u1, u2, out=None) -> np.ndarray:
    """Outcomes drawn from the tables of d outcomes at ``off`` in the flat
    arrays: column j by u1, kept if u2 < accept, else its alias. u1 is
    overwritten, and the outcomes go to ``out``, an int64 array shaped like
    u1 (a new one if None)."""
    at = np.empty(np.shape(u1), np.int64) if out is None else out
    np.copyto(at, np.multiply(u1, d, out=u1), casting="unsafe")   # truncated, as by astype
    np.minimum(at, np.subtract(d, 1), out=at)
    at += off
    rejected = u2 >= np.take(accept, at, out=u1, mode="clip")
    alt = np.take(alias, at)
    at -= off
    np.copyto(at, alt, where=rejected)
    return at
