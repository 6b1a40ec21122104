"""Scalar reads of an alias table: one draw, and the distribution it encodes."""

import numpy as np


def alias_sample(accept: np.ndarray, alias: np.ndarray, u1: float, u2: float) -> int:
    """Draw one index from an alias table using two uniforms in [0, 1)."""
    k = len(accept)
    i = min(int(u1 * k), k - 1)
    return int(i if u2 < accept[i] else alias[i])


def implied_probs(accept: np.ndarray, alias: np.ndarray) -> np.ndarray:
    """Exact sampling distribution encoded by a table (for verification)."""
    k = len(accept)
    out = accept.astype(np.float64).copy()
    np.add.at(out, alias, 1.0 - accept)
    return out / k
