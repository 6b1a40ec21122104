"""Scalar form of the walk's bias kernels, one target at a time.

Reference for the vectorized scores in ``fane.walks``: beta is the
return/in-out kernel, alpha applies the strategy's attribute bias 1/r and
otherwise falls back to beta.
"""

from fane.walks import SF, STF, TF


def beta(g, u, v, x, p, q):
    """Return/in-out kernel for target x given previous node u (scalar form)."""
    if x == u:
        return 1.0 / p
    return 1.0 if g.has_edge(u, x) else 1.0 / q


def alpha(g, strategy, u, v, x, p, q, r):
    """Strategy bias for target x from source v arrived-from u (scalar form)."""
    v_attr = v >= g.n_raw
    x_attr = x >= g.n_raw
    if strategy == SF:
        return 1.0 / r if v_attr else beta(g, u, v, x, p, q)
    if strategy == TF:
        return 1.0 / r if x_attr else beta(g, u, v, x, p, q)
    if strategy == STF:
        return 1.0 / r if (v_attr or x_attr) else beta(g, u, v, x, p, q)
    raise ValueError(f"unknown strategy {strategy!r}")
