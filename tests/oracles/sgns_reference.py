"""Single-pair skip-gram update, the scalar form of the trainer's step."""

from fane.sgns import sgns_gradients


def sgns_step(center_vec, context_vec, negative_vecs, lr: float):
    """Additive update triple (lr * gradient) for a single positive pair."""
    g_c, g_o, g_n, value = sgns_gradients(center_vec, context_vec, negative_vecs)
    return lr * g_c, lr * g_o, lr * g_n, value
