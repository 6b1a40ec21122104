"""The one-vs-rest classifier's first solver: full-batch Pegasos.

``fit`` is ``LinearSVM.fit`` as it was before the dual solver replaced it:
subgradient descent on ½‖w‖²·λ + mean hinge with λ = 1/(C·n), step
1/(λ·t), projection onto the 1/sqrt(λ) ball, and the averaged second-half
iterate. It minimises the same objective as the shipped solver, so the
tests compare the shipped solver's primal objective and predictions with it.
"""

import numpy as np


def fit(clf, X, y):
    """Fit ``clf`` (a ``fane.evaluate.LinearSVM``) in place; returns it."""
    X = np.asarray(X, np.float64)
    y = np.asarray(y)
    clf.classes_ = np.unique(y)
    if len(clf.classes_) < 2:
        raise ValueError("training set has a single class")
    n = len(y)
    lam = 1.0 / (clf.C * n)
    # subgradient descent needs ~1/lambda steps to converge
    iters = min(30000, max(1000, int(20.0 / lam)))
    clf.mean_ = X.mean(axis=0)
    Xc = X - clf.mean_
    Y = np.where(y[:, None] == clf.classes_[None, :], 1.0, -1.0)
    k, d = len(clf.classes_), X.shape[1]
    W = np.zeros((k, d))
    W_sum = np.zeros_like(W)
    n_avg = 0
    radius = 1.0 / np.sqrt(lam)
    for t in range(1, iters + 1):
        margins = Y * (Xc @ W.T)
        active = margins < 1.0
        grad = lam * W - ((active * Y).T @ Xc) / n
        W -= grad / (lam * t)
        norms = np.linalg.norm(W, axis=1, keepdims=True)
        scale = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
        W *= scale
        if t > iters // 2:
            W_sum += W
            n_avg += 1
    clf.weights_ = W_sum / n_avg
    return clf
