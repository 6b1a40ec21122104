"""k-means and silhouette as first written, on full distance arrays.

``kmeans`` builds one n×k×d difference broadcast per Lloyd iteration and
``silhouette_score`` one n×n distance matrix. The shipped functions in
``fane.evaluate`` compute the same per-element expressions on blocks of rows,
so their outputs must be byte-identical to these.
"""

import numpy as np


def kmeans(X, k: int, seed: int = 1, max_iter: int = 300, tol: float = 1e-6):
    X = np.asarray(X, np.float64)
    n = len(X)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds number of points {n}")
    rng = np.random.default_rng(seed)

    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = X[rng.integers(n)]
        else:
            centers[j] = X[np.searchsorted(np.cumsum(d2 / total), rng.random())]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))

    history = []
    assign = np.zeros(n, np.int64)
    for _ in range(max_iter):
        dist = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(dist, axis=1)
        inertia = float(dist[np.arange(n), assign].sum())
        history.append(inertia)
        new_centers = centers.copy()
        for j in range(k):
            members = assign == j
            if members.any():
                new_centers[j] = X[members].mean(axis=0)
            else:
                far = int(np.argmax(dist[np.arange(n), assign]))
                new_centers[j] = X[far]
        if len(history) >= 2:
            prev, curr = history[-2], history[-1]
            if prev > 0 and (prev - curr) / prev < tol:
                centers = new_centers
                break
        centers = new_centers
    return assign, centers, history


def silhouette_score(X, labels) -> float:
    X = np.asarray(X, np.float64)
    labels = np.asarray(labels)
    n = len(X)
    if n != len(labels):
        raise ValueError("X and labels must align")
    uniq = np.unique(labels)
    if len(uniq) < 2:
        raise ValueError("silhouette needs at least two classes")
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    dist = np.sqrt(np.maximum(d2, 0.0))
    scores = np.zeros(n)
    for i in range(n):
        same = labels == labels[i]
        n_same = int(same.sum())
        if n_same <= 1:
            continue
        a = dist[i, same].sum() / (n_same - 1)
        b = np.inf
        for c in uniq:
            if c == labels[i]:
                continue
            mask = labels == c
            b = min(b, dist[i, mask].mean())
        m = max(a, b)
        scores[i] = (b - a) / m if m > 0 else 0.0
    return float(scores.mean())
