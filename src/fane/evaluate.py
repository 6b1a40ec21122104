"""Evaluation of embeddings: node classification, clustering, 2-D projection.

The classifier is a one-vs-rest linear hinge-loss machine, ½‖w‖² + C·Σ hinge
per class, with features centred by the training mean and no separate bias
term. `LinearSVM.fit` solves its dual exactly, by accelerated projected
gradient over all classes at once, and stops on the duality gap. F1 scores,
k-means, PCA, and silhouette are implemented here directly so results do
not depend on external library versions; k-means and silhouette compute
their distances on blocks of rows, so memory does not grow with n·k·d or n².
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field


import numpy as np

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------- splits

def stratified_split(labels: np.ndarray, ratio: float, rng: np.random.Generator):
    """Disjoint stratified train/test index arrays.

    The global train size is round(ratio * n), apportioned to classes by
    largest remainder; every class keeps at least 1 member on each side when
    it has >= 2, and singleton classes are forced into train with a warning.
    """
    labels = np.asarray(labels)
    classes = np.unique(labels)
    counts = np.array([(labels == c).sum() for c in classes])
    total_train = int(np.floor(ratio * len(labels) + 0.5))
    base = np.floor(ratio * counts).astype(np.int64)
    remainder = ratio * counts - base
    short = total_train - int(base.sum())
    order = np.argsort(-remainder, kind="stable")
    take = base.copy()
    for i in order[:max(short, 0)]:
        take[i] += 1
    train, test = [], []
    for c, n_c, n_train in zip(classes, counts, take):
        idx = rng.permutation(np.nonzero(labels == c)[0])
        if n_c == 1:
            logger.warning("class %s has a single member; forcing it into train", c)
            train.append(idx)
            continue
        n_train = min(max(int(n_train), 1), int(n_c) - 1)
        train.append(idx[:n_train])
        test.append(idx[n_train:])
    train = np.sort(np.concatenate(train))
    test = np.sort(np.concatenate(test)) if test else np.empty(0, np.int64)
    return train, test


def split(labels: np.ndarray, train_ratio: float, repetitions: int,
          seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (train, test) pair per repetition, reproducible from the seed."""
    if not (0.0 < train_ratio < 1.0):
        raise ValueError("train_ratio must be in (0, 1)")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    return [stratified_split(labels, train_ratio, np.random.default_rng((seed, rep)))
            for rep in range(repetitions)]


# ---------------------------------------------------------------- metrics

def micro_f1(pred, truth) -> float:
    """Global-count F1; equals accuracy for single-label multi-class data."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if len(truth) == 0:
        raise ValueError("empty input")
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must align")
    tp = int((pred == truth).sum())
    fp = len(pred) - tp
    fn = len(truth) - tp
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def macro_f1(pred, truth, classes=None) -> float:
    """Unweighted mean of per-class F1.

    A class with zero true and zero predicted positives contributes 0.
    ``classes`` fixes the class set; default is the union seen in either
    vector.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if len(truth) == 0:
        raise ValueError("empty input")
    if classes is None:
        classes = np.union1d(np.unique(pred), np.unique(truth))
    scores = []
    for c in classes:
        tp = int(((pred == c) & (truth == c)).sum())
        fp = int(((pred == c) & (truth != c)).sum())
        fn = int(((pred != c) & (truth == c)).sum())
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


# ---------------------------------------------------------------- classifier

_GAP_TOL = 1e-4       # stop once every class's relative duality gap is below this
_GAP_EVERY = 10       # steps between gap checks
_MAX_STEPS = 20000    # step cap


class LinearSVM:
    """One-vs-rest linear hinge-loss classifier, solved exactly in the dual.

    Each class j minimises ½‖w_j‖² + C·Σ_i max(0, 1 − y_ij·w_j·x_i) over the
    rows x_i centred by the training mean, with no bias term. `fit` solves
    the dual of all classes at once: maximise Σα − ½‖(Y⊙α)ᵀX‖² per class
    over the box 0 ≤ α ≤ C, an (n, k) matrix, by projected gradient steps
    of size 1/L (L the largest eigenvalue of XᵀX, X centred) with FISTA
    momentum, restarted per class when a step turns back. It stops when
    every class's duality gap (P − D)/P is below `_GAP_TOL`, checked every
    `_GAP_EVERY` steps, or after `_MAX_STEPS` steps, and logs a WARNING if
    that cap ends it first. `n_iter_` and `gap_` record the steps taken and
    the final largest gap. Prediction uses the final w = (Y⊙α)ᵀX. Ties in
    the argmax go to the smaller class id.
    """

    def __init__(self, C: float = 1.0):
        if not (C > 0):
            raise ValueError("C must be positive")
        self.C = C
        self.classes_ = None
        self.weights_ = None
        self.mean_ = None
        self.n_iter_ = None
        self.gap_ = None

    def fit(self, X, y):
        X = np.asarray(X, np.float64)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ValueError("training set has a single class")
        C, cap = self.C, _MAX_STEPS
        self.mean_ = X.mean(axis=0)
        Xc = X - self.mean_
        Y = np.where(y[:, None] == self.classes_[None, :], 1.0, -1.0)
        # every class's dual Hessian is diag(y)·Xc·Xcᵀ·diag(y), whose largest
        # eigenvalue is that of the d×d matrix XcᵀXc
        L = max(float(np.linalg.eigvalsh(Xc.T @ Xc)[-1]), np.finfo(float).tiny)
        A = np.zeros_like(Y)      # α
        M = np.zeros_like(Y)      # margins Y⊙(Xc·Wᵀ) at α; linear in α
        A_old, M_old = A, M
        t = np.ones(Y.shape[1])
        mom = np.zeros_like(t)
        for step in range(1, cap + 1):
            B = A + mom * (A - A_old)
            grad = M + mom * (M - M_old) - 1.0
            A_old, M_old = A, M
            A = np.clip(B - grad / L, 0.0, C)
            W = (Y * A).T @ Xc
            M = Y * (Xc @ W.T)
            restart = np.einsum("ij,ij->j", B - A, A - A_old) > 0
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            mom = np.where(restart, 0.0, (t - 1.0) / t_next)
            t = np.where(restart, 1.0, t_next)
            if step % _GAP_EVERY == 0 or step == cap:
                half_sq = 0.5 * np.einsum("jd,jd->j", W, W)
                primal = half_sq + C * np.maximum(0.0, 1.0 - M).sum(axis=0)
                dual = A.sum(axis=0) - half_sq
                gap = float(((primal - dual) / primal).max())
                if gap < _GAP_TOL:
                    break
        if gap >= _GAP_TOL:
            logger.warning("LinearSVM stopped at its cap of %d steps with C=%g, n=%d: "
                           "relative duality gap %.3g", cap, C, len(y), gap)
        self.weights_, self.n_iter_, self.gap_ = W, step, gap
        return self

    def decision_scores(self, X) -> np.ndarray:
        X = np.asarray(X, np.float64)
        return (X - self.mean_) @ self.weights_.T

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.decision_scores(X), axis=1)]


# ---------------------------------------------------------------- report

_CSV_COLUMNS = ("ratio", "rep", "C", "d", "micro_f1", "macro_f1")


@dataclass
class ClassificationReport:
    """Micro-/Macro-F1 per (ratio, rep) split; C, seed and repetitions are the
    settings that made the rows."""

    C: float
    seed: int
    repetitions: int
    rows: list[dict] = field(default_factory=list)   # keyed by _CSV_COLUMNS

    def ratio_summary(self) -> list[dict]:
        out = []
        for ratio in sorted({r["ratio"] for r in self.rows}):
            mi = np.array([r["micro_f1"] for r in self.rows if r["ratio"] == ratio])
            ma = np.array([r["macro_f1"] for r in self.rows if r["ratio"] == ratio])
            out.append({
                "ratio": ratio,
                "micro_mean": float(mi.mean()), "micro_std": float(mi.std()),
                "macro_mean": float(ma.mean()), "macro_std": float(ma.std()),
            })
        return out

    def mean_micro(self, ratio: float) -> float:
        vals = [r["micro_f1"] for r in self.rows if abs(r["ratio"] - ratio) < 1e-9]
        return float(np.mean(vals))

    def save_csv(self, path) -> None:
        """One line per row, columns _CSV_COLUMNS."""
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(_CSV_COLUMNS)
            for r in self.rows:
                w.writerow([r[k] for k in _CSV_COLUMNS])


def evaluate_classification(features, labels, ratios, C: float, repetitions: int = 10,
                            seed: int = 1) -> ClassificationReport:
    """Train-ratio sweep on fixed features: the one loop that fits a `LinearSVM`.

    Each split of each ratio fits the train rows and scores the test rows; each
    row carries C and d, the feature dimension.
    """
    labels = np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    report = ClassificationReport(C=C, seed=seed, repetitions=repetitions)
    for ratio in ratios:
        if counts.max() < 2:
            raise ValueError(f"train ratio {ratio}: every class has one member, so all "
                             f"{len(labels)} rows go to train and no row is left to test")
        for rep, (tr, te) in enumerate(split(labels, ratio, repetitions, seed)):
            clf = LinearSVM(C=C).fit(features[tr], labels[tr])
            pred, truth = clf.predict(features[te]), labels[te]
            report.rows.append({"ratio": ratio, "rep": rep, "C": C, "d": features.shape[1],
                                "micro_f1": micro_f1(pred, truth),
                                "macro_f1": macro_f1(pred, truth, classes=classes)})
    return report


# ---------------------------------------------------------------- k-means

_BLOCK_ELEMENTS = 1 << 18   # float64 entries of one (rows, points, d) difference block
_KMEANS_MAX_ITER = 300
_KMEANS_TOL = 1e-6          # relative inertia change that ends the Lloyd iterations


def _row_blocks(n: int, per_row: int):
    """Slices of consecutive rows whose (rows, per_row) blocks stay within
    `_BLOCK_ELEMENTS`; at least one row each."""
    step = max(1, _BLOCK_ELEMENTS // max(per_row, 1))
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


def kmeans(X, k: int, seed: int = 1):
    """Lloyd iterations with k-means++ seeding.

    Returns (assignment, centers, inertia_history); stops after
    `_KMEANS_MAX_ITER` iterations or when the relative inertia change drops
    below `_KMEANS_TOL`. Empty clusters are re-seeded with the point farthest
    from its center.
    """
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
    dist = np.empty((n, k))
    for _ in range(_KMEANS_MAX_ITER):
        for rows in _row_blocks(n, k * X.shape[1]):
            dist[rows] = ((X[rows, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
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
            if prev > 0 and (prev - curr) / prev < _KMEANS_TOL:
                centers = new_centers
                break
        centers = new_centers
    return assign, centers, history


# ---------------------------------------------------------------- PCA / viz

def pca_top_components(X, n_components: int = 2):
    """Leading principal components from the eigendecomposition of the d×d
    covariance (``np.linalg.eigh``).

    Returns (components (c, d), eigenvalues, total_variance). Covariance uses
    the 1/n normalization so discarded-eigenvalue sums match mean squared
    reconstruction error exactly. Component signs follow the convention that
    the largest-magnitude coordinate is positive.
    """
    X = np.asarray(X, np.float64)
    n, d = X.shape
    if n_components > d:
        raise ValueError("more components than dimensions")
    Xc = X - X.mean(axis=0)
    cov = (Xc.T @ Xc) / n
    total_variance = float(np.trace(cov))
    if total_variance <= 0:
        raise ValueError("degenerate input: zero variance")
    eigs, vecs = np.linalg.eigh(cov)                  # ascending
    eigs = eigs[::-1][:n_components].copy()
    comps = vecs[:, ::-1][:, :n_components].T.copy()
    peak = np.argmax(np.abs(comps), axis=1)
    comps[comps[np.arange(n_components), peak] < 0] *= -1
    return comps, eigs, total_variance


def project_2d(X):
    """Top-2 PCA projection; returns (coords, explained_variance_ratio)."""
    comps, eigs, total = pca_top_components(X, 2)
    Xc = np.asarray(X, np.float64) - np.asarray(X, np.float64).mean(axis=0)
    return Xc @ comps.T, eigs / total


def silhouette_score(X, labels) -> float:
    """Mean silhouette coefficient with Euclidean distances.

    Points in singleton clusters contribute 0.
    """
    X = np.asarray(X, np.float64)
    labels = np.asarray(labels)
    n = len(X)
    if n != len(labels):
        raise ValueError("X and labels must align")
    uniq, which = np.unique(labels, return_inverse=True)
    if len(uniq) < 2:
        raise ValueError("silhouette needs at least two classes")
    members = [labels == c for c in uniq]
    scores = np.zeros(n)
    for rows in _row_blocks(n, n * X.shape[1]):
        d2 = ((X[rows, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        for i, dist in zip(range(rows.start, rows.stop), np.sqrt(np.maximum(d2, 0.0))):
            n_same = int(members[which[i]].sum())
            if n_same <= 1:
                continue
            a = dist[members[which[i]]].sum() / (n_same - 1)
            b = min(dist[mask].mean() for j, mask in enumerate(members) if j != which[i])
            m = max(a, b)
            scores[i] = (b - a) / m if m > 0 else 0.0
    return float(scores.mean())


_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
]


def scatter_csv(path, ids, coords, classes) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["id", "x", "y", "class"])
        for i, (x, y), c in zip(ids, coords, classes):
            w.writerow([i, repr(float(x)), repr(float(y)), c])


def scatter_svg(path, coords, classes) -> None:
    """Standalone 640-pixel-square SVG scatter, one color per class."""
    coords = np.asarray(coords, np.float64)
    classes = list(classes)
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    size, margin = 640, 20
    inner = size - 2 * margin
    uniq = sorted(set(classes), key=str)
    color = {c: _PALETTE[i % len(_PALETTE)] for i, c in enumerate(uniq)}
    with open(path, "w", encoding="utf-8") as f:
        f.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
                f'viewBox="0 0 {size} {size}">\n')
        f.write(f'<rect width="{size}" height="{size}" fill="white"/>\n')
        for (x, y), c in zip(coords, classes):
            px = margin + (x - lo[0]) / span[0] * inner
            py = size - margin - (y - lo[1]) / span[1] * inner
            f.write(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.0" '
                    f'fill="{color[c]}" fill-opacity="0.8"/>\n')
        for i, c in enumerate(uniq):
            f.write(f'<circle cx="{margin}" cy="{margin + 14 * i}" r="4" fill="{color[c]}"/>\n')
            f.write(f'<text x="{margin + 8}" y="{margin + 14 * i + 4}" '
                    f'font-size="11">{c}</text>\n')
        f.write("</svg>\n")
