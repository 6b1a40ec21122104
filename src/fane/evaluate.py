"""Evaluation of embeddings: node classification, clustering, 2-D projection.

The classifier is a one-vs-rest linear hinge-loss machine trained by
full-batch subgradient descent (Pegasos-style, lambda = 1/(C * n_train)),
with features centered by the training mean and no separate bias term.
F1 scores, k-means, PCA, and silhouette are implemented here directly so
results do not depend on external library versions.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field


import numpy as np

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------- splits

@dataclass(frozen=True)
class SplitSpec:
    train_ratio: float
    repetitions: int = 10
    seed: int = 1

    def __post_init__(self):
        if not (0.0 < self.train_ratio < 1.0):
            raise ValueError("train_ratio must be in (0, 1)")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


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


def split(labels: np.ndarray, spec: SplitSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (train, test) pair per repetition, reproducible from the seed."""
    out = []
    for rep in range(spec.repetitions):
        rng = np.random.default_rng((spec.seed, rep))
        out.append(stratified_split(labels, spec.train_ratio, rng))
    return out


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

class LinearSVM:
    """One-vs-rest linear hinge-loss classifier, full-batch subgradient descent.

    lambda = 1/(C * n_train); step 1/(lambda * t) with projection onto the
    1/sqrt(lambda) ball; the averaged second-half iterate is used for
    prediction. Ties in the argmax go to the smaller class id.
    """

    def __init__(self, C: float = 1.0, iters: int | None = None):
        if not (C > 0):
            raise ValueError("C must be positive")
        self.C = C
        self.iters = iters
        self.classes_ = None
        self.weights_ = None
        self.mean_ = None

    def fit(self, X, y):
        X = np.asarray(X, np.float64)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ValueError("training set has a single class")
        n = len(y)
        lam = 1.0 / (self.C * n)
        # subgradient descent needs ~1/lambda steps to converge
        iters = self.iters if self.iters else min(30000, max(1000, int(20.0 / lam)))
        self.mean_ = X.mean(axis=0)
        Xc = X - self.mean_
        Y = np.where(y[:, None] == self.classes_[None, :], 1.0, -1.0)
        k, d = len(self.classes_), X.shape[1]
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
        self.weights_ = W_sum / n_avg
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
    """Micro-/Macro-F1 per (ratio, rep) split. C, seed and repetitions are the
    settings that made the rows; None in `save_sweep`, whose rows span several C."""

    C: float | None
    seed: int | None
    repetitions: int | None
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
                            seed: int = 1, iters: int | None = None) -> ClassificationReport:
    """Train-ratio sweep on fixed features: the one loop that fits a `LinearSVM`.

    Each split of each ratio fits the train rows and scores the test rows; each
    row carries C and d, the feature dimension.
    """
    labels = np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    report = ClassificationReport(C=C, seed=seed, repetitions=repetitions)
    for ratio in ratios:
        spec = SplitSpec(train_ratio=ratio, repetitions=repetitions, seed=seed)
        if counts.max() < 2:
            raise ValueError(f"train ratio {ratio}: every class has one member, so all "
                             f"{len(labels)} rows go to train and no row is left to test")
        for rep, (tr, te) in enumerate(split(labels, spec)):
            clf = LinearSVM(C=C, iters=iters).fit(features[tr], labels[tr])
            pred, truth = clf.predict(features[te]), labels[te]
            report.rows.append({"ratio": ratio, "rep": rep, "C": C, "d": features.shape[1],
                                "micro_f1": micro_f1(pred, truth),
                                "macro_f1": macro_f1(pred, truth, classes=classes)})
    return report


# ---------------------------------------------------------------- k-means

def kmeans(X, k: int, seed: int = 1, max_iter: int = 300, tol: float = 1e-6):
    """Lloyd iterations with k-means++ seeding.

    Returns (assignment, centers, inertia_history); stops after max_iter or
    when the relative inertia change drops below tol. Empty clusters are
    re-seeded with the point farthest from its center.
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


# ---------------------------------------------------------------- PCA / viz

def pca_top_components(X, n_components: int = 2, max_iter: int = 5000, tol: float = 1e-13):
    """Leading principal components by power iteration with deflation.

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
    comps = np.empty((n_components, d))
    eigs = np.empty(n_components)
    work = cov.copy()
    rng = np.random.default_rng(0x9E3779B9)
    for c in range(n_components):
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        for _ in range(max_iter):
            w = work @ v
            norm = np.linalg.norm(w)
            if norm == 0.0:
                break
            w /= norm
            if np.linalg.norm(w - v) < tol or np.linalg.norm(w + v) < tol:
                v = w
                break
            v = w
        lam = float(v @ work @ v)
        peak = int(np.argmax(np.abs(v)))
        if v[peak] < 0:
            v = -v
        comps[c] = v
        eigs[c] = lam
        work = work - lam * np.outer(v, v)
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


def scatter_svg(path, coords, classes, size: int = 640, radius: float = 3.0) -> None:
    """Standalone SVG scatter, one color per class."""
    coords = np.asarray(coords, np.float64)
    classes = list(classes)
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    margin = 20
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
            f.write(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{radius}" '
                    f'fill="{color[c]}" fill-opacity="0.8"/>\n')
        for i, c in enumerate(uniq):
            f.write(f'<circle cx="{margin}" cy="{margin + 14 * i}" r="4" fill="{color[c]}"/>\n')
            f.write(f'<text x="{margin + 8}" y="{margin + 14 * i + 4}" '
                    f'font-size="11">{c}</text>\n')
        f.write("</svg>\n")


def line_plot_svg(path, x_values, series: dict, title: str = "", size=(720, 480)) -> None:
    """Minimal SVG line plot: one polyline per named series over x_values."""
    w, h = size
    margin = 50
    xs = np.asarray(x_values, np.float64)
    all_y = np.concatenate([np.asarray(v, np.float64) for v in series.values()])
    ylo, yhi = float(all_y.min()), float(all_y.max())
    if yhi <= ylo:
        yhi = ylo + 1.0
    xlo, xhi = float(xs.min()), float(xs.max())
    if xhi <= xlo:
        xhi = xlo + 1.0

    def px(x):
        return margin + (x - xlo) / (xhi - xlo) * (w - 2 * margin)

    def py(y):
        return h - margin - (y - ylo) / (yhi - ylo) * (h - 2 * margin)

    with open(path, "w", encoding="utf-8") as f:
        f.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
                f'viewBox="0 0 {w} {h}">\n<rect width="{w}" height="{h}" fill="white"/>\n')
        f.write(f'<line x1="{margin}" y1="{h - margin}" x2="{w - margin}" y2="{h - margin}" stroke="black"/>\n')
        f.write(f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{h - margin}" stroke="black"/>\n')
        if title:
            f.write(f'<text x="{w / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>\n')
        f.write(f'<text x="{margin}" y="{h - margin + 16}" font-size="10">{xlo:g}</text>\n')
        f.write(f'<text x="{w - margin}" y="{h - margin + 16}" text-anchor="end" font-size="10">{xhi:g}</text>\n')
        f.write(f'<text x="{margin - 4}" y="{h - margin}" text-anchor="end" font-size="10">{ylo:.3g}</text>\n')
        f.write(f'<text x="{margin - 4}" y="{margin}" text-anchor="end" font-size="10">{yhi:.3g}</text>\n')
        for i, (name, ys) in enumerate(sorted(series.items())):
            col = _PALETTE[i % len(_PALETTE)]
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
            f.write(f'<polyline points="{pts}" fill="none" stroke="{col}" stroke-width="1.5"/>\n')
            f.write(f'<text x="{w - margin + 4}" y="{margin + 14 * i}" font-size="11" '
                    f'fill="{col}">{name}</text>\n')
        f.write("</svg>\n")


def run_sweep(graph, walk_params, d_grid, C_grid, ratio: float = 0.5,
              repetitions: int = 10, seed: int = 1, window: int = 5,
              epochs: int = 3, out_csv=None, out_matrix=None, out_svg=None):
    """Embed once per dimension, then score every (d, C) grid cell.

    ``graph`` is an AttributedGraph with labels; embeddings are cached per d
    so C only re-runs the classifier.
    """
    from .graph import build_augmented
    from .sgns import TrainParams, train
    from .walks import generate_corpus, preprocess_transitions

    ag = build_augmented(graph)
    model = preprocess_transitions(ag, walk_params)
    corpus = generate_corpus(ag, model)
    labeled = sorted(ag.labels)
    keys = [ag.node_names[v] for v in labeled]
    labels = np.array([ag.labels[v] for v in labeled])
    features_by_d = {}
    for d in d_grid:
        tp = TrainParams(dimension=d, window=window, epochs=epochs, seed=seed)
        emb = train(corpus.walks, tp, key_fn=ag.export_key)
        features_by_d[d] = emb.rows_for(keys).astype(np.float64)
    rows, ds, cs, matrix = sweep_grid(features_by_d, labels, C_grid,
                                      ratio=ratio, repetitions=repetitions, seed=seed)
    if out_csv:
        save_sweep(out_csv, rows, ds, cs, matrix, path_matrix=out_matrix,
                   path_svg=out_svg)
    return rows, ds, cs, matrix


def sweep_grid(features_by_d: dict, labels, C_grid, ratio: float = 0.5,
               repetitions: int = 10, seed: int = 1, iters: int | None = None):
    """F1 over a (d, C) grid of features keyed by dimension, one
    `evaluate_classification` call per cell. Returns (rows, ds, Cs, mean Micro-F1 matrix)."""
    ds = sorted(features_by_d)
    rows = []
    matrix = np.zeros((len(ds), len(C_grid)))
    for i, d in enumerate(ds):
        for j, C in enumerate(C_grid):
            report = evaluate_classification(features_by_d[d], labels, [ratio], C,
                                             repetitions=repetitions, seed=seed, iters=iters)
            rows += report.rows
            matrix[i, j] = report.mean_micro(ratio)
    return rows, ds, list(C_grid), matrix


def save_sweep(path_csv, rows, ds, C_grid, matrix, path_matrix=None, path_svg=None):
    ClassificationReport(C=None, seed=None, repetitions=None, rows=rows).save_csv(path_csv)
    if path_matrix:
        with open(path_matrix, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["d\\C"] + [str(c) for c in C_grid])
            for d, row in zip(ds, matrix):
                w.writerow([d] + [f"{v:.6f}" for v in row])
    if path_svg:
        series = {f"d={d}": matrix[i] for i, d in enumerate(ds)}
        line_plot_svg(path_svg, C_grid, series, title="Micro-F1 by C for each d")
