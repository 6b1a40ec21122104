import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fane import evaluate
from fane.evaluate import (LinearSVM, evaluate_classification,
                           kmeans, macro_f1, micro_f1, pca_top_components,
                           project_2d, silhouette_score, split,
                           stratified_split)
from oracles import pegasos_reference, unblocked_distances


# ---------------------------------------------------------------- splits

def test_split_even():
    labels = np.array([0] * 5 + [1] * 5)
    tr, te = stratified_split(labels, 0.5, np.random.default_rng(0))
    assert len(tr) == 5 and len(te) == 5
    assert set(tr) | set(te) == set(range(10))
    assert not set(tr) & set(te)


def test_split_deterministic_by_seed():
    labels = np.repeat([0, 1, 2], 10)
    a = split(labels, 0.3, 3, seed=7)
    b = split(labels, 0.3, 3, seed=7)
    assert len(a) == 3
    for (t1, e1), (t2, e2) in zip(a, b):
        assert np.array_equal(t1, t2) and np.array_equal(e1, e2)
    for ratio in (0.0, 1.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"train_ratio must be in \(0, 1\)"):
            split(labels, ratio, 3, seed=7)
    for repetitions in (0, -1):
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            split(labels, 0.3, repetitions, seed=7)


def test_split_stratified_counts():
    labels = np.array([0] * 8 + [1] * 2)
    tr, _ = stratified_split(labels, 0.5, np.random.default_rng(1))
    assert int((labels[tr] == 1).sum()) == 1
    assert int((labels[tr] == 0).sum()) == 4


def test_split_singleton_class_forced_into_train(caplog):
    labels = np.array([0] * 6 + [1])
    with caplog.at_level(logging.WARNING):
        tr, te = stratified_split(labels, 0.2, np.random.default_rng(2))
    assert 6 in tr
    assert "single member" in caplog.text


# ---------------------------------------------------------------- F1

def test_f1_perfect():
    y = np.array([0, 1, 2, 1])
    assert micro_f1(y, y) == 1.0
    assert macro_f1(y, y) == 1.0


def test_f1_hand_case():
    truth = np.array([0, 0, 0, 1])
    pred = np.array([0, 0, 0, 0])
    assert micro_f1(pred, truth) == pytest.approx(0.75)
    assert macro_f1(pred, truth) == pytest.approx(3 / 7)


def test_f1_all_wrong():
    truth = np.array([0, 0, 0])
    pred = np.array([1, 1, 1])
    assert micro_f1(pred, truth) == 0.0


def test_f1_empty_inputs_rejected():
    with pytest.raises(ValueError):
        micro_f1(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        macro_f1(np.array([]), np.array([]))


def test_macro_fixed_class_set():
    truth = np.array([0, 0])
    pred = np.array([0, 0])
    assert macro_f1(pred, truth, classes=[0, 1, 2]) == pytest.approx(1 / 3)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=60))
@settings(max_examples=80, deadline=None)
def test_majority_predictor_micro_equals_majority_frequency(raw):
    truth = np.asarray(raw)
    values, counts = np.unique(truth, return_counts=True)
    majority = values[np.argmax(counts)]
    pred = np.full_like(truth, majority)
    assert micro_f1(pred, truth) == pytest.approx(counts.max() / len(truth))
    assert macro_f1(pred, truth) <= 1.0


def test_macro_equals_micro_on_balanced_symmetric_errors():
    truth = np.array([0] * 10 + [1] * 10)
    pred = truth.copy()
    pred[[0, 1]] = 1
    pred[[10, 11]] = 0
    assert abs(macro_f1(pred, truth) - micro_f1(pred, truth)) < 1e-12


# ---------------------------------------------------------------- SVM

def test_svm_separable_toy_perfect_training_accuracy(monkeypatch):
    monkeypatch.setattr(evaluate, "_MAX_STEPS", 500)
    X = np.array([[2.0, 1.5], [1.5, 2.0], [2.5, 2.5],
                  [-2.0, -1.0], [-1.0, -2.0], [-2.5, -2.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    clf = LinearSVM(C=10.0).fit(X, y)
    assert micro_f1(clf.predict(X), y) == 1.0


def test_svm_single_class_rejected():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        LinearSVM(C=1.0).fit(X, np.zeros(4, int))


def test_svm_matches_brute_force_margin_maximizer(monkeypatch):
    # 6-point 2-D set; the oracle maximizes the hard margin of a hyperplane
    # through the origin of the centered data, found by scanning directions
    X = np.array([[2.0, 1.0], [3.0, 2.0], [2.5, 3.0],
                  [-1.0, -2.0], [-2.0, -1.0], [-3.0, -2.5]])
    y = np.array([1, 1, 1, 0, 0, 0])
    Xc = X - X.mean(axis=0)
    sign = np.where(y == 1, 1.0, -1.0)

    best_w, best_margin = None, -np.inf
    for theta in np.linspace(0, np.pi, 20001):
        w = np.array([np.cos(theta), np.sin(theta)])
        for flip in (w, -w):
            margin = float(np.min(sign * (Xc @ flip)))
            if margin > best_margin:
                best_margin, best_w = margin, flip
    assert best_margin > 0

    monkeypatch.setattr(evaluate, "_MAX_STEPS", 4000)
    clf = LinearSVM(C=100.0).fit(X, y)
    gx, gy = np.meshgrid(np.linspace(-3, 3, 7), np.linspace(-3, 3, 7))
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    grid_c = grid - X.mean(axis=0)
    scores = grid_c @ best_w
    clear = np.abs(scores) > 0.25 * best_margin   # skip razor-edge points
    oracle_pred = np.where(scores > 0, 1, 0)
    got = clf.predict(grid)
    assert np.array_equal(got[clear], oracle_pred[clear])


def test_svm_scaling_invariance_exact(monkeypatch):
    monkeypatch.setattr(evaluate, "_MAX_STEPS", 300)
    rng = np.random.default_rng(33)
    X = rng.normal(size=(40, 6))
    y = rng.integers(0, 3, size=40)
    Xt = rng.normal(size=(15, 6))
    a = LinearSVM(C=0.8).fit(X, y)
    b = LinearSVM(C=0.2).fit(2.0 * X, y)
    assert np.array_equal(a.predict(Xt), b.predict(2.0 * Xt))
    assert np.array_equal(a.decision_scores(Xt), b.decision_scores(2.0 * Xt))


def test_svm_tie_breaks_toward_smaller_class():
    clf = LinearSVM(C=1.0)
    clf.classes_ = np.array([3, 5])
    clf.mean_ = np.zeros(2)
    clf.weights_ = np.zeros((2, 2))   # all scores tie
    assert clf.predict(np.ones((3, 2))).tolist() == [3, 3, 3]


def _primal(clf, X, y):
    """Each class's ½‖w‖² + C·Σ hinge, recomputed from the fitted weights."""
    Y = np.where(np.asarray(y)[:, None] == clf.classes_[None, :], 1.0, -1.0)
    margins = Y * ((X - clf.mean_) @ clf.weights_.T)
    return 0.5 * (clf.weights_ ** 2).sum(axis=1) + clf.C * np.maximum(0.0, 1.0 - margins).sum(axis=0)


@pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("d", [2, 8, 128])
def test_svm_objective_and_predictions_match_pegasos_oracle(d, k, C):
    """The dual solver minimises the objective Pegasos minimised, at least as
    well per class, and predicts held-out rows as Pegasos does."""
    rng = np.random.default_rng(1000 * d + 10 * k + int(10 * C))
    n = 200
    y_all = rng.integers(0, k, n + 200)
    X_all = 2.0 * rng.normal(size=(k, d))[y_all] + rng.normal(scale=1.5, size=(n + 200, d))
    X, y, X_test = X_all[:n], y_all[:n], X_all[n:]
    got = LinearSVM(C=C).fit(X, y)
    want = pegasos_reference.fit(LinearSVM(C=C), X, y)
    assert got.gap_ < 1e-4
    assert np.all(_primal(got, X, y) <= _primal(want, X, y) * (1 + 1e-4))
    assert np.mean(got.predict(X_test) == want.predict(X_test)) >= 0.98


def test_svm_reports_steps_and_gap(caplog, monkeypatch):
    rng = np.random.default_rng(21)
    X = rng.normal(size=(120, 5))
    y = (X[:, 0] + 0.5 * rng.normal(size=120) > 0).astype(int)
    with caplog.at_level(logging.WARNING, logger="fane.evaluate"):
        clf = LinearSVM(C=1.0).fit(X, y)
    assert clf.gap_ < 1e-4 and 0 < clf.n_iter_ < evaluate._MAX_STEPS
    assert not caplog.records
    monkeypatch.setattr(evaluate, "_MAX_STEPS", 10)
    with caplog.at_level(logging.WARNING, logger="fane.evaluate"):
        capped = LinearSVM(C=1.0).fit(X, y)
    assert capped.n_iter_ == 10 and capped.gap_ >= 1e-4
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert "C=1, n=120" in record.getMessage()
    assert f"gap {capped.gap_:.3g}" in record.getMessage()


def test_linear_svm_split_scores_both_metrics():
    rng = np.random.default_rng(4)
    X = np.concatenate([rng.normal(0, 0.3, (20, 3)) + [2, 0, 0],
                        rng.normal(0, 0.3, (20, 3)) - [2, 0, 0]])
    y = np.repeat([0, 1], 20)
    tr, te = stratified_split(y, 0.5, rng)
    pred = LinearSVM(C=1.0).fit(X[tr], y[tr]).predict(X[te])
    mi, ma = micro_f1(pred, y[te]), macro_f1(pred, y[te], classes=[0, 1])
    assert mi > 0.9 and ma > 0.9


# ---------------------------------------------------------------- k-means

def test_kmeans_two_blobs():
    rng = np.random.default_rng(6)
    X = np.concatenate([rng.normal(0, 0.2, (30, 2)) + [5, 5],
                        rng.normal(0, 0.2, (30, 2)) - [5, 5]])
    assign, _, history = kmeans(X, 2, seed=3)
    assert len(set(assign[:30].tolist())) == 1
    assert len(set(assign[30:].tolist())) == 1
    assert assign[0] != assign[-1]
    for prev, curr in zip(history, history[1:]):
        assert curr <= prev + 1e-9


def test_kmeans_k_one_and_errors():
    X = np.random.default_rng(0).normal(size=(10, 2))
    assign, _, _ = kmeans(X, 1, seed=0)
    assert set(assign.tolist()) == {0}
    with pytest.raises(ValueError):
        kmeans(X, 11, seed=0)
    with pytest.raises(ValueError):
        kmeans(X, 0, seed=0)


def test_kmeans_deterministic():
    X = np.random.default_rng(1).normal(size=(40, 3))
    a, _, _ = kmeans(X, 4, seed=9)
    b, _, _ = kmeans(X, 4, seed=9)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("block", [None, 1, 37])
def test_kmeans_blocks_match_unblocked_oracle(block, monkeypatch):
    if block:
        monkeypatch.setattr(evaluate, "_BLOCK_ELEMENTS", block)
    X = np.random.default_rng(2).normal(size=(150, 3)) * [3.0, 1.0, 0.2]
    got = kmeans(X, 5, seed=4)
    want = unblocked_distances.kmeans(X, 5, seed=4)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2]


# ---------------------------------------------------------------- PCA

def test_pca_2d_projection_is_isometry_on_full_rank_2d():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(50, 2)) @ np.array([[2.0, 0.3], [0.1, 0.9]])
    coords, _ = project_2d(X)
    d_before = np.linalg.norm(X[:, None] - X[None, :], axis=2)
    d_after = np.linalg.norm(coords[:, None] - coords[None, :], axis=2)
    assert np.allclose(d_before, d_after, atol=1e-9)


def test_pca_explained_variance_ratio_exact_construction():
    # orthogonal zero-mean columns with population variances 9, 4, 1
    c1 = 3.0 * np.array([1, -1, 1, -1.0])
    c2 = 2.0 * np.array([1, 1, -1, -1.0])
    c3 = 1.0 * np.array([1, -1, -1, 1.0])
    X = np.stack([c1, c2, c3], axis=1)
    comps, eigs, total = pca_top_components(X, 2)
    assert eigs[0] / total == pytest.approx(9 / 14, abs=1e-10)
    assert eigs[1] / total == pytest.approx(4 / 14, abs=1e-10)


def test_pca_sign_convention():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 4)) * np.array([3.0, 1.0, 0.5, 0.1])
    comps, _, _ = pca_top_components(X, 2)
    for v in comps:
        assert v[np.argmax(np.abs(v))] > 0


def test_pca_reconstruction_error_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(13)
    for _ in range(5):
        X = rng.normal(size=(60, 6)) @ rng.normal(size=(6, 6))
        k = 2
        comps, eigs, total = pca_top_components(X, k)
        Xc = X - X.mean(axis=0)
        recon = (Xc @ comps.T) @ comps
        err = float(((Xc - recon) ** 2).sum(axis=1).mean())
        # oracle: full eigendecomposition of the population covariance
        evals = np.linalg.eigvalsh((Xc.T @ Xc) / len(X))[::-1]
        assert err == pytest.approx(float(evals[k:].sum()), abs=1e-8)
        assert eigs[0] == pytest.approx(float(evals[0]), abs=1e-8)


def test_pca_rejects_degenerate_input():
    with pytest.raises(ValueError):
        pca_top_components(np.ones((5, 3)), 2)


# ---------------------------------------------------------------- silhouette

def test_silhouette_separated_vs_mixed():
    rng = np.random.default_rng(14)
    a = rng.normal(0, 0.2, (25, 2))
    sep = np.concatenate([a + [6, 0], a - [6, 0]])
    labels = np.repeat([0, 1], 25)
    high = silhouette_score(sep, labels)
    mixed = np.concatenate([rng.normal(0, 1.0, (25, 2)), rng.normal(0, 1.0, (25, 2))])
    low = silhouette_score(mixed, labels)
    assert high > 0.8
    assert low < 0.2
    with pytest.raises(ValueError):
        silhouette_score(sep, np.zeros(50))


@pytest.mark.parametrize("block", [None, 1, 100])
def test_silhouette_blocks_match_unblocked_oracle(block, monkeypatch):
    if block:
        monkeypatch.setattr(evaluate, "_BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(18)
    X = rng.normal(size=(61, 4))
    labels = np.array(["a"] * 20 + ["b"] * 25 + ["c"] * 15 + ["lone"])
    assert silhouette_score(X, labels) == unblocked_distances.silhouette_score(X, labels)


def test_silhouette_memory_is_bounded_below_the_distance_matrix():
    rng = np.random.default_rng(19)
    n = 3000
    X = rng.normal(size=(n, 2))
    labels = rng.integers(0, 3, n)
    tracemalloc.start()
    try:
        silhouette_score(X, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 8, peak


# ---------------------------------------------------------------- reports

def test_evaluate_classification_report_shape(tmp_path):
    rng = np.random.default_rng(15)
    X = np.concatenate([rng.normal(0, 0.4, (30, 3)) + [2, 0, 0],
                        rng.normal(0, 0.4, (30, 3)) - [2, 0, 0]])
    y = np.repeat([0, 1], 30)
    report = evaluate_classification(X, y, [0.3, 0.6], C=1.0, repetitions=4, seed=2)
    assert len(report.rows) == 8
    summary = report.ratio_summary()
    assert [s["ratio"] for s in summary] == [0.3, 0.6]
    out = tmp_path / "report.csv"
    report.save_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "ratio,rep,C,d,micro_f1,macro_f1"
    assert len(lines) == 9
    assert all(line.split(",")[2:4] == ["1.0", "3"] for line in lines[1:])
