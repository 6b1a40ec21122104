import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fane.evaluate import (LinearSVM, SplitSpec, evaluate_classification,
                           kmeans, macro_f1, micro_f1, pca_top_components,
                           project_2d, silhouette_score, split,
                           stratified_split, sweep_grid)


# ---------------------------------------------------------------- splits

def test_split_even():
    labels = np.array([0] * 5 + [1] * 5)
    tr, te = stratified_split(labels, 0.5, np.random.default_rng(0))
    assert len(tr) == 5 and len(te) == 5
    assert set(tr) | set(te) == set(range(10))
    assert not set(tr) & set(te)


def test_split_deterministic_by_seed():
    labels = np.repeat([0, 1, 2], 10)
    spec = SplitSpec(train_ratio=0.3, repetitions=3, seed=7)
    a = split(labels, spec)
    b = split(labels, spec)
    for (t1, e1), (t2, e2) in zip(a, b):
        assert np.array_equal(t1, t2) and np.array_equal(e1, e2)


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

def test_svm_separable_toy_perfect_training_accuracy():
    X = np.array([[2.0, 1.5], [1.5, 2.0], [2.5, 2.5],
                  [-2.0, -1.0], [-1.0, -2.0], [-2.5, -2.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    clf = LinearSVM(C=10.0, iters=500).fit(X, y)
    assert micro_f1(clf.predict(X), y) == 1.0


def test_svm_single_class_rejected():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        LinearSVM(C=1.0).fit(X, np.zeros(4, int))


def test_svm_matches_brute_force_margin_maximizer():
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

    clf = LinearSVM(C=100.0, iters=4000).fit(X, y)
    gx, gy = np.meshgrid(np.linspace(-3, 3, 7), np.linspace(-3, 3, 7))
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    grid_c = grid - X.mean(axis=0)
    scores = grid_c @ best_w
    clear = np.abs(scores) > 0.25 * best_margin   # skip razor-edge points
    oracle_pred = np.where(scores > 0, 1, 0)
    got = clf.predict(grid)
    assert np.array_equal(got[clear], oracle_pred[clear])


def test_svm_scaling_invariance_exact():
    rng = np.random.default_rng(33)
    X = rng.normal(size=(40, 6))
    y = rng.integers(0, 3, size=40)
    Xt = rng.normal(size=(15, 6))
    a = LinearSVM(C=0.8, iters=300).fit(X, y)
    b = LinearSVM(C=0.2, iters=300).fit(2.0 * X, y)
    assert np.array_equal(a.predict(Xt), b.predict(2.0 * Xt))
    assert np.array_equal(a.decision_scores(Xt), b.decision_scores(2.0 * Xt))


def test_svm_tie_breaks_toward_smaller_class():
    clf = LinearSVM(C=1.0)
    clf.classes_ = np.array([3, 5])
    clf.mean_ = np.zeros(2)
    clf.weights_ = np.zeros((2, 2))   # all scores tie
    assert clf.predict(np.ones((3, 2))).tolist() == [3, 3, 3]


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


def test_run_sweep_trains_once_per_dimension(tmp_path):
    import io
    from fane import WalkParams, load_attributes, load_edge_list, load_labels
    from fane.evaluate import run_sweep
    g = load_edge_list(io.StringIO("0 1\n1 2\n2 3\n3 0\n0 2\n1 3\n"))
    load_attributes(io.StringIO("0 0\n1 0\n2 1\n3 1\n"), g)
    load_labels(io.StringIO("0 a\n1 a\n2 b\n3 b\n"), g)
    csv_path = tmp_path / "sweep.csv"
    rows, ds, cs, matrix = run_sweep(
        g, WalkParams(walk_length=8, walks_per_node=4, seed=2),
        d_grid=[2, 4], C_grid=[0.5, 1.0], ratio=0.5, repetitions=2, seed=2,
        window=2, epochs=1, out_csv=csv_path,
        out_matrix=tmp_path / "matrix.csv", out_svg=tmp_path / "sweep.svg")
    assert matrix.shape == (2, 2)
    assert len(rows) == 2 * 2 * 2
    assert csv_path.read_text().startswith("ratio,rep,C,d,micro_f1,macro_f1")
    assert (tmp_path / "matrix.csv").exists()
    assert (tmp_path / "sweep.svg").read_text().startswith("<svg")


def test_sweep_grid_counts_and_determinism():
    rng = np.random.default_rng(16)
    X = np.concatenate([rng.normal(0, 0.4, (20, 4)) + [2, 0, 0, 0],
                        rng.normal(0, 0.4, (20, 4)) - [2, 0, 0, 0]])
    y = np.repeat([0, 1], 20)
    feats = {4: X, 8: np.hstack([X, X])}
    rows, ds, cs, matrix = sweep_grid(feats, y, C_grid=[0.5, 0.5, 1.0],
                                      ratio=0.5, repetitions=3, seed=1)
    assert matrix.shape == (2, 3)
    assert len(rows) == 2 * 3 * 3
    # identical C values give identical scores on fixed features
    assert matrix[0, 0] == matrix[0, 1]
    assert matrix[1, 0] == matrix[1, 1]


def test_sweep_grid_cells_are_evaluate_classification_calls():
    """Each (d, C) cell's rows are one evaluate_classification call's rows,
    C and d included, and its matrix entry is their mean Micro-F1."""
    rng = np.random.default_rng(17)
    X = np.concatenate([rng.normal(0, 0.8, (15, 3)) + [1, 0, 0],
                        rng.normal(0, 0.8, (15, 3)) - [1, 0, 0],
                        rng.normal(0, 0.8, (15, 3)) + [0, 1, 0]])
    y = np.repeat([0, 1, 2], 15)
    feats = {3: X, 5: np.hstack([X, X[:, :2] ** 2])}
    C_grid = [0.1, 2.0]
    rows, ds, cs, matrix = sweep_grid(feats, y, C_grid, ratio=0.4, repetitions=3,
                                      seed=5, iters=200)
    assert (ds, cs) == ([3, 5], C_grid)
    assert len(rows) == len(ds) * len(C_grid) * 3
    cells = iter(rows[k:k + 3] for k in range(0, len(rows), 3))
    for i, d in enumerate(ds):
        for j, C in enumerate(C_grid):
            report = evaluate_classification(feats[d], y, [0.4], C, repetitions=3,
                                             seed=5, iters=200)
            cell = next(cells)
            assert cell == report.rows
            assert all(r["C"] == C and r["d"] == d for r in cell)
            assert matrix[i, j] == report.mean_micro(0.4)
