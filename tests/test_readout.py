"""Pseudoinverse readout, classification, CV, and linear baselines."""
import numpy as np
import pytest

from qreservoir import (ClassPrediction, ConfigError, FeatureSeries,
                        ReadoutWeights, fit_classifier, fit_linear_baseline,
                        fit_regression, k_fold_cv, nmse, predict,
                        predict_class, stratified_folds)


def test_regression_recovers_exact_affine_map():
    w = fit_regression([[1.0], [2.0]], [3.0, 5.0])
    assert w.matrix.shape == (2, 1)
    assert np.allclose(w.matrix[:, 0], [2.0, 1.0])
    assert np.allclose(predict(w, [[1.0], [2.0]]), [3.0, 5.0])


def test_regression_zero_targets_give_zero_weights():
    rng = np.random.default_rng(0)
    w = fit_regression(rng.standard_normal((10, 3)), np.zeros(10))
    assert np.abs(w.matrix).max() < 1e-12


def test_regression_minimum_norm_splits_duplicate_columns():
    # least squares is underdetermined here; the SVD route picks the
    # minimum-norm solution, which weights identical columns equally
    x = np.array([[1.0, 1.0], [2.0, 2.0]])
    w = fit_regression(x, [2.0, 4.0]).matrix[:, 0]
    assert np.allclose(w, [1.0, 1.0, 0.0], atol=1e-10)


def test_regression_accepts_feature_series_and_multi_output():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 3))
    y = x @ rng.standard_normal((3, 2)) + 0.5
    w = fit_regression(FeatureSeries(x), y)
    assert w.num_outputs == 2
    assert np.abs(predict(w, x) - y).max() < 1e-10


def test_regression_validation():
    with pytest.raises(ValueError):
        fit_regression([[1.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_regression([[np.nan]], [1.0])
    with pytest.raises(ValueError):
        predict(fit_regression([[1.0], [2.0]], [1.0, 2.0]), [[1.0, 2.0]])


def test_regression_train_optimum_cannot_be_improved():
    # independent check of the normal equations: any small perturbation of
    # the fitted weights increases training MSE
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.standard_normal((12, 4))
        y = rng.standard_normal(12)
        w = fit_regression(x, y)
        base = np.mean((predict(w, x) - y) ** 2)
        delta = rng.standard_normal(w.matrix.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        bumped = ReadoutWeights(w.matrix + delta)
        assert np.mean((predict(bumped, x) - y) ** 2) >= base - 1e-12


def test_readout_weights_validation():
    with pytest.raises(ValueError):
        ReadoutWeights(np.array([[1.0]]))  # no room for a bias row
    with pytest.raises(ValueError):
        ReadoutWeights(np.full((3, 1), np.nan))
    w = ReadoutWeights(np.array([1.0, 2.0, 3.0]))  # 1-d becomes one output
    assert w.feature_width == 2 and w.num_outputs == 1


def test_nmse_reference_points():
    y = np.array([1.0, -2.0, 3.0])
    assert nmse(y, y) == 0.0
    assert nmse(np.zeros(3), y) == pytest.approx(1.0)
    assert nmse(2 * y, y) == pytest.approx(1.0)
    assert nmse(3 * y, 3 * y + 0.0) == 0.0
    # scale invariance
    p = np.array([1.1, -1.8, 3.3])
    assert nmse(5 * p, 5 * y) == pytest.approx(nmse(p, y))
    with pytest.raises(ValueError):
        nmse(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        nmse(np.zeros(3), np.zeros(4))


# affinely independent class means, so an affine map hits the one-hot
# targets exactly and argmax has a wide margin over the jitter
_CLASS_MEANS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])


def separable_blocks(seed=0):
    rng = np.random.default_rng(seed)
    blocks, labels = [], []
    for c in range(3):
        for _ in range(6):
            blocks.append(_CLASS_MEANS[c] + rng.normal(0, 0.01, (5, 2)))
            labels.append(c)
    return blocks, np.array(labels)


def test_classifier_fits_separable_blocks():
    blocks, labels = separable_blocks()
    w = fit_classifier(blocks, labels)
    assert w.num_outputs == 3
    preds = [predict_class(w, b) for b in blocks]
    assert [p.class_index for p in preds] == labels.tolist()
    assert not any(p.tie for p in preds)
    assert all(len(p.scores) == 3 for p in preds)


def test_classifier_label_validation():
    blocks, labels = separable_blocks()
    with pytest.raises(ValueError):
        fit_classifier(blocks, labels[:-1])
    with pytest.raises(ValueError):
        fit_classifier(blocks[:6] + blocks[12:], labels[:6].tolist() +
                       labels[12:].tolist())  # labels {0, 2}: class 1 unseen
    with pytest.raises(ValueError):
        fit_classifier(blocks[:6], labels[:6])  # only class 0 present
    with pytest.raises(ValueError):
        fit_classifier([np.zeros((4, 2)), np.zeros((4, 3))], [0, 1])


def test_classifier_rejects_non_finite_block():
    blocks, labels = separable_blocks()
    blocks[4] = blocks[4].copy()
    blocks[4][2, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        fit_classifier(blocks, labels)


def test_predict_class_tie_resolution():
    # all-zero weights score every class identically
    w = ReadoutWeights(np.zeros((3, 3)))
    p = predict_class(w, np.ones((4, 2)))
    assert isinstance(p, ClassPrediction)
    assert p.class_index == 0 and p.tie
    with pytest.raises(ValueError):
        predict_class(w, np.empty((0, 2)))


def test_labels_must_be_integers():
    # truncating these would silently train on [0, 1, 2, 0, 1, 2]
    blocks = [np.ones((5, 2))] * 6
    floats = [0.0, 1.7, 2.2, 0.4, 1.0, 2.9]
    for call in (lambda: fit_classifier(blocks, floats),
                 lambda: k_fold_cv(blocks, floats, 2),
                 lambda: stratified_folds(floats, 2),
                 lambda: fit_classifier(blocks, [0, 1, 2, 0, 1, np.nan]),
                 lambda: fit_classifier(blocks, ["0", "1", "2"] * 2)):
        with pytest.raises(ValueError, match="labels must be integers"):
            call()
    whole = fit_classifier(blocks, [0.0, 1.0, 2.0] * 2)
    assert whole.num_outputs == 3


def test_predict_class_near_tie_is_a_tie():
    # identical blocks give three class scores of 1/3 that differ only in
    # the last bits; the lowest index wins and the tie is reported
    labels = np.repeat([0, 1, 2], 5)
    w = fit_classifier([np.ones((5, 2))] * labels.size, labels)
    p = predict_class(w, np.ones((5, 2)))
    assert max(p.scores) - min(p.scores) < 1e-15
    assert p.class_index == 0 and p.tie
    with pytest.raises(ValueError, match="non-finite"):
        predict_class(w, np.full((5, 2), np.nan))


def test_predict_class_single_timestep_block():
    w = ReadoutWeights(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert predict_class(w, np.array([[2.0]])).class_index == 0
    assert predict_class(w, np.array([[-2.0]])).class_index == 1


def test_stratified_folds_partition():
    labels = np.repeat([0, 1, 2], 20)
    folds = stratified_folds(labels, 10, seed=4)
    assert len(folds) == 10
    assert all(f.size == 6 for f in folds)
    for f in folds:
        assert np.bincount(labels[f], minlength=3).tolist() == [2, 2, 2]
    merged = np.sort(np.concatenate(folds))
    assert np.array_equal(merged, np.arange(60))
    assert all(np.array_equal(a, b) for a, b in
               zip(folds, stratified_folds(labels, 10, seed=4)))
    with pytest.raises(ValueError):
        stratified_folds(labels, 25)  # only 20 per class
    with pytest.raises(ValueError):
        stratified_folds(labels, 1)


def test_k_fold_cv_constant_predictor_scores_chance():
    # identical blocks: each fold's readout ties every held-out sample across
    # all classes and resolves it to class 0, so each stratified fold scores
    # exactly 1/3 and column 0 of the confusion matrix holds every sample
    _, labels = separable_blocks()
    blocks = [np.ones((5, 2))] * labels.size
    report = k_fold_cv(blocks, labels, 6)
    assert np.array_equal(report.fold_accuracies, np.full(6, 1 / 3))
    assert np.array_equal(report.confusion, [[6, 0, 0]] * 3)
    assert len(report.folds) == 6
    assert all(np.array_equal(a, b) for a, b in
               zip(report.folds, stratified_folds(labels, 6, 0)))


def test_k_fold_cv_separable_data_is_perfect():
    blocks, labels = separable_blocks()
    report = k_fold_cv(blocks, labels, 6)
    assert report.mean_accuracy == 1.0
    assert report.std_accuracy == 0.0
    assert np.array_equal(report.confusion, np.diag([6, 6, 6]))


def test_linear_baseline_recovers_lagged_affine_target():
    rng = np.random.default_rng(5)
    u = rng.uniform(0.0, 0.2, size=40)
    y = np.zeros(40)
    y[1:] = 2.0 * u[:-1] + 3.0  # exactly linear in the lag-1 input
    res = fit_linear_baseline(u, y, split=(2, 28, 10), feature_lag=1)
    assert res.weight == pytest.approx(2.0)
    assert res.bias == pytest.approx(3.0)
    assert res.nmse_train < 1e-20 and res.nmse_test < 1e-20


def test_linear_baseline_lag_zero_alignment():
    rng = np.random.default_rng(6)
    u = rng.uniform(0.0, 0.2, size=30)
    y = -1.5 * u + 0.25
    res = fit_linear_baseline(u, y, split=(0, 20, 10), feature_lag=0)
    assert res.weight == pytest.approx(-1.5)
    assert res.nmse_test < 1e-20


def test_linear_baseline_validation():
    with pytest.raises(ValueError):
        fit_linear_baseline(np.zeros(5), np.zeros(6), split=(0, 3, 2))
    with pytest.raises(ConfigError):
        fit_linear_baseline(np.ones(5), np.ones(5), split=(2, 3, 2))
