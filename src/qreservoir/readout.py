"""Trained components: pseudoinverse linear readout for regression and
classification, winner-takes-all prediction, NMSE, stratified k-fold CV, and
the linear baselines the reservoir is compared against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import FeatureSeries

DEFAULT_RCOND = 1e-10


def _feature_rows(features) -> np.ndarray:
    if isinstance(features, FeatureSeries):
        return features.values
    rows = np.asarray(features, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[:, None]
    return rows


def _with_bias(rows: np.ndarray) -> np.ndarray:
    return np.hstack([rows, np.ones((rows.shape[0], 1))])


@dataclass(frozen=True, eq=False)
class ReadoutWeights:
    """W_out with the bias row last: shape (feature_width + 1, num_outputs)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=np.float64))
        if m.ndim == 1:
            m = m[:, None]
        if m.ndim != 2 or m.shape[0] < 2:
            raise ValueError(f"weights must be (features+1, outputs), got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("weights contain NaN/Inf")
        object.__setattr__(self, "matrix", m)

    @property
    def feature_width(self) -> int:
        return self.matrix.shape[0] - 1

    @property
    def num_outputs(self) -> int:
        return self.matrix.shape[1]

    def to_csv(self, path) -> None:
        # one row per feature, one column per output, final row = bias
        np.savetxt(path, self.matrix, delimiter=",", fmt="%.17g")

    @classmethod
    def from_csv(cls, path) -> "ReadoutWeights":
        return cls(np.loadtxt(path, delimiter=",", ndmin=2))


def _solve(x_aug: np.ndarray, y: np.ndarray) -> np.ndarray:
    w, *_ = np.linalg.lstsq(x_aug, y, rcond=DEFAULT_RCOND)
    return w


def fit_regression(features, targets) -> ReadoutWeights:
    """Minimum-norm least-squares readout (SVD cutoff DEFAULT_RCOND * sigma_max)."""
    rows = _feature_rows(features)
    y = np.asarray(targets, dtype=np.float64)
    if y.shape[0] != rows.shape[0]:
        raise ValueError(
            f"{rows.shape[0]} feature rows vs {y.shape[0]} targets")
    if rows.shape[0] < 1:
        raise ValueError("need at least one sample")
    if not np.isfinite(rows).all() or not np.isfinite(y).all():
        raise ValueError("non-finite features or targets")
    w = _solve(_with_bias(rows), y if y.ndim > 1 else y[:, None])
    return ReadoutWeights(w)


def predict(weights: ReadoutWeights, features) -> np.ndarray:
    rows = _feature_rows(features)
    if rows.shape[1] != weights.feature_width:
        raise ValueError(
            f"features have width {rows.shape[1]}, weights expect "
            f"{weights.feature_width}")
    out = _with_bias(rows) @ weights.matrix
    return out[:, 0] if weights.num_outputs == 1 else out


def nmse(predictions, targets, window=None) -> float:
    """sum((y_hat - y)^2) / sum(y^2) over the window (whole series if None)."""
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {y.shape}")
    if window is not None:
        p, y = p[window], y[window]
    if y.size == 0:
        raise ValueError("empty evaluation window")
    power = float(np.sum(y * y))
    if power == 0.0:
        raise ValueError("all-zero targets: NMSE normalization undefined")
    return float(np.sum((p - y) ** 2)) / power


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def fit_classifier(blocks, labels, num_classes=None) -> ReadoutWeights:
    """Concatenate per-sample feature blocks (rows = timesteps), repeat each
    sample's one-hot target at every timestep, solve by pseudoinverse.
    """
    blocks = [_feature_rows(b) for b in blocks]
    labels = np.asarray(labels, dtype=int)
    if len(blocks) != labels.size or not blocks:
        raise ValueError(f"{len(blocks)} blocks vs {labels.size} labels")
    width = blocks[0].shape[1]
    for b in blocks:
        if b.shape[1] != width:
            raise ValueError(
                f"inconsistent block widths: {b.shape[1]} vs {width}")
    k = int(num_classes) if num_classes is not None else int(labels.max()) + 1
    if k < 2:
        raise ValueError(f"need at least 2 classes, got {k}")
    present = np.unique(labels)
    missing = sorted(set(range(k)) - set(present.tolist()))
    if missing or labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must cover 0..{k - 1}; missing classes {missing}")
    x = np.vstack(blocks)
    y = np.repeat(_one_hot(labels, k), [b.shape[0] for b in blocks], axis=0)
    return ReadoutWeights(_solve(_with_bias(x), y))


@dataclass(frozen=True)
class ClassPrediction:
    class_index: int
    tie: bool
    scores: tuple


def predict_class(weights: ReadoutWeights, block) -> ClassPrediction:
    """Winner-takes-all: argmax of the time-averaged class scores.

    Exact ties resolve to the lowest index and set the tie flag.
    """
    rows = _feature_rows(block)
    if rows.shape[0] < 1:
        raise ValueError("empty block")
    scores = predict(weights, rows)
    if scores.ndim == 1:
        scores = scores[:, None]
    avg = scores.mean(axis=0)
    best = int(np.argmax(avg))
    tie = int((avg == avg[best]).sum()) > 1
    return ClassPrediction(best, tie, tuple(float(v) for v in avg))


@dataclass(frozen=True, eq=False)
class CvReport:
    fold_accuracies: np.ndarray
    confusion: np.ndarray            # aggregated over folds; rows = true class
    per_fold_confusions: tuple

    @property
    def mean_accuracy(self) -> float:
        return float(self.fold_accuracies.mean())

    @property
    def std_accuracy(self) -> float:
        return float(self.fold_accuracies.std())


def stratified_folds(labels, k: int, seed: int = 0):
    """Deterministic stratified partition: per class, seeded shuffle then
    round-robin deal. Returns a list of k index arrays."""
    labels = np.asarray(labels, dtype=int)
    if k < 2:
        raise ValueError(f"need k >= 2 folds, got {k}")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.size < k:
            raise ValueError(
                f"class {c} has {idx.size} samples, fewer than {k} folds")
        for pos, sample in enumerate(rng.permutation(idx)):
            folds[pos % k].append(int(sample))
    return [np.array(sorted(f), dtype=int) for f in folds]


def k_fold_cv(samples, labels, k: int, pipeline, seed: int = 0) -> CvReport:
    """pipeline(train_samples, train_labels) must return a callable mapping one
    sample to a predicted class index."""
    labels = np.asarray(labels, dtype=int)
    if len(samples) != labels.size:
        raise ValueError(f"{len(samples)} samples vs {labels.size} labels")
    num_classes = int(labels.max()) + 1
    folds = stratified_folds(labels, k, seed)
    accs = np.empty(k)
    confusions = []
    for fi, test_idx in enumerate(folds):
        mask = np.ones(labels.size, dtype=bool)
        mask[test_idx] = False
        train_idx = np.flatnonzero(mask)
        predictor = pipeline([samples[i] for i in train_idx], labels[train_idx])
        conf = np.zeros((num_classes, num_classes), dtype=int)
        for i in test_idx:
            pred = predictor(samples[i])
            conf[labels[i], int(pred)] += 1
        confusions.append(conf)
        accs[fi] = np.trace(conf) / conf.sum()
    return CvReport(accs, np.sum(confusions, axis=0), tuple(confusions))


@dataclass(frozen=True)
class LinearBaselineResult:
    weight: float
    bias: float
    nmse_train: float
    nmse_test: float


def fit_linear_baseline(inputs, targets, split,
                        feature_lag: int = 1) -> LinearBaselineResult:
    """Scalar linear model: target row t is predicted from input row
    t - feature_lag (lag 1 pairs y_{t+1} with u_t; lag 0 pairs same-index
    rows, which is the alignment the shipped reference statistics use).
    Out-of-range input rows read as 0.
    """
    u = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if u.shape != y.shape or u.ndim != 1:
        raise ValueError(f"need matching 1-d series, got {u.shape} vs {y.shape}")
    washout, train, test = split
    if washout + train + test > y.size:
        raise ValueError(
            f"windows need {washout + train + test} rows, series has {y.size}")

    def lagged(idx0):  # 0-based target rows -> feature values
        src = idx0 - feature_lag
        vals = np.zeros(idx0.size)
        ok = (src >= 0) & (src < u.size)
        vals[ok] = u[src[ok]]
        return vals

    tr = np.arange(washout, washout + train)
    te = np.arange(washout + train, washout + train + test)
    x_tr = np.column_stack([lagged(tr), np.ones(tr.size)])
    w, *_ = np.linalg.lstsq(x_tr, y[tr], rcond=DEFAULT_RCOND)
    pred_tr = x_tr @ w
    pred_te = np.column_stack([lagged(te), np.ones(te.size)]) @ w
    return LinearBaselineResult(
        weight=float(w[0]), bias=float(w[1]),
        nmse_train=nmse(pred_tr, y[tr]), nmse_test=nmse(pred_te, y[te]))


def linear_classifier_pipeline():
    """CV pipeline for the scalar linear classifier baseline: per-timestep
    scores from the raw series, then winner-takes-all."""
    def fit(train_samples, train_labels):
        num_classes = int(np.max(train_labels)) + 1
        blocks = [_feature_rows(s) for s in train_samples]
        weights = fit_classifier(blocks, train_labels, num_classes=num_classes)

        def predict_one(sample):
            return predict_class(weights, _feature_rows(sample)).class_index
        return predict_one
    return fit


def fit_linear_classifier_baseline(samples, labels, k: int = 10,
                                   seed: int = 0) -> CvReport:
    """k-fold CV of the scalar linear classifier on raw series."""
    return k_fold_cv(samples, labels, k, linear_classifier_pipeline(), seed=seed)
