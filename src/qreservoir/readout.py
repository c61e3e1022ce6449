"""Trained components: pseudoinverse linear readout for regression and
classification, winner-takes-all prediction, NMSE, stratified k-fold CV, and
the linear baselines the reservoir is compared against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import check_split, feature_rows
from .errors import check_count

DEFAULT_RCOND = 1e-10

# Class scores within TIE_RTOL * max(1, |best|) of the best score are tied.
TIE_RTOL = 1e-12


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


def fit_regression(features, targets) -> ReadoutWeights:
    """Minimum-norm least-squares readout (SVD cutoff DEFAULT_RCOND * sigma_max)."""
    rows = feature_rows(features)
    y = np.asarray(targets, dtype=np.float64)
    if y.shape[0] != rows.shape[0]:
        raise ValueError(
            f"{rows.shape[0]} feature rows vs {y.shape[0]} targets")
    if rows.shape[0] < 1:
        raise ValueError("need at least one sample")
    if not np.isfinite(rows).all() or not np.isfinite(y).all():
        raise ValueError("non-finite features or targets")
    w, *_ = np.linalg.lstsq(_with_bias(rows), y if y.ndim > 1 else y[:, None],
                            rcond=DEFAULT_RCOND)
    return ReadoutWeights(w)


def predict(weights: ReadoutWeights, features) -> np.ndarray:
    rows = feature_rows(features)
    if rows.shape[1] != weights.feature_width:
        raise ValueError(
            f"features have width {rows.shape[1]}, weights expect "
            f"{weights.feature_width}")
    out = _with_bias(rows) @ weights.matrix
    return out[:, 0] if weights.num_outputs == 1 else out


def nmse(predictions, targets) -> float:
    """sum((y_hat - y)^2) / sum(y^2)."""
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {y.shape}")
    if y.size == 0:
        raise ValueError("empty evaluation window")
    power = float(np.sum(y * y))
    if power == 0.0:
        raise ValueError("all-zero targets: NMSE normalization undefined")
    return float(np.sum((p - y) ** 2)) / power


def check_labels(labels) -> np.ndarray:
    """Class labels as an int array; ValueError on any non-integer value."""
    raw = np.asarray(labels)
    if raw.dtype.kind == "f":
        whole = np.isfinite(raw) & (raw == np.trunc(raw))
        if not whole.all():
            raise ValueError(f"labels must be integers, got {raw[~whole][0]!r}")
    elif raw.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {raw.dtype}")
    return raw.astype(int)


def fit_classifier(blocks, labels) -> ReadoutWeights:
    """Concatenate per-sample feature blocks (rows = timesteps), repeat each
    sample's one-hot target at every timestep, and fit `fit_regression`.
    Labels must cover every class 0..labels.max().
    """
    blocks = [feature_rows(b) for b in blocks]
    labels = check_labels(labels)
    if len(blocks) != labels.size or not blocks:
        raise ValueError(f"{len(blocks)} blocks vs {labels.size} labels")
    width = blocks[0].shape[1]
    for b in blocks:
        if b.shape[1] != width:
            raise ValueError(
                f"inconsistent block widths: {b.shape[1]} vs {width}")
    k = int(labels.max()) + 1
    if k < 2:
        raise ValueError(f"need at least 2 classes, got {k}")
    missing = sorted(set(range(k)) - set(labels.tolist()))
    if missing or labels.min() < 0:
        raise ValueError(f"labels must cover 0..{k - 1}; missing classes {missing}")
    y = np.repeat(np.eye(k)[labels], [b.shape[0] for b in blocks], axis=0)
    return fit_regression(np.vstack(blocks), y)


@dataclass(frozen=True)
class ClassPrediction:
    class_index: int
    tie: bool
    scores: tuple


def predict_class(weights: ReadoutWeights, block) -> ClassPrediction:
    """Winner-takes-all: argmax of the time-averaged class scores.

    Scores within TIE_RTOL of the best are tied: the lowest tied index wins,
    and the tie flag is set when more than one class is tied.
    """
    rows = feature_rows(block)
    if rows.shape[0] < 1:
        raise ValueError("empty block")
    scores = predict(weights, rows)
    if scores.ndim == 1:
        scores = scores[:, None]
    avg = scores.mean(axis=0)
    if not np.isfinite(avg).all():
        raise ValueError("non-finite class scores")
    top = avg.max()
    tied = np.flatnonzero(avg >= top - TIE_RTOL * max(1.0, abs(top)))
    return ClassPrediction(int(tied[0]), tied.size > 1,
                           tuple(float(v) for v in avg))


@dataclass(frozen=True, eq=False)
class CvReport:
    fold_accuracies: np.ndarray
    confusion: np.ndarray            # aggregated over folds; rows = true class
    folds: list                      # the stratified_folds partition used

    @property
    def mean_accuracy(self) -> float:
        return float(self.fold_accuracies.mean())

    @property
    def std_accuracy(self) -> float:
        return float(self.fold_accuracies.std())


def stratified_folds(labels, k: int, seed: int = 0):
    """Deterministic stratified partition: per class, seeded shuffle then
    round-robin deal. Returns a list of k index arrays."""
    labels = check_labels(labels)
    k = check_count(k, "k", 2, ValueError)
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


def k_fold_cv(samples, labels, k: int, seed: int = 0) -> CvReport:
    """Stratified k-fold CV of the winner-takes-all readout: per fold, fit
    `fit_classifier` on the training samples (feature blocks, or raw series
    read as one-feature blocks) and `predict_class` each held-out sample."""
    labels = check_labels(labels)
    if len(samples) != labels.size:
        raise ValueError(f"{len(samples)} samples vs {labels.size} labels")
    num_classes = int(labels.max()) + 1
    folds = stratified_folds(labels, k, seed)
    accs = np.empty(k)
    confusion = np.zeros((num_classes, num_classes), dtype=int)
    for fi, test_idx in enumerate(folds):
        mask = np.ones(labels.size, dtype=bool)
        mask[test_idx] = False
        train_idx = np.flatnonzero(mask)
        weights = fit_classifier([samples[i] for i in train_idx], labels[train_idx])
        preds = [predict_class(weights, samples[i]).class_index for i in test_idx]
        np.add.at(confusion, (labels[test_idx], preds), 1)
        accs[fi] = np.mean(labels[test_idx] == preds)
    return CvReport(accs, confusion, folds)


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
    washout, train, test = check_split(split, y.size)

    def lagged(idx0):  # 0-based target rows -> feature values
        src = idx0 - feature_lag
        vals = np.zeros(idx0.size)
        ok = (src >= 0) & (src < u.size)
        vals[ok] = u[src[ok]]
        return vals

    tr = np.arange(washout, washout + train)
    te = np.arange(washout + train, washout + train + test)
    weights = fit_regression(lagged(tr), y[tr])
    (weight,), (bias,) = weights.matrix
    return LinearBaselineResult(
        weight=float(weight), bias=float(bias),
        nmse_train=nmse(predict(weights, lagged(tr)), y[tr]),
        nmse_test=nmse(predict(weights, lagged(te)), y[te]))
