"""Stationarity diagnostics: per-channel means/variances over the training and
testing phases, and ranked train/test gap summaries."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import check_split, feature_rows

VARIANCE_CONVENTIONS = ("population", "sample")


@dataclass(frozen=True, eq=False)
class StationarityReport:
    """Per-channel phase statistics; channel axis matches the input columns."""

    mean_train: np.ndarray
    mean_test: np.ndarray
    abs_mean_train: np.ndarray
    abs_mean_test: np.ndarray
    var_train: np.ndarray
    var_test: np.ndarray
    train_window: tuple   # 1-based inclusive (first, last)
    test_window: tuple
    variance_convention: str

    @property
    def num_channels(self) -> int:
        return self.mean_train.size

    @property
    def abs_mean_gap(self) -> np.ndarray:
        return np.abs(self.mean_train - self.mean_test)

    @property
    def var_ratio(self) -> np.ndarray:
        """var_test / var_train; 1 when both are zero."""
        out = np.empty(self.num_channels)
        for i in range(self.num_channels):
            vt, ve = self.var_train[i], self.var_test[i]
            if vt == 0.0:
                out[i] = 1.0 if ve == 0.0 else np.inf
            else:
                out[i] = ve / vt
        return out

    def to_csv(self, path) -> None:
        header = ("channel,mean_train,mean_test,abs_mean_train,abs_mean_test,"
                  "var_train,var_test,abs_mean_gap,var_ratio")
        rows = np.column_stack([
            np.arange(self.num_channels), self.mean_train, self.mean_test,
            self.abs_mean_train, self.abs_mean_test, self.var_train,
            self.var_test, self.abs_mean_gap, self.var_ratio])
        fmt = ["%d"] + ["%.17g"] * 8
        np.savetxt(path, rows, delimiter=",", header=header, comments="", fmt=fmt)

    def to_text(self) -> str:
        lines = [
            f"phase statistics ({self.variance_convention} variance); "
            f"train t={self.train_window[0]}..{self.train_window[1]}, "
            f"test t={self.test_window[0]}..{self.test_window[1]}",
            f"{'ch':>3} {'mean_tr':>12} {'mean_te':>12} {'var_tr':>12} "
            f"{'var_te':>12} {'gap':>10} {'vratio':>10}",
        ]
        for i in range(self.num_channels):
            lines.append(
                f"{i:>3} {self.mean_train[i]:>12.5g} {self.mean_test[i]:>12.5g} "
                f"{self.var_train[i]:>12.5g} {self.var_test[i]:>12.5g} "
                f"{self.abs_mean_gap[i]:>10.3g} {self.var_ratio[i]:>10.3g}")
        return "\n".join(lines) + "\n"


def stationarity_report(series, split, variance: str = "population") -> StationarityReport:
    """Phase statistics of a feature matrix or a 1-d target sequence under the
    (washout, train, test) split."""
    if variance not in VARIANCE_CONVENTIONS:
        raise ValueError(
            f"variance must be one of {VARIANCE_CONVENTIONS}, got {variance!r}")
    values = feature_rows(series)
    washout, train, test = check_split(split, values.shape[0])
    ddof = 0 if variance == "population" else 1
    tr = values[washout:washout + train]
    te = values[washout + train:washout + train + test]
    return StationarityReport(
        mean_train=tr.mean(axis=0), mean_test=te.mean(axis=0),
        abs_mean_train=np.abs(tr).mean(axis=0), abs_mean_test=np.abs(te).mean(axis=0),
        var_train=tr.var(axis=0, ddof=ddof), var_test=te.var(axis=0, ddof=ddof),
        train_window=(washout + 1, washout + train),
        test_window=(washout + train + 1, washout + train + test),
        variance_convention=variance,
    )


@dataclass(frozen=True)
class ChannelGap:
    channel: int
    abs_mean_gap: float
    log_var_gap: float


def gap_summary(report: StationarityReport):
    """Channels ranked by |mean_train - mean_test| (descending), with the
    absolute log variance ratio as tie-break; stable in channel index."""
    entries = []
    ratio = report.var_ratio
    for i in range(report.num_channels):
        lg = abs(float(np.log(ratio[i]))) if 0 < ratio[i] < np.inf else np.inf
        entries.append(ChannelGap(i, float(report.abs_mean_gap[i]), lg))
    return sorted(entries, key=lambda e: (-e.abs_mean_gap, -e.log_var_gap, e.channel))
