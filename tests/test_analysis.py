"""Phase statistics and train/test gap ranking."""
import numpy as np
import pytest

from qreservoir import (ChannelGap, ConfigError, FeatureSeries, gap_summary,
                        stationarity_report)


def test_report_statistics_hand_checked():
    series = np.array([1.0, 2.0, 3.0, 4.0, 6.0, 8.0])
    rep = stationarity_report(series, (0, 3, 3))
    assert rep.num_channels == 1
    assert rep.mean_train[0] == 2.0
    assert rep.mean_test[0] == 6.0
    assert rep.var_train[0] == pytest.approx(2 / 3)  # population convention
    assert rep.var_test[0] == pytest.approx(8 / 3)
    assert rep.abs_mean_gap[0] == 4.0
    assert rep.var_ratio[0] == pytest.approx(4.0)
    assert rep.train_window == (1, 3)
    assert rep.test_window == (4, 6)


def test_report_sample_variance_convention():
    series = np.array([1.0, 2.0, 3.0, 4.0, 6.0, 8.0])
    rep = stationarity_report(series, (0, 3, 3), variance="sample")
    assert rep.var_train[0] == pytest.approx(1.0)
    assert rep.var_test[0] == pytest.approx(4.0)
    assert rep.variance_convention == "sample"


def test_report_abs_means_and_washout_offset():
    series = np.array([9.0, -1.0, 1.0, -2.0, 2.0])
    rep = stationarity_report(series, (1, 2, 2))  # row 0 is washed out
    assert rep.mean_train[0] == 0.0
    assert rep.abs_mean_train[0] == 1.0
    assert rep.abs_mean_test[0] == 2.0
    assert rep.train_window == (2, 3)


def test_var_ratio_zero_conventions():
    series = np.array([1.0, 1.0, 2.0, 2.0])
    rep = stationarity_report(series, (0, 2, 2))
    assert rep.var_ratio[0] == 1.0  # 0/0 reads as no change
    series = np.array([1.0, 1.0, 2.0, 4.0])
    rep = stationarity_report(series, (0, 2, 2))
    assert rep.var_ratio[0] == np.inf


def test_report_accepts_feature_series():
    values = np.random.default_rng(0).standard_normal((10, 3))
    rep = stationarity_report(FeatureSeries(values), (2, 5, 3))
    assert rep.num_channels == 3
    assert np.allclose(rep.mean_train, values[2:7].mean(axis=0))
    assert np.allclose(rep.var_test, values[7:10].var(axis=0))


def test_report_validation():
    series = np.arange(6.0)
    with pytest.raises(ConfigError):
        stationarity_report(series, (0, 0, 3))
    with pytest.raises(ConfigError):
        stationarity_report(series, (2, 3, 3))
    with pytest.raises(ValueError):
        stationarity_report(series, (0, 3, 3), variance="unbiased")


def test_report_csv_and_text(tmp_path):
    values = np.random.default_rng(1).standard_normal((8, 2))
    rep = stationarity_report(FeatureSeries(values), (0, 5, 3))
    path = tmp_path / "stats.csv"
    rep.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert data.shape == (2, 9)
    assert np.allclose(data[:, 1], rep.mean_train)
    assert np.allclose(data[:, 8], rep.var_ratio)
    text = rep.to_text()
    assert "train t=1..5" in text and "test t=6..8" in text
    assert text.count("\n") == 2 + 2  # header lines plus one row per channel


def test_gap_summary_ranks_by_mean_gap():
    # channel 1 has the biggest mean shift, channel 0 none, channel 2 small
    values = np.zeros((8, 3))
    values[:, 1] = [0, 0, 0, 0, 5, 5, 5, 5]
    values[:, 2] = [0, 1, 0, 1, 1, 2, 1, 2]
    rep = stationarity_report(values, (0, 4, 4))
    ranked = gap_summary(rep)
    assert [g.channel for g in ranked] == [1, 2, 0]
    assert isinstance(ranked[0], ChannelGap)
    assert ranked[0].abs_mean_gap == 5.0
    assert ranked[2].abs_mean_gap == 0.0


def test_gap_summary_tie_break_is_stable():
    values = np.zeros((6, 2))  # identical channels: gap 0, ratio 1 for both
    rep = stationarity_report(values, (0, 3, 3))
    ranked = gap_summary(rep)
    assert [g.channel for g in ranked] == [0, 1]
    assert all(g.log_var_gap == 0.0 for g in ranked)
