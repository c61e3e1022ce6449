"""Experiment config parsing, batch runner outputs, and the console entry point."""
import json
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from qreservoir import (CapacityError, ConfigError, FeatureSeries, ProfileError,
                        REFERENCE_T_START, load_noise_profile)
from qreservoir.cli import (ExperimentConfig, TASKS, derive_seed,
                            export_circuits, main, parse_config, run_experiment)

NOISY_PROFILE = """
[gates]
p1 = 0.01
p2 = 0.02
[idle]
gamma = 0.005
lambda = 0.005
"""


def write_narma_config(tmp_path, **overrides):
    (tmp_path / "noisy.ini").write_text(NOISY_PROFILE)
    lines = {
        "task": overrides.get("task", "narma2"),
        "seed": overrides.get("seed", 3),
        "trials": overrides.get("trials", 2),
    }
    text = (
        "[experiment]\n"
        + "".join(f"{k} = {v}\n" for k, v in lines.items())
        + "[reservoir]\nnum_qubits = 2\nshots = exact\nprofile = noisy.ini\n"
        + "[split]\nwashout = 4\ntrain = 20\ntest = 6\n"
        + "[input]\nlength = 30\n"
    )
    path = tmp_path / "experiment.ini"
    path.write_text(text)
    return path


# ----------------------------------------------------------------- parsing

def test_parse_config_defaults():
    cfg = parse_config("[experiment]\ntask = narma2\n")
    assert cfg.task == "narma2"
    assert (cfg.seed, cfg.trials) == (0, 10)
    assert (cfg.washout, cfg.train, cfg.test) == (10, 70, 20)
    assert cfg.num_qubits == 8 and cfg.shots == 8192
    assert cfg.scale == 2.0
    assert cfg.t_start == REFERENCE_T_START
    assert cfg.profile.is_zero()
    assert cfg.esn_nodes == (2, 5, 10, 20, 50)
    assert len(cfg.esn_radii) == 100


def test_parse_config_task_dependent_scale():
    assert parse_config("[experiment]\ntask = classify\n").scale == pytest.approx(np.pi)
    text = "[experiment]\ntask = classify\n[reservoir]\nscale = 1.5\n"
    assert parse_config(text).scale == 1.5


def test_parse_config_rejects_unknown_names():
    with pytest.raises(ConfigError, match="valid tasks"):
        parse_config("[experiment]\ntask = narma3\n")
    with pytest.raises(ConfigError, match=r"unknown config section"):
        parse_config("[experiment]\ntask = narma2\n[extra]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"unknown field 'tirals'"):
        parse_config("[experiment]\ntask = narma2\ntirals = 5\n")
    with pytest.raises(ConfigError, match=r"'trials' in \[experiment\]"):
        parse_config("[experiment]\ntask = narma2\ntrials = many\n")
    with pytest.raises(ConfigError, match="must set 'task'"):
        parse_config("[experiment]\nseed = 1\n")
    with pytest.raises(ConfigError, match="not found"):
        parse_config("missing.ini")


def test_parse_config_value_validation():
    with pytest.raises(ConfigError):
        parse_config("[experiment]\ntask = narma2\ntrials = 0\n")
    with pytest.raises(ConfigError, match=r"unknown field 'workers'"):
        parse_config("[experiment]\ntask = narma2\nworkers = 2\n")
    with pytest.raises(ConfigError):
        parse_config("[experiment]\ntask = narma2\n[reservoir]\nshots = 0\n")


def test_parse_config_shots_and_pairs():
    text = ("[experiment]\ntask = narma2\n"
            "[reservoir]\nnum_qubits = 4\nshots = exact\npairs = 0-2, 1-3\n")
    cfg = parse_config(text)
    assert cfg.shots == "exact"
    assert cfg.pairs == ((0, 2), (1, 3))
    assert cfg.layout().pairs == ((0, 2), (1, 3))
    with pytest.raises(ConfigError, match="0:2"):
        parse_config("[experiment]\ntask = narma2\n[reservoir]\npairs = 0:2\n")


def test_parse_config_radius_grid():
    text = ("[experiment]\ntask = esn-sweep\n"
            "[esn]\nradius_min = 0.1\nradius_max = 0.5\nradius_step = 0.2\n")
    assert parse_config(text).esn_radii == (0.1, 0.3, 0.5)
    with pytest.raises(ConfigError, match="radius grid"):
        parse_config("[experiment]\ntask = esn-sweep\n[esn]\nradius_min = 0\n")


def test_parse_config_reads_every_key(tmp_path):
    (tmp_path / "noisy.ini").write_text(NOISY_PROFILE)
    text = """
[experiment]
task = classify  ; inline comments follow a value
seed = 7
trials = 3
output_dir = elsewhere  # in either style
[reservoir]
num_qubits = 4
pairs = 0-3 1-2
scale = 1.25
shots = 100
profile = noisy.ini
[split]
washout = 5
train = 30
test = 8
[input]
length = 50
t_start = 4
[narma]
lr_feature_lag = 1
[classify]
classes = 4
samples_per_class = 6
timesteps = 45
folds = 3
noise_amplitude = 0.05
washout = 12
[esn]
narma_order = 5
nodes = 3, 7
radius_min = 0.2
radius_max = 0.6
radius_step = 0.2
trials = 4
input_weights = 01
"""
    expected = dict(
        task="classify", seed=7, trials=3, output_dir="elsewhere",
        num_qubits=4, pairs=((0, 3), (1, 2)), scale=1.25, shots=100,
        profile_path=os.path.join(str(tmp_path), "noisy.ini"),
        profile=load_noise_profile(NOISY_PROFILE),
        washout=5, train=30, test=8, input_length=50, t_start=4,
        lr_feature_lag=1, num_classes=4, samples_per_class=6, timesteps=45,
        folds=3, noise_amplitude=0.05, class_washout=12, esn_narma_order=5,
        esn_nodes=(3, 7), esn_radii=(0.2, 0.4, 0.6), esn_trials=4,
        esn_input_weights="01")
    assert set(expected) == {f.name for f in fields(ExperimentConfig)}
    cfg = parse_config(text, base_dir=str(tmp_path))
    defaults = ExperimentConfig(task="classify")
    for name, value in expected.items():
        assert getattr(cfg, name) == value, name
        if name != "task":
            assert getattr(defaults, name) != value, name


def test_parse_config_resolves_profile_relative_to_file(tmp_path):
    path = write_narma_config(tmp_path)
    cfg = parse_config(path)
    assert cfg.profile.p1 == 0.01
    assert os.path.isabs(cfg.profile_path)
    assert cfg.profile_path.startswith(str(tmp_path))


def test_experiment_config_direct_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(task="tea")
    with pytest.raises(ConfigError):
        ExperimentConfig(task="narma2", trials=0)
    assert "classify" in TASKS


@pytest.mark.parametrize("reservoir, classify, error", [
    ("num_qubits = 3", "", ConfigError),
    ("num_qubits = 16", "", CapacityError),
    ("num_qubits = 4\nprofile = sized8.ini", "", ProfileError),
    ("num_qubits = 4\nprofile = edge09.ini", "", ProfileError),
    ("num_qubits = 2", "samples_per_class = 2\nfolds = 5", ConfigError),
], ids=["odd-register", "over-capacity", "profile-size", "profile-edge",
        "folds-over-samples"])
def test_bad_experiment_fails_before_any_output(tmp_path, capsys, reservoir,
                                                classify, error):
    (tmp_path / "sized8.ini").write_text("[topology]\nnum_qubits = 8\n")
    (tmp_path / "edge09.ini").write_text(
        "[crosstalk]\ntheta = 0.1\n[topology]\nedges = 0-9\n")
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\ntask = classify\n"
                    f"[reservoir]\nshots = exact\n{reservoir}\n"
                    f"[classify]\ntimesteps = 10\nwashout = 2\n{classify}\n")
    with pytest.raises(error):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == error.__name__
    assert not out.exists()


def test_derive_seed_is_deterministic_and_spreads():
    assert derive_seed(0, 1) == derive_seed(0, 1)
    seen = {derive_seed(0, i) for i in range(50)}
    assert len(seen) == 50
    assert derive_seed(0, 1) != derive_seed(1, 0)


# ------------------------------------------------------------------ runner

def test_run_narma_outputs_and_reproducibility(tmp_path):
    cfg = parse_config(write_narma_config(tmp_path))
    out1 = replace(cfg, output_dir=str(tmp_path / "run1"))
    out2 = replace(cfg, output_dir=str(tmp_path / "run2"))
    path1 = run_experiment(out1)
    run_experiment(out2)

    summary = json.loads((tmp_path / "run1" / "summary.json").read_text())
    assert summary["task"] == "narma2" and summary["seed"] == 3
    assert len(summary["qr_nmse_test"]) == 2
    assert summary["qr_nmse_mean"] == pytest.approx(
        np.mean(summary["qr_nmse_test"]))
    assert summary["lr_baseline"]["feature_lag"] == 0
    assert set(summary["table"]) == {"qr_mean", "qr_std", "lr"}
    float(summary["table"]["lr"])  # %.1e strings parse back

    manifest = json.loads((tmp_path / "run1" / "manifest.json").read_text())
    assert manifest["config"]["shots"] == "exact"
    assert manifest["config"]["profile"]["p1"] == 0.01
    assert manifest["config"]["split"] == [4, 20, 6]

    names = sorted(os.listdir(tmp_path / "run1"))
    assert names == ["features_trial00.csv", "features_trial01.csv",
                     "manifest.json", "predictions_trial00.csv",
                     "predictions_trial01.csv", "stationarity_features.csv",
                     "stationarity_targets.csv", "summary.json"]
    assert path1 == str(tmp_path / "run1" / "summary.json")

    # same seed, second run: byte-identical artifacts
    for name in names:
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, name

    feats = FeatureSeries.from_csv(tmp_path / "run1" / "features_trial00.csv")
    assert feats.timesteps == 30 and feats.width == 2
    pred = np.loadtxt(tmp_path / "run1" / "predictions_trial00.csv",
                      delimiter=",", skiprows=1)
    assert pred.shape == (26, 4)  # train + test rows
    assert pred[0, 0] == 5 and pred[-1, 0] == 30
    assert pred[:, 3].sum() == 6  # is_test marks the last window


def test_run_narma_seed_changes_sampled_outputs(tmp_path):
    (tmp_path / "noisy.ini").write_text(NOISY_PROFILE)
    base = parse_config(
        "[experiment]\ntask = narma2\ntrials = 1\n"
        "[reservoir]\nnum_qubits = 2\nshots = 64\nprofile = noisy.ini\n"
        "[split]\nwashout = 4\ntrain = 16\ntest = 6\n[input]\nlength = 26\n",
        base_dir=str(tmp_path))
    run_experiment(replace(base, seed=0, output_dir=str(tmp_path / "a")))
    run_experiment(replace(base, seed=1, output_dir=str(tmp_path / "b")))
    fa = (tmp_path / "a" / "features_trial00.csv").read_text()
    fb = (tmp_path / "b" / "features_trial00.csv").read_text()
    assert fa != fb


def test_run_classify_small(tmp_path):
    (tmp_path / "noisy.ini").write_text(NOISY_PROFILE)
    cfg = parse_config(
        "[experiment]\ntask = classify\nseed = 1\n"
        "[reservoir]\nnum_qubits = 2\nshots = exact\nprofile = noisy.ini\n"
        "[classify]\nclasses = 3\nsamples_per_class = 3\ntimesteps = 30\n"
        "folds = 3\nwashout = 5\n",
        base_dir=str(tmp_path))
    cfg = replace(cfg, output_dir=str(tmp_path / "out"))
    run_experiment(cfg)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["task"] == "classify"
    assert 0.0 <= summary["qr_accuracy_mean"] <= 1.0
    assert np.sum(summary["qr_confusion"]) == 9
    assert np.sum(summary["linear_confusion"]) == 9
    pred = np.loadtxt(tmp_path / "out" / "predictions.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    assert pred.shape == (9, 5)
    feat_files = sorted(os.listdir(tmp_path / "out" / "features"))
    assert feat_files == [f"sample{i:02d}.csv" for i in range(9)]
    # washed rows: 30 raw -> 29 diffed -> 24 kept
    f0 = FeatureSeries.from_csv(tmp_path / "out" / "features" / "sample00.csv")
    assert f0.timesteps == 24


def test_run_esn_sweep_small(tmp_path):
    cfg = parse_config(
        "[experiment]\ntask = esn-sweep\ntrials = 1\n"
        "[split]\nwashout = 4\ntrain = 20\ntest = 6\n[input]\nlength = 30\n"
        "[esn]\nnodes = 2 3\nradius_min = 0.4\nradius_max = 0.8\n"
        "radius_step = 0.4\ntrials = 2\nnarma_order = 2\n")
    cfg = replace(cfg, output_dir=str(tmp_path / "sweep"))
    run_experiment(cfg)
    summary = json.loads((tmp_path / "sweep" / "summary.json").read_text())
    assert summary["task"] == "esn-sweep"
    assert set(summary["per_node"]) == {"2", "3"}
    node = summary["per_node"]["2"]
    assert node["global_minimum"] <= node["global_average"]
    assert node["best_radius"] in (0.4, 0.8)
    sweep = np.loadtxt(tmp_path / "sweep" / "sweep.csv", delimiter=",",
                       skiprows=1)
    assert sweep.shape == (4, 3)  # 2 nodes x 2 radii


def test_run_stationarity_small(tmp_path):
    cfg = parse_config(
        "[experiment]\ntask = stationarity\n"
        "[reservoir]\nnum_qubits = 2\nshots = exact\n"
        "[split]\nwashout = 4\ntrain = 20\ntest = 6\n[input]\nlength = 30\n")
    cfg = replace(cfg, output_dir=str(tmp_path / "st"))
    run_experiment(cfg)
    summary = json.loads((tmp_path / "st" / "summary.json").read_text())
    assert summary["task"] == "stationarity"
    assert sorted(summary["channels_ranked"]) == [0, 1]
    for name in ("features.csv", "stationarity_features.csv",
                 "stationarity_targets.csv", "gap_summary.csv",
                 "stationarity.txt"):
        assert (tmp_path / "st" / name).exists()


def test_export_circuits_files_and_manifest(tmp_path):
    cfg = parse_config(
        "[experiment]\ntask = narma2\n"
        "[reservoir]\nnum_qubits = 2\nshots = exact\n[input]\nlength = 3\n")
    cfg = replace(cfg, output_dir=str(tmp_path / "qasm"))
    files = export_circuits(cfg)
    assert [os.path.basename(f) for f in files] == [
        "circuit_t001.qasm", "circuit_t002.qasm", "circuit_t003.qasm"]
    # depth-t prefix: 4 header lines + 2 h + 5t gates + 2 measures
    for t, f in enumerate(files, start=1):
        lines = open(f).read().strip().split("\n")
        assert len(lines) == 4 + 2 + 5 * t + 2
    manifest = json.loads((tmp_path / "qasm" / "manifest.json").read_text())
    assert [e["t"] for e in manifest["circuits"]] == [1, 2, 3]
    assert all(e["shots"] == 8192 for e in manifest["circuits"])  # exact maps to default
    assert manifest["circuits"][0]["file"] == "circuit_t001.qasm"


# ------------------------------------------------------------- entry point

def test_main_run_and_analyze_round_trip(tmp_path, capsys):
    config_path = write_narma_config(tmp_path, trials=1)
    out = tmp_path / "cli_out"
    assert main(["run", "--config", str(config_path),
                 "--output-dir", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out / "summary.json")

    an_dir = tmp_path / "analysis"
    code = main(["analyze", "--features", str(out / "features_trial00.csv"),
                 "--washout", "4", "--train", "20", "--test", "6",
                 "--output-dir", str(an_dir)])
    assert code == 0
    text = capsys.readouterr().out
    assert "phase statistics" in text and "train t=5..24" in text
    assert (an_dir / "stationarity.csv").exists()

    # the stationarity task evolves the same exact features and writes the
    # same gap table for the same split
    st_config = write_narma_config(tmp_path, task="stationarity")
    st_out = tmp_path / "st_out"
    assert main(["run", "--config", str(st_config),
                 "--output-dir", str(st_out)]) == 0
    capsys.readouterr()
    assert (st_out / "features.csv").read_bytes() == \
        (out / "features_trial00.csv").read_bytes()
    assert (an_dir / "gap_summary.csv").read_bytes() == \
        (st_out / "gap_summary.csv").read_bytes()


def test_main_seed_override_changes_manifest(tmp_path, capsys):
    config_path = write_narma_config(tmp_path, trials=1)
    out = tmp_path / "seeded"
    assert main(["run", "--config", str(config_path), "--seed", "9",
                 "--output-dir", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9


def test_main_sweep_esn_coerces_task(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(
        "[experiment]\ntask = narma2\n"
        "[split]\nwashout = 4\ntrain = 20\ntest = 6\n[input]\nlength = 30\n"
        "[esn]\nnodes = 2\nradius_min = 0.5\nradius_max = 0.5\n"
        "radius_step = 0.1\ntrials = 2\n")
    out = tmp_path / "sweep_out"
    assert main(["sweep-esn", "--config", str(path),
                 "--output-dir", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["task"] == "esn-sweep"


def test_main_export_qasm_timesteps_flag(tmp_path, capsys):
    config_path = write_narma_config(tmp_path)
    out = tmp_path / "qasm_out"
    assert main(["export-qasm", "--config", str(config_path),
                 "--output-dir", str(out), "--timesteps", "2"]) == 0
    printed = capsys.readouterr().out.strip().split("\n")
    assert len(printed) == 2
    assert all(p.endswith(".qasm") for p in printed)


def test_main_reports_errors_as_json(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\ntask = nope\n")
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "nope" in payload["message"]

    assert main(["analyze", "--features", str(tmp_path / "missing.csv")]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert "missing.csv" in payload["message"]
