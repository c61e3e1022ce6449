"""Batch experiment runner: INI experiment configs in, CSV/JSON reports out.

Subcommands: run, sweep-esn, export-qasm, analyze. All randomness derives from
the single top-level seed, so outputs are byte-identical across runs.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .analysis import gap_summary, stationarity_report
from .benchmarks import (DEFAULT_NODE_COUNTS, DEFAULT_RADIUS_GRID,
                         EsnSweepReport, InputSignalSpec, NarmaSpec,
                         REFERENCE_T_START, esn_sweep, gen_input, gen_narma,
                         gen_synthetic_sensor, preprocess_diff)
from .circuit import SubsystemLayout, export_qasm
from .engine import EXACT, FeatureSeries, ReservoirConfig, run_reservoir, split_series
from .errors import ConfigError, QReservoirError
from .inifile import parse_pairs, read_ini
from .noise import DeviceNoiseProfile, load_noise_profile, zero_noise
from .qstate import check_capacity
from .readout import (fit_classifier, fit_linear_baseline,
                      fit_linear_classifier_baseline, fit_regression, k_fold_cv,
                      nmse, predict, predict_class, stratified_folds)

TASKS = ("narma2", "narma5", "narma10", "classify", "esn-sweep", "stationarity")

_NARMA_ORDERS = {"narma2": 2, "narma5": 5, "narma10": 10}


def derive_seed(*parts) -> int:
    """Flat substream seed from (seed, index, ...) parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings (all defaults applied)."""

    task: str
    seed: int = 0
    trials: int = 10
    output_dir: str = "out"
    # reservoir
    num_qubits: int = 8
    pairs: tuple = ()            # empty -> adjacent pairing
    scale: float = None          # None -> task default (2 for NARMA, pi for classify)
    shots: object = 8192
    profile_path: str = ""
    profile: DeviceNoiseProfile = field(default_factory=zero_noise)
    # NARMA split and input
    washout: int = 10
    train: int = 70
    test: int = 20
    input_length: int = 100
    t_start: int = REFERENCE_T_START
    lr_feature_lag: int = 0
    # classification
    num_classes: int = 3
    samples_per_class: int = 20
    timesteps: int = 90
    folds: int = 10
    noise_amplitude: float = 0.02
    class_washout: int = 40
    # ESN sweep
    esn_narma_order: int = 2
    esn_nodes: tuple = DEFAULT_NODE_COUNTS
    esn_radii: tuple = DEFAULT_RADIUS_GRID
    esn_trials: int = 100
    esn_input_weights: str = "pm1"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(
                f"unknown task {self.task!r}; valid tasks: {', '.join(TASKS)}")
        for name in ("trials", "num_qubits", "input_length", "folds",
                     "esn_trials"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.scale is None:
            object.__setattr__(
                self, "scale", math.pi if self.task == "classify" else 2.0)
        # reject what the run would only fail on after its first outputs
        check_capacity(self.num_qubits)
        try:
            self.layout()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self.profile.topology.check_register(self.num_qubits)
        if self.task == "classify" and not 2 <= self.folds <= self.samples_per_class:
            raise ConfigError(
                f"classify needs 2 <= folds <= samples_per_class, got "
                f"folds = {self.folds}, samples_per_class = {self.samples_per_class}")

    def layout(self) -> SubsystemLayout:
        if self.pairs:
            return SubsystemLayout(self.num_qubits, self.pairs)
        return SubsystemLayout.default(self.num_qubits)

    def reservoir(self, seed: int) -> ReservoirConfig:
        return ReservoirConfig(self.layout(), self.scale, self.profile,
                               self.shots, seed)


def _cast_shots(raw: str):
    if raw == EXACT:
        return EXACT
    shots = int(raw)
    if shots < 1:
        raise ValueError(raw)
    return shots


def _int_tuple(raw: str) -> tuple:
    return tuple(int(v) for v in raw.replace(",", " ").split())


# (section, key) -> (ExperimentConfig field, cast); an absent key keeps the
# field's default. task, profile and the radius_* keys are read on their own.
_FIELDS = {
    ("experiment", "seed"): ("seed", int),
    ("experiment", "trials"): ("trials", int),
    ("experiment", "output_dir"): ("output_dir", str),
    ("reservoir", "num_qubits"): ("num_qubits", int),
    ("reservoir", "pairs"): ("pairs", parse_pairs),
    ("reservoir", "scale"): ("scale", float),
    ("reservoir", "shots"): ("shots", _cast_shots),
    ("split", "washout"): ("washout", int),
    ("split", "train"): ("train", int),
    ("split", "test"): ("test", int),
    ("input", "length"): ("input_length", int),
    ("input", "t_start"): ("t_start", int),
    ("narma", "lr_feature_lag"): ("lr_feature_lag", int),
    ("classify", "classes"): ("num_classes", int),
    ("classify", "samples_per_class"): ("samples_per_class", int),
    ("classify", "timesteps"): ("timesteps", int),
    ("classify", "folds"): ("folds", int),
    ("classify", "noise_amplitude"): ("noise_amplitude", float),
    ("classify", "washout"): ("class_washout", int),
    ("esn", "narma_order"): ("esn_narma_order", int),
    ("esn", "nodes"): ("esn_nodes", _int_tuple),
    ("esn", "trials"): ("esn_trials", int),
    ("esn", "input_weights"): ("esn_input_weights", str),
}
_RADIUS_KEYS = ("radius_min", "radius_max", "radius_step")
_CONFIG_KEYS = {*_FIELDS, ("experiment", "task"), ("reservoir", "profile"),
                *(("esn", key) for key in _RADIUS_KEYS)}


def parse_config(source, base_dir: str = None) -> ExperimentConfig:
    """Parse an INI experiment config from a path or document text (see
    `inifile.read_ini`). A relative profile path resolves against `base_dir`,
    which defaults to the config file's directory."""
    get, file_dir = read_ini(source, _CONFIG_KEYS, ConfigError, "config")
    task = get("experiment", "task", str)
    if task is None:
        raise ConfigError("config must set 'task' in [experiment]")
    kwargs = {}
    for (section, key), (name, cast) in _FIELDS.items():
        value = get(section, key, cast)
        if value is not None:
            kwargs[name] = value
    profile_path = get("reservoir", "profile", str)
    if profile_path:
        profile_path = os.path.join(base_dir or file_dir or ".", profile_path)
        kwargs.update(profile_path=profile_path,
                      profile=load_noise_profile(profile_path))
    if any(get("esn", key, str) is not None for key in _RADIUS_KEYS):
        grid = DEFAULT_RADIUS_GRID  # an absent radius_* key keeps its bound or step
        lo = get("esn", "radius_min", float, grid[0])
        hi = get("esn", "radius_max", float, grid[-1])
        step = get("esn", "radius_step", float, grid[1] - grid[0])
        if not 0 < lo <= hi or step <= 0:
            raise ConfigError(f"invalid radius grid [{lo}, {hi}] step {step}")
        count = int(round((hi - lo) / step)) + 1
        kwargs["esn_radii"] = tuple(np.round(lo + step * np.arange(count), 10))
    return ExperimentConfig(task, **kwargs)


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _two_sig(x: float) -> str:
    return f"{x:.1e}"


def _manifest(config: ExperimentConfig, extra=None) -> dict:
    payload = {
        "artifact_version": __version__,
        "config": {
            "task": config.task, "seed": config.seed, "trials": config.trials,
            "num_qubits": config.num_qubits,
            "pairs": [list(p) for p in config.layout().pairs],
            "scale": config.scale, "shots": config.shots,
            "profile_path": config.profile_path or None,
            "profile": {
                "p1": config.profile.p1, "p2": config.profile.p2,
                "gamma_idle": config.profile.gamma_idle,
                "lambda_idle": config.profile.lambda_idle,
                "zz_theta": config.profile.zz_theta,
                "readout_flip": list(config.profile.readout_flip),
                "topology_edges": [list(e) for e in config.profile.topology.edges],
            },
            "split": [config.washout, config.train, config.test],
            "input_length": config.input_length, "t_start": config.t_start,
            "lr_feature_lag": config.lr_feature_lag,
        },
    }
    if extra:
        payload.update(extra)
    return payload


def _narma_series(config: ExperimentConfig, order: int):
    """The configured reference input and its NARMA target of the given order."""
    spec = InputSignalSpec(length=config.input_length, t_start=config.t_start)
    u = gen_input(spec)
    nspec = NarmaSpec.narma2() if order == 2 else NarmaSpec.general(order)
    return u, gen_narma(nspec, u)


def _write_gap_summary(path, report) -> list:
    """Channels ranked by gap_summary, one CSV row each; returns the ranking."""
    gaps = gap_summary(report)
    np.savetxt(path,
               np.array([(g.channel, g.abs_mean_gap, g.log_var_gap) for g in gaps]),
               delimiter=",", header="channel,abs_mean_gap,log_var_gap",
               comments="", fmt=["%d", "%.17g", "%.17g"])
    return gaps


def _run_narma(config: ExperimentConfig, out: str) -> dict:
    u, y = _narma_series(config, _NARMA_ORDERS[config.task])
    split = (config.washout, config.train, config.test)
    lr = fit_linear_baseline(u, y, split, feature_lag=config.lr_feature_lag)

    w0, w1 = config.washout, config.washout + config.train
    t_idx = np.concatenate([np.arange(w0 + 1, w1 + 1),
                            np.arange(w1 + 1, w1 + config.test + 1)])
    test_nmses = []
    train_nmses = []
    for trial in range(config.trials):
        rc = config.reservoir(derive_seed(config.seed, trial))
        feats = run_reservoir(u, rc)
        ftr, fte = split_series(feats, *split)
        weights = fit_regression(ftr, y[w0:w1])
        pred_tr = predict(weights, ftr)
        pred_te = predict(weights, fte)
        feats.to_csv(os.path.join(out, f"features_trial{trial:02d}.csv"))
        if trial == 0:
            stationarity_report(feats, split).to_csv(
                os.path.join(out, "stationarity_features.csv"))
        rows = np.column_stack([
            t_idx,
            np.concatenate([y[w0:w1], y[w1:w1 + config.test]]),
            np.concatenate([pred_tr, pred_te]),
            np.concatenate([np.zeros(config.train), np.ones(config.test)]),
        ])
        np.savetxt(os.path.join(out, f"predictions_trial{trial:02d}.csv"), rows,
                   delimiter=",", header="t,target,prediction,is_test",
                   comments="", fmt=["%d", "%.17g", "%.17g", "%d"])
        train_nmses.append(nmse(pred_tr, y[w0:w1]))
        test_nmses.append(nmse(pred_te, y[w1:w1 + config.test]))

    stationarity_report(y, split).to_csv(
        os.path.join(out, "stationarity_targets.csv"))

    test_arr = np.array(test_nmses)
    summary = {
        "task": config.task,
        "trials": config.trials,
        "qr_nmse_test": test_nmses,
        "qr_nmse_train": train_nmses,
        "qr_nmse_mean": float(test_arr.mean()),
        "qr_nmse_std": float(test_arr.std()),
        "lr_baseline": {
            "weight": lr.weight, "bias": lr.bias,
            "nmse_train": lr.nmse_train, "nmse_test": lr.nmse_test,
            "feature_lag": config.lr_feature_lag,
        },
        "table": {
            "qr_mean": _two_sig(float(test_arr.mean())),
            "qr_std": _two_sig(float(test_arr.std())),
            "lr": _two_sig(lr.nmse_test),
        },
    }
    return summary


def _classify_blocks(config: ExperimentConfig, dataset):
    """QR feature block per sample: preprocess, run the reservoir, keep rows
    after the classification washout."""
    blocks = []
    for index, series in enumerate(dataset.series):
        rc = config.reservoir(derive_seed(config.seed, 2, index))
        feats = run_reservoir(preprocess_diff(series), rc)
        blocks.append(feats.values[config.class_washout:])
    return blocks


def _run_classify(config: ExperimentConfig, out: str) -> dict:
    dataset = gen_synthetic_sensor(
        config.num_classes, config.samples_per_class, config.timesteps,
        seed=derive_seed(config.seed, 1), noise_amplitude=config.noise_amplitude)
    blocks = _classify_blocks(config, dataset)
    labels = dataset.labels

    feat_dir = os.path.join(out, "features")
    os.makedirs(feat_dir, exist_ok=True)
    for i, block in enumerate(blocks):
        FeatureSeries(block).to_csv(os.path.join(feat_dir, f"sample{i:02d}.csv"))

    def pipeline(train_blocks, train_labels):
        weights = fit_classifier(train_blocks, train_labels,
                                 num_classes=config.num_classes)
        return lambda block: predict_class(weights, block).class_index

    report = k_fold_cv(blocks, labels, config.folds, pipeline, seed=config.seed)
    raw_windows = [preprocess_diff(s)[config.class_washout:]
                   for s in dataset.series]
    linear = fit_linear_classifier_baseline(raw_windows, labels,
                                            k=config.folds, seed=config.seed)

    preds = []
    folds_of = {}
    for fi, fold in enumerate(stratified_folds(labels, config.folds, config.seed)):
        for i in fold:
            folds_of[int(i)] = fi
    full_weights = fit_classifier(blocks, labels, num_classes=config.num_classes)
    for i, block in enumerate(blocks):
        p = predict_class(full_weights, block)
        preds.append((i, int(labels[i]), p.class_index, int(p.tie), folds_of[i]))
    np.savetxt(os.path.join(out, "predictions.csv"), np.array(preds, dtype=int),
               delimiter=",", header="sample,label,prediction_full_fit,tie,cv_fold",
               comments="", fmt="%d")

    summary = {
        "task": "classify",
        "folds": config.folds,
        "qr_accuracy_mean": report.mean_accuracy,
        "qr_accuracy_std": report.std_accuracy,
        "qr_fold_accuracies": [float(a) for a in report.fold_accuracies],
        "qr_confusion": report.confusion.tolist(),
        "linear_accuracy_mean": linear.mean_accuracy,
        "linear_accuracy_std": linear.std_accuracy,
        "linear_confusion": linear.confusion.tolist(),
        "table": {
            "qr": f"{report.mean_accuracy:.2f}",
            "linear": f"{linear.mean_accuracy:.2f}",
        },
    }
    return summary


def _sweep_to_files(report: EsnSweepReport, out: str) -> dict:
    rows = []
    for res in report.results:
        for ri, radius in enumerate(report.radii):
            rows.append((res.nodes, radius, res.per_radius_mean[ri]))
    np.savetxt(os.path.join(out, "sweep.csv"), np.array(rows), delimiter=",",
               header="nodes,radius,mean_nmse", comments="",
               fmt=["%d", "%.2f", "%.17g"])
    return {
        "per_node": {
            str(res.nodes): {
                "global_average": res.global_average,
                "global_minimum": res.global_minimum,
                "best_radius": res.best_radius,
            } for res in report.results
        },
        "input_weight_style": report.input_weight_style,
        "trials": report.trials,
    }


def _run_esn_sweep(config: ExperimentConfig, out: str) -> dict:
    order = config.esn_narma_order
    u, y = _narma_series(config, order)
    report = esn_sweep(u, y, (config.washout, config.train, config.test),
                       node_counts=config.esn_nodes, radii=config.esn_radii,
                       trials=config.esn_trials,
                       input_weight_style=config.esn_input_weights,
                       seed=config.seed)
    summary = {"task": "esn-sweep", "narma_order": order}
    summary.update(_sweep_to_files(report, out))
    return summary


def _run_stationarity(config: ExperimentConfig, out: str) -> dict:
    # drives the reservoir with the reference input and its second-order series
    u, y = _narma_series(config, 2)
    rc = config.reservoir(derive_seed(config.seed, 0))
    feats = run_reservoir(u, rc)
    split = (config.washout, config.train, config.test)
    feats.to_csv(os.path.join(out, "features.csv"))
    rep = stationarity_report(feats, split)
    rep.to_csv(os.path.join(out, "stationarity_features.csv"))
    stationarity_report(y, split).to_csv(os.path.join(out, "stationarity_targets.csv"))
    gaps = _write_gap_summary(os.path.join(out, "gap_summary.csv"), rep)
    with open(os.path.join(out, "stationarity.txt"), "w", encoding="utf-8") as fh:
        fh.write(rep.to_text())
    return {
        "task": "stationarity",
        "max_abs_mean_gap": float(rep.abs_mean_gap.max()),
        "channels_ranked": [g.channel for g in gaps],
    }


def run_experiment(config: ExperimentConfig) -> str:
    """Execute the configured task; returns the path of the summary JSON."""
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    if config.task in _NARMA_ORDERS:
        summary = _run_narma(config, out)
    elif config.task == "classify":
        summary = _run_classify(config, out)
    elif config.task == "esn-sweep":
        summary = _run_esn_sweep(config, out)
    else:
        summary = _run_stationarity(config, out)
    summary["seed"] = config.seed
    _write_json(os.path.join(out, "manifest.json"), _manifest(config))
    path = os.path.join(out, "summary.json")
    _write_json(path, summary)
    return path


def export_circuits(config: ExperimentConfig, inputs=None) -> list:
    """One QASM file per timestep t holding the depth-t circuit prefix, plus a
    manifest mapping files to timesteps and shot counts."""
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    if inputs is None:
        spec = InputSignalSpec(length=config.input_length, t_start=config.t_start)
        inputs = gen_input(spec)
    inputs = np.asarray(inputs, dtype=np.float64)
    layout = config.layout()
    shots = config.shots if config.shots != EXACT else 8192
    files = []
    entries = []
    for t in range(1, inputs.size + 1):
        name = f"circuit_t{t:03d}.qasm"
        path = os.path.join(out, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(export_qasm(inputs[:t], layout, config.scale))
        files.append(path)
        entries.append({"t": t, "file": name, "shots": shots})
    _write_json(os.path.join(out, "manifest.json"),
                _manifest(config, {"circuits": entries}))
    return files


def _load_config_from_args(args) -> ExperimentConfig:
    config = parse_config(args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.output_dir is not None:
        updates["output_dir"] = args.output_dir
    return replace(config, **updates) if updates else config


def _add_common(sub):
    sub.add_argument("--config", required=True, help="experiment config (INI)")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--output-dir", default=None, help="override the output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qreservoir",
        description="Noisy quantum-reservoir-computing experiment runner.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run a configured experiment")
    _add_common(p_run)

    p_sweep = subs.add_parser("sweep-esn", help="run the ESN spectral-radius sweep")
    _add_common(p_sweep)

    p_qasm = subs.add_parser("export-qasm", help="emit per-timestep QASM circuits")
    _add_common(p_qasm)
    p_qasm.add_argument("--timesteps", type=int, default=None,
                        help="export only the first T timesteps")

    p_an = subs.add_parser("analyze", help="stationarity report for a features CSV")
    p_an.add_argument("--features", required=True, help="features CSV (t,z0,z1,...)")
    p_an.add_argument("--washout", type=int, default=ExperimentConfig.washout)
    p_an.add_argument("--train", type=int, default=ExperimentConfig.train)
    p_an.add_argument("--test", type=int, default=ExperimentConfig.test)
    p_an.add_argument("--variance", choices=("population", "sample"),
                      default="population")
    p_an.add_argument("--output-dir", default=None,
                      help="also write stationarity.csv and gap_summary.csv here")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = _load_config_from_args(args)
            path = run_experiment(config)
            print(path)
        elif args.command == "sweep-esn":
            config = _load_config_from_args(args)
            if config.task != "esn-sweep":
                config = replace(config, task="esn-sweep")
            path = run_experiment(config)
            print(path)
        elif args.command == "export-qasm":
            config = _load_config_from_args(args)
            if args.timesteps is not None:
                config = replace(config, input_length=args.timesteps)
            for path in export_circuits(config):
                print(path)
        else:
            feats = FeatureSeries.from_csv(args.features)
            rep = stationarity_report(
                feats, (args.washout, args.train, args.test), args.variance)
            sys.stdout.write(rep.to_text())
            if args.output_dir:
                os.makedirs(args.output_dir, exist_ok=True)
                rep.to_csv(os.path.join(args.output_dir, "stationarity.csv"))
                _write_gap_summary(
                    os.path.join(args.output_dir, "gap_summary.csv"), rep)
    except (QReservoirError, OSError, ValueError, IndexError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
