"""Batch experiment runner: INI experiment configs in, CSV/JSON reports out.

Subcommands: run, sweep-esn, export-qasm, analyze. All randomness derives from
the single top-level seed, so outputs are byte-identical across runs.
"""
from __future__ import annotations

import argparse
import configparser
import io
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
from .noise import DeviceNoiseProfile, load_noise_profile, zero_noise
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

    def layout(self) -> SubsystemLayout:
        if self.pairs:
            return SubsystemLayout(self.num_qubits, self.pairs)
        return SubsystemLayout.default(self.num_qubits)

    def reservoir(self, seed: int) -> ReservoirConfig:
        return ReservoirConfig(self.layout(), self.scale, self.profile,
                               self.shots, seed)


_CONFIG_SCHEMA = {
    "experiment": ("task", "seed", "trials", "output_dir"),
    "reservoir": ("num_qubits", "pairs", "scale", "shots", "profile"),
    "split": ("washout", "train", "test"),
    "input": ("length", "t_start"),
    "narma": ("lr_feature_lag",),
    "classify": ("classes", "samples_per_class", "timesteps", "folds",
                 "noise_amplitude", "washout"),
    "esn": ("narma_order", "nodes", "radius_min", "radius_max", "radius_step",
            "trials", "input_weights"),
}


def _parse_pairs(text: str) -> tuple:
    pairs = []
    for chunk in text.replace(",", " ").split():
        a, _, b = chunk.partition("-")
        try:
            pairs.append((int(a), int(b)))
        except ValueError:
            raise ConfigError(f"pair {chunk!r} is not of the form i-j") from None
    return tuple(pairs)


def parse_config(source, base_dir: str = None) -> ExperimentConfig:
    """Parse an INI experiment config from a path or document text. Relative
    profile paths resolve against the config file's directory."""
    text = None
    if isinstance(source, os.PathLike):
        source = os.fspath(source)
    if isinstance(source, str):
        if "\n" in source or source.lstrip().startswith("["):
            text = source
        elif os.path.exists(source):
            base_dir = base_dir or os.path.dirname(os.path.abspath(source))
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        else:
            raise ConfigError(f"config file not found: {source}")
    else:
        raise ConfigError(f"expected a path or document text, got {type(source)!r}")
    base_dir = base_dir or "."

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown field {key!r} in section [{section}]")

    def get(section, key, cast, default):
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key)
        try:
            return cast(raw)
        except (ValueError, TypeError):
            raise ConfigError(
                f"field {key!r} in [{section}] has invalid value {raw!r}") from None

    if not parser.has_option("experiment", "task"):
        raise ConfigError("config must set 'task' in [experiment]")
    task = parser.get("experiment", "task").strip()

    def cast_shots(raw):
        raw = raw.strip()
        if raw == EXACT:
            return EXACT
        v = int(raw)
        if v < 1:
            raise ValueError(raw)
        return v

    profile_path = get("reservoir", "profile", str, "").strip()
    profile = zero_noise()
    if profile_path:
        resolved = profile_path
        if not os.path.isabs(resolved):
            resolved = os.path.join(base_dir, resolved)
        profile = load_noise_profile(resolved)
        profile_path = resolved

    radii = None
    if any(parser.has_option("esn", k) for k in ("radius_min", "radius_max", "radius_step")):
        lo = get("esn", "radius_min", float, 0.01)
        hi = get("esn", "radius_max", float, 1.0)
        step = get("esn", "radius_step", float, 0.01)
        if not 0 < lo <= hi or step <= 0:
            raise ConfigError(f"invalid radius grid [{lo}, {hi}] step {step}")
        count = int(round((hi - lo) / step)) + 1
        radii = tuple(np.round(lo + step * np.arange(count), 10))

    def int_tuple(raw):
        return tuple(int(v) for v in raw.replace(",", " ").split())

    kwargs = dict(
        task=task,
        seed=get("experiment", "seed", int, 0),
        trials=get("experiment", "trials", int, 10),
        output_dir=get("experiment", "output_dir", str, "out"),
        num_qubits=get("reservoir", "num_qubits", int, 8),
        pairs=get("reservoir", "pairs", _parse_pairs, ()),
        scale=get("reservoir", "scale", float, None),
        shots=get("reservoir", "shots", cast_shots, 8192),
        profile_path=profile_path,
        profile=profile,
        washout=get("split", "washout", int, 10),
        train=get("split", "train", int, 70),
        test=get("split", "test", int, 20),
        input_length=get("input", "length", int, 100),
        t_start=get("input", "t_start", int, REFERENCE_T_START),
        lr_feature_lag=get("narma", "lr_feature_lag", int, 0),
        num_classes=get("classify", "classes", int, 3),
        samples_per_class=get("classify", "samples_per_class", int, 20),
        timesteps=get("classify", "timesteps", int, 90),
        folds=get("classify", "folds", int, 10),
        noise_amplitude=get("classify", "noise_amplitude", float, 0.02),
        class_washout=get("classify", "washout", int, 40),
        esn_narma_order=get("esn", "narma_order", int, 2),
        esn_nodes=get("esn", "nodes", int_tuple, DEFAULT_NODE_COUNTS),
        esn_trials=get("esn", "trials", int, 100),
        esn_input_weights=get("esn", "input_weights", str, "pm1"),
    )
    if radii is not None:
        kwargs["esn_radii"] = radii
    return ExperimentConfig(**kwargs)


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
    p_an.add_argument("--washout", type=int, default=10)
    p_an.add_argument("--train", type=int, default=70)
    p_an.add_argument("--test", type=int, default=20)
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
