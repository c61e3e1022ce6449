"""The benchmark's workloads: how a seed becomes an experiment config, how much
work one `run_experiment` call does, and how its output is checked.

Each workload scales the shipped config down so that one call takes a few
seconds on a 2-core machine and a run can take the median of several calls.
The scaling keeps the layer shares the workload was chosen for (see the
`why` of each workload in BENCHMARK.json and the map in layers.py).
"""
from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from qreservoir import cli
from qreservoir.benchmarks import (REFERENCE_T_START, InputSignalSpec,
                                   NarmaSpec, gen_input, gen_narma,
                                   gen_synthetic_sensor, preprocess_diff)
from qreservoir.engine import EXACT, run_reservoir
from qreservoir.noise import preset_profile

import layers

# Seed whose outputs are stored in reference.json.
DEFAULT_SEED = 0

# Tolerances for comparing against stored or sibling outputs: loose enough that
# a kernel which only reorders floating-point sums still passes, tight enough
# that any change in the physics or the readout fails.
RTOL = 1e-6
ATOL = 1e-9

# Shot-noise bound for sampled-vs-exact features, in standard deviations.
SHOT_SIGMAS = 6.0


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable          # (root, seed) -> ExperimentConfig
    warmup: Callable          # ExperimentConfig -> smaller ExperimentConfig
    units: Callable           # ExperimentConfig -> reservoir steps or fits
    inputs: Callable          # ExperimentConfig -> generated program inputs
    physics: Callable         # (config, outputs) -> list of failures
    reference_view: Callable  # outputs -> the values stored in reference.json


def _narma_config(root, seed):
    # configs/narma2_sampled.ini shape (NARMA2, n=8, strong-dense, 10 trials)
    # in exact mode; 20 steps per trial instead of 100 keeps one call near 5 s.
    # The seed moves the input signal's time origin; seed 0 is the reference.
    config = cli.parse_config(os.path.join(root, "configs", "narma2_sampled.ini"))
    return replace(config, shots=EXACT, trials=10, washout=2, train=14,
                   test=4, input_length=20, t_start=REFERENCE_T_START + seed)


def _narma2_inputs(config):
    u = gen_input(InputSignalSpec(length=config.input_length,
                                  t_start=config.t_start))
    return u, gen_narma(NarmaSpec.narma2(), u)


def _narma_physics(config, outputs):
    failures = []
    feats = [outputs[f"features_trial{t:02d}.csv"] for t in range(config.trials)]
    for t, f in enumerate(feats[1:], start=1):
        if f.shape != feats[0].shape or not np.allclose(f, feats[0], rtol=0,
                                                        atol=1e-12):
            failures.append(f"exact trial {t} differs from trial 0")
    if np.abs(feats[0][:, 1:]).max() > 1.0 + 1e-12:
        failures.append("a Z expectation lies outside [-1, 1]")
    if not np.isfinite(outputs["summary.json"]["qr_nmse_test"]).all():
        failures.append("non-finite test NMSE")
    return failures


def _classify_config(root, seed):
    # configs/classify_exact.ini task at n=4 with the strong-dense preset and
    # 8192 shots. Scaled from 60 samples and 10 folds to 15 samples and 5
    # folds so one call takes about 4 s. The config's noise_amplitude = 0 makes
    # every sample of a class identical, so the library default 0.02 is used:
    # all trajectories are distinct and the seed sets the dataset.
    config = cli.parse_config(os.path.join(root, "configs", "classify_exact.ini"))
    return replace(config, seed=seed, num_qubits=4, shots=8192,
                   profile=preset_profile("strong-dense", 4), profile_path="",
                   samples_per_class=5, folds=5, noise_amplitude=0.02)


def _classify_inputs(config):
    dataset = gen_synthetic_sensor(
        config.num_classes, config.samples_per_class, config.timesteps,
        seed=cli.derive_seed(config.seed, 1),
        noise_amplitude=config.noise_amplitude)
    return [preprocess_diff(s) for s in dataset.series]


@functools.lru_cache(maxsize=None)
def _exact_features(config, index):
    """Exact Z features of one classification sample, after the washout."""
    u = _classify_inputs(config)[index]
    rc = replace(config.reservoir(cli.derive_seed(config.seed, 2, index)),
                 shots=EXACT)
    return run_reservoir(u, rc).values[config.class_washout:]


def _classify_physics(config, outputs):
    """Sampled features of the first sample of each class lie within a
    shot-noise bound of the exact features seen through the readout flips."""
    failures = []
    r01, r10 = config.profile.readout_flip
    shots = config.shots
    for c in range(config.num_classes):
        index = c * config.samples_per_class
        sampled = outputs[f"features/sample{index:02d}.csv"][:, 1:]
        mean = _exact_features(config, index) * (1 - r01 - r10) + (r10 - r01)
        if sampled.shape != mean.shape:
            failures.append(f"sample {index}: feature shape {sampled.shape}, "
                            f"expected {mean.shape}")
            continue
        bound = SHOT_SIGMAS * np.sqrt((1 - mean ** 2) / shots) + 2.0 / shots
        worst = float(np.max(np.abs(sampled - mean) - bound))
        if worst > 0:
            failures.append(f"sample {index}: sampled features exceed the "
                            f"shot-noise bound by {worst:.3g}")
    acc = outputs["summary.json"]["qr_accuracy_mean"]
    if not 0.0 <= acc <= 1.0:
        failures.append(f"accuracy {acc} outside [0, 1]")
    return failures


def _esn_config(root, seed):
    # configs/esn_sweep_narma2.ini (5 node counts x 100 radii) with 10 trials
    # per radius instead of 100 so one call takes about 2 s.
    config = cli.parse_config(os.path.join(root, "configs", "esn_sweep_narma2.ini"))
    return replace(config, seed=seed, esn_trials=10)


def _esn_physics(config, outputs):
    failures = []
    for nodes, stats in outputs["summary.json"]["per_node"].items():
        values = [stats["global_average"], stats["global_minimum"],
                  stats["best_radius"]]
        if not np.isfinite(values).all():
            failures.append(f"non-finite ESN statistics at {nodes} nodes")
    sweep = outputs["sweep.csv"]
    if sweep.shape[0] != len(config.esn_nodes) * len(config.esn_radii):
        failures.append(f"sweep.csv has {sweep.shape[0]} rows")
    if not np.isfinite(sweep).all():
        failures.append("sweep.csv holds non-finite values")
    return failures


def _without_table(summary):
    # "table" holds 2-significant-digit strings that can flip on a last-digit
    # change; the numbers they print are compared in full elsewhere.
    return {k: v for k, v in summary.items() if k != "table"}


WORKLOADS = {
    layers.NARMA: Workload(
        layers.NARMA, _narma_config,
        warmup=lambda c: replace(c, trials=1),
        units=lambda c: c.trials * c.input_length,
        inputs=_narma2_inputs,
        physics=_narma_physics,
        reference_view=lambda o: {
            "summary.json": _without_table(o["summary.json"]),
            "features_trial00.csv": o["features_trial00.csv"]}),
    layers.CLASSIFY: Workload(
        layers.CLASSIFY, _classify_config,
        warmup=lambda c: replace(c, samples_per_class=2, folds=2, timesteps=45),
        units=lambda c: c.num_classes * c.samples_per_class * (c.timesteps - 1),
        inputs=_classify_inputs,
        physics=_classify_physics,
        reference_view=lambda o: {
            "summary.json": _without_table(o["summary.json"]),
            "features/sample00.csv": o["features/sample00.csv"],
            "predictions.csv": o["predictions.csv"]}),
    layers.ESN: Workload(
        layers.ESN, _esn_config,
        warmup=lambda c: replace(c, esn_trials=1, esn_nodes=(2,)),
        units=lambda c: len(c.esn_nodes) * len(c.esn_radii) * c.esn_trials,
        inputs=_narma2_inputs,
        physics=_esn_physics,
        reference_view=lambda o: {
            "summary.json": o["summary.json"], "sweep.csv": o["sweep.csv"]}),
}


def load_outputs(out_dir) -> dict:
    """Every artifact of one run, parsed: JSON as objects, CSV as arrays
    (header dropped), anything else as text. Keys are '/'-separated paths."""
    outputs = {}
    for dirpath, _, files in os.walk(out_dir):
        for fname in files:
            path = os.path.join(dirpath, fname)
            rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
            if fname.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    outputs[rel] = json.load(fh)
            elif fname.endswith(".csv"):
                outputs[rel] = np.loadtxt(path, delimiter=",", skiprows=1,
                                          ndmin=2)
            else:
                with open(path, encoding="utf-8") as fh:
                    outputs[rel] = fh.read()
    return outputs


def compare(expected, actual, where="") -> list:
    """Differences between two parsed output trees, numbers within RTOL/ATOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{where}: keys differ"]
        return [d for k in sorted(expected)
                for d in compare(expected[k], actual[k], f"{where}/{k}")]
    if isinstance(expected, str) or isinstance(actual, str):
        return [] if expected == actual else [f"{where}: text differs"]
    if expected is None or actual is None:
        return [] if expected is actual else [f"{where}: null differs"]
    exp = np.asarray(expected, dtype=np.float64)
    act = np.asarray(actual, dtype=np.float64)
    if exp.shape != act.shape:
        return [f"{where}: shape {act.shape}, expected {exp.shape}"]
    if not np.allclose(act, exp, rtol=RTOL, atol=ATOL, equal_nan=False):
        err = float(np.max(np.abs(act - exp)))
        return [f"{where}: differs by up to {err:.3g}"]
    return []


def to_jsonable(view):
    return {k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in view.items()}


def check(workload: Workload, config, seed, outputs, reference) -> list:
    """Output-check failures of one call: the seed-independent physics, the
    artifacts every run writes, and at the default seed the stored values."""
    for name in ("summary.json", "manifest.json"):
        if name not in outputs:
            return [f"missing {name}"]
    failures = workload.physics(config, outputs)
    if seed == DEFAULT_SEED:
        view = workload.reference_view(outputs)
        failures += compare(reference[workload.name], to_jsonable(view),
                            "reference")
    return failures
