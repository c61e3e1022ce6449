"""One rule for every integral count (`errors.check_count`): each entry point
rejects a float, bool, string, None or a value below its bound with its own
typed error before any work, and stores a numpy integer count as an int."""
import os

import numpy as np
import pytest

from qreservoir import (CapacityError, ConfigError, InputSignalSpec, NarmaSpec,
                        ProfileError, ReservoirConfig, SubsystemLayout,
                        benchmarks, engine, esn_sweep,
                        gen_synthetic_sensor, measure, narma_task,
                        run_reservoir, sample_bitstrings, stratified_folds)
from qreservoir.cli import _COUNT_FIELDS, ExperimentConfig, run_experiment
from qreservoir.engine import check_split
from qreservoir.noise import Topology
from qreservoir.qstate import check_capacity

LAYOUT = SubsystemLayout.default(2)
POPULATIONS = np.full((6, 4), 0.25)
LABELS = np.repeat([0, 1], 3)
NARMA = narma_task(2, length=30)


def _sample(shots):
    return sample_bitstrings(POPULATIONS[0], shots, (0.1, 0.1),
                             np.random.default_rng(0)).shape[0]


def _esn(nodes=2, trials=1):
    return esn_sweep(*NARMA, (5, 20, 5), node_counts=(nodes,), radii=(0.5,),
                     trials=trials)


def _sensor(name):
    def call(v):
        return gen_synthetic_sensor(**{"num_classes": 2, "samples_per_class": 1,
                                       "timesteps": 3, name: v}).series.shape
    return call


def _experiment(name):
    return lambda v: getattr(
        ExperimentConfig("narma2", **{"num_qubits": 2, name: v}), name)


# (entry point, call with the count, typed error, least value, a valid count);
# each call returns what the entry point keeps of the count
ENTRY_POINTS = [
    ("sample_bitstrings.shots", _sample, ValueError, 1, 5),
    ("ReservoirConfig.shots",
     lambda v: ReservoirConfig(LAYOUT, 2.0, shots=v).shots, ConfigError, 1, 64),
    ("ReservoirConfig.seed",
     lambda v: ReservoirConfig(LAYOUT, 2.0, seed=v).seed, ConfigError, 0, 3),
    ("run_reservoir.washout",
     lambda v: run_reservoir(np.zeros(6), ReservoirConfig(LAYOUT, 2.0),
                             washout=v).timesteps, ConfigError, 0, 2),
    ("measure.washout",
     lambda v: measure(POPULATIONS, ReservoirConfig(LAYOUT, 2.0),
                       washout=v).timesteps, ConfigError, 0, 2),
    ("check_split.washout", lambda v: check_split((v, 2, 2), 9)[0],
     ConfigError, 0, 1),
    ("check_split.train", lambda v: check_split((1, v, 2), 9)[1],
     ConfigError, 1, 2),
    ("check_split.test", lambda v: check_split((1, 2, v), 9)[2],
     ConfigError, 1, 2),
    *((f"ExperimentConfig.{name}", _experiment(name), ConfigError, low,
       getattr(ExperimentConfig, name)) for name, low in _COUNT_FIELDS),
    ("ExperimentConfig.num_qubits", _experiment("num_qubits"), CapacityError,
     1, 2),
    ("InputSignalSpec.length", lambda v: InputSignalSpec(length=v).length,
     ConfigError, 1, 3),
    ("InputSignalSpec.t_start", lambda v: InputSignalSpec(t_start=v).t_start,
     ConfigError, None, -1),
    ("NarmaSpec.order", lambda v: NarmaSpec(v).order, ConfigError, 1, 5),
    ("gen_synthetic_sensor.num_classes", _sensor("num_classes"), ValueError,
     2, 3),
    ("gen_synthetic_sensor.samples_per_class", _sensor("samples_per_class"),
     ValueError, 1, 2),
    ("gen_synthetic_sensor.timesteps", _sensor("timesteps"), ValueError, 1, 4),
    ("esn_sweep.trials", lambda v: _esn(trials=v).trials, ConfigError, 1, 2),
    ("esn_sweep.node_counts", lambda v: _esn(nodes=v).results[0].nodes,
     ConfigError, 1, 3),
    ("stratified_folds.k", lambda v: len(stratified_folds(LABELS, v)),
     ValueError, 2, 3),
    ("Topology.num_qubits", lambda v: Topology(v, ()).num_qubits, ProfileError,
     0, 4),
    ("check_capacity", check_capacity, CapacityError, 1, 4),
    ("SubsystemLayout.num_qubits",
     lambda v: SubsystemLayout(v, ((0, 1),)).num_qubits, ValueError, 2, 2),
]


@pytest.fixture
def no_work(monkeypatch, tmp_path):
    """Make every unit of work an entry point could start fail the test, in an
    empty working directory that must stay empty."""
    def fail(*args, **kwargs):
        pytest.fail("work started before the count was checked")
    for module, name in ((engine, "evolve"), (engine, "pauli_z_expectations"),
                         (engine, "population_qubits"),
                         (benchmarks, "_draw_esn"),
                         (benchmarks, "class_mean_waveform")):
        monkeypatch.setattr(module, name, fail)
    monkeypatch.chdir(tmp_path)
    yield
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("name, call, error, low, good", ENTRY_POINTS,
                         ids=[case[0] for case in ENTRY_POINTS])
def test_count_rule_rejects_before_any_work(no_work, name, call, error, low, good):
    bad = [2.5, True, "3", None, np.float64(good), np.bool_(True)]
    if low is not None:
        bad.append(low - 1)
    for value in bad:
        with pytest.raises(error, match="must be an integer"):
            call(value)


@pytest.mark.parametrize("name, call, error, low, good", ENTRY_POINTS,
                         ids=[case[0] for case in ENTRY_POINTS])
def test_count_rule_stores_numpy_counts_as_int(name, call, error, low, good):
    expected = call(good)
    kept = call(np.int64(good))
    assert kept == expected and type(kept) is type(expected)
    if np.ndim(kept) == 0:
        assert type(kept) is int


def test_numpy_counts_run_a_complete_experiment(tmp_path):
    # trials=np.int64(1) used to write its trial CSVs, then fail on
    # manifest.json; it now writes the same bytes as trials=1
    dirs = {}
    for label, trials in (("int", 1), ("numpy", np.int64(1))):
        out = tmp_path / label
        run_experiment(ExperimentConfig("narma2", num_qubits=2, trials=trials,
                                        output_dir=str(out)))
        dirs[label] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert {"manifest.json", "summary.json"} <= set(dirs["numpy"])
    assert dirs["numpy"] == dirs["int"]
