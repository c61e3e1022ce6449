"""Noisy quantum-reservoir-computing toolkit.

Dense density-matrix simulation of small pairwise-coupled qubit registers
driven by a scalar input sequence, with parametric device noise, Pauli-Z
feature extraction (exact or shot-sampled), trained linear readouts, and
classical benchmark generators for comparison.
"""

__version__ = "0.1.0"

from .errors import (CapacityError, ConfigError, CorruptedStateError,
                     DivergenceError, InvalidChannelError, ProfileError,
                     QReservoirError)
from .qstate import (MAX_QUBITS, DensityMatrix, KrausChannel, apply_channel,
                     basis_state, pauli_z_expectations, plus_state)
from .circuit import CircuitLayer, SubsystemLayout, build_layer, export_qasm
from .noise import (DeviceNoiseProfile, Topology, amplitude_damping_channel,
                    apply_device_noise, depolarizing_channel,
                    load_noise_profile, phase_damping_channel, preset_profile,
                    zero_noise, zz_crosstalk_gate)
from .engine import (EXACT, FeatureSeries, ReservoirConfig, evolve, measure,
                     run_reservoir, sample_bitstrings, split_series)
from .readout import (ClassPrediction, CvReport, LinearBaselineResult,
                      ReadoutWeights, fit_classifier, fit_linear_baseline,
                      fit_regression, k_fold_cv, nmse, predict,
                      predict_class, stratified_folds)
from .benchmarks import (DEFAULT_NODE_COUNTS, DEFAULT_RADIUS_GRID,
                         REFERENCE_T_START, EsnNodeResult, EsnSweepReport,
                         InputSignalSpec, LabeledSeriesDataset, NarmaSpec,
                         class_mean_waveform, esn_sweep, gen_input,
                         gen_narma, gen_synthetic_sensor, input_signal_value,
                         narma_task, preprocess_diff)
from .analysis import (ChannelGap, StationarityReport, gap_summary,
                       stationarity_report)

__all__ = [
    "__version__",
    # errors
    "QReservoirError", "CapacityError", "InvalidChannelError",
    "CorruptedStateError", "DivergenceError", "ProfileError", "ConfigError",
    # states and operators
    "MAX_QUBITS", "DensityMatrix", "KrausChannel", "plus_state",
    "basis_state", "apply_channel", "pauli_z_expectations",
    # circuit ansatz
    "SubsystemLayout", "CircuitLayer", "build_layer", "export_qasm",
    # device noise
    "Topology", "DeviceNoiseProfile", "zero_noise", "depolarizing_channel",
    "amplitude_damping_channel", "phase_damping_channel", "zz_crosstalk_gate",
    "apply_device_noise", "load_noise_profile", "preset_profile",
    # trajectory engine
    "EXACT", "ReservoirConfig", "FeatureSeries", "evolve", "measure",
    "run_reservoir", "sample_bitstrings", "split_series",
    # readout training
    "ReadoutWeights", "fit_regression", "predict", "nmse", "fit_classifier",
    "ClassPrediction", "predict_class", "CvReport", "stratified_folds",
    "k_fold_cv", "LinearBaselineResult", "fit_linear_baseline",
    # benchmarks
    "InputSignalSpec", "input_signal_value", "gen_input",
    "REFERENCE_T_START", "NarmaSpec", "gen_narma",
    "narma_task", "preprocess_diff", "LabeledSeriesDataset",
    "gen_synthetic_sensor", "class_mean_waveform",
    "esn_sweep", "EsnSweepReport", "EsnNodeResult",
    "DEFAULT_NODE_COUNTS", "DEFAULT_RADIUS_GRID",
    # analysis
    "StationarityReport", "stationarity_report", "ChannelGap", "gap_summary",
]
