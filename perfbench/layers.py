"""What the benchmark measures: end-to-end metrics, per-layer metrics, and the
predicted map from each layer metric to the end-to-end metric it should move.

BENCHMARK.json declares the same names, units and directions; `run.py` refuses
to run when the two disagree, so this module and that file cannot drift.

Workload keys used below:
  narma    narma-exact-n8
  classify classify-sampled-n4
  esn      esn-sweep
"""

NARMA, CLASSIFY, ESN = "narma-exact-n8", "classify-sampled-n4", "esn-sweep"
ALL = (NARMA, CLASSIFY, ESN)
QUANTUM = (NARMA, CLASSIFY)

# (name, unit, better). `failed_ratio` is reported on every run (text line
# plus the result's `attempted`/`failed`) but is not a gated metric: it is 0
# on correct code, and a gated metric must never read 0.
END_TO_END = (
    ("run_s", "s", "lower"),
    ("units_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# name -> (unit, better, workloads where the layer does work, prediction).
# A metric with an empty workload tuple has no coverage expectation.
LAYERS = {
    "cli.run_experiment.busy_s": (
        "s", "lower", ALL, "whole call; equals run_s on every workload"),
    "cli.self_s": (
        "s", "lower", ALL,
        "orchestration, thread pool and CSV/JSON writing; moves run_s on "
        "classify (one feature CSV per sample)"),
    "engine.run_reservoir.calls": (
        "count", "lower", QUANTUM, "trials or samples; zero on esn"),
    "engine.run_reservoir.busy_s": (
        "s", "lower", QUANTUM, "moves run_s on narma and classify"),
    "engine.self_s": (
        "s", "lower", QUANTUM, "step loop and RNG construction"),
    "engine.unique_trajectory_ratio": (
        "ratio", "higher", QUANTUM,
        "distinct (inputs, layout, scale, profile) over calls: 0.1 on narma, "
        "1.0 on classify; trajectory sharing moves run_s on narma only"),
    "engine.sample_bitstrings.calls": (
        "count", "lower", (CLASSIFY,), "zero on narma (exact mode)"),
    "engine.sample_bitstrings.busy_s": (
        "s", "lower", (CLASSIFY,), "moves run_s on classify"),
    "circuit.build_layer.calls": (
        "count", "lower", QUANTUM, "one per reservoir step"),
    "circuit.build_layer.busy_s": (
        "s", "lower", QUANTUM, "moves run_s on classify, a little on narma"),
    "noise.apply_device_noise.calls": (
        "count", "lower", QUANTUM, "one per reservoir step"),
    "noise.apply_device_noise.busy_s": (
        "s", "lower", QUANTUM,
        "moves run_s and cpu_s on narma, less on classify"),
    "noise.apply_device_noise.us_per_call": (
        "us", "lower", QUANTUM, "kernel cost per step"),
    "noise.state_mb_per_s": (
        "MB/s", "higher", QUANTUM,
        "computed: calls x 16*4^n bytes over busy time, not a measured "
        "memory bandwidth"),
    "qstate.pauli_z_expectations.calls": (
        "count", "lower", (NARMA,), "exact path only"),
    "qstate.pauli_z_expectations.busy_s": (
        "s", "lower", (NARMA,), "exact path only"),
    "readout.fit_regression.busy_s": (
        "s", "lower", (NARMA,), "under 1%; regression guard"),
    "readout.fit_classifier.calls": (
        "count", "lower", (CLASSIFY,), "one per fold plus the full fit"),
    "readout.fit_classifier.busy_s": (
        "s", "lower", (CLASSIFY,), "under 1%; regression guard"),
    "readout.predict_class.busy_s": (
        "s", "lower", (CLASSIFY,), "under 1%; regression guard"),
    "readout.k_fold_cv.busy_s": (
        "s", "lower", (CLASSIFY,), "under 1%; regression guard"),
    "benchmarks.esn_sweep.busy_s": (
        "s", "lower", (ESN,), "moves run_s and peak_rss_mb on esn"),
    "benchmarks.task_data.busy_s": (
        "s", "lower", ALL, "gen_input, gen_narma and gen_synthetic_sensor"),
    "analysis.stationarity_report.busy_s": (
        "s", "lower", (NARMA,), "feature and target stationarity tables"),
    "trace.overhead_s": (
        "s", "lower", (),
        "median traced run_s minus median untraced run_s in the same process"),
}


def expected_nonzero(workload: str):
    """Layer metrics that must read above zero on `workload`."""
    return [name for name, spec in LAYERS.items() if workload in spec[2]]


def expected_zero(workload: str):
    """Counts and busy times of layers that do no work on `workload`; this
    includes the design's named zeros, engine.sample_bitstrings.calls on
    narma and engine.run_reservoir.calls on esn."""
    return [name for name, spec in LAYERS.items()
            if spec[2] and workload not in spec[2]
            and name.endswith((".calls", ".busy_s"))]
