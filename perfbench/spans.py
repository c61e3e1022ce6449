"""In-memory span tracer that wraps qreservoir's public functions under the
names their callers look them up by (for example `engine.build_layer`, the
name `run_reservoir` calls). Nothing under `src/` is edited: the wrappers are
installed for one call of `run_experiment` and removed afterwards.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

from qreservoir import cli, engine


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span

    @property
    def duration(self) -> float:
        return self.end - self.start


def _trajectory_key(args, kwargs):
    """What the density-matrix trajectory depends on: (inputs, layout, scale,
    profile). The seed and shot count only enter measurement."""
    inputs = args[0] if args else kwargs["inputs"]
    config = args[1] if len(args) > 1 else kwargs["config"]
    data = np.asarray(inputs, dtype=np.float64).tobytes()
    return (data, config.layout, config.scale, config.profile)


# (module, attribute looked up by the caller, span name, key function)
HOOKS = (
    (cli, "run_experiment", "cli.run_experiment", None),
    (cli, "run_reservoir", "engine.run_reservoir", _trajectory_key),
    (engine, "build_layer", "circuit.build_layer", None),
    (engine, "apply_device_noise", "noise.apply_device_noise", None),
    (engine, "pauli_z_expectations", "qstate.pauli_z_expectations", None),
    (engine, "sample_bitstrings", "engine.sample_bitstrings", None),
    (cli, "fit_regression", "readout.fit_regression", None),
    (cli, "fit_classifier", "readout.fit_classifier", None),
    (cli, "predict_class", "readout.predict_class", None),
    (cli, "k_fold_cv", "readout.k_fold_cv", None),
    (cli, "esn_sweep", "benchmarks.esn_sweep", None),
    (cli, "gen_input", "benchmarks.gen_input", None),
    (cli, "gen_narma", "benchmarks.gen_narma", None),
    (cli, "gen_synthetic_sensor", "benchmarks.gen_synthetic_sensor", None),
    (cli, "stationarity_report", "analysis.stationarity_report", None),
)

TASK_DATA = ("benchmarks.gen_input", "benchmarks.gen_narma",
             "benchmarks.gen_synthetic_sensor")


class Tracer:
    """Records one span per wrapped call. A span opened on a thread with no
    open span of its own (a `run_experiment` worker thread) takes the open
    root span as its parent."""

    def __init__(self):
        self.spans = []
        self.keys = {}
        self.missing = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = -1

    def wrap(self, name, fn, key=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                with self._lock:
                    self.keys.setdefault(name, []).append(key(args, kwargs))
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            is_root = parent == -1
            if is_root:
                self._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    self._root = -1
                with self._lock:
                    self.spans.append(Span(sid, name, start, end, parent))
        return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for module, attr, name, key in HOOKS:
            fn = getattr(module, attr, None)
            if fn is None:
                tracer.missing.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, key))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(tracer: Tracer, num_qubits: int) -> dict:
    """Per-layer counts, busy times and self times of one traced call.

    Busy time is the summed span duration. Self time is a span's duration
    minus the part of it that its child spans cover.
    """
    by_name = {}
    children = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_time(name):
        return sum(s.duration - _covered(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ()))
            for s in by_name.get(name, ()))

    noise_calls = calls("noise.apply_device_noise")
    noise_busy = busy("noise.apply_device_noise")
    keys = tracer.keys.get("engine.run_reservoir", [])
    state_bytes = 16 * 4 ** num_qubits
    return {
        "cli.run_experiment.busy_s": busy("cli.run_experiment"),
        "cli.self_s": self_time("cli.run_experiment"),
        "engine.run_reservoir.calls": calls("engine.run_reservoir"),
        "engine.run_reservoir.busy_s": busy("engine.run_reservoir"),
        "engine.self_s": self_time("engine.run_reservoir"),
        "engine.unique_trajectory_ratio":
            len(set(keys)) / len(keys) if keys else 0.0,
        "engine.sample_bitstrings.calls": calls("engine.sample_bitstrings"),
        "engine.sample_bitstrings.busy_s": busy("engine.sample_bitstrings"),
        "circuit.build_layer.calls": calls("circuit.build_layer"),
        "circuit.build_layer.busy_s": busy("circuit.build_layer"),
        "noise.apply_device_noise.calls": noise_calls,
        "noise.apply_device_noise.busy_s": noise_busy,
        "noise.apply_device_noise.us_per_call":
            1e6 * noise_busy / noise_calls if noise_calls else 0.0,
        "noise.state_mb_per_s":
            noise_calls * state_bytes / noise_busy / 1e6 if noise_busy else 0.0,
        "qstate.pauli_z_expectations.calls":
            calls("qstate.pauli_z_expectations"),
        "qstate.pauli_z_expectations.busy_s":
            busy("qstate.pauli_z_expectations"),
        "readout.fit_regression.busy_s": busy("readout.fit_regression"),
        "readout.fit_classifier.calls": calls("readout.fit_classifier"),
        "readout.fit_classifier.busy_s": busy("readout.fit_classifier"),
        "readout.predict_class.busy_s": busy("readout.predict_class"),
        "readout.k_fold_cv.busy_s": busy("readout.k_fold_cv"),
        "benchmarks.esn_sweep.busy_s": busy("benchmarks.esn_sweep"),
        "benchmarks.task_data.busy_s": sum(busy(n) for n in TASK_DATA),
        "analysis.stationarity_report.busy_s":
            busy("analysis.stationarity_report"),
    }


def largest_child(tracer: Tracer, parent_name: str):
    """Name of the child layer with the most busy time under `parent_name`."""
    parents = {s.id for s in tracer.spans if s.name == parent_name}
    totals = {}
    for s in tracer.spans:
        if s.parent in parents:
            totals[s.name] = totals.get(s.name, 0.0) + s.duration
    return max(totals, key=totals.get) if totals else None
