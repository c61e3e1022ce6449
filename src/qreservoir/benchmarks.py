"""Task data generators (triple-sine input, NARMA targets, synthetic labeled
sensor pulses) and the echo-state-network baseline with its spectral-radius
sweep statistics.
"""
from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .engine import check_split
from .errors import ConfigError, DivergenceError, check_count
from .readout import DEFAULT_RCOND, check_labels

DIVERGENCE_LIMIT = 1e6

# Input time origin under which the reference statistics bundled with the test
# suite (target-table means/variances, baseline NMSEs) are reproduced. The
# library default (t_start=1) starts the time variable at 1 instead.
REFERENCE_T_START = -1


# The drive u(t) = INPUT_AMPLITUDE * (prod_k sin(2 pi f_k t / INPUT_PERIOD) + 1)
# for the three frequencies f_k.
INPUT_FREQUENCIES = (2.11, 3.73, 4.11)
INPUT_PERIOD = 100.0
INPUT_AMPLITUDE = 0.1


@dataclass(frozen=True)
class InputSignalSpec:
    """The triple-sine drive evaluated at t = t_start, t_start + 1, ... for
    `length` samples."""

    length: int = 100
    t_start: int = 1

    def __post_init__(self):
        object.__setattr__(self, "length", check_count(self.length, "length", 1))
        object.__setattr__(self, "t_start", check_count(self.t_start, "t_start", None))


def input_signal_value(t) -> np.ndarray:
    """The drive formula at time t (scalar or array)."""
    w = 2 * np.pi * np.asarray(t, dtype=np.float64) / INPUT_PERIOD
    a, b, c = INPUT_FREQUENCIES
    return INPUT_AMPLITUDE * (np.sin(a * w) * np.sin(b * w) * np.sin(c * w) + 1.0)


def gen_input(spec: InputSignalSpec) -> np.ndarray:
    return input_signal_value(np.arange(spec.t_start, spec.t_start + spec.length))


@dataclass(frozen=True)
class NarmaSpec:
    """NARMA recurrence of the given order, from zero history (y_t = u_t = 0
    for t < 1).

    order 2:      y_{t+1} = 0.4 y_t + 0.4 y_t y_{t-1} + 0.6 u_t^3 + 0.1.
    other orders: y_{t+1} = 0.3 y_t + 0.05 y_t (sum_{j<order} y_{t-j})
                            + 1.5 u_{t-order+1} u_t + 0.1.
    """

    order: int = 2

    def __post_init__(self):
        object.__setattr__(self, "order", check_count(self.order, "order", 1))

    @classmethod
    def narma2(cls) -> "NarmaSpec":
        return cls(order=2)


def gen_narma(spec: NarmaSpec, inputs) -> np.ndarray:
    """Iterate the recurrence over t = 1..M-1, producing y_2..y_M after
    y_1 = 0. Aborts if |y| exceeds 1e6."""
    u = np.asarray(inputs, dtype=np.float64)
    if u.ndim != 1 or u.size < 1:
        raise ConfigError(f"need a 1-d input sequence, got shape {u.shape}")
    m, order = u.size, spec.order
    pad = max(order, 2) - 1  # zero history reaches back pad steps before t = 1
    y = np.zeros(pad + m)  # y[pad + t - 1] holds y_t
    up = np.concatenate([np.zeros(pad), u])  # up[pad + t - 1] holds u_t
    for t in range(1, m):
        i = pad + t - 1
        if order == 2:
            nxt = 0.4 * y[i] + 0.4 * y[i] * y[i - 1] + 0.6 * up[i] ** 3 + 0.1
        else:
            acc = sum(y[i - j] for j in range(order))
            nxt = (0.3 * y[i] + 0.05 * y[i] * acc
                   + 1.5 * up[i - order + 1] * up[i] + 0.1)
        if not np.isfinite(nxt) or abs(nxt) > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"target series diverged at t={t + 1}: y={nxt!r} (order={order})")
        y[i + 1] = nxt
    return y[pad:]


def narma_task(order: int, length: int = 100,
               t_start: int = REFERENCE_T_START):
    """(inputs, targets) for the standard benchmark: reference input origin and
    the NARMA recurrence of the given order."""
    u = gen_input(InputSignalSpec(length=length, t_start=t_start))
    return u, gen_narma(NarmaSpec(order), u)


def preprocess_diff(raw) -> np.ndarray:
    """Finite difference u_t = u'_{t+1} - u'_t; output is one shorter."""
    r = np.asarray(raw, dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise ValueError(f"need a 1-d series of length >= 2, got shape {r.shape}")
    return np.diff(r)


@dataclass(frozen=True, eq=False)
class LabeledSeriesDataset:
    """Uniform-length scalar series, one row of `series` per sample, with
    integer class labels."""

    series: np.ndarray  # (samples, timesteps)
    labels: np.ndarray  # (samples,) in 0..num_classes-1
    num_classes: int

    def __post_init__(self):
        series = np.asarray(self.series, dtype=np.float64)  # ragged rows raise
        labels = check_labels(self.labels)
        if series.ndim != 2 or labels.shape != series.shape[:1]:
            raise ValueError(f"series of shape {series.shape} vs labels of "
                             f"shape {labels.shape}")
        bad = labels[(labels < 0) | (labels >= self.num_classes)]
        if bad.size:
            raise ValueError(
                f"label {bad[0]} out of range for {self.num_classes} classes")
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "labels", labels)

    @property
    def timesteps(self) -> int:
        return self.series.shape[1]


def _pulse_params(c: int):
    # classes 0 and 1 are deliberately similar; later classes grow distinct
    if c < 2:
        return 1.0 - 0.15 * c, 6.0 + c, 25.0 + 3.0 * c
    step = c - 2
    return 1.6 + 0.6 * step, 14.0 + 4.0 * step, 60.0 + 10.0 * step


def class_mean_waveform(c: int, timesteps: int) -> np.ndarray:
    amp, rise, decay = _pulse_params(c)
    t = np.arange(timesteps, dtype=np.float64)
    return amp * (1.0 - np.exp(-t / rise)) * np.exp(-t / decay)


def gen_synthetic_sensor(num_classes: int = 3, samples_per_class: int = 20,
                         timesteps: int = 90, seed: int = 0,
                         noise_amplitude: float = 0.02) -> LabeledSeriesDataset:
    """Pulse-shaped waveforms (distinct rise/peak/decay per class) plus seeded
    additive noise. Purely synthetic stand-in for real sensor recordings."""
    num_classes = check_count(num_classes, "num_classes", 2, ValueError)
    samples_per_class = check_count(samples_per_class, "samples_per_class", 1,
                                    ValueError)
    timesteps = check_count(timesteps, "timesteps", 1, ValueError)
    series = np.empty((num_classes * samples_per_class, timesteps))
    for c in range(num_classes):
        mean = class_mean_waveform(c, timesteps)
        for s in range(samples_per_class):
            rng = np.random.default_rng([seed, c, s])
            noise = noise_amplitude * rng.standard_normal(timesteps)
            series[c * samples_per_class + s] = mean + noise
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    return LabeledSeriesDataset(series, labels, num_classes)


def _draw_esn(rng, nodes: int, style: str):
    raw = rng.integers(0, 2, nodes).astype(np.float64)
    w_in = raw if style == "01" else raw * 2.0 - 1.0
    w = rng.standard_normal((nodes, nodes))
    return w, w_in


def radius_grid(lo: float, hi: float, step: float) -> tuple:
    """Radii lo, lo + step, ..., hi; ConfigError unless 0 < lo <= hi and 0 < step
    are finite and hi - lo is a whole number of steps."""
    if not 0 < lo <= hi < np.inf or not 0 < step < np.inf:
        raise ConfigError(f"invalid radius grid [{lo}, {hi}] step {step}")
    steps = (hi - lo) / step
    if abs(steps - round(steps)) > 1e-9:
        raise ConfigError(f"radius grid [{lo}, {hi}] is not a whole number of steps {step}")
    return tuple(np.round(lo + step * np.arange(int(round(steps)) + 1), 10))


DEFAULT_NODE_COUNTS = (2, 5, 10, 20, 50)
DEFAULT_RADIUS_GRID = radius_grid(0.01, 1.0, 0.01)


@dataclass(frozen=True, eq=False)
class EsnNodeResult:
    nodes: int
    global_average: float
    global_minimum: float
    best_radius: float
    per_radius_mean: np.ndarray
    nmse: np.ndarray  # (radii, trials)


@dataclass(frozen=True, eq=False)
class EsnSweepReport:
    radii: tuple
    trials: int
    input_weight_style: str
    results: tuple  # of EsnNodeResult, ordered by node count

    def result_for(self, nodes: int) -> EsnNodeResult:
        for r in self.results:
            if r.nodes == nodes:
                return r
        raise KeyError(f"no sweep result for {nodes} nodes")


def check_esn_grid(node_counts, radii, input_weight_style: str,
                   trials: int) -> tuple:
    """The node counts (a tuple) and the trial count as ints; ConfigError
    unless the grid, weight style and trial count are valid."""
    trials = check_count(trials, "trials", 1)
    if not node_counts or not radii:
        raise ConfigError("node_counts and radii must be non-empty")
    node_counts = tuple(check_count(v, "each of the node counts", 1)
                        for v in node_counts)
    if not all(0 < r < np.inf for r in radii):
        raise ConfigError(f"spectral radii must be finite and > 0, got {tuple(radii)}")
    if input_weight_style not in ("pm1", "01"):
        raise ConfigError(
            f"input_weight_style must be 'pm1' or '01', got "
            f"{input_weight_style!r}")
    return node_counts, trials


def _sweep_data(inputs, targets):
    """The inputs and targets as float64 arrays; ConfigError unless both are
    finite, the inputs are 1-d and the targets are (M,) or (K, M)."""
    u = np.asarray(inputs, dtype=np.float64)
    ys = np.asarray(targets, dtype=np.float64)
    if u.ndim != 1:
        raise ConfigError(f"inputs must be 1-d, got shape {u.shape}")
    if not 1 <= ys.ndim <= 2 or ys.shape[-1] != u.size:
        raise ConfigError(f"targets of shape {ys.shape} must be (M,) or (K, M) "
                          f"with M = {u.size} inputs")
    if not (np.isfinite(u).all() and np.isfinite(ys).all()):
        raise ConfigError("inputs and targets must be finite")
    return u, ys


# Float64 elements of the stacked (radii x trials, M, nodes + 1) design that
# one radius chunk of `esn_sweep` may fill; a chunk holds at least one radius.
DESIGN_BUDGET = 1 << 16


# (get, set) thread-count symbol pairs of numpy's bundled OpenBLAS: the
# scipy-openblas 64-bit-integer build's names, then plain OpenBLAS's.
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) thread-count calls of the OpenBLAS in numpy.libs, or None
    when numpy bundles no OpenBLAS that exports them. Looked up once."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the previous count,
    also when the body raises; a no-op when `_openblas_threads` finds none.
    The batched ESN SVDs gain no wall time from a second thread, which only
    spins, and two such processes on as many cores collapse."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _chunk_nmse(ws, wins, scale, u, ys, tr, te, energy, buf) -> np.ndarray:
    """NMSE of each target row over one radius chunk, shape (targets, radii,
    trials): reservoir (r, b) is trial b's W rescaled by scale[r, b], and all
    of them evolve as one batch into one design with a bias column. The
    design is a prefix of the flat float64 `buf`, whose every entry read here
    (the bias column and all M rows) is written first."""
    radii, trials = scale.shape
    nodes = wins.shape[1]
    batch, m = radii * trials, u.size
    w_r = (ws * scale[:, :, None, None]).reshape(batch, nodes, nodes)
    w_in = np.tile(wins, (radii, 1))
    design = buf[:batch * m * (nodes + 1)].reshape(batch, m, nodes + 1)
    design[:, :, nodes] = 1.0
    x = np.zeros((batch, nodes))
    for t in range(m):
        x = np.tanh(np.einsum("bji,bj->bi", w_r, x) + w_in * u[t])
        design[:, t, :nodes] = x
    p = np.linalg.pinv(design[:, tr, :], rcond=DEFAULT_RCOND)
    nmse = np.empty((len(ys), radii, trials))
    for i, y in enumerate(ys):
        pred = np.einsum("btk,bk->bt", design[:, te, :], p @ y[tr])
        err = ((pred - y[te]) ** 2).sum(axis=1) / energy[i]
        nmse[i] = err.reshape(radii, trials)
    return nmse


def esn_sweep(inputs, targets, split, node_counts=DEFAULT_NODE_COUNTS,
              radii=DEFAULT_RADIUS_GRID, trials: int = 100,
              input_weight_style: str = "pm1", seed: int = 0):
    """NMSE statistics over the (nodes x radius x trial) grid.

    global_average: mean over every (radius, trial) pair.
    global_minimum: per-radius trial-mean NMSE, minimized over radii.

    Trials draw W_in and W from substream (seed, nodes, trial): W_in binary
    ('pm1' for {-1,+1}, '01' for {0,1}) and W standard normal. The radius
    enters as a deterministic rescale of the shared per-trial draw.

    `targets` of shape (M,) give one EsnSweepReport; shape (K, M) gives a
    tuple of K reports, one per row, from the same reservoirs. Radii run in
    chunks whose stacked design fits DESIGN_BUDGET: each chunk evolves its
    radii x trials reservoirs as one batch and takes one pseudoinverse for
    every target, with the same per-cell arithmetic as a radius at a time,
    so the NMSEs do not depend on the chunk size. Every chunk of a node count
    builds its design in one flat float64 buffer, allocated once and sized
    for the largest chunk; a shorter last chunk uses a prefix of it.

    The grid (spectral radii, recurrences and pseudoinverses) runs on one
    thread of numpy's bundled OpenBLAS, and the previous thread count is
    restored on return or error; where no such library is found the thread
    count is left alone. On OpenBLAS's SkylakeX kernel the NMSEs are the same
    either way; on its Haswell kernel the 50-node NMSEs differ between one
    and two threads, by about 1e-5 relative.
    """
    u, targets = _sweep_data(inputs, targets)
    ys = np.atleast_2d(targets)
    node_counts, trials = check_esn_grid(node_counts, radii, input_weight_style,
                                         trials)
    m = u.size
    washout, train, test = check_split(split, m)
    tr = slice(washout, washout + train)
    te = slice(washout + train, washout + train + test)
    energy = [(y[te] ** 2).sum() for y in ys]
    if not all(energy):
        raise ConfigError("a target is zero over the whole test window")
    rs = np.array(radii, dtype=np.float64)
    results = [[] for _ in ys]
    with _one_blas_thread():
        for nodes in node_counts:
            ws = np.empty((trials, nodes, nodes))
            wins = np.empty((trials, nodes))
            for b in range(trials):
                rng = np.random.default_rng([seed, nodes, b])
                ws[b], wins[b] = _draw_esn(rng, nodes, input_weight_style)
            sr = np.abs(np.linalg.eigvals(ws)).max(axis=1)
            chunk = max(1, DESIGN_BUDGET // (trials * m * (nodes + 1)))
            buf = np.empty(min(chunk, rs.size) * trials * m * (nodes + 1))
            nmse_grid = np.concatenate([
                _chunk_nmse(ws, wins, rs[r0:r0 + chunk, None] / sr, u, ys, tr, te,
                            energy, buf)
                for r0 in range(0, rs.size, chunk)], axis=1)
            for k, grid in enumerate(nmse_grid):
                per_radius = grid.mean(axis=1)
                best = int(per_radius.argmin())
                results[k].append(EsnNodeResult(
                    nodes=nodes,
                    global_average=float(grid.mean()),
                    global_minimum=float(per_radius[best]),
                    best_radius=float(radii[best]),
                    per_radius_mean=per_radius,
                    nmse=grid,
                ))
    reports = tuple(EsnSweepReport(tuple(float(r) for r in radii), trials,
                                   input_weight_style, tuple(res))
                    for res in results)
    return reports if targets.ndim == 2 else reports[0]
