"""Task data generators (triple-sine input, NARMA targets, synthetic labeled
sensor pulses) and the echo-state-network baseline with its spectral-radius
sweep statistics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError

DIVERGENCE_LIMIT = 1e6

# Input time origin under which the reference statistics bundled with the test
# suite (target-table means/variances, baseline NMSEs) are reproduced. The
# library default (t_start=1) starts the time variable at 1 instead.
REFERENCE_T_START = -1


@dataclass(frozen=True)
class InputSignalSpec:
    """Product-of-three-sines drive: u = amplitude * (sin(2 pi a t / T) *
    sin(2 pi b t / T) * sin(2 pi c t / T) + 1), evaluated at t = t_start,
    t_start + 1, ... for `length` samples."""

    alpha_bar: float = 2.11
    beta_bar: float = 3.73
    gamma_bar: float = 4.11
    period: float = 100.0
    amplitude: float = 0.1
    length: int = 100
    t_start: int = 1

    def __post_init__(self):
        if self.period <= 0:
            raise ConfigError(f"period must be positive, got {self.period}")
        if self.length < 1:
            raise ConfigError(f"length must be >= 1, got {self.length}")


def input_signal_value(spec: InputSignalSpec, t) -> np.ndarray:
    """The drive formula at time t (scalar or array)."""
    w = 2 * np.pi * np.asarray(t, dtype=np.float64) / spec.period
    prod = (np.sin(spec.alpha_bar * w) * np.sin(spec.beta_bar * w)
            * np.sin(spec.gamma_bar * w))
    return spec.amplitude * (prod + 1.0)


def gen_input(spec: InputSignalSpec) -> np.ndarray:
    ts = np.arange(spec.t_start, spec.t_start + spec.length)
    return input_signal_value(spec, ts)


def reference_input_spec(length: int = 100) -> InputSignalSpec:
    """The input configuration used by the reference benchmark pipeline."""
    return InputSignalSpec(length=length, t_start=REFERENCE_T_START)


@dataclass(frozen=True)
class NarmaSpec:
    """NARMA recurrence parameters.

    variant 'narma2': y_{t+1} = 0.4 y_t + 0.4 y_t y_{t-1} + 0.6 u_t^3 + 0.1.
    variant 'general': y_{t+1} = alpha y_t + beta y_t (sum_{j<order} y_{t-j})
                               + gamma u_{t-order+1} u_t + delta.
    initial_history supplies (y_1, y_0, y_{-1}, ...); missing entries are 0.
    """

    variant: str = "narma2"
    order: int = 2
    alpha: float = 0.3
    beta: float = 0.05
    gamma: float = 1.5
    delta: float = 0.1
    initial_history: tuple = ()

    def __post_init__(self):
        if self.variant not in ("narma2", "general"):
            raise ConfigError(f"variant must be 'narma2' or 'general', got {self.variant!r}")
        if self.variant == "general" and self.order < 1:
            raise ConfigError(f"order must be >= 1, got {self.order}")
        object.__setattr__(self, "initial_history",
                           tuple(float(v) for v in self.initial_history))

    @classmethod
    def narma2(cls) -> "NarmaSpec":
        return cls(variant="narma2", order=2)

    @classmethod
    def general(cls, order: int) -> "NarmaSpec":
        return cls(variant="general", order=order)


def gen_narma(spec: NarmaSpec, inputs) -> np.ndarray:
    """Iterate the recurrence over t = 1..M-1, producing y_2..y_M; y_1 comes
    from the initial history. Aborts if |y| exceeds 1e6."""
    u = np.asarray(inputs, dtype=np.float64)
    if u.ndim != 1 or u.size < 1:
        raise ConfigError(f"need a 1-d input sequence, got shape {u.shape}")
    m = u.size
    hist = spec.initial_history
    y = np.zeros(m)

    def yval(t):  # 1-based, t <= 1 reads the history
        if t >= 1:
            return y[t - 1]
        idx = 1 - t
        return hist[idx] if idx < len(hist) else 0.0

    def uval(t):  # 1-based, zero-padded outside the series
        return u[t - 1] if 1 <= t <= m else 0.0

    y[0] = hist[0] if hist else 0.0
    for t in range(1, m):
        if spec.variant == "narma2":
            nxt = (0.4 * yval(t) + 0.4 * yval(t) * yval(t - 1)
                   + 0.6 * uval(t) ** 3 + 0.1)
        else:
            acc = sum(yval(t - j) for j in range(spec.order))
            nxt = (spec.alpha * yval(t) + spec.beta * yval(t) * acc
                   + spec.gamma * uval(t - spec.order + 1) * uval(t) + spec.delta)
        if not np.isfinite(nxt) or abs(nxt) > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"target series diverged at t={t + 1}: y={nxt!r} "
                f"(variant={spec.variant}, order={spec.order})")
        y[t] = nxt
    return y


def narma_task(order: int, length: int = 100,
               t_start: int = REFERENCE_T_START):
    """(inputs, targets) for the standard benchmark: reference input origin and
    the order-2 quadratic or general recurrence."""
    u = gen_input(InputSignalSpec(length=length, t_start=t_start))
    spec = NarmaSpec.narma2() if order == 2 else NarmaSpec.general(order)
    return u, gen_narma(spec, u)


def preprocess_diff(raw) -> np.ndarray:
    """Finite difference u_t = u'_{t+1} - u'_t; output is one shorter."""
    r = np.asarray(raw, dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise ValueError(f"need a 1-d series of length >= 2, got shape {r.shape}")
    return np.diff(r)


@dataclass(frozen=True, eq=False)
class LabeledSeriesDataset:
    """Uniform-length scalar series with integer class labels."""

    samples: tuple  # of (series ndarray, label int) pairs
    num_classes: int

    def __post_init__(self):
        pairs = []
        length = None
        for series, label in self.samples:
            s = np.asarray(series, dtype=np.float64)
            if length is None:
                length = s.size
            elif s.size != length:
                raise ValueError(
                    f"series lengths differ: {s.size} vs {length}")
            label = int(label)
            if not 0 <= label < self.num_classes:
                raise ValueError(
                    f"label {label} out of range for {self.num_classes} classes")
            pairs.append((s, label))
        object.__setattr__(self, "samples", tuple(pairs))

    @property
    def timesteps(self) -> int:
        return self.samples[0][0].size if self.samples else 0

    @property
    def series(self):
        return [s for s, _ in self.samples]

    @property
    def labels(self) -> np.ndarray:
        return np.array([lab for _, lab in self.samples], dtype=int)


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
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    samples = []
    for c in range(num_classes):
        mean = class_mean_waveform(c, timesteps)
        for s in range(samples_per_class):
            rng = np.random.default_rng([seed, c, s])
            noise = noise_amplitude * rng.standard_normal(timesteps)
            samples.append((mean + noise, c))
    return LabeledSeriesDataset(tuple(samples), num_classes)


@dataclass(frozen=True)
class EsnConfig:
    nodes: int
    spectral_radius: float
    input_weight_style: str = "pm1"  # 'pm1' for {-1,+1}, '01' for {0,1}
    seed: int = 0

    def __post_init__(self):
        if self.nodes < 1:
            raise ConfigError(f"nodes must be >= 1, got {self.nodes}")
        if not self.spectral_radius > 0:
            raise ConfigError(
                f"spectral_radius must be > 0, got {self.spectral_radius}")
        if self.input_weight_style not in ("pm1", "01"):
            raise ConfigError(
                f"input_weight_style must be 'pm1' or '01', got "
                f"{self.input_weight_style!r}")


def _draw_esn(rng, nodes: int, style: str):
    raw = rng.integers(0, 2, nodes).astype(np.float64)
    w_in = raw if style == "01" else raw * 2.0 - 1.0
    w = rng.standard_normal((nodes, nodes))
    return w, w_in


def build_esn(config: EsnConfig):
    """(W, W_in): W standard-normal rescaled to the target spectral radius,
    W_in random binary. Degenerate zero-radius draws are retried."""
    rng = np.random.default_rng(config.seed)
    for _ in range(8):
        w, w_in = _draw_esn(rng, config.nodes, config.input_weight_style)
        sr = float(np.abs(np.linalg.eigvals(w)).max())
        if sr > 0:
            return w * (config.spectral_radius / sr), w_in
    raise ConfigError("could not draw a recurrent matrix with nonzero spectral radius")


def esn_step(x, u, w, w_in) -> np.ndarray:
    """x_{t} = tanh(W^T x_{t-1} + W_in * u_t)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    w_in = np.asarray(w_in, dtype=np.float64)
    if w.shape != (x.size, x.size) or w_in.shape != x.shape:
        raise ValueError(
            f"shape mismatch: x {x.shape}, W {w.shape}, W_in {w_in.shape}")
    return np.tanh(w.T @ x + w_in * float(u))


def run_esn(inputs, w, w_in) -> np.ndarray:
    """State rows x_1..x_M from x_0 = 0."""
    u = np.asarray(inputs, dtype=np.float64)
    x = np.zeros(w_in.shape[0] if hasattr(w_in, "shape") else len(w_in))
    out = np.empty((u.size, x.size))
    for t in range(u.size):
        x = esn_step(x, u[t], w, w_in)
        out[t] = x
    return out


DEFAULT_NODE_COUNTS = (2, 5, 10, 20, 50)
DEFAULT_RADIUS_GRID = tuple(np.round(np.arange(1, 101) * 0.01, 2))


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


def esn_sweep(inputs, targets, split, node_counts=DEFAULT_NODE_COUNTS,
              radii=DEFAULT_RADIUS_GRID, trials: int = 100,
              input_weight_style: str = "pm1",
              seed: int = 0) -> EsnSweepReport:
    """NMSE statistics over the (nodes x radius x trial) grid.

    global_average: mean over every (radius, trial) pair.
    global_minimum: per-radius trial-mean NMSE, minimized over radii.

    Trials draw W_in and W from substream (seed, nodes, trial); the radius
    enters as a deterministic rescale of the shared per-trial draw.
    """
    u = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if not node_counts or not radii:
        raise ConfigError("node_counts and radii must be non-empty")
    washout, train, test = split
    m = u.size
    if washout + train + test > m:
        raise ConfigError(f"windows exceed series length {m}")
    tr = slice(washout, washout + train)
    te = slice(washout + train, washout + train + test)
    results = []
    for nodes in node_counts:
        ws = np.empty((trials, nodes, nodes))
        wins = np.empty((trials, nodes))
        for b in range(trials):
            rng = np.random.default_rng([seed, nodes, b])
            ws[b], wins[b] = _draw_esn(rng, nodes, input_weight_style)
        sr = np.abs(np.linalg.eigvals(ws)).max(axis=1)
        if (sr == 0).any():
            # vanishing odds under a continuous draw; regenerate those trials
            for b in np.flatnonzero(sr == 0):
                cfg = EsnConfig(nodes, 1.0, input_weight_style, seed=[seed, nodes, b, 1])
                ws[b], wins[b] = build_esn(cfg)
                sr[b] = 1.0
        nmse_grid = np.empty((len(radii), trials))
        for ri, radius in enumerate(radii):
            w_r = ws * (radius / sr)[:, None, None]
            x = np.zeros((trials, nodes))
            feats = np.empty((trials, m, nodes))
            for t in range(m):
                x = np.tanh(np.einsum("bji,bj->bi", w_r, x) + wins * u[t])
                feats[:, t, :] = x
            aug = np.concatenate([feats, np.ones((trials, m, 1))], axis=2)
            w_out = np.linalg.pinv(aug[:, tr, :], rcond=1e-10) @ y[tr]
            pred = np.einsum("btk,bk->bt", aug[:, te, :], w_out)
            nmse_grid[ri] = ((pred - y[te]) ** 2).sum(axis=1) / (y[te] ** 2).sum()
        per_radius = nmse_grid.mean(axis=1)
        best = int(per_radius.argmin())
        results.append(EsnNodeResult(
            nodes=int(nodes),
            global_average=float(nmse_grid.mean()),
            global_minimum=float(per_radius[best]),
            best_radius=float(radii[best]),
            per_radius_mean=per_radius,
            nmse=nmse_grid,
        ))
    return EsnSweepReport(tuple(float(r) for r in radii), trials,
                          input_weight_style, tuple(results))
