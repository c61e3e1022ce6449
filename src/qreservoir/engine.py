"""Reservoir trajectory engine: `evolve` runs the exact density-matrix trajectory
and `measure` reads features from it, exact Z expectations or finite shots.
Measurement never back-acts: each timestep is a fresh circuit run on hardware.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .circuit import SubsystemLayout, build_layer
from .errors import ConfigError, CorruptedStateError, check_count
from .noise import (DeviceNoiseProfile, apply_device_noise,
                    idle_damped_populations, zero_noise)
from .qstate import (batch_size, check_capacity, pauli_z_expectations,
                     population_qubits)

EXACT = "exact"

# diagonal clipping: tiny negatives are floating-point drift, larger are bugs
_CLIP_TOL = 1e-9
_MASS_TOL = 1e-6


@dataclass(frozen=True)
class ReservoirConfig:
    layout: SubsystemLayout
    scale: float
    profile: DeviceNoiseProfile = zero_noise()
    shots: Union[int, str] = EXACT
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.scale):
            raise ConfigError(f"scale must be finite, got {self.scale}")
        if self.shots != EXACT:
            object.__setattr__(self, "shots", check_count(self.shots, "shots", 1))
        object.__setattr__(self, "seed", check_count(self.seed, "seed", 0))

    @property
    def exact(self) -> bool:
        return self.shots == EXACT


@dataclass(frozen=True, eq=False)
class FeatureSeries:
    """Per-timestep feature rows h(rho_t); the readout appends the bias 1."""

    values: np.ndarray  # (timesteps, width)

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 2:
            raise ValueError(f"feature values must be 2-d, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("feature values contain NaN/Inf")
        object.__setattr__(self, "values", v)

    @property
    def timesteps(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def to_csv(self, path) -> None:
        header = "t," + ",".join(f"z{i}" for i in range(self.width))
        rows = np.column_stack([np.arange(1, self.timesteps + 1), self.values])
        fmt = ["%d"] + ["%.17g"] * self.width
        np.savetxt(path, rows, delimiter=",", header=header, comments="", fmt=fmt)

    @classmethod
    def from_csv(cls, path) -> "FeatureSeries":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(data[:, 1:])


def sample_bitstrings(populations, shots: int, readout_flip,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw `shots` n-bit strings from populations diag(rho), then apply flips.

    Returns a (shots, n) array of 0/1. Bit i corresponds to qubit i; qubit 0
    is the most significant bit of the basis index. The draws are those of
    `rng.choice(2**n, shots, p=...)`, bit for bit: `u = rng.random(shots)`
    against the normalised cumulative sum `cdf`, then, only when a flip
    probability is positive, `rng.random((shots, n))`. Where `choice`
    searches `cdf` for the whole index, the index is bisected one qubit at a
    time from qubit 0: given the bits already read as `index`, qubit i reads 1
    exactly when `cdf[index + 2**(n-1-i) - 1] <= u`, that is, when `choice`'s
    index is at least `index + 2**(n-1-i)`. A bit flips when its draw falls
    below r01 for a 0 and r10 for a 1: `low ^ ((low ^ high) & bit)` selects
    `low = draw < r01` or `high = draw < r10`, never interpolating.
    """
    shots = check_count(shots, "shots", 1, ValueError)
    probs = np.array(populations, dtype=np.float64)
    n = population_qubits(probs)
    if not np.isfinite(probs).all():
        raise CorruptedStateError("diagonal contains NaN/Inf")
    lo = probs.min()
    if lo < -_CLIP_TOL:
        raise CorruptedStateError(
            f"diagonal entry {lo:.3e} is negative beyond tolerance")
    mass = probs.sum()
    if abs(mass - 1.0) > _MASS_TOL:
        raise CorruptedStateError(
            f"diagonal mass {mass!r} deviates from 1 beyond tolerance")
    np.maximum(probs, 0.0, out=probs)
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    u = rng.random(shots)
    columns = np.empty((n, shots), dtype=np.uint8)  # row i: qubit i's bits
    bits = columns.view(np.bool_)
    index = 0  # one basis index for every shot until qubit 0 is read
    for i in range(n):
        half = 1 << (n - 1 - i)
        np.less_equal(cdf.take(index + (half - 1)), u, out=bits[i])
        if half > 1:
            index += half * bits[i]
    del u, index  # the flips below reuse their memory
    r01, r10 = readout_flip
    if r01 > 0.0 or r10 > 0.0:
        draws = rng.random((shots, n))  # compared, then copied into rows
        low, high = [(draws < r).T.copy() for r in (r01, r10)]
        del draws
        bits ^= low ^ ((low ^ high) & bits)
    return columns.T  # Fortran order: a per-qubit count reads contiguous rows


def _check_inputs(inputs) -> np.ndarray:
    """`inputs` as float64: a 1-d, non-empty, finite sequence or a (B, T)
    stack of them, else ConfigError."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if (inputs.ndim not in (1, 2) or inputs.size < 1
            or not np.isfinite(inputs).all()):
        raise ConfigError(f"need a 1-d, non-empty, finite input sequence or a "
                          f"(B, T) stack of them, got shape {inputs.shape}")
    return inputs


def _check_washout(washout, timesteps: int) -> int:
    """`washout` as a count >= 0 that leaves at least one of `timesteps` rows,
    else ConfigError."""
    washout = check_count(washout, "washout", 0)
    if washout >= timesteps:
        raise ConfigError(f"washout {washout} leaves no row of {timesteps}")
    return washout


def evolve(inputs, config: ReservoirConfig) -> np.ndarray:
    """Evolve rho_0 = |+><+|^n through one noisy layer per input; returns the
    populations diag(rho_t) after each step, shape (timesteps, 2^n). The
    trajectory depends only on the inputs, layout, scale and profile. A
    (B, timesteps) stack gives shape (B, timesteps, 2^n), row b bit for bit
    what `evolve(inputs[b], config)` gives; `qstate.batch_size(n)` rows are
    evolved at a time.

    The states are carried pair-major (see `noise.apply_device_noise`) in two
    reused buffers from step to step, as rho_t before its idle damping: each
    step folds the idle it owes into its pair block, and each row is the
    diagonal after the idle, read in closed form. Only the diagonal leaves;
    every step's result is checked, so a corrupted step (trace, Hermiticity
    or a negative population) raises CorruptedStateError.
    """
    inputs = _check_inputs(inputs)
    layout = config.layout
    n = layout.num_qubits
    check_capacity(n)
    stack = inputs.reshape(-1, inputs.shape[-1])
    shape = (min(len(stack), batch_size(n)),) + (16,) * layout.num_pairs
    buffers = np.empty(shape, dtype=np.complex128), np.empty(shape, np.complex128)
    populations = np.empty(stack.shape + (2,) * n)
    for b in range(0, len(stack), shape[0]):
        rows = stack[b:b + shape[0]]
        # |+><+|^n has every entry 1/2^n, so it is already pair-major
        state, spare = (buffer[:len(rows)] for buffer in buffers)
        state.fill(1.0 / (1 << n))
        for t, column in enumerate(rows.T):
            layers = [build_layer(float(u), layout, config.scale) for u in column]
            state, spare = apply_device_noise(state, spare, config.profile,
                                              layers, t > 0)
            diagonal = idle_damped_populations(state, config.profile, layout)
            if diagonal.min() < -_CLIP_TOL:
                raise CorruptedStateError(f"population {diagonal.min():.3e} "
                                          f"is negative beyond tolerance")
            populations[b:b + len(rows), t] = diagonal
    return populations.reshape(inputs.shape + (1 << n,))


def measure(populations, config: ReservoirConfig,
            washout: int = 0) -> FeatureSeries:
    """Features of rows washout+1..T of `evolve`'s output; the first `washout`
    rows are not measured. Sampled mode draws the shots of timestep t from
    substream (seed, t), so results are reproducible and do not depend on how
    many measurements share one evolution or on which earlier rows are
    measured.
    """
    washout = _check_washout(washout, len(populations))
    kept = populations[washout:]
    rows = np.empty((len(kept), config.layout.num_qubits))
    for i, probs in enumerate(kept):
        if config.exact:
            rows[i] = pauli_z_expectations(probs)
        else:
            rng = np.random.default_rng([config.seed, washout + 1 + i])
            bits = sample_bitstrings(probs, config.shots,
                                     config.profile.readout_flip, rng)
            # per-qubit counts over the contiguous rows of bits.T; a count is
            # exact, so count / shots is bits.mean(axis=0), bit for bit
            counts = np.fromiter(map(np.count_nonzero, bits.T), np.intp,
                                 bits.shape[1])
            rows[i] = 1.0 - 2.0 * (counts / config.shots)  # bit 0 reads +1
    return FeatureSeries(rows)


def run_reservoir(inputs, config: ReservoirConfig, seeds=None,
                  washout: int = 0):
    """`measure(evolve(inputs, config), config, washout)`. Every step is
    evolved and checked; only rows washout+1..T are measured. Given `seeds`,
    evolves once and returns one FeatureSeries per seed, each measured as
    `replace(config, seed=seed)` would be; exact features never read the
    seed, so exact mode measures once and returns that series for every seed.
    A (B, T) stack of inputs is evolved as one batch and gives a list of B
    such results, row b's measured with the seeds `seeds[b]`. A bad `washout`
    raises ConfigError before anything is evolved.
    """
    inputs = _check_inputs(inputs)
    washout = _check_washout(washout, inputs.shape[-1])
    populations = evolve(inputs, config)
    if populations.ndim == 2:
        return _measure_seeds(populations, config, seeds, washout)
    seeds = [None] * len(populations) if seeds is None else seeds
    return [_measure_seeds(rows, config, row_seeds, washout)
            for rows, row_seeds in zip(populations, seeds, strict=True)]


def _measure_seeds(populations, config: ReservoirConfig, seeds, washout):
    if seeds is None:
        return measure(populations, config, washout)
    if config.exact:
        features = measure(populations, config, washout)
        return [features for _ in seeds]
    return [measure(populations, replace(config, seed=s), washout)
            for s in seeds]


def feature_rows(features) -> np.ndarray:
    """The rows of a FeatureSeries, or of any array as float64 with a 1-d
    sequence as one column."""
    if isinstance(features, FeatureSeries):
        return features.values
    rows = np.asarray(features, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[:, None]
    return rows


def check_split(split, length: int) -> tuple:
    """The (washout, train, test) triple as ints; ConfigError unless they are
    counts with washout >= 0, train >= 1 and test >= 1 that together fit in
    `length` rows."""
    washout, train, test = (check_count(v, name, low) for v, name, low in zip(
        split, ("washout", "train", "test"), (0, 1, 1), strict=True))
    total = washout + train + test
    if total > length:
        raise ConfigError(f"windows need {total} rows, series has {length}")
    return washout, train, test


def split_series(features: FeatureSeries, washout: int, train: int, test: int):
    """Washout/train/test windows: rows t in [washout+1, washout+train] and
    (washout+train, washout+train+test], 1-based."""
    check_split((washout, train, test), features.timesteps)
    a, b = washout, washout + train
    return (FeatureSeries(features.values[a:b]),
            FeatureSeries(features.values[b:b + test]))
