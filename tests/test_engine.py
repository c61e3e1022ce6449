"""Trajectory engine: feature extraction, sampling, windows, locality."""
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from qreservoir import (EXACT, ConfigError, CorruptedStateError, DensityMatrix,
                        DeviceNoiseProfile, FeatureSeries, ReservoirConfig,
                        SubsystemLayout, Topology, basis_state,
                        build_layer, esn_sweep, fit_linear_baseline,
                        measure, plus_state, preset_profile,
                        run_reservoir, sample_bitstrings, split_series,
                        stationarity_report, zero_noise)
from qreservoir import engine
from qreservoir.cli import main
from qreservoir.engine import _CLIP_TOL

from dense_step import device_step
from oracle import maximally_mixed, trace_distance

RNG = np.random.default_rng(42)
INPUTS_20 = RNG.uniform(0.0, 0.2, size=20)


def pair_local_profile():
    # no crosstalk: every mechanism then acts within one pair
    return DeviceNoiseProfile(p1=0.003, p2=0.01, gamma_idle=0.002,
                              lambda_idle=0.002)


def test_zero_noise_features_are_identically_zero():
    # the per-pair block conserves X x X, the start state is its +1 eigenstate,
    # and conjugating Z by X x X flips its sign: all Z expectations vanish
    cfg = ReservoirConfig(SubsystemLayout.default(4), scale=2.0)
    feats = run_reservoir(INPUTS_20, cfg)
    assert np.abs(feats.values).max() < 1e-12


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(order=hst.sampled_from([2, 4, 6]).flatmap(
           lambda n: hst.permutations(range(n))),
       scale=hst.floats(-10.0, 10.0),
       inputs=hst.lists(hst.floats(-1.0, 1.0), min_size=1, max_size=6))
def test_zero_noise_features_vanish_for_any_pairing(order, scale, inputs):
    # the parity argument holds for every pairing, orientation, scale and input
    pairs = tuple(zip(order[0::2], order[1::2]))
    cfg = ReservoirConfig(SubsystemLayout(len(order), pairs), scale=scale)
    assert np.abs(run_reservoir(inputs, cfg).values).max() < 1e-12


@hst.composite
def _paired_register(draw, gamma_idle):
    """A 2-, 4- or 6-qubit register with a random pairing and a random profile
    whose amplitude damping is drawn from `gamma_idle`; the topology may
    couple qubits of different pairs."""
    order = draw(hst.sampled_from([2, 4, 6]).flatmap(
        lambda n: hst.permutations(range(n))))
    n = len(order)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    profile = draw(hst.builds(
        DeviceNoiseProfile, p1=hst.floats(0.0, 1.0), p2=hst.floats(0.0, 1.0),
        gamma_idle=gamma_idle, lambda_idle=hst.floats(0.0, 1.0),
        zz_theta=hst.floats(-3.0, 3.0),
        topology=hst.lists(hst.sampled_from(edges), unique=True).map(
            lambda e: Topology(n, tuple(e)))))
    layout = SubsystemLayout(n, tuple(zip(order[0::2], order[1::2])))
    return layout, profile


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(register=_paired_register(hst.just(0.0)),
       scale=hst.floats(-10.0, 10.0),
       inputs=hst.lists(hst.floats(-1.0, 1.0), min_size=1, max_size=6))
def test_features_vanish_without_amplitude_damping(register, scale, inputs):
    # the global flip X^n commutes with every pair block, every ZZ term and
    # the Pauli channels (depolarizing, phase damping), and the start state is
    # its +1 eigenstate; Z_i anticommutes with it, so only amplitude damping
    # can make a feature
    layout, profile = register
    cfg = ReservoirConfig(layout, scale=scale, profile=profile)
    assert np.abs(run_reservoir(inputs, cfg).values).max() < 1e-12


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(register=_paired_register(hst.floats(1e-3, 1.0)),
       scale=hst.floats(-10.0, 10.0), u=hst.floats(-1.0, 1.0))
def test_amplitude_damping_sets_the_first_features_to_gamma(register, scale, u):
    # before the first damping every <Z_i> is 0 (see above); damping maps
    # <Z_i> to (1 - g) <Z_i> + g and phase damping leaves diag(rho) alone
    layout, profile = register
    cfg = ReservoirConfig(layout, scale=scale, profile=profile)
    feats = run_reservoir([u], cfg).values
    assert np.abs(feats - profile.gamma_idle).max() < 1e-12


def test_noise_breaks_the_feature_null_space():
    cfg = ReservoirConfig(SubsystemLayout.default(4), scale=2.0,
                          profile=pair_local_profile())
    feats = run_reservoir(INPUTS_20, cfg)
    assert np.abs(feats.values).max() > 1e-6


def test_pair_local_noise_factorizes_over_pairs():
    # with no inter-pair coupling a 4-qubit run is two independent 2-qubit
    # runs; identical blocks make both halves equal as well
    profile = pair_local_profile()
    big = run_reservoir(INPUTS_20, ReservoirConfig(
        SubsystemLayout.default(4), scale=2.0, profile=profile))
    small = run_reservoir(INPUTS_20, ReservoirConfig(
        SubsystemLayout.default(2), scale=2.0, profile=profile))
    assert np.abs(big.values[:, :2] - small.values).max() < 1e-12
    assert np.abs(big.values[:, 2:] - small.values).max() < 1e-12


def test_initial_state_is_forgotten_within_contraction_horizon():
    # depolarizing at p1 = 0.05 contracts the relevant subspace by (1 - p1)^2
    # per step, so 0.5 * 0.95^(2t) < 1e-6 first holds at t = 128; allow slack
    profile = DeviceNoiseProfile(p1=0.05)
    layout = SubsystemLayout.default(2)
    a = plus_state(2)
    b = maximally_mixed(2)
    rng = np.random.default_rng(0)
    dist = []
    for u in rng.uniform(0.0, 0.2, size=140):
        layer = build_layer(float(u), layout, 2.0)
        a = device_step(a, profile, layer)
        b = device_step(b, profile, layer)
        dist.append(trace_distance(a, b))
    dist = np.array(dist)
    assert np.all(np.diff(dist) <= 1e-15)
    below = np.nonzero(dist < 1e-6)[0]
    assert below.size and below[0] + 1 <= 130


def test_sampled_features_are_deterministic_per_seed():
    cfg = ReservoirConfig(SubsystemLayout.default(2), scale=2.0,
                          profile=preset_profile("weak-sparse", 2), shots=256,
                          seed=3)
    f1 = run_reservoir(INPUTS_20, cfg)
    f2 = run_reservoir(INPUTS_20, cfg)
    assert np.array_equal(f1.values, f2.values)
    other = ReservoirConfig(cfg.layout, cfg.scale, cfg.profile, 256, seed=4)
    assert not np.array_equal(run_reservoir(INPUTS_20, other).values, f1.values)


def test_sampled_prefix_rows_do_not_depend_on_later_inputs():
    # shot noise at timestep t comes from substream (seed, t), and the state
    # at t only sees inputs up to t
    cfg = ReservoirConfig(SubsystemLayout.default(2), scale=2.0,
                          profile=preset_profile("weak-sparse", 2), shots=128,
                          seed=7)
    full = run_reservoir(INPUTS_20, cfg)
    short = run_reservoir(INPUTS_20[:8], cfg)
    assert np.array_equal(full.values[:8], short.values)


def _series(result):
    """The FeatureSeries of a `run_reservoir` result, in order."""
    if isinstance(result, FeatureSeries):
        return [result]
    return [f for item in result for f in _series(item)]


@pytest.mark.parametrize("shots", [EXACT, 64])
@pytest.mark.parametrize("stacked", [False, True], ids=["1d", "stack"])
@pytest.mark.parametrize("seeds", [None, [3, 4]], ids=["no-seeds", "seeds"])
def test_washout_drops_rows_and_keeps_the_rest_bit_for_bit(shots, stacked,
                                                           seeds):
    # every step is still evolved; the first k rows are not measured, and
    # sampled row t still draws from substream (seed, t)
    cfg = ReservoirConfig(SubsystemLayout.default(2), scale=2.0,
                          profile=preset_profile("weak-sparse", 2),
                          shots=shots, seed=5)
    inputs = INPUTS_20
    if stacked:
        inputs = np.stack([INPUTS_20, INPUTS_20[::-1], 0.5 * INPUTS_20])
        seeds = None if seeds is None else [seeds, [5], [6, 7, 8]]
    full = _series(run_reservoir(inputs, cfg, seeds))
    for k in (0, 1, np.int64(INPUTS_20.size - 1)):
        kept = _series(run_reservoir(inputs, cfg, seeds, washout=k))
        assert len(kept) == len(full)
        for whole, part in zip(full, kept):
            assert part.timesteps == INPUTS_20.size - k
            assert np.array_equal(part.values, whole.values[k:])


@pytest.mark.parametrize("washout", [-1, 20, 21, 2.0, True, False, "3", None],
                         ids=repr)
def test_bad_washout_raises_before_evolving(monkeypatch, washout):
    monkeypatch.setattr(engine, "evolve",
                        lambda *args: pytest.fail("evolve started"))
    cfg = ReservoirConfig(SubsystemLayout.default(2), scale=2.0, shots=16)
    with pytest.raises(ConfigError, match="washout"):
        run_reservoir(INPUTS_20, cfg, washout=washout)
    with pytest.raises(ConfigError, match="washout"):
        run_reservoir(np.stack([INPUTS_20] * 2), cfg, [[1], [2]],
                      washout=washout)
    with pytest.raises(ConfigError, match="washout"):
        measure(np.full((INPUTS_20.size, 4), 0.25), cfg, washout)


_PROBABILITY = hst.floats(0.0, 1.0)
_FLIP = hst.floats(0.0, 0.2)


@hst.composite
def _noisy_register(draw):
    """A 2- or 4-qubit register with a random profile, readout flips included."""
    n = draw(hst.sampled_from([2, 4]))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    profile = draw(hst.builds(
        DeviceNoiseProfile, p1=_PROBABILITY, p2=_PROBABILITY,
        gamma_idle=_PROBABILITY, lambda_idle=_PROBABILITY,
        zz_theta=hst.floats(-3.0, 3.0), readout_flip=hst.tuples(_FLIP, _FLIP),
        topology=hst.lists(hst.sampled_from(edges), unique=True).map(
            lambda e: Topology(n, tuple(e)))))
    return SubsystemLayout.default(n), profile


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(register=_noisy_register(),
       shots=hst.sampled_from([EXACT, 1, 7, 256]),
       inputs=hst.lists(hst.floats(-1.0, 1.0), min_size=1, max_size=6),
       seeds=hst.lists(hst.integers(0, 2 ** 32 - 1), min_size=1, max_size=7))
def test_shared_evolution_matches_one_run_per_seed(register, shots, inputs,
                                                   seeds):
    # one evolution measured under many seeds gives, bit for bit, what one
    # run per seed gives: features never depend on how trials are batched
    layout, profile = register
    cfg = ReservoirConfig(layout, scale=2.0, profile=profile, shots=shots,
                          seed=12345)
    batch = run_reservoir(inputs, cfg, seeds)
    assert len(batch) == len(seeds)
    for seed, feats in zip(seeds, batch):
        alone = run_reservoir(inputs, replace(cfg, seed=seed))
        assert np.array_equal(feats.values, alone.values)


def test_exact_features_are_measured_once_per_trajectory(monkeypatch):
    # exact features never read the seed, so every seed gets the one series
    calls = []
    z_expectations = engine.pauli_z_expectations

    def counting(probs):
        calls.append(1)
        return z_expectations(probs)

    monkeypatch.setattr(engine, "pauli_z_expectations", counting)
    layout, profile = SubsystemLayout.default(2), pair_local_profile()
    cfg = ReservoirConfig(layout, scale=2.0, profile=profile)
    batch = run_reservoir(INPUTS_20, cfg, [3, 4, 5, 6])
    assert len(calls) == INPUTS_20.size
    alone = run_reservoir(INPUTS_20, replace(cfg, seed=6))
    assert len(calls) == 2 * INPUTS_20.size
    assert all(np.array_equal(f.values, alone.values) for f in batch)
    # one object for every seed: the CLI fits and formats each object once
    assert all(f is batch[0] for f in batch)
    sampled = run_reservoir(INPUTS_20, replace(cfg, shots=16), [3, 4])
    assert len(calls) == 2 * INPUTS_20.size and len(sampled) == 2
    assert sampled[0] is not sampled[1]


def test_sample_bitstrings_on_basis_state():
    rng = np.random.default_rng(0)
    bits = sample_bitstrings(basis_state(2, 3).populations, 50, (0.0, 0.0), rng)
    assert bits.shape == (50, 2)
    assert np.all(bits == 1)


def test_sample_bitstrings_certain_readout_flips():
    rng = np.random.default_rng(0)
    bits = sample_bitstrings(basis_state(2, 3).populations, 50, (0.0, 1.0), rng)
    assert np.all(bits == 0)  # every 1 flips down, no 0s to flip up
    bits = sample_bitstrings(basis_state(2, 0).populations, 50, (1.0, 0.0), rng)
    assert np.all(bits == 1)


def test_sample_bitstrings_estimates_are_unbiased():
    # product state with <Z> = 0.8 per qubit; flips at r scale it by 1 - 2r
    m = np.kron(np.diag([0.9, 0.1]), np.diag([0.9, 0.1])).astype(complex)
    st = DensityMatrix(2, m)
    rng = np.random.default_rng(1)
    bits = sample_bitstrings(st.populations, 40000, (0.0, 0.0), rng)
    z = 1.0 - 2.0 * bits.mean(axis=0)
    assert np.abs(z - 0.8).max() < 0.02
    bits = sample_bitstrings(st.populations, 40000, (0.1, 0.1), rng)
    z = 1.0 - 2.0 * bits.mean(axis=0)
    assert np.abs(z - 0.8 * (1 - 2 * 0.1)).max() < 0.02


def test_sample_bitstrings_rejects_corrupted_diagonals():
    rng = np.random.default_rng(0)
    with pytest.raises(CorruptedStateError):
        sample_bitstrings(np.array([1.5, -0.5]), 10, (0.0, 0.0), rng)
    with pytest.raises(CorruptedStateError):  # leaky: sums to 0.8
        sample_bitstrings(np.array([0.6, 0.2]), 10, (0.0, 0.0), rng)
    with pytest.raises(ValueError):
        sample_bitstrings(plus_state(1).populations, 0, (0.0, 0.0), rng)
    with pytest.raises(ValueError, match="populations of length 2"):
        sample_bitstrings(np.array([0.5, 0.25, 0.25]), 10, (0.0, 0.0), rng)


def test_sample_bitstrings_rejects_non_finite_populations():
    rng = np.random.default_rng(0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(CorruptedStateError, match="NaN/Inf"):
            sample_bitstrings(np.array([0.5, bad, 0.25, 0.25]), 10, (0.0, 0.0),
                              rng)
    # rejected before any draw: the stream is where a fresh one would be
    assert rng.random() == np.random.default_rng(0).random()


def test_sample_bitstrings_shot_count_rule():
    rng = np.random.default_rng(0)
    probs = plus_state(2).populations
    for bad in (True, False, np.bool_(True), 2.0, "8", -3):
        with pytest.raises(ValueError, match="shots must be"):
            sample_bitstrings(probs, bad, (0.0, 0.0), rng)
    for count in (np.int64(5), np.uint16(5), 5):
        assert sample_bitstrings(probs, count, (0.0, 0.0), rng).shape == (5, 2)


def _choice_oracle(populations, shots, readout_flip, rng):
    """The reference sampler: one `Generator.choice` over the basis indices,
    bits read through a shift table, flips thresholded through `np.where`."""
    probs = np.clip(np.array(populations, dtype=np.float64), 0.0, None)
    probs /= probs.sum()
    n = probs.size.bit_length() - 1
    indices = rng.choice(probs.size, size=shots, p=probs)
    shifts = np.arange(n - 1, -1, -1)
    bits = ((indices[:, None] >> shifts) & 1).astype(np.uint8)
    r01, r10 = readout_flip
    if r01 > 0.0 or r10 > 0.0:
        flip_prob = np.where(bits == 0, r01, r10)
        bits ^= rng.random(bits.shape) < flip_prob
    return bits


_ORACLE_FLIPS = hst.sampled_from([(0.0, 0.0), (0.02, 0.03), (0.0, 1.0),
                                  (1.0, 0.0)])


@hst.composite
def _populations(draw, qubits):
    """A population vector over `qubits` qubits: random weights, some of them
    zero, and some zeros replaced by negatives within the clipping tolerance."""
    n = draw(qubits)
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    weights = rng.random(2 ** n)
    weights[rng.random(2 ** n) < draw(hst.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    if not weights.any():
        weights[rng.integers(2 ** n)] = 1.0
    probs = weights / weights.sum()
    if draw(hst.booleans()):
        zeros = probs == 0.0
        probs[zeros] = -_CLIP_TOL * rng.random(zeros.sum())
    return probs


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(probs=_populations(hst.integers(1, 8)),
       shots=hst.one_of(hst.integers(1, 70), hst.just(8192)),
       flips=_ORACLE_FLIPS, seed=hst.integers(0, 2 ** 32 - 1))
def test_sample_bitstrings_equals_choice_bit_for_bit(probs, shots, flips, seed):
    # a numpy release that changes `choice` fails here, loudly, instead of
    # silently moving every sampled artifact
    bits = sample_bitstrings(probs, shots, flips, np.random.default_rng(seed))
    expected = _choice_oracle(probs, shots, flips, np.random.default_rng(seed))
    assert bits.dtype == np.uint8 and bits.shape == expected.shape
    assert np.array_equal(bits, expected)


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(rows=hst.lists(_populations(hst.just(4)), min_size=1, max_size=3),
       shots=hst.sampled_from([1, 33, 8192]), flips=_ORACLE_FLIPS,
       seed=hst.integers(0, 2 ** 32 - 1))
def test_sampled_features_equal_choice_oracle(rows, shots, flips, seed):
    profile = DeviceNoiseProfile(readout_flip=flips)
    cfg = ReservoirConfig(SubsystemLayout.default(4), scale=2.0,
                          profile=profile, shots=shots, seed=seed)
    features = measure(np.array(rows), cfg)
    for t, probs in enumerate(rows, start=1):
        bits = _choice_oracle(probs, shots, flips,
                              np.random.default_rng([seed, t]))
        assert np.array_equal(features.values[t - 1],
                              1.0 - 2.0 * bits.mean(axis=0))


def test_reservoir_config_shot_count_rule():
    layout = SubsystemLayout.default(2)
    for bad in (True, False, np.bool_(True), 8192.0, "8192", -1):
        with pytest.raises(ConfigError, match="shots must be"):
            ReservoirConfig(layout, scale=2.0, shots=bad)
    cfg = ReservoirConfig(layout, scale=2.0, shots=np.int64(8192))
    assert cfg.shots == 8192 and type(cfg.shots) is int


def test_reservoir_config_validation():
    layout = SubsystemLayout.default(2)
    with pytest.raises(ConfigError):
        ReservoirConfig(layout, scale=float("inf"))
    with pytest.raises(ConfigError):
        ReservoirConfig(layout, scale=2.0, shots=0)
    with pytest.raises(ConfigError):
        ReservoirConfig(layout, scale=2.0, shots="approx")
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        ReservoirConfig(layout, scale=2.0, seed=-1)
    assert ReservoirConfig(layout, scale=2.0).exact
    assert not ReservoirConfig(layout, scale=2.0, shots=100).exact


def test_run_reservoir_input_validation():
    cfg = ReservoirConfig(SubsystemLayout.default(2), scale=2.0)
    with pytest.raises(ConfigError):
        run_reservoir([], cfg)
    # a (B, T) stack is a batch of B sequences; more axes are not
    with pytest.raises(ConfigError):
        run_reservoir([[[0.1, 0.2]]], cfg)
    with pytest.raises(ConfigError):
        run_reservoir(np.empty((2, 0)), cfg)
    with pytest.raises(ConfigError):
        run_reservoir([0.1, float("nan")], cfg)
    with pytest.raises(ConfigError):
        run_reservoir([[0.1, 0.2], [0.3, float("nan")]], cfg)


def test_feature_series_validation_and_shape():
    f = FeatureSeries(np.zeros((5, 3)))
    assert f.timesteps == 5 and f.width == 3
    with pytest.raises(ValueError):
        FeatureSeries(np.zeros(5))
    with pytest.raises(ValueError):
        FeatureSeries(np.array([[np.inf]]))


def test_feature_series_csv_round_trip(tmp_path):
    values = np.random.default_rng(2).standard_normal((7, 4))
    path = tmp_path / "features.csv"
    FeatureSeries(values).to_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "t,z0,z1,z2,z3"
    back = FeatureSeries.from_csv(path)
    assert np.array_equal(back.values, values)  # 17 digits: exact round trip


def test_split_series_windows():
    f = FeatureSeries(np.arange(12.0).reshape(6, 2))
    train, test = split_series(f, washout=2, train=3, test=1)
    assert np.array_equal(train.values, f.values[2:5])
    assert np.array_equal(test.values, f.values[5:6])
    with pytest.raises(ConfigError):
        split_series(f, washout=2, train=3, test=2)
    with pytest.raises(ConfigError):
        split_series(f, washout=-1, train=3, test=1)


_SPLIT_CALLS = {
    "split_series": lambda u, y, split: split_series(FeatureSeries(u[:, None]),
                                                     *split),
    "stationarity_report": lambda u, y, split: stationarity_report(y, split),
    "fit_linear_baseline": lambda u, y, split: fit_linear_baseline(u, y, split),
    "esn_sweep": lambda u, y, split: esn_sweep(u, y, split, node_counts=(2,),
                                               radii=(0.9,), trials=1),
}


@pytest.mark.parametrize("split", [(-5, 20, 10), (5, -2, 10), (5, 20, -1),
                                   (5, 20, 6), (5, 0, 10), (5, 20, 0)],
                         ids=["negative-washout", "negative-train",
                              "negative-test", "over-length", "empty-train",
                              "empty-test"])
@pytest.mark.parametrize("entry", [*_SPLIT_CALLS, "analyze-cli"])
def test_every_split_entry_point_rejects_bad_windows(tmp_path, capsys, entry,
                                                     split):
    # one engine check guards every (washout, train, test) consumer, so no
    # negative window wraps around and no train or test window is empty
    rng = np.random.default_rng(3)
    u = rng.uniform(0.0, 0.2, size=30)
    y = np.sin(np.arange(30.0)) + 2.0
    if entry in _SPLIT_CALLS:
        with pytest.raises(ConfigError):
            _SPLIT_CALLS[entry](u, y, split)
        return
    path = tmp_path / "features.csv"
    FeatureSeries(np.column_stack([u, y])).to_csv(path)
    washout, train, test = (str(v) for v in split)
    assert main(["analyze", "--features", str(path), "--washout", washout,
                 "--train", train, "--test", test]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
