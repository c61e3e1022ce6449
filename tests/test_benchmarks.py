"""Benchmark generators and the echo-state-network baseline."""
import itertools
from contextlib import nullcontext

import numpy as np
import pytest

from qreservoir import (DEFAULT_RADIUS_GRID, REFERENCE_T_START, ConfigError,
                        DivergenceError, InputSignalSpec, LabeledSeriesDataset,
                        NarmaSpec, class_mean_waveform, esn_sweep,
                        fit_regression, gen_input, gen_narma,
                        gen_synthetic_sensor, input_signal_value, narma_task,
                        nmse, predict, preprocess_diff)
from qreservoir import benchmarks
from qreservoir.benchmarks import radius_grid

GOLDEN_RATIO_FIXED_POINT = (3 - np.sqrt(5)) / 4  # root of y = 0.4y + 0.4y^2 + 0.1


def test_input_signal_reference_points():
    spec = InputSignalSpec()
    assert input_signal_value(0) == pytest.approx(0.1)
    assert gen_input(spec)[0] == pytest.approx(0.10078393313126387, abs=1e-15)
    u = gen_input(InputSignalSpec(length=500))
    assert u.min() >= 0.0 and u.max() <= 0.2
    assert u.std() > 0.01  # actually moves


def test_input_signal_origin_shift():
    ref = gen_input(InputSignalSpec(length=10, t_start=REFERENCE_T_START))
    assert ref[1] == pytest.approx(0.1)  # t = 0 sits at the second sample
    assert ref[2] == pytest.approx(gen_input(InputSignalSpec(length=10))[0])


def test_input_signal_validation():
    with pytest.raises(ConfigError):
        InputSignalSpec(length=0)


def test_narma2_recurrence_recomputed():
    u = gen_input(InputSignalSpec(length=50, t_start=REFERENCE_T_START))
    y = gen_narma(NarmaSpec.narma2(), u)
    for t in range(1, 50):  # 0-based row t holds y_{t+1}
        prev = y[t - 1]
        prev2 = y[t - 2] if t >= 2 else 0.0
        want = 0.4 * prev + 0.4 * prev * prev2 + 0.6 * u[t - 1] ** 3 + 0.1
        assert y[t] == pytest.approx(want, abs=1e-15)
    assert y[0] == 0.0
    assert 0.0 < y.max() < 1.0


def test_narma2_zero_input_converges_to_fixed_point():
    y = gen_narma(NarmaSpec.narma2(), np.zeros(400))
    assert y[-1] == pytest.approx(GOLDEN_RATIO_FIXED_POINT, abs=1e-12)


def test_general_narma_recurrence_recomputed():
    order = 5
    rng = np.random.default_rng(9)
    u = rng.uniform(0.0, 0.2, size=60)
    y = gen_narma(NarmaSpec(order), u)
    assert y[0] == 0.0

    def yv(t):  # zero history: y_t = 0 for t < 1
        return y[t - 1] if t >= 1 else 0.0

    for t in range(1, 60):
        lagged_u = u[t - order] if t - order >= 0 else 0.0
        want = (0.3 * yv(t) + 0.05 * yv(t) * sum(yv(t - j) for j in range(order))
                + 1.5 * lagged_u * u[t - 1] + 0.1)
        assert y[t] == pytest.approx(want, abs=1e-14)


def test_narma_spec_validation_and_divergence():
    with pytest.raises(ConfigError):
        NarmaSpec(order=0)
    # y_2 = 0.6 * 200^3 + 0.1 = 4.8e6 already exceeds the 1e6 limit
    with pytest.raises(DivergenceError, match="t=2"):
        gen_narma(NarmaSpec(2), np.full(10, 200.0))
    with pytest.raises(ConfigError):
        gen_narma(NarmaSpec.narma2(), np.zeros((3, 3)))


def test_narma_task_routes_by_order():
    u2, y2 = narma_task(2, length=40)
    assert u2.shape == y2.shape == (40,)
    assert np.array_equal(y2, gen_narma(NarmaSpec.narma2(), u2))
    u10, y10 = narma_task(10, length=40)
    assert np.array_equal(u10, u2)  # same drive, different recurrence
    assert np.array_equal(y10, gen_narma(NarmaSpec(10), u10))


def test_preprocess_diff():
    assert np.array_equal(preprocess_diff([1.0, 4.0, 9.0]), [3.0, 5.0])
    with pytest.raises(ValueError):
        preprocess_diff([1.0])
    with pytest.raises(ValueError):
        preprocess_diff(np.zeros((3, 2)))


def test_sensor_dataset_shapes_and_determinism():
    ds = gen_synthetic_sensor(num_classes=3, samples_per_class=4, timesteps=50,
                              seed=2)
    assert ds.num_classes == 3
    assert ds.series.shape == (12, 50)
    assert ds.timesteps == 50
    assert np.array_equal(ds.labels, np.repeat([0, 1, 2], 4))
    again = gen_synthetic_sensor(num_classes=3, samples_per_class=4,
                                 timesteps=50, seed=2)
    assert np.array_equal(ds.series, again.series)


def test_sensor_noise_free_samples_equal_class_means():
    ds = gen_synthetic_sensor(samples_per_class=2, timesteps=40, seed=0,
                              noise_amplitude=0.0)
    for series, label in zip(ds.series, ds.labels):
        assert np.array_equal(series, class_mean_waveform(label, 40))


def test_sensor_class_similarity_structure():
    # classes 0 and 1 are near neighbors; class 2 is far from both
    m = [class_mean_waveform(c, 90) for c in range(3)]
    d01 = np.abs(m[0] - m[1]).max()
    d02 = np.abs(m[0] - m[2]).max()
    d12 = np.abs(m[1] - m[2]).max()
    assert 0 < d01 < 0.2
    assert d02 > 3 * d01 and d12 > 3 * d01
    with pytest.raises(ValueError):
        gen_synthetic_sensor(num_classes=1)


def test_labeled_dataset_validation():
    ds = LabeledSeriesDataset([np.zeros(5), np.ones(5)], [0, 1], 2)
    assert ds.series.shape == (2, 5) and ds.labels.tolist() == [0, 1]
    with pytest.raises(ValueError):  # ragged rows
        LabeledSeriesDataset([np.zeros(5), np.zeros(6)], [0, 1], 2)
    with pytest.raises(ValueError):  # one label for two rows
        LabeledSeriesDataset(np.zeros((2, 5)), [0], 2)
    with pytest.raises(ValueError, match="out of range"):
        LabeledSeriesDataset(np.zeros((2, 5)), [0, 2], 2)
    with pytest.raises(ValueError, match="out of range"):
        LabeledSeriesDataset(np.zeros((2, 5)), [-1, 1], 2)
    with pytest.raises(ValueError, match="labels must be integers"):
        LabeledSeriesDataset(np.zeros((2, 5)), [0, 0.5], 2)


def esn_step(x, u, w, w_in) -> np.ndarray:
    """The sequential ESN oracle for `esn_sweep`: x_t = tanh(W^T x_{t-1} +
    W_in * u_t)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    w_in = np.asarray(w_in, dtype=np.float64)
    if w.shape != (x.size, x.size) or w_in.shape != x.shape:
        raise ValueError(
            f"shape mismatch: x {x.shape}, W {w.shape}, W_in {w_in.shape}")
    return np.tanh(w.T @ x + w_in * float(u))


def run_esn(inputs, w, w_in) -> np.ndarray:
    """`esn_step` from x_0 = 0: the state rows x_1..x_M."""
    u = np.asarray(inputs, dtype=np.float64)
    x = np.zeros(len(w_in))
    out = np.empty((u.size, x.size))
    for t in range(u.size):
        x = esn_step(x, u[t], w, w_in)
        out[t] = x
    return out


def test_esn_step_hand_check():
    w = np.array([[0.1, 0.2], [0.3, 0.4]])
    x = np.array([1.0, -1.0])
    w_in = np.array([1.0, -1.0])
    got = esn_step(x, 0.5, w, w_in)
    want = np.tanh(np.array([0.1 - 0.3 + 0.5, 0.2 - 0.4 - 0.5]))
    assert np.allclose(got, want, atol=1e-15)
    with pytest.raises(ValueError):
        esn_step(x, 0.5, np.eye(3), w_in)


def test_run_esn_matches_stepwise_iteration():
    rng = np.random.default_rng(3)
    w = 0.2 * rng.standard_normal((4, 4))
    w_in = rng.choice([-1.0, 1.0], 4)
    u = np.linspace(0.0, 0.2, 7)
    states = run_esn(u, w, w_in)
    x = np.zeros(4)
    for t in range(7):
        x = esn_step(x, u[t], w, w_in)
        assert np.array_equal(states[t], x)


def test_esn_sweep_small_grid_structure():
    u, y = narma_task(2, length=40)
    report = esn_sweep(u, y, (5, 25, 10), node_counts=(2, 3),
                       radii=(0.5, 0.9), trials=3, seed=0)
    assert report.radii == (0.5, 0.9)
    assert [r.nodes for r in report.results] == [2, 3]
    r = report.result_for(3)
    assert r.nmse.shape == (2, 3)
    assert r.per_radius_mean.shape == (2,)
    assert r.global_minimum == pytest.approx(r.per_radius_mean.min())
    assert r.best_radius in (0.5, 0.9)
    assert r.global_average == pytest.approx(r.nmse.mean())
    with pytest.raises(KeyError):
        report.result_for(7)
    again = esn_sweep(u, y, (5, 25, 10), node_counts=(2, 3),
                      radii=(0.5, 0.9), trials=3, seed=0)
    assert np.array_equal(again.result_for(2).nmse, report.result_for(2).nmse)


def test_esn_sweep_cell_matches_sequential_route():
    # the sweep vectorizes over trials; one cell must equal the plain
    # run_esn + pseudoinverse readout route on the same substream draw, whose
    # W has the requested spectral radius and whose W_in takes the style's
    # two values
    u, y = narma_task(2, length=60)
    for style, values in (("pm1", {-1.0, 1.0}), ("01", {0.0, 1.0})):
        report = esn_sweep(u, y, (5, 40, 15), node_counts=(3,), radii=(0.7,),
                           trials=2, input_weight_style=style, seed=11)
        rng = np.random.default_rng([11, 3, 0])
        raw = rng.integers(0, 2, 3).astype(np.float64)
        w_in = raw if style == "01" else raw * 2.0 - 1.0
        w = rng.standard_normal((3, 3))
        w *= 0.7 / np.abs(np.linalg.eigvals(w)).max()
        assert np.abs(np.linalg.eigvals(w)).max() == pytest.approx(0.7)
        assert set(np.unique(w_in)) <= values
        states = run_esn(u, w, w_in)
        weights = fit_regression(states[5:45], y[5:45])
        want = nmse(predict(weights, states[45:60]), y[45:60])
        assert report.results[0].nmse[0, 0] == pytest.approx(want, rel=1e-6)


def test_esn_sweep_validation():
    u, y = narma_task(2, length=30)
    with pytest.raises(ConfigError):
        esn_sweep(u, y, (5, 20, 10), node_counts=(2,), radii=(0.5,))
    with pytest.raises(ConfigError):
        esn_sweep(u, y, (5, 20, 5), node_counts=(), radii=(0.5,))
    with pytest.raises(ConfigError, match="node counts"):
        esn_sweep(u, y, (5, 20, 5), node_counts=(0, 2), radii=(0.5,))
    with pytest.raises(ConfigError, match="radii"):
        esn_sweep(u, y, (5, 20, 5), node_counts=(2,), radii=(0.5, 0.0))
    with pytest.raises(ConfigError, match="radii"):
        esn_sweep(u, y, (5, 20, 5), node_counts=(2,), radii=(0.5, np.nan))
    with pytest.raises(ConfigError, match="radii"):
        esn_sweep(u, y, (5, 20, 5), node_counts=(2,), radii=(0.5, np.inf))
    with pytest.raises(ConfigError, match="'binary'"):
        esn_sweep(u, y, (5, 20, 5), node_counts=(2,), radii=(0.5,),
                  input_weight_style="binary")
    with pytest.raises(ConfigError, match="trials"):
        esn_sweep(u, y, (5, 20, 5), node_counts=(2,), radii=(0.5,), trials=0)
    # bad data is rejected before any reservoir is drawn
    grid = dict(node_counts=(2,), radii=(0.5,), trials=1)
    with pytest.raises(ConfigError, match="finite"):
        esn_sweep(u, np.where(np.arange(30) == 7, np.nan, y), (5, 20, 5), **grid)
    with pytest.raises(ConfigError, match="finite"):
        esn_sweep(np.where(np.arange(30) == 3, np.inf, u), y, (5, 20, 5), **grid)
    with pytest.raises(ConfigError, match="zero over the whole test window"):
        esn_sweep(u, np.where(np.arange(30) < 25, y, 0.0), (5, 20, 5), **grid)
    with pytest.raises(ConfigError, match="zero over the whole test window"):
        esn_sweep(u, np.stack([y, np.where(np.arange(30) < 25, y, 0.0)]),
                  (5, 20, 5), **grid)
    with pytest.raises(ConfigError, match="targets of shape"):
        esn_sweep(u, y[:-1], (5, 20, 4), **grid)
    with pytest.raises(ConfigError, match="targets of shape"):
        esn_sweep(u, y[None, None, :], (5, 20, 5), **grid)
    with pytest.raises(ConfigError, match="inputs must be 1-d"):
        esn_sweep(u[None, :], y, (5, 20, 5), **grid)
    with pytest.raises(ConfigError, match="node counts must be an integer"):
        esn_sweep(u, y, (5, 20, 5), node_counts=(2.5,), radii=(0.5,), trials=1)


def _per_radius_sweep(u, y, split, node_counts, radii, trials, style, seed):
    """The NMSE grid of each node count, one radius at a time."""
    washout, train, test = split
    tr = slice(washout, washout + train)
    te = slice(washout + train, washout + train + test)
    grids = []
    for nodes in node_counts:
        ws = np.empty((trials, nodes, nodes))
        wins = np.empty((trials, nodes))
        for b in range(trials):
            rng = np.random.default_rng([seed, nodes, b])
            ws[b], wins[b] = benchmarks._draw_esn(rng, nodes, style)
        sr = np.abs(np.linalg.eigvals(ws)).max(axis=1)
        grid = np.empty((len(radii), trials))
        for ri, radius in enumerate(radii):
            w_r = ws * (radius / sr)[:, None, None]
            x = np.zeros((trials, nodes))
            feats = np.empty((trials, u.size, nodes))
            for t in range(u.size):
                x = np.tanh(np.einsum("bji,bj->bi", w_r, x) + wins * u[t])
                feats[:, t, :] = x
            aug = np.concatenate([feats, np.ones((trials, u.size, 1))], axis=2)
            w_out = np.linalg.pinv(aug[:, tr, :],
                                   rcond=benchmarks.DEFAULT_RCOND) @ y[tr]
            pred = np.einsum("btk,bk->bt", aug[:, te, :], w_out)
            grid[ri] = ((pred - y[te]) ** 2).sum(axis=1) / (y[te] ** 2).sum()
        grids.append(grid)
    return grids


@pytest.mark.parametrize("budget", [1, 600, 1 << 16],
                         ids=["one-radius", "uneven-chunks", "default"])
def test_esn_sweep_chunks_equal_the_per_radius_loop(monkeypatch, budget):
    # 7 radii at 2 nodes x 2 trials x 50 rows fill chunks of 1 radius, of
    # 600 // 300 = 2 radii (the last chunk holds one) or of all 7; the NMSEs
    # are bit for bit those of one radius at a time. Node counts (3, 2) run
    # the smaller design after the larger one.
    monkeypatch.setattr(benchmarks, "DESIGN_BUDGET", budget)
    u, y2 = narma_task(2, length=50)
    ys = np.stack([y2, narma_task(5, length=50)[1]])
    radii = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0)
    split = (5, 30, 15)
    for nodes, style in itertools.product(((2, 3), (3, 2)), ("01", "pm1")):
        reports = esn_sweep(u, ys, split, node_counts=nodes, radii=radii,
                            trials=2, input_weight_style=style, seed=4)
        assert isinstance(reports, tuple) and len(reports) == 2
        for y, rep in zip(ys, reports):
            want = _per_radius_sweep(u, y, split, nodes, radii, 2, style, 4)
            single = esn_sweep(u, y, split, node_counts=nodes, radii=radii,
                               trials=2, input_weight_style=style, seed=4)
            for grid, got, alone in zip(want, rep.results, single.results):
                assert np.array_equal(got.nmse, grid)
                assert np.array_equal(alone.nmse, grid)
                assert np.array_equal(got.per_radius_mean, grid.mean(axis=1))
                assert got.global_average == alone.global_average
                assert got.best_radius == alone.best_radius


def test_esn_sweep_fills_one_design_buffer_per_node_count(monkeypatch):
    # a budget of 700 takes the 7 radii at 2 trials x 50 rows in chunks of
    # 700 // 300 = 2 radii at 2 nodes (4 chunks, the last holding one) and of
    # 700 // 400 = 1 radius at 3 nodes. Each chunk's design must be written
    # into its node count's one buffer, which is poisoned with NaN before
    # every chunk, so an entry left from an earlier chunk would reach an NMSE.
    monkeypatch.setattr(benchmarks, "DESIGN_BUDGET", 700)
    chunk_nmse = benchmarks._chunk_nmse
    bufs, used = {2: [], 3: []}, {2: [], 3: []}

    def recording(ws, wins, scale, u, ys, tr, te, energy, buf):
        nodes = wins.shape[1]
        size = scale.size * u.size * (nodes + 1)
        bufs[nodes].append(buf)
        used[nodes].append(size)
        buf.fill(np.nan)
        nmse = chunk_nmse(ws, wins, scale, u, ys, tr, te, energy, buf)
        assert np.isfinite(buf[:size]).all()
        return nmse

    monkeypatch.setattr(benchmarks, "_chunk_nmse", recording)
    u, y = narma_task(2, length=50)
    radii = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0)
    rep = esn_sweep(u, y, (5, 30, 15), node_counts=(2, 3), radii=radii,
                    trials=2, seed=4)
    assert used == {2: [600, 600, 600, 300], 3: [400] * 7}
    for nodes, sizes in used.items():
        assert all(buf is bufs[nodes][0] for buf in bufs[nodes])
        assert bufs[nodes][0].shape == (sizes[0],)
    assert bufs[2][0] is not bufs[3][0]
    want = _per_radius_sweep(u, y, (5, 30, 15), (2, 3), radii, 2, "pm1", 4)
    for grid, got in zip(want, rep.results):
        assert np.array_equal(got.nmse, grid)


def test_radius_grid_pins_the_default_and_rejects_bad_grids():
    want = np.round(np.arange(1, 101) * 0.01, 2)
    assert np.array(DEFAULT_RADIUS_GRID).tobytes() == want.tobytes()
    assert radius_grid(0.2, 0.6, 0.2) == (0.2, 0.4, 0.6)
    for lo, hi, step in ((0.0, 1.0, 0.1), (0.5, 0.4, 0.1), (0.1, np.inf, 0.1),
                         (0.1, 1.0, 0.0), (0.1, 1.0, np.nan), (0.1, 0.1, np.inf),
                         (0.1, 1.0, 0.25)):
        with pytest.raises(ConfigError, match="radius grid"):
            radius_grid(lo, hi, step)


# ------------------------------------------ the ESN grid on one BLAS thread

OPENBLAS = benchmarks._openblas_threads()


@pytest.fixture
def blas_threads():
    """Reads the thread count of numpy's OpenBLAS, set to 2 for the test so a
    one-thread region shows; the count before the test is restored after."""
    if OPENBLAS is None:
        pytest.skip("numpy bundles no OpenBLAS with thread-count calls")
    get, put = OPENBLAS
    before = get()
    put(2)
    yield get
    put(before)


def _recording_chunks(monkeypatch, get, seen, fail=False):
    """Wrap `_chunk_nmse` to append the thread count of each call to `seen`."""
    chunk = benchmarks._chunk_nmse

    def recording(*args):
        seen.append(get())
        if fail:
            raise RuntimeError("chunk failed")
        return chunk(*args)

    monkeypatch.setattr(benchmarks, "_chunk_nmse", recording)


def test_openblas_lookup_succeeds_where_numpy_bundles_scipy_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"numpy is built against {blas.get('name')!r}")
    assert OPENBLAS is not None


def test_esn_sweep_one_thread_grid_equals_the_default_threads(monkeypatch,
                                                              blas_threads):
    # at 50 nodes the (70, 51) training designs are large enough that
    # OpenBLAS threads their SVDs; with the lookup "not found" the grid runs
    # on the 2 threads set by the fixture
    u, y = narma_task(2)
    grid = dict(node_counts=(2, 50), radii=(0.3, 0.6, 0.9), trials=10)
    seen = []
    _recording_chunks(monkeypatch, blas_threads, seen)
    one = esn_sweep(u, y, (10, 70, 20), **grid)
    assert seen and set(seen) == {1}
    seen.clear()
    monkeypatch.setattr(benchmarks, "_openblas_threads", lambda: None)
    default = esn_sweep(u, y, (10, 70, 20), **grid)
    assert seen and set(seen) == {2}
    for a, b in zip(one.results, default.results):
        assert np.array_equal(a.nmse, b.nmse)


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_esn_sweep_restores_the_thread_count(monkeypatch, blas_threads, fail):
    u, y = narma_task(2, length=50)
    seen = []
    _recording_chunks(monkeypatch, blas_threads, seen, fail)
    with pytest.raises(RuntimeError, match="chunk failed") if fail else nullcontext():
        esn_sweep(u, y, (5, 30, 15), node_counts=(2, 3), radii=(0.5,), trials=2)
    assert seen == ([1] if fail else [1, 1])
    assert blas_threads() == 2
