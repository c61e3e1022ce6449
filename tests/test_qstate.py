"""State/gate/channel algebra against naive full-matrix oracles."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qreservoir import (CapacityError, DensityMatrix, InvalidChannelError,
                        KrausChannel, ReservoirConfig, SubsystemLayout,
                        apply_channel, basis_state, evolve,
                        pauli_z_expectations, plus_state)
from qreservoir import engine, preset_profile, qstate
from qreservoir.qstate import check_capacity

from oracle import maximally_mixed, trace_distance, validate


def random_density(n, seed):
    """Ginibre construction: A A^dag normalized, always a valid state."""
    rng = np.random.default_rng(seed)
    d = 1 << n
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = a @ a.conj().T
    return DensityMatrix(n, m / np.trace(m))


def random_unitary(k, seed):
    rng = np.random.default_rng(seed)
    d = 1 << k
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    qmat, r = np.linalg.qr(a)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


def embed(op, targets, n):
    """Naive dense embedding of a k-qubit operator into the n-qubit space.

    Independent of the package's contraction code on purpose: entry by entry,
    nonzero only where non-target bits agree.
    """
    d = 1 << n
    k = len(targets)
    full = np.zeros((d, d), dtype=np.complex128)
    rest = [q for q in range(n) if q not in targets]
    for r in range(d):
        rb = [(r >> (n - 1 - q)) & 1 for q in range(n)]
        for c in range(d):
            cb = [(c >> (n - 1 - q)) & 1 for q in range(n)]
            if any(rb[q] != cb[q] for q in rest):
                continue
            ri = sum(rb[t] << (k - 1 - i) for i, t in enumerate(targets))
            ci = sum(cb[t] << (k - 1 - i) for i, t in enumerate(targets))
            full[r, c] = op[ri, ci]
    return full


def test_plus_state_uniform_entries():
    st = plus_state(3)
    assert st.matrix.shape == (8, 8)
    assert np.allclose(st.matrix, 1 / 8)
    assert abs(np.trace(st.matrix) - 1) < 1e-12


def test_maximally_mixed_is_identity_over_d():
    st = maximally_mixed(2)
    assert np.allclose(st.matrix, np.eye(4) / 4)


def test_basis_state_from_int_and_bits():
    a = basis_state(2, 2)
    b = basis_state(2, (1, 0))  # qubit 0 is the most significant bit
    assert np.allclose(a.matrix, b.matrix)
    assert a.matrix[2, 2] == 1.0


def test_basis_state_rejects_bad_labels():
    with pytest.raises(ValueError):
        basis_state(2, (1, 2))
    with pytest.raises(ValueError):
        basis_state(2, 4)
    with pytest.raises(ValueError):
        basis_state(2, (1,))


def test_density_matrix_validation():
    with pytest.raises(CapacityError):
        DensityMatrix(0, np.eye(1))
    with pytest.raises(CapacityError):
        plus_state(15)
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(4) / 4)  # wrong shape for n=1
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[np.nan, 0], [0, 1]]))


def test_validate_catches_negative_eigenvalue():
    m = np.diag([1.5, -0.5]).astype(np.complex128)
    st = DensityMatrix(1, m)  # Hermitian and trace one, but not PSD
    with pytest.raises(ValueError):
        validate(st)
    validate(plus_state(2))


def test_unitary_gate_validation():
    """A gate is a one-operator KrausChannel: a non-unitary matrix, a
    repeated target and three targets are all rejected."""
    with pytest.raises(InvalidChannelError):
        KrausChannel((0,), (np.diag([1, 2]),))
    with pytest.raises(ValueError):
        KrausChannel((0, 0), (np.eye(4),))
    with pytest.raises(ValueError):
        KrausChannel((0, 1, 2), (np.eye(8),))


def test_channel_rejects_non_integer_targets():
    with pytest.raises(TypeError):
        KrausChannel((1.7,), (np.eye(2),))  # int() would target qubit 1
    assert KrausChannel((np.int64(1),), (np.eye(2),)).targets == (1,)


def test_density_matrix_is_always_validated():
    with pytest.raises(TypeError):  # no third field to switch the check off
        DensityMatrix(1, np.eye(2) / 2, False)
    with pytest.raises(ValueError, match="trace must be 1"):
        DensityMatrix(1, np.diag([0.6, 0.2]))


def test_kraus_channel_validation():
    with pytest.raises(InvalidChannelError):
        KrausChannel((0,), (np.eye(2) * 0.5,))  # completeness broken
    with pytest.raises(InvalidChannelError):
        KrausChannel((0,), ())
    KrausChannel((0,), (np.eye(2),))


@pytest.mark.parametrize("targets", [(0,), (1,), (2,), (0, 2), (2, 0), (1, 2)])
def test_apply_unitary_matches_full_matrix_oracle(targets):
    n = 3
    st = random_density(n, seed=7)
    u = random_unitary(len(targets), seed=11)
    got = apply_channel(st, KrausChannel(targets, (u,))).matrix
    full = embed(u, targets, n)
    want = full @ st.matrix @ full.conj().T
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("targets", [(0,), (2,), (1, 0), (0, 2)])
def test_apply_channel_matches_kraus_sum_oracle(targets):
    n = 3
    st = random_density(n, seed=3)
    k = len(targets)
    # random CPTP map from a Ginibre pair, normalized via the completeness sum
    rng = np.random.default_rng(5)
    d = 1 << k
    raw = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
           for _ in range(3)]
    acc = sum(op.conj().T @ op for op in raw)
    w = np.linalg.inv(np.linalg.cholesky(acc).conj().T)
    ops = [op @ w for op in raw]
    got = apply_channel(st, KrausChannel(targets, ops)).matrix
    want = sum(embed(op, targets, n) @ st.matrix @ embed(op, targets, n).conj().T
               for op in ops)
    assert np.abs(got - want).max() < 1e-12


def test_apply_unitary_out_of_range_target():
    with pytest.raises(IndexError):
        apply_channel(plus_state(2), KrausChannel((2,), (np.eye(2),)))


def test_pauli_z_expectations_on_basis_states():
    assert np.allclose(pauli_z_expectations(basis_state(2, (0, 1)).populations), [1, -1])
    assert np.allclose(pauli_z_expectations(basis_state(3, (1, 0, 1)).populations), [-1, 1, -1])
    assert np.allclose(pauli_z_expectations(plus_state(3).populations), 0)
    assert np.allclose(pauli_z_expectations(maximally_mixed(2).populations), 0)


@pytest.mark.parametrize("populations", [
    np.full(6, 1 / 6), np.ones(1), np.full((4, 4), 1 / 16),
], ids=["length-6", "length-1", "two-dimensional"])
def test_pauli_z_expectations_rejects_non_population_shapes(populations):
    with pytest.raises(ValueError, match="populations of length 2"):
        pauli_z_expectations(populations)


def test_trace_distance_metric_properties():
    a, b, c = (random_density(2, s) for s in (1, 2, 3))
    assert trace_distance(a, a) == 0
    assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-14
    assert trace_distance(a, b) <= trace_distance(a, c) + trace_distance(c, b) + 1e-14
    assert trace_distance(basis_state(1, 0), basis_state(1, 1)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        trace_distance(plus_state(1), plus_state(2))


def test_capacity_counts_a_trajectory_against_physical_memory(monkeypatch):
    # a trajectory holds 2 matrices of 16 * 4^n bytes: 131072 bytes at n = 6
    # fit in 163840, the 524288 of n = 7 do not
    monkeypatch.setattr(qstate, "_physical_memory", lambda: 163840)
    check_capacity(6)
    plus_state(6)
    with pytest.raises(CapacityError, match="physical memory"):
        check_capacity(7)
    with pytest.raises(CapacityError, match="physical memory"):
        evolve([0.1], ReservoirConfig(SubsystemLayout.default(8), 2.0))


def test_a_batch_is_evolved_in_chunks_within_the_budget(monkeypatch):
    # at n = 10 a trajectory holds 2 x 16 MiB = 32 MiB, so the 32 MiB budget
    # evolves a batch of 3 one trajectory at a time. With a budget of 3
    # trajectories it is one chunk, and the populations are the same
    config = ReservoirConfig(SubsystemLayout.default(10), 2.0,
                             preset_profile("strong-dense", 10))
    inputs = [[0.3, -0.2], [0.7, 0.1], [0.3, -0.2]]
    real = engine.apply_device_noise
    sizes = []
    monkeypatch.setattr(engine, "apply_device_noise",
                        lambda *args: sizes.append(len(args[0])) or real(*args))
    chunked = evolve(inputs, config)
    assert qstate.trajectory_bytes(10) == 2 * 16 * 4 ** 10
    assert sizes == [1] * 6
    assert qstate.trajectory_bytes(10) <= qstate.BATCH_BUDGET
    sizes.clear()
    monkeypatch.setattr(qstate, "BATCH_BUDGET", 3 * qstate.trajectory_bytes(10))
    whole = evolve(inputs, config)
    assert sizes == [3] * 2
    assert np.array_equal(chunked, whole)
    assert np.array_equal(chunked[0], chunked[2])


# A fresh interpreter measures its own peak resident set: VmHWM, the high
# water mark of its address space, which starts afresh at exec. (Its
# ru_maxrss would not do: on Linux it keeps the parent's peak across exec, so
# a child of this test process starts at this process's peak.) One n = 2 run
# first pays the one-time costs (lazy imports, the BLAS buffers, about
# 1.3 MiB); the growth of the peak over 3 steps at n = 10 is then the
# trajectory's footprint.
_FOOTPRINT_PROBE = """
from qreservoir import ReservoirConfig, SubsystemLayout, evolve, preset_profile
from qreservoir.qstate import TRAJECTORY_FOOTPRINT
def peak():
    with open("/proc/self/status") as status:
        line = next(x for x in status if x.startswith("VmHWM:"))
    return int(line.split()[1]) * 1024
def run(n, steps):
    config = ReservoirConfig(SubsystemLayout.default(n), 2.0,
                             preset_profile("strong-dense", n))
    evolve([0.3, -0.2, 0.7][:steps], config)
run(2, 1)
before = peak()
run(10, 3)
print(peak() - before, TRAJECTORY_FOOTPRINT * 16 * 4 ** 10)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs the Linux per-process status file")
def test_trajectory_footprint_estimate_matches_measured_peak_rss():
    # measured 32.26-32.28 MiB against the estimate's 32.0 MiB: the excess is
    # the per-profile caches (the crosstalk factors are 2 x 64 KiB at n = 10)
    # and the step check's 64 KiB slice, which do not grow with 4^n. The 5%
    # slack is 1.6 MiB.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    growth, estimate = map(float, proc.stdout.split())
    assert 0.95 * estimate <= growth <= 1.05 * estimate
