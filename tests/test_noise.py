"""Noise channels, profile parsing, and the composed device step."""
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

import qreservoir.noise
from qreservoir import (CorruptedStateError, DensityMatrix, DeviceNoiseProfile,
                        ProfileError, ReservoirConfig, SubsystemLayout,
                        Topology, amplitude_damping_channel,
                        apply_channel, apply_device_noise,
                        basis_state, build_layer, depolarizing_channel,
                        evolve, load_noise_profile,
                        phase_damping_channel, plus_state, preset_profile,
                        zero_noise, zz_crosstalk_gate)
from qreservoir.noise import (_hermiticity_residual, _noise_plan,
                              _on_every_pair, _on_pair, _pair_blocks,
                              _qubit_order, _step_plan,
                              idle_damped_populations)
from qreservoir.qstate import _apply_superop_tensor

from dense_step import device_step, pair_axes
from oracle import (apply_layer, layer_block, layer_gates, maximally_mixed,
                    pair_block_superop, validate)

PROFILE_DIR = Path(__file__).resolve().parent.parent / "profiles"


def random_density(n, seed):
    rng = np.random.default_rng(seed)
    d = 1 << n
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = a @ a.conj().T
    return DensityMatrix(n, m / np.trace(m))


def sequential_step(state, profile, layer):
    """Hand-rolled reference for one noisy timestep: every gate followed by its
    depolarizing channel, then crosstalk unitaries edge by edge, then amplitude
    and phase damping qubit by qubit. Deliberately avoids the library's plan
    caching and superoperator composition."""
    for gate in layer_gates(layer):
        state = apply_channel(state, gate)
        if len(gate.targets) == 1 and profile.p1 > 0:
            state = apply_channel(
                state, depolarizing_channel(profile.p1, 1, gate.targets))
        if len(gate.targets) == 2 and profile.p2 > 0:
            state = apply_channel(
                state, depolarizing_channel(profile.p2, 2, gate.targets))
    if profile.zz_theta != 0.0:
        for edge in profile.topology.edges:
            state = apply_channel(state, zz_crosstalk_gate(profile.zz_theta, edge))
    for q in range(state.num_qubits):
        if profile.gamma_idle > 0:
            state = apply_channel(
                state, amplitude_damping_channel(profile.gamma_idle, q))
    for q in range(state.num_qubits):
        if profile.lambda_idle > 0:
            state = apply_channel(
                state, phase_damping_channel(profile.lambda_idle, q))
    return state


# ---------------------------------------------------------------- channels

def test_depolarizing_half_on_ground_state():
    out = apply_channel(basis_state(1, 0), depolarizing_channel(0.5, 1, (0,)))
    assert np.allclose(out.matrix, np.diag([0.75, 0.25]))


def test_depolarizing_keeps_maximally_mixed_fixed():
    st = maximally_mixed(2)
    for p in (0.1, 0.7, 1.0):
        out = apply_channel(st, depolarizing_channel(p, 2, (0, 1)))
        assert np.abs(out.matrix - st.matrix).max() < 1e-14


def test_depolarizing_full_strength_erases_everything():
    out = apply_channel(random_density(2, 0), depolarizing_channel(1.0, 2, (0, 1)))
    assert np.abs(out.matrix - np.eye(4) / 4).max() < 1e-14


def test_depolarizing_zero_is_identity_with_one_operator():
    ch = depolarizing_channel(0.0, 1, (0,))
    assert len(ch.operators) == 1
    st = random_density(1, 1)
    assert np.abs(apply_channel(st, ch).matrix - st.matrix).max() < 1e-14


def test_depolarizing_mixes_linearly_toward_identity():
    st = random_density(1, 2)
    p = 0.3
    out = apply_channel(st, depolarizing_channel(p, 1, (0,)))
    want = (1 - p) * st.matrix + p * np.eye(2) / 2
    assert np.abs(out.matrix - want).max() < 1e-14


def test_depolarizing_rejects_bad_arguments():
    with pytest.raises(ValueError):
        depolarizing_channel(-0.1, 1, (0,))
    with pytest.raises(ValueError):
        depolarizing_channel(1.1, 1, (0,))
    with pytest.raises(ValueError):
        depolarizing_channel(0.1, 3, (0, 1, 2))


def test_amplitude_damping_decays_excited_population():
    assert np.allclose(
        apply_channel(basis_state(1, 1), amplitude_damping_channel(1.0, 0)).matrix,
        np.diag([1.0, 0.0]))
    g = 0.3
    out = apply_channel(plus_state(1), amplitude_damping_channel(g, 0))
    want = np.array([[1 - (1 - g) / 2, np.sqrt(1 - g) / 2],
                     [np.sqrt(1 - g) / 2, (1 - g) / 2]])
    assert np.abs(out.matrix - want).max() < 1e-14


def test_phase_damping_shrinks_coherences_only():
    lam = 0.4
    st = random_density(1, 3)
    out = apply_channel(st, phase_damping_channel(lam, 0))
    assert np.allclose(np.diag(out.matrix), np.diag(st.matrix))
    assert out.matrix[0, 1] == pytest.approx(st.matrix[0, 1] * np.sqrt(1 - lam))


def test_zz_crosstalk_matches_diagonal_exponential():
    theta = 0.37
    signs = np.diag(np.kron(np.diag([1, -1]), np.diag([1, -1])))
    want = np.diag(np.exp(-0.5j * theta * signs))
    (got,) = zz_crosstalk_gate(theta, (0, 1)).operators
    assert np.abs(got - want).max() < 1e-15


def test_zz_crosstalk_only_rotates_phases():
    st = random_density(2, 4)
    out = apply_channel(st, zz_crosstalk_gate(0.8, (0, 1)))
    assert np.allclose(np.diag(out.matrix), np.diag(st.matrix))


# ------------------------------------------------ profiles and topologies

def test_topology_normalizes_and_validates():
    t = Topology(4, ((3, 1), (0, 2)))
    assert t.edges == ((1, 3), (0, 2))
    with pytest.raises(ProfileError):
        Topology(4, ((1, 1),))
    with pytest.raises(ProfileError):
        Topology(4, ((0, 4),))
    with pytest.raises(ProfileError):
        Topology(4, ((0, 1), (1, 0)))
    Topology(0, ())  # unspecified size


def test_topology_rejects_non_integer_qubits():
    with pytest.raises(TypeError):
        Topology(4, ((0.5, 2.5),))  # int() would give edge 0-2
    assert Topology(4, ((np.int64(3), np.int32(1)),)).edges == ((1, 3),)


def test_profile_field_validation():
    with pytest.raises(ProfileError):
        DeviceNoiseProfile(p1=-0.01)
    with pytest.raises(ProfileError):
        DeviceNoiseProfile(readout_flip=(0.0, 1.5))
    with pytest.raises(ProfileError):
        DeviceNoiseProfile(zz_theta=float("nan"))
    assert zero_noise().is_zero()
    assert not DeviceNoiseProfile(zz_theta=0.1).is_zero()


def test_load_profile_from_text_and_defaults():
    prof = load_noise_profile("[gates]\np1 = 0.01\n")
    assert prof.p1 == 0.01
    assert prof.p2 == 0.0
    assert prof.topology == Topology(0, ())
    assert load_noise_profile("").is_zero()
    commented = load_noise_profile("[crosstalk]\ntheta = 0.06  # strong\n"
                                   "[topology]\nedges = 0-1 1-2  ; chain\n")
    assert commented.zz_theta == 0.06
    assert commented.topology.edges == ((0, 1), (1, 2))


def test_load_profile_parses_every_section():
    text = """
[gates]
p1 = 0.003
p2 = 0.012
[idle]
gamma = 0.005
lambda = 0.002
[crosstalk]
theta = 0.04
[readout]
r01 = 0.01
r10 = 0.02
[topology]
num_qubits = 4
edges = 0-1, 2-3 1-2
"""
    prof = load_noise_profile(text)
    assert prof == DeviceNoiseProfile(
        p1=0.003, p2=0.012, gamma_idle=0.005, lambda_idle=0.002, zz_theta=0.04,
        readout_flip=(0.01, 0.02), topology=Topology(4, ((0, 1), (2, 3), (1, 2))))


def test_shipped_profile_files_match_presets():
    assert load_noise_profile(f"{PROFILE_DIR}/strong_dense.ini") == \
        preset_profile("strong-dense", 8)
    assert load_noise_profile(f"{PROFILE_DIR}/weak_sparse.ini") == \
        preset_profile("weak-sparse", 8)


def test_load_profile_error_messages_name_the_field():
    with pytest.raises(ProfileError, match=r"unknown profile section"):
        load_noise_profile("[typo]\nx = 1\n")
    with pytest.raises(ProfileError, match=r"unknown field 'p3'"):
        load_noise_profile("[gates]\np3 = 0.1\n")
    with pytest.raises(ProfileError, match=r"'p1' in \[gates\]"):
        load_noise_profile("[gates]\np1 = fast\n")
    with pytest.raises(ProfileError, match=r"0-1-2"):
        load_noise_profile("[topology]\nedges = 0-1-2\n")
    with pytest.raises(ProfileError, match=r"not found"):
        load_noise_profile("no_such_file.ini")
    with pytest.raises(ProfileError):
        load_noise_profile(12)


def test_preset_profile_topologies():
    dense = preset_profile("strong-dense", 6)
    sparse = preset_profile("weak-sparse", 6)
    assert (0, 1) in dense.topology.edges and (0, 2) in dense.topology.edges
    assert all(j - i == 1 for i, j in sparse.topology.edges)
    assert dense.topology.num_qubits == 6
    with pytest.raises(ProfileError):
        preset_profile("medium")


# --------------------------------------------------- composed device step

@pytest.mark.parametrize("name, layout", [
    pytest.param("strong-dense", SubsystemLayout.default(4), id="strong-dense"),
    pytest.param("weak-sparse", SubsystemLayout.default(4), id="weak-sparse"),
    pytest.param("strong-dense", SubsystemLayout(4, ((0, 3), (1, 2))),
                 id="strong-dense-pairs-0-3-1-2"),
])
def test_device_step_matches_sequential_reference(name, layout):
    profile = preset_profile(name, 4)
    st_fast = st_ref = plus_state(4)
    rng = np.random.default_rng(8)
    for u in rng.uniform(0, 0.2, size=4):
        layer = build_layer(float(u), layout, 2.0)
        st_fast = device_step(st_fast, profile, layer)
        st_ref = sequential_step(st_ref, profile, layer)
    assert np.abs(st_fast.matrix - st_ref.matrix).max() < 1e-12
    validate(st_fast)


_PROBABILITY = hst.floats(0.0, 1.0)
_EDGES = [(i, j) for i in range(4) for j in range(i + 1, 4)]


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(order=hst.permutations(range(4)).filter(
           lambda p: {frozenset(p[:2]), frozenset(p[2:])}
           != {frozenset((0, 1)), frozenset((2, 3))}),
       profile=hst.builds(
           DeviceNoiseProfile, p1=_PROBABILITY, p2=_PROBABILITY,
           gamma_idle=_PROBABILITY, lambda_idle=_PROBABILITY,
           zz_theta=hst.floats(-3.0, 3.0),
           topology=hst.lists(hst.sampled_from(_EDGES), unique=True).map(
               lambda edges: Topology(4, tuple(edges)))),
       u=hst.floats(-1.0, 1.0), seed=hst.integers(0, 2 ** 16))
def test_device_step_matches_sequential_reference_on_random_profiles(
        order, profile, u, seed):
    layout = SubsystemLayout(4, (tuple(order[:2]), tuple(order[2:])))
    layer = build_layer(u, layout, 2.0)
    state = random_density(4, seed)
    got = device_step(state, profile, layer)
    want = sequential_step(state, profile, layer)
    assert np.abs(got.matrix - want.matrix).max() < 1e-12


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(order=hst.permutations(range(4)),
       profile=hst.builds(
           DeviceNoiseProfile, p1=_PROBABILITY, p2=_PROBABILITY,
           lambda_idle=_PROBABILITY, zz_theta=hst.floats(-3.0, 3.0),
           topology=hst.lists(hst.sampled_from(_EDGES), unique=True).map(
               lambda edges: Topology(4, tuple(edges)))),
       inputs=hst.lists(hst.floats(-1.0, 1.0), min_size=1, max_size=4))
def test_sequential_steps_keep_the_global_flip_symmetry_without_damping(
        order, profile, inputs):
    # Q = X^4 maps basis index i to 15 - i, so Q rho Q reverses both axes;
    # without amplitude damping every channel commutes with Q
    layout = SubsystemLayout(4, (tuple(order[:2]), tuple(order[2:])))
    state = plus_state(4)
    for u in inputs:
        state = sequential_step(state, profile, build_layer(u, layout, 2.0))
    assert np.abs(state.matrix - state.matrix[::-1, ::-1]).max() < 1e-12


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(profile=hst.builds(
           DeviceNoiseProfile, p1=_PROBABILITY, p2=_PROBABILITY,
           gamma_idle=_PROBABILITY, lambda_idle=_PROBABILITY,
           zz_theta=hst.floats(-3.0, 3.0),
           topology=hst.sampled_from([Topology(2, ()), Topology(2, ((0, 1),))])),
       u=hst.floats(-1.0, 1.0))
def test_device_step_is_cptp_on_random_profiles(profile, u):
    # Choi matrix C = sum_jk E_jk (x) Phi(E_jk) of one 2-qubit step. The step
    # takes density matrices only, so each Phi(E_jk) is rebuilt by linearity
    # from pure states: with P and Q the projectors on (|j> + |k>)/sqrt2 and
    # (|j> + i|k>)/sqrt2, E_jk = P + iQ - (1 + i)(E_jj + E_kk)/2.
    layer = build_layer(u, SubsystemLayout.default(2), 2.0)
    d = 4
    basis = np.eye(d, dtype=np.complex128)

    def step(v):
        state = DensityMatrix(2, np.outer(v, v.conj()))
        return device_step(state, profile, layer).matrix

    diag = [step(basis[j]) for j in range(d)]
    choi = np.zeros((d, d, d, d), dtype=np.complex128)  # [j, a, k, b]
    for j in range(d):
        for k in range(d):
            if j == k:
                choi[j, :, k, :] = diag[j]
            else:
                p = step((basis[j] + basis[k]) / np.sqrt(2))
                q = step((basis[j] + 1j * basis[k]) / np.sqrt(2))
                choi[j, :, k, :] = p + 1j * q - (1 + 1j) / 2 * (diag[j] + diag[k])
    choi = choi.reshape(d * d, d * d)
    assert np.abs(choi - choi.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(choi).min() >= -1e-12
    partial = np.trace(choi.reshape(d, d, d, d), axis1=1, axis2=3)
    assert np.abs(partial - np.eye(d)).max() <= 1e-12


def test_device_step_validates_its_result(monkeypatch):
    """The step checks its result: a kernel that breaks the trace makes the
    step raise instead of returning an invalid state."""
    kernel = qreservoir.noise._on_every_pair

    def doubled(*args):
        return 2 * kernel(*args)

    monkeypatch.setattr(qreservoir.noise, "_on_every_pair", doubled)
    layer = build_layer(0.3, SubsystemLayout.default(2), 2.0)
    with pytest.raises(CorruptedStateError, match="trace must be 1"):
        device_step(plus_state(2), zero_noise(), layer)


@pytest.mark.parametrize("profile", [
    DeviceNoiseProfile(zz_theta=0.1, topology=Topology(4, ((0, 1), (1, 2), (2, 3)))),
    DeviceNoiseProfile(gamma_idle=0.02, lambda_idle=0.01),
    DeviceNoiseProfile(p2=0.05),
    DeviceNoiseProfile(p1=0.03),
])
def test_device_step_single_mechanism_profiles(profile):
    layout = SubsystemLayout.default(4)
    layer = build_layer(0.13, layout, 2.0)
    st = random_density(4, 9)
    got = device_step(st, profile, layer)
    want = sequential_step(st, profile, layer)
    assert np.abs(got.matrix - want.matrix).max() < 1e-12


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("layout", [SubsystemLayout.default(2),
                                    SubsystemLayout(4, ((0, 3), (1, 2)))])
def test_device_step_scales_pair_parity_by_p1_closed_form(layout, seed):
    # The block conserves X_i X_j and only the two RX gates' depolarizing
    # touches it, so one step with only p1 set scales each pair's <X_i X_j>
    # by exactly (1 - p1)^2 whatever the input and the state. The Pauli is
    # embedded by plain Kronecker products, qubit 0 most significant.
    rng = np.random.default_rng(seed)
    p1 = float(rng.uniform(0.01, 0.3))
    layer = build_layer(float(rng.uniform(-1.0, 3.0)), layout, 2.0)
    n = layout.num_qubits
    st = random_density(n, 100 + seed)
    got = device_step(st, DeviceNoiseProfile(p1=p1), layer)
    x = np.array([[0, 1], [1, 0]])
    for i, j in layout.pairs:
        xx = reduce(np.kron, [x if q in (i, j) else np.eye(2)
                              for q in range(n)])
        before = np.trace(st.matrix @ xx).real
        after = np.trace(got.matrix @ xx).real
        assert abs(before) > 1e-3
        assert abs(after - (1.0 - p1) ** 2 * before) <= 1e-12


def test_device_step_zero_profile_reduces_to_the_bare_layer():
    layer = build_layer(0.11, SubsystemLayout.default(4), 2.0)
    st = random_density(4, 10)
    got = device_step(st, zero_noise(), layer)
    want = apply_layer(st, layer)
    assert np.abs(got.matrix - want.matrix).max() < 1e-13


def test_device_step_size_mismatches():
    layer = build_layer(0.1, SubsystemLayout.default(4), 2.0)
    v = np.full((1, 16, 16), 1 / 16, dtype=np.complex128)
    with pytest.raises(ProfileError):
        apply_device_noise(v, np.empty_like(v), preset_profile("strong-dense", 8),
                           [layer], True)
    v = np.full((1, 16), 1 / 4, dtype=np.complex128)
    with pytest.raises(ValueError):
        apply_device_noise(v, np.empty_like(v), preset_profile("strong-dense", 2),
                           [layer], True)


def test_device_step_rejects_crosstalk_edge_outside_the_register():
    # a topology without num_qubits is not size-checked against the state,
    # so each edge must be; edge 0-9 on 4 qubits once gave wrong features
    profile = load_noise_profile("[crosstalk]\ntheta = 0.3\n"
                                 "[topology]\nedges = 0-9\n")
    layer = build_layer(0.1, SubsystemLayout.default(4), 2.0)
    with pytest.raises(ProfileError, match="0-9"):
        device_step(plus_state(4), profile, layer)
    inside = load_noise_profile("[crosstalk]\ntheta = 0.3\n"
                                "[topology]\nedges = 0-3\n")
    device_step(plus_state(4), inside, layer)


# ------------------------------ the pair-major step against the naive kernel

def naive_step(state, profile, layer):
    """The device step on the naive kernel: `_apply_superop_tensor` (which
    ends with (m + m^H) / 2) per pair block, the two crosstalk phase
    multiplies, then per qubit the composed one-qubit idle superoperator."""
    n = state.num_qubits
    phases, gate_noise, _ = _noise_plan(profile, n)
    block = pair_block_superop(layer_block(layer), gate_noise).reshape((2,) * 8)
    m = state.matrix
    for pair in layer.layout.pairs:
        m = _apply_superop_tensor(m, block, pair)
    if phases is not None:
        m = m * phases[:, None]
        m = m * phases.conj()[None, :]
    idle = None
    for damping, g in ((amplitude_damping_channel, profile.gamma_idle),
                       (phase_damping_channel, profile.lambda_idle)):
        if g > 0.0:
            sup = damping(g, 0)._superop.reshape(4, 4)
            idle = sup if idle is None else sup @ idle
    if idle is not None:
        for q in range(n):
            m = _apply_superop_tensor(m, idle.reshape((2,) * 4), (q,))
    return m


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_ZERO_OR_PROBABILITY = hst.one_of(hst.just(0.0), hst.floats(1e-4, 0.5))


@hst.composite
def _pairings_and_profiles(draw, sizes):
    """A pairing (adjacent, reversed or not adjacent) and a profile whose
    every knob is zero or not, on any edge set, inter-pair edges included."""
    n = draw(hst.sampled_from(sizes))
    order = draw(hst.permutations(range(n)))
    pairs = tuple((order[k], order[k + 1]) for k in range(0, n, 2))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    profile = draw(hst.builds(
        DeviceNoiseProfile, p1=_ZERO_OR_PROBABILITY, p2=_ZERO_OR_PROBABILITY,
        gamma_idle=_ZERO_OR_PROBABILITY, lambda_idle=_ZERO_OR_PROBABILITY,
        zz_theta=hst.one_of(hst.just(0.0), hst.floats(-3.0, 3.0)),
        topology=hst.lists(hst.sampled_from(edges), unique=True).map(
            lambda e: Topology(n, tuple(e)))))
    return SubsystemLayout(n, pairs), profile


# The step makes one product per pair with no (m + m^H) / 2, so it sums in
# another order than the naive kernel and agrees with it within rounding.
@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(case=_pairings_and_profiles((4, 6)), u=hst.floats(-1.0, 1.0),
       seed=hst.integers(0, 2 ** 16))
def test_device_step_equals_the_naive_kernel_bit_for_bit(case, u, seed):
    layout, profile = case
    layer = build_layer(u, layout, 2.0)
    state = random_density(layout.num_qubits, seed)
    got = device_step(state, profile, layer).matrix
    assert np.abs(got - naive_step(state, profile, layer)).max() <= 1e-15


@pytest.mark.parametrize("name", ["strong-dense", "weak-sparse"])
@pytest.mark.parametrize("pairs", [((0, 1), (2, 3), (4, 5), (6, 7)),
                                   ((1, 0), (3, 2), (5, 4), (7, 6)),
                                   ((0, 4), (5, 1), (2, 7), (3, 6))],
                         ids=["adjacent", "reversed", "non-adjacent"])
def test_shipped_profiles_step_equals_the_naive_kernel_bit_for_bit(name, pairs):
    profile = preset_profile(name, 8)
    layout = SubsystemLayout(8, pairs)
    got = want = plus_state(8)
    for u in np.random.default_rng(11).uniform(-1.0, 1.0, size=3):
        layer = build_layer(float(u), layout, 2.0)
        got = device_step(got, profile, layer)
        want = DensityMatrix(8, naive_step(want, profile, layer))
        assert np.abs(got.matrix - want.matrix).max() <= 1e-15


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(case=_pairings_and_profiles((2,)), u=hst.floats(-1.0, 1.0),
       seed=hst.integers(0, 2 ** 16))
def test_two_qubit_step_is_within_rounding_of_the_naive_kernel(case, u, seed):
    # with one pair the whole register is a single pair block, the case where
    # the step and the naive kernel share the fewest contractions
    layout, profile = case
    layer = build_layer(u, layout, 2.0)
    state = random_density(2, seed)
    got = device_step(state, profile, layer).matrix
    assert np.abs(got - naive_step(state, profile, layer)).max() <= 1e-15


@pytest.mark.parametrize("name", ["strong-dense", "weak-sparse"])
@pytest.mark.parametrize("pairs", [((0, 1), (2, 3)), ((1, 0), (3, 2))],
                         ids=["adjacent", "reversed"])
def test_unsymmetrised_step_does_not_drift_over_a_long_trajectory(name, pairs):
    # nothing re-symmetrises the state, so rounding could build up; over
    # 2000 steps it must stay Hermitian and trace-one far inside the
    # DensityMatrix tolerances (1e-10)
    profile = preset_profile(name, 4)
    layout = SubsystemLayout(4, pairs)
    state = plus_state(4)
    herm = trace = 0.0
    for u in np.random.default_rng(5).uniform(-1.0, 1.0, size=2000):
        layer = build_layer(float(u), layout, 2.0)
        state = device_step(state, profile, layer)
        m = state.matrix
        herm = max(herm, np.abs(m - m.conj().T).max())
        trace = max(trace, abs(m.trace() - 1.0))
    assert herm <= 1e-15
    assert trace <= 1e-12


def kron_pair_block(block, gate_noise):
    """`pair_block_superop` with every Kronecker product taken by np.kron."""
    eye = np.eye(2, dtype=np.complex128)
    total = None
    for pos, m in block:
        if pos == (0,):
            u = np.kron(m, eye)
        elif pos == (1,):
            u = np.kron(eye, m)
        else:
            u = m
        step = np.kron(u, u.conj())
        total = step if total is None else step @ total
        if pos in gate_noise:
            total = gate_noise[pos] @ total
    return total


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(u=hst.floats(-1.0, 1.0), scale=hst.floats(-10.0, 10.0),
       p1=_ZERO_OR_PROBABILITY, p2=_ZERO_OR_PROBABILITY,
       seed=hst.integers(0, 2 ** 16))
def test_broadcast_kronecker_products_equal_np_kron_bit_for_bit(
        u, scale, p1, p2, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    eye = np.eye(2, dtype=np.complex128)
    assert same_bits(_on_pair((0,), m), np.kron(m, eye))
    assert same_bits(_on_pair((1,), m), np.kron(eye, m))
    _, gate_noise, _ = _noise_plan(DeviceNoiseProfile(p1=p1, p2=p2), 2)
    block = layer_block(build_layer(u, SubsystemLayout.default(2), scale))
    assert same_bits(pair_block_superop(block, gate_noise),
                     kron_pair_block(block, gate_noise))


_EDGE_OR_PROBABILITY = hst.one_of(hst.just(0.0), hst.just(1.0), _PROBABILITY)


# Depolarizing commutes with every unitary on its own qubits, so the block is
# P sup(U(s)) D: it sums in another order than the gate-by-gate form and
# agrees with it within rounding.
@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(angles=hst.lists(hst.floats(-10.0, 10.0), min_size=1, max_size=4),
       p1=_EDGE_OR_PROBABILITY, p2=_EDGE_OR_PROBABILITY,
       gamma=_ZERO_OR_PROBABILITY, lam=_ZERO_OR_PROBABILITY,
       owes_idle=hst.booleans())
@example(angles=[0.3, -2.5], p1=1.0, p2=1.0, gamma=0.01, lam=0.02,
         owes_idle=True)
def test_closed_form_pair_blocks_equal_the_gate_by_gate_oracle(
        angles, p1, p2, gamma, lam, owes_idle):
    profile = DeviceNoiseProfile(p1=p1, p2=p2, gamma_idle=gamma,
                                 lambda_idle=lam)
    layout = SubsystemLayout.default(2)
    left, right = _step_plan(profile, layout)[:2]
    got = _pair_blocks(left, right[owes_idle], angles)
    _, gate_noise, idle = _noise_plan(profile, 2)
    assert got.shape == (len(angles), 16, 16)
    for s, block in zip(angles, got):
        want = pair_block_superop(layer_block(build_layer(s, layout, 1.0)),
                                  gate_noise)
        if owes_idle and idle is not None:
            want = want @ idle
        assert np.abs(block - want).max() <= 1e-15


# ------------------------------------------- the carried pair-major trajectory

def parent_device_step(state, profile, layer):
    """The device step as `evolve` took it before it carried the state: permute
    the matrix in, one freshly allocated product per pair for the block, the
    crosstalk phases, one per pair for idle, permute out and wrap."""
    n = state.num_qubits
    zz_phases, gate_noise, idle = _noise_plan(profile, n)
    pairs = layer.layout.pairs
    m = len(pairs)
    axes = [a for i, j in pairs for a in (i, j, n + i, n + j)]
    v = state.matrix.reshape((2,) * (2 * n)).transpose(axes).reshape((16,) * m)

    def on_every_pair(v, sup):
        for _ in range(v.ndim):
            v = (sup @ v.reshape(-1, 16).T).reshape(v.shape)
        return v

    v = on_every_pair(v, pair_block_superop(layer_block(layer), gate_noise))
    if zz_phases is not None:
        qubits = [q for pair in pairs for q in pair]
        rows = zz_phases.reshape((2,) * n).transpose(qubits).reshape((4,) * m)
        w = v.reshape((4, 4) * m)
        w *= rows.reshape((4, 1) * m)
        w *= rows.conj().reshape((1, 4) * m)
    if idle is not None:
        v = on_every_pair(v, idle)
    matrix = v.reshape((2,) * (2 * n)).transpose(np.argsort(axes))
    return DensityMatrix(n, matrix.reshape(1 << n, 1 << n))


def parent_evolve(inputs, config):
    """`evolve` on `parent_device_step`: the populations of each step."""
    state = plus_state(config.layout.num_qubits)
    rows = []
    for u in inputs:
        layer = build_layer(float(u), config.layout, config.scale)
        state = parent_device_step(state, config.profile, layer)
        rows.append(state.populations)
    return np.array(rows)


# every step makes m products, so at n = 2 and 6 the result lands in the
# spare buffer. The folded step applies each idle as part of the next block,
# `block @ idle`, and reads the diagonal after the last idle in closed form,
# so it sums in another order than the parent loop and agrees with it within
# rounding.
@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(case=_pairings_and_profiles((2, 4, 6)),
       inputs=hst.lists(hst.floats(-1.0, 1.0), min_size=1, max_size=4))
@example(case=(SubsystemLayout.default(2),
               DeviceNoiseProfile(p1=0.01, zz_theta=0.3,
                                  topology=Topology(2, ((0, 1),)))),
         inputs=[0.3, -0.2, 0.7])
@example(case=(SubsystemLayout(6, ((5, 0), (2, 4), (1, 3))),
               DeviceNoiseProfile(p2=0.02)),
         inputs=[0.3, -0.2, 0.7])
def test_evolve_folds_the_parent_trajectory_within_rounding(case, inputs):
    layout, profile = case
    config = ReservoirConfig(layout, 2.0, profile)
    np.testing.assert_allclose(evolve(inputs, config),
                               parent_evolve(inputs, config), rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", ["strong-dense", "weak-sparse"])
@pytest.mark.parametrize("pairs", [((0, 1), (2, 3), (4, 5), (6, 7)),
                                   ((1, 0), (3, 2), (5, 4), (7, 6)),
                                   ((0, 4), (5, 1), (2, 7), (3, 6))],
                         ids=["adjacent", "reversed", "non-adjacent"])
def test_shipped_profiles_carried_trajectory_is_the_parent_one(name, pairs):
    config = ReservoirConfig(SubsystemLayout(8, pairs), 2.0,
                             preset_profile(name, 8))
    inputs = np.random.default_rng(12).uniform(-1.0, 1.0, size=5)
    np.testing.assert_allclose(evolve(inputs, config),
                               parent_evolve(inputs, config), rtol=0, atol=1e-14)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(case=_pairings_and_profiles((2, 4, 6)), data=hst.data())
@example(case=(SubsystemLayout(4, ((3, 0), (1, 2))),
               preset_profile("strong-dense", 4)), data=None)
def test_a_batch_evolves_each_trajectory_bit_for_bit(case, data):
    # B trajectories of one stack equal B separate `evolve` calls exactly:
    # the block stack and the stacked products repeat each one's arithmetic
    layout, profile = case
    if data is None:  # two samples, one repeated, as a classify run holds
        inputs = [[0.3, -0.2, 0.7], [0.1, 0.4, -0.9], [0.3, -0.2, 0.7]]
    else:
        count = data.draw(hst.integers(1, 5), label="B")
        steps = data.draw(hst.integers(1, 4), label="T")
        row = hst.lists(hst.floats(-1.0, 1.0), min_size=steps, max_size=steps)
        inputs = data.draw(hst.lists(row, min_size=count, max_size=count),
                           label="inputs")
    config = ReservoirConfig(layout, 2.0, profile)
    batched = evolve(inputs, config)
    assert batched.shape == (len(inputs), len(inputs[0]),
                             1 << layout.num_qubits)
    for row, populations in zip(inputs, batched):
        assert np.array_equal(populations, evolve(row, config))


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("profile", [DeviceNoiseProfile(p1=0.01),
                                     DeviceNoiseProfile(gamma_idle=0.01)],
                         ids=["no-idle", "idle"])
def test_product_count_parity_decides_which_buffer_holds_the_step(n, profile):
    # the idle owed is folded into the block, so a step is m products
    layer = build_layer(0.4, SubsystemLayout.default(n), 2.0)
    for owes_idle in (False, True):
        v = np.full((1,) + (16,) * (n // 2), 1.0 / (1 << n),
                    dtype=np.complex128)
        spare = np.empty_like(v)
        state, free = apply_device_noise(v, spare, profile, [layer], owes_idle)
        held, other = (spare, v) if n // 2 % 2 else (v, spare)
        assert state is held and free is other


def _doubled(result):
    return 2 * result


def _skewed(result):
    result.flat[1] += 1e-6  # an off-diagonal entry of the last pair axis
    return result


def _poisoned(result):
    result.flat[0] = np.nan
    return result


def _skewed_lower(result):
    # slot (R0, C0) = (3, 0) of the first pair axis, which the check reads
    # only as the partner of slot (0, 3)
    result[0, 12, 1] += 1e-6
    return result


def _poisoned_lower(result):
    result[0, 14, 6] = np.nan  # slot (3, 2), read as the partner of (2, 3)
    return result


def _negative(result):
    # a unit of weight moved between two diagonal entries of the first state
    # keeps its trace and Hermiticity, and drives p(0...0) below zero
    result[0].flat[0] -= 1.0
    result[0].flat[-1] += 1.0
    return result


@pytest.mark.parametrize("corrupt, message", [
    (_doubled, "trace must be 1"),
    (_skewed, "not Hermitian"),
    (_poisoned, "not Hermitian: .* = nan"),
    (_negative, "population -9.* is negative"),
], ids=["trace", "hermiticity", "nan", "negative-population"])
def test_corrupted_step_stops_the_trajectory(monkeypatch, corrupt, message):
    kernel = qreservoir.noise._on_every_pair
    monkeypatch.setattr(qreservoir.noise, "_on_every_pair",
                        lambda *args: corrupt(kernel(*args)))
    config = ReservoirConfig(SubsystemLayout.default(4), 2.0,
                             preset_profile("strong-dense", 4))
    with pytest.raises(CorruptedStateError, match=message):
        evolve([0.1, 0.2], config)


@pytest.mark.parametrize("corrupt, message", [
    (_skewed_lower, "not Hermitian"),
    (_poisoned_lower, "not Hermitian: .* = nan"),
], ids=["hermiticity", "nan"])
def test_a_corrupted_lower_slot_stops_the_first_step(monkeypatch, corrupt,
                                                     message):
    # one step, so the check itself must see the entry: the next step's
    # products would spread it into the slots it forms
    kernel = qreservoir.noise._on_every_pair
    monkeypatch.setattr(qreservoir.noise, "_on_every_pair",
                        lambda *args: corrupt(kernel(*args)))
    config = ReservoirConfig(SubsystemLayout.default(4), 2.0,
                             preset_profile("strong-dense", 4))
    with pytest.raises(CorruptedStateError, match=message):
        evolve([0.1], config)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(m=hst.integers(1, 4), batch=hst.sampled_from([1, 3]),
       hermitian=hst.booleans(), seed=hst.integers(0, 2 ** 16),
       spot=hst.floats(0.0, 1.0, exclude_max=True),
       bad=hst.sampled_from([None, 1e-6 + 1e-6j, np.nan, np.inf, -np.inf]))
def test_step_check_residual_is_the_full_maximum(m, batch, hermitian, seed,
                                                 spot, bad):
    # the check forms the first pair axis's 10 slots with R0 <= C0 and reads
    # the rest as partners: its maximum is the full one bit for bit, NaN and
    # inf included, and a single bad entry anywhere in a Hermitian batch shows
    swap = _step_plan(DeviceNoiseProfile(), SubsystemLayout.default(2 * m))[4]
    assert swap == (0,) + tuple(a for k in range(m) for a in (2 * k + 2, 2 * k + 1))
    rng = np.random.default_rng(seed)
    shape = (batch,) + (4, 4) * m
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if hermitian:
        w = (w + np.conj(w.transpose(swap))) / 2
    if bad is not None:
        w.flat[int(spot * w.size)] += bad
    with np.errstate(invalid="ignore"):  # inf - inf on a diagonal entry
        want = np.abs(w - np.conj(w.transpose(swap))).max()
        got = _hermiticity_residual(w, np.empty_like(w), swap)
    assert got == want or (np.isnan(got) and np.isnan(want))


# ------------------------------------- the closed-form diagonal and crosstalk

def random_pair_major(layout, seed):
    """A random density matrix, permuted into the pair-major (16,) * m axes."""
    n = layout.num_qubits
    matrix = random_density(n, seed).matrix.reshape((2,) * (2 * n))
    return matrix.transpose(pair_axes(layout)).reshape(
        (16,) * layout.num_pairs).copy()


@pytest.mark.parametrize("gamma", [0.0, 0.03])
@pytest.mark.parametrize("lam", [0.0, 0.05])
@pytest.mark.parametrize("layout", [SubsystemLayout.default(2),
                                    SubsystemLayout(4, ((3, 0), (1, 2))),
                                    SubsystemLayout(6, ((4, 1), (0, 5), (2, 3)))],
                         ids=["n2", "n4", "n6"])
def test_closed_form_diagonal_equals_the_idle_product_then_a_read(
        layout, gamma, lam):
    # idle maps the diagonal only to itself, so its 4x4 diagonal block on
    # each pair axis of the diagonal is the diagonal of the damped state. The
    # two sum the same terms, so they agree within one ulp (measured: bit for
    # bit at n >= 4, one ulp at n = 2, where the product has one column)
    profile = DeviceNoiseProfile(gamma_idle=gamma, lambda_idle=lam)
    v = random_pair_major(layout, 21)[None]  # a batch of one
    idle = _noise_plan(profile, layout.num_qubits)[2]
    damped = v if idle is None else _on_every_pair(v.copy(), np.empty_like(v),
                                                   idle)
    m, n = layout.num_pairs, layout.num_qubits
    want = damped[0][(slice(None, None, 5),) * m].real.reshape((2,) * n)
    want = want.transpose(_qubit_order(layout))
    got = idle_damped_populations(v, profile, layout)
    assert got.shape == (1,) + (2,) * n
    assert (np.abs(got[0] - want) <= np.spacing(want)).all()


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(case=_pairings_and_profiles((2, 4, 6)), seed=hst.integers(0, 2 ** 16))
def test_materialised_crosstalk_factors_equal_the_broadcast_form(case, seed):
    layout, profile = case
    crosstalk = _step_plan(profile, layout)[3]
    if crosstalk is None:
        return
    n, m = layout.num_qubits, layout.num_pairs
    zz_phases = _noise_plan(profile, n)[0]
    qubits = [q for pair in layout.pairs for q in pair]
    rows = zz_phases.reshape((2,) * n).transpose(qubits).reshape((4,) * m)
    v = random_pair_major(layout, seed)
    want = v.reshape((4, 4) * m).copy()
    want *= rows.reshape((4, 1) * m)
    want *= rows.conj().reshape((1, 4) * m)
    got = v.reshape((4, 4) * m).copy()
    for factor in crosstalk:
        assert factor.flags.c_contiguous
        assert factor.shape[-2:] == (4, 4)
        got *= factor
    assert same_bits(got, want)
