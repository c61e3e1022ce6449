"""Noise channels, profile parsing, and the composed device step."""
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from qreservoir import (DensityMatrix, DeviceNoiseProfile, ProfileError,
                        SubsystemLayout, Topology, amplitude_damping_channel,
                        apply_channel, apply_device_noise, apply_layer,
                        apply_unitary, basis_state, build_layer,
                        depolarizing_channel, load_noise_profile,
                        maximally_mixed, phase_damping_channel, plus_state,
                        preset_profile, zero_noise, zz_crosstalk_gate)

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
    for gate in layer.gates:
        state = apply_unitary(state, gate)
        if len(gate.targets) == 1 and profile.p1 > 0:
            state = apply_channel(
                state, depolarizing_channel(profile.p1, 1, gate.targets))
        if len(gate.targets) == 2 and profile.p2 > 0:
            state = apply_channel(
                state, depolarizing_channel(profile.p2, 2, gate.targets))
    if profile.zz_theta != 0.0:
        for edge in profile.topology.edges:
            state = apply_unitary(state, zz_crosstalk_gate(profile.zz_theta, edge))
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
    assert np.abs(zz_crosstalk_gate(theta, (0, 1)).matrix - want).max() < 1e-15


def test_zz_crosstalk_only_rotates_phases():
    st = random_density(2, 4)
    out = apply_unitary(st, zz_crosstalk_gate(0.8, (0, 1)))
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
        st_fast = apply_device_noise(st_fast, profile, layer)
        st_ref = sequential_step(st_ref, profile, layer)
    assert np.abs(st_fast.matrix - st_ref.matrix).max() < 1e-12
    st_fast.validate()


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
    got = apply_device_noise(st, profile, layer)
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
    got = apply_device_noise(st, DeviceNoiseProfile(p1=p1), layer)
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
    got = apply_device_noise(st, zero_noise(), layer)
    want = apply_layer(st, layer)
    assert np.abs(got.matrix - want.matrix).max() < 1e-13


def test_device_step_size_mismatches():
    layer = build_layer(0.1, SubsystemLayout.default(4), 2.0)
    with pytest.raises(ProfileError):
        apply_device_noise(plus_state(4), preset_profile("strong-dense", 8), layer)
    with pytest.raises(ValueError):
        apply_device_noise(plus_state(2), preset_profile("strong-dense", 2), layer)


def test_device_step_rejects_crosstalk_edge_outside_the_register():
    # a topology without num_qubits is not size-checked against the state,
    # so each edge must be; edge 0-9 on 4 qubits once gave wrong features
    profile = load_noise_profile("[crosstalk]\ntheta = 0.3\n"
                                 "[topology]\nedges = 0-9\n")
    layer = build_layer(0.1, SubsystemLayout.default(4), 2.0)
    with pytest.raises(ProfileError, match="0-9"):
        apply_device_noise(plus_state(4), profile, layer)
    inside = load_noise_profile("[crosstalk]\ntheta = 0.3\n"
                                "[topology]\nedges = 0-3\n")
    apply_device_noise(plus_state(4), inside, layer)
