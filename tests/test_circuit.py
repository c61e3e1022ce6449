"""Reservoir circuit construction, the gate-by-gate reference, and QASM export."""
import re

import numpy as np
import pytest

from qreservoir import (CircuitLayer, KrausChannel, SubsystemLayout,
                        apply_channel, basis_state, build_layer, export_qasm,
                        pauli_z_expectations, plus_state)

from oracle import apply_layer, cx_gate, layer_gates, rx_gate, rz_gate

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def hadamard_gate(qubit):
    """The `h` of an exported program as a one-qubit gate."""
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    return KrausChannel((qubit,), (h,))


def test_rx_matches_matrix_exponential():
    theta = 0.7
    want = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * X
    assert np.allclose(rx_gate(0, theta).operators[0], want, atol=1e-15)
    assert np.allclose(rx_gate(0, 0.0).operators[0], np.eye(2))


def test_rz_matches_matrix_exponential():
    theta = 1.3
    want = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * Z
    assert np.allclose(rz_gate(2, theta).operators[0], want, atol=1e-15)
    assert rz_gate(2, theta).targets == (2,)


def test_cx_permutes_target_conditioned_on_control():
    m = cx_gate(0, 1).operators[0]
    # |10> -> |11>, |11> -> |10>, control untouched
    assert np.allclose(m @ np.eye(4)[:, 2], np.eye(4)[:, 3])
    assert np.allclose(m @ np.eye(4)[:, 3], np.eye(4)[:, 2])
    assert np.allclose(m[:2, :2], np.eye(2))
    assert cx_gate(3, 1).targets == (3, 1)


def test_hadamard_squares_to_identity():
    h = hadamard_gate(0).operators[0]
    assert np.allclose(h @ h, np.eye(2), atol=1e-15)


def test_default_layout_pairs_adjacent_qubits():
    layout = SubsystemLayout.default(6)
    assert layout.pairs == ((0, 1), (2, 3), (4, 5))
    assert layout.num_pairs == 3


def test_layout_validation():
    with pytest.raises(ValueError):
        SubsystemLayout(3, ((0, 1),))  # odd register
    with pytest.raises(ValueError):
        SubsystemLayout(4, ((0, 1),))  # too few pairs
    with pytest.raises(ValueError):
        SubsystemLayout(4, ((0, 1), (1, 2)))  # qubit 1 twice, 3 missing
    SubsystemLayout(4, ((2, 0), (1, 3)))  # non-adjacent cover is fine


def test_layout_rejects_non_integer_qubits():
    with pytest.raises(TypeError):
        SubsystemLayout(2, ((0.2, 1.9),))  # int() would give pair (0, 1)
    pairs = ((np.int64(0), np.int32(1)),)
    assert SubsystemLayout(2, pairs).pairs == ((0, 1),)


def test_build_layer_structure_and_angle():
    layout = SubsystemLayout.default(4)
    u, a = 0.17, 2.0
    layer = build_layer(u, layout, a)
    assert isinstance(layer, CircuitLayer)
    assert layer.angle == a * u
    gates = layer_gates(layer)
    assert len(gates) == 5 * layout.num_pairs
    for p, (i, j) in enumerate(layout.pairs):
        block = gates[5 * p:5 * p + 5]
        assert [g.targets for g in block] == [(i,), (j,), (i, j), (j,), (i, j)]
        assert np.allclose(block[0].operators[0], rx_gate(i, a * u).operators[0])
        assert np.allclose(block[3].operators[0], rz_gate(j, a * u).operators[0])


def test_build_layer_rejects_non_finite():
    layout = SubsystemLayout.default(2)
    with pytest.raises(ValueError):
        build_layer(float("nan"), layout, 2.0)
    with pytest.raises(ValueError):
        build_layer(0.1, layout, float("inf"))


def test_apply_layer_matches_dense_block_unitary():
    # the 5-gate block equals CX (I x RZ) CX (RX x RX) as one 4x4 unitary,
    # and disjoint pairs act as a tensor product of such blocks
    u, a = 0.23, 2.0
    s = a * u
    cx = cx_gate(0, 1).operators[0]
    block = cx @ np.kron(np.eye(2), rz_gate(0, s).operators[0]) @ cx \
        @ np.kron(rx_gate(0, s).operators[0], rx_gate(0, s).operators[0])
    full = np.kron(block, block)
    st = plus_state(4)
    got = apply_layer(st, build_layer(u, SubsystemLayout.default(4), a)).matrix
    want = full @ st.matrix @ full.conj().T
    assert np.abs(got - want).max() < 1e-12


def test_apply_layer_size_mismatch():
    layer = build_layer(0.1, SubsystemLayout.default(4), 2.0)
    with pytest.raises(ValueError):
        apply_layer(plus_state(2), layer)


def test_zero_input_layer_fixes_plus_state():
    st = plus_state(4)
    out = apply_layer(st, build_layer(0.0, SubsystemLayout.default(4), 2.0))
    assert np.abs(out.matrix - st.matrix).max() < 1e-14


def test_noiseless_layers_keep_z_expectations_at_zero():
    # the block commutes with X x X on its pair and |+> is the +1 eigenstate,
    # so every Z expectation stays exactly 0 whatever the inputs are
    st = plus_state(4)
    layout = SubsystemLayout.default(4)
    rng = np.random.default_rng(0)
    for u in rng.uniform(0, 0.2, size=10):
        st = apply_layer(st, build_layer(float(u), layout, 2.0))
    assert np.abs(pauli_z_expectations(st.populations)).max() < 1e-13


def test_export_qasm_structure():
    layout = SubsystemLayout.default(4)
    inputs = [0.1, 0.15, 0.2]
    text = export_qasm(inputs, layout, 2.0)
    lines = text.strip().split("\n")
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert lines[2] == "qreg q[4];"
    assert lines[3] == "creg c[4];"
    assert sum(l.startswith("h ") for l in lines) == 4
    assert sum(l.startswith("rx(") for l in lines) == 2 * 2 * len(inputs)
    assert sum(l.startswith("rz(") for l in lines) == 2 * len(inputs)
    assert sum(l.startswith("cx ") for l in lines) == 2 * 2 * len(inputs)
    assert sum(l.startswith("measure ") for l in lines) == 4
    assert lines[-1] == "measure q[3] -> c[3];"
    allowed = ("OPENQASM", "include", "qreg", "creg", "h ", "rx(", "rz(", "cx ",
               "measure ")
    assert all(l.startswith(allowed) for l in lines)
    assert text.endswith("\n")


def test_export_qasm_angle_round_trip():
    a, u = 2.0, 0.123456789123456789
    text = export_qasm([u], SubsystemLayout.default(2), a)
    line = next(l for l in text.split("\n") if l.startswith("rx("))
    printed = float(line[line.index("(") + 1:line.index(")")])
    assert printed == a * u  # 17 significant digits reproduce the double exactly


def test_export_qasm_runs_the_simulated_circuit():
    # parse the exported program and simulate it gate by gate from |0000>:
    # it must reach the state apply_layer reaches from |+>^4
    layout = SubsystemLayout(4, ((0, 3), (1, 2)))
    inputs, a = [0.3, -0.7], 2.0
    line = re.compile(r"(h|rx|rz|cx)(?:\((.*)\))? q\[(\d)\](?:,q\[(\d)\])?;")
    builders = {"h": lambda q, s: hadamard_gate(q[0]),
                "rx": lambda q, s: rx_gate(q[0], float(s)),
                "rz": lambda q, s: rz_gate(q[0], float(s)),
                "cx": lambda q, s: cx_gate(*q)}
    state = basis_state(4, 0)
    applied = 0
    for text in export_qasm(inputs, layout, a).splitlines():
        m = line.fullmatch(text)
        if m is None:
            continue
        name, angle, *qubits = m.groups()
        qubits = [int(q) for q in qubits if q is not None]
        state = apply_channel(state, builders[name](qubits, angle))
        applied += 1
    assert applied == 4 + 5 * layout.num_pairs * len(inputs)
    want = plus_state(4)
    for u in inputs:
        want = apply_layer(want, build_layer(u, layout, a))
    assert np.abs(state.matrix - want.matrix).max() < 1e-12


@pytest.mark.parametrize("inputs, a", [
    ([0.1], float("nan")), ([0.1], float("inf")), ([0.1, float("inf")], 2.0),
    ([1e200], 1e200)], ids=["scale-nan", "scale-inf", "input-inf", "overflow"])
def test_export_qasm_rejects_non_finite_angles(inputs, a):
    with pytest.raises(ValueError):
        export_qasm(inputs, SubsystemLayout.default(2), a)


def test_export_qasm_deterministic_and_rejects_empty():
    layout = SubsystemLayout.default(2)
    assert export_qasm([0.1, 0.2], layout, 2.0) == export_qasm([0.1, 0.2], layout, 2.0)
    with pytest.raises(ValueError):
        export_qasm([], layout, 2.0)
