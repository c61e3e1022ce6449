"""Test-only references: the reservoir circuit gate by gate, and the state
tools the tests compare against.

The library builds each pair block in closed form (`noise._pair_blocks`);
`pair_block_superop` is the gate-by-gate form it is held to, and
`apply_layer` runs a layer's gates one at a time through `apply_channel`.
"""
from math import cos, sin

import numpy as np

from qreservoir import DensityMatrix, KrausChannel, apply_channel
from qreservoir.circuit import PAIR_BLOCK
from qreservoir.noise import _on_pair
from qreservoir.qstate import check_capacity

PSD_TOL = 1e-9

CX_MATRIX = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]], dtype=np.complex128)


def rx_matrix(angle: float) -> np.ndarray:
    c, s = cos(angle / 2), sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def rz_matrix(angle: float) -> np.ndarray:
    p = np.exp(-1j * angle / 2)
    return np.array([[p, 0], [0, p.conjugate()]])


def rx_gate(qubit: int, angle: float) -> KrausChannel:
    """exp(-i * angle * X / 2)."""
    return KrausChannel((qubit,), (rx_matrix(angle),))


def rz_gate(qubit: int, angle: float) -> KrausChannel:
    """exp(-i * angle * Z / 2)."""
    return KrausChannel((qubit,), (rz_matrix(angle),))


def cx_gate(control: int, target: int) -> KrausChannel:
    return KrausChannel((control, target), (CX_MATRIX,))


def layer_block(layer) -> tuple:
    """`PAIR_BLOCK` at the layer's angle as (pair positions, matrix) steps
    shared by every pair (single-qubit gates as 2x2, CX as 4x4)."""
    s = layer.angle
    mats = {"rx": rx_matrix(s), "rz": rz_matrix(s), "cx": CX_MATRIX}
    return tuple((pos, mats[name]) for name, pos in PAIR_BLOCK)


def layer_gates(layer) -> tuple:
    """The block on each pair in layout order, as 5m one-operator
    KrausChannels."""
    return tuple(KrausChannel(tuple(pair[k] for k in pos), (m,))
                 for pair in layer.layout.pairs for pos, m in layer_block(layer))


def apply_layer(state: DensityMatrix, layer) -> DensityMatrix:
    if state.num_qubits != layer.layout.num_qubits:
        raise ValueError(
            f"state has {state.num_qubits} qubits, layer expects "
            f"{layer.layout.num_qubits}")
    for gate in layer_gates(layer):
        state = apply_channel(state, gate)
    return state


def pair_block_superop(block, gate_noise) -> np.ndarray:
    """Compose one pair's (positions, matrix) gate steps, each followed by the
    gate noise at its positions (`noise._noise_plan`'s dict), into a single
    16x16 two-qubit superoperator with index order (row_i, row_j, col_i,
    col_j). Exact: all factors act on the same pair."""
    total = None
    for pos, m in block:
        u = _on_pair(pos, m)
        step = (u[..., :, None, :, None] * u.conj()[..., None, :, None, :]
                ).reshape(u.shape[:-2] + (16, 16))
        total = step if total is None else step @ total
        if pos in gate_noise:
            total = gate_noise[pos] @ total
    return total


def maximally_mixed(n: int) -> DensityMatrix:
    check_capacity(n)
    d = 1 << n
    return DensityMatrix(n, np.eye(d, dtype=np.complex128) / d)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of a - b; in [0, 1]."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"dimension mismatch: {a.num_qubits} vs {b.num_qubits} qubits")
    ev = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.abs(ev).sum())


def validate(state: DensityMatrix) -> DensityMatrix:
    """The PSD check a `DensityMatrix` does not make when it is built (an
    eigendecomposition)."""
    lo = np.linalg.eigvalsh(state.matrix).min()
    if lo < -PSD_TOL:
        raise ValueError(f"not positive semidefinite: min eigenvalue {lo:.3e}")
    return state
