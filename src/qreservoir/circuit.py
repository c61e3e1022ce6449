"""Input-driven reservoir circuit: identical 5-gate blocks on disjoint qubit pairs.

Per pair (i, j) one layer applies the gates of `PAIR_BLOCK` in order:
    RX_i(s), RX_j(s), CX_{i,j}, RZ_j(s), CX_{i,j}      with s = a * u.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from math import cos, sin

import numpy as np

from .qstate import DensityMatrix, KrausChannel, apply_channel

_CX_MATRIX = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]], dtype=np.complex128)

# The pair block in order: (gate, pair positions), 0 standing for i, 1 for j.
PAIR_BLOCK = (("rx", (0,)), ("rx", (1,)), ("cx", (0, 1)), ("rz", (1,)),
              ("cx", (0, 1)))


def _rx_matrix(angle: float) -> np.ndarray:
    c, s = cos(angle / 2), sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _rz_matrix(angle: float) -> np.ndarray:
    p = np.exp(-1j * angle / 2)
    return np.array([[p, 0], [0, p.conjugate()]])


def rx_gate(qubit: int, angle: float) -> KrausChannel:
    """exp(-i * angle * X / 2)."""
    return KrausChannel((qubit,), (_rx_matrix(angle),))


def rz_gate(qubit: int, angle: float) -> KrausChannel:
    """exp(-i * angle * Z / 2)."""
    return KrausChannel((qubit,), (_rz_matrix(angle),))


def cx_gate(control: int, target: int) -> KrausChannel:
    return KrausChannel((control, target), (_CX_MATRIX,))


@dataclass(frozen=True)
class SubsystemLayout:
    """Partition of n = 2m qubits into m ordered, disjoint pairs."""

    num_qubits: int
    pairs: tuple

    def __post_init__(self):
        pairs = tuple((operator.index(i), operator.index(j))
                      for i, j in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        n = self.num_qubits
        if n < 2 or n % 2 != 0:
            raise ValueError(f"need an even number of qubits >= 2, got {n}")
        if len(pairs) != n // 2:
            raise ValueError(f"need {n // 2} pairs for {n} qubits, got {len(pairs)}")
        seen = [q for pair in pairs for q in pair]
        if sorted(seen) != list(range(n)):
            raise ValueError(
                f"pairs must cover each qubit 0..{n - 1} exactly once, got {pairs}")

    @classmethod
    def default(cls, num_qubits: int) -> "SubsystemLayout":
        """Adjacent pairing (0,1), (2,3), ..."""
        pairs = tuple((q, q + 1) for q in range(0, num_qubits, 2))
        return cls(num_qubits, pairs)

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True, eq=False)
class CircuitLayer:
    """One timestep of the reservoir circuit: the 5-gate block with angle
    s = scale * input_value on every pair of the layout."""

    layout: SubsystemLayout
    input_value: float
    scale: float

    @cached_property
    def block(self) -> tuple:
        """`PAIR_BLOCK` as (pair positions, matrix) steps shared by every pair
        (single-qubit gates as 2x2, CX as 4x4)."""
        s = self.scale * self.input_value
        mats = {"rx": _rx_matrix(s), "rz": _rz_matrix(s), "cx": _CX_MATRIX}
        # from a list: a tuple(generator) is resized, which fills a free list
        return tuple([(pos, mats[name]) for name, pos in PAIR_BLOCK])

    @cached_property
    def gates(self) -> tuple:
        """The block on each pair in layout order, as 5m one-operator
        KrausChannels."""
        return tuple(KrausChannel(tuple(pair[k] for k in pos), (m,))
                     for pair in self.layout.pairs for pos, m in self.block)


def build_layer(u: float, layout: SubsystemLayout, a: float) -> CircuitLayer:
    """The m identical 5-gate blocks with rotation angle s = a * u."""
    if not np.isfinite(u) or not np.isfinite(a):
        raise ValueError(f"input and scale must be finite, got u={u}, a={a}")
    return CircuitLayer(layout, float(u), float(a))


def apply_layer(state: DensityMatrix, layer: CircuitLayer) -> DensityMatrix:
    if state.num_qubits != layer.layout.num_qubits:
        raise ValueError(
            f"state has {state.num_qubits} qubits, layer expects "
            f"{layer.layout.num_qubits}")
    for gate in layer.gates:
        state = apply_channel(state, gate)
    return state


def export_qasm(inputs, layout: SubsystemLayout, a: float) -> str:
    """OpenQASM 2.0 program: H-prep, one block per pair per input, measure all.

    Deterministic output; angles printed with 17 significant digits so parsing
    them back recovers a * u exactly.
    """
    angles = [a * float(u) for u in inputs]
    if not angles or not np.isfinite(angles).all():
        raise ValueError(f"need at least one input and finite angles a * u, got a={a}")
    n = layout.num_qubits
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{n}];",
        f"creg c[{n}];",
    ]
    for q in range(n):
        lines.append(f"h q[{q}];")
    for angle in angles:
        s = f"({angle:.17g})"
        for pair in layout.pairs:
            for name, pos in PAIR_BLOCK:
                qubits = ",".join(f"q[{pair[k]}]" for k in pos)
                lines.append(f"{name}{'' if name == 'cx' else s} {qubits};")
    for q in range(n):
        lines.append(f"measure q[{q}] -> c[{q}];")
    return "\n".join(lines) + "\n"
