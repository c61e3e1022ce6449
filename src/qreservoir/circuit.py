"""Input-driven reservoir circuit: identical 5-gate blocks on disjoint qubit pairs.

Per pair (i, j) one layer applies the gates of `PAIR_BLOCK` in order:
    RX_i(s), RX_j(s), CX_{i,j}, RZ_j(s), CX_{i,j}      with s = a * u.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# The pair block in order: (gate, pair positions), 0 standing for i, 1 for j.
PAIR_BLOCK = (("rx", (0,)), ("rx", (1,)), ("cx", (0, 1)), ("rz", (1,)),
              ("cx", (0, 1)))


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

    @property
    def angle(self) -> float:
        return self.scale * self.input_value


def build_layer(u: float, layout: SubsystemLayout, a: float) -> CircuitLayer:
    """The m identical 5-gate blocks with rotation angle s = a * u."""
    if not np.isfinite(u) or not np.isfinite(a):
        raise ValueError(f"input and scale must be finite, got u={u}, a={a}")
    return CircuitLayer(layout, float(u), float(a))


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
