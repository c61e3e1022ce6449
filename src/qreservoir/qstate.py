"""Dense multi-qubit density-matrix simulation.

Gates and noise are Kraus channels (a unitary gate has one operator) on 1 or 2
targeted qubits, applied by contracting only the targeted tensor axes; the
full 2^n x 2^n operator is never materialized.
Qubit 0 is the most significant bit of the computational-basis index.
"""
from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, InvalidChannelError

MAX_QUBITS = 14

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
COMPLETENESS_TOL = 1e-12


def _as_complex(m) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(m, dtype=np.complex128))
    if not np.isfinite(out).all():
        raise ValueError("matrix has non-finite entries")
    return out


# bytes a trajectory holds per byte of one 2^n x 2^n complex matrix: the
# state and the spare buffer; one evolved batch holds at most BATCH_BUDGET
# bytes of them, or one trajectory
TRAJECTORY_FOOTPRINT = 2.0
BATCH_BUDGET = 1 << 25


def trajectory_bytes(n: int) -> float:
    return TRAJECTORY_FOOTPRINT * 16 * 4 ** n


def batch_size(n: int) -> int:
    return max(1, int(BATCH_BUDGET // trajectory_bytes(n)))


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_capacity(n) -> None:
    """Raise CapacityError unless n is a register size dense simulation supports:
    in [1, MAX_QUBITS], with a trajectory's footprint within physical memory."""
    if not isinstance(n, int) or not 1 <= n <= MAX_QUBITS:
        raise CapacityError(f"num_qubits must be in [1, {MAX_QUBITS}], got {n!r}")
    need = trajectory_bytes(n)
    have = _physical_memory()
    if need > have:
        raise CapacityError(
            f"num_qubits = {n} needs about {need / 1e9:.1f} GB for a "
            f"trajectory, more than the {have / 1e9:.1f} GB of physical memory")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """State of an n-qubit register: Hermitian, trace-one, PSD complex matrix."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        n = self.num_qubits
        check_capacity(n)
        m = _as_complex(self.matrix)
        object.__setattr__(self, "matrix", m)
        d = 1 << n
        if m.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrix for {n} qubits, got {m.shape}")
        herm = np.abs(m - m.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr!r}")

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    @property
    def populations(self) -> np.ndarray:
        """diag(rho) as floats: the computational-basis outcome probabilities."""
        return np.real(np.diagonal(self.matrix))


def plus_state(n: int) -> DensityMatrix:
    """|+><+| on every qubit: the uniform matrix with all entries 1/2^n."""
    check_capacity(n)
    d = 1 << n
    return DensityMatrix(n, np.full((d, d), 1.0 / d, dtype=np.complex128))


def basis_state(n: int, bits) -> DensityMatrix:
    """|b><b| for a computational-basis label given as an int or a bit sequence."""
    if isinstance(bits, int):
        index = bits
    else:
        bits = tuple(bits)
        if len(bits) != n or any(b not in (0, 1) for b in bits):
            raise ValueError(f"need {n} bits of 0/1, got {bits!r}")
        index = 0
        for b in bits:
            index = (index << 1) | b
    d = 1 << n
    if not 0 <= index < d:
        raise ValueError(f"basis index {index} out of range for {n} qubits")
    m = np.zeros((d, d), dtype=np.complex128)
    m[index, index] = 1.0
    return DensityMatrix(n, m)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A CPTP map given by Kraus operators acting on the targeted qubits; a
    unitary gate is the one-operator case."""

    targets: tuple
    operators: tuple

    def __post_init__(self):
        targets = tuple(operator.index(t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        k = len(targets)
        if k not in (1, 2):
            raise ValueError(f"channels act on 1 or 2 qubits, got targets {targets}")
        if len(set(targets)) != k or any(t < 0 for t in targets):
            raise ValueError(f"targets must be distinct non-negative indices, got {targets}")
        ops = tuple(_as_complex(op) for op in self.operators)
        object.__setattr__(self, "operators", ops)
        if not ops:
            raise InvalidChannelError("channel needs at least one Kraus operator")
        dk = 1 << k
        acc = np.zeros((dk, dk), dtype=np.complex128)
        for op in ops:
            if op.shape != (dk, dk):
                raise InvalidChannelError(
                    f"expected {dk}x{dk} Kraus operators for {k} targets, got {op.shape}")
            acc += op.conj().T @ op
        err = np.abs(acc - np.eye(dk)).max()
        if err > COMPLETENESS_TOL:
            raise InvalidChannelError(
                f"completeness violated: max |sum K^dag K - I| = {err:.3e}")

    @property
    def num_targets(self) -> int:
        return len(self.targets)

    @cached_property
    def _superop(self) -> np.ndarray:
        # T[a, c, b, d] = sum_m K_m[a, b] conj(K_m[c, d]), so that
        # rho'[a, c] = T[a, c, b, d] rho[b, d]; cached per channel instance.
        ks = np.stack(self.operators)
        t = np.einsum("mab,mcd->acbd", ks, ks.conj())
        k = len(self.targets)
        return t.reshape((2,) * (4 * k))


def _check_targets(state: DensityMatrix, targets) -> None:
    for t in targets:
        if t >= state.num_qubits:
            raise IndexError(
                f"target qubit {t} out of range for {state.num_qubits}-qubit state")


def _apply_superop_tensor(m: np.ndarray, sup: np.ndarray, targets) -> np.ndarray:
    """Contract a (2,)*4k superoperator tensor with the targeted row/col axes
    of a 2^n x 2^n matrix; returns the new matrix."""
    d = m.shape[0]
    n = d.bit_length() - 1
    k = len(targets)
    t = m.reshape((2,) * (2 * n))
    row = list(targets)
    col = [n + q for q in targets]
    t = np.tensordot(sup, t, axes=(list(range(2 * k, 4 * k)), row + col))
    t = np.moveaxis(t, range(2 * k), row + col)
    m = t.reshape(d, d)
    return (m + m.conj().T) / 2  # suppress drift over long trajectories


def apply_channel(state: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """sum_m K_m rho K_m^dag via the channel's cached superoperator tensor."""
    _check_targets(state, channel.targets)
    return DensityMatrix(state.num_qubits, _apply_superop_tensor(
        state.matrix, channel._superop, channel.targets))


def population_qubits(probs: np.ndarray) -> int:
    """n for a population vector diag(rho) of length 2^n; ValueError otherwise."""
    if probs.ndim != 1 or probs.size < 2 or probs.size & (probs.size - 1):
        raise ValueError(f"need populations of length 2^n, got shape {probs.shape}")
    return probs.size.bit_length() - 1


def pauli_z_expectations(populations) -> np.ndarray:
    """[Tr(Z_1 rho), ..., Tr(Z_n rho)] from the populations diag(rho)."""
    probs = np.asarray(populations, dtype=np.float64)
    n = population_qubits(probs)
    probs = probs.reshape((2,) * n)
    out = np.empty(n)
    for i in range(n):
        axes = tuple(j for j in range(n) if j != i)
        marginal = probs.sum(axis=axes) if axes else probs
        out[i] = marginal[0] - marginal[1]
    return out

