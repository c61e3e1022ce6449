"""Dense multi-qubit density-matrix simulation.

Gates and channels act on 1 or 2 targeted qubits by contracting only the
targeted tensor axes; the full 2^n x 2^n operator is never materialized.
Qubit 0 is the most significant bit of the computational-basis index.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, InvalidChannelError

MAX_QUBITS = 14

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
UNITARITY_TOL = 1e-12
COMPLETENESS_TOL = 1e-12
PSD_TOL = 1e-9


def _as_complex(m) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(m, dtype=np.complex128))
    if not np.isfinite(out).all():
        raise ValueError("matrix has non-finite entries")
    return out


def check_capacity(n) -> None:
    """Raise CapacityError unless n is a register size dense simulation supports."""
    if not isinstance(n, int) or not 1 <= n <= MAX_QUBITS:
        raise CapacityError(f"num_qubits must be in [1, {MAX_QUBITS}], got {n!r}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """State of an n-qubit register: Hermitian, trace-one, PSD complex matrix."""

    num_qubits: int
    matrix: np.ndarray
    check: InitVar[bool] = True

    def __post_init__(self, check):
        if not check:
            # trusted path for operator outputs; skips validation on the
            # per-gate hot loop
            return
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

    def validate(self, check_psd: bool = True, tol: float = PSD_TOL) -> "DensityMatrix":
        """Opt-in PSD check (eigendecomposition; skipped on the hot path)."""
        if check_psd:
            lo = np.linalg.eigvalsh(self.matrix).min()
            if lo < -tol:
                raise ValueError(f"not positive semidefinite: min eigenvalue {lo:.3e}")
        return self


def plus_state(n: int) -> DensityMatrix:
    """|+><+| on every qubit: the uniform matrix with all entries 1/2^n."""
    check_capacity(n)
    d = 1 << n
    return DensityMatrix(n, np.full((d, d), 1.0 / d, dtype=np.complex128))


def maximally_mixed(n: int) -> DensityMatrix:
    check_capacity(n)
    d = 1 << n
    return DensityMatrix(n, np.eye(d, dtype=np.complex128) / d)


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
class UnitaryGate:
    """A 1- or 2-qubit unitary with the register qubits it acts on."""

    targets: tuple
    matrix: np.ndarray

    def __post_init__(self):
        targets = tuple(int(t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        k = len(targets)
        if k not in (1, 2):
            raise ValueError(f"gates act on 1 or 2 qubits, got targets {targets}")
        if len(set(targets)) != k or any(t < 0 for t in targets):
            raise ValueError(f"targets must be distinct non-negative indices, got {targets}")
        m = _as_complex(self.matrix)
        object.__setattr__(self, "matrix", m)
        dk = 1 << k
        if m.shape != (dk, dk):
            raise ValueError(f"expected {dk}x{dk} matrix for {k} targets, got {m.shape}")
        err = np.abs(m.conj().T @ m - np.eye(dk)).max()
        if err > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary: max |U^dag U - I| = {err:.3e}")

    @property
    def num_targets(self) -> int:
        return len(self.targets)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A CPTP map given by Kraus operators acting on the targeted qubits."""

    targets: tuple
    operators: tuple

    def __post_init__(self):
        targets = tuple(int(t) for t in self.targets)
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


def apply_unitary(state: DensityMatrix, gate: UnitaryGate) -> DensityMatrix:
    """U rho U^dag contracting only the targeted axes."""
    _check_targets(state, gate.targets)
    n = state.num_qubits
    k = gate.num_targets
    u = gate.matrix.reshape((2,) * (2 * k))
    t = state.matrix.reshape((2,) * (2 * n))
    row = list(gate.targets)
    col = [n + q for q in gate.targets]
    in_axes = list(range(k, 2 * k))
    # left multiply: contract U's input axes with the row axes of rho
    t = np.moveaxis(np.tensordot(u, t, axes=(in_axes, row)), range(k), row)
    # right multiply by U^dag: (rho U^dag)[.., c] = rho[.., b] conj(U)[c, b]
    t = np.moveaxis(np.tensordot(u.conj(), t, axes=(in_axes, col)), range(k), col)
    d = state.dim
    return DensityMatrix(n, t.reshape(d, d), check=False)


def _apply_superop_tensor(state: DensityMatrix, sup: np.ndarray,
                          targets) -> DensityMatrix:
    """Contract a (2,)*4k superoperator tensor with the targeted row/col axes."""
    n = state.num_qubits
    k = len(targets)
    t = state.matrix.reshape((2,) * (2 * n))
    row = list(targets)
    col = [n + q for q in targets]
    t = np.tensordot(sup, t, axes=(list(range(2 * k, 4 * k)), row + col))
    t = np.moveaxis(t, range(2 * k), row + col)
    d = state.dim
    m = t.reshape(d, d)
    m = (m + m.conj().T) / 2  # suppress drift over long trajectories
    return DensityMatrix(n, m, check=False)


def apply_channel(state: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """sum_m K_m rho K_m^dag via the channel's cached superoperator tensor."""
    _check_targets(state, channel.targets)
    return _apply_superop_tensor(state, channel._superop, channel.targets)


def pauli_z_expectations(state: DensityMatrix) -> np.ndarray:
    """[Tr(Z_1 rho), ..., Tr(Z_n rho)]; needs only diag(rho)."""
    n = state.num_qubits
    probs = np.real(np.diagonal(state.matrix)).reshape((2,) * n)
    out = np.empty(n)
    for i in range(n):
        axes = tuple(j for j in range(n) if j != i)
        marginal = probs.sum(axis=axes) if axes else probs
        out[i] = marginal[0] - marginal[1]
    return out


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of a - b; in [0, 1]."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"dimension mismatch: {a.num_qubits} vs {b.num_qubits} qubits")
    ev = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.abs(ev).sum())
