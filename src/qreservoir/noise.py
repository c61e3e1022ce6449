"""Parametric device-noise model: per-gate depolarizing, per-layer idle damping,
coherent ZZ crosstalk on a qubit topology, and classical readout flips.

The composed step (gate noise -> crosstalk -> damping) defines this package's
stand-in for an otherwise uncharacterized device map.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import islice, product

import numpy as np

from .errors import CorruptedStateError, ProfileError
from .circuit import SubsystemLayout
from .inifile import parse_pairs, read_ini
from .qstate import HERMITICITY_TOL, TRACE_TOL, KrausChannel

_I2 = np.eye(2, dtype=np.complex128)
_CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
               dtype=np.complex128)
_CHECK_SLICE = 1 << 15  # entries of the step check's real temporary
_CHECK_SLOTS = tuple(np.s_[:, r, r:] for r in range(4))

_PAULI = {
    "I": _I2,
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


@dataclass(frozen=True)
class Topology:
    """Undirected coupling graph. num_qubits == 0 leaves the size unspecified;
    the edges are then checked against the register (see check_register)."""

    num_qubits: int
    edges: tuple

    def __post_init__(self):
        n = self.num_qubits
        if n < 0:
            raise ProfileError(f"topology num_qubits must be >= 0, got {n}")
        norm = []
        for e in self.edges:
            i, j = operator.index(e[0]), operator.index(e[1])
            if i == j:
                raise ProfileError(f"topology self-edge {i}-{j} is not allowed")
            if i < 0 or j < 0 or (n > 0 and (i >= n or j >= n)):
                raise ProfileError(f"topology edge {i}-{j} out of range for {n} qubits")
            key = (min(i, j), max(i, j))
            if key in norm:
                raise ProfileError(f"duplicate topology edge {i}-{j}")
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))

    def check_register(self, n: int) -> None:
        """Raise ProfileError unless this topology fits an n-qubit register.
        A topology without num_qubits is not size-checked, so each edge is."""
        if self.num_qubits not in (0, n):
            raise ProfileError(
                f"profile topology is for {self.num_qubits} qubits, register has {n}")
        for i, j in self.edges:  # normalised so that i < j
            if j >= n:
                raise ProfileError(
                    f"profile topology edge {i}-{j} out of range for {n} qubits")


@dataclass(frozen=True)
class DeviceNoiseProfile:
    """All noise knobs for one simulated device."""

    p1: float = 0.0           # depolarizing after each 1-qubit gate
    p2: float = 0.0           # 2-qubit depolarizing after each CX
    gamma_idle: float = 0.0   # amplitude damping per qubit per layer
    lambda_idle: float = 0.0  # phase damping per qubit per layer
    zz_theta: float = 0.0     # coherent ZZ angle per topology edge per layer
    readout_flip: tuple = (0.0, 0.0)   # (r01, r10), used only when sampling
    topology: Topology = Topology(0, ())

    def __post_init__(self):
        for name in ("p1", "p2", "gamma_idle", "lambda_idle"):
            v = getattr(self, name)
            if not np.isfinite(v) or not 0.0 <= v <= 1.0:
                raise ProfileError(f"{name} must be a probability in [0, 1], got {v}")
        r01, r10 = self.readout_flip
        for name, v in (("r01", r01), ("r10", r10)):
            if not np.isfinite(v) or not 0.0 <= v <= 1.0:
                raise ProfileError(f"{name} must be a probability in [0, 1], got {v}")
        object.__setattr__(self, "readout_flip", (float(r01), float(r10)))
        if not np.isfinite(self.zz_theta):
            raise ProfileError(f"zz_theta must be finite, got {self.zz_theta}")

    def is_zero(self) -> bool:
        return (self.p1 == self.p2 == self.gamma_idle == self.lambda_idle == 0.0
                and self.zz_theta == 0.0 and self.readout_flip == (0.0, 0.0))


def zero_noise() -> DeviceNoiseProfile:
    return DeviceNoiseProfile()


def depolarizing_channel(p: float, k: int, targets) -> KrausChannel:
    """E(rho) = (1 - p) rho + p I/d on k qubits, d = 2^k.

    Kraus set: sqrt(1 - p') I plus sqrt(p / 4^k) times each of the 4^k - 1
    non-identity Pauli strings, with p' = p (4^k - 1) / 4^k. Exact-zero
    operators are dropped, so p = 0 yields the identity channel.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability must be in [0, 1], got {p}")
    if k not in (1, 2):
        raise ValueError(f"depolarizing supports 1 or 2 qubits, got k={k}")
    four_k = 4 ** k
    p_prime = p * (four_k - 1) / four_k
    ops = []
    if p_prime < 1.0:
        ops.append(np.sqrt(1.0 - p_prime) * np.eye(1 << k, dtype=np.complex128))
    if p > 0.0:
        w = np.sqrt(p / four_k)
        for names in islice(product("IXYZ", repeat=k), 1, None):  # skip I..I
            ops.append(w * reduce(np.kron, [_PAULI[a] for a in names]))
    return KrausChannel(tuple(targets), tuple(ops))


def amplitude_damping_channel(gamma: float, target: int) -> KrausChannel:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=np.complex128)
    ops = (k0, k1) if gamma > 0.0 else (k0,)
    return KrausChannel((target,), ops)


def phase_damping_channel(lam: float, target: int) -> KrausChannel:
    """Shrinks off-diagonal entries by sqrt(1 - lam); diagonal untouched."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - lam)]], dtype=np.complex128)
    k1 = np.array([[0, 0], [0, np.sqrt(lam)]], dtype=np.complex128)
    ops = (k0, k1) if lam > 0.0 else (k0,)
    return KrausChannel((target,), ops)


def zz_crosstalk_gate(theta: float, edge) -> KrausChannel:
    """exp(-i theta (Z x Z) / 2): diag(e^{-i t/2}, e^{i t/2}, e^{i t/2}, e^{-i t/2})."""
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    lo = np.exp(-1j * theta / 2)
    hi = np.exp(1j * theta / 2)
    return KrausChannel(tuple(edge), (np.diag([lo, hi, hi, lo]),))


def _on_pair(pos, m) -> np.ndarray:
    """A gate or Kraus operator, or a (..., 2, 2) stack of them, at pair
    positions `pos` as a 4x4 matrix or a (..., 4, 4) stack."""
    if pos == (0,):
        m = m[..., :, None, :, None] * _I2[None, :, None, :]
    elif pos == (1,):
        m = _I2[:, None, :, None] * m[..., None, :, None, :]
    return m.reshape(m.shape[:-4] + (4, 4)) if len(pos) == 1 else m


@lru_cache(maxsize=128)
def _noise_plan(profile: DeviceNoiseProfile, n: int):
    """Input-independent pieces of one n-qubit timestep, built once per profile.

    Returns (crosstalk phase diagonal or None, {pair positions: 16x16
    superoperator of the depolarizing that follows a gate there, if on},
    idle superoperator of a pair or None). The crosstalk unitaries are all
    diagonal, so their product collapses to one phase vector. The idle
    damping acts on each qubit alike, so on a pair it is the real 16x16
    `idle (x) idle` in (row_i, row_j, col_i, col_j) order.
    """
    gate_noise = {}
    for pos, p in (((0,), profile.p1), ((1,), profile.p1), ((0, 1), profile.p2)):
        if p > 0.0:
            ops = depolarizing_channel(p, len(pos), pos).operators
            channel = KrausChannel((0, 1), tuple(_on_pair(pos, k) for k in ops))
            gate_noise[pos] = channel._superop.reshape(16, 16)
    phases = None
    if profile.zz_theta != 0.0 and profile.topology.edges:
        signs = np.zeros(1 << n)
        basis = np.arange(1 << n)
        for i, j in profile.topology.edges:
            zi = 1.0 - 2.0 * ((basis >> (n - 1 - i)) & 1)
            zj = 1.0 - 2.0 * ((basis >> (n - 1 - j)) & 1)
            signs += zi * zj
        phases = np.exp(-0.5j * profile.zz_theta * signs)
    idle = None
    for damping, g in ((amplitude_damping_channel, profile.gamma_idle),
                       (phase_damping_channel, profile.lambda_idle)):
        if g > 0.0:
            sup = damping(g, 0)._superop.reshape(4, 4)
            idle = sup if idle is None else sup @ idle
    if idle is not None:
        t = idle.reshape(2, 2, 2, 2)  # t[row, col, row', col']
        idle = np.einsum("acbd,xzyw->axczbydw", t, t).reshape(16, 16)
    return phases, gate_noise, idle


def _pair_blocks(left, right, angles) -> np.ndarray:
    """The (B, 16, 16) stack `left @ sup(U(s)) @ right` of pair blocks, one
    per angle s (`left` or `right` None for the identity), with index order
    (row_i, row_j, col_i, col_j). U(s) = ZZ(s) (RX(s) (x) RX(s)) is the
    block's unitary, ZZ(s) = CX RZ_j(s) CX = exp(-i s Z_i Z_j / 2), and
    sup(U) is `U (x) conj(U)`. The cosines and sines of every angle are taken
    in one pass, and each product is a stacked one, so a block is bit for
    bit the same in any stack."""
    half = np.asarray(angles, dtype=np.float64) / 2
    c, s = np.cos(half), np.sin(half)
    rx = np.empty(half.shape + (2, 2), dtype=np.complex128)
    rx[:, 0, 0] = rx[:, 1, 1] = c
    rx[:, 0, 1] = rx[:, 1, 0] = -1j * s
    u = (rx[:, :, None, :, None] * rx[:, None, :, None, :]).reshape(-1, 4, 4)
    phase = c - 1j * s  # exp(-i s / 2), the ZZ(s) phase of rows 00 and 11
    u[:, ::3] *= phase[:, None, None]
    u[:, 1:3] *= phase.conj()[:, None, None]
    sup = (u[:, :, None, :, None] * u.conj()[:, None, :, None, :]
           ).reshape(-1, 16, 16)
    if left is not None:
        sup = left @ sup
    return sup if right is None else sup @ right


def _product(*factors):
    """The matrix product of the factors that are not None, or None."""
    factors = [f for f in factors if f is not None]
    return reduce(np.matmul, factors) if factors else None


@lru_cache(maxsize=128)
def _step_plan(profile: DeviceNoiseProfile, layout: SubsystemLayout):
    """Input-independent pieces of one pair-major step, built once per profile
    and layout: (the pair block's fixed channels P and (D, D @ idle) of
    `_pair_blocks`, each None for the identity; the real 4x4 map
    `idle[::5, ::5]` of idle on a pair's diagonal or None; the crosstalk row
    and column phases or None; the axes of a `(B,) + (4, 4) * m` batch that
    swap each pair's row and column).

    With gate noise, `PAIR_BLOCK` is RX_i, D1_i, RX_j, D1_j, CX, D2, RZ_j,
    D1_j, CX, D2, where D1 is the p1 depolarizing channel on one qubit and
    D2 the p2 one on the pair. Depolarizing commutes with every unitary on
    its own qubits, so the block is `P @ sup(U(s)) @ D` with
    `P = D2 (CX D1_j CX) D2` and `D = D1_i D1_j`, and the idle a step owes
    folds in as `D @ idle`. This rests on the gate noise being
    depolarizing: another gate channel needs the gate-by-gate form.

    The phases are the `(4, 1)` and `(1, 4)` factors per pair axis,
    materialised over the last pair axis, so that each multiply runs a
    contiguous inner loop of 16 rather than a broadcast one of 4 (the same
    multiplies in the same order). Raises ProfileError unless the topology
    fits the register."""
    n = layout.num_qubits
    profile.topology.check_register(n)
    zz_phases, gate_noise, idle = _noise_plan(profile, n)
    cx = np.kron(_CX, _CX)  # sup(CX), real
    d1_j, d2 = gate_noise.get((1,)), gate_noise.get((0, 1))
    left = _product(d2, None if d1_j is None else cx @ d1_j @ cx, d2)
    right = _product(gate_noise.get((0,)), d1_j)
    right = (right, _product(right, idle))
    m = layout.num_pairs
    idle_diagonal = None if idle is None else idle[::5, ::5].real.copy()
    crosstalk = None
    if zz_phases is not None:
        qubits = [q for pair in layout.pairs for q in pair]
        rows = zz_phases.reshape((2,) * n).transpose(qubits).reshape((4,) * m)
        row_factor = rows.reshape((4, 1) * m)
        col_factor = rows.conj().reshape((1, 4) * m)
        crosstalk = (
            np.ascontiguousarray(np.broadcast_to(
                row_factor, (4, 1) * (m - 1) + (4, 4))),
            np.ascontiguousarray(np.broadcast_to(
                col_factor, (1, 4) * (m - 1) + (4, 4))))
    swap = (0,) + tuple(a for k in range(m) for a in (2 * k + 2, 2 * k + 1))
    return left, right, idle_diagonal, crosstalk, swap


@lru_cache(maxsize=128)
def _qubit_order(layout: SubsystemLayout) -> tuple:
    """Axes that take a (2,) * n array from pair order to qubit order."""
    return tuple(np.argsort([q for pair in layout.pairs for q in pair]))


def idle_damped_populations(v: np.ndarray, profile: DeviceNoiseProfile,
                            layout: SubsystemLayout) -> np.ndarray:
    """diag(rho_t) of each carried state of a batch, which is rho_t before its
    idle damping (see `apply_device_noise`), as a real (B,) + (2,) * n array
    in qubit order.

    On each pair axis the diagonal is r == c: indices 0, 5, 10 and 15. Idle
    damping maps the diagonal only to itself (amplitude damping moves p1 into
    p0, phase damping leaves it alone), so its 4x4 diagonal block
    `idle[::5, ::5]` applied on each pair axis of the diagonal gives the
    diagonal of the idle-damped state exactly, with no pass over the state.
    """
    m = layout.num_pairs
    diagonal = v[(slice(None),) + (slice(None, None, 5),) * m].real
    idle_diagonal = _step_plan(profile, layout)[2]
    if idle_diagonal is not None:
        for _ in range(m):  # as `_on_every_pair`: each axis in turn to front
            diagonal = idle_diagonal @ diagonal.reshape(len(v), -1, 4).transpose(
                0, 2, 1)
    return diagonal.reshape((len(v),) + (2,) * layout.num_qubits).transpose(
        (0, *[1 + a for a in _qubit_order(layout)]))


def _on_every_pair(v: np.ndarray, spare: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Apply a 16x16 superoperator, or a (B, 16, 16) stack, to every pair axis
    of a (B,) + (16,)*m batch of pair-major states. Each product contracts the
    last axis, moves it to just behind the batch axis and is written into the
    other buffer, so after m products every axis is back in its place.
    Returns the buffer that holds the result; the other is free."""
    for _ in range(v.ndim - 1):
        np.matmul(sup, v.reshape(len(v), -1, 16).transpose(0, 2, 1),
                  out=spare.reshape(len(v), 16, -1))
        v, spare = spare, v
    return v


def _hermiticity_residual(w: np.ndarray, spare: np.ndarray, swap) -> float:
    """max |r(a)|, r(a) = w[a] - conj(w[swap a]), over a `(B,) + (4, 4) * m`
    batch, formed in `spare` only over the `_CHECK_SLOTS`, the 10 of the first
    pair axis's 16 slots with R0 <= C0. Since `|r(swap a)| = |r(a)|` and every
    entry is read as `a` or as `swap a`, this is bit for bit the maximum over
    all entries, and NaN if any entry is NaN."""
    flat, size, wt = spare.reshape(-1), 0, w.transpose(swap)
    for index in _CHECK_SLOTS:
        part = w[index]
        residual = flat[size:size + part.size].reshape(part.shape)
        np.conjugate(wt[index], out=residual)
        np.subtract(part, residual, out=residual)
        size += part.size
    flat = flat[:size]  # |residual| by slices: no matrix-sized temporary
    return reduce(np.maximum, [np.abs(flat[i:i + _CHECK_SLICE]).max()
                               for i in range(0, size, _CHECK_SLICE)])


def apply_device_noise(v: np.ndarray, spare: np.ndarray,
                       profile: DeviceNoiseProfile, layers, owes_idle: bool):
    """One noisy timestep on a batch of carried pair-major states, state b
    driven by `layers[b]`: its pair blocks with gate noise folded in, built
    in closed form from the layer's angle (see `_step_plan`), then per-layer
    crosstalk. Returns (state, spare): the buffer that holds the result and
    the one that is free.

    The carried state is rho_t before its per-qubit idle damping. Idle
    damping acts on each pair alone, as does the next pair block, so when
    `owes_idle` is true the idle that `v` still owes is folded into this
    step's block as one 16x16 matrix, `D @ idle`, and a step is one
    matrix product per pair. The diagonal after the idle, the features, is
    read by `idle_damped_populations`. With `owes_idle` false (the first
    step, whose initial state owes nothing) the block is applied alone; a
    full step on rho is this with `owes_idle` false followed by the idle on
    every pair.

    `v` is a C-contiguous complex (B,) + (16,) * m array: per layer the
    2^n x 2^n matrix with one (r_i, r_j, c_i, c_j) axis of 16 per pair in
    layout order; `spare` is a second one that is overwritten. With `axes =
    [a for i, j in pairs for a in (i, j, n + i, n + j)]`,
    `rho.reshape((2,) * 2n).transpose(axes)` gives `v[b]` and back with
    `np.argsort(axes)`. The blocks are one (B, 16, 16) stack and each product
    one stacked product, so a state's step is bit for bit that of a batch of
    one. Nothing is symmetrised; the unfolded step equals the naive sequence
    of `qstate._apply_superop_tensor` calls within rounding (1e-15).

    Each result is validated as a `DensityMatrix` is, with the same bounds,
    and a CorruptedStateError is raised unless its Hermiticity residual
    against the row<->column swap (`_hermiticity_residual`, formed in the free
    buffer, so a NaN or inf fails it) and its trace are within them. Idle
    damping keeps both, so the check holds for the idle-damped state too.
    """
    layout = layers[0].layout
    m = layout.num_pairs
    shape = (len(layers),) + (16,) * m
    for buffer in (v, spare):
        if buffer.shape != shape or not buffer.flags.c_contiguous:
            raise ValueError(f"{len(layers)} layers need C-contiguous {shape} "
                             f"buffers, got shape {buffer.shape}")
    if any(layer.layout != layout for layer in layers):
        raise ValueError("the layers of a batch need one layout")
    left, right, _, crosstalk, swap = _step_plan(profile, layout)
    sup = _pair_blocks(left, right[owes_idle], [x.angle for x in layers])
    out = _on_every_pair(v, spare, sup)
    v, spare = out, (v if out is spare else spare)
    w = v.reshape((len(layers),) + (4, 4) * m)
    if crosstalk is not None:
        rows, cols = crosstalk
        w *= rows
        w *= cols
    herm = _hermiticity_residual(w, spare, swap)
    if not herm <= HERMITICITY_TOL:
        raise CorruptedStateError(
            f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    diagonal = v[(slice(None),) + (slice(None, None, 5),) * m]
    for tr in diagonal.sum(axis=tuple(range(1, m + 1))):
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise CorruptedStateError(f"trace must be 1, got {tr!r}")
    return v, spare


_PROFILE_KEYS = {
    ("gates", "p1"), ("gates", "p2"), ("idle", "gamma"), ("idle", "lambda"),
    ("crosstalk", "theta"), ("readout", "r01"), ("readout", "r10"),
    ("topology", "num_qubits"), ("topology", "edges"),
}


def load_noise_profile(source) -> DeviceNoiseProfile:
    """Parse a noise profile from an INI document or a path to one (see
    `inifile.read_ini`). Absent keys keep the zero-noise default: no noise and
    an unspecified topology.
    """
    get, _ = read_ini(source, _PROFILE_KEYS, ProfileError, "profile")
    zero = zero_noise()
    return DeviceNoiseProfile(
        p1=get("gates", "p1", float, zero.p1),
        p2=get("gates", "p2", float, zero.p2),
        gamma_idle=get("idle", "gamma", float, zero.gamma_idle),
        lambda_idle=get("idle", "lambda", float, zero.lambda_idle),
        zz_theta=get("crosstalk", "theta", float, zero.zz_theta),
        readout_flip=(get("readout", "r01", float, zero.readout_flip[0]),
                      get("readout", "r10", float, zero.readout_flip[1])),
        topology=Topology(
            get("topology", "num_qubits", int, zero.topology.num_qubits),
            get("topology", "edges", parse_pairs, zero.topology.edges)),
    )


# Preset parameter sets. Magnitudes are plausible for superconducting hardware
# but are artifact choices, not calibrated against any real device.
_PRESETS = {
    "strong-dense": dict(p1=0.002, p2=0.02, gamma_idle=0.010, lambda_idle=0.010,
                         zz_theta=0.06, readout_flip=(0.02, 0.03), second_neighbors=True),
    "weak-sparse": dict(p1=0.0005, p2=0.008, gamma_idle=0.004, lambda_idle=0.004,
                        zz_theta=0.015, readout_flip=(0.01, 0.015), second_neighbors=False),
}


def preset_profile(name: str, num_qubits: int = 8) -> DeviceNoiseProfile:
    """A shipped preset on a chain topology (plus second-neighbor edges for the
    dense variant)."""
    if name not in _PRESETS:
        raise ProfileError(
            f"unknown preset {name!r}; available: {sorted(_PRESETS)}")
    params = dict(_PRESETS[name])
    dense = params.pop("second_neighbors")
    edges = [(q, q + 1) for q in range(num_qubits - 1)]
    if dense:
        edges += [(q, q + 2) for q in range(num_qubits - 2)]
    return DeviceNoiseProfile(topology=Topology(num_qubits, tuple(edges)), **params)
