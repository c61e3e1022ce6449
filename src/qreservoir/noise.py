"""Parametric device-noise model: per-gate depolarizing, per-layer idle damping,
coherent ZZ crosstalk on a qubit topology, and classical readout flips.

The composed step (gate noise -> crosstalk -> damping) defines this package's
stand-in for an otherwise uncharacterized device map.
"""
from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ProfileError
from .circuit import CircuitLayer
from .qstate import (DensityMatrix, KrausChannel, UnitaryGate,
                     _apply_superop_tensor)

_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


@dataclass(frozen=True)
class Topology:
    """Undirected coupling graph; num_qubits == 0 means 'unspecified, no edges'."""

    num_qubits: int
    edges: tuple

    def __post_init__(self):
        n = self.num_qubits
        if n < 0:
            raise ProfileError(f"topology num_qubits must be >= 0, got {n}")
        norm = []
        for e in self.edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ProfileError(f"topology self-edge {i}-{j} is not allowed")
            if i < 0 or j < 0 or (n > 0 and (i >= n or j >= n)):
                raise ProfileError(f"topology edge {i}-{j} out of range for {n} qubits")
            key = (min(i, j), max(i, j))
            if key in norm:
                raise ProfileError(f"duplicate topology edge {i}-{j}")
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))


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
        names = ["I", "X", "Y", "Z"]
        if k == 1:
            strings = [(_PAULI[a],) for a in names[1:]]
        else:
            strings = [(_PAULI[a], _PAULI[b]) for a in names for b in names
                       if (a, b) != ("I", "I")]
        for factors in strings:
            m = factors[0]
            for f in factors[1:]:
                m = np.kron(m, f)
            ops.append(w * m)
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


def zz_crosstalk_gate(theta: float, edge) -> UnitaryGate:
    """exp(-i theta (Z x Z) / 2): diag(e^{-i t/2}, e^{i t/2}, e^{i t/2}, e^{-i t/2})."""
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    lo = np.exp(-1j * theta / 2)
    hi = np.exp(1j * theta / 2)
    return UnitaryGate(tuple(edge), np.diag([lo, hi, hi, lo]))


def _kraus_superop(ops) -> np.ndarray:
    """sum_m K_m (x) conj(K_m): the channel as a matrix on vectorized states."""
    return sum(np.kron(k, k.conj()) for k in ops)


@lru_cache(maxsize=128)
def _noise_plan(profile: DeviceNoiseProfile, n: int):
    """Input-independent pieces of one n-qubit timestep, built once per profile.

    Returns (crosstalk phase diagonal or None, gate-noise superoperators on a
    pair (i, j) as (1-qubit depolarizing on i, on j, 2-qubit depolarizing on
    both), each None when off, composed one-qubit idle superoperator tensor or
    None). The crosstalk unitaries are all diagonal, so their product collapses
    to a single phase vector.
    """
    i2 = np.eye(2, dtype=np.complex128)
    dep1_i = dep1_j = dep2_ij = None
    if profile.p1 > 0.0:
        ops = depolarizing_channel(profile.p1, 1, (0,)).operators
        dep1_i = _kraus_superop([np.kron(k, i2) for k in ops])
        dep1_j = _kraus_superop([np.kron(i2, k) for k in ops])
    if profile.p2 > 0.0:
        dep2_ij = _kraus_superop(
            depolarizing_channel(profile.p2, 2, (0, 1)).operators)
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
    if profile.gamma_idle > 0.0:
        idle = _kraus_superop(
            amplitude_damping_channel(profile.gamma_idle, 0).operators)
    if profile.lambda_idle > 0.0:
        sup = _kraus_superop(phase_damping_channel(profile.lambda_idle, 0).operators)
        idle = sup if idle is None else sup @ idle
    if idle is not None:
        idle = idle.reshape((2,) * 4)
    return phases, (dep1_i, dep1_j, dep2_ij), idle


def _pair_block_superop(mats, gate_noise) -> np.ndarray:
    """Compose one pair's gates and gate-noise channels into a single 2-qubit
    superoperator tensor. Exact: all factors act on the same pair."""
    m0, m1, m2, m3, m4 = mats
    dep1_i, dep1_j, dep2_ij = gate_noise
    i2 = np.eye(2, dtype=np.complex128)

    def unitary(u):
        return np.kron(u, u.conj())

    seq = [unitary(np.kron(m0, i2)), dep1_i,
           unitary(np.kron(i2, m1)), dep1_j,
           unitary(m2), dep2_ij,
           unitary(np.kron(i2, m3)), dep1_j,
           unitary(m4), dep2_ij]
    total = reduce(lambda acc, t: t @ acc, [t for t in seq if t is not None])
    return total.reshape((2,) * 8)


def apply_device_noise(state: DensityMatrix, profile: DeviceNoiseProfile,
                       layer: CircuitLayer) -> DensityMatrix:
    """One full noisy timestep: the layer's pair blocks with gate noise folded
    in, then per-layer crosstalk, then per-qubit damping.
    """
    n = state.num_qubits
    topo = profile.topology
    if topo.num_qubits not in (0, n):
        raise ProfileError(
            f"profile topology is for {topo.num_qubits} qubits, state has {n}")
    for i, j in topo.edges:  # normalised so that i < j
        if j >= n:
            raise ProfileError(
                f"profile topology edge {i}-{j} out of range for {n} qubits")
    if layer.layout.num_qubits != n:
        raise ValueError(
            f"layer is for {layer.layout.num_qubits} qubits, state has {n}")
    zz_phases, gate_noise, idle = _noise_plan(profile, n)
    block = _pair_block_superop(layer.block, gate_noise)
    for pair in layer.layout.pairs:
        state = _apply_superop_tensor(state, block, pair)
    if zz_phases is not None:
        m = state.matrix * zz_phases[:, None]
        m = m * zz_phases.conj()[None, :]
        state = DensityMatrix(n, m, check=False)
    if idle is not None:
        for q in range(n):
            state = _apply_superop_tensor(state, idle, (q,))
    return state


_SCHEMA = {
    "gates": ("p1", "p2"),
    "idle": ("gamma", "lambda"),
    "crosstalk": ("theta",),
    "readout": ("r01", "r10"),
    "topology": ("num_qubits", "edges"),
}


def _parse_edges(text: str):
    edges = []
    for chunk in text.replace(",", " ").split():
        parts = chunk.split("-")
        if len(parts) != 2:
            raise ProfileError(f"topology edge {chunk!r} is not of the form i-j")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ProfileError(f"topology edge {chunk!r} is not of the form i-j") from None
    return tuple(edges)


def load_noise_profile(source) -> DeviceNoiseProfile:
    """Parse a noise profile from an INI-style document or a path to one.

    Anything containing a newline or starting with '[' is treated as document
    text; otherwise as a filesystem path. Missing sections default to zero
    noise and an unspecified topology.
    """
    text = None
    if isinstance(source, os.PathLike):
        source = os.fspath(source)
    if isinstance(source, str):
        if "\n" in source or source.lstrip().startswith("[") or source.strip() == "":
            text = source
        elif os.path.exists(source):
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        else:
            raise ProfileError(f"profile file not found: {source}")
    else:
        raise ProfileError(f"expected a path or document text, got {type(source)!r}")

    parser = configparser.ConfigParser()
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ProfileError(f"malformed profile document: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ProfileError(f"unknown profile section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ProfileError(f"unknown field {key!r} in section [{section}]")

    def get_float(section, key, default=0.0):
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key)
        try:
            return float(raw)
        except ValueError:
            raise ProfileError(f"field {key!r} in [{section}] is not a number: {raw!r}") from None

    num_qubits = 0
    edges = ()
    if parser.has_section("topology"):
        if parser.has_option("topology", "num_qubits"):
            raw = parser.get("topology", "num_qubits")
            try:
                num_qubits = int(raw)
            except ValueError:
                raise ProfileError(f"field 'num_qubits' is not an integer: {raw!r}") from None
        if parser.has_option("topology", "edges"):
            edges = _parse_edges(parser.get("topology", "edges"))
    return DeviceNoiseProfile(
        p1=get_float("gates", "p1"),
        p2=get_float("gates", "p2"),
        gamma_idle=get_float("idle", "gamma"),
        lambda_idle=get_float("idle", "lambda"),
        zz_theta=get_float("crosstalk", "theta"),
        readout_flip=(get_float("readout", "r01"), get_float("readout", "r10")),
        topology=Topology(num_qubits, edges),
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
