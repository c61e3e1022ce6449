"""The full device step on a `DensityMatrix`, for tests that hold one step to
an oracle: permute the matrix into the pair-major axes that
`apply_device_noise` carries, take one step that owes no idle, apply the idle
damping on every pair, permute back and wrap."""
import numpy as np

from qreservoir import DensityMatrix, apply_device_noise
from qreservoir.noise import _noise_plan, _on_every_pair


def pair_axes(layout):
    """Axes of the (2,) * 2n matrix tensor in pair-major order: one
    (r_i, r_j, c_i, c_j) group per pair, in layout order."""
    n = layout.num_qubits
    return [a for i, j in layout.pairs for a in (i, j, n + i, n + j)]


def device_step(state, profile, layer):
    n = state.num_qubits
    layout = layer.layout
    if layout.num_qubits != n:
        raise ValueError(f"layer is for {layout.num_qubits} qubits, state has {n}")
    axes = pair_axes(layout)
    v = state.matrix.reshape((2,) * (2 * n)).transpose(axes).copy()
    v = v.reshape((1,) + (16,) * layout.num_pairs)  # a batch of one
    v, spare = apply_device_noise(v, np.empty_like(v), profile, [layer], False)
    idle = _noise_plan(profile, n)[2]
    if idle is not None:
        v = _on_every_pair(v, spare, idle)
    matrix = v.reshape((2,) * (2 * n)).transpose(np.argsort(axes))
    return DensityMatrix(n, matrix.reshape(1 << n, 1 << n))
