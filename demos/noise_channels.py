"""What each noise mechanism does to a state, and how a profile bundles them.

Channels act through Kraus operators; the composed device step applies gate
noise after every gate, then ZZ crosstalk on the coupling graph, then
amplitude and phase damping on every qubit.
"""
import numpy as np

from qreservoir import (DensityMatrix, SubsystemLayout,
                        amplitude_damping_channel, apply_channel,
                        apply_device_noise, basis_state,
                        build_layer, depolarizing_channel, load_noise_profile,
                        phase_damping_channel, plus_state, zz_crosstalk_gate)

np.set_printoptions(precision=3, suppress=True)

print("depolarizing p=0.5 on |0>:")
out = apply_channel(basis_state(1, 0), depolarizing_channel(0.5, 1, (0,)))
print(out.matrix.real)

print("\namplitude damping gamma=0.3 on |+>: population sinks to |0>,")
print("coherence shrinks by sqrt(1-gamma):")
out = apply_channel(plus_state(1), amplitude_damping_channel(0.3, 0))
print(out.matrix.real)

print("\nphase damping lambda=0.5 on |+>: diagonal untouched:")
out = apply_channel(plus_state(1), phase_damping_channel(0.5, 0))
print(out.matrix.real)

print("\nZZ crosstalk theta=pi/4 on |+>|+>: phases only,")
print("off-diagonal entries rotate:")
out = apply_channel(plus_state(2), zz_crosstalk_gate(np.pi / 4, (0, 1)))
print(np.round(out.matrix, 3))

# a profile is just an INI document (or a file with the same sections)
profile = load_noise_profile("""
[gates]
p1 = 0.002
p2 = 0.02
[idle]
gamma = 0.01
lambda = 0.01
[crosstalk]
theta = 0.06
[topology]
num_qubits = 4
edges = 0-1, 1-2, 2-3, 0-2, 1-3
""")
print("\nloaded profile:", profile)

# the step carries a batch of states, each pair-major: one (r_i, r_j, c_i,
# c_j) axis of 16 per pair, in layout order, behind the batch axis, and a
# second buffer that it overwrites. It leaves
# rho before its idle damping (a trajectory folds that idle into the next
# step's pair block), so a full step ends with the damping on every qubit.
layout = SubsystemLayout.default(4)
layer = build_layer(0.15, layout, 2.0)
axes = [a for i, j in layout.pairs for a in (i, j, 4 + i, 4 + j)]
v = plus_state(4).matrix.reshape((2,) * 8).transpose(axes).copy()
v = v.reshape((1,) + (16,) * layout.num_pairs)  # a batch of one state
v, _ = apply_device_noise(v, np.empty_like(v), profile, [layer], False)
rho = v.reshape((2,) * 8).transpose(np.argsort(axes)).reshape(16, 16)
state = DensityMatrix(4, rho)
for q in range(4):
    state = apply_channel(state, amplitude_damping_channel(profile.gamma_idle, q))
    state = apply_channel(state, phase_damping_channel(profile.lambda_idle, q))
rho = state.matrix
print("\none composed device step from |+>^4:")
print("  trace:", rho.trace().real)
print("  purity Tr(rho^2):", (rho @ rho).trace().real)
print("  min eigenvalue:", np.linalg.eigvalsh(rho).min())
