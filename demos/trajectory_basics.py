"""Minimal tour of the simulator: states, one reservoir layer, and why a
noiseless run produces no signal at all.

Each input u drives the same 5-gate block on every qubit pair (RX, RX, CX,
RZ, CX with angle a*u). Starting from |+> on every qubit, that block conserves
the X(x)X parity of each pair, and every Pauli-Z expectation stays pinned at
zero. Only device noise breaks the symmetry and turns the register into a
usable reservoir.
"""
import numpy as np

from qreservoir import (ReservoirConfig, SubsystemLayout, plus_state,
                        pauli_z_expectations, preset_profile, run_reservoir,
                        zero_noise)

rng = np.random.default_rng(0)
inputs = rng.uniform(0.0, 0.2, size=8)
layout = SubsystemLayout.default(4)

print("input sequence:", np.round(inputs, 4))
print("initial state |+>^4, Z expectations:",
      pauli_z_expectations(plus_state(4).populations))

print("\n--- zero noise ---")
feats = run_reservoir(inputs, ReservoirConfig(layout, scale=2.0,
                                              profile=zero_noise()))
print("max |feature| over the whole trajectory:",
      np.abs(feats.values).max())

print("\n--- strong-dense preset ---")
profile = preset_profile("strong-dense", 4)
feats = run_reservoir(inputs, ReservoirConfig(layout, scale=2.0,
                                              profile=profile))
for t, row in enumerate(feats.values, start=1):
    print(f"t={t}  " + "  ".join(f"{v:+.4f}" for v in row))

print("\n--- finite shots (S=512, with readout flips) ---")
sampled = run_reservoir(inputs, ReservoirConfig(layout, scale=2.0,
                                                profile=profile, shots=512,
                                                seed=1))
print("exact vs sampled, last timestep:")
print("  exact  ", np.round(feats.values[-1], 4))
print("  sampled", np.round(sampled.values[-1], 4))
