"""Waveform classification with the winner-takes-all readout.

Three pulse classes (two of them deliberately similar), preprocessed by a
finite difference, pushed through a noisy 4-qubit reservoir, then classified
from the time-averaged linear scores. Stratified CV against the linear model
on the raw differenced series.
"""
import numpy as np

from qreservoir import (ReservoirConfig, SubsystemLayout, fit_classifier,
                        gen_synthetic_sensor, k_fold_cv, predict_class,
                        preprocess_diff, preset_profile, run_reservoir)

WASHOUT = 40  # keep rows t=41..89 of each 89-step feature block
FOLDS = 5

dataset = gen_synthetic_sensor(num_classes=3, samples_per_class=10,
                               timesteps=90, seed=7, noise_amplitude=0.02)
profile = preset_profile("strong-dense", 4)
config = ReservoirConfig(SubsystemLayout.default(4), scale=float(np.pi),
                         profile=profile)

print("running", len(dataset.labels), "reservoir trajectories...")
inputs = [preprocess_diff(s) for s in dataset.series]
blocks = [run_reservoir(u, config, washout=WASHOUT).values for u in inputs]
labels = dataset.labels

qr = k_fold_cv(blocks, labels, FOLDS, seed=0)
raw = [u[WASHOUT:] for u in inputs]
linear = k_fold_cv(raw, labels, FOLDS, seed=0)

print(f"\nQR      {FOLDS}-fold accuracy: {qr.mean_accuracy:.3f} "
      f"+- {qr.std_accuracy:.3f}")
print("confusion (rows = true class):")
print(qr.confusion)
print(f"\nlinear  {FOLDS}-fold accuracy: {linear.mean_accuracy:.3f} "
      f"+- {linear.std_accuracy:.3f}")
print("confusion:")
print(linear.confusion)

w_full = fit_classifier(blocks, labels)
p = predict_class(w_full, blocks[0])
print(f"\nsample 0: true class {labels[0]}, predicted {p.class_index}, "
      f"scores {np.round(p.scores, 3)}")
