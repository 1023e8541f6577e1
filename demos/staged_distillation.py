"""
Staged distillation on a synthetic task
=======================================

A noisy teacher helps early and hurts late. Compare keeping the teacher
term on for all of training against switching it off halfway.
"""

import numpy as np

from moekit.distill import (
    KDConfig,
    SyntheticStream,
    ToyModel,
    ToyTrainConfig,
    staged_vs_constant,
    train_toy,
)

STEPS = 200
ALPHA = 2.0
NOISE = 1.2


def run(seed, boundary):
    # the stream labels with a hidden linear map; the teacher scores with a
    # noisy copy of it, so its soft targets are informative but biased
    stream = SyntheticStream(hidden=16, vocab=16, batch=32, seed=seed, teacher_noise=NOISE)
    student = ToyModel.create(hidden=16, vocab=16, experts=4, seed=seed, capacity_factor=2.0)
    cfg = ToyTrainConfig(kd=KDConfig(alpha=ALPHA, stage_boundary=boundary), steps=STEPS)
    return train_toy(student, stream, cfg)


staged = run(seed=0, boundary=STEPS // 2)
constant = run(seed=0, boundary=None)

print("trajectory (seed 0):")
print(f"{'step':>6} {'staged ce':>12} {'staged kd':>12} {'constant ce':>12} {'constant kd':>12}")
for i in (0, 50, 99, 100, 150, 199):
    s, c = staged.records[i], constant.records[i]
    print(f"{i:>6} {s.ce:>12.4f} {s.kd:>12.4f} {c.ce:>12.4f} {c.kd:>12.4f}")

# past step 100 the staged run's teacher term is gone entirely
print("\nfinal held-out ce, staged:  ", f"{staged.final_heldout_ce:.4f}")
print("final held-out ce, constant:", f"{constant.final_heldout_ce:.4f}")

# the direction holds across seeds, not just one lucky draw
finals = staged_vs_constant(
    range(10), steps=STEPS, alpha=ALPHA, boundary=STEPS // 2, teacher_noise=NOISE
)
wins = sum(s < c for s, c in finals)
gaps = [c - s for s, c in finals]
print(f"\nstaged wins {wins}/10 seeds, median held-out gap {np.median(gaps):+.4f}")
