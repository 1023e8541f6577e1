"""Fixtures shared across test modules."""

import pytest

from moekit.distill import KDConfig, SyntheticStream, ToyModel, ToyTrainConfig, train_toy


@pytest.fixture(scope="session")
def kd_final_ces():
    """(staged, constant) final held-out CE of the toy KD runs for seeds 0-9.

    Teacher noise 1.2, blend weight 2.0, 200 steps; the staged run stops the
    teacher term at step 100, the constant run never does. Training is
    deterministic, so the two win-rate tests (test_distill and acceptance
    C10) share these 20 runs and each applies its own comparison.
    """
    finals = []
    for seed in range(10):
        pair = []
        for boundary in (100, None):
            stream = SyntheticStream(hidden=16, vocab=16, batch=32, seed=seed, teacher_noise=1.2)
            model = ToyModel.create(hidden=16, vocab=16, experts=4, seed=seed, capacity_factor=2.0)
            cfg = ToyTrainConfig(kd=KDConfig(alpha=2.0, stage_boundary=boundary), steps=200)
            pair.append(train_toy(model, stream, cfg).final_heldout_ce)
        finals.append(tuple(pair))
    return finals
