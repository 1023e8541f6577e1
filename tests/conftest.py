"""Fixtures shared across test modules."""

import pytest

from moekit import distill
from moekit.distill import staged_vs_constant


@pytest.fixture(scope="session")
def kd_final_ces():
    """(staged, constant) final held-out CE of the toy KD runs for seeds 0-9.

    kd-demo's defaults: teacher noise 1.2, blend weight 2.0, 200 steps; the
    staged run stops the teacher term at step 100, the constant run never
    does. Training is deterministic, so the two win-rate tests (test_distill
    and acceptance C10) share these 20 runs and each applies its own
    comparison.
    """
    return staged_vs_constant(range(10))


@pytest.fixture
def forks(monkeypatch):
    """The number of runs in each part staged_vs_constant forks a child for."""
    forked = []
    fork_part = distill._fork_part

    def counting_fork_part(fn, *args):
        forked.append(len(args[-1]))  # the runs of the child's part
        return fork_part(fn, *args)

    monkeypatch.setattr(distill, "_fork_part", counting_fork_part)
    return forked


@pytest.fixture
def fail_in_training(monkeypatch):
    """Call with action: train_toy then calls action(seed) before each run
    (in whichever process trains it)."""
    train_toy = distill.train_toy

    def install(action):
        def train(model, stream, cfg):
            action(stream.seed)
            return train_toy(model, stream, cfg)

        monkeypatch.setattr(distill, "train_toy", train)

    return install
