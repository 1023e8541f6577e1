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
def fail_in_training(monkeypatch):
    """Call with action: staged_vs_constant then calls action(seed) before each
    run's own steps and eval (after the seed's shared steps), staged run first."""
    finish_run = distill._finish_run

    def install(action):
        def finish(model, stream, cfg, start):
            action(stream.seed)
            return finish_run(model, stream, cfg, start)

        monkeypatch.setattr(distill, "_finish_run", finish)

    return install
