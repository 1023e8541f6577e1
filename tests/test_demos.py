"""Smoke test: each fast demo script runs to completion as its own process,
and a demo that checks itself prints the expected verdict lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# staged_distillation trains 22 toy runs (about 4 s on 2 CPUs) and is left out
FAST_DEMOS = ["exchange_schedules", "cluster_planning", "model_sizing", "routing_pipeline"]

# lines a demo prints when its own cross-check holds
EXPECTED_LINES = {
    "routing_pipeline": ["dispatch matches oracle: True", "combine max abs diff: 0.0"],
    # a wrong field read (numpy's own record size, say) changes the byte count
    "exchange_schedules": ["  step 0 layout-transform   0 ->   0 1024 bytes"],
}


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_exits_zero(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for want in EXPECTED_LINES.get(name, []):
        assert want in lines, proc.stdout
