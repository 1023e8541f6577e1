"""Golden outputs: sha256 of the stdout of fixed small CLI runs.

Each case runs one verb in process on a fixed config and compares the hash
of everything it printed. A change that moves any output bit (a reordered
float expression, a different event order, another recv order) fails here
even when every semantic test still passes; such a change says so in
CHANGES.md and updates the hash in the same commit.

The hashes are tied to the platform they were taken on: numpy 2.4.6 with
scipy-openblas on x86-64. Another numpy or BLAS may round the float columns
differently in the last printed digit.
"""

import hashlib
import json

import pytest

from moekit.cli import main

SMALL_CLUSTER = {"nodes": 4, "gpus_per_node": 4}


def _simulate(schedule, **options):
    return ["simulate"], {"cluster": SMALL_CLUSTER, "options": {"schedule": schedule, **options}}


TRACE = {"emit": "trace", "tokens_per_rank": 16}

# name -> (argv, config or None); the config is passed with --config
CASES = {
    "simulate-summary": (["simulate"], {"options": {"schedule": "all", "tensor_slice": 2}}),
    "simulate-trace-flat": _simulate("flat", **TRACE),
    "simulate-trace-hierarchical": _simulate("hierarchical", **TRACE),
    "simulate-trace-coordinated": _simulate("coordinated", tensor_slice=2, **TRACE),
    "route-bench": (["route-bench"], None),
    "params": (["params"], None),
    "plan": (["plan", "--preset", "1.3B+MoE-128"], None),
    "distill": (["distill", "--preset", "1.3B+PR-MoE-64/128"], None),
    "kd-demo": (["kd-demo"], {"options": {"seeds": 2, "steps": 20}}),
}

# name -> sha256 of the run's stdout
GOLDEN = {
    "simulate-summary": "3ed3937ff7988329d969bf3c8c0afa9289442ea602770362133ab4acc5df9f75",
    "simulate-trace-flat": "44ed84ac6f2d252879cce5b968bbae41ea7234452c65fc3ebabe947d5b238337",
    "simulate-trace-hierarchical": "e29877fd3808fc52b83d4213a7c389b6bba412814e3ee732717ed1c9aa6411dd",
    "simulate-trace-coordinated": "d2128b8d519e55fd26407d51c7ba5616b345d68692a5ee39b8b05ff14909c56f",
    "route-bench": "4b2d69a52127d41a27508f59e66b87cd65713961bea3a50d20891a71665b5c5d",
    "params": "dcc6dd8df2c12c390f9ba9127e11ba03639abd20997749f9343901b3625fe131",
    "plan": "5835e72f88fa40f2f11119aa2e2cb12d1eb26301af3771c6f7c3f241223dac93",
    "distill": "da42423ffdaedc2b36ebe4dcb98eee25b09949339f51e686832fa66ebac729a0",
    "kd-demo": "7d8b46e0181e6350e2bf08e4cc727cae09aa5dfa2e27d958bbe356ff8dfef886",
}


def _stdout_sha256(capsys, tmp_path, argv, config) -> str:
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    capsys.readouterr()
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_golden_stdout(name, capsys, tmp_path):
    argv, config = CASES[name]
    assert _stdout_sha256(capsys, tmp_path, argv, config) == GOLDEN[name]
