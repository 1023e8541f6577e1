"""Golden outputs: sha256 of the stdout of fixed small CLI runs and of the
routing-stage arrays at one seed.

Each CLI case runs one verb in process on a fixed config and compares the
hash of everything it printed. The routing case hashes the raw bytes of
every array the four routing stages return, at a size that spans several of
their row blocks and drops assignments. A change that moves any output bit
(a reordered float expression, a different event order, another recv order)
fails here even when every semantic test still passes; such a change says so
in CHANGES.md and updates the hash in the same commit.

The hashes are tied to the platform they were taken on: numpy 2.4.6 with
scipy-openblas on x86-64. Another numpy or BLAS may round the float columns
differently in the last printed digit.
"""

import hashlib
import json

import numpy as np
import pytest

from moekit import gating
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


# routing at one seed: S tokens of width M on E experts, capacity factor 1.0
ROUTING_S, ROUTING_E, ROUTING_M = 3000, 64, 128

# k -> array name -> sha256 of its dtype, shape and bytes
ROUTING_GOLDEN = {
    1: {
        "expert_ids": "5d7650543dffb6d0892347a5a5ab1cf168ca8f63aeec50afb6134e1bf05e2dfd",
        "gate_probs": "772cb67fed54a8be345053d5d6afa2b57248e4731dab89aa362c9342df3d8240",
        "probs": "79a95b4f33dbb7e088d186b7622d3721f20246bd214949f276093f1574b72b42",
        "slots": "1ab3c99dbba9da63d700f34042629d99908fe520190bab403a6a1378a207e327",
        "expert_load": "8d7dad7109d094f8c9e5436e4c9eb109893797a39fd47d27c40acc979277c6a1",
        "slot_tokens": "47dca1e6e3b0debc8153fc40975b06432c652cde345a5f854f7f8942f2be172b",
        "scatter": "0cc44c31ffa00ba18ec0028692b7099b98ee6557c0daa8420c5ef8de8383a997",
        "combine_identity": "9ac24814e31eb8bfa248088631659b166d2c46b28313134c909d0102f923609b",
        "combine": "0aca7ab912cf55befc7956ecc5444a2badaeae0a08c28b1dfac1675a7762c0e3",
    },
    2: {
        "expert_ids": "9264dc4974d8db45438afc2c581329bff4be132d7ec5f4e1486a457d0b800c68",
        "gate_probs": "62eba8390dc98c4861a0c51b2c4006f46ef9b119137119cafc8751c098cea3f2",
        "probs": "79a95b4f33dbb7e088d186b7622d3721f20246bd214949f276093f1574b72b42",
        "slots": "f9c32b9d004a2af5af174b81dae0c49d428b3c4ee9a022b7123fa9e7d4e26d4e",
        "expert_load": "f69ef41dda6daf714bf450f3f0550946d4304b2464d88525c491a2e5e99e3950",
        "slot_tokens": "2e94e0e75235f87ac0f3b6a60d6028c047780e581e7797ee0439436485ccb530",
        "scatter": "41d5f226e113f871b7ccee7204c3444eb581a23e0b156ea0bc785798456e1972",
        "combine_identity": "d0ae0a8d318d4609c2c775e2cc5ffd0774d9dcb9ab4e7841f233c47298f7562f",
        "combine": "28f6fae92725ddab51c3fef43c3985b02a87dea73754b1bb1aab4e575ea443f4",
    },
}


# A larger size at which the gate, the scatter and the combine each split their
# rows across workers: every stage's array is over 2 * gating._MIN_PART_BYTES.
# Its hashes were taken before the stages were split.
SPLIT_S, SPLIT_E, SPLIT_M = 20000, 64, 64

SPLIT_ROUTING_GOLDEN = {
    1: {
        "expert_ids": "15d7419305dcb849dce63e460c6cf42c84a8dc5993674042fa74c4f9aa4237eb",
        "gate_probs": "2f4e776d9c6c9367a12016ff6e4ae8311f03a7579d89bc70788dd3fca0e79941",
        "probs": "56de42eece42b65d6a06d293f766c0fea8aa4d2c0469e746a47d2c8987e457f6",
        "slots": "a9d01c189138fdd125e5355077c8642cd55774229a03514bd175914ba74f46b7",
        "expert_load": "a9e5b9d099b6a0809f82607afc7457d6169a8910fffff9cb60e7818c803554c7",
        "slot_tokens": "c807baaf596c1fbc810225dc7ea3262b30e900d03f61f17a86d3163eea086f57",
        "scatter": "73889753f0707a7910d923db7a7c8093c0dcf7506af0ac2850e9c70e9f1a1655",
        "combine_identity": "91bb98cb31418442804f235c0cd9a17f4d9caa3b479dd05897d930d42d3e38df",
        "combine": "56bf6fe6902d3c913b187310b01f598f980af65ee2246f03fb720e8a24b617ae",
    },
    2: {
        "expert_ids": "140a8c3468d59c6023ff5870e8556aa89d0fb7c11f620b46dc62ba30ae7d2f0f",
        "gate_probs": "ac07580fa921bb8898a7432c167137142adb4823437b3425b40a76638b3d4fde",
        "probs": "56de42eece42b65d6a06d293f766c0fea8aa4d2c0469e746a47d2c8987e457f6",
        "slots": "68359b1865659bc6ec10e418fa638b380991c2a92316e41b30bbf9d94dd1aca5",
        "expert_load": "a2e277a267fadda38f9311f435d925bf042f65cec8754f9072f407ec270dda42",
        "slot_tokens": "405f46a107cbfb42346e24712baf6af6bdda0424d1dca1289fe49b7e5e4d76e9",
        "scatter": "7aab4c2b17153cc7b3303d163c7ffdbbb87ddc48423185f1b1fa26705aa55d59",
        "combine_identity": "2c6e136305a4d49cd8468452b9b578f0a8066f0d07ba20be4c477066fe559eb7",
        "combine": "fdc2ed9dc58500c65682a376ddece6274af89537c854a1e36d54924f0d326c13",
    },
}


def _routing_arrays(k: int, s=ROUTING_S, e=ROUTING_E, m=ROUTING_M) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((s, e)) + 0.3 * rng.standard_normal(e)
    batch = rng.standard_normal((s, m))
    batch[::11] = -0.0  # signed zeros must come back with their sign bits
    cfg = gating.GatingConfig(num_experts=e, k=k, capacity_factor=1.0)
    gate = gating.top_k_gate(logits, cfg)
    plan = gating.build_dispatch_plan(gate, cfg, s)
    buffers = gating.scatter_tokens(batch, plan)
    # experts that also write their unoccupied slots
    outputs = gating.ExpertBuffers(data=np.sin(buffers.data) * 3.0 + 1.0)
    return {
        "expert_ids": gate.expert_ids,
        "gate_probs": gate.gate_probs,
        "probs": gate.probs,
        "slots": plan.slots,
        "expert_load": plan.expert_load,
        "slot_tokens": plan.slot_tokens,
        "scatter": buffers.data,
        "combine_identity": gating.combine_tokens(buffers, plan),
        "combine": gating.combine_tokens(outputs, plan),
    }


def _array_sha256(a: np.ndarray) -> str:
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


@pytest.mark.parametrize("k", [1, 2])
def test_golden_routing_arrays(k):
    arrays = _routing_arrays(k)
    assert int(arrays["expert_load"].sum()) < ROUTING_S * k  # some assignments drop
    assert {name: _array_sha256(a) for name, a in arrays.items()} == ROUTING_GOLDEN[k]


@pytest.mark.parametrize("k", [1, 2])
def test_golden_routing_arrays_split(k):
    arrays = _routing_arrays(k, SPLIT_S, SPLIT_E, SPLIT_M)
    assert int(arrays["expert_load"].sum()) < SPLIT_S * k  # some assignments drop
    for name in ("probs", "scatter", "combine"):
        assert arrays[name].nbytes >= 2 * gating._MIN_PART_BYTES
    assert {name: _array_sha256(a) for name, a in arrays.items()} == SPLIT_ROUTING_GOLDEN[k]
