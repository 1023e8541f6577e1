"""End-to-end tests for the command-line verbs, run in process."""

import csv
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from moekit.cli import main

PRESET_52B = "1.3B+MoE-128"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------


def test_params_lists_all_presets(capsys):
    code, out, _ = run(capsys, "params")
    assert code == 0
    rows = rows_of(out)
    assert len(rows) >= 10
    names = {r["name"] for r in rows}
    assert PRESET_52B in names and "dense-1.3B" in names


def test_params_single_preset_total(capsys):
    code, out, _ = run(capsys, "params", "--preset", PRESET_52B)
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 1
    assert int(rows[0]["total_params"]) == 52_471_430_656
    assert int(rows[0]["flops_per_token"]) == 2 * int(rows[0]["active_params_per_token"])


def test_params_unknown_preset_is_config_error(capsys):
    code, _, err = run(capsys, "params", "--preset", "nonesuch")
    assert code == 2
    assert "unknown preset" in err


def test_params_model_from_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"model": {"num_layers": 24, "hidden": 2048, "heads": 16, "experts": 128}}
    )
    code, out, _ = run(capsys, "params", "--config", cfg)
    assert code == 0
    assert int(rows_of(out)[0]["total_params"]) == 52_471_430_656


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 1, "modle": {}})
    code, _, err = run(capsys, "params", "--config", cfg)
    assert code == 2
    assert "unknown config keys" in err


def test_unknown_model_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"hidden": 512, "depth": 12}})
    code, _, err = run(capsys, "params", "--config", cfg)
    assert code == 2
    assert "unknown model keys" in err


def test_unknown_option_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"options": {"tokens": 64, "warmup": 5}})
    code, _, err = run(capsys, "route-bench", "--config", cfg)
    assert code == 2
    assert "route-bench options" in err


def test_malformed_json_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "params", "--config", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_missing_config_file_rejected(capsys):
    code, _, err = run(capsys, "params", "--config", "/nonexistent/cfg.json")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize(
    "verb, config",
    [
        ("route-bench", {"options": {"tokens": "8"}}),
        ("route-bench", {"options": {"tokens": -5}}),
        ("route-bench", {"options": {"instances": 1.5}}),
        ("simulate", {"cluster": {"nodes": "2"}}),
        ("plan", {"model": {"preset": PRESET_52B}, "options": {"tensor_slice": "2"}}),
        ("plan", {"model": {"preset": PRESET_52B}, "options": {"bytes_per_param": -1}}),
        ("plan", {"model": {"preset": PRESET_52B}, "options": {"latency_mode": "yes"}}),
        ("params", {"model": {"experts": 8, "k": 3}}),
        ("params", {"model": {"experts": 1, "k": 2}}),
        ("params", {"model": {"hidden": 2.5}}),
        ("params", {"model": {"heads": "1"}}),
        ("params", {"options": []}),
        ("params", {"seed": True}),
        ("route-bench", {"seed": -1}),
        ("distill", {"model": {"preset": "1.3B+PR-MoE-64/128"}, "options": {"target_depth": 3.0}}),
        ("kd-demo", {"options": {"seeds": "1"}}),
        ("kd-demo", {"options": {"steps": 0}}),
        # sections the verb does not read are checked too
        ("route-bench", {"cluster": {"nodes": "2"}, "options": {"instances": 1}}),
        ("kd-demo", {"model": {"hidden": 2.5}}),
    ],
)
def test_malformed_config_is_config_error(tmp_path, capsys, verb, config):
    code, _, err = run(capsys, verb, "--config", write_config(tmp_path, config))
    assert code == 2
    assert "config error:" in err


def test_preset_flag_still_checks_model_section(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"hidden": "wide"}})
    code, _, err = run(capsys, "params", "--config", cfg, "--preset", PRESET_52B)
    assert code == 2
    assert "model hidden" in err


def test_experts_and_schedule_conflict(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"model": {"experts": 8, "expert_schedule": [8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 16, 16]}}
    )
    code, _, err = run(capsys, "params", "--config", cfg)
    assert code == 2
    assert "not both" in err


# ---------------------------------------------------------------------------
# route-bench
# ---------------------------------------------------------------------------


def test_route_bench_accounting(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"options": {"tokens": 128, "experts": 8, "k": 2, "capacity_factor": 1.0, "instances": 5}},
    )
    code, out, _ = run(capsys, "route-bench", "--config", cfg)
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 5
    for r in rows:
        assert int(r["kept"]) + int(r["dropped"]) == 128 * 2
        assert float(r["max_abs_err"]) <= 1e-9
        ratio = float(r["op_ratio"])
        assert 0.8 * 8 <= ratio <= 1.2 * 8


def test_route_bench_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, {"options": {"instances": 3}})
    _, out1, _ = run(capsys, "route-bench", "--config", cfg, "--seed", "7")
    _, out2, _ = run(capsys, "route-bench", "--config", cfg, "--seed", "7")
    assert out1 == out2


def test_route_bench_seed_changes_output(tmp_path, capsys):
    cfg = write_config(tmp_path, {"options": {"instances": 3}})
    _, out1, _ = run(capsys, "route-bench", "--config", cfg, "--seed", "7")
    _, out2, _ = run(capsys, "route-bench", "--config", cfg, "--seed", "8")
    assert out1 != out2


@pytest.mark.parametrize(
    "factor, capacity", [(1e6, 16), (1e12, 16), (1e308, 16), (1.7e308, 16), (5e-324, 1)]
)
def test_route_bench_extreme_capacity_factor(tmp_path, capsys, factor, capacity):
    cfg = write_config(
        tmp_path, {"options": {"tokens": 16, "instances": 1, "capacity_factor": factor}}
    )
    code, out, err = run(capsys, "route-bench", "--config", cfg)
    assert code == 0, err
    (row,) = rows_of(out)
    assert int(row["capacity"]) == capacity
    assert float(row["max_abs_err"]) == 0.0


def test_route_bench_unallocatable_size_is_invalid_request(tmp_path, capsys):
    # 1e13 tokens x 8 experts of float64 logits: numpy refuses the allocation at once
    cfg = write_config(tmp_path, {"options": {"tokens": 10_000_000_000_000, "instances": 1}})
    code, out, err = run(capsys, "route-bench", "--config", cfg)
    assert code == 3
    assert out == ""
    assert err.startswith("invalid request: out of memory:")


def test_route_bench_bad_gating_options(tmp_path, capsys):
    cfg = write_config(tmp_path, {"options": {"k": 3}})
    code, _, err = run(capsys, "route-bench", "--config", cfg)
    assert code == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_summary_all_schedules(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"cluster": {"nodes": 4, "gpus_per_node": 4}, "options": {"tensor_slice": 4}},
    )
    code, out, _ = run(capsys, "simulate", "--config", cfg)
    assert code == 0
    rows = {r["schedule"]: r for r in rows_of(out)}
    assert set(rows) == {"flat", "hierarchical", "coordinated"}
    assert int(rows["hierarchical"]["volume_bytes"]) == 2 * int(rows["flat"]["volume_bytes"])
    assert int(rows["flat"]["rounds"]) == 16
    assert int(rows["hierarchical"]["rounds"]) == 8
    assert int(rows["coordinated"]["rounds"]) == 4 + 4


def test_simulate_trace_output(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"cluster": {"nodes": 2, "gpus_per_node": 2}, "options": {"schedule": "flat", "emit": "trace"}},
    )
    code, out, _ = run(capsys, "simulate", "--config", cfg)
    assert code == 0
    assert out.splitlines()[0] == "step,kind,src,dst,nbytes,latency_s"


def test_simulate_zero_byte_messages_pay_link_latency(tmp_path, capsys):
    # every busy round of 0-byte messages costs its slowest link's latency:
    # flat has 3 busy rounds at the inter-node 5e-6 s
    cfg = write_config(
        tmp_path,
        {"cluster": {"nodes": 2, "gpus_per_node": 2}, "options": {"nbytes": 0, "tensor_slice": 2}},
    )
    code, out, _ = run(capsys, "simulate", "--config", cfg)
    assert code == 0
    rows = {r["schedule"]: r for r in rows_of(out)}
    assert {name: r["volume_bytes"] for name, r in rows.items()} == dict.fromkeys(rows, "0")
    assert {name: r["estimated_latency_s"] for name, r in rows.items()} == {
        "flat": "1.5e-05",
        "hierarchical": "1.2e-05",
        "coordinated": "5e-06",
    }


def test_simulate_trace_needs_single_schedule(tmp_path, capsys):
    cfg = write_config(tmp_path, {"options": {"emit": "trace"}})
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2


def test_simulate_bad_slice_is_invalid_request(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "cluster": {"nodes": 2, "gpus_per_node": 3},
            "options": {"schedule": "coordinated", "tensor_slice": 4},
        },
    )
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 3
    assert "invalid request" in err


@pytest.mark.parametrize("schedule", ["flat", "hierarchical", "coordinated"])
def test_simulate_bytes_past_int64_is_invalid_request(tmp_path, capsys, schedule):
    cfg = write_config(
        tmp_path,
        {
            "cluster": {"nodes": 2, "gpus_per_node": 2},
            "options": {"schedule": schedule, "tensor_slice": 2, "nbytes": 2**62},
        },
    )
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 3
    assert "invalid request" in err and "bytes" in err


@pytest.mark.parametrize(
    "option",
    [
        {"schedule": "coordinated", "tensor_slice": 0},
        {"schedule": "coordinated", "tensor_slice": "2"},
        {"schedule": "coordinated", "tensor_slice": True},
        {"c1": "x"},
        {"c1": -1e-4},
        {"c2": float("inf")},
        {"c2": False},
        {"tokens_per_rank": -1},
        {"tokens_per_rank": "8"},
    ],
)
def test_simulate_bad_option_is_config_error(tmp_path, capsys, option):
    cfg = write_config(tmp_path, {"cluster": {"nodes": 2, "gpus_per_node": 2}, "options": option})
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert "config error:" in err


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def test_plan_full_spread(tmp_path, capsys):
    cfg = write_config(tmp_path, {"cluster": {"nodes": 16, "gpus_per_node": 8}})
    code, out, _ = run(capsys, "plan", "--config", cfg, "--preset", PRESET_52B)
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 12
    for r in rows:
        assert int(r["ep_degree"]) == 128
        assert int(r["expert_dp"]) == 1
    # memory columns repeat the per-device totals on every row
    totals = {r["total_bytes_per_device"] for r in rows}
    assert len(totals) == 1


def test_plan_rejects_oversized_tensor_slice(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"cluster": {"nodes": 16, "gpus_per_node": 8}, "options": {"tensor_slice": 16}},
    )
    code, _, err = run(capsys, "plan", "--config", cfg, "--preset", PRESET_52B)
    assert code == 3
    assert "invalid request" in err


def test_plan_names_a_shared_problem_once(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "model": {"num_layers": 24, "hidden": 1024, "heads": 16, "experts": 32},
            "cluster": {"nodes": 6, "gpus_per_node": 8},
        },
    )
    code, _, err = run(capsys, "plan", "--config", cfg)
    assert code == 3
    layers = ",".join(str(i) for i in range(1, 24, 2))
    assert err.strip() == f"invalid request: layers {layers}: ep 32 * dp 1 * slice 1 != world 48"


def test_plan_requires_model(tmp_path, capsys):
    cfg = write_config(tmp_path, {"cluster": {"nodes": 2, "gpus_per_node": 2}})
    code, _, err = run(capsys, "plan", "--config", cfg)
    assert code == 2


# ---------------------------------------------------------------------------
# distill / kd-demo
# ---------------------------------------------------------------------------


def test_distill_reports_student_size(tmp_path, capsys):
    cfg = write_config(tmp_path, {"options": {"target_depth": 21}})
    code, out, _ = run(capsys, "distill", "--config", cfg, "--preset", "1.3B+PR-MoE-64/128")
    assert code == 0
    row = rows_of(out)[0]
    assert int(row["student_params"]) == 26_943_890_176
    assert row["removed_layers"] == "1 2 3"


def test_distill_rejects_bad_depth(tmp_path, capsys):
    cfg = write_config(tmp_path, {"options": {"target_depth": 99}})
    code, _, err = run(capsys, "distill", "--config", cfg, "--preset", "1.3B+PR-MoE-64/128")
    assert code == 3


def test_kd_demo_small_run(tmp_path, capsys):
    cfg = write_config(tmp_path, {"options": {"seeds": 2, "steps": 6}})
    code, out, _ = run(capsys, "kd-demo", "--config", cfg)
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 2
    assert all(r["staged_wins"] in ("0", "1") for r in rows)


def test_kd_demo_divergence_is_numeric_failure(tmp_path, capsys):
    import numpy as np

    cfg = write_config(tmp_path, {"options": {"seeds": 1, "steps": 10, "lr": 1e8}})
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run(capsys, "kd-demo", "--config", cfg)
    assert code == 4
    assert "numerical failure" in err


def test_kd_demo_boundary_defaults_to_half_the_steps(tmp_path, capsys):
    def final_ces(options):
        cfg = write_config(tmp_path, {"options": {"seeds": 1, "steps": 4, **options}})
        code, out, _ = run(capsys, "kd-demo", "--config", cfg)
        assert code == 0
        return out

    assert final_ces({}) == final_ces({"boundary": 2})
    never = rows_of(final_ces({"boundary": None}))[0]  # null: the teacher term never stops
    assert never["staged_final_ce"] == never["constant_final_ce"]


def test_kd_demo_teacher_overflow_is_numeric_failure(tmp_path, capsys):
    import numpy as np

    cfg = write_config(tmp_path, {"options": {"seeds": 1, "steps": 3, "teacher_noise": 1e308}})
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run(capsys, "kd-demo", "--config", cfg)
    assert code == 4
    assert "numerical failure: step 0" in err


def test_kd_demo_defaults_are_staged_vs_constant_defaults():
    from moekit.cli import KD_TABLE, _section
    from moekit.distill import staged_vs_constant

    # the kd_final_ces fixture and the staged-distillation demo rely on these matching
    defaults = _section({}, KD_TABLE, "kd-demo options")
    del defaults["seeds"]
    params = inspect.signature(staged_vs_constant).parameters
    assert defaults == {name: params[name].default for name in defaults}


def test_kd_demo_error_in_a_later_part_matches_one_process(
    tmp_path, capsys, monkeypatch, forks, fail_in_training
):
    from moekit import distill, gating

    def fail(seed):
        if seed >= 1:
            raise distill.TrainingError(7, f"forced failure of seed {seed}")

    fail_in_training(fail)
    cfg = write_config(tmp_path, {"options": {"seeds": 3, "steps": distill._MIN_PART_STEPS}})
    results = []
    for workers in (1, 3):  # one process, then one seed per process
        monkeypatch.setattr(gating, "_WORKERS", workers)
        results.append(run(capsys, "kd-demo", "--config", cfg, "--seed", "0"))
    assert forks == [2, 2]
    want = (4, "", "numerical failure: step 7: forced failure of seed 1\n")
    assert results == [want, want]


def test_kd_demo_lost_training_process_is_invalid_request(
    tmp_path, capsys, monkeypatch, forks, fail_in_training
):
    from moekit import distill, gating

    parent = os.getpid()

    def fail(seed):
        if os.getpid() != parent:
            os._exit(1)

    fail_in_training(fail)
    monkeypatch.setattr(gating, "_WORKERS", 2)
    cfg = write_config(tmp_path, {"options": {"seeds": 2, "steps": distill._MIN_PART_STEPS}})
    code, out, err = run(capsys, "kd-demo", "--config", cfg, "--seed", "0")
    assert forks == [2]
    assert (code, out) == (3, "")
    assert err.startswith("invalid request: out of memory: training process ")
    assert err.endswith(" exited with status 1 before sending its results\n")


def test_float_overflow_is_numeric_failure(tmp_path, capsys):
    # an in-range width whose per-device memory is past the largest float
    cfg = write_config(tmp_path, {"model": {"hidden": 10**160}})
    code, _, err = run(capsys, "plan", "--config", cfg)
    assert code == 4
    assert "numerical failure" in err


# ---------------------------------------------------------------------------
# shared flags
# ---------------------------------------------------------------------------


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "params.csv"
    code, out, _ = run(capsys, "params", "--preset", PRESET_52B, "--out", str(out_path))
    assert code == 0
    assert out == ""
    rows = rows_of(out_path.read_text())
    assert int(rows[0]["total_params"]) == 52_471_430_656


def test_config_seed_used_when_flag_absent(tmp_path, capsys):
    cfg7 = write_config(tmp_path, {"seed": 7, "options": {"instances": 2}}, "a.json")
    cfg_default = write_config(tmp_path, {"options": {"instances": 2}}, "b.json")
    _, out_cfg, _ = run(capsys, "route-bench", "--config", cfg7)
    _, out_flag, _ = run(capsys, "route-bench", "--config", cfg_default, "--seed", "7")
    _, out_default, _ = run(capsys, "route-bench", "--config", cfg_default, "--seed", "42")
    _, out_bare, _ = run(capsys, "route-bench", "--config", cfg_default)
    assert out_cfg == out_flag
    assert out_bare == out_default  # default seed is 42
    assert out_cfg != out_default


def test_bad_seed_type_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": "forty-two"})
    code, _, err = run(capsys, "params", "--config", cfg)
    assert code == 2


def test_negative_seed_flag_is_config_error(capsys):
    code, _, err = run(capsys, "route-bench", "--seed", "-1")
    assert code == 2
    assert "config error:" in err


def test_help_describes_every_verb(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    help_of = dict(line.split(None, 1) for line in out.splitlines() if len(line.split()) > 1)
    for verb in ("params", "route-bench", "simulate", "plan", "distill", "kd-demo"):
        assert help_of.get(verb, "").strip(), f"no help for {verb}"


def test_unknown_verb_exits_nonzero(capsys):
    assert main(["frobnicate"]) == 2


def test_closed_stdout_exits_zero_without_traceback():
    # `moekit route-bench | head -0`: the reader is gone before the first row is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parents[1] / "src"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "moekit.cli", "route-bench"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
