"""Command-line front end.

Verbs:

  params       parameter and FLOP accounting for presets or a configured model
  route-bench  routing pipeline statistics and oracle error on random batches
  simulate     all-to-all schedule comparison or a full event trace
  plan         cluster placement for a model, with per-device memory
  distill      depth-reduced student derivation and size accounting
  kd-demo      staged vs constant teacher-blend comparison on the toy task

All verbs read an optional JSON config ({"seed", "model", "cluster",
"options"}) and write CSV with a header row to --out or stdout. Exit codes:
0 success, 2 config problems, 3 impossible plans/schedules/model settings,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import commsim, gating
from .arch import (
    MoeModelConfig,
    ValidationError,
    build_pr_moe,
    build_standard,
    count_flops_per_token,
    count_params,
    dense_config,
    load_balance_loss,
)
from .commsim import CostModel, ScheduleError
from .distill import (
    KDConfig,
    SyntheticStream,
    ToyModel,
    ToyTrainConfig,
    TrainingError,
    derive_student,
    train_toy,
)
from .planner import ClusterTopology, LinkSpec, PlanError, memory_per_device, plan
from .presets import PRESETS, get_preset, preset_names

__all__ = ["ConfigError", "main", "entrypoint"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVALID = 3
EXIT_NUMERIC = 4

DEFAULT_SEED = 42


class ConfigError(ValueError):
    """Raised for malformed config files, flags, or unknown settings."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(data, {"seed", "model", "cluster", "options"}, "config")
    return data


MODEL_KEYS = {
    "preset",
    "num_layers",
    "hidden",
    "heads",
    "vocab",
    "context",
    "experts",
    "expert_schedule",
    "residual",
    "k",
    "capacity_factor",
}


def _preset_config(name: str) -> MoeModelConfig:
    try:
        return get_preset(name).config
    except KeyError as e:
        raise ConfigError(str(e)) from None


def _build_model(section: dict | None, preset_flag: str | None) -> MoeModelConfig | None:
    if preset_flag is not None:
        return _preset_config(preset_flag)
    if section is None:
        return None
    _require_keys(section, MODEL_KEYS, "model")
    if "preset" in section:
        extra = set(section) - {"preset"}
        if extra:
            raise ConfigError(f"model preset cannot be combined with {sorted(extra)}")
        return _preset_config(section["preset"])
    try:
        base = dense_config(
            num_layers=section.get("num_layers", 24),
            hidden=section.get("hidden", 1024),
            heads=section.get("heads", 16),
            vocab=section.get("vocab", 50257),
            context=section.get("context", 2048),
        )
        k = section.get("k", 1)
        cf = section.get("capacity_factor", 1.0)
        if "experts" in section and "expert_schedule" in section:
            raise ConfigError("model takes either experts or expert_schedule, not both")
        if "expert_schedule" in section:
            return build_pr_moe(
                base,
                tuple(section["expert_schedule"]),
                residual=section.get("residual", True),
                k=k,
                capacity_factor=cf,
            )
        if "experts" in section:
            return build_standard(base, section["experts"], k=k, capacity_factor=cf)
        return base
    except ValidationError as e:
        raise ConfigError(f"bad model section: {e}") from e


CLUSTER_KEYS = {
    "nodes",
    "gpus_per_node",
    "intra_latency_s",
    "intra_bandwidth_bytes_per_s",
    "inter_latency_s",
    "inter_bandwidth_bytes_per_s",
}


def _build_cluster(section: dict | None) -> ClusterTopology:
    if section is None:
        return ClusterTopology(nodes=16, gpus_per_node=8)
    _require_keys(section, CLUSTER_KEYS, "cluster")
    intra = LinkSpec(
        latency_s=section.get("intra_latency_s", 1e-6),
        bandwidth_bytes_per_s=section.get("intra_bandwidth_bytes_per_s", 300e9),
    )
    inter = LinkSpec(
        latency_s=section.get("inter_latency_s", 5e-6),
        bandwidth_bytes_per_s=section.get("inter_bandwidth_bytes_per_s", 50e9),
    )
    return ClusterTopology(
        nodes=section.get("nodes", 16),
        gpus_per_node=section.get("gpus_per_node", 8),
        intra_link=intra,
        inter_link=inter,
    )


def _options(config: dict, allowed: set[str], verb: str) -> dict:
    section = config.get("options") or {}
    if not isinstance(section, dict):
        raise ConfigError("options must be a JSON object")
    _require_keys(section, allowed, f"{verb} options")
    return section


def _cost_option(opts: dict, name: str, default: float) -> float:
    value = opts.get(name, default)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value < 0
    ):
        raise ConfigError(f"{name} must be a finite number >= 0, got {value!r}")
    return value


def _emit(header: list[str], rows: list[list], out_path: str | None) -> None:
    if out_path is None:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
        return
    with open(out_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

PARAMS_HEADER = [
    "name",
    "total_params",
    "expert_params",
    "non_expert_params",
    "active_params_per_token",
    "flops_per_token",
]


def _param_row(name: str, cfg: MoeModelConfig) -> list:
    pc = count_params(cfg)
    return [
        name,
        pc.total,
        pc.expert_params,
        pc.non_expert_params,
        pc.active_per_token,
        count_flops_per_token(cfg),
    ]


def _cmd_params(args, config) -> int:
    _options(config, set(), "params")
    model = _build_model(config.get("model"), args.preset)
    if model is not None:
        name = args.preset or "configured-model"
        rows = [_param_row(name, model)]
    else:
        rows = [_param_row(name, PRESETS[name].config) for name in preset_names()]
    _emit(PARAMS_HEADER, rows, args.out)
    return EXIT_OK


ROUTE_HEADER = [
    "instance",
    "tokens",
    "experts",
    "k",
    "capacity",
    "kept",
    "dropped",
    "balance_loss",
    "max_abs_err",
    "op_ratio",
]


def _cmd_route_bench(args, config) -> int:
    opts = _options(
        config, {"tokens", "experts", "k", "capacity_factor", "instances"}, "route-bench"
    )
    tokens = opts.get("tokens", 256)
    experts = opts.get("experts", 8)
    k = opts.get("k", 1)
    cf = opts.get("capacity_factor", 1.0)
    instances = opts.get("instances", 20)
    try:
        gcfg = gating.GatingConfig(num_experts=experts, k=k, capacity_factor=cf)
    except ValueError as e:
        raise ConfigError(f"bad routing options: {e}") from e

    hidden = 32
    rows = []
    for i in range(instances):
        rng = np.random.default_rng(args.seed + i)
        logits = rng.standard_normal((tokens, experts))
        x = rng.standard_normal((tokens, hidden))
        gate = gating.top_k_gate(logits, gcfg)
        dplan = gating.build_dispatch_plan(gate, gcfg, tokens)

        mapped_ops = gating.OpCounter()
        oracle_ops = gating.OpCounter()
        buffers = gating.scatter_tokens(x, dplan, counter=mapped_ops)
        combined = gating.combine_tokens(buffers, dplan, counter=mapped_ops)
        oracle_buf = gating.sparse_dispatch_oracle(x, gate, gcfg, counter=oracle_ops)
        oracle_out = gating.sparse_combine_oracle(oracle_buf, gate, gcfg, counter=oracle_ops)
        err = float(np.max(np.abs(combined - oracle_out))) if tokens else 0.0
        kept = int(dplan.kept_mask().sum())
        rows.append(
            [
                i,
                tokens,
                experts,
                k,
                dplan.capacity,
                kept,
                tokens * k - kept,
                _fmt(load_balance_loss(dplan, gate.probs)),
                _fmt(err),
                _fmt(oracle_ops.ops / mapped_ops.ops if mapped_ops.ops else 0.0),
            ]
        )
    _emit(ROUTE_HEADER, rows, args.out)
    return EXIT_OK


SIM_HEADER = [
    "schedule",
    "world",
    "rounds",
    "a2a_rounds",
    "allgather_rounds",
    "volume_bytes",
    "a2a_volume_bytes",
    "volume_ratio",
    "modeled_latency_s",
    "estimated_latency_s",
]


def _cmd_simulate(args, config) -> int:
    opts = _options(
        config,
        {"schedule", "tensor_slice", "tokens_per_rank", "nbytes", "c1", "c2", "emit"},
        "simulate",
    )
    cluster = _build_cluster(config.get("cluster"))
    world = cluster.world_size
    schedule = opts.get("schedule", "all")
    slice_ = opts.get("tensor_slice", 1)
    if isinstance(slice_, bool) or not isinstance(slice_, int) or slice_ < 1:
        raise ConfigError(f"tensor_slice must be an integer >= 1, got {slice_!r}")
    per_rank = opts.get("tokens_per_rank", 8)
    nbytes = opts.get("nbytes", 1024)
    emit = opts.get("emit", "summary")
    cost = CostModel(c1=_cost_option(opts, "c1", 1e-4), c2=_cost_option(opts, "c2", 1e-3))
    if emit not in ("summary", "trace"):
        raise ConfigError(f"emit must be summary or trace, not {emit!r}")
    if schedule not in ("flat", "hierarchical", "coordinated", "all"):
        raise ConfigError(f"unknown schedule {schedule!r}")
    if emit == "trace" and schedule == "all":
        raise ConfigError("trace output needs a single schedule")

    sends = commsim.synthetic_sends(world, per_rank, nbytes=nbytes, seed=args.seed)

    def run(name):
        if name == "flat":
            return commsim.flat_all_to_all(sends, cost)
        if name == "hierarchical":
            return commsim.hierarchical_all_to_all(sends, cluster.gpus_per_node, cost)
        if world % slice_ != 0:
            raise ScheduleError(f"tensor_slice {slice_} must divide world {world}")
        logical = commsim.synthetic_sends(world // slice_, per_rank, nbytes=nbytes, seed=args.seed)
        replicated = [list(items) for items in logical for _ in range(slice_)]
        return commsim.coordinated_all_to_all(replicated, slice_, cost)

    wanted = ("flat", "hierarchical", "coordinated") if schedule == "all" else (schedule,)
    traces = [(name, run(name)) for name in wanted]

    if emit == "trace":
        _, trace = traces[0]
        if args.out is None:
            trace.to_csv(sys.stdout)
        else:
            with open(args.out, "w", newline="") as f:
                trace.to_csv(f)
        return EXIT_OK

    rows = []
    for name, trace in traces:
        rows.append(
            [
                name,
                trace.world_size,
                trace.rounds,
                trace.a2a_rounds,
                trace.allgather_rounds,
                trace.volume_bytes,
                trace.a2a_volume_bytes,
                _fmt(trace.volume_ratio),
                _fmt(trace.modeled_latency_s),
                _fmt(commsim.estimate_latency(trace, cluster)),
            ]
        )
    _emit(SIM_HEADER, rows, args.out)
    return EXIT_OK


PLAN_HEADER = [
    "layer_index",
    "num_experts",
    "ep_degree",
    "expert_dp",
    "expert_slice",
    "tensor_slice",
    "expert_bytes_per_device",
    "non_expert_bytes_per_device",
    "total_bytes_per_device",
]


def _cmd_plan(args, config) -> int:
    opts = _options(config, {"latency_mode", "tensor_slice", "bytes_per_param"}, "plan")
    model = _build_model(config.get("model"), args.preset)
    if model is None:
        raise ConfigError("plan needs a model (preset or config)")
    cluster = _build_cluster(config.get("cluster"))
    built = plan(
        model,
        cluster,
        latency_mode=opts.get("latency_mode", False),
        tensor_slice=opts.get("tensor_slice", 1),
    )
    est = memory_per_device(built, model, bytes_per_param=opts.get("bytes_per_param", 2))
    rows = [
        [
            p.layer_index,
            p.num_experts,
            p.ep_degree,
            p.expert_dp,
            p.expert_slice,
            built.tensor_slice,
            _fmt(est.expert_bytes),
            _fmt(est.non_expert_bytes),
            _fmt(est.total_bytes),
        ]
        for p in built.placements
    ]
    _emit(PLAN_HEADER, rows, args.out)
    return EXIT_OK


DISTILL_HEADER = [
    "teacher",
    "target_depth",
    "removed_layers",
    "teacher_params",
    "student_params",
    "param_ratio",
]


def _cmd_distill(args, config) -> int:
    opts = _options(config, {"target_depth"}, "distill")
    model = _build_model(config.get("model"), args.preset)
    if model is None:
        raise ConfigError("distill needs a teacher model (preset or config)")
    target = opts.get("target_depth", model.num_layers - 3)
    splan = derive_student(model, target)
    t_total = count_params(splan.teacher).total
    s_total = count_params(splan.student).total
    rows = [
        [
            args.preset or "configured-model",
            target,
            " ".join(str(i) for i in splan.removed_layers),
            t_total,
            s_total,
            _fmt(s_total / t_total),
        ]
    ]
    _emit(DISTILL_HEADER, rows, args.out)
    return EXIT_OK


KD_HEADER = ["seed", "staged_final_ce", "constant_final_ce", "staged_wins"]


def _cmd_kd_demo(args, config) -> int:
    opts = _options(
        config,
        {"seeds", "steps", "alpha", "boundary", "teacher_noise", "lr"},
        "kd-demo",
    )
    seeds = opts.get("seeds", 10)
    steps = opts.get("steps", 200)
    alpha = opts.get("alpha", 2.0)
    boundary = opts.get("boundary", steps // 2)
    noise = opts.get("teacher_noise", 1.2)
    lr = opts.get("lr", 0.05)

    rows = []
    for seed in range(args.seed, args.seed + seeds):
        results = {}
        for label, bound in (("staged", boundary), ("constant", None)):
            stream = SyntheticStream(
                hidden=16, vocab=16, batch=32, seed=seed, teacher_noise=noise
            )
            model = ToyModel.create(
                hidden=16, vocab=16, experts=4, seed=seed, capacity_factor=2.0
            )
            cfg = ToyTrainConfig(
                kd=KDConfig(alpha=alpha, stage_boundary=bound), steps=steps, lr=lr
            )
            results[label] = train_toy(model, stream, cfg).final_heldout_ce
        rows.append(
            [
                seed,
                _fmt(results["staged"]),
                _fmt(results["constant"]),
                int(results["staged"] < results["constant"]),
            ]
        )
    _emit(KD_HEADER, rows, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

_VERBS = {
    "params": _cmd_params,
    "route-bench": _cmd_route_bench,
    "simulate": _cmd_simulate,
    "plan": _cmd_plan,
    "distill": _cmd_distill,
    "kd-demo": _cmd_kd_demo,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moekit",
        description="Expert-sparse model sizing, routing, placement and scheduling tools.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, fn in _VERBS.items():
        p = sub.add_parser(verb, help=fn.__doc__)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="write CSV here instead of stdout")
        p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default {DEFAULT_SEED})")
        p.add_argument("--preset", help="named model preset")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags, keep that; normalize --help to 0
        return int(e.code or 0)
    try:
        config = _load_config(args.config)
        if args.seed is None:
            args.seed = config.get("seed", DEFAULT_SEED)
        if not isinstance(args.seed, int):
            raise ConfigError("seed must be an integer")
        return _VERBS[args.verb](args, config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (PlanError, ScheduleError, ValidationError) as e:
        print(f"invalid request: {e}", file=sys.stderr)
        return EXIT_INVALID
    except TrainingError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
