"""Command-line front end.

Each verb (params, route-bench, simulate, plan, distill, kd-demo) is a
``_cmd_*`` function whose docstring is its ``moekit --help`` line.

All verbs read an optional JSON config ({"seed", "model", "cluster",
"options"}) and write CSV with a header row to --out or stdout. The option
tables below (``CONFIG_TABLE``, ``MODEL_TABLE``, ``CLUSTER_TABLE`` and one
``*_TABLE`` per verb) list every key with its kind, default and range, and
``_section`` is the one place that checks config values against them.
Exit codes: 0 success; 2 config problems (unreadable JSON, an unknown key,
or a value of the wrong kind or outside its row's range); 3 valid values
that do not fit together (impossible plans, schedules or student depths) or
that ask for more memory than the machine can allocate; 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
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
from .distill import TrainingError, derive_student, staged_vs_constant
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


# Option tables: key -> (kind, default, bound). A kind is one of the names
# below or a tuple of allowed values; a bound is a _BOUNDS key or None.
# Defaults are not checked; a callable default is computed from the rows
# above it.
INT = "an int"
INT_OR_NULL = "an int or null"
NUMBER = "a finite number"
BOOL = "a bool"
STR = "a string"
INTS = "a list of ints"
OBJECT = "an object"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_KINDS = {
    INT: _is_int,
    INT_OR_NULL: lambda v: v is None or _is_int(v),
    NUMBER: lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v)),
    BOOL: lambda v: isinstance(v, bool),
    STR: lambda v: isinstance(v, str),
    INTS: lambda v: isinstance(v, list) and all(map(_is_int, v)),
    OBJECT: lambda v: isinstance(v, dict),
}
_BOUNDS = {">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1, "> 0": lambda v: v > 0}


def _fits(value, kind, bound) -> bool:
    if isinstance(kind, tuple):  # type() keeps True from matching 1, and 1.0 from 1
        return any(type(value) is type(allowed) and value == allowed for allowed in kind)
    return _KINDS[kind](value) and (bound is None or value is None or _BOUNDS[bound](value))


def _section(raw: dict, table: dict, where: str) -> dict:
    """Check a config section (a dict) against its option table.

    Returns every key's value, with defaults for absent keys. An unknown key,
    or a value that does not fit its row, raises ConfigError.
    """
    unknown = set(raw) - set(table)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    values = {}
    for key, (kind, default, bound) in table.items():
        if key not in raw:
            values[key] = default(values) if callable(default) else default
        elif _fits(raw[key], kind, bound):
            values[key] = raw[key]
        else:
            want = f"one of {list(kind)}" if isinstance(kind, tuple) else f"{kind} {bound or ''}"
            raise ConfigError(f"{where} {key} must be {want.strip()}, got {raw[key]!r}")
    return values


CONFIG_TABLE = {
    "seed": (INT, DEFAULT_SEED, ">= 0"),
    "model": (OBJECT, None, None),  # None: no model; verbs that need one say so
    "cluster": (OBJECT, {}, None),
    "options": (OBJECT, {}, None),
}


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
    return data


MODEL_TABLE = {
    "preset": (STR, None, None),  # a preset name excludes every other model key
    "num_layers": (INT, 24, ">= 1"),
    "hidden": (INT, 1024, ">= 1"),
    "heads": (INT, 16, ">= 1"),
    "vocab": (INT, 50257, ">= 1"),
    "context": (INT, 2048, ">= 1"),
    "experts": (INT, None, ">= 1"),  # None with no expert_schedule: a dense model
    "expert_schedule": (INTS, None, None),  # entries >= 1, checked by build_pr_moe
    "residual": (BOOL, True, None),
    "k": ((1, 2), 1, None),
    "capacity_factor": (NUMBER, 1.0, "> 0"),
}


def _preset_config(name: str) -> MoeModelConfig:
    try:
        return get_preset(name).config
    except KeyError as e:
        raise ConfigError(str(e)) from None


def _build_model(raw: dict | None) -> MoeModelConfig | None:
    if raw is None:
        return None
    m = _section(raw, MODEL_TABLE, "model")
    if m["preset"] is not None:
        extra = set(raw) - {"preset"}
        if extra:
            raise ConfigError(f"model preset cannot be combined with {sorted(extra)}")
        return _preset_config(m["preset"])
    if m["experts"] is not None and m["expert_schedule"] is not None:
        raise ConfigError("model takes either experts or expert_schedule, not both")
    k, cf = m["k"], m["capacity_factor"]
    try:
        base = dense_config(
            num_layers=m["num_layers"],
            hidden=m["hidden"],
            heads=m["heads"],
            vocab=m["vocab"],
            context=m["context"],
        )
        if m["expert_schedule"] is not None:
            return build_pr_moe(
                base, tuple(m["expert_schedule"]), residual=m["residual"], k=k, capacity_factor=cf
            )
        if m["experts"] is not None:
            return build_standard(base, m["experts"], k=k, capacity_factor=cf)
        return base
    except ValueError as e:  # ValidationError, or GatingConfig's plain ValueError (k > experts)
        raise ConfigError(f"bad model section: {e}") from e


CLUSTER_TABLE = {
    "nodes": (INT, 16, ">= 1"),
    "gpus_per_node": (INT, 8, ">= 1"),
    "intra_latency_s": (NUMBER, 1e-6, ">= 0"),
    "intra_bandwidth_bytes_per_s": (NUMBER, 300e9, "> 0"),
    "inter_latency_s": (NUMBER, 5e-6, ">= 0"),
    "inter_bandwidth_bytes_per_s": (NUMBER, 50e9, "> 0"),
}


def _build_cluster(raw: dict) -> ClusterTopology:
    c = _section(raw, CLUSTER_TABLE, "cluster")
    return ClusterTopology(
        nodes=c["nodes"],
        gpus_per_node=c["gpus_per_node"],
        intra_link=LinkSpec(c["intra_latency_s"], c["intra_bandwidth_bytes_per_s"]),
        inter_link=LinkSpec(c["inter_latency_s"], c["inter_bandwidth_bytes_per_s"]),
    )


def _open_out(path: str | None):
    """The --out file, or stdout (left open) when there is none."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")


def _emit(header: list[str], rows: list[list], out_path: str | None) -> None:
    """Write CSV; floats are written with 10 significant digits."""
    with _open_out(out_path) as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([f"{x:.10g}" if isinstance(x, float) else x for x in row] for row in rows)


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


def _cmd_params(args, model, cluster, opts) -> int:
    """parameter and FLOP accounting for presets or a configured model"""
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


ROUTE_TABLE = {
    "tokens": (INT, 256, ">= 0"),
    "experts": (INT, 8, ">= 1"),
    "k": ((1, 2), 1, None),
    "capacity_factor": (NUMBER, 1.0, "> 0"),
    "instances": (INT, 20, ">= 0"),
}


def _cmd_route_bench(args, model, cluster, opts) -> int:
    """routing statistics and one-hot oracle error on random batches"""
    tokens, experts, k = opts["tokens"], opts["experts"], opts["k"]
    try:
        gcfg = gating.GatingConfig(
            num_experts=experts, k=k, capacity_factor=opts["capacity_factor"]
        )
    except ValueError as e:
        raise ConfigError(f"bad routing options: {e}") from e

    hidden = 32
    rows = []
    for i in range(opts["instances"]):
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
        balance = load_balance_loss(dplan, gate.probs)
        op_ratio = oracle_ops.ops / mapped_ops.ops if mapped_ops.ops else 0.0
        rows.append(
            [i, tokens, experts, k, dplan.capacity, kept, tokens * k - kept, balance, err, op_ratio]
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


SIM_TABLE = {
    "schedule": (("flat", "hierarchical", "coordinated", "all"), "all", None),
    "tensor_slice": (INT, 1, ">= 1"),
    "tokens_per_rank": (INT, 8, ">= 0"),
    "nbytes": (INT, 1024, ">= 0"),
    "c1": (NUMBER, 1e-4, ">= 0"),
    "c2": (NUMBER, 1e-3, ">= 0"),
    "emit": (("summary", "trace"), "summary", None),
}


def _cmd_simulate(args, model, cluster, opts) -> int:
    """all-to-all schedule comparison or a full event trace"""
    world = cluster.world_size
    schedule, slice_, emit = opts["schedule"], opts["tensor_slice"], opts["emit"]
    per_rank, nbytes = opts["tokens_per_rank"], opts["nbytes"]
    cost = CostModel(c1=opts["c1"], c2=opts["c2"])
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
        with _open_out(args.out) as f:
            traces[0][1].to_csv(f)
        return EXIT_OK

    rows = [
        [
            name,
            trace.world_size,
            trace.rounds,
            trace.a2a_rounds,
            trace.allgather_rounds,
            trace.volume_bytes,
            trace.a2a_volume_bytes,
            trace.volume_ratio,
            trace.modeled_latency_s,
            commsim.estimate_latency(trace, cluster),
        ]
        for name, trace in traces
    ]
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


PLAN_TABLE = {
    "latency_mode": (BOOL, False, None),
    "tensor_slice": (INT, 1, ">= 1"),
    "bytes_per_param": (NUMBER, 2, "> 0"),
}


def _cmd_plan(args, model, cluster, opts) -> int:
    """cluster placement for a model, with per-device memory"""
    if model is None:
        raise ConfigError("plan needs a model (preset or config)")
    built = plan(
        model, cluster, latency_mode=opts["latency_mode"], tensor_slice=opts["tensor_slice"]
    )
    est = memory_per_device(built, model, bytes_per_param=opts["bytes_per_param"])
    memory = [est.expert_bytes, est.non_expert_bytes, est.total_bytes]  # the same on every row
    rows = [
        [p.layer_index, p.num_experts, p.ep_degree, p.expert_dp, p.expert_slice, built.tensor_slice]
        + memory
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


DISTILL_TABLE = {
    "target_depth": (INT, None, None),  # None: three blocks below the teacher's depth
}


def _cmd_distill(args, model, cluster, opts) -> int:
    """depth-reduced student derivation and size accounting"""
    if model is None:
        raise ConfigError("distill needs a teacher model (preset or config)")
    target = opts["target_depth"]
    if target is None:
        target = model.num_layers - 3
    splan = derive_student(model, target)
    t_total = count_params(splan.teacher).total
    s_total = count_params(splan.student).total
    removed = " ".join(str(i) for i in splan.removed_layers)
    name = args.preset or "configured-model"
    _emit(DISTILL_HEADER, [[name, target, removed, t_total, s_total, s_total / t_total]], args.out)
    return EXIT_OK


KD_HEADER = ["seed", "staged_final_ce", "constant_final_ce", "staged_wins"]


KD_TABLE = {
    "seeds": (INT, 10, ">= 0"),
    "steps": (INT, 200, ">= 1"),
    "alpha": (NUMBER, 2.0, ">= 0"),
    "boundary": (INT_OR_NULL, lambda opts: opts["steps"] // 2, None),  # null: no stage stop
    "teacher_noise": (NUMBER, 1.2, ">= 0"),
    "lr": (NUMBER, 0.05, "> 0"),
}


def _cmd_kd_demo(args, model, cluster, opts) -> int:
    """staged vs constant teacher-blend comparison on the toy task"""
    seeds = range(args.seed, args.seed + opts["seeds"])
    finals = staged_vs_constant(
        seeds,
        steps=opts["steps"],
        alpha=opts["alpha"],
        boundary=opts["boundary"],
        teacher_noise=opts["teacher_noise"],
        lr=opts["lr"],
    )
    rows = [
        [seed, staged, constant, int(staged < constant)]
        for seed, (staged, constant) in zip(seeds, finals)
    ]
    _emit(KD_HEADER, rows, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

_VERBS = {
    "params": (_cmd_params, {}),
    "route-bench": (_cmd_route_bench, ROUTE_TABLE),
    "simulate": (_cmd_simulate, SIM_TABLE),
    "plan": (_cmd_plan, PLAN_TABLE),
    "distill": (_cmd_distill, DISTILL_TABLE),
    "kd-demo": (_cmd_kd_demo, KD_TABLE),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moekit",
        description="Expert-sparse model sizing, routing, placement and scheduling tools.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (fn, _) in _VERBS.items():
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
        raw = _load_config(args.config)
        if args.seed is not None:
            raw["seed"] = args.seed  # the flag beats the config's seed
        config = _section(raw, CONFIG_TABLE, "config")
        args.seed = config["seed"]
        fn, table = _VERBS[args.verb]
        opts = _section(config["options"], table, f"{args.verb} options")
        # every section is checked, even one the verb ignores or --preset replaces
        model = _build_model(config["model"])
        if args.preset is not None:
            model = _preset_config(args.preset)
        code = fn(args, model, _build_cluster(config["cluster"]), opts)
        sys.stdout.flush()  # a reader that closed early fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader stopped early (`moekit route-bench | head -1`) and has what it
        # wanted; send the unwritten rest to devnull so the flush at exit cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (PlanError, ScheduleError, ValidationError) as e:
        print(f"invalid request: {e}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as e:  # e.g. route-bench tokens sized past the machine
        print(f"invalid request: out of memory: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (TrainingError, OverflowError) as e:  # OverflowError: a float sum or cast past 1e308
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
