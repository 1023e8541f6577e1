"""moekit benchmark: one workload per run, closed loop, checked outputs.

    python3 perfbench/run.py --workload route|train|exchange --seed N --seconds S --trace 0|1

Run from the root of a moekit checkout; moekit is imported from its ``src``.
One caller issues each op only after the previous one returned (closed
loop, one client). Every op's output is checked; an op that raises or fails
its check counts as failed.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
SETUP_REPEATS set-ups, each a fresh import of moekit, input generation and
one untimed warm-up op), work per second, median and tail op latency, peak
RSS and the final held-out CE of the toy distillation task. ``--trace 1``
prints the per-layer metrics from a traced run (see spans.py), plus the
tracing overhead measured against an untraced half of the same run.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The line before it is a JSON stamp of the run's environment.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: one process, one BLAS thread.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Exchange, Train  # noqa: E402

LAYERS = ("tensor", "gating", "arch", "presets", "distill", "planner", "commsim", "cli")
SETUP_REPEATS = 5
MIN_OPS = 11  # the tail needs ten samples beyond it
MIN_TRACE_OPS = 1  # per half of a traced run, rounded up to a whole cycle
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "final_heldout_ce": "nats",
}

# Self time per op of these functions (per set-up for SETUP_SELF).
OP_SELF = (
    "gating.top_k_gate", "gating.build_dispatch_plan", "gating.exclusive_scan_blelloch",
    "gating.scatter_tokens", "gating.combine_tokens", "arch.load_balance_loss",
    "arch.forward_layer", "arch.forward_ffn", "distill.train_toy", "distill.kd_objective",
    "cli.main", "commsim.flat_all_to_all", "commsim.hierarchical_all_to_all",
    "commsim.coordinated_all_to_all", "commsim.estimate_latency",
)
SETUP_SELF = ("planner.plan", "planner.validate", "presets.get_preset")
OP_LAYERS = ("tensor", "gating", "arch", "distill", "commsim", "cli")
# Calls per step (a training step on train, an op elsewhere).
CALLED = (
    "tensor.matmul", "tensor.add", "tensor.mul", "tensor.scale", "tensor.gelu",
    "tensor.row_softmax", "tensor.take_elems", "tensor.gather_rows", "tensor.scatter_rows",
    "tensor.cross_entropy", "tensor.kl_divergence", "tensor.reset_grads",
    "tensor.GradTape.backward", "distill.ToyModel.logits_tape", "distill.ToyModel.logits_eval",
    "gating.top_k_gate", "gating.build_dispatch_plan", "gating.exclusive_scan_blelloch",
    "gating.scatter_tokens", "gating.combine_tokens", "arch.load_balance_loss",
    "arch.init_layer_params", "arch.forward_layer", "arch.forward_ffn", "distill.kd_objective",
    "distill.train_toy", "cli.main",
    "commsim.flat_all_to_all", "commsim.hierarchical_all_to_all",
    "commsim.coordinated_all_to_all", "commsim.estimate_latency",
)
SCHEDULE_STATS = {
    "events": "count",
    "a2a_rounds": "count",
    "volume_bytes": "bytes",
    "volume_ratio": "ratio",
    "modeled_latency_s": "s-modeled",  # the simulator's output, not moekit's speed
    "estimated_latency_s": "s-estimated",
}

PER_LAYER = {
    **{f"{n}.self_ms": "ms" for n in OP_SELF + SETUP_SELF + OP_LAYERS + ("other",)},
    "train.forward_ms": "ms",
    "train.backward_ms": "ms",
    "train.eval_ms": "ms",
    "tensor.tape_nodes_per_step": "count",
    **{f"{n}.calls_per_step": "count" for n in CALLED},
    "gating.kept_ratio": "ratio",
    "gating.capacity_util": "ratio",
    "gating.buffer_mb": "MB-computed",
    "commsim.payload_skew": "ratio",
    **{
        f"commsim.{s}.{k}": unit
        for s in Exchange.SCHEDULES
        for k, unit in SCHEDULE_STATS.items()
    },
    "trace.overhead_pct": "%",
}
# Reported by the exchange workload; zero elsewhere.
EXCHANGE_COUNTS = ["commsim.payload_skew"] + [
    f"commsim.{s}.{k}" for s in Exchange.SCHEDULES for k in SCHEDULE_STATS
]


def import_moekit() -> dict:
    """Import every moekit layer afresh from the checkout's src."""
    for name in [m for m in sys.modules if m == "moekit" or m.startswith("moekit.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mk = {layer: importlib.import_module(f"moekit.{layer}") for layer in LAYERS}
    origin = Path(mk["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"moekit imported from {origin}, not from {src}")
    return mk


class Tally:
    """Attempted and failed op counts; failures are reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, wl, i: int, tracer=None, result=None):
        """Run op ``i`` (unless its ``result`` is given) and check it.

        Returns (seconds the op took, its work units), with None for the work
        of an op that failed. Only the op is timed; the check runs after the
        clock stops. An op that raises fails. The result is not kept, so it
        does not count in the peak RSS of later ops.
        """
        self.attempted += 1
        dt, work = 0.0, None
        try:
            if result is None:
                with tracer.root("op") if tracer else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    result = wl.op(i)
                    dt = time.perf_counter() - t0
                if tracer:
                    tracer.clock(dt)
            problems = wl.check(result)
            work = wl.work(result)
        except Exception:  # a failed op is counted; the run goes on
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            self.failed += 1
            print(f"failed op {i}: {problems}", file=sys.stderr)
        return dt, None if problems else work


def closed_loop(wl, tally: Tally, seconds: float, first: int, min_ops: int, tracer=None):
    """Run ops first, first+1, ... for ``seconds`` (and at least ``min_ops``).

    Stops only after whole cycles of the workload's op mix (``wl.CYCLE``
    ops), so every run weighs each kind of op the same.
    Returns (latencies of passing ops in s, their work units, next op index).
    """
    latencies, work, i = [], 0, first
    deadline = time.perf_counter() + seconds
    while i - first < min_ops or (i - first) % wl.CYCLE or time.perf_counter() < deadline:
        dt, units = tally.attempt(wl, i, tracer)
        i += 1
        if units is not None:
            latencies.append(dt)
            work += units
    return latencies, work, i


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(n - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def stamp(args, extra: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "work_unit": WORKLOADS[args.workload].work_unit,
        **extra,
    }


def run_untraced(args, workdir: Path) -> tuple[Tally, dict, dict]:
    cls = WORKLOADS[args.workload]
    tally = Tally()
    setups, wl = [], None
    for _ in range(SETUP_REPEATS):
        wl = None  # release the previous set-up's inputs first
        t0 = time.perf_counter()
        mk = import_moekit()
        wl = cls(mk, args.seed, workdir)
        warm = wl.op(0)
        setups.append(time.perf_counter() - t0)
        tally.attempt(wl, 0, result=warm)
        del warm
    latencies, work, _ = closed_loop(wl, tally, args.seconds, 1, MIN_OPS)
    if isinstance(wl, Train):
        quality = wl
    else:
        # every workload reports the toy task's quality: run its SEEDS configs once
        quality = Train(mk, args.seed, workdir)
        for i in range(Train.SEEDS):
            tally.attempt(quality, i)
    if not latencies:
        raise RuntimeError("no op passed its check")
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "work_per_s": work / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "final_heldout_ce": quality.final_heldout_ce(),
    }
    extra = {
        "trace_overhead_pct": "reported by the --trace 1 run",
        "ops_timed": len(latencies),
        "op_tail_percentile": round(tail_pct, 1),
        "setup_s_each": setups,
    }
    return tally, metrics, extra


def run_traced(args, workdir: Path) -> tuple[Tally, dict, dict]:
    """Half the time untraced, half traced; set-up is traced once."""
    cls = WORKLOADS[args.workload]
    tally = Tally()
    mk = import_moekit()
    tracer = Tracer()
    before = Tracer.snapshot(mk)
    tracer.install(mk)
    try:
        with tracer.root("setup"):
            wl = cls(mk, args.seed, workdir)
            warm = wl.op(0)
    finally:
        tracer.remove()
    tally.attempt(wl, 0, result=warm)
    del warm
    half = args.seconds / 2
    plain, plain_work, nxt = closed_loop(wl, tally, half, 1, MIN_TRACE_OPS)
    tracer.install(mk)
    try:
        traced, traced_work, _ = closed_loop(wl, tally, half, nxt, MIN_TRACE_OPS, tracer=tracer)
    finally:
        tracer.remove()
    problems = Tracer.unrestored(mk, before) + tracer.check()
    if problems:
        tally.failed += 1
        print(f"trace check failed: {problems}", file=sys.stderr)
    tracer.write(workdir / f"spans-{args.workload}.csv.gz")

    plain_wps = plain_work / sum(plain)
    traced_wps = traced_work / sum(traced)
    ops = tracer.summary("op")
    setup = tracer.summary("setup")
    names = ops["names"]
    n_ops = ops["roots"]
    steps = n_ops * cls.STEPS_PER_OP
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{n}.self_ms": names[n]["self_s"] * 1e3 / n_ops for n in OP_SELF}
    m.update({f"{n}.self_ms": setup["names"][n]["self_s"] * 1e3 for n in SETUP_SELF})
    for layer in OP_LAYERS:
        total = sum(v["self_s"] for k, v in names.items() if k.startswith(layer + "."))
        m[f"{layer}.self_ms"] = total * 1e3 / n_ops
    m["other.self_ms"] = ops["other_s"] * 1e3 / n_ops
    m["train.forward_ms"] = ratio(names["distill.ToyModel.logits_tape"]["total_s"] * 1e3, steps)
    m["train.backward_ms"] = ratio(names["tensor.GradTape.backward"]["total_s"] * 1e3, steps)
    m["train.eval_ms"] = ratio(names["distill.ToyModel.logits_eval"]["total_s"] * 1e3, steps)
    m["tensor.tape_nodes_per_step"] = ratio(counts["tape_nodes"], counts["backward_calls"])
    m.update({f"{n}.calls_per_step": names[n]["calls"] / steps for n in CALLED})
    m["gating.kept_ratio"] = ratio(counts["plan_kept"], counts["plan_attempted"])
    m["gating.capacity_util"] = ratio(counts["plan_kept"], counts["plan_slots"])
    m["gating.buffer_mb"] = ratio(counts["buffer_bytes"] / 1e6, counts["scatter_calls"])
    m.update(dict.fromkeys(EXCHANGE_COUNTS, 0.0))
    m.update(wl.layer_counts())
    m["trace.overhead_pct"] = 100.0 * (plain_wps - traced_wps) / plain_wps
    extra = {
        "ops_untraced": len(plain),
        "ops_traced": n_ops,
        "spans": len(tracer.spans),
        "untraced_work_per_s": plain_wps,
        "traced_work_per_s": traced_wps,
        "trace_overhead_pct": m["trace.overhead_pct"],
    }
    return tally, m, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    try:
        import_moekit()
    except ImportError as e:
        print(f"cannot import moekit from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if args.trace:
        tally, metrics, extra = run_traced(args, workdir)
        units = PER_LAYER
    else:
        tally, metrics, extra = run_untraced(args, workdir)
        units = END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    for name, unit in units.items():
        print(f"{name:45s} {metrics[name]:>16.6g} {unit}")
    print(f"ops attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({"stamp": stamp(args, extra)}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
