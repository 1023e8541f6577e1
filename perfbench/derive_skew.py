"""Derive ``workloads.SKEW_STD`` from the routers that ``kd-demo`` trains.

    python3 perfbench/derive_skew.py [--seeds 20] [--bench-seeds 10]

Run from the root of a moekit checkout. It prints a table and the derived
value; it changes no file.

The route and exchange workloads draw per-expert logit offsets from
N(0, SKEW_STD^2), so that a few experts run hot. The value comes from the
only routers moekit trains itself: the toy of ``moekit kd-demo`` (hidden
16, 4 experts, k=1), trained exactly as the CLI trains it, staged and
constant, for ``--seeds`` seeds. The imbalance is measured as the
coefficient of variation (std / mean over experts) of each expert's
demand: the assignments ``top_k_gate`` sends it before any capacity drop,
on 65536 fresh tokens from the toy's input distribution. The CV is the
imbalance measure of the Shazeer et al. 2017 balancing loss, and unlike
max/mean it sums up every expert's load, not only the hottest. The script
then finds the offset std whose demand CV, on the route workload's own inputs
(S=32768, E=128, k=2, seeds 1..``--bench-seeds``), equals the trained toy's
median CV.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from moekit.distill import KDConfig, SyntheticStream, ToyModel, ToyTrainConfig, train_toy  # noqa: E402
from moekit.gating import GatingConfig, top_k_gate  # noqa: E402

# kd-demo's defaults (cli._cmd_kd_demo)
STEPS, ALPHA, NOISE, LR = 200, 2.0, 1.2, 0.05
PROBE_TOKENS = 65536
GRID = np.round(np.arange(0.0, 1.0001, 0.05), 2)


def demand_cv(ids: np.ndarray, experts: int) -> float:
    counts = np.bincount(ids.reshape(-1), minlength=experts)
    return float(counts.std() / counts.mean())


def toy_cv(seed: int, boundary: int | None, probe: np.ndarray) -> tuple[float, float]:
    """Demand CV of the toy router before and after kd-demo training."""
    stream = SyntheticStream(hidden=16, vocab=16, batch=32, seed=seed, teacher_noise=NOISE)
    model = ToyModel.create(hidden=16, vocab=16, experts=4, seed=seed, capacity_factor=2.0)
    spec, params = model.specs[0], model.layer_params[0]

    def cv() -> float:
        gate = top_k_gate(probe @ params.gate_w.value, spec.gating)
        return demand_cv(gate.expert_ids, spec.experts)

    before = cv()
    cfg = ToyTrainConfig(kd=KDConfig(alpha=ALPHA, stage_boundary=boundary), steps=STEPS, lr=LR)
    train_toy(model, stream, cfg)  # trains the model in place
    return before, cv()


def route_cv(sigma: float, seed: int) -> float:
    """Demand CV of the route workload's logits (same draws as workloads.Route)."""
    tokens, experts, k = 32768, 128, 2
    rng = np.random.default_rng(seed)
    skew = sigma * rng.standard_normal(experts)
    logits = rng.standard_normal((tokens, experts)) + skew
    gate = top_k_gate(logits, GatingConfig(num_experts=experts, k=k, capacity_factor=1.25))
    return demand_cv(gate.expert_ids, experts)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--bench-seeds", type=int, default=10)
    args = p.parse_args(argv)

    probe = np.random.default_rng(12345).standard_normal((PROBE_TOKENS, 16))
    init, trained = [], []
    for seed in range(args.seeds):
        for boundary in (STEPS // 2, None):
            b, a = toy_cv(seed, boundary, probe)
            init.append(b)
            trained.append(a)
    q = statistics.quantiles(trained, n=4)
    target = statistics.median(trained)
    print(f"toy routers: {len(trained)} (seeds 0..{args.seeds - 1}, staged and constant)")
    print(f"  demand CV at init:     median {statistics.median(init):.3f}")
    print(f"  demand CV after train: median {target:.3f} (quartiles {q[0]:.3f} .. {q[2]:.3f})")

    seeds = range(1, args.bench_seeds + 1)
    curve = [statistics.mean(route_cv(s, seed) for seed in seeds) for s in GRID]
    print("route workload demand CV by offset std:")
    for s, c in zip(GRID, curve):
        print(f"  {s:4.2f}  {c:.3f}")
    if not curve[0] <= target <= curve[-1]:
        print(f"target CV {target:.3f} is outside the grid", file=sys.stderr)
        return 1
    sigma = float(np.interp(target, curve, GRID))
    print(f"SKEW_STD matching the trained toy's median demand CV: {sigma:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
