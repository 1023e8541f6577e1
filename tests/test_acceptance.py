"""Acceptance suite: ten headline checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
on passing criteria too (pytest hides captured output for passing tests by
default).
"""

import time

import numpy as np
import pytest

from moekit import gating
from moekit import tensor as tk
from moekit.arch import (
    build_pr_moe,
    build_standard,
    count_flops_per_token,
    count_params,
    dense_config,
    forward_ffn,
    forward_layer,
    init_layer_params,
)
from moekit.commsim import (
    CostModel,
    coordinated_all_to_all,
    flat_all_to_all,
    hierarchical_all_to_all,
    synthetic_sends,
)
from moekit.distill import (
    KDConfig,
    SyntheticStream,
    ToyModel,
    derive_student,
    kd_objective,
)
from moekit.planner import ClusterTopology, plan, validate
from moekit.presets import get_preset
from moekit.tensor import GradTape, Tensor

from scan_oracle import exclusive_scan_blelloch


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# C1: preset sizes
# ---------------------------------------------------------------------------


def test_c01_preset_parameter_counts():
    targets = {
        "dense-350M": 350e6,
        "dense-1.3B": 1.3e9,
        "dense-6.7B": 6.7e9,
        "350M+MoE-128": 13e9,
        "1.3B+MoE-128": 52e9,
        "350M+PR-MoE-32/64": 4e9,
        "1.3B+PR-MoE-64/128": 31e9,
    }
    start = time.monotonic()
    worst = 0.0
    for name, target in targets.items():
        total = count_params(get_preset(name).config).total
        worst = max(worst, abs(total - target) / target)
    elapsed = time.monotonic() - start
    ok = worst < 0.05 and elapsed < 1.0
    _report(
        "C1 preset sizes",
        ok,
        f"7 presets, worst deviation {worst:.2%} (limit 5%), {elapsed:.3f}s (limit 1s)",
    )


# ---------------------------------------------------------------------------
# C2: active-compute ratio
# ---------------------------------------------------------------------------


def test_c02_flop_ratio():
    dense = count_flops_per_token(get_preset("dense-6.7B").config)
    moe = count_flops_per_token(get_preset("1.3B+MoE-128").config)
    ratio = dense / moe
    ok = 4.5 <= ratio <= 5.5
    _report("C2 compute ratio", ok, f"dense-6.7B / 1.3B+MoE-128 = {ratio:.3f} (window [4.5, 5.5])")


# ---------------------------------------------------------------------------
# C3: student sizes
# ---------------------------------------------------------------------------


def test_c03_student_sizes():
    cases = [("350M+PR-MoE-32/64", 3.5e9), ("1.3B+PR-MoE-64/128", 27e9)]
    worst = 0.0
    for name, target in cases:
        student = derive_student(get_preset(name).config, 21).student
        worst = max(worst, abs(count_params(student).total - target) / target)
    ok = worst < 0.10
    _report("C3 student sizes", ok, f"depth-21 students, worst deviation {worst:.2%} (limit 10%)")


# ---------------------------------------------------------------------------
# C4: routing oracle equivalence
# ---------------------------------------------------------------------------


def test_c04_routing_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    hidden = 8
    instances = 0
    worst_err = 0.0
    ratio_ok = True
    while instances < 1000:
        s = int(rng.integers(1, 257))
        e = int(rng.integers(1, 17))
        k = int(rng.integers(1, 3)) if e >= 2 else 1
        cf = float(rng.choice([0.5, 1.0, 2.0]))
        cfg = gating.GatingConfig(num_experts=e, k=k, capacity_factor=cf)
        gate = gating.top_k_gate(rng.standard_normal((s, e)), cfg)
        dplan = gating.build_dispatch_plan(gate, cfg, s)
        x = rng.standard_normal((s, hidden))

        mapped = gating.OpCounter()
        oracle = gating.OpCounter()
        buffers = gating.scatter_tokens(x, dplan, counter=mapped)
        combined = gating.combine_tokens(buffers, dplan, counter=mapped)
        obuf = gating.sparse_dispatch_oracle(x, gate, cfg, counter=oracle)
        oout = gating.sparse_combine_oracle(obuf, gate, cfg, counter=oracle)

        worst_err = max(worst_err, float(np.max(np.abs(buffers.data - obuf))))
        worst_err = max(worst_err, float(np.max(np.abs(combined - oout))))
        if mapped.ops:
            ratio = oracle.ops / mapped.ops
            if not (0.8 * e <= ratio <= 1.2 * e):
                ratio_ok = False
        instances += 1
    elapsed = time.monotonic() - start
    ok = worst_err <= 1e-9 and ratio_ok and elapsed < 60.0
    _report(
        "C4 routing oracle",
        ok,
        f"{instances} instances, max abs err {worst_err:.2e} (limit 1e-9), "
        f"op ratio within E +-20%: {ratio_ok}, {elapsed:.1f}s (limit 60s)",
    )


# ---------------------------------------------------------------------------
# C5: scan correctness
# ---------------------------------------------------------------------------


def _sequential_exclusive_scan(values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    run = 0
    for i, v in enumerate(values):
        out[i] = run
        run += v
    return out


def test_c05_scan_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    bad = 0
    for n in range(1026):
        v = rng.integers(0, 7, size=n)
        if not np.array_equal(exclusive_scan_blelloch(v), _sequential_exclusive_scan(v)):
            bad += 1
    for _ in range(100):
        n = int(rng.integers(2000, 50001))
        v = rng.integers(0, 100, size=n)
        if not np.array_equal(exclusive_scan_blelloch(v), _sequential_exclusive_scan(v)):
            bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed < 5.0
    _report(
        "C5 scan",
        ok,
        f"lengths 0-1025 plus 100 long vectors, {bad} mismatches, {elapsed:.1f}s (limit 5s)",
    )


# ---------------------------------------------------------------------------
# C6: communication-schedule equivalence
# ---------------------------------------------------------------------------


def test_c06_schedule_equivalence():
    start = time.monotonic()
    cost = CostModel(c1=1e-4, c2=1e-3)
    failures = []
    combos = 0
    for p in range(1, 65):
        sends = synthetic_sends(p, 3, nbytes=32, seed=p)
        flat = flat_all_to_all(sends, cost)
        if flat.a2a_rounds != p:
            failures.append(f"flat p={p} rounds {flat.a2a_rounds}")
        divisors = [d for d in range(1, p + 1) if p % d == 0]
        for g in divisors:
            hier = hierarchical_all_to_all(sends, g, cost)
            combos += 1
            if hier.recv != flat.recv:
                failures.append(f"hier p={p} G={g} recv mismatch")
            if hier.rounds != g + p // g:
                failures.append(f"hier p={p} G={g} rounds {hier.rounds}")
            if hier.volume_ratio != 2.0:
                failures.append(f"hier p={p} G={g} ratio {hier.volume_ratio}")
        for l in divisors:
            logical = synthetic_sends(p // l, 3, nbytes=32, seed=1000 + p)
            base = flat_all_to_all(logical, cost)
            replicated = [list(items) for items in logical for _ in range(l)]
            coord = coordinated_all_to_all(replicated, l, cost)
            combos += 1
            if coord.rounds != p // l + l:
                failures.append(f"coord p={p} L={l} rounds {coord.rounds}")
            for grp in range(p // l):
                for member in range(l):
                    if coord.recv[grp * l + member] != base.recv[grp]:
                        failures.append(f"coord p={p} L={l} recv mismatch at group {grp}")
                        break
                else:
                    continue
                break

    sends128 = synthetic_sends(128, 2, nbytes=64, seed=0)
    flat128 = flat_all_to_all(sends128, cost)
    if abs(flat128.modeled_latency_s - (128 * cost.c1 + cost.c2)) > 1e-15:
        failures.append("flat latency pin at p=128")
    logical16 = synthetic_sends(16, 4, nbytes=64, seed=1)
    coord128 = coordinated_all_to_all(
        [list(items) for items in logical16 for _ in range(8)], 8, cost
    )
    if abs(coord128.a2a_latency_s - (16 * cost.c1 + cost.c2)) > 1e-15:
        failures.append("coordinated exchange-term pin at p=128 L=8")

    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _report(
        "C6 schedules",
        ok,
        f"{combos} (p,G)/(p,L) combos at p<=64 plus p=128 latency pins, "
        f"{len(failures)} failures{': ' + failures[0] if failures else ''}, "
        f"{elapsed:.1f}s (limit 60s)",
    )


# ---------------------------------------------------------------------------
# C7: gradient correctness
# ---------------------------------------------------------------------------


def _fd_grad_at(make_loss, leaf, h=1e-6):
    grad = np.zeros_like(leaf.value)
    it = np.nditer(leaf.value, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = leaf.value[idx]
        leaf.value[idx] = orig + h
        hi = make_loss()
        leaf.value[idx] = orig - h
        lo = make_loss()
        leaf.value[idx] = orig
        grad[idx] = (hi - lo) / (2 * h)
        it.iternext()
    return grad


def test_c07_gradient_correctness():
    rng = np.random.default_rng(7)
    worst = 0.0

    for point in range(50):
        n, c = 4, 5
        s_val = rng.standard_normal((n, c))
        t_val = rng.standard_normal((n, c))
        labels = rng.integers(0, c, size=n)
        cfg = KDConfig(
            alpha=float(rng.uniform(0.1, 2.0)),
            temperature=float(rng.choice([1.0, 2.0, 3.5])),
        )
        tape = GradTape()
        leaf = Tensor(s_val.copy(), tape)
        loss, _, _ = kd_objective(leaf, t_val, labels, cfg, step=0)
        tape.backward(loss)
        fd = _fd_grad_at(
            lambda: kd_objective(Tensor(leaf.value), t_val, labels, cfg, step=0)[0].item(),
            leaf,
        )
        denom = np.maximum(1.0, np.maximum(np.abs(leaf.grad), np.abs(fd)))
        worst = max(worst, float(np.max(np.abs(leaf.grad - fd) / denom)))

    # toy-model losses: routing makes the loss piecewise, so check points
    # where the gate margin dwarfs the probe step
    model_points = 0
    for seed in range(12):
        if model_points >= 5:
            break
        stream = SyntheticStream(hidden=8, vocab=6, batch=8, seed=seed, teacher_noise=0.5)
        model = ToyModel.create(hidden=8, vocab=6, experts=4, seed=seed, capacity_factor=2.0)
        x, labels = stream.next_batch()
        gate_logits = x @ model.layer_params[0].gate_w.value
        top2 = np.sort(gate_logits, axis=1)[:, -2:]
        if np.min(top2[:, 1] - top2[:, 0]) < 1e-3:
            continue
        model_points += 1
        t_logits = stream.teacher_logits(x)
        cfg = KDConfig(alpha=0.7)

        tape = GradTape()
        loss, _, _ = kd_objective(model.logits(x, tape), t_logits, labels, cfg, step=0)
        leaves = model.leaves()
        tk.reset_grads(leaves)
        tape.backward(loss)

        def loss_value():
            return kd_objective(model.logits(x), t_logits, labels, cfg, step=0)[0].item()

        p0 = model.layer_params[0]
        for leaf in (model.head, p0.experts[0].w1, p0.gate_w):
            pick = np.random.default_rng(seed).choice(leaf.value.size, size=4, replace=False)
            for f in pick:
                idx = np.unravel_index(f, leaf.value.shape)
                orig = leaf.value[idx]
                h = 1e-6
                leaf.value[idx] = orig + h
                hi = loss_value()
                leaf.value[idx] = orig - h
                lo = loss_value()
                leaf.value[idx] = orig
                fd_val = (hi - lo) / (2 * h)
                got = 0.0 if leaf.grad is None else float(leaf.grad[idx])
                denom = max(1.0, abs(got), abs(fd_val))
                worst = max(worst, abs(got - fd_val) / denom)

    # bitwise reductions to plain cross-entropy
    s_val = rng.standard_normal((4, 5))
    t_val = rng.standard_normal((4, 5))
    labels = rng.integers(0, 5, size=4)
    bitwise = True
    for cfg, step in (
        (KDConfig(alpha=0.0), 0),
        (KDConfig(alpha=3.0, stage_boundary=5), 5),
    ):
        tape = GradTape()
        leaf = Tensor(s_val.copy(), tape)
        loss, _, kd_val = kd_objective(leaf, t_val, labels, cfg, step=step)
        tape.backward(loss)
        tape2 = GradTape()
        leaf2 = Tensor(s_val.copy(), tape2)
        tape2.backward(tk.cross_entropy(leaf2, labels))
        if kd_val != 0.0 or loss.item() != tk.cross_entropy(Tensor(s_val), labels).item():
            bitwise = False
        if not np.array_equal(leaf.grad, leaf2.grad):
            bitwise = False

    ok = worst < 1e-4 and bitwise and model_points >= 5
    _report(
        "C7 gradients",
        ok,
        f"50 objective points + {model_points} model points, worst rel err {worst:.2e} "
        f"(limit 1e-4), bitwise CE reductions: {bitwise}",
    )


# ---------------------------------------------------------------------------
# C8: architecture reductions
# ---------------------------------------------------------------------------


def test_c08_architecture_reductions():
    failures = []
    base = dense_config(8, 32, 4, vocab=64, context=16)

    uniform = build_pr_moe(base, (8,) * 4, residual=False, capacity_factor=2.0)
    standard = build_standard(base, 8, capacity_factor=2.0)
    if uniform != standard:
        failures.append("uniform schedule != standard constructor")

    rng = np.random.default_rng(8)
    x = rng.standard_normal((12, 32))

    single = build_standard(base, 1, capacity_factor=16.0)
    spec = single.layers[1]
    params = init_layer_params(spec, np.random.default_rng(1))
    moe_out = forward_layer(Tensor(x), spec, params).value
    ffn_out = forward_ffn(Tensor(x), params.experts[0])
    dense_out = x + ffn_out.value  # single expert with prob 1 and no drops
    if float(np.max(np.abs(moe_out - dense_out))) > 1e-12:
        failures.append("single-expert layer != dense layer at 1e-12")

    residual_cfg = build_pr_moe(base, (8,) * 4, residual=True, capacity_factor=4.0)
    res_spec = residual_cfg.layers[1]
    res_params = init_layer_params(res_spec, np.random.default_rng(2))
    std_spec = build_standard(base, 8, capacity_factor=4.0).layers[1]
    res_out = forward_layer(Tensor(x), res_spec, res_params).value
    std_out = forward_layer(Tensor(x), std_spec, res_params).value
    shared = forward_ffn(Tensor(x), res_params.shared).value
    if float(np.max(np.abs(res_out - (std_out + shared)))) > 1e-12:
        failures.append("residual output != standard output + shared MLP")

    ok = not failures
    _report(
        "C8 reductions",
        ok,
        "uniform==standard, single-expert==dense, residual==standard+shared"
        + ("" if ok else f"; failed: {failures}"),
    )


# ---------------------------------------------------------------------------
# C9: planner
# ---------------------------------------------------------------------------


def test_c09_planner_degrees():
    base = dense_config(24, 2048, 16)
    cfg = build_pr_moe(base, (32,) * 4 + (64,) * 4 + (128,) * 4, residual=True)
    cluster = ClusterTopology(nodes=16, gpus_per_node=8)
    built = plan(cfg, cluster)
    failures = []
    expect = {32: 4, 64: 2, 128: 1}
    for p in built.placements:
        if p.ep_degree != p.num_experts:
            failures.append(f"layer {p.layer_index}: ep {p.ep_degree} != {p.num_experts}")
        if p.expert_dp != expect[p.num_experts]:
            failures.append(f"layer {p.layer_index}: dp {p.expert_dp}")
        if p.experts_per_device != 1:
            failures.append(f"layer {p.layer_index}: {p.experts_per_device} experts/device")
    violations = validate(built, cfg)
    if violations:
        failures.append(f"validator: {violations}")
    ok = not failures
    _report(
        "C9 planner",
        ok,
        f"pyramid 32/64/128 on 128 GPUs: EP tracks experts, DP 4/2/1, "
        f"1 expert per device, {len(violations)} violations"
        + ("" if ok else f"; {failures[:2]}"),
    )


# ---------------------------------------------------------------------------
# C10: staged distillation direction
# ---------------------------------------------------------------------------


def test_c10_staged_kd_direction(kd_final_ces):
    # seeds 0-9, noise 1.2, alpha 2.0, boundary 100 vs none, 200 steps (conftest)
    wins = sum(staged <= constant for staged, constant in kd_final_ces)
    ok = wins >= 6
    _report("C10 staged distillation", ok, f"staged beats constant blend in {wins}/10 seeds (need 6)")
