"""Architecture tests: builders, accounting targets, layer evaluation."""

from __future__ import annotations

import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moekit import arch
from moekit import tensor as tk
from moekit.arch import (
    FfnParams,
    LayerSpec,
    MoeModelConfig,
    ValidationError,
    build_pr_moe,
    build_standard,
    count_flops_per_token,
    count_params,
    count_params_per_layer,
    dense_config,
    forward_ffn,
    forward_layer,
    init_layer_params,
    load_balance_loss,
)
from moekit.gating import GatingConfig, build_dispatch_plan, top_k_gate
from moekit.presets import PRESETS
from moekit.tensor import GradTape, Tensor


def sum_loss(a: Tensor) -> Tensor:
    """The sum of ``a``'s entries as a (1, 1) tape loss: a ones row times ``a``
    times a ones column, so the gradient reaching ``a`` is all ones."""
    return tk.matmul(tk.matmul(Tensor(np.ones((1, a.rows))), a), Tensor(np.ones((a.cols, 1))))


# published size targets for the named family (relative tolerance 5%)
SIZE_TARGETS = {
    "dense-350M": 350e6,
    "dense-1.3B": 1.3e9,
    "dense-6.7B": 6.7e9,
    "350M+MoE-128": 13e9,
    "1.3B+MoE-128": 52e9,
    "350M+PR-MoE-32/64": 4e9,
    "1.3B+PR-MoE-64/128": 31e9,
}


class TestBuilders:
    def test_standard_places_experts_every_other_layer(self):
        cfg = build_standard(dense_config(24, 1024, 16), 128)
        assert len(cfg.moe_layer_indices) == 12
        assert cfg.moe_layer_indices == tuple(range(1, 24, 2))
        assert all(cfg.layers[i].experts == 128 for i in cfg.moe_layer_indices)

    def test_pyramid_schedule_and_residual(self):
        cfg = build_pr_moe(dense_config(24, 1024, 16), (32,) * 10 + (64, 64))
        assert tuple(cfg.layers[i].experts for i in cfg.moe_layer_indices) == (32,) * 10 + (64, 64)
        assert all(cfg.layers[i].residual for i in cfg.moe_layer_indices)

    def test_uniform_pyramid_without_residual_equals_standard(self):
        base = dense_config(24, 2048, 16)
        a = build_standard(base, 64)
        b = build_pr_moe(base, (64,) * 12, residual=False)
        assert a == b  # identical dataclasses, field for field

    def test_decreasing_schedule_rejected(self):
        with pytest.raises(ValidationError):
            build_pr_moe(dense_config(24, 1024, 16), (64,) * 2 + (32,) * 10)

    def test_wrong_schedule_length_rejected(self):
        with pytest.raises(ValidationError):
            build_pr_moe(dense_config(24, 1024, 16), (32,) * 5)

    def test_odd_layer_count_rejected(self):
        with pytest.raises(ValidationError):
            build_standard(_odd_base(), 8)

    def test_single_expert_build_allowed(self):
        cfg = build_standard(dense_config(4, 64, 4), 1)
        counts = count_params(cfg)
        dense = count_params(dense_config(4, 64, 4))
        # one expert adds exactly one feed-forward per routed layer
        assert counts.expert_params == 2 * _ffn(64)

    def test_layer_spec_validation(self):
        with pytest.raises(ValidationError):
            LayerSpec(kind="moe", hidden=64, experts=0)
        with pytest.raises(ValidationError):
            LayerSpec(kind="dense", hidden=64, experts=4)
        with pytest.raises(ValidationError):
            LayerSpec(kind="funky", hidden=64)

    def test_config_length_validation(self):
        with pytest.raises(ValidationError):
            MoeModelConfig(
                num_layers=3, hidden=8, heads=2, vocab=100, context=16,
                layers=(LayerSpec(kind="dense", hidden=8),),
            )


def _odd_base():
    return MoeModelConfig(
        num_layers=23, hidden=1024, heads=16, vocab=50257, context=2048,
        layers=tuple(LayerSpec(kind="dense", hidden=1024) for _ in range(23)),
    )


def _ffn(m: int) -> int:
    return 2 * m * (4 * m) + 4 * m + m


class TestAccounting:
    @pytest.mark.parametrize("name,target", sorted(SIZE_TARGETS.items()))
    def test_published_totals_within_5_percent(self, name, target):
        total = count_params(PRESETS[name].config).total
        assert abs(total - target) / target <= 0.05, f"{name}: {total:,}"

    def test_split_additivity(self):
        for name in SIZE_TARGETS:
            c = count_params(PRESETS[name].config)
            assert c.total == c.expert_params + c.non_expert_params
            assert c.active_per_token <= c.total

    def test_dense_model_fully_active(self):
        cfg = PRESETS["dense-1.3B"].config
        c = count_params(cfg)
        assert c.expert_params == 0
        # everything except position rows is on the per-token path
        assert c.total - c.active_per_token == cfg.context * cfg.hidden

    def test_expert_variant_keeps_dense_active_path(self):
        dense = count_params(PRESETS["dense-1.3B"].config)
        moe = count_params(PRESETS["1.3B+MoE-128"].config)
        # active path grows only by the 12 gate projections
        assert moe.active_per_token - dense.active_per_token == 12 * (2048 * 128 + 128)

    def test_flop_ratio_dense_6_7b_vs_moe_52b(self):
        f_dense = count_flops_per_token(PRESETS["dense-6.7B"].config)
        f_moe = count_flops_per_token(PRESETS["1.3B+MoE-128"].config)
        assert 4.5 <= f_dense / f_moe <= 5.5

    def test_moe_flops_match_dense_base(self):
        f_base = count_flops_per_token(PRESETS["dense-1.3B"].config)
        f_moe = count_flops_per_token(PRESETS["1.3B+MoE-128"].config)
        assert abs(f_moe - f_base) / f_base <= 0.05

    def test_top2_doubles_expert_term(self):
        base = dense_config(24, 2048, 16)
        k1 = count_params(build_standard(base, 128, k=1))
        k2 = count_params(build_standard(base, 128, k=2))
        assert k2.active_per_token - k1.active_per_token == 12 * _ffn(2048)
        assert k2.total == k1.total  # parameter count does not depend on k

    def test_residual_adds_shared_ffn_per_routed_layer(self):
        base = dense_config(24, 1024, 16)
        plain = count_params(build_pr_moe(base, (32,) * 12, residual=False))
        shared = count_params(build_pr_moe(base, (32,) * 12, residual=True))
        assert shared.non_expert_params - plain.non_expert_params == 12 * _ffn(1024)
        assert shared.expert_params == plain.expert_params

    def test_per_layer_counts_sum_to_total(self):
        cfg = PRESETS["350M+PR-MoE-32/64"].config
        per_layer = count_params_per_layer(cfg)
        c = count_params(cfg)
        assert sum(p.expert for p in per_layer) == c.expert_params
        assert (
            sum(p.non_expert for p in per_layer)
            + cfg.vocab * cfg.hidden + cfg.context * cfg.hidden + 2 * cfg.hidden
            == c.non_expert_params
        )

    def test_single_expert_degenerate_count(self):
        base = dense_config(24, 1024, 16)
        moe1 = count_params(build_standard(base, 1))
        dense = count_params(base)
        # the lone expert stands in for the feed-forward it replaced, so the
        # net growth is just the 12 one-column gate projections
        assert moe1.total - dense.total == 12 * (1024 + 1)
        assert moe1.expert_params == 12 * _ffn(1024)


class TestLoadBalance:
    def _plan(self, logits, k=1, cf=100.0):
        e = logits.shape[1]
        cfg = GatingConfig(num_experts=e, k=k, capacity_factor=cf)
        gates = top_k_gate(logits, cfg)
        return build_dispatch_plan(gates, cfg, logits.shape[0]), gates.probs

    def test_perfectly_uniform_is_one(self):
        # four tokens, four experts, one token each, uniform probabilities
        logits = np.log(np.full((4, 4), 0.25))
        ids = np.eye(4) * 1e-9  # break ties so each token lands on its own expert
        plan, probs = self._plan(logits + ids)
        assert load_balance_loss(plan, probs) == pytest.approx(1.0, abs=1e-6)

    def test_all_to_one_with_certainty_is_e(self):
        logits = np.zeros((6, 4))
        logits[:, 2] = 60.0
        plan, probs = self._plan(logits)
        assert load_balance_loss(plan, probs) == pytest.approx(4.0, abs=1e-12)

    def test_hand_value(self):
        plan, _ = self._plan(np.array([[2.0, 0.0], [1.5, 0.0]]))
        probs = np.array([[0.9, 0.1], [0.8, 0.2]])
        # both tokens on expert 0: 2 * (1.0*0.85 + 0.0*0.15)
        assert load_balance_loss(plan, probs) == pytest.approx(1.7, abs=1e-12)

    def test_random_instances_bounded(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            s, e = int(rng.integers(16, 200)), int(rng.integers(2, 16))
            plan, probs = self._plan(rng.standard_normal((s, e)) * 0.5)
            loss = load_balance_loss(plan, probs)
            assert 0.5 <= loss <= e + 1e-9

    def test_empty_batch(self):
        plan, probs = self._plan(np.zeros((0, 4)))
        assert load_balance_loss(plan, probs) == 0.0


def _moe_spec(hidden=8, experts=3, residual=False, k=1, cf=8.0):
    return LayerSpec(
        kind="moe", hidden=hidden, experts=experts, residual=residual,
        gating=GatingConfig(num_experts=experts, k=k, capacity_factor=cf),
    )


class TestForward:
    def test_dense_layer_is_residual_ffn(self):
        rng = np.random.default_rng(20)
        spec = LayerSpec(kind="dense", hidden=8)
        params = init_layer_params(spec, rng)
        x = Tensor(rng.standard_normal((5, 8)))
        out = forward_layer(x, spec, params)
        want = x.value + forward_ffn(Tensor(x.value), params).value
        assert np.array_equal(out.value, want)

    def test_zero_weight_experts_residual_layer_passes_mlp_only(self):
        rng = np.random.default_rng(21)
        spec = _moe_spec(residual=True)
        params = init_layer_params(spec, rng)
        for e in params.experts:
            for leaf in e.leaves():
                leaf.value[:] = 0.0
        x = Tensor(rng.standard_normal((6, 8)))
        out = forward_layer(x, spec, params)
        want = x.value + forward_ffn(Tensor(x.value), params.shared).value
        assert np.max(np.abs(out.value - want)) == 0.0

    def test_single_expert_equals_dense_layer(self):
        rng = np.random.default_rng(22)
        spec = _moe_spec(hidden=8, experts=1, cf=10.0)
        params = init_layer_params(spec, rng)
        x = Tensor(rng.standard_normal((7, 8)))
        got = forward_layer(x, spec, params)
        dense_spec = LayerSpec(kind="dense", hidden=8)
        want = forward_layer(Tensor(x.value), dense_spec, params.experts[0])
        assert np.max(np.abs(got.value - want.value)) <= 1e-12

    def test_residual_equals_standard_plus_shared_mlp(self):
        rng = np.random.default_rng(23)
        res_spec = _moe_spec(hidden=8, experts=3, residual=True)
        params = init_layer_params(res_spec, rng)
        x = Tensor(rng.standard_normal((9, 8)))
        res_out = forward_layer(x, res_spec, params)

        std_spec = _moe_spec(hidden=8, experts=3, residual=False)
        std_params = type(params)(gate_w=params.gate_w, experts=params.experts, shared=None)
        std_out = forward_layer(Tensor(x.value), std_spec, std_params)
        mlp_out = forward_ffn(Tensor(x.value), params.shared)
        assert np.max(np.abs(res_out.value - (std_out.value + mlp_out.value))) <= 1e-12

    def test_dropped_tokens_keep_skip_path(self):
        rng = np.random.default_rng(24)
        spec = _moe_spec(hidden=8, experts=2, cf=1e-9)  # capacity 1 per expert
        params = init_layer_params(spec, rng)
        x_val = rng.standard_normal((6, 8))
        out = forward_layer(Tensor(x_val), spec, params).value
        # at most 2 tokens processed; the rest must ride the skip unchanged
        unchanged = np.all(out == x_val, axis=1).sum()
        assert unchanged >= 4

    def test_gradients_flow_through_routing(self):
        rng = np.random.default_rng(25)
        spec = _moe_spec(hidden=6, experts=3, cf=4.0)
        params = init_layer_params(spec, rng)
        head = Tensor(rng.standard_normal((6, 5)) * 0.5)
        labels = rng.integers(0, 5, size=8)
        x_val = rng.standard_normal((8, 6))

        tape = GradTape()
        x = Tensor(x_val, tape)
        loss = tk.cross_entropy(tk.matmul(forward_layer(x, spec, params), head), labels)
        tape.backward(loss)
        assert params.gate_w.grad is not None and np.any(params.gate_w.grad)
        assert any(np.any(e.w1.grad) for e in params.experts if e.w1.grad is not None)

    def test_routed_layer_records_one_node_for_all_experts(self):
        rng = np.random.default_rng(26)
        spec = _moe_spec(hidden=6, experts=4, k=2, cf=4.0)
        params = init_layer_params(spec, rng)
        tape = GradTape()
        forward_layer(Tensor(rng.standard_normal((10, 6)), tape), spec, params)
        assert len(tape) == 4  # gate matmul, gate softmax, experts, skip add

    def test_layer_step_is_freed_without_cyclic_gc(self):
        rng = np.random.default_rng(27)
        spec = _moe_spec(hidden=6, experts=3, k=2, residual=True, cf=4.0)
        params = init_layer_params(spec, rng)

        def step():
            tape = GradTape()
            out = forward_layer(Tensor(rng.standard_normal((8, 6)), tape), spec, params)
            # the mul vjp captures out.value
            tape.backward(sum_loss(tk.mul(out, Tensor(rng.standard_normal(out.shape)))))
            return weakref.ref(out.value)

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            assert step()() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_width_mismatch_rejected(self):
        spec = LayerSpec(kind="dense", hidden=8)
        params = init_layer_params(spec, np.random.default_rng(0))
        with pytest.raises(tk.ShapeError):
            forward_layer(Tensor(np.zeros((3, 7))), spec, params)


def mask_argsort_combine(x: Tensor, probs: Tensor, plan, params) -> Tensor:
    """The earlier ``_combine_experts``: each expert's tokens from a kept mask,
    ordered by a stable argsort of their slots."""
    kept = plan.kept_mask()
    acc = None
    for e in range(plan.num_experts):
        sel = kept & (plan.expert_ids == e)
        if not sel.any():
            continue
        order = np.argsort(plan.slots[sel], kind="stable")
        tokens = np.nonzero(sel)[0][order]
        rows = tk.gather_rows(x, tokens)
        y = forward_ffn(rows, params.experts[e])
        weight = tk.take_elems(probs, tokens, np.full(tokens.shape, e, dtype=np.int64))
        contrib = tk.scatter_rows(tk.mul(y, weight), tokens, x.rows)
        acc = contrib if acc is None else tk.add(acc, contrib)
    if acc is None:
        acc = Tensor._wrap(np.zeros(x.shape), x.tape)
    return acc


def _layer_value_and_grads(spec, seed, s):
    """forward_layer on a seeded batch; returns the output and every leaf gradient."""
    rng = np.random.default_rng(seed)
    params = init_layer_params(spec, rng, scale=0.5)
    tape = GradTape()
    x = Tensor(rng.standard_normal((s, spec.hidden)), tape)
    out = forward_layer(x, spec, params)
    tape.backward(sum_loss(tk.mul(out, Tensor(rng.standard_normal(out.shape)))))
    return out.value, [leaf.grad for leaf in [x, *params.leaves()]]


@settings(max_examples=60, deadline=None)
@given(
    s=st.integers(0, 24),
    experts=st.integers(1, 6),
    k=st.integers(1, 2),
    cf=st.sampled_from([0.05, 0.3, 1.0, 1.25, 4.0, 1e6]),
    residual=st.booleans(),
    hidden=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_forward_layer_matches_mask_argsort_combine_bitwise(
    s, experts, k, cf, residual, hidden, seed
):
    spec = _moe_spec(hidden=hidden, experts=experts, residual=residual, k=min(k, experts), cf=cf)
    got, got_grads = _layer_value_and_grads(spec, seed, s)
    with mock.patch.object(arch, "_combine_experts", mask_argsort_combine):
        want, want_grads = _layer_value_and_grads(spec, seed, s)
    assert got.tobytes() == want.tobytes()
    for g, w in zip(got_grads, want_grads):
        assert (g is None) == (w is None)
        if g is not None:
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    s=st.integers(1, 200),
    experts=st.integers(1, 8),
    k=st.integers(1, 2),
    scale=st.floats(0.1, 300.0),
    half_integer=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_top_k_gate_probs_equal_row_softmax_bitwise(s, experts, k, scale, half_integer, seed):
    """forward_layer takes the gate softmax from top_k_gate instead of row_softmax."""
    logits = np.random.default_rng(seed).standard_normal((s, experts)) * scale
    if half_integer:
        logits = np.round(2 * logits) / 2  # many exact ties
    gate = top_k_gate(logits, GatingConfig(num_experts=experts, k=min(k, experts)))
    assert gate.probs.tobytes() == tk.row_softmax(Tensor(logits)).value.tobytes()
