"""Routing pipeline tests: gate selection, scan, dispatch tables, buffers.

Oracles used here:
  * sequential_exclusive_scan - plain running sum, checked exactly.
  * brute_force_plan          - dict-based sequential slot assignment.
  * the in-package one-hot contraction oracles, cross-checked against the
    table-driven path on randomized instances.
  * argsort_gate / scan_slots / zero_fill_scatter / add_at_combine - the
    earlier implementations of the four routing stages (stable argsort,
    per-expert Blelloch scan, zero-filled fancy-index assignment, np.add.at),
    which the current stages must match bit for bit; slot_table_from_slots
    builds the (E, c) slot table from the scan's slots.
"""

from __future__ import annotations

import multiprocessing
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from moekit import distill, gating
from moekit.gating import (
    DROPPED,
    DispatchPlan,
    ExpertBuffers,
    GatingConfig,
    NonFiniteError,
    OpCounter,
    TopKGate,
    build_dispatch_plan,
    combine_tokens,
    exclusive_scan_blelloch,
    scatter_tokens,
    sparse_combine_oracle,
    sparse_dispatch_oracle,
    top_k_gate,
)
from moekit.tensor import ShapeError


def reference_softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def sequential_exclusive_scan(values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(np.asarray(values, dtype=np.int64))
    acc = 0
    for i, v in enumerate(np.asarray(values)):
        out[i] = acc
        acc += v
    return out


def brute_force_plan(gates, cfg: GatingConfig, num_tokens: int):
    """Independent slot assignment: walk assignments token-major, count per
    expert with a dict, drop at capacity."""
    cap = cfg.capacity(num_tokens)
    counts: dict[int, int] = {}
    slots = np.full((num_tokens, cfg.k), DROPPED, dtype=np.int64)
    for s in range(num_tokens):
        for j in range(cfg.k):
            e = int(gates.expert_ids[s, j])
            c = counts.get(e, 0)
            if c < cap:
                slots[s, j] = c
            counts[e] = c + 1
    load = np.zeros(cfg.num_experts, dtype=np.int64)
    for e in range(cfg.num_experts):
        load[e] = min(counts.get(e, 0), cap)
    return slots, load, cap


# ---------------------------------------------------------------------------
# top_k_gate
# ---------------------------------------------------------------------------


class TestTopKGate:
    def test_top1_selection_and_prob(self):
        cfg = GatingConfig(num_experts=3, k=1)
        logits = np.array([[1.0, 3.0, 2.0]])
        gate = top_k_gate(logits, cfg)
        assert gate.expert_ids[0, 0] == 1
        assert abs(gate.gate_probs[0, 0] - reference_softmax(logits[0])[1]) <= 1e-15

    def test_top2_descending_order(self):
        cfg = GatingConfig(num_experts=3, k=2)
        gate = top_k_gate(np.array([[1.0, 3.0, 2.0]]), cfg)
        assert gate.expert_ids[0].tolist() == [1, 2]

    def test_tie_breaks_to_lower_index(self):
        cfg = GatingConfig(num_experts=3, k=2)
        gate = top_k_gate(np.array([[5.0, 5.0, 1.0]]), cfg)
        assert gate.expert_ids[0].tolist() == [0, 1]
        cfg1 = GatingConfig(num_experts=4, k=1)
        gate1 = top_k_gate(np.array([[2.0, 7.0, 7.0, 7.0]]), cfg1)
        assert gate1.expert_ids[0, 0] == 1

    def test_probs_from_full_softmax_not_renormalized(self):
        cfg = GatingConfig(num_experts=4, k=2)
        logits = np.array([[0.4, 2.0, -1.0, 1.5]])
        gate = top_k_gate(logits, cfg)
        full = reference_softmax(logits[0])
        assert np.allclose(gate.gate_probs[0], [full[1], full[3]], atol=1e-15)
        assert gate.gate_probs[0].sum() < 1.0  # mass on unselected experts remains

    def test_rows_are_stochastic(self):
        rng = np.random.default_rng(42)
        cfg = GatingConfig(num_experts=8, k=2)
        gate = top_k_gate(rng.standard_normal((50, 8)), cfg)
        assert np.allclose(gate.probs.sum(axis=1), 1.0, atol=1e-12)
        assert (gate.expert_ids[:, 0] != gate.expert_ids[:, 1]).all()

    def test_wrong_width_rejected(self):
        with pytest.raises(ShapeError):
            top_k_gate(np.zeros((4, 5)), GatingConfig(num_experts=8, k=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_rejected(self, bad):
        logits = np.zeros((4, 3))
        logits[2, 1] = bad
        with pytest.raises(ShapeError):
            top_k_gate(logits, GatingConfig(num_experts=3, k=2))
        # several row blocks (512 rows each at E=64), the bad entry in the last one
        logits = np.zeros((3000, 64))
        logits[-1, 7] = bad
        for k in (1, 2):
            with pytest.raises(NonFiniteError, match="gate logits contain NaN or inf"):
                top_k_gate(logits, GatingConfig(num_experts=64, k=k))

    @pytest.mark.parametrize("logits", [np.zeros((4, 3), dtype=complex), np.full((4, 3), "a")])
    def test_non_real_logits_rejected(self, logits):
        with pytest.raises(ShapeError, match="gate logits must be real numbers"):
            top_k_gate(logits, GatingConfig(num_experts=3, k=2))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            GatingConfig(num_experts=8, k=3)
        with pytest.raises(ValueError):
            GatingConfig(num_experts=0, k=1)
        with pytest.raises(ValueError):
            GatingConfig(num_experts=8, k=1, capacity_factor=0.0)
        with pytest.raises(ValueError):
            GatingConfig(num_experts=1, k=2)
        for cf in (np.inf, np.nan):
            with pytest.raises(ValueError):
                GatingConfig(num_experts=8, k=1, capacity_factor=cf)


# ---------------------------------------------------------------------------
# exclusive scan
# ---------------------------------------------------------------------------


class TestScan:
    def test_worked_example(self):
        got = exclusive_scan_blelloch(np.array([3, 1, 7, 0, 4, 1, 6, 3]))
        assert got.tolist() == [0, 3, 4, 11, 11, 15, 16, 22]

    def test_all_lengths_through_1025(self):
        rng = np.random.default_rng(1)
        for n in range(0, 1026):
            v = rng.integers(0, 10, size=n)
            got = exclusive_scan_blelloch(v)
            want = sequential_exclusive_scan(v)
            assert np.array_equal(got, want), f"length {n}"

    def test_random_long_vectors(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2000, 50000))
            v = rng.integers(0, 100, size=n)
            assert np.array_equal(exclusive_scan_blelloch(v), sequential_exclusive_scan(v))

    def test_non_power_of_two_lengths(self):
        for n in (1, 3, 5, 1023, 1025):
            v = np.arange(n)
            assert np.array_equal(exclusive_scan_blelloch(v), sequential_exclusive_scan(v))

    def test_empty(self):
        assert exclusive_scan_blelloch(np.array([], dtype=np.int64)).shape == (0,)

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            exclusive_scan_blelloch(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# dispatch plan
# ---------------------------------------------------------------------------


class TestDispatchPlan:
    def test_capacity_formula(self):
        assert GatingConfig(64, k=1, capacity_factor=1.0).capacity(512) == 8
        assert GatingConfig(64, k=1, capacity_factor=1.25).capacity(512) == 10
        assert GatingConfig(64, k=2, capacity_factor=1.0).capacity(512) == 16
        assert GatingConfig(4, k=1, capacity_factor=1e-9).capacity(8) == 1
        assert GatingConfig(4, k=1).capacity(0) == 0
        # clipped to [1, S]
        assert GatingConfig(2, k=2, capacity_factor=4.0).capacity(16) == 16  # unclipped: 64
        assert GatingConfig(8, k=1, capacity_factor=1e12).capacity(16) == 16
        assert GatingConfig(8, k=2, capacity_factor=np.finfo(np.float64).max).capacity(16) == 16
        assert GatingConfig(8, k=2, capacity_factor=1e300).capacity(0) == 0
        assert GatingConfig(3, k=1, capacity_factor=5e-324).capacity(1) == 1  # product underflows

    def test_capped_capacity_keeps_every_assignment(self):
        rng = np.random.default_rng(15)
        for k in (1, 2):
            cfg = GatingConfig(num_experts=3, k=k, capacity_factor=1e12)
            gates = top_k_gate(rng.integers(-1, 2, size=(20, 3)).astype(float), cfg)
            plan = build_dispatch_plan(gates, cfg, 20)
            assert plan.capacity == 20
            assert plan.kept_mask().all()
            assert np.array_equal(plan.slots, brute_force_plan(gates, cfg, 20)[0])

    def test_k2_same_expert_twice_rejected(self):
        cfg = GatingConfig(num_experts=3, k=2, capacity_factor=1e12)
        gates = top_k_gate(np.zeros((4, 3)), cfg)
        gates.expert_ids[2, 1] = gates.expert_ids[2, 0]
        with pytest.raises(ShapeError, match="same expert twice"):
            build_dispatch_plan(gates, cfg, 4)

    def test_slot_table_lists_tokens_in_slot_order(self):
        cfg = GatingConfig(num_experts=3, k=2, capacity_factor=0.5)
        # choices (0,1) (1,0) (0,2) (2,1): capacity ceil(0.5*4*2/3) = 2, token 3 drops on 1
        logits = np.array([[2.0, 1, 0], [1, 2, 0], [2, 0, 1], [0, 1, 2]])
        plan = build_dispatch_plan(top_k_gate(logits, cfg), cfg, 4)
        assert plan.expert_load.tolist() == [2, 2, 2]
        assert plan.slot_tokens.tolist() == [[0, 1], [0, 1], [2, 3]]
        assert plan.slots[3].tolist() == [1, DROPPED]

    def test_slots_in_token_order_with_drop(self):
        cfg = GatingConfig(num_experts=2, k=1, capacity_factor=1.0)
        # logits force experts [0, 0, 1, 0]; capacity = ceil(4/2) = 2
        logits = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        plan = build_dispatch_plan(top_k_gate(logits, cfg), cfg, 4)
        assert plan.capacity == 2
        assert plan.slots[:, 0].tolist() == [0, 1, 0, DROPPED]
        assert plan.expert_load.tolist() == [2, 1]

    def test_single_hot_expert_overflow(self):
        cfg = GatingConfig(num_experts=4, k=1, capacity_factor=0.5)
        logits = np.zeros((8, 4))
        logits[:, 0] = 5.0  # everyone picks expert 0; capacity = ceil(0.5*8/4) = 1
        plan = build_dispatch_plan(top_k_gate(logits, cfg), cfg, 8)
        assert plan.capacity == 1
        assert plan.slots[0, 0] == 0
        assert (plan.slots[1:, 0] == DROPPED).all()
        assert plan.expert_load.tolist() == [1, 0, 0, 0]

    def test_k2_token_major_interleaving(self):
        cfg = GatingConfig(num_experts=2, k=2, capacity_factor=1.0)
        logits = np.array([[2.0, 1.0], [3.0, 0.0]])  # both tokens: e0 first, e1 second
        plan = build_dispatch_plan(top_k_gate(logits, cfg), cfg, 2)
        assert plan.capacity == 2
        assert plan.slots.tolist() == [[0, 0], [1, 1]]
        assert plan.expert_load.tolist() == [2, 2]

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            s = int(rng.integers(1, 65))
            e = int(rng.integers(2, 9))
            k = int(rng.choice([1, 2]))
            cf = float(rng.choice([0.5, 1.0, 2.0]))
            cfg = GatingConfig(num_experts=e, k=k, capacity_factor=cf)
            gates = top_k_gate(rng.standard_normal((s, e)), cfg)
            plan = build_dispatch_plan(gates, cfg, s)
            slots, load, cap = brute_force_plan(gates, cfg, s)
            assert plan.capacity == cap
            assert np.array_equal(plan.slots, slots), f"trial {trial}"
            assert np.array_equal(plan.expert_load, load)

    def test_slot_contiguity_and_load_bound(self):
        rng = np.random.default_rng(4)
        cfg = GatingConfig(num_experts=8, k=2, capacity_factor=1.0)
        gates = top_k_gate(rng.standard_normal((64, 8)), cfg)
        plan = build_dispatch_plan(gates, cfg, 64)
        assert (plan.expert_load <= plan.capacity).all()
        for e in range(8):
            kept = plan.slots[plan.expert_ids == e]
            kept = np.sort(kept[kept != DROPPED])
            assert kept.tolist() == list(range(plan.expert_load[e]))

    def test_k2_doubles_routed_assignments(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((32, 8))
        kept_counts = {}
        for k in (1, 2):
            cfg = GatingConfig(num_experts=8, k=k, capacity_factor=100.0)
            plan = build_dispatch_plan(top_k_gate(logits, cfg), cfg, 32)
            kept_counts[k] = int(plan.kept_mask().sum())
        assert kept_counts[1] == 32
        assert kept_counts[2] == 64

    def test_out_of_range_expert_ids_rejected(self):
        cfg = GatingConfig(num_experts=2, k=1)
        gates = top_k_gate(np.zeros((3, 2)), cfg)
        for bad in (2, -1):
            gates.expert_ids[1, 0] = bad
            with pytest.raises(ShapeError):
                build_dispatch_plan(gates, cfg, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gate_probs_rejected(self, bad):
        cfg = GatingConfig(num_experts=3, k=2)
        gates = top_k_gate(np.zeros((4, 3)), cfg)
        gates.gate_probs[1, 1] = bad
        with pytest.raises(NonFiniteError, match="gate_probs contain NaN or inf"):
            build_dispatch_plan(gates, cfg, 4)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_non_integer_expert_ids_rejected(self, dtype):
        cfg = GatingConfig(num_experts=2, k=1)
        gates = top_k_gate(np.zeros((3, 2)), cfg)
        bad = TopKGate(gates.expert_ids.astype(dtype), gates.gate_probs, gates.probs)
        with pytest.raises(ShapeError, match="expert ids must be integers"):
            build_dispatch_plan(bad, cfg, 3)

    def test_gate_probs_shape_must_match_expert_ids(self):
        cfg = GatingConfig(num_experts=3, k=2)
        gates = top_k_gate(np.zeros((4, 3)), cfg)
        one_column = TopKGate(gates.expert_ids, gates.gate_probs[:, :1], gates.probs)
        with pytest.raises(ShapeError, match=r"gate_probs shape \(4, 1\)"):
            build_dispatch_plan(one_column, cfg, 4)

    def test_determinism(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((40, 4))
        cfg = GatingConfig(num_experts=4, k=2, capacity_factor=1.0)
        a = build_dispatch_plan(top_k_gate(logits, cfg), cfg, 40)
        b = build_dispatch_plan(top_k_gate(logits.copy(), cfg), cfg, 40)
        assert np.array_equal(a.slots, b.slots)
        assert np.array_equal(a.gate_probs, b.gate_probs)

    def test_empty_batch(self):
        cfg = GatingConfig(num_experts=4, k=1)
        plan = build_dispatch_plan(top_k_gate(np.zeros((0, 4)), cfg), cfg, 0)
        assert plan.capacity == 0
        assert plan.slots.shape == (0, 1)
        assert plan.slot_tokens.shape == (4, 0)
        counter = OpCounter()
        buffers = scatter_tokens(np.zeros((0, 3)), plan, counter)
        assert buffers.data.shape == (4, 0, 3)
        out = combine_tokens(buffers, plan, counter)
        assert out.shape == (0, 3)
        assert counter.ops == 0


# ---------------------------------------------------------------------------
# scatter / combine vs oracles
# ---------------------------------------------------------------------------


def random_instance(rng, s=None, e=None, m=None, k=None, cf=None):
    s = s or int(rng.integers(1, 129))
    e = e or int(rng.integers(2, 17))
    m = m or int(rng.integers(2, 17))
    k = k or int(rng.choice([1, 2]))
    cf = cf or float(rng.choice([0.5, 1.0, 2.0]))
    cfg = GatingConfig(num_experts=e, k=k, capacity_factor=cf)
    batch = rng.standard_normal((s, m))
    gates = top_k_gate(rng.standard_normal((s, e)), cfg)
    plan = build_dispatch_plan(gates, cfg, s)
    return batch, gates, cfg, plan


class TestScatterCombine:
    def test_scatter_places_rows_exactly(self):
        cfg = GatingConfig(num_experts=2, k=1, capacity_factor=1.0)
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        batch = np.arange(8.0).reshape(4, 2)
        plan = build_dispatch_plan(top_k_gate(logits, cfg), cfg, 4)
        buffers = scatter_tokens(batch, plan)
        assert np.array_equal(buffers.data[0, 0], batch[0])
        assert np.array_equal(buffers.data[1, 0], batch[1])
        assert np.array_equal(buffers.data[0, 1], batch[2])
        assert np.array_equal(buffers.data[1, 1], batch[3])
        assert (plan.expert_load == plan.capacity).all()
        assert plan.slot_tokens.tolist() == [[0, 2], [1, 3]]

    def test_unoccupied_slots_zero(self):
        cfg = GatingConfig(num_experts=4, k=1, capacity_factor=2.0)
        rng = np.random.default_rng(7)
        batch = rng.standard_normal((8, 3))
        plan = build_dispatch_plan(top_k_gate(rng.standard_normal((8, 4)), cfg), cfg, 8)
        buffers = scatter_tokens(batch, plan)
        occupied = np.arange(plan.capacity) < plan.expert_load[:, None]
        assert not occupied.all()
        assert not np.any(buffers.data[~occupied])
        assert not np.any(plan.slot_tokens[~occupied])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scatter_rejects_non_finite_batch(self, bad):
        cfg = GatingConfig(num_experts=2, k=1, capacity_factor=2.0)
        plan = build_dispatch_plan(top_k_gate(np.zeros((4, 2)), cfg), cfg, 4)
        batch = np.ones((4, 3))
        batch[3, 2] = bad
        with pytest.raises(ShapeError):
            scatter_tokens(batch, plan)

    @pytest.mark.parametrize("batch", [np.ones((4, 3), dtype=complex), np.full((4, 3), "a")])
    def test_scatter_rejects_non_real_batch(self, batch):
        cfg = GatingConfig(num_experts=2, k=1, capacity_factor=2.0)
        plan = build_dispatch_plan(top_k_gate(np.zeros((4, 2)), cfg), cfg, 4)
        with pytest.raises(ShapeError, match="token batch must be real numbers"):
            scatter_tokens(batch, plan)

    @pytest.mark.parametrize("shape", [(2, 4), (2, 4, 3, 1)])
    def test_combine_rejects_buffer_not_3d(self, shape):
        cfg = GatingConfig(num_experts=2, k=1, capacity_factor=2.0)
        plan = build_dispatch_plan(top_k_gate(np.zeros((4, 2)), cfg), cfg, 4)
        with pytest.raises(ShapeError, match="buffer shape"):
            combine_tokens(ExpertBuffers(data=np.zeros(shape)), plan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_combine_rejects_non_finite_kept_output(self, bad):
        cfg = GatingConfig(num_experts=2, k=2, capacity_factor=1.0)
        plan = build_dispatch_plan(top_k_gate(np.zeros((4, 2)), cfg), cfg, 4)
        data = np.ones((2, plan.capacity, 3))
        data[1, 3, 2] = bad  # token 3's second choice
        with pytest.raises(NonFiniteError, match="expert outputs contain NaN or inf"):
            combine_tokens(ExpertBuffers(data=data), plan)

    def test_combine_ignores_nan_in_empty_slot_read_by_drop(self):
        cfg = GatingConfig(num_experts=2, k=1, capacity_factor=0.5)
        logits = np.tile([[0.0, 1.0]], (4, 1))  # all to expert 1, capacity 1
        plan = build_dispatch_plan(top_k_gate(logits, cfg), cfg, 4)
        data = np.ones((2, 1, 3))
        data[0] = np.nan  # expert 0's empty slot: the row the three drops read
        out = combine_tokens(ExpertBuffers(data=data), plan)
        assert np.array_equal(out[0], np.full(3, plan.gate_probs[0, 0]))
        assert not np.any(out[1:])

    def test_scatter_bitwise_equals_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            batch, gates, cfg, plan = random_instance(rng)
            dense = scatter_tokens(batch, plan)
            sparse = sparse_dispatch_oracle(batch, gates, cfg)
            assert np.array_equal(dense.data, sparse)

    def test_combine_matches_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            batch, gates, cfg, plan = random_instance(rng)
            buffers = scatter_tokens(batch, plan)
            expert_out = np.tanh(buffers.data)  # stand-in expert computation
            dense = combine_tokens(ExpertBuffersLike(expert_out), plan)
            sparse = sparse_combine_oracle(expert_out, gates, cfg)
            assert np.max(np.abs(dense - sparse)) <= 1e-12 if dense.size else True

    def test_identity_experts_roundtrip_scales_by_prob(self):
        rng = np.random.default_rng(10)
        cfg = GatingConfig(num_experts=4, k=1, capacity_factor=4.0)
        batch = rng.standard_normal((16, 5))
        gates = top_k_gate(rng.standard_normal((16, 4)), cfg)
        plan = build_dispatch_plan(gates, cfg, 16)
        out = combine_tokens(scatter_tokens(batch, plan), plan)
        want = batch * gates.gate_probs[:, 0:1]
        assert np.max(np.abs(out - want)) <= 1e-15

    def test_fully_dropped_token_zero_row(self):
        cfg = GatingConfig(num_experts=2, k=1, capacity_factor=0.5)
        logits = np.tile([[1.0, 0.0]], (8, 1))  # all to expert 0, capacity 2
        batch = np.ones((8, 3))
        plan = build_dispatch_plan(top_k_gate(logits, cfg), cfg, 8)
        out = combine_tokens(scatter_tokens(batch, plan), plan)
        assert plan.capacity == 2
        assert not np.any(out[2:])
        assert np.all(out[:2] != 0)

    def test_k2_rows_sum_both_experts(self):
        rng = np.random.default_rng(11)
        cfg = GatingConfig(num_experts=4, k=2, capacity_factor=8.0)
        batch = rng.standard_normal((12, 6))
        gates = top_k_gate(rng.standard_normal((12, 4)), cfg)
        plan = build_dispatch_plan(gates, cfg, 12)
        out = combine_tokens(scatter_tokens(batch, plan), plan)
        want = batch * (gates.gate_probs[:, 0] + gates.gate_probs[:, 1])[:, None]
        assert np.max(np.abs(out - want)) <= 1e-12

    def test_routing_roundtrip_preserves_order(self):
        # with single-expert routing the pipeline must return rows in place
        rng = np.random.default_rng(12)
        cfg = GatingConfig(num_experts=1, k=1, capacity_factor=1.0)
        batch = rng.standard_normal((10, 4))
        gates = top_k_gate(np.zeros((10, 1)), cfg)
        plan = build_dispatch_plan(gates, cfg, 10)
        out = combine_tokens(scatter_tokens(batch, plan), plan)
        assert np.array_equal(out, batch)  # gate prob of a single expert is exactly 1


class ExpertBuffersLike:
    """Minimal stand-in so combine can take transformed buffer contents."""

    def __init__(self, data: np.ndarray):
        self.data = data


# ---------------------------------------------------------------------------
# op counting
# ---------------------------------------------------------------------------


class TestOpCounts:
    def test_ratio_is_expert_count(self):
        rng = np.random.default_rng(13)
        for e in (4, 8, 16):
            cfg = GatingConfig(num_experts=e, k=1, capacity_factor=1.0)
            batch = rng.standard_normal((64, 32))
            gates = top_k_gate(rng.standard_normal((64, e)), cfg)
            plan = build_dispatch_plan(gates, cfg, 64)
            dense_ops, oracle_ops = OpCounter(), OpCounter()
            buffers = scatter_tokens(batch, plan, dense_ops)
            combine_tokens(buffers, plan, dense_ops)
            sparse_dispatch_oracle(batch, gates, cfg, oracle_ops)
            sparse_combine_oracle(buffers.data, gates, cfg, oracle_ops)
            ratio = oracle_ops.ops / dense_ops.ops
            assert 0.8 * e <= ratio <= 1.2 * e

    def test_ratio_grows_linearly_in_e(self):
        rng = np.random.default_rng(14)
        ratios = {}
        for e in (2, 4, 8, 16):
            cfg = GatingConfig(num_experts=e, k=2, capacity_factor=1.5)
            batch = rng.standard_normal((48, 8))
            gates = top_k_gate(rng.standard_normal((48, e)), cfg)
            plan = build_dispatch_plan(gates, cfg, 48)
            dense_ops, oracle_ops = OpCounter(), OpCounter()
            combine_tokens(scatter_tokens(batch, plan, dense_ops), plan, dense_ops)
            sparse_dispatch_oracle(batch, gates, cfg, oracle_ops)
            sparse_combine_oracle(np.zeros_like(scatter_tokens(batch, plan).data), gates, cfg, oracle_ops)
            ratios[e] = oracle_ops.ops / dense_ops.ops
        for e in (2, 4, 8):
            assert ratios[2 * e] == pytest.approx(2 * ratios[e], rel=0.01)


# ---------------------------------------------------------------------------
# bitwise equivalence with the earlier stage implementations
# ---------------------------------------------------------------------------


def argsort_gate(logits: np.ndarray, cfg: GatingConfig):
    """Top-k by a stable argsort of the negated logits; returns (ids, gate_probs, probs)."""
    shifted = logits - logits.max(axis=1, keepdims=True) if logits.size else logits
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True) if logits.size else e
    ids = np.argsort(-logits, axis=1, kind="stable")[:, : cfg.k].astype(np.int64)
    sel = np.take_along_axis(probs, ids, axis=1) if logits.size else np.zeros_like(ids, dtype=float)
    return ids, sel, probs


def scan_slots(expert_ids: np.ndarray, cfg: GatingConfig, num_tokens: int):
    """Slots from one exclusive Blelloch scan per expert's indicator vector; returns (slots, load)."""
    cap = cfg.capacity(num_tokens)
    flat_ids = expert_ids.reshape(-1)
    slots_flat = np.full(flat_ids.shape[0], DROPPED, dtype=np.int64)
    load = np.zeros(cfg.num_experts, dtype=np.int64)
    for e in range(cfg.num_experts):
        indicator = (flat_ids == e).astype(np.int64)
        prior = exclusive_scan_blelloch(indicator)
        mine = indicator == 1
        slot = prior[mine]
        kept = slot < cap
        slots_flat[np.where(mine)[0][kept]] = slot[kept]
        load[e] = int(kept.sum())
    return slots_flat.reshape(num_tokens, cfg.k), load


def slot_table_from_slots(expert_ids, slots, cfg: GatingConfig, cap: int) -> np.ndarray:
    """(E, c) table of the token in each kept slot, 0 in empty slots."""
    table = np.zeros((cfg.num_experts, cap), dtype=np.int64)
    kept = slots != DROPPED
    table[expert_ids[kept], slots[kept]] = np.nonzero(kept)[0]
    return table


def zero_fill_scatter(batch: np.ndarray, plan: DispatchPlan):
    """Zero (E, c, M) buffers, then one fancy-index assignment of the kept rows."""
    data = np.zeros((plan.num_experts, plan.capacity, batch.shape[1]))
    occupied = np.zeros((plan.num_experts, plan.capacity), dtype=bool)
    kept = plan.kept_mask()
    e_ids, slots = plan.expert_ids[kept], plan.slots[kept]
    data[e_ids, slots] = batch[np.nonzero(kept)[0]]
    occupied[e_ids, slots] = True
    return data, occupied


def add_at_combine(data: np.ndarray, plan: DispatchPlan) -> np.ndarray:
    """np.add.at of each kept assignment's gate-scaled expert row into a zero buffer."""
    combined = np.zeros((plan.num_tokens, data.shape[2]))
    kept = plan.kept_mask()
    e_ids, slots, probs = plan.expert_ids[kept], plan.slots[kept], plan.gate_probs[kept]
    np.add.at(combined, np.nonzero(kept)[0], probs[:, None] * data[e_ids, slots])
    return combined


@st.composite
def routing_cases(draw):
    """(logits, batch, cfg): integer or half-integer logits, so ties are frequent."""
    s = draw(st.integers(0, 40))
    e = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(2, e)))
    cf = draw(st.sampled_from([0.05, 0.3, 1.0, 1.25, 4.0]))  # 0.05 drops most assignments
    m = draw(st.integers(1, 5))
    logits = draw(arrays(np.float64, (s, e), elements=st.integers(-4, 4).map(lambda v: v / 2)))
    batch = draw(arrays(np.float64, (s, m), elements=st.floats(-1e3, 1e3, width=64)))
    return logits, batch, GatingConfig(num_experts=e, k=k, capacity_factor=cf)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(routing_cases())
def test_routing_stages_match_earlier_implementations_bitwise(case):
    logits, batch, cfg = case
    s = logits.shape[0]
    gate = top_k_gate(logits, cfg)
    ids, gate_probs, probs = argsort_gate(logits, cfg)
    assert_same_bits(gate.expert_ids, ids)
    assert_same_bits(gate.gate_probs, gate_probs)
    assert_same_bits(gate.probs, probs)

    plan = build_dispatch_plan(gate, cfg, s)
    slots, load = scan_slots(ids, cfg, s)
    assert_same_bits(plan.slots, slots)
    assert_same_bits(plan.expert_load, load)
    assert_same_bits(plan.slot_tokens, slot_table_from_slots(ids, slots, cfg, plan.capacity))

    buffers = scatter_tokens(batch, plan)
    data, occupied = zero_fill_scatter(batch, plan)
    assert_same_bits(buffers.data, data)
    assert_same_bits(np.arange(plan.capacity) < plan.expert_load[:, None], occupied)

    # identity experts, then experts that also write unoccupied slots
    for expert_out in (buffers.data, np.sin(buffers.data) * 3.0 + 1.0):
        got = combine_tokens(ExpertBuffersLike(expert_out), plan)
        assert_same_bits(got, add_at_combine(expert_out, plan))


# The same comparison at batch sizes around the row blocks of the blocked gate
# softmax and combine. The expert count and the hidden width are equal, so both
# stages cut their rows at the same places.
BLOCK_WIDTH = 128
BLOCK_ROWS = max(1, gating._BLOCK_BYTES // (8 * BLOCK_WIDTH))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "s", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7]
)
def test_routing_stages_match_earlier_implementations_across_row_blocks(s, k):
    rng = np.random.default_rng([s, k])
    cfg = GatingConfig(num_experts=BLOCK_WIDTH, k=k, capacity_factor=1.0)
    logits = rng.standard_normal((s, BLOCK_WIDTH)) + 0.5 * rng.standard_normal(BLOCK_WIDTH)
    logits[:, 0] = -40.0  # expert 0 stays empty: the row a dropped assignment reads is unoccupied
    batch = rng.standard_normal((s, BLOCK_WIDTH))
    batch[::5] = -0.0
    batch[rng.random(batch.shape) < 0.05] = -0.0

    gate = top_k_gate(logits, cfg)
    ids, gate_probs, probs = argsort_gate(logits, cfg)
    assert_same_bits(gate.expert_ids, ids)
    assert_same_bits(gate.gate_probs, gate_probs)
    assert_same_bits(gate.probs, probs)

    plan = build_dispatch_plan(gate, cfg, s)
    kept = plan.kept_mask()
    assert kept.any() and not kept.all()
    buffers = scatter_tokens(batch, plan)
    data, occupied = zero_fill_scatter(batch, plan)
    assert_same_bits(buffers.data, data)

    # identity experts, then experts that write inf to every unoccupied slot
    inf_outside = np.where(occupied[:, :, None], np.sin(buffers.data) * 3.0 + 1.0, np.inf)
    for expert_out in (buffers.data, inf_outside):
        got = combine_tokens(ExpertBuffersLike(expert_out), plan)
        assert_same_bits(got, add_at_combine(expert_out, plan))


# ---------------------------------------------------------------------------
# large calls split across worker threads
# ---------------------------------------------------------------------------

# Every stage's array is over 2 * gating._MIN_PART_BYTES and an expert's slots
# over gating._MIN_EXPERT_BYTES, so with two or more workers the gate, the
# scatter and the combine all split.
SPLIT_S, SPLIT_E, SPLIT_M = 20000, 64, 64


def split_inputs(k: int):
    rng = np.random.default_rng([20, k])
    logits = rng.standard_normal((SPLIT_S, SPLIT_E)) + 0.3 * rng.standard_normal(SPLIT_E)
    batch = rng.standard_normal((SPLIT_S, SPLIT_M))
    batch[::7] = -0.0
    return logits, batch, GatingConfig(num_experts=SPLIT_E, k=k, capacity_factor=1.0)


def route_split_batch(k: int) -> dict[str, np.ndarray]:
    logits, batch, cfg = split_inputs(k)
    gate = top_k_gate(logits, cfg)
    plan = build_dispatch_plan(gate, cfg, SPLIT_S)
    buffers = scatter_tokens(batch, plan)
    return {
        "expert_ids": gate.expert_ids,
        "gate_probs": gate.gate_probs,
        "probs": gate.probs,
        "slots": plan.slots,
        "slot_tokens": plan.slot_tokens,
        "expert_load": plan.expert_load,
        "scatter": buffers.data,
        "combine_identity": combine_tokens(buffers, plan),
        "combine": combine_tokens(ExpertBuffersLike(np.sin(buffers.data) * 3.0 + 1.0), plan),
    }


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_split_stages_bitwise_equal_one_worker(k, workers, monkeypatch):
    split_calls = []
    run_parts = gating._run_parts

    def counting_run_parts(fn, parts, *args):
        split_calls.append((fn.__name__, len(parts)))
        return run_parts(fn, parts, *args)

    monkeypatch.setattr(gating, "_run_parts", counting_run_parts)
    monkeypatch.setattr(gating, "_WORKERS", 1)
    one = route_split_batch(k)
    assert split_calls == [("_scatter_part", 1), ("_combine_rows", 1), ("_combine_rows", 1)]
    assert 0 < int(one["expert_load"].sum()) < SPLIT_S * k  # some assignments drop

    split_calls.clear()
    monkeypatch.setattr(gating, "_WORKERS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the interpreter lock as often as they can
    try:
        split = route_split_batch(k)
    finally:
        sys.setswitchinterval(interval)
    stages = ["_gate_part", "_scatter_part", "_combine_rows", "_combine_rows"]
    assert split_calls == [(stage, workers) for stage in stages]
    for name, want in one.items():
        assert_same_bits(split[name], want)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_split_stages_reject_non_finite_in_last_part(bad, workers, monkeypatch):
    monkeypatch.setattr(gating, "_WORKERS", workers)
    logits, batch, cfg = split_inputs(2)
    plan = build_dispatch_plan(top_k_gate(logits, cfg), cfg, SPLIT_S)
    buffers = scatter_tokens(batch, plan)
    token, choice = np.argwhere(plan.kept_mask())[-1]
    assert token >= SPLIT_S * (workers - 1) // workers  # in the combine's last part
    buffers.data[plan.expert_ids[token, choice], plan.slots[token, choice], -1] = bad
    with pytest.raises(NonFiniteError, match="expert outputs contain NaN or inf"):
        combine_tokens(buffers, plan)
    logits[-1, -1] = bad
    with pytest.raises(NonFiniteError, match="gate logits contain NaN or inf"):
        top_k_gate(logits, cfg)
    batch[-1, -1] = bad
    with pytest.raises(NonFiniteError, match="token batch contains NaN or inf"):
        scatter_tokens(batch, plan)


def test_small_routing_starts_no_thread():
    # a fresh interpreter, because this one may already hold the pool
    code = """
import threading
import numpy as np
from moekit import gating
rng = np.random.default_rng(0)
for s in (32, 128):
    cfg = gating.GatingConfig(num_experts=4, k=1)
    plan = gating.build_dispatch_plan(gating.top_k_gate(rng.standard_normal((s, 4)), cfg), cfg, s)
    gating.combine_tokens(gating.scatter_tokens(rng.standard_normal((s, 16)), plan), plan)
assert threading.active_count() == 1, threading.enumerate()
assert gating._pool.cache_info().currsize == 0
"""
    src = str(Path(gating.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], cwd=src, check=True, timeout=60)


def test_forked_child_routes_after_split(monkeypatch):
    monkeypatch.setattr(gating, "_WORKERS", 2)
    route_split_batch(1)  # the pool now has a live thread, which a fork does not copy
    child = multiprocessing.get_context("fork").Process(target=route_split_batch, args=(1,))
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join(timeout=10)
    assert not hung and child.exitcode == 0

    # kd-demo's runs fork a child per part with the pool thread still alive
    steps = distill._MIN_PART_STEPS
    split = distill.staged_vs_constant(range(2), steps=steps, boundary=steps // 2)
    monkeypatch.setattr(gating, "_WORKERS", 1)
    assert split == distill.staged_vs_constant(range(2), steps=steps, boundary=steps // 2)
