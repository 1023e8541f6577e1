"""Tests for the cluster placement planner."""

import pytest

from moekit.arch import build_pr_moe, build_standard, count_params, dense_config
from moekit.planner import (
    ClusterTopology,
    LayerPlacement,
    LinkSpec,
    ParallelPlan,
    PlanError,
    memory_per_device,
    plan,
    validate,
)

CLUSTER_128 = ClusterTopology(nodes=16, gpus_per_node=8)


def _moe_cfg(experts, hidden=2048, layers=24, heads=16):
    return build_standard(dense_config(layers, hidden, heads), experts)


# ---------------------------------------------------------------------------
# degree selection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "experts,ep,dp",
    [(32, 32, 4), (64, 64, 2), (128, 128, 1)],
)
def test_expert_degree_tracks_expert_count(experts, ep, dp):
    built = plan(_moe_cfg(experts), CLUSTER_128)
    assert built.world_size == 128
    for p in built.placements:
        assert p.ep_degree == ep
        assert p.expert_dp == dp
        assert p.expert_slice == 1
        assert p.ep_degree * p.expert_dp * p.expert_slice == 128


def test_one_expert_per_device_at_full_spread():
    built = plan(_moe_cfg(128), CLUSTER_128)
    assert all(p.experts_per_device == 1 for p in built.placements)


def test_placements_cover_routed_layers_only():
    built = plan(_moe_cfg(64), CLUSTER_128)
    assert [p.layer_index for p in built.placements] == list(range(1, 24, 2))
    assert all(p.num_experts == 64 for p in built.placements)


def test_pyramid_layers_get_individual_degrees():
    cfg = build_pr_moe(dense_config(24, 2048, 16), (64,) * 10 + (128,) * 2)
    built = plan(cfg, CLUSTER_128)
    degrees = {p.layer_index: (p.ep_degree, p.expert_dp) for p in built.placements}
    assert degrees[1] == (64, 2)
    assert degrees[23] == (128, 1)


def test_latency_mode_slices_when_world_exceeds_experts():
    cluster = ClusterTopology(nodes=32, gpus_per_node=8)  # world 256
    built = plan(_moe_cfg(128), cluster, latency_mode=True)
    for p in built.placements:
        assert (p.ep_degree, p.expert_dp, p.expert_slice) == (128, 1, 2)


def test_latency_mode_noop_when_experts_cover_world():
    built = plan(_moe_cfg(128), CLUSTER_128, latency_mode=True)
    assert all(p.expert_slice == 1 for p in built.placements)


def test_throughput_mode_replicates_when_world_exceeds_experts():
    cluster = ClusterTopology(nodes=32, gpus_per_node=8)
    built = plan(_moe_cfg(128), cluster, latency_mode=False)
    for p in built.placements:
        assert (p.ep_degree, p.expert_dp, p.expert_slice) == (128, 2, 1)


def test_dense_model_plans_with_no_placements():
    built = plan(dense_config(24, 2048, 16), CLUSTER_128, tensor_slice=8)
    assert built.placements == ()


# ---------------------------------------------------------------------------
# rejection
# ---------------------------------------------------------------------------


def test_fractional_replica_rejected():
    cluster = ClusterTopology(nodes=6, gpus_per_node=8)  # world 48, experts 32
    with pytest.raises(PlanError):
        plan(_moe_cfg(32), cluster)


def test_uneven_expert_split_rejected():
    cluster = ClusterTopology(nodes=3, gpus_per_node=8)  # world 24 < 32 experts
    with pytest.raises(PlanError):
        plan(_moe_cfg(32), cluster)


def test_fractional_slice_rejected():
    cluster = ClusterTopology(nodes=6, gpus_per_node=8)  # world 48 > 32 experts
    with pytest.raises(PlanError):
        plan(_moe_cfg(32), cluster, latency_mode=True)


def test_tensor_slice_must_fit_in_node():
    with pytest.raises(PlanError, match="span nodes"):
        plan(_moe_cfg(128), CLUSTER_128, tensor_slice=16)


def test_tensor_slice_must_divide_node():
    cluster = ClusterTopology(nodes=16, gpus_per_node=8)
    with pytest.raises(PlanError):
        plan(_moe_cfg(128), cluster, tensor_slice=3)


def test_cluster_validation():
    with pytest.raises(PlanError):
        ClusterTopology(nodes=0, gpus_per_node=8)
    with pytest.raises(PlanError):
        LinkSpec(latency_s=-1.0, bandwidth_bytes_per_s=1e9)
    with pytest.raises(PlanError):
        LinkSpec(latency_s=1e-6, bandwidth_bytes_per_s=0.0)


# ---------------------------------------------------------------------------
# validate() on hand-built plans
# ---------------------------------------------------------------------------


def _hand_plan(ep, dp, slice_=1, world=128, experts=128):
    return ParallelPlan(
        world_size=world,
        gpus_per_node=8,
        tensor_slice=1,
        placements=(
            LayerPlacement(
                layer_index=1,
                num_experts=experts,
                ep_degree=ep,
                expert_dp=dp,
                expert_slice=slice_,
            ),
        ),
    )


def test_validate_accepts_consistent_plan():
    assert validate(_hand_plan(128, 1)) == []
    assert validate(_hand_plan(64, 2)) == []
    assert validate(_hand_plan(128, 1, slice_=2, world=256)) == []


def test_validate_flags_uneven_expert_degree():
    problems = validate(_hand_plan(96, 1))
    assert any("uneven experts" in p for p in problems)
    assert any("!= world" in p for p in problems)


def test_validate_flags_bad_degree_product():
    problems = validate(_hand_plan(64, 3))
    assert len(problems) == 1
    assert "64 * dp 3" in problems[0]


def test_validate_flags_oversized_tensor_group():
    built = ParallelPlan(world_size=128, gpus_per_node=8, tensor_slice=16, placements=())
    problems = validate(built)
    assert any("does not fit inside a node" in p for p in problems)


def test_validate_flags_ep_above_expert_count():
    problems = validate(_hand_plan(256, 1, world=256))
    assert any("exceeds" in p for p in problems)


def test_validate_checks_layer_coverage_against_model():
    cfg = _moe_cfg(128)
    built = _hand_plan(128, 1)  # covers layer 1 only, model routes 12 layers
    problems = validate(built, cfg)
    assert any("do not match routed layers" in p for p in problems)
    full = plan(cfg, CLUSTER_128)
    assert validate(full, cfg) == []


def test_expert_block_is_contiguous():
    p = LayerPlacement(layer_index=1, num_experts=128, ep_degree=32, expert_dp=4)
    assert p.expert_block(0) == (0, 4)
    assert p.expert_block(31) == (124, 128)
    blocks = [p.expert_block(r) for r in range(32)]
    assert all(b[1] - b[0] == 4 for b in blocks)
    assert [b[0] for b in blocks] == list(range(0, 128, 4))
    with pytest.raises(PlanError):
        p.expert_block(32)


# ---------------------------------------------------------------------------
# memory accounting
# ---------------------------------------------------------------------------


def test_memory_matches_hand_formula():
    cfg = _moe_cfg(128)  # 52B total
    built = plan(cfg, CLUSTER_128)
    est = memory_per_device(built, cfg, bytes_per_param=2)
    pc = count_params(cfg)
    assert est.expert_bytes == pytest.approx(pc.expert_params / 128 * 2, rel=1e-12)
    assert est.non_expert_bytes == pytest.approx(pc.non_expert_params * 2, rel=1e-12)
    assert est.total_bytes == est.expert_bytes + est.non_expert_bytes


def test_memory_shrinks_with_tensor_slice():
    cfg = _moe_cfg(128)
    plain = memory_per_device(plan(cfg, CLUSTER_128), cfg)
    sliced = memory_per_device(plan(cfg, CLUSTER_128, tensor_slice=8), cfg)
    assert sliced.non_expert_bytes == pytest.approx(plain.non_expert_bytes / 8, rel=1e-12)
    assert sliced.expert_bytes == plain.expert_bytes


def test_memory_shrinks_with_expert_slice():
    cfg = _moe_cfg(128)
    cluster = ClusterTopology(nodes=32, gpus_per_node=8)
    replicated = memory_per_device(plan(cfg, cluster), cfg)
    sliced = memory_per_device(plan(cfg, cluster, latency_mode=True), cfg)
    assert sliced.expert_bytes == pytest.approx(replicated.expert_bytes / 2, rel=1e-12)


def test_memory_refuses_inconsistent_plan():
    cfg = _moe_cfg(128)
    with pytest.raises(PlanError):
        memory_per_device(_hand_plan(96, 1), cfg)


def test_memory_fits_single_device_for_largest_preset():
    # the 52B model in half precision: under 8 GB per device at full spread
    cfg = _moe_cfg(128)
    est = memory_per_device(plan(cfg, CLUSTER_128), cfg, bytes_per_param=2)
    assert est.total_bytes < 8e9


def test_active_params_stay_near_dense_base():
    cfg = _moe_cfg(128)
    active = count_params(cfg).active_per_token
    assert abs(active - 1.3e9) / 1.3e9 < 0.05
