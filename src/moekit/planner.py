"""Placement planning for expert-sparse models on multi-GPU clusters.

Given a model description and a cluster shape, ``plan`` picks a parallel
degree for every routed layer:

  * expert parallelism spreads whole experts across devices, at most one
    group per expert, so its degree is capped at the layer's expert count;
  * leftover devices replicate the expert set (expert data parallelism), or,
    in latency mode, slice each expert's weight matrices instead so that all
    devices participate in a single token batch;
  * tensor slicing for the non-expert weights is a separate degree that must
    fit inside one node.

Every routed layer satisfies ep_degree * expert_dp * expert_slice ==
world_size. ``validate`` is the one place that checks those identities, on
the plans ``plan`` builds and on hand-built ones, and ``memory_per_device``
turns a plan into a per-device weight footprint.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._contract import _as_int, _checked, _instance, _int_in, _is_int, _number_in
from .arch import MoeModelConfig, count_params, count_params_per_layer

__all__ = [
    "LinkSpec",
    "ClusterTopology",
    "PlanError",
    "LayerPlacement",
    "ParallelPlan",
    "MemoryEstimate",
    "plan",
    "validate",
    "memory_per_device",
]


class PlanError(ValueError):
    """Raised when no consistent placement exists for the inputs."""


@dataclass(frozen=True)
@_checked(PlanError, latency_s=(_number_in,), bandwidth_bytes_per_s=(_number_in, True))
class LinkSpec:
    """A link class: per-message latency and sustained bandwidth."""

    latency_s: float
    bandwidth_bytes_per_s: float


@dataclass(frozen=True)
@_checked(
    PlanError, nodes=(_int_in, 1), gpus_per_node=(_int_in, 1), intra_link=(_instance, LinkSpec),
    inter_link=(_instance, LinkSpec),
)
class ClusterTopology:
    """Homogeneous cluster: ``nodes`` machines with ``gpus_per_node`` each.

    Ranks are numbered node-major, so ranks [0, gpus_per_node) share the
    first node's fast links.
    """

    nodes: int
    gpus_per_node: int
    intra_link: LinkSpec = LinkSpec(1e-6, 300e9)  # frozen, so every default topology shares it
    inter_link: LinkSpec = LinkSpec(5e-6, 50e9)

    @property
    def world_size(self) -> int:
        return self.nodes * self.gpus_per_node


@dataclass(frozen=True)
class LayerPlacement:
    """Parallel degrees for one routed layer."""

    layer_index: int
    num_experts: int
    ep_degree: int
    expert_dp: int
    expert_slice: int = 1

    @property
    def experts_per_device(self) -> int:
        # only meaningful when ep_degree divides num_experts; validate() flags
        # the uneven case
        return self.num_experts // self.ep_degree

    def expert_block(self, ep_rank: int) -> tuple[int, int]:
        """Half-open range of expert ids owned by one expert-parallel rank.

        Blocks are contiguous: rank 0 gets the lowest expert ids.
        """
        ep_rank = _int_in("ep_rank", ep_rank, 0, self.ep_degree - 1, PlanError)
        width = self.num_experts // self.ep_degree
        return ep_rank * width, (ep_rank + 1) * width


@dataclass(frozen=True)
class ParallelPlan:
    world_size: int
    gpus_per_node: int
    tensor_slice: int
    placements: tuple[LayerPlacement, ...]

    def placement_for(self, layer_index: int) -> LayerPlacement:
        for p in self.placements:
            if p.layer_index == layer_index:
                return p
        raise PlanError(f"no placement for layer {layer_index}")


@_checked(
    PlanError, cfg=(_instance, MoeModelConfig), cluster=(_instance, ClusterTopology),
    latency_mode=(_instance, bool),
)
def plan(
    cfg: MoeModelConfig,
    cluster: ClusterTopology,
    latency_mode: bool = False,
    tensor_slice: int = 1,
) -> ParallelPlan:
    """Choose per-layer parallel degrees for ``cfg`` on ``cluster``.

    Default policy: the expert-parallel degree is min(experts, world), the
    rest of the world replicates (expert_dp = world / ep). In latency mode a
    world larger than the expert count slices each expert instead,
    expert_slice = world / experts, keeping a single replica so one batch
    uses every device.
    """
    world = cluster.world_size
    placements = []
    for idx in cfg.moe_layer_indices:
        experts = cfg.layers[idx].experts
        ep = min(experts, world)
        # validate() below rejects degrees that do not divide evenly
        if latency_mode and world > experts:
            dp, slice_ = 1, world // experts
        else:
            dp, slice_ = world // ep, 1
        placements.append(LayerPlacement(idx, experts, ep, dp, slice_))

    built = ParallelPlan(
        world_size=world,
        gpus_per_node=cluster.gpus_per_node,
        tensor_slice=_as_int(tensor_slice),
        placements=tuple(placements),
    )
    problems = validate(built, cfg)
    if problems:
        raise PlanError("; ".join(problems))
    return built


def validate(built: ParallelPlan, cfg: MoeModelConfig | None = None) -> list[str]:
    """Structural checks; returns a list of violation strings (empty = ok).

    A per-layer problem shared by several layers is reported once, naming
    them all: "layers 1,3,5: ...".
    """
    _instance("built", built, ParallelPlan, PlanError)
    _instance("cfg", cfg, (MoeModelConfig, type(None)), PlanError)
    problems: list[str] = []
    if built.world_size < 1:
        problems.append("world_size must be positive")
        return problems
    if built.gpus_per_node < 1 or built.world_size % built.gpus_per_node != 0:
        problems.append(
            f"gpus_per_node {built.gpus_per_node} does not divide world {built.world_size}"
        )
    if not _is_int(built.tensor_slice) or built.tensor_slice < 1:
        problems.append(f"tensor_slice must be an int >= 1, got {built.tensor_slice!r}")
    elif built.gpus_per_node % built.tensor_slice != 0:
        problems.append(
            f"tensor_slice {built.tensor_slice} does not fit inside a node of "
            f"{built.gpus_per_node} GPUs: tensor groups may not span nodes"
        )

    per_layer: list[tuple[int, str]] = []
    for p in built.placements:
        i, ep, dp, sl, e = p.layer_index, p.ep_degree, p.expert_dp, p.expert_slice, p.num_experts
        if ep < 1 or dp < 1 or sl < 1:
            per_layer.append((i, "degrees must be >= 1"))
            continue
        if ep * dp * sl != built.world_size:
            per_layer.append((i, f"ep {ep} * dp {dp} * slice {sl} != world {built.world_size}"))
        if ep > e:
            per_layer.append((i, f"ep degree {ep} exceeds {e} experts"))
        elif e % ep != 0:
            per_layer.append((i, f"uneven experts per device ({e} experts over ep degree {ep})"))

    if cfg is not None:
        want = {i: cfg.layers[i].experts for i in cfg.moe_layer_indices}
        got = {p.layer_index: p.num_experts for p in built.placements}
        if set(want) != set(got):
            problems.append(
                f"placement layers {sorted(got)} do not match routed layers {sorted(want)}"
            )
        else:
            for i, e in want.items():
                if got[i] != e:
                    per_layer.append((i, f"placement has {got[i]} experts, model has {e}"))

    layers_with: dict[str, list[str]] = {}  # problem -> the layers that have it, in order
    for layer, problem in per_layer:
        layers_with.setdefault(problem, []).append(str(layer))
    for problem, layers in layers_with.items():
        problems.append(f"layer{'s' * (len(layers) > 1)} {','.join(layers)}: {problem}")
    return problems


@dataclass(frozen=True)
class MemoryEstimate:
    """Per-device weight bytes, split by which degree shards them."""

    expert_bytes: float
    non_expert_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.expert_bytes + self.non_expert_bytes


@_checked(
    PlanError, built=(_instance, ParallelPlan), cfg=(_instance, MoeModelConfig),
    bytes_per_param=(_number_in, True),
)
def memory_per_device(
    built: ParallelPlan, cfg: MoeModelConfig, bytes_per_param: int = 2
) -> MemoryEstimate:
    """Weight footprint on one device under the plan.

    Expert weights shard over ep_degree * expert_slice per layer; everything
    else (attention, dense FFN, norms, gates, embeddings) shards only over
    the tensor-slice degree.
    """
    problems = validate(built, cfg)
    if problems:
        raise PlanError("; ".join(problems))
    per_layer = count_params_per_layer(cfg)
    expert = 0.0
    for i in cfg.moe_layer_indices:
        p = built.placement_for(i)
        expert += per_layer[i].expert / (p.ep_degree * p.expert_slice)
    non_expert = count_params(cfg).non_expert_params / built.tensor_slice
    return MemoryEstimate(
        expert_bytes=expert * bytes_per_param,
        non_expert_bytes=non_expert * bytes_per_param,
    )
