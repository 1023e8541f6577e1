"""Layer-stack descriptions, parameter/FLOP accounting, and layer evaluation.

A model is a flat stack of transformer blocks. Every block carries attention
(accounted analytically, never evaluated here) plus one feed-forward slot:

  dense block     y = x + FFN(x)
  moe block       y = x + combine(experts(scatter(x)))
  residual moe    y = x + combine(experts(scatter(x))) + MLP(x)
                  (a shared feed-forward runs beside the experts; the expert
                  contribution acts as a correction term on top of it)

A routed layer evaluates all of its experts as one grouped tape node: the
kept rows are gathered once in slot-table order, each loaded expert runs one
GEMM pair on its own rows only (no capacity padding), one GELU covers every
row, and one scatter-add combines the gate-scaled rows per token. Its
hand-written vjp is bitwise equal to the per-expert chain of tape ops it
replaces. Expert weights stay per-expert 2-D leaves.

Builders:
  * ``build_standard``  - experts on every other feed-forward layer, uniform
    expert count (a 24-layer base gets 12 routed layers).
  * ``build_pr_moe``    - per-routed-layer expert schedule that may grow with
    depth (more experts in the last layers) plus optional residual sharing.

Accounting conventions (per block, hidden width M, feed-forward factor 4):
    attention            4*M^2 + 4*M          (QKVO projections + biases)
    feed-forward         8*M^2 + 5*M          (two projections + biases)
    layer norms          4*M                  (two per block) + 2*M final
    gate (routed layer)  M*E + E
    embeddings           vocab*M tied input/output + context*M positions
    active per token     everything a token's forward touches: all non-expert
                         weights except position rows, plus k expert
                         feed-forwards per routed layer
    flops per token      2 * active (multiply+add per touched weight;
                         attention score terms excluded by convention)
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as tk
from .gating import (
    GatingConfig,
    build_dispatch_plan,
    top_k_gate,
)
from .tensor import Tensor

__all__ = [
    "ValidationError",
    "FFN_MULT",
    "LayerSpec",
    "MoeModelConfig",
    "ParamCount",
    "dense_config",
    "build_standard",
    "build_pr_moe",
    "count_params",
    "count_params_per_layer",
    "count_flops_per_token",
    "load_balance_loss",
    "FfnParams",
    "MoeLayerParams",
    "init_layer_params",
    "forward_ffn",
    "forward_layer",
]

FFN_MULT = 4  # feed-forward inner width is always 4*M


class ValidationError(ValueError):
    """Raised for structurally invalid model descriptions."""


@dataclass(frozen=True)
class LayerSpec:
    """One transformer block. kind is "dense" or "moe"."""

    kind: str
    hidden: int
    experts: int = 0
    residual: bool = False
    gating: GatingConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("dense", "moe"):
            raise ValidationError(f"unknown layer kind {self.kind!r}")
        if self.hidden < 1:
            raise ValidationError("hidden width must be positive")
        if self.kind == "moe":
            if self.experts < 1:
                raise ValidationError("moe layer needs at least one expert")
            if self.gating is None:
                raise ValidationError("moe layer needs a gating config")
            if self.gating.num_experts != self.experts:
                raise ValidationError("gating config expert count mismatch")
        else:
            if self.experts != 0 or self.gating is not None or self.residual:
                raise ValidationError("dense layer cannot carry expert fields")


@dataclass(frozen=True)
class MoeModelConfig:
    """Immutable model description; layers length must equal num_layers."""

    num_layers: int
    hidden: int
    heads: int
    vocab: int
    context: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        if len(self.layers) != self.num_layers:
            raise ValidationError(
                f"layers tuple has {len(self.layers)} entries, num_layers={self.num_layers}"
            )
        for spec in self.layers:
            if spec.hidden != self.hidden:
                raise ValidationError("per-layer hidden width must match the model width")

    @property
    def moe_layer_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.layers) if s.kind == "moe")


@dataclass(frozen=True)
class ParamCount:
    total: int
    expert_params: int
    non_expert_params: int
    active_per_token: int


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def dense_config(
    num_layers: int,
    hidden: int,
    heads: int,
    vocab: int = 50257,
    context: int = 2048,
) -> MoeModelConfig:
    """All-dense transformer stack (the starting point for MoE variants)."""
    layers = tuple(LayerSpec(kind="dense", hidden=hidden) for _ in range(num_layers))
    return MoeModelConfig(
        num_layers=num_layers, hidden=hidden, heads=heads, vocab=vocab,
        context=context, layers=layers,
    )


def _routed_layer(base: MoeModelConfig, experts: int, residual: bool, k: int, cf: float) -> LayerSpec:
    return LayerSpec(
        kind="moe",
        hidden=base.hidden,
        experts=experts,
        residual=residual,
        gating=GatingConfig(num_experts=experts, k=k, capacity_factor=cf),
    )


def build_standard(
    base: MoeModelConfig,
    num_experts: int,
    k: int = 1,
    capacity_factor: float = 1.0,
) -> MoeModelConfig:
    """Uniform expert count on every other feed-forward layer.

    Routed layers sit at odd stack positions (1, 3, 5, ...), so an even
    num_layers L yields L/2 routed layers. This is ``build_pr_moe`` with a
    uniform schedule and no residual.
    """
    if num_experts < 1:
        raise ValidationError("num_experts must be >= 1")
    schedule = (num_experts,) * (base.num_layers // 2)
    return build_pr_moe(base, schedule, residual=False, k=k, capacity_factor=capacity_factor)


def build_pr_moe(
    base: MoeModelConfig,
    expert_schedule: tuple[int, ...],
    residual: bool = True,
    k: int = 1,
    capacity_factor: float = 1.0,
) -> MoeModelConfig:
    """Pyramid layout: one schedule entry per routed layer, shallow to deep.

    The schedule must be non-decreasing (later layers may hold more experts,
    never fewer). With a uniform schedule and residual=False this reduces to
    ``build_standard`` exactly.
    """
    if base.num_layers % 2 != 0:
        raise ValidationError("base stack must have an even layer count")
    expected = base.num_layers // 2
    if len(expert_schedule) != expected:
        raise ValidationError(
            f"schedule has {len(expert_schedule)} entries, stack needs {expected}"
        )
    if any(b < a for a, b in zip(expert_schedule, expert_schedule[1:])):
        raise ValidationError("expert schedule must be non-decreasing with depth")
    if any(e < 1 for e in expert_schedule):
        raise ValidationError("schedule entries must be >= 1")
    schedule = iter(expert_schedule)
    layers = tuple(
        _routed_layer(base, next(schedule), residual, k, capacity_factor)
        if i % 2 == 1
        else LayerSpec(kind="dense", hidden=base.hidden)
        for i in range(base.num_layers)
    )
    return replace(base, layers=layers)


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------


def _attention_params(m: int) -> int:
    return 4 * m * m + 4 * m


def _ffn_params(m: int) -> int:
    inner = FFN_MULT * m
    return 2 * m * inner + inner + m  # w1, w2, b1, b2


def _block_norm_params(m: int) -> int:
    return 4 * m  # two norms, scale + bias each


@dataclass(frozen=True)
class LayerParamCount:
    expert: int
    non_expert: int
    active: int  # per-token touched weights for this block


def count_params_per_layer(cfg: MoeModelConfig) -> list[LayerParamCount]:
    """Per-block split used by both total accounting and placement memory."""
    out = []
    m = cfg.hidden
    for spec in cfg.layers:
        shared = _attention_params(m) + _block_norm_params(m)
        if spec.kind == "dense":
            ffn = _ffn_params(m)
            out.append(LayerParamCount(0, shared + ffn, shared + ffn))
        else:
            gate = m * spec.experts + spec.experts
            experts = spec.experts * _ffn_params(m)
            extra = _ffn_params(m) if spec.residual else 0
            k = spec.gating.k if spec.gating else 1
            active = shared + gate + extra + k * _ffn_params(m)
            out.append(LayerParamCount(experts, shared + gate + extra, active))
    return out


def count_params(cfg: MoeModelConfig) -> ParamCount:
    per_layer = count_params_per_layer(cfg)
    m = cfg.hidden
    embeddings = cfg.vocab * m + cfg.context * m  # tied token table + positions
    final_norm = 2 * m
    expert = sum(p.expert for p in per_layer)
    non_expert = sum(p.non_expert for p in per_layer) + embeddings + final_norm
    active = sum(p.active for p in per_layer) + cfg.vocab * m + final_norm
    return ParamCount(
        total=expert + non_expert,
        expert_params=expert,
        non_expert_params=non_expert,
        active_per_token=active,
    )


def count_flops_per_token(cfg: MoeModelConfig) -> int:
    """Forward multiply-adds per token: 2 per touched weight.

    Sequence-length-dependent attention score terms are outside this count.
    """
    return 2 * count_params(cfg).active_per_token


# ---------------------------------------------------------------------------
# load balance objective
# ---------------------------------------------------------------------------


def load_balance_loss(plan, probs: np.ndarray) -> float:
    """E * sum_e (assignment fraction_e) * (mean gate prob_e).

    Equals 1.0 under perfectly uniform routing and E when a single expert
    absorbs everything with probability one. Assignment fractions are taken
    before capacity drops.
    """
    probs = np.asarray(probs, dtype=np.float64)
    e = plan.num_experts
    if probs.ndim != 2 or probs.shape != (plan.num_tokens, e):
        raise tk.ShapeError(f"probs shape {probs.shape} does not match plan")
    if plan.num_tokens == 0:
        return 0.0
    counts = np.bincount(plan.expert_ids.reshape(-1), minlength=e)
    fractions = counts / (plan.num_tokens * plan.k)
    mean_probs = probs.mean(axis=0)
    return float(e * np.sum(fractions * mean_probs))


# ---------------------------------------------------------------------------
# layer evaluation (tape-aware)
# ---------------------------------------------------------------------------


@dataclass
class FfnParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def leaves(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass
class MoeLayerParams:
    gate_w: Tensor  # (M, E)
    experts: tuple[FfnParams, ...]
    shared: FfnParams | None = None

    def leaves(self) -> list[Tensor]:
        out = [self.gate_w]
        for e in self.experts:
            out.extend(e.leaves())
        if self.shared is not None:
            out.extend(self.shared.leaves())
        return out


def _init_ffn(m: int, rng: np.random.Generator, scale: float) -> FfnParams:
    inner = FFN_MULT * m
    return FfnParams(
        w1=Tensor(rng.standard_normal((m, inner)) * scale),
        b1=Tensor(np.zeros((1, inner))),
        w2=Tensor(rng.standard_normal((inner, m)) * scale),
        b2=Tensor(np.zeros((1, m))),
    )


def init_layer_params(spec: LayerSpec, rng: np.random.Generator, scale: float = 0.1):
    """Random parameters for one block's feed-forward slot."""
    if spec.kind == "dense":
        return _init_ffn(spec.hidden, rng, scale)
    return MoeLayerParams(
        gate_w=Tensor(rng.standard_normal((spec.hidden, spec.experts)) * scale),
        experts=tuple(_init_ffn(spec.hidden, rng, scale) for _ in range(spec.experts)),
        shared=_init_ffn(spec.hidden, rng, scale) if spec.residual else None,
    )


def forward_ffn(x: Tensor, p: FfnParams) -> Tensor:
    return tk.add(tk.matmul(tk.gelu(tk.add(tk.matmul(x, p.w1), p.b1)), p.w2), p.b2)


def forward_layer(x: Tensor, spec: LayerSpec, params) -> Tensor:
    """Evaluate one block's feed-forward slot with its residual skip.

    Routing decisions are made on raw gate logits; gradients flow through the
    gate probabilities that scale each expert's contribution. Tokens whose
    assignments were all dropped ride the skip connection unchanged.
    """
    if x.cols != spec.hidden:
        raise tk.ShapeError(f"batch width {x.cols} does not match layer hidden {spec.hidden}")
    if spec.kind == "dense":
        return tk.add(x, forward_ffn(x, params))

    gate_logits = tk.matmul(x, params.gate_w)  # (S, E)
    gates = top_k_gate(gate_logits.value, spec.gating)
    plan = build_dispatch_plan(gates, spec.gating, x.rows)
    probs = tk._softmax_node(gate_logits, gates.probs)

    out = tk.add(x, _combine_experts(x, probs, plan, params))
    if spec.residual:
        out = tk.add(out, forward_ffn(x, params.shared))
    return out


def _combine_experts(x: Tensor, probs: Tensor, plan, params: MoeLayerParams) -> Tensor:
    """Sum over experts of prob * expert(rows), scattered back by token: one tape node.

    Expert e owns rows ends[e] - load[e] : ends[e] of the slot-table gather.
    The vjp is bitwise that of the per-expert chain gather_rows -> forward_ffn
    -> take_elems -> mul -> scatter_rows -> add: it hands back one ``x``
    contribution per loaded expert, last expert first (the order that chain's
    sweep met them, which fixes how k=2 sums associate), and passes a load-1
    expert's bias gradient through unsummed, as ``tk.add`` does.
    """
    load = plan.expert_load
    live = np.flatnonzero(load)
    if live.size == 0:
        return Tensor._wrap(np.zeros(x.shape), x.tape)
    tok = plan.slot_tokens[np.arange(plan.capacity) < load[:, None]]
    eid = np.repeat(np.arange(plan.num_experts), load)
    ends = np.cumsum(load)
    segs = [slice(ends[e] - load[e], ends[e]) for e in live]
    ffns = [params.experts[e] for e in live]
    leaves = [leaf for p in ffns for leaf in p.leaves()]
    weights = [[leaf.value for leaf in p.leaves()] for p in ffns]  # w1, b1, w2, b2
    tape = tk._tape_of(x, probs, *leaves)

    xs = x.value[tok]
    h = np.empty((tok.size, weights[0][0].shape[1]))
    for seg, (w1, b1, _, _) in zip(segs, weights):
        h[seg] = xs[seg] @ w1 + b1
    z, gelu_slope = tk._gelu(h, tape is not None)
    y = np.empty(xs.shape)
    for seg, (_, _, w2, b2) in zip(segs, weights):
        y[seg] = z[seg] @ w2 + b2
    gate = probs.value[tok, eid][:, None]
    acc = np.zeros(x.shape)
    np.add.at(acc, tok, y * gate)
    out = Tensor._wrap(acc, tape)
    if tape is None:
        return out
    x_shape, probs_shape = x.shape, probs.shape

    def vjp(g: np.ndarray):
        gtok = g[tok]
        gy = gtok * gate
        ggate = gtok * y if y.shape[1] == 1 else (gtok * y).sum(axis=1, keepdims=True)
        gprobs = np.zeros(probs_shape)
        np.add.at(gprobs, (tok, eid), ggate[:, 0])
        gz = np.empty(z.shape)
        for seg, (_, _, w2, _) in zip(segs, weights):
            gz[seg] = gy[seg] @ w2.T
        gh = gz * gelu_slope
        gxs, gleaves = [], []
        for seg, (w1, _, _, _) in zip(segs, weights):
            gx = np.zeros(x_shape)
            np.add.at(gx, tok[seg], gh[seg] @ w1.T)
            gxs.append(gx)
            gleaves += [
                xs[seg].T @ gh[seg], _bias_grad(gh[seg]), z[seg].T @ gy[seg], _bias_grad(gy[seg])
            ]
        return [*reversed(gxs), gprobs, *gleaves]

    tape.record(out, (x,) * len(segs) + (probs, *leaves), vjp)
    return out


def _bias_grad(g: np.ndarray) -> np.ndarray:
    # tk.add sums a broadcast bias gradient over rows but passes one row through as is
    return g if g.shape[0] == 1 else g.sum(axis=0, keepdims=True)
