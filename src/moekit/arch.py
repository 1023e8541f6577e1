"""Layer-stack descriptions, parameter/FLOP accounting, and layer evaluation.

A model is a flat stack of transformer blocks. Every block carries attention
(accounted analytically, never evaluated here) plus one feed-forward slot:

  dense block     y = x + FFN(x)
  moe block       y = x + combine(experts(scatter(x)))
  residual moe    y = x + combine(experts(scatter(x))) + MLP(x)
                  (a shared feed-forward runs beside the experts; the expert
                  contribution acts as a correction term on top of it)

A routed layer is one tape node: gate, experts, combine and skip add. It builds
no dispatch plan but routes from the plan's sort alone, unchecked, on its own gate's
table; gathers the kept rows once in (expert, slot) order, runs one GEMM pair per
loaded expert on its own rows (no capacity padding) and one GELU over every row, and
scatter-adds the gate-scaled rows per token. Its vjp is bitwise equal to the per-op chain.

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

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as tk
from ._contract import ValidationError, _array_size, _checked, _instance, _int_in, _ints, _one_of, _real_array
from .gating import DispatchPlan, GatingConfig, _kept_assignments, top_k_gate
from .tensor import Tensor

__all__ = [
    "ValidationError",
    "FFN_MULT",
    "MAX_LAYERS",
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
MAX_LAYERS = 10_000  # deepest stack dense_config builds


@dataclass(frozen=True)
@_checked(
    ValidationError, kind=(_one_of, ("dense", "moe")), hidden=(_int_in, 1), experts=(_int_in, 0),
    residual=(_instance, bool),
)
class LayerSpec:
    """One transformer block. kind is "dense" or "moe"."""

    kind: str
    hidden: int
    experts: int = 0
    residual: bool = False
    gating: GatingConfig | None = None

    def __post_init__(self) -> None:
        if self.kind == "moe":
            if _instance("gating", self.gating, GatingConfig).num_experts != self.experts:
                raise ValidationError("gating config expert count mismatch")
        else:
            if self.experts != 0 or self.gating is not None or self.residual:
                raise ValidationError("dense layer cannot carry expert fields")


@dataclass(frozen=True)
@_checked(
    ValidationError, hidden=(_int_in, 1), heads=(_int_in, 1), vocab=(_int_in, 1), context=(_int_in, 1),
    layers=(_instance, (tuple, list)),
)
class MoeModelConfig:
    """Immutable model description: one LayerSpec per block of the stack."""

    hidden: int
    heads: int
    vocab: int
    context: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))  # a list twin is the same config
        for spec in self.layers:
            if _instance("layer", spec, LayerSpec).hidden != self.hidden:
                raise ValidationError("per-layer hidden width must match the model width")

    @property
    def num_layers(self) -> int:
        return len(self.layers)

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


@_checked(ValidationError, MoeModelConfig, num_layers=(_int_in, 0, MAX_LAYERS))
def dense_config(
    num_layers: int,
    hidden: int,
    heads: int,
    vocab: int = 50257,
    context: int = 2048,
) -> MoeModelConfig:
    """All-dense transformer stack (the starting point for MoE variants).

    ``num_layers`` must be an int in [0, MAX_LAYERS]: the stack is built
    layer by layer, so a deeper one would not finish.
    """
    layers = tuple(LayerSpec(kind="dense", hidden=hidden) for _ in range(num_layers))
    return MoeModelConfig(hidden=hidden, heads=heads, vocab=vocab, context=context, layers=layers)


@_checked(ValidationError, GatingConfig, base=(_instance, MoeModelConfig))
def build_standard(
    base: MoeModelConfig,
    num_experts: int,
    k: int = GatingConfig.k,
    capacity_factor: float = GatingConfig.capacity_factor,
) -> MoeModelConfig:
    """Uniform expert count on every other feed-forward layer.

    Routed layers sit at odd stack positions (1, 3, 5, ...), so an even
    num_layers L yields L/2 routed layers. This is ``build_pr_moe`` with a
    uniform schedule and no residual.
    """
    schedule = (num_experts,) * (base.num_layers // 2)
    return build_pr_moe(base, schedule, residual=False, k=k, capacity_factor=capacity_factor)


@_checked(
    ValidationError, LayerSpec, GatingConfig, base=(_instance, MoeModelConfig), expert_schedule=(_ints, 1)
)
def build_pr_moe(
    base: MoeModelConfig,
    expert_schedule: tuple[int, ...],
    residual: bool = True,
    k: int = GatingConfig.k,
    capacity_factor: float = GatingConfig.capacity_factor,
) -> MoeModelConfig:
    """Pyramid layout: one schedule entry per routed layer, shallow to deep.

    The schedule must be non-decreasing (later layers may hold more experts,
    never fewer). With a uniform schedule and residual=False this reduces to
    ``build_standard`` exactly. Every argument passes its rule (``residual`` a routed
    layer's, ``k`` and ``capacity_factor`` its gate's) before any layer is built.
    """
    if base.num_layers % 2 != 0:
        raise ValidationError("base stack must have an even layer count")
    schedule = expert_schedule  # a tuple of ints, by its rule
    if len(schedule) != base.num_layers // 2:
        raise ValidationError(f"schedule has {len(schedule)} entries, stack needs {base.num_layers // 2}")
    if any(b < a for a, b in zip(schedule, schedule[1:])):
        raise ValidationError("expert schedule must be non-decreasing with depth")
    gates = (GatingConfig(e, k, capacity_factor) for e in schedule)
    routed = (LayerSpec("moe", base.hidden, g.num_experts, residual, g) for g in gates)
    layers = tuple(next(routed) if i % 2 else LayerSpec("dense", base.hidden) for i in range(base.num_layers))
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
    m = _instance("cfg", cfg, MoeModelConfig).hidden
    for spec in cfg.layers:
        shared = _attention_params(m) + _block_norm_params(m)
        if spec.kind == "dense":
            ffn = _ffn_params(m)
            out.append(LayerParamCount(0, shared + ffn, shared + ffn))
        else:
            gate = m * spec.experts + spec.experts
            experts = spec.experts * _ffn_params(m)
            extra = _ffn_params(m) if spec.residual else 0
            active = shared + gate + extra + spec.gating.k * _ffn_params(m)
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


def load_balance_loss(plan: DispatchPlan, probs: np.ndarray) -> float:
    """E * sum_e (assignment fraction_e) * (mean gate prob_e).

    Equals 1.0 under perfectly uniform routing and E when a single expert
    absorbs everything with probability one. Assignment fractions are taken
    before capacity drops. NaN or inf in ``probs`` raises NonFiniteError.
    """
    _instance("plan", plan, DispatchPlan)
    probs = _real_array("probs", probs, tk.ShapeError).astype(np.float64, copy=False)
    e = plan.num_experts
    if probs.ndim != 2 or probs.shape != (plan.num_tokens, e):
        raise tk.ShapeError(f"probs shape {probs.shape} does not match plan")
    if plan.num_tokens == 0:
        return 0.0
    counts = np.bincount(plan.expert_ids.reshape(-1), minlength=e)
    fractions = counts / (plan.num_tokens * plan.k)
    mean_probs = probs.mean(axis=0)
    if not np.isfinite(mean_probs).all():  # NaN or inf in a column carries into its mean
        raise tk.NonFiniteError("probs contain NaN or inf")
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
    _instance("spec", spec, LayerSpec)
    _instance("rng", rng, np.random.Generator)
    for shape in ((spec.hidden, FFN_MULT * spec.hidden), (spec.hidden, spec.experts)):  # w1, gate_w
        _array_size("layer weight", shape, ValidationError)
    if spec.kind == "dense":
        return _init_ffn(spec.hidden, rng, scale)
    return MoeLayerParams(
        gate_w=Tensor(rng.standard_normal((spec.hidden, spec.experts)) * scale),
        experts=tuple(_init_ffn(spec.hidden, rng, scale) for _ in range(spec.experts)),
        shared=_init_ffn(spec.hidden, rng, scale) if spec.residual else None,
    )


def forward_ffn(x: Tensor, p: FfnParams) -> Tensor:
    _instance("p", p, FfnParams)
    return tk.add(tk.matmul(tk.gelu(tk.add(tk.matmul(x, p.w1), p.b1)), p.w2), p.b2)


def forward_layer(x: Tensor, spec: LayerSpec, params) -> Tensor:
    """Evaluate one block's feed-forward slot with its residual skip.

    Routing decisions are made on raw gate logits; gradients flow through the
    gate probabilities that scale each expert's contribution. Tokens whose
    assignments were all dropped ride the skip connection unchanged.
    """
    _instance("x", x, Tensor)
    _instance("spec", spec, LayerSpec)
    _instance("params", params, FfnParams if spec.kind == "dense" else MoeLayerParams)
    if x.cols != spec.hidden:
        raise tk.ShapeError(f"batch width {x.cols} does not match layer hidden {spec.hidden}")
    if spec.kind == "dense":
        return tk.add(x, forward_ffn(x, params))

    out = _routed_skip(x, spec.gating, params)
    if spec.residual:
        out = tk.add(out, forward_ffn(x, params.shared))
    return out


def _routed_skip(x: Tensor, cfg: GatingConfig, params: MoeLayerParams) -> Tensor:
    """x + sum over experts of gate prob * expert(x[tok]), scattered back by token: one tape node.

    Kept assignments come unchecked (``top_k_gate`` builds all the plan checks) in
    ``gating._kept_assignments``' (expert, slot) order; expert e owns the next loads[e] rows of
    ``x[tok]``. The vjp is bitwise that of the per-op chain matmul -> row_softmax -> gather_rows
    -> forward_ffn -> take_elems -> mul -> scatter_rows -> add of ``tests/tape_oracle.py``. It
    hands back x's gradients in that chain's sweep order (which fixes how they sum): the skip,
    each loaded expert's, last expert first, then the gate's; a load-1 bias gradient passes
    unsummed, as in ``tk.add``.
    """
    gate_w = params.gate_w
    if x.cols != gate_w.rows:
        raise tk.ShapeError(f"gate_w shape {gate_w.shape} does not match batch width {x.cols}")
    gates = top_k_gate(x.value @ gate_w.value, cfg)
    counts, cap, assignment, _ = _kept_assignments(gates.expert_ids, cfg, x.rows)
    tok, s = assignment // cfg.k, gates.probs
    # flat index of each kept (token, expert) pair in the (S, E) gate softmax
    pair = tok * s.shape[1] + gates.expert_ids.reshape(-1).take(assignment)
    loads = np.minimum(counts, cap).tolist()
    segs = [slice(end - n, end) for n, end in zip(loads, itertools.accumulate(loads)) if n]
    leaves = [leaf for p, n in zip(params.experts, loads) if n for leaf in p.leaves()]
    weights = [leaf.value for leaf in leaves]  # w1, b1, w2, b2 of each loaded expert
    w1s, b1s, w2s, b2s = weights[0::4], weights[1::4], weights[2::4], weights[3::4]
    tape = tk._tape_of(x, gate_w, *leaves)
    acc = np.zeros(x.shape)
    if not segs:  # S=0: the skip alone, so gate_w gets no gradient
        out = Tensor._wrap(acc, tape)
        if tape is not None:
            tape.record(out, (x,), lambda g: (g,))
        return out

    xs = x.value.take(tok, axis=0)
    h = np.empty((tok.size, w1s[0].shape[1]))
    for seg, w1, b1 in zip(segs, w1s, b1s):
        np.add(xs[seg] @ w1, b1, out=h[seg])
    z, gelu_slope = tk._gelu(h, tape is not None)
    y = np.empty(xs.shape)
    for seg, w2, b2 in zip(segs, w2s, b2s):
        np.add(z[seg] @ w2, b2, out=y[seg])
    gate = s.take(pair)[:, None]
    # where each index is unique, a fancy += adds 0.0 + v per entry, the same bits as np.add.at
    if cfg.k == 1:
        acc[tok] += y * gate
    else:
        np.add.at(acc, tok, y * gate)
    acc += x.value  # the skip add: x + acc and acc + x round alike
    out = Tensor._wrap(acc, tape)
    if tape is None:
        return out
    xv, gw = x.value, gate_w.value

    def vjp(g: np.ndarray):
        gtok = g.take(tok, axis=0)
        gy = gtok * gate
        ggate = gtok * y if y.shape[1] == 1 else (gtok * y).sum(axis=1, keepdims=True)
        gprobs = np.zeros(s.shape)
        gprobs.reshape(-1)[pair] += ggate[:, 0]  # each (token, expert) pair once
        glogits = s * (gprobs - (gprobs * s).sum(axis=1, keepdims=True))
        gz = np.empty(z.shape)
        for seg, w2 in zip(segs, w2s):
            np.matmul(gy[seg], w2.T, out=gz[seg])
        gh = np.multiply(gz, gelu_slope, out=gz)
        gxs, gleaves = [], []
        for seg, w1 in zip(segs, w1s):
            gx = np.zeros(xv.shape)
            gx[tok[seg]] += gh[seg] @ w1.T  # a token sits once per expert
            gxs.append(gx)
            gleaves += [
                xs[seg].T @ gh[seg], _bias_grad(gh[seg]), z[seg].T @ gy[seg], _bias_grad(gy[seg])
            ]
        return [g, *reversed(gxs), glogits @ gw.T, xv.T @ glogits, *gleaves]

    tape.record(out, (x,) * (len(segs) + 2) + (gate_w, *leaves), vjp)
    return out


def _bias_grad(g: np.ndarray) -> np.ndarray:
    # tk.add sums a broadcast bias gradient over rows but passes one row through as is
    return g if g.shape[0] == 1 else np.add.reduce(g, axis=0, keepdims=True)
