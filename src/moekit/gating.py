"""Top-k token routing with capacity-slotted dispatch tables.

The routing pipeline turns a batch of S token activations into per-expert
work buffers and back:

  1. ``top_k_gate``       - softmax over expert logits, pick k experts/token
     with one argmax per choice. The returned (S, E) ``probs`` is the only
     full-size buffer: the logits are copied into it once, the second argmax
     reads it with the first choice masked to -inf, and the softmax runs in
     place on it in row blocks.
  2. ``build_dispatch_plan`` - assign each (token, choice) a capacity slot on
     its expert: its rank among that expert's assignments in token-major
     order, from one stable sort by expert id; tokens beyond an expert's
     capacity are dropped (slot = DROPPED). The same sort fills the slot
     table ``slot_tokens``, the one dispatch layout, which ``scatter_tokens``
     and ``arch.forward_layer`` read.
  3. ``scatter_tokens``   - gather token rows into (E, c, M) expert buffers,
     one row take of the slot table per expert straight into its buffer;
     only the slots past the expert's load are zero-filled.
  4. ``combine_tokens``   - return expert outputs to original token order,
     scaled by the gate probability, one row block at a time: each block of
     the output is zeroed, then each choice's rows are taken, scaled and
     added, so the gathered rows stay in cache and no (S, M) temporary is
     built. Dropped assignments contribute nothing, so a fully dropped token
     comes back as the zero row (its residual path elsewhere carries the
     activation through).

The row blocks are about ``_BLOCK_BYTES`` each, so a block's passes run in
the per-core cache; every element goes through the same float operations in
the same order as in one whole-array pass, so the blocking changes no bit.

NaN or inf logits and token rows are rejected with ``NonFiniteError``, a
``ShapeError``, instead of being routed.

``sparse_dispatch_oracle`` / ``sparse_combine_oracle`` implement the same
semantics as literal one-hot tensor contractions of shape (S, E, c). They are
reference implementations: slower by a factor of E, used to cross-check the
table-driven path. ``exclusive_scan_blelloch`` is a public utility that no
stage above calls.

Operation counters measure the token-routing index space each path sweeps:
the one-hot contraction touches (token, expert, slot, hidden) = S*E*c*M
multiply-accumulate positions per transform, while the table-driven transform
resolves each token against only its own expert's c slots, S*c*M positions
per transform. The ratio of the two is the expert count E.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import NonFiniteError, ShapeError

__all__ = [
    "DROPPED",
    "GatingConfig",
    "NonFiniteError",
    "TopKGate",
    "DispatchPlan",
    "ExpertBuffers",
    "OpCounter",
    "top_k_gate",
    "exclusive_scan_blelloch",
    "build_dispatch_plan",
    "scatter_tokens",
    "combine_tokens",
    "sparse_dispatch_oracle",
    "sparse_combine_oracle",
]

DROPPED = -1  # slot value for assignments that exceeded expert capacity

# The gate softmax and the combine walk their (S, E) and (S, M) arrays in row
# blocks of about this many bytes, so each block's passes run in cache. A
# combine block holds one output block and one block of gathered rows; at
# M=256 on a core with 2 MiB of L2, 256 KiB blocks beat 64 KiB and 1 MiB ones.
_BLOCK_BYTES = 1 << 18


def _row_blocks(num_rows: int, row_bytes: int):
    """Slices of consecutive rows, about _BLOCK_BYTES each, covering num_rows rows."""
    step = max(1, _BLOCK_BYTES // row_bytes)
    return (slice(start, start + step) for start in range(0, num_rows, step))


@dataclass(frozen=True)
class GatingConfig:
    """Routing hyperparameters.

    k is the number of experts each token is sent to (1 or 2). Capacity per
    expert is ceil(capacity_factor * S * k / E) slots for a batch of S tokens,
    clipped to [1, S]: top-k never sends a token to one expert twice.
    """

    num_experts: int
    k: int = 1
    capacity_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.num_experts < 1:
            raise ValueError(f"num_experts must be >= 1, got {self.num_experts}")
        if self.k not in (1, 2):
            raise ValueError(f"k must be 1 or 2, got {self.k}")
        if self.k > self.num_experts:
            raise ValueError(f"k={self.k} exceeds num_experts={self.num_experts}")
        if not (self.capacity_factor > 0 and np.isfinite(self.capacity_factor)):
            raise ValueError(
                f"capacity_factor must be positive and finite, got {self.capacity_factor}"
            )

    def capacity(self, num_tokens: int) -> int:
        # a Python float product: a huge factor gives inf and a subnormal one 0.0
        slots = np.ceil(float(self.capacity_factor) * num_tokens * self.k / self.num_experts)
        return int(min(num_tokens, max(1, slots)))


@dataclass(frozen=True)
class TopKGate:
    """Per-token routing choices.

    expert_ids: (S, k) int64, in descending logit order, ties to lower index.
    gate_probs: (S, k) softmax over the full expert set at the chosen ids.
    probs:      (S, E) full softmax matrix (row-stochastic).
    """

    expert_ids: np.ndarray
    gate_probs: np.ndarray
    probs: np.ndarray


@dataclass(frozen=True)
class DispatchPlan:
    """Dense token-to-expert mapping table plus capacity bookkeeping.

    expert_ids / gate_probs mirror the gate output; slots[(s, j)] is the
    capacity slot of token s's j-th choice on its expert, or DROPPED.
    expert_load counts kept (non-dropped) assignments per expert.
    slot_tokens is the same table seen from the experts: slot_tokens[e, i] is
    the token in slot i of expert e for i < expert_load[e], and 0 past it, so
    one take reads every slot.
    """

    num_tokens: int
    num_experts: int
    k: int
    capacity: int
    expert_ids: np.ndarray  # (S, k)
    gate_probs: np.ndarray  # (S, k)
    slots: np.ndarray  # (S, k), DROPPED where over capacity
    expert_load: np.ndarray  # (E,), kept counts, each <= capacity
    slot_tokens: np.ndarray  # (E, capacity) int64, 0 in empty slots

    def kept_mask(self) -> np.ndarray:
        return self.slots != DROPPED


@dataclass
class ExpertBuffers:
    """Per-expert work buffers: data[(e, slot)] holds one routed token row."""

    data: np.ndarray  # (E, capacity, M)


@dataclass
class OpCounter:
    """Plain accumulator for routing-transform operation counts."""

    ops: int = 0

    def add(self, n: int) -> None:
        self.ops += int(n)


# ---------------------------------------------------------------------------
# gating
# ---------------------------------------------------------------------------


def top_k_gate(logits: np.ndarray, cfg: GatingConfig) -> TopKGate:
    """Select each token's k highest-logit experts.

    logits: (S, E) float64, all finite. Probabilities are the softmax over all
    E logits evaluated at the selected indices; the top-2 pair is deliberately
    not renormalized. Ties break toward the lower expert index.
    """
    probs = np.array(logits, dtype=np.float64)  # the one (S, E) buffer, softmaxed in place
    if probs.ndim != 2:
        raise ShapeError(f"gate logits must be 2-D, got shape {probs.shape}")
    if probs.shape[1] != cfg.num_experts:
        raise ShapeError(
            f"gate logits have {probs.shape[1]} columns, config expects {cfg.num_experts}"
        )
    rows = np.arange(probs.shape[0])
    # argmax returns the first maximum, so equal logits go to the lower index
    first = probs.argmax(axis=1)
    top = probs[rows, first]
    if cfg.k == 2:
        probs[rows, first] = -np.inf
        ids = np.stack([first, probs.argmax(axis=1)], axis=1)
        probs[rows, first] = top
    else:
        ids = first[:, None]
    for b in _row_blocks(probs.shape[0], probs.itemsize * probs.shape[1]):
        block = probs[b]
        # checked per block, so no (S, E) mask is built; the argmaxes above
        # read non-finite entries without error or warning
        if not np.isfinite(block).all():
            raise NonFiniteError("gate logits contain NaN or inf")
        block -= top[b, None]
        np.exp(block, out=block)
        block /= block.sum(axis=1, keepdims=True)
    return TopKGate(expert_ids=ids, gate_probs=probs[rows[:, None], ids], probs=probs)


# ---------------------------------------------------------------------------
# work-efficient exclusive prefix scan
# ---------------------------------------------------------------------------


def exclusive_scan_blelloch(values: np.ndarray) -> np.ndarray:
    """Work-efficient exclusive prefix sum (up-sweep + down-sweep).

    Inputs of any length are padded to the next power of two internally.
    Output[i] = sum(values[:i]); output[0] = 0. Exact for integer inputs.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if values.ndim != 1:
        raise ShapeError(f"scan input must be 1-D, got shape {values.shape}")
    if n == 0:
        return np.zeros(0, dtype=np.int64 if values.dtype.kind in "iub" else values.dtype)
    dtype = np.int64 if values.dtype.kind in "iub" else np.float64
    m = 1 << (n - 1).bit_length()
    buf = np.zeros(m, dtype=dtype)
    buf[:n] = values

    # up-sweep: build partial sums at stride-aligned positions
    d = 1
    while d < m:
        buf[2 * d - 1 :: 2 * d] += buf[d - 1 :: 2 * d]
        d *= 2

    # down-sweep: clear the root, push prefixes back down
    buf[m - 1] = 0
    d = m // 2
    while d >= 1:
        left = buf[d - 1 :: 2 * d].copy()
        buf[d - 1 :: 2 * d] = buf[2 * d - 1 :: 2 * d]
        buf[2 * d - 1 :: 2 * d] += left
        d //= 2

    return buf[:n]


# ---------------------------------------------------------------------------
# dispatch planning
# ---------------------------------------------------------------------------


def build_dispatch_plan(gates: TopKGate, cfg: GatingConfig, num_tokens: int) -> DispatchPlan:
    """Assign capacity slots in ascending token order per expert.

    Assignments are processed in flattened token-major order (token 0 choice
    0, token 0 choice 1, token 1 choice 0, ...). The slot of an assignment is
    its rank among the assignments to the same expert: a stable sort by
    expert keeps token-major order inside each expert's run, and the rank is
    the position in the sorted order minus the start of the expert's run.
    Assignments landing at slot >= capacity are DROPPED. The kept part of the
    sorted order, written by (expert, rank), is the slot table slot_tokens.
    """
    ids = gates.expert_ids
    if ids.shape != (num_tokens, cfg.k):
        raise ShapeError(f"gate table shape {ids.shape} does not match ({num_tokens}, {cfg.k})")
    flat_ids = ids.reshape(-1)  # token-major
    if flat_ids.size and not (0 <= flat_ids.min() and flat_ids.max() < cfg.num_experts):
        raise ShapeError(f"gate table names experts outside [0, {cfg.num_experts})")
    if cfg.k == 2 and np.any(ids[:, 0] == ids[:, 1]):
        raise ShapeError("gate table sends a token to the same expert twice")
    cap = cfg.capacity(num_tokens)
    n = flat_ids.shape[0]
    order = np.argsort(flat_ids, kind="stable")
    counts = np.bincount(flat_ids, minlength=cfg.num_experts)
    sorted_rank = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
    kept = sorted_rank < cap
    assignment, slot = order[kept], sorted_rank[kept]  # kept ones, by (expert, slot)
    slots = np.full(n, DROPPED, dtype=np.int64)
    slots[assignment] = slot
    slot_tokens = np.zeros((cfg.num_experts, cap), dtype=np.int64)
    slot_tokens[flat_ids[assignment], slot] = assignment // cfg.k
    return DispatchPlan(
        num_tokens=num_tokens,
        num_experts=cfg.num_experts,
        k=cfg.k,
        capacity=cap,
        expert_ids=gates.expert_ids.copy(),
        gate_probs=gates.gate_probs.copy(),
        slots=slots.reshape(num_tokens, cfg.k),
        expert_load=np.minimum(counts, cap),
        slot_tokens=slot_tokens,
    )


# ---------------------------------------------------------------------------
# table-driven scatter / combine
# ---------------------------------------------------------------------------


def scatter_tokens(
    batch: np.ndarray, plan: DispatchPlan, counter: OpCounter | None = None
) -> ExpertBuffers:
    """Copy each kept token row into its expert's capacity slot.

    batch: (S, M), all finite. Slots past an expert's load are zero-filled. Counter
    accounting: the table resolves each of the S*k assignments against its
    expert's c slots, M lanes wide -> S*c*M per transform (no factor of E).
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[0] != plan.num_tokens:
        raise ShapeError(f"batch shape {batch.shape} does not match plan S={plan.num_tokens}")
    if not np.isfinite(batch).all():
        raise NonFiniteError("token batch contains NaN or inf")
    data = np.empty((plan.num_experts, plan.capacity, batch.shape[1]))
    for e, load in enumerate(plan.expert_load.tolist()):
        # slot_tokens holds row numbers below S, so "clip" never clips; it lets take write in place
        batch.take(plan.slot_tokens[e, :load], axis=0, out=data[e, :load], mode="clip")
        data[e, load:] = 0.0
    if counter is not None:
        counter.add(plan.num_tokens * plan.capacity * batch.shape[1])
    return ExpertBuffers(data=data)


def combine_tokens(
    outputs: ExpertBuffers,
    plan: DispatchPlan,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Return expert outputs to original token order, gate-prob scaled.

    Each token row is the sum over its kept assignments of
    gate_prob * expert_output[expert, slot], added in choice order to a zero
    row; tokens with every assignment dropped come back as zero rows. Same
    counter convention as scatter.
    """
    e_count, cap, m = outputs.data.shape
    if e_count != plan.num_experts or cap != plan.capacity:
        raise ShapeError(
            f"buffer shape {outputs.data.shape} does not match plan "
            f"(E={plan.num_experts}, c={plan.capacity})"
        )
    flat = outputs.data.reshape(e_count * cap, m)
    kept = plan.kept_mask()
    idx = np.where(kept, plan.expert_ids * cap + plan.slots, 0)  # dropped ones read row 0
    combined = np.empty((plan.num_tokens, m))
    for b in _row_blocks(plan.num_tokens, flat.itemsize * m):
        out = combined[b]
        out.fill(0.0)
        for j in range(plan.k):
            t = flat.take(idx[b, j], axis=0)
            t *= plan.gate_probs[b, j, None]
            t[~kept[b, j]] = 0.0  # after scaling, so a non-finite row read by a drop adds nothing
            out += t
    if counter is not None:
        counter.add(plan.num_tokens * plan.capacity * m)
    return combined


# ---------------------------------------------------------------------------
# one-hot contraction oracles
# ---------------------------------------------------------------------------


def _onehot_dispatch_mask(gates: TopKGate, cfg: GatingConfig, num_tokens: int) -> np.ndarray:
    """(S, E, c) one-hot dispatch mask with the same slot order as the table.

    Slot positions are derived independently of the table path's sort, with
    a plain cumulative sum over flattened token-major assignments.
    """
    cap = cfg.capacity(num_tokens)
    flat_ids = gates.expert_ids.reshape(-1)
    onehot_flat = flat_ids[:, None] == np.arange(cfg.num_experts)[None, :]
    running = np.cumsum(onehot_flat, axis=0) - onehot_flat  # exclusive count
    mask = np.zeros((num_tokens * max(cfg.k, 1), cfg.num_experts, cap))
    pos = np.where(onehot_flat)
    slots = running[pos]
    keep = slots < cap
    mask[pos[0][keep], pos[1][keep], slots[keep]] = 1.0
    return mask.reshape(num_tokens, cfg.k, cfg.num_experts, cap).sum(axis=1)


def sparse_dispatch_oracle(
    batch: np.ndarray,
    gates: TopKGate,
    cfg: GatingConfig,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Dispatch via literal (S, E, c) one-hot contraction. Reference path.

    Returns (E, c, M) buffers; counts S*E*c*M multiply-accumulates.
    """
    batch = np.asarray(batch, dtype=np.float64)
    s = batch.shape[0]
    mask = _onehot_dispatch_mask(gates, cfg, s)
    out = np.einsum("sec,sm->ecm", mask, batch)
    if counter is not None:
        counter.add(s * cfg.num_experts * cfg.capacity(s) * batch.shape[1])
    return out


def sparse_combine_oracle(
    expert_outputs: np.ndarray,
    gates: TopKGate,
    cfg: GatingConfig,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Combine via the gate-prob weighted one-hot contraction. Reference path.

    expert_outputs: (E, c, M); returns (S, M) in original token order.
    """
    s = gates.expert_ids.shape[0]
    mask = _onehot_dispatch_mask(gates, cfg, s)
    weights = np.zeros((s, cfg.k))
    # recover which assignments survived: mask row sums per (token, expert)
    present = mask.sum(axis=2)  # (S, E) 1.0 where the assignment kept a slot
    for j in range(cfg.k):
        kept = present[np.arange(s), gates.expert_ids[:, j]] > 0
        weights[kept, j] = gates.gate_probs[kept, j]
    wmask = np.zeros_like(mask)
    for j in range(cfg.k):
        cols = gates.expert_ids[:, j]
        wmask[np.arange(s), cols, :] += mask[np.arange(s), cols, :] * weights[:, j : j + 1]
    out = np.einsum("sec,ecm->sm", wmask, expert_outputs)
    if counter is not None:
        counter.add(s * cfg.num_experts * cfg.capacity(s) * expert_outputs.shape[2])
    return out
