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
     order, from one stable sort by expert id (in the smallest unsigned dtype
     below E, ``_uint``, which numpy radix-sorts); tokens beyond an expert's
     capacity are dropped (slot = DROPPED). The same sort fills the slot
     table ``slot_tokens``, which ``scatter_tokens`` reads. ``arch.forward_layer``
     runs the sort alone (``_kept_assignments``) on its own gate's table, with
     none of the plan's table checks, and builds no plan.
  3. ``scatter_tokens``   - gather token rows into zeroed (E, c, M) expert
     buffers, one row take of the slot table per expert straight into its
     buffer.
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

The gate, the scatter and the combine each allocate their outputs, then fill
them in ``_parts(nbytes)`` parts of their largest array, one part per usable
CPU (``os.sched_getaffinity``) as long as every part gets at least
``_MIN_PART_BYTES`` (2 MiB). The first part runs on the calling thread and the
rest on a thread pool private to this module, so small batches never create
the pool. The gate and the combine take contiguous row ranges, the scatter
row ranges for its finiteness check and equal expert ranges for its fill
(capacity caps every expert's load, so equal ranges hold about equal work).
Every row goes through the same float operations in a part as in the
whole-array pass, so the outputs are bitwise equal to one worker's.
``build_dispatch_plan`` (one stable sort) stays serial.

NaN or inf logits, gate probabilities, token rows and kept expert outputs are
rejected with ``NonFiniteError``, a ``ShapeError``, instead of being routed.
A bad ``GatingConfig``, ``num_tokens`` or argument type raises ``ValidationError``
(``arch`` re-exports it).

``sparse_dispatch_oracle`` / ``sparse_combine_oracle`` implement the same
semantics as literal one-hot tensor contractions of shape (S, E, c). They are
reference implementations: slower by a factor of E, used to cross-check the
table-driven path.

Operation counters measure the token-routing index space each path sweeps:
the one-hot contraction touches (token, expert, slot, hidden) = S*E*c*M
multiply-accumulate positions per transform, while the table-driven transform
resolves each token against only its own expert's c slots, S*c*M positions
per transform. The ratio of the two is the expert count E.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from ._contract import ValidationError, _checked, _instance, _int_in, _number_in, _real_array, _uint
from .tensor import NonFiniteError, ShapeError

__all__ = [
    "DROPPED",
    "ValidationError",
    "GatingConfig",
    "NonFiniteError",
    "TopKGate",
    "DispatchPlan",
    "ExpertBuffers",
    "OpCounter",
    "top_k_gate",
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


# The gate, the scatter and the combine split a large call into one part per
# usable CPU. A part must hold at least _MIN_PART_BYTES of the stage's array:
# on a 2-CPU VM, handing a smaller part to a pool thread saved less than it
# cost. So the small batches of training and of the exchange set-up stay on
# the calling thread and never create the pool.
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:
    _WORKERS = os.cpu_count() or 1
_MIN_PART_BYTES = 1 << 21


def _parts(nbytes: int) -> int:
    """How many parts a stage whose largest array has nbytes splits into."""
    return max(1, min(_WORKERS, nbytes // _MIN_PART_BYTES))


@functools.cache
def _pool(pid: int):
    """The threads that run every part but the first, made on a process's first
    split call. Keyed by process id because a forked child has none of its
    parent's threads."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max(1, _WORKERS - 1), thread_name_prefix="moekit-gating")


def _row_ranges(num_rows: int, parts: int) -> list[slice]:
    """parts contiguous ranges of about equal length covering num_rows rows."""
    return [slice(num_rows * i // parts, num_rows * (i + 1) // parts) for i in range(parts)]


def _run_parts(fn, parts: list, *args) -> None:
    """fn(*args, part) for every part, the first on this thread and the rest on
    the pool. Waits for every part, then raises the first failed part's
    exception, if any. Worker code calls no public moekit function, because a
    tracer that wraps those functions keeps one span stack for the whole
    process."""
    if len(parts) == 1:
        return fn(*args, parts[0])
    futures = [_pool(os.getpid()).submit(fn, *args, part) for part in parts[1:]]
    try:
        fn(*args, parts[0])
    finally:
        for future in futures:
            future.exception()  # waits, so no part still runs once this returns or raises
    for future in futures:
        future.result()


@dataclass(frozen=True)
@_checked(ValidationError, num_experts=(_int_in, 1), k=(_int_in, 1, 2), capacity_factor=(_number_in, True))
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
        if self.k > self.num_experts:
            raise ValidationError(f"k={self.k} exceeds num_experts={self.num_experts}")

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

    expert_ids / gate_probs are the gate's own arrays, not copies, so they
    must not be changed while the plan is in use; slots[(s, j)] is the
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
    logits = _real_array("gate logits", logits, ShapeError)
    _instance("cfg", cfg, GatingConfig)
    if logits.ndim != 2:
        raise ShapeError(f"gate logits must be 2-D, got shape {logits.shape}")
    num_tokens, width = logits.shape
    if width != cfg.num_experts:
        raise ShapeError(f"gate logits have {width} columns, config expects {cfg.num_experts}")
    probs = np.empty((num_tokens, width))  # the one (S, E) buffer, softmaxed in place
    ids = np.empty((num_tokens, cfg.k), dtype=np.intp)
    gate_probs = np.empty((num_tokens, cfg.k))
    ranges = _row_ranges(num_tokens, _parts(probs.nbytes))
    _run_parts(_gate_part, ranges, logits, probs, ids, gate_probs)
    return TopKGate(expert_ids=ids, gate_probs=gate_probs, probs=probs)


def _gate_part(logits, probs, ids, gate_probs, r: slice) -> None:
    """Gate logits rows r: copy them into probs, then argmaxes into ids,
    finiteness check and blocked softmax in place, and gate probabilities."""
    p, i = probs[r], ids[r]
    p[...] = logits[r]
    rows = np.arange(p.shape[0])
    # argmax returns the first maximum, so equal logits go to the lower index
    first = p.argmax(axis=1)
    top = p[rows, first]
    i[:, 0] = first
    if i.shape[1] == 2:
        p[rows, first] = -np.inf
        i[:, 1] = p.argmax(axis=1)
        p[rows, first] = top
    for b in _row_blocks(p.shape[0], p.itemsize * p.shape[1]):
        block = p[b]
        # checked per block, so no (S, E) mask is built; the argmaxes above
        # read non-finite entries without error or warning
        if not np.isfinite(block).all():
            raise NonFiniteError("gate logits contain NaN or inf")
        block -= top[b, None]
        np.exp(block, out=block)
        block /= block.sum(axis=1, keepdims=True)
    gate_probs[r] = p[rows[:, None], i]


# ---------------------------------------------------------------------------
# dispatch planning
# ---------------------------------------------------------------------------


@_checked(
    ValidationError, gates=(_instance, TopKGate), cfg=(_instance, GatingConfig), num_tokens=(_int_in, 0)
)
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
    ids, gate_probs = gates.expert_ids, gates.gate_probs
    if ids.shape != (num_tokens, cfg.k):
        raise ShapeError(f"gate table shape {ids.shape} does not match ({num_tokens}, {cfg.k})")
    if ids.dtype.kind not in "iu":
        raise ShapeError(f"gate table expert ids must be integers, got dtype {ids.dtype}")
    if gate_probs.shape != ids.shape:
        raise ShapeError(f"gate_probs shape {gate_probs.shape} does not match {ids.shape}")
    if not np.isfinite(gate_probs).all():
        raise NonFiniteError("gate_probs contain NaN or inf")
    flat_ids = ids.reshape(-1)  # token-major
    if flat_ids.size and not (0 <= flat_ids.min() and flat_ids.max() < cfg.num_experts):
        raise ShapeError(f"gate table names experts outside [0, {cfg.num_experts})")
    if cfg.k == 2 and np.any(ids[:, 0] == ids[:, 1]):
        raise ShapeError("gate table sends a token to the same expert twice")
    counts, cap, assignment, slot = _kept_assignments(ids, cfg, num_tokens)
    slots = np.full(flat_ids.shape[0], DROPPED, dtype=np.int64)
    slots[assignment] = slot
    slot_tokens = np.zeros((cfg.num_experts, cap), dtype=np.int64)
    slot_tokens[flat_ids[assignment], slot] = assignment // cfg.k
    return DispatchPlan(
        num_tokens=num_tokens,
        num_experts=cfg.num_experts,
        k=cfg.k,
        capacity=cap,
        expert_ids=ids,
        gate_probs=gate_probs,
        slots=slots.reshape(num_tokens, cfg.k),
        expert_load=np.minimum(counts, cap),
        slot_tokens=slot_tokens,
    )


def _kept_assignments(ids: np.ndarray, cfg: GatingConfig, num_tokens: int):
    """A plan's sort, unchecked, of a known-good table: per-expert counts (before drops), the
    capacity, and the kept token-major assignments with their slots, in (expert, slot) order."""
    flat_ids = ids.reshape(-1)  # token-major
    cap = cfg.capacity(num_tokens)
    order = _uint(flat_ids, cfg.num_experts).argsort(kind="stable")
    counts = np.bincount(flat_ids, minlength=cfg.num_experts)
    sorted_rank = np.arange(flat_ids.shape[0]) - (counts.cumsum() - counts).repeat(counts)
    kept = sorted_rank < cap
    return counts, cap, order[kept], sorted_rank[kept]


# ---------------------------------------------------------------------------
# table-driven scatter / combine
# ---------------------------------------------------------------------------


def scatter_tokens(
    batch: np.ndarray, plan: DispatchPlan, counter: OpCounter | None = None
) -> ExpertBuffers:
    """Copy each kept token row into its expert's capacity slot.

    batch: (S, M), all finite. Slots past an expert's load hold zeros. Counter
    accounting: the table resolves each of the S*k assignments against its
    expert's c slots, M lanes wide -> S*c*M per transform (no factor of E).
    """
    batch = _real_array("token batch", batch, ShapeError).astype(np.float64, copy=False)
    _instance("plan", plan, DispatchPlan)
    if batch.ndim != 2 or batch.shape[0] != plan.num_tokens:
        raise ShapeError(f"batch shape {batch.shape} does not match plan S={plan.num_tokens}")
    data = np.zeros((plan.num_experts, plan.capacity, batch.shape[1]))
    parts = _parts(data.nbytes)
    ranges = list(zip(_row_ranges(plan.num_tokens, parts), _row_ranges(plan.num_experts, parts)))
    _run_parts(_scatter_part, ranges, batch, plan.slot_tokens, plan.expert_load.tolist(), data)
    if counter is not None:
        counter.add(plan.num_tokens * plan.capacity * batch.shape[1])
    return ExpertBuffers(data=data)


def _scatter_part(batch, slot_tokens, loads, data, part: tuple[slice, slice]) -> None:
    """scatter_tokens' finiteness check on one row range and fill of one expert range."""
    r, experts = part
    rows = batch[r]
    for b in _row_blocks(rows.shape[0], rows.itemsize * rows.shape[1]):
        # checked per block, so no (S, M) mask is built
        if not np.isfinite(rows[b]).all():
            raise NonFiniteError("token batch contains NaN or inf")
    for e in range(experts.start, experts.stop):
        load = loads[e]
        # slot_tokens holds row numbers below S, so "clip" never clips; it lets take write in place
        batch.take(slot_tokens[e, :load], axis=0, out=data[e, :load], mode="clip")


def combine_tokens(
    outputs: ExpertBuffers,
    plan: DispatchPlan,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Return expert outputs to original token order, gate-prob scaled.

    Each token row is the sum over its kept assignments of
    gate_prob * expert_output[expert, slot], added in choice order to a zero
    row; tokens with every assignment dropped come back as zero rows. A NaN or
    inf in a kept slot raises NonFiniteError. Same counter convention as scatter.
    """
    _instance("plan", plan, DispatchPlan)
    if outputs.data.ndim != 3 or outputs.data.shape[:2] != (plan.num_experts, plan.capacity):
        raise ShapeError(
            f"buffer shape {outputs.data.shape} does not match plan "
            f"(E={plan.num_experts}, c={plan.capacity}, M)"
        )
    e_count, cap, m = outputs.data.shape
    flat = outputs.data.reshape(e_count * cap, m)
    combined = np.empty((plan.num_tokens, m))
    ranges = _row_ranges(plan.num_tokens, _parts(combined.nbytes))
    _run_parts(_combine_rows, ranges, flat, plan, combined)
    if counter is not None:
        counter.add(plan.num_tokens * plan.capacity * m)
    return combined


def _combine_rows(flat, plan: DispatchPlan, combined, r: slice) -> None:
    """combine_tokens on output rows r, one row block at a time."""
    slots = plan.slots[r]
    kept = slots != DROPPED
    idx = np.where(kept, plan.expert_ids[r] * plan.capacity + slots, 0)  # dropped ones read row 0
    gate_probs = plan.gate_probs[r]
    for b in _row_blocks(slots.shape[0], combined.itemsize * combined.shape[1]):
        out = combined[r][b]
        out.fill(0.0)
        for j in range(plan.k):
            t = flat.take(idx[b, j], axis=0)
            t *= gate_probs[b, j, None]
            t[~kept[b, j]] = 0.0  # after scaling, so a non-finite row read by a drop adds nothing
            out += t
        # checked per block while it is in cache, so no (S, M) mask is built
        if not np.isfinite(out).all():
            raise NonFiniteError("expert outputs contain NaN or inf")


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
