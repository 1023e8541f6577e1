"""
Token routing: gate, capacity, dispatch table, combine
======================================================

Walk one batch of tokens through the full routing pipeline and check the
dense mapping-table path against the literal one-hot contraction.
"""

import numpy as np

from moekit import gating

rng = np.random.default_rng(0)

# a small batch: 16 tokens, model width 6, routed across 4 experts
S, M, E = 16, 6, 4
x = rng.standard_normal((S, M))
logits = rng.standard_normal((S, E))

cfg = gating.GatingConfig(num_experts=E, k=1, capacity_factor=1.0)
print("capacity per expert:", cfg.capacity(S))  # ceil(1.0 * 16 * 1 / 4) = 4

# pick the top expert per token; probabilities come from the full softmax
gate = gating.top_k_gate(logits, cfg)
print("expert choices:", gate.expert_ids.ravel().tolist())
print("gate probs (first 4):", np.round(gate.gate_probs[:4].ravel(), 3).tolist())

# the dispatch plan resolves choices into capacity slots; tokens that land
# beyond an expert's capacity are dropped (slot stays -1)
plan = gating.build_dispatch_plan(gate, cfg, S)
print("per-expert load:", plan.expert_load.tolist())
print("dropped assignments:", int((~plan.kept_mask()).sum()))

# slots fill in token order within each expert; the slot table lists the
# token in each of an expert's first expert_load[e] slots
for e, load in enumerate(plan.expert_load):
    print(f"  expert {e} serves tokens {plan.slot_tokens[e, :load].tolist()}")

# scatter rows into per-expert buffers, then bring them back gate-scaled
mapped_ops = gating.OpCounter()
buffers = gating.scatter_tokens(x, plan, counter=mapped_ops)
combined = gating.combine_tokens(buffers, plan, counter=mapped_ops)

# reference path: (S, E, c) one-hot masks contracted with einsum
oracle_ops = gating.OpCounter()
obuf = gating.sparse_dispatch_oracle(x, gate, cfg, counter=oracle_ops)
oout = gating.sparse_combine_oracle(obuf, gate, cfg, counter=oracle_ops)

print("dispatch matches oracle:", np.array_equal(buffers.data, obuf))
print("combine max abs diff:", float(np.max(np.abs(combined - oout))))

# the table path touches an S*c*M index space per transform where the
# contraction touches S*E*c*M, so the op ratio recovers the expert count
print("op ratio (oracle / table):", oracle_ops.ops / mapped_ops.ops, "with E =", E)

# the capacity factor trades drops for buffer size: scarce capacity drops
# whatever arrives after an expert's slots run out
for cf in (0.5, 1.0, 2.0):
    c = gating.GatingConfig(num_experts=E, k=1, capacity_factor=cf)
    p = gating.build_dispatch_plan(gating.top_k_gate(logits, c), c, S)
    print(f"capacity_factor {cf}: capacity {p.capacity}, kept {int(p.kept_mask().sum())}/{S}")

# a slot is an exclusive prefix count of earlier assignments to the same
# expert, cumsum(v) - v over the expert's indicator column v; counts past
# capacity are the dropped assignments
ids = gate.expert_ids[:, 0]
onehot = (ids[:, None] == np.arange(E)).astype(np.int64)
prior = (np.cumsum(onehot, axis=0) - onehot)[np.arange(S), ids]
slots = np.where(prior < plan.capacity, prior, gating.DROPPED)
print("slots == exclusive prefix counts:", np.array_equal(slots, plan.slots[:, 0]))
