"""
Three ways to run the same all-to-all
=====================================

Flat pairwise exchange, the two-phase hierarchical schedule, and the
replica-coordinated schedule for tensor-sliced groups all deliver identical
buffers; they differ in rounds and volume.
"""

from moekit.commsim import (
    CostModel,
    coordinated_all_to_all,
    estimate_latency,
    flat_all_to_all,
    hierarchical_all_to_all,
    synthetic_sends,
)
from moekit.planner import ClusterTopology

cost = CostModel(c1=1e-4, c2=1e-3)
topo = ClusterTopology(nodes=4, gpus_per_node=4)

# 16 ranks, each with 6 tagged tokens bound for random destinations
sends = synthetic_sends(16, 6, nbytes=1024, seed=3)

flat = flat_all_to_all(sends, cost)
hier = hierarchical_all_to_all(sends, gpus_per_node=4, cost=cost)

print("flat:         rounds", flat.rounds, " volume", flat.volume_bytes)
print("hierarchical: rounds", hier.rounds, " volume", hier.volume_bytes)
print("same delivered buffers:", hier.recv == flat.recv)
print("volume ratio:", hier.volume_ratio)  # every byte crosses two phases

# fewer rounds pay off once the per-round cost dominates
print("\nmodeled latency, flat:        ", f"{flat.modeled_latency_s:.6f}")
print("modeled latency, hierarchical:", f"{hier.modeled_latency_s:.6f}")
print("alpha-beta estimate, flat:        ", f"{estimate_latency(flat, topo):.6f}")
print("alpha-beta estimate, hierarchical:", f"{estimate_latency(hier, topo):.6f}")

# coordinated: tensor-slice groups of 4 hold identical replicas, so only
# one replica per group sends each share, then the group allgathers
logical = synthetic_sends(4, 6, nbytes=1024, seed=4)  # 4 logical groups
replicated = [list(items) for items in logical for _ in range(4)]
coord = coordinated_all_to_all(replicated, tensor_slice=4, cost=cost)
base = flat_all_to_all(logical, cost)

print("\ncoordinated: exchange rounds", coord.a2a_rounds, "+ allgather rounds", coord.allgather_rounds)
print("group members all match the logical exchange:",
      all(coord.recv[g * 4 + m] == base.recv[g] for g in range(4) for m in range(4)))

# the headline scaling: at 128 ranks the flat exchange costs 128 rounds,
# the coordinated one 16 plus a cheap allgather
sends128 = synthetic_sends(128, 2, nbytes=512, seed=5)
flat128 = flat_all_to_all(sends128, cost)
logical16 = synthetic_sends(16, 4, nbytes=512, seed=6)
coord128 = coordinated_all_to_all(
    [list(items) for items in logical16 for _ in range(8)], tensor_slice=8, cost=cost
)
print("\np=128 flat:               ", f"{flat128.modeled_latency_s:.6f}", "(128 rounds)")
print("p=128 coordinated, L=8:")
print("  exchange term:", f"{coord128.a2a_latency_s:.6f}", "(16 rounds + full payload)")
print("  with allgather:", f"{coord128.modeled_latency_s:.6f}")

hier128 = hierarchical_all_to_all(sends128, gpus_per_node=8, cost=cost)
print("p=128 hierarchical, G=8:  ", f"{hier128.modeled_latency_s:.6f}", "(24 rounds, 2x volume)")

# every event is available for inspection or CSV export
print("\nfirst hierarchical events:")
for step, kind, src, dst, nbytes in hier128.events[["step", "kind", "src", "dst", "nbytes"]][:3].tolist():
    print(f"  step {step} {kind:>16} {src:>3} -> {dst:>3} {nbytes} bytes")
