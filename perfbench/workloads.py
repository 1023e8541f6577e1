"""The benchmark's three workloads.

Each workload is built from the imported moekit modules (``mk`` maps layer
name to module) and a seed, and generates every input itself. ``op(i)`` runs
operation i and returns its result; ``check(result)`` returns a list of
problems (empty when the result is correct); ``work(result)`` counts the
units behind ``work_per_s``. ``op(0)`` is the untimed warm-up that set-up
runs. Ops repeat in cycles of ``CYCLE`` kinds (schedules, seeds), and a run
measures whole cycles. ``STEPS_PER_OP`` divides the traced call counts: a
step is a training step on train and the op elsewhere.

Why each workload exists:

* route: the gating pipeline at the ROADMAP baseline size, with a seeded
  per-expert skew so hot experts overflow. The gating layer does almost all
  the work. An op touches about 400 MB (64 MB batch, 168 MB (E, c, M)
  buffer, logits, probabilities, output), more than a server's shared
  last-level cache.
* train: ``kd-demo`` in-process, one seed and 200 steps per op. Tape forward,
  backward and held-out eval do the work; gating is called thousands of
  times on S=32, E=4, so per-call overhead matters instead of bulk array
  work. It carries the only quality output, the final held-out CE.
* exchange: the three all-to-all schedules plus ``estimate_latency`` on a
  16 x 8 cluster, with a payload made by routing each rank's tokens under
  skewed logits to the rank that owns the chosen expert.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math

import numpy as np

# Per-expert logit offsets drawn from N(0, SKEW_STD^2): a few experts run hot.
# derive_skew.py gives 0.137: the offset std whose per-expert demand CV on the
# route inputs equals the median CV (0.33) of the routers kd-demo trains.
SKEW_STD = 0.14


class Route:
    """top_k_gate -> build_dispatch_plan -> scatter -> combine -> balance loss."""

    TOKENS, EXPERTS, K, HIDDEN, CAPACITY_FACTOR = 32768, 128, 2, 256, 1.25
    CHECK_ROWS = 4096  # seeded sample of each op's tokens checked row by row
    ORACLE_ROWS = 256  # seeded sub-batch routed again and compared with the one-hot oracles
    CYCLE = STEPS_PER_OP = 1
    work_unit = "routed tokens"

    def __init__(self, mk: dict, seed: int, workdir) -> None:
        self.gating, self.arch = mk["gating"], mk["arch"]
        self.cfg = self.gating.GatingConfig(
            num_experts=self.EXPERTS, k=self.K, capacity_factor=self.CAPACITY_FACTOR
        )
        rng = np.random.default_rng(seed)
        skew = SKEW_STD * rng.standard_normal(self.EXPERTS)
        self.logits = rng.standard_normal((self.TOKENS, self.EXPERTS)) + skew
        self.batch = rng.standard_normal((self.TOKENS, self.HIDDEN))
        self._check_rng = np.random.default_rng([seed, 1])

    def op(self, i: int):
        g = self.gating
        gate = g.top_k_gate(self.logits, self.cfg)
        plan = g.build_dispatch_plan(gate, self.cfg, self.TOKENS)
        # identity experts: each expert returns its dispatched rows unchanged
        combined = g.combine_tokens(g.scatter_tokens(self.batch, plan), plan)
        loss = self.arch.load_balance_loss(plan, gate.probs)
        return gate, plan, combined, loss

    def work(self, result) -> int:
        return self.TOKENS

    def check(self, result) -> list[str]:
        gate, plan, combined, loss = result
        problems = []
        e, cap, s = self.EXPERTS, plan.capacity, self.TOKENS
        if cap != self.cfg.capacity(s):
            problems.append(f"capacity {cap} != {self.cfg.capacity(s)}")
        # row checks on a seeded sample of the op's tokens
        rows = np.sort(self._check_rng.choice(s, self.CHECK_ROWS, replace=False))
        logits, ids = self.logits[rows], plan.expert_ids[rows]
        first = np.take_along_axis(logits, ids[:, :1], axis=1)[:, 0]
        np.put_along_axis(logits, ids[:, :1], -np.inf, axis=1)
        second = np.take_along_axis(logits, ids[:, 1:], axis=1)[:, 0]
        if not (np.array_equal(first, self.logits[rows].max(axis=1))
                and np.array_equal(second, logits.max(axis=1))):
            problems.append("expert ids are not the top-2 logits")
        if np.any(plan.expert_load > cap):
            problems.append(f"expert load {plan.expert_load.max()} exceeds capacity {cap}")
        kept = plan.slots != self.gating.DROPPED
        if int(kept.sum()) != int(plan.expert_load.sum()):
            problems.append("kept count != expert_load.sum()")
        # slots on each expert are unique and dense: exactly 0..load-1
        occ = np.bincount(plan.expert_ids[kept] * cap + plan.slots[kept], minlength=e * cap)
        dense = np.arange(cap)[None, :] < plan.expert_load[:, None]
        if occ.size != e * cap or not np.array_equal(occ.reshape(e, cap), dense):
            problems.append("slots are not unique and dense per expert")
        # identity experts: a token comes back as the sum over kept choices of p_j * x
        x, want = self.batch[rows], np.zeros((self.CHECK_ROWS, self.HIDDEN))
        for j in range(self.K):
            want += np.where(kept[rows, j, None], plan.gate_probs[rows, j, None] * x, 0.0)
        if not np.array_equal(combined[rows], want):
            problems.append("combined rows differ from the gate-weighted identity")
        counts = np.bincount(plan.expert_ids.reshape(-1), minlength=e) / (s * self.K)
        want_loss = e * float(np.sum(counts * gate.probs.mean(axis=0)))
        if not math.isclose(loss, want_loss, rel_tol=1e-12):
            problems.append(f"balance loss {loss!r} != {want_loss!r}")
        problems += self._check_oracle()
        return problems

    def _check_oracle(self) -> list[str]:
        g = self.gating
        rows = np.sort(self._check_rng.choice(self.TOKENS, self.ORACLE_ROWS, replace=False))
        x = self.batch[rows]
        gate = g.top_k_gate(self.logits[rows], self.cfg)
        plan = g.build_dispatch_plan(gate, self.cfg, self.ORACLE_ROWS)
        buffers = g.scatter_tokens(x, plan)
        combined = g.combine_tokens(buffers, plan)
        obuf = g.sparse_dispatch_oracle(x, gate, self.cfg)
        oout = g.sparse_combine_oracle(obuf, gate, self.cfg)
        err = max(np.max(np.abs(buffers.data - obuf)), np.max(np.abs(combined - oout)))
        return [] if err == 0.0 else [f"sub-batch differs from the one-hot oracle by {err:.3g}"]

    def layer_counts(self) -> dict:
        return {}


class Train:
    """``moekit kd-demo`` with one seed and 200 steps: a staged and a constant run."""

    STEPS = 200
    SEEDS = CYCLE = 4  # ops cycle through this many seeded configs
    STEPS_PER_OP = 2 * STEPS  # one staged and one constant run
    HEADER = ["seed", "staged_final_ce", "constant_final_ce", "staged_wins"]
    work_unit = "training steps"

    def __init__(self, mk: dict, seed: int, workdir) -> None:
        self.cli = mk["cli"]
        self.config = workdir / "kd-demo.json"
        self.config.write_text(json.dumps({"options": {"seeds": 1, "steps": self.STEPS}}))
        self.seeds = [self.SEEDS * seed + j for j in range(self.SEEDS)]
        self.final_ce: dict[int, float] = {}  # config seed -> mean final held-out CE

    def op(self, i: int):
        seed = self.seeds[i % self.SEEDS]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["kd-demo", "--config", str(self.config), "--seed", str(seed)])
        return seed, code, out.getvalue()

    def work(self, result) -> int:
        return self.STEPS_PER_OP

    def check(self, result) -> list[str]:
        seed, code, text = result
        if code != 0:
            return [f"kd-demo exited {code}"]
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) != 2 or rows[0] != self.HEADER or len(rows[1]) != 4:
            return [f"unexpected kd-demo CSV: {text!r}"]
        row = rows[1]
        try:
            staged, constant = float(row[1]), float(row[2])
        except ValueError:
            return [f"CE values do not parse: {row}"]
        if not (math.isfinite(staged) and math.isfinite(constant)):
            return [f"non-finite CE: {row}"]
        if int(row[0]) != seed or row[3] != str(int(staged < constant)):
            return [f"seed or staged_wins column wrong: {row}"]
        mean = (staged + constant) / 2
        if self.final_ce.setdefault(seed, mean) != mean:
            return [f"seed {seed} did not repeat: {mean!r} vs {self.final_ce[seed]!r}"]
        return []

    def final_heldout_ce(self) -> float:
        """Mean over the SEEDS configs of the staged/constant mean final held-out CE."""
        if len(self.final_ce) != self.SEEDS:
            raise RuntimeError(f"only {len(self.final_ce)} of {self.SEEDS} configs ran")
        return sum(self.final_ce.values()) / self.SEEDS

    def layer_counts(self) -> dict:
        return {}


class Exchange:
    """flat / hierarchical / coordinated all-to-all, one schedule call per op."""

    PRESET, NODES, GPUS, TENSOR_SLICE = "1.3B+MoE-128", 16, 8, 2
    TOKENS_PER_RANK = 1024
    SCHEDULES = ("flat", "hierarchical", "coordinated")
    CYCLE = len(SCHEDULES)
    STEPS_PER_OP = 1
    work_unit = "delivered payload items"

    def __init__(self, mk: dict, seed: int, workdir) -> None:
        self.commsim, planner, gating = mk["commsim"], mk["planner"], mk["gating"]
        model = mk["presets"].get_preset(self.PRESET).config
        self.topology = planner.ClusterTopology(nodes=self.NODES, gpus_per_node=self.GPUS)
        built = planner.plan(model, self.topology, tensor_slice=self.TENSOR_SLICE)
        layer = model.moe_layer_indices[0]
        spec, place = model.layers[layer], built.placement_for(layer)
        world = self.topology.world_size
        if place.ep_degree != world or place.expert_dp != 1:
            raise RuntimeError(f"expected one expert per rank, got {place}")
        owner = np.empty(place.num_experts, dtype=np.int64)
        for r in range(place.ep_degree):
            lo, hi = place.expert_block(r)
            owner[lo:hi] = r

        rng = np.random.default_rng(seed)
        skew = SKEW_STD * rng.standard_normal(place.num_experts)
        item, nbytes = self.commsim.Item, 2 * spec.hidden  # fp16 activations
        self.sends, token = [], 0
        for src in range(world):
            logits = rng.standard_normal((self.TOKENS_PER_RANK, place.num_experts)) + skew
            dst = owner[gating.top_k_gate(logits, spec.gating).expert_ids.reshape(-1)]
            self.sends.append([item(src, int(d), token + n, nbytes) for n, d in enumerate(dst)])
            token += len(dst)
        self.items = token
        # tensor-slice pairs (2g, 2g+1) hold one replicated logical group: its
        # send list is both ranks' items, addressed to the owner's group
        ts = self.TENSOR_SLICE
        logical = []
        for g in range(world // ts):
            pair = self.sends[g * ts:(g + 1) * ts]
            logical.append(
                [item(g, it.dst // ts, it.token, it.nbytes) for items in pair for it in items]
            )
        self.replicated = [list(items) for items in logical for _ in range(ts)]
        self.expected = None  # per-rank recv, set from the checked warm-up op
        self.stats: dict = {}
        load = np.bincount([it.dst for items in self.sends for it in items], minlength=world)
        self.skew = float(load.max() / load.mean())

    def op(self, i: int):
        c = self.commsim
        name = self.SCHEDULES[i % len(self.SCHEDULES)]
        if name == "flat":
            trace = c.flat_all_to_all(self.sends)
        elif name == "hierarchical":
            trace = c.hierarchical_all_to_all(self.sends, self.GPUS)
        else:
            trace = c.coordinated_all_to_all(self.replicated, self.TENSOR_SLICE)
        return name, trace, c.estimate_latency(trace, self.topology)

    def work(self, result) -> int:
        return self.items

    def check(self, result) -> list[str]:
        name, trace, estimate = result
        if self.expected is None:
            problems = self._set_expected(trace)
            if problems:
                return problems
        want = self.expected[name == "coordinated"]
        problems = []
        if trace.recv != want:
            problems.append(f"{name}: recv lists differ from the other schedules")
        if not (estimate > 0 and math.isfinite(estimate)):
            problems.append(f"{name}: estimated latency {estimate!r}")
        self.stats[name] = {
            "events": len(trace.events),
            "a2a_rounds": trace.a2a_rounds,
            "volume_bytes": trace.volume_bytes,
            "volume_ratio": trace.volume_ratio,
            "modeled_latency_s": trace.modeled_latency_s,
            "estimated_latency_s": estimate,
        }
        return problems

    def _set_expected(self, flat) -> list[str]:
        """Check the flat warm-up conserves the payload, then derive every schedule's recv.

        Flat delivers every item to its dst, so each rank of tensor-slice
        group g must receive the logical items addressed to g: what flat
        delivers to ranks 2g and 2g+1, with ranks relabelled as groups. The
        expectation reuses the input items, so it holds references only.
        """
        if flat.schedule != "flat":
            return ["warm-up op must be the flat schedule"]
        recv_set = self.commsim.payload_multiset(flat.recv)
        if recv_set != self.commsim.payload_multiset(self.sends):
            return ["flat: payload_multiset not conserved"]
        if any(it.dst != d for d, items in enumerate(flat.recv) for it in items):
            return ["flat: an item reached the wrong rank"]
        ts = self.TENSOR_SLICE
        groups = [[] for _ in range(len(flat.recv) // ts)]
        for items in self.replicated[::ts]:  # one send list per logical group
            for it in items:
                groups[it.dst].append(it)
        for g, grp in enumerate(groups):
            if sorted(it.token for it in grp) != sorted(
                it.token for items in flat.recv[g * ts:(g + 1) * ts] for it in items
            ):
                return [f"flat: group {g} tokens differ from the logical payload"]
        ordered = [tuple(sorted(grp, key=lambda it: (it.src, it.token))) for grp in groups]
        self.expected = (flat.recv, tuple(grp for grp in ordered for _ in range(ts)))
        return []

    def layer_counts(self) -> dict:
        out = {"commsim.payload_skew": self.skew}
        for name, stats in self.stats.items():
            out.update({f"commsim.{name}.{key}": value for key, value in stats.items()})
        return out


WORKLOADS = {"route": Route, "train": Train, "exchange": Exchange}
