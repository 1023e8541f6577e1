"""Round-level simulation of all-to-all exchange schedules.

Every schedule here moves the same logical payload: per-rank lists of
``Item`` records, each bound for a destination rank. Three schedules are
modeled:

  * ``flat_all_to_all``: p pairwise rounds, every rank exchanging with every
    rank (itself included). The baseline.
  * ``hierarchical_all_to_all``: two phases. Ranks first combine traffic
    inside each node, keyed by the destination's local id, then ranks with
    the same local id exchange across nodes. Fewer, fatter rounds: G + p/G
    instead of p, at the cost of moving every payload byte twice.
  * ``coordinated_all_to_all``: for tensor-sliced models where groups of L
    consecutive ranks hold identical replicas of the payload. Each replica
    sends only its 1/L share through a stride-L sub-exchange, then an
    allgather inside each group rebuilds the full result. The exchange
    shrinks to p/L rounds at full payload volume, plus L cheap allgather
    rounds.

The schedules differ only in which rank each message goes to and in which
round, so every exchange phase runs through one helper, ``_exchange``: it
buckets each rank's items by destination, maps each bucket to its receiving
rank and round, and emits the phase's events in (round, source) order.

All schedules deliver bit-identical receive lists (sorted by source rank and
token id), which the tests rely on. Self-deliveries inside an exchange phase
count toward volume, so the hierarchical schedule's volume is exactly twice
the flat one's.

The normalized cost model scores a trace as rounds * c1 + c2 * (exchange
volume / payload volume): c1 is the fixed price of a round, c2 the price of
pushing the whole payload through the wire once. ``estimate_latency`` gives
an alternative physical estimate from the topology's link constants instead,
pricing each message by the intra- or inter-node link between its endpoints.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Literal

import numpy as np

from .planner import ClusterTopology

__all__ = [
    "Item",
    "CommEvent",
    "CommTrace",
    "CostModel",
    "ScheduleError",
    "ReplicaMismatchError",
    "flat_all_to_all",
    "hierarchical_all_to_all",
    "coordinated_all_to_all",
    "estimate_latency",
    "synthetic_sends",
    "payload_multiset",
]


class ScheduleError(ValueError):
    """Raised for malformed payloads or impossible schedule parameters."""


class ReplicaMismatchError(ScheduleError):
    """Raised when ranks that should hold identical replicas do not."""


@dataclass(frozen=True, order=True)
class Item:
    """One routed payload unit: token ``token`` going from src to dst."""

    src: int
    dst: int
    token: int
    nbytes: int


EventKind = Literal["p2p", "layout-transform", "a2a-phase", "allgather"]


@dataclass(frozen=True)
class CommEvent:
    step: int
    kind: EventKind
    src: int
    dst: int
    nbytes: int
    latency_s: float


@dataclass(frozen=True)
class CostModel:
    """Normalized schedule cost: c1 per round, c2 per full payload volume."""

    c1: float = 1e-4
    c2: float = 1e-3

    def __post_init__(self) -> None:
        if self.c1 < 0 or self.c2 < 0:
            raise ScheduleError("cost constants must be >= 0")


@dataclass(frozen=True)
class CommTrace:
    """Full record of one simulated schedule."""

    schedule: str
    world_size: int
    a2a_rounds: int
    allgather_rounds: int
    volume_bytes: int
    a2a_volume_bytes: int
    reference_bytes: int
    cost: CostModel
    events: tuple[CommEvent, ...]
    recv: tuple[tuple[Item, ...], ...]

    @property
    def rounds(self) -> int:
        return self.a2a_rounds + self.allgather_rounds

    @property
    def volume_ratio(self) -> float:
        if self.reference_bytes == 0:
            return 0.0
        return self.a2a_volume_bytes / self.reference_bytes

    @property
    def a2a_latency_s(self) -> float:
        return self.a2a_rounds * self.cost.c1 + self.volume_ratio * self.cost.c2

    @property
    def modeled_latency_s(self) -> float:
        return self.rounds * self.cost.c1 + self.volume_ratio * self.cost.c2

    def to_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj)
        writer.writerow(["step", "kind", "src", "dst", "nbytes", "latency_s"])
        for e in self.events:
            writer.writerow([e.step, e.kind, e.src, e.dst, e.nbytes, f"{e.latency_s:.10g}"])


# ---------------------------------------------------------------------------
# payload helpers
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    return type(value) is int or isinstance(value, np.integer)


def _validate(sends: list[list[Item]], src_of_rank, dst_limit: int) -> int:
    """Check every item's src, dst and size; return the payload's total bytes.

    src, dst and nbytes must be ints (numpy integers pass, bools do not).
    """
    if not sends:
        raise ScheduleError("world must have at least one rank")
    total = 0
    for rank, items in enumerate(sends):
        want_src = src_of_rank(rank)
        for it in items:
            src, dst, nbytes = it.src, it.dst, it.nbytes
            # plain ints take the first test; numpy integers the second
            if not (type(src) is type(dst) is type(nbytes) is int) and not (
                _is_int(src) and _is_int(dst) and _is_int(nbytes)
            ):
                raise ScheduleError(f"rank {rank}: src, dst and nbytes must be ints on {it}")
            if src != want_src:
                raise ScheduleError(f"rank {rank}: item src {src} should be {want_src}")
            if not (0 <= dst < dst_limit):
                raise ScheduleError(f"rank {rank}: dst {dst} outside [0, {dst_limit})")
            if nbytes < 0:
                raise ScheduleError(f"rank {rank}: negative nbytes on {it}")
            total += nbytes
    return total


def _check_divisor(name: str, value, world: int) -> None:
    if not _is_int(value) or value < 1 or world % value != 0:
        raise ScheduleError(f"{name} {value!r} must be an int that divides world {world}")


_nbytes = attrgetter("nbytes")
_recv_order = attrgetter("src", "token")


def _sorted_recv(items: list[Item]) -> tuple[Item, ...]:
    return tuple(sorted(items, key=_recv_order))


def _msg_latency(nbytes: int, src: int, dst: int, cost: CostModel, reference: int) -> float:
    # informational per-message cost under the normalized model; the trace
    # totals come from the round/volume formula, not from summing these
    if src == dst or reference == 0:
        return 0.0
    return cost.c2 * nbytes / reference


def _exchange(
    held: list[list[Item]], dest, round_of, step: int, cost: CostModel, reference: int, events: list
) -> tuple[list[list[Item]], int]:
    """One all-to-all phase; returns each rank's received items and bytes moved.

    Rank s sends its items addressed to ``dst`` to rank ``dest(s, dst)``;
    all items from s to d form one message, sent in round ``round_of(s, d)``.
    Events are appended in (round, source) order at ``step + round``.
    """
    messages: dict[tuple[int, int, int], list[Item]] = {}
    for s, items in enumerate(held):
        buckets: defaultdict[int, list[Item]] = defaultdict(list)
        for it in items:
            buckets[it.dst].append(it)
        for dst, bucket in buckets.items():
            d = dest(s, dst)
            message = messages.setdefault((round_of(s, d), s, d), bucket)
            if message is not bucket:
                message.extend(bucket)

    recv: list[list[Item]] = [[] for _ in held]
    moved = 0
    for key in sorted(messages):
        r, s, d = key
        payload = messages.pop(key)
        nbytes = sum(map(_nbytes, payload))
        moved += nbytes
        events.append(
            CommEvent(step + r, "a2a-phase", s, d, nbytes, _msg_latency(nbytes, s, d, cost, reference))
        )
        recv[d].extend(payload)
    return recv, moved


def _layout_transform(held: list[list[Item]], step: int, events: list[CommEvent]) -> None:
    """Record each rank's local regrouping of everything it holds."""
    for s, items in enumerate(held):
        total = sum(map(_nbytes, items))
        if total:
            events.append(CommEvent(step, "layout-transform", s, s, total, 0.0))


def synthetic_sends(
    world: int, per_rank: int, nbytes: int = 1024, seed: int = 0
) -> list[list[Item]]:
    """Random but seeded payload: per_rank items per rank, uniform dst."""
    for name, value, low in (("world", world, 1), ("per_rank", per_rank, 0), ("nbytes", nbytes, 0)):
        if not _is_int(value) or value < low:
            raise ScheduleError(f"{name} must be an integer >= {low}, got {value!r}")
    rng = np.random.default_rng(seed)
    return [
        [Item(src, int(rng.integers(world)), src * per_rank + n, nbytes) for n in range(per_rank)]
        for src in range(world)
    ]


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def flat_all_to_all(sends: list[list[Item]], cost: CostModel | None = None) -> CommTrace:
    """Baseline exchange: p rounds, round r pairs src with (src + r) mod p."""
    world = len(sends)
    cost = cost or CostModel()
    reference = _validate(sends, lambda r: r, world)

    events: list[CommEvent] = []
    recv, volume = _exchange(
        sends, lambda s, dst: dst, lambda s, d: (d - s) % world, 0, cost, reference, events
    )

    return CommTrace(
        schedule="flat",
        world_size=world,
        a2a_rounds=world,
        allgather_rounds=0,
        volume_bytes=volume,
        a2a_volume_bytes=volume,
        reference_bytes=reference,
        cost=cost,
        events=tuple(events),
        recv=tuple(_sorted_recv(r) for r in recv),
    )


def hierarchical_all_to_all(
    sends: list[list[Item]], gpus_per_node: int, cost: CostModel | None = None
) -> CommTrace:
    """Two-phase exchange: combine inside nodes, then across nodes.

    Phase one runs G rounds keyed by the destination's local id; afterwards
    the rank with local id l in each node holds everything its node sends to
    any rank with local id l. Phase two runs p/G rounds keyed by destination
    node, between same-local-id ranks. Every item crosses both phases, so
    exchanged volume is exactly twice the payload.
    """
    world = len(sends)
    g = gpus_per_node
    _check_divisor("gpus_per_node", g, world)
    cost = cost or CostModel()
    reference = _validate(sends, lambda r: r, world)

    events: list[CommEvent] = []
    _layout_transform(sends, 0, events)
    # intra-node phase: round l delivers to the local-id-l rank of each node
    held, intra_volume = _exchange(
        sends, lambda s, dst: (s // g) * g + dst % g, lambda s, d: d % g, 1, cost, reference, events
    )
    _layout_transform(held, g + 1, events)
    # inter-node phase: round m delivers to node m, between same-local ranks
    recv, inter_volume = _exchange(
        held, lambda s, dst: (dst // g) * g + s % g, lambda s, d: d // g, g + 2, cost, reference, events
    )

    volume = intra_volume + inter_volume
    return CommTrace(
        schedule="hierarchical",
        world_size=world,
        a2a_rounds=g + world // g,
        allgather_rounds=0,
        volume_bytes=volume,
        a2a_volume_bytes=volume,
        reference_bytes=reference,
        cost=cost,
        events=tuple(events),
        recv=tuple(_sorted_recv(r) for r in recv),
    )


def coordinated_all_to_all(
    sends: list[list[Item]], tensor_slice: int, cost: CostModel | None = None
) -> CommTrace:
    """Replica-aware exchange for tensor-sliced groups of L consecutive ranks.

    Item src/dst name logical groups, not physical ranks, and every rank in a
    group must hold an identical copy of its group's send list. Replica t of
    each group sends only items at positions i with i mod L == t, through a
    sub-exchange with the other groups' replica-t ranks (p/L parallel
    rounds); L allgather rounds inside each group then rebuild the complete
    receive set on every member.
    """
    world = len(sends)
    slice_ = tensor_slice
    _check_divisor("tensor_slice", slice_, world)
    cost = cost or CostModel()
    groups = world // slice_
    total = _validate(sends, lambda r: r // slice_, groups)
    for r in range(world):
        base = r - r % slice_
        if r != base and sends[r] != sends[base]:
            raise ReplicaMismatchError(
                f"rank {r} disagrees with rank {base} on group {r // slice_}'s payload"
            )

    # reference counts the logical payload once, not per replica
    reference = total // slice_
    events: list[CommEvent] = []

    # stride-L sub-exchange, all slices in parallel each round
    held, a2a_volume = _exchange(
        [items[s % slice_::slice_] for s, items in enumerate(sends)],
        lambda s, dst: dst * slice_ + s % slice_,
        lambda s, d: (d // slice_ - s // slice_) % groups,
        0, cost, reference, events,
    )
    volume = a2a_volume

    # allgather: round t broadcasts replica t's share to its group peers
    recv = [list(items) for items in held]
    for t in range(slice_):
        for s in range(t, world, slice_):
            share = held[s]
            nbytes = sum(map(_nbytes, share))
            for d in range(s - t, s - t + slice_):
                if d == s:
                    continue
                if nbytes:
                    volume += nbytes
                    events.append(
                        CommEvent(groups + t, "allgather", s, d, nbytes, _msg_latency(nbytes, s, d, cost, reference))
                    )
                recv[d].extend(share)

    return CommTrace(
        schedule="coordinated",
        world_size=world,
        a2a_rounds=groups,
        allgather_rounds=slice_,
        volume_bytes=volume,
        a2a_volume_bytes=a2a_volume,
        reference_bytes=reference,
        cost=cost,
        events=tuple(events),
        recv=tuple(_sorted_recv(r) for r in recv),
    )


# ---------------------------------------------------------------------------
# physical estimate and invariant helpers
# ---------------------------------------------------------------------------


def estimate_latency(trace: CommTrace, topology: ClusterTopology) -> float:
    """Wall-clock estimate from the topology's link constants.

    Each non-self message is priced by the link between its endpoints: the
    intra-node link when both ranks share a node (rank // gpus_per_node),
    the inter-node link otherwise. A source's messages in one round cost the
    largest of their link latencies plus each message's bytes over its
    link's bandwidth; a round costs its busiest source. Rounds that move
    nothing are free, and so are self-deliveries and local layout
    transforms. With intra_link == inter_link every message is priced at one
    link, which is the pessimistic worst-case-locality figure.
    """
    g = topology.gpus_per_node
    links = (topology.intra_link, topology.inter_link)
    split = links[0] != links[1]  # equal links price as one: a source's bytes sum before dividing
    # per round: bytes by source, one dict per link
    per_round: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    for e in trace.events:
        if e.kind != "layout-transform" and e.src != e.dst:
            sent = per_round.setdefault(e.step, ({}, {}))[split and e.src // g != e.dst // g]
            sent[e.src] = sent.get(e.src, 0) + e.nbytes
    total = 0.0
    for _, by_link in sorted(per_round.items()):
        # on one link the heaviest source is slowest; a source using both
        # links pays the larger latency plus both transfer times
        costs = [
            link.latency_s + max(sent.values()) / link.bandwidth_bytes_per_s
            for link, sent in zip(links, by_link)
            if sent
        ]
        near, far = by_link
        costs += [
            max(link.latency_s for link in links)
            + near[src] / links[0].bandwidth_bytes_per_s
            + far[src] / links[1].bandwidth_bytes_per_s
            for src in near.keys() & far.keys()
        ]
        total += max(costs)
    return total


def payload_multiset(sends_or_recv) -> Counter:
    """Multiset of items, for conservation checks across schedules."""
    return Counter(it for items in sends_or_recv for it in items)
