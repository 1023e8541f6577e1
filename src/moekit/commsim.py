"""Round-level simulation of all-to-all exchange schedules.

Every schedule here moves the same logical payload: per-rank lists of
``Item`` named tuples, each bound for a destination rank. Three schedules
are modeled:

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

The payload is read once into numpy columns (src, dst, token, nbytes, one
int64 value per item each) by one ``struct`` pack of all its fields as
int64 ``q``s, which take what ``operator.index`` takes; only values read as
0 or 1 are looked at again, to refuse bools. The schedules differ only in
which rank each message goes to and in which round, so every exchange phase
runs through ``_exchange``: it maps each item to its receiving rank and
round, groups each message's items by a (round, source) key with ``_runs``
(one stable argsort), sums its bytes over its segment and emits one
structured-array event row per message, in (round, source) order. Every sort
reads its rank keys in the smallest unsigned dtype below their bound
(``_contract._uint``), as numpy radix-sorts keys of 16 bits or fewer. Every
byte count a schedule reports must fit int64; a larger one raises
ScheduleError.

All schedules deliver bit-identical receive lists (sorted by source rank and
token id, equal pairs in arrival order), which the tests rely on. A trace
builds them on the first read of ``recv`` and caches them: each schedule
keeps only a snapshot of its entries and their narrow sort keys, bound to
``_deliver`` with ``functools.partial`` so that a trace still pickles.
``_deliver`` does one lexsort of those keys and gathers each rank's tuple
from its own slice of the sort order. Coordinated's replicas differ only in
the order of items with equal (dst, src, token), so they share one delivery
unless the payload has such ties. Self-deliveries inside an exchange phase
count toward volume, so the hierarchical schedule's volume is exactly twice
the flat one's.

The normalized cost model scores a trace as rounds * c1 + c2 * (exchange
volume / payload volume): c1 is the fixed price of a round, c2 the price of
pushing the whole payload through the wire once. ``estimate_latency`` gives
an alternative physical estimate from the topology's link constants instead,
pricing each message by the intra- or inter-node link between its endpoints;
it groups a trace's messages by (round, source) with ``_runs`` too.
"""

from __future__ import annotations

import csv
import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, repeat
from operator import getitem, index, is_
from typing import Callable, NamedTuple

import numpy as np

from ._contract import _array_size, _checked, _divisor, _instance, _int_in, _is_int, _number_in, _uint
from .planner import ClusterTopology

__all__ = [
    "Item",
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


class Item(NamedTuple):
    """One routed payload unit: token ``token`` going from src to dst.

    A named tuple: it equals, hashes and orders like the plain tuple
    (src, dst, token, nbytes), so it also compares equal to one.
    """

    src: int
    dst: int
    token: int
    nbytes: int


@dataclass(frozen=True)
@_checked(ScheduleError, c1=(_number_in,), c2=(_number_in,))
class CostModel:
    """Normalized schedule cost: c1 per round, c2 per full payload volume."""

    c1: float = 1e-4
    c2: float = 1e-3


@dataclass(frozen=True)
class CommTrace:
    """Full record of one simulated schedule.

    ``events`` is a read-only structured array, one row per message in
    schedule order, with fields step, kind ("layout-transform", "a2a-phase"
    or "allgather"), src, dst, nbytes and latency_s; read them by name.
    ``recv`` holds one tuple of received items per rank. It is built on
    its first read, by the schedule's ``delivery``, and cached; it is not
    a field, so traces compare without it.
    """

    schedule: str
    world_size: int
    a2a_rounds: int
    allgather_rounds: int
    volume_bytes: int
    a2a_volume_bytes: int
    reference_bytes: int
    cost: CostModel
    events: np.ndarray
    delivery: Callable[[], tuple[tuple[Item, ...], ...]] = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        self.events.flags.writeable = False

    @cached_property
    def recv(self) -> tuple[tuple[Item, ...], ...]:
        return self.delivery()

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
        writer.writerow(_EVENT.names)
        columns = [self.events[name].tolist() for name in _EVENT.names]
        columns[-1] = [f"{latency:.10g}" for latency in columns[-1]]
        writer.writerows(zip(*columns))


# ---------------------------------------------------------------------------
# payload columns and the exchange phase
# ---------------------------------------------------------------------------

_FIELDS = Item._fields
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_EVENT = np.dtype([("step", np.int64), ("kind", "U16"), ("src", np.int64), ("dst", np.int64),
                   ("nbytes", np.int64), ("latency_s", np.float64)])


def _columns(lists: list[list[Item]], ranks) -> tuple[list[Item], np.ndarray]:
    """The items in ``lists``, in turn, as one new list, and their src, dst,
    token and nbytes as the rows of a (4, n) int64 array.

    Every entry must be an ``Item`` and every field an int (``_is_int``) that
    fits int64. All fields of all items are read in one ``struct`` pack as
    int64 ``q``s; only a bad value is looked for field by field, to name its
    field and the rank ``ranks[j]`` of its list j.
    """
    entries = list(chain.from_iterable(lists))
    if not all(issubclass(kind, Item) for kind in set(map(type, entries))):
        i = next(i for i, entry in enumerate(entries) if not isinstance(entry, Item))
        raise ScheduleError(f"rank {_rank_of(lists, ranks, i)}: entry {entries[i]!r} is not an Item")
    n = len(_FIELDS)
    try:
        table = np.frombuffer(struct.pack(f"{n * len(entries)}q", *chain.from_iterable(entries)), np.int64)
        # q reads a bool as 0 or 1, so only those values can be one
        rows, fields = np.divmod(np.flatnonzero(table.view(np.uint64) <= 1), n)
        if bool not in set(map(type, map(getitem, map(entries.__getitem__, rows.tolist()), fields.tolist()))):
            return entries, table.reshape(-1, n).T.copy()
    except (struct.error, TypeError):  # a bad value, found below
        pass
    values = list(chain.from_iterable(entries))
    f, i = next(
        (f, i) for f in range(n) for i, v in enumerate(values[f::n])
        if not (_is_int(v) and _INT64_MIN <= index(v) <= _INT64_MAX)
    )
    raise ScheduleError(
        f"rank {_rank_of(lists, ranks, i)}: {_FIELDS[f]} {values[i * n + f]!r} is not an int in int64 range"
    )


def _rank_of(lists: list[list], ranks, i: int):
    """The rank ``ranks[j]`` of the list j that holds entry i of all the lists in turn."""
    return ranks[int(np.searchsorted(np.cumsum(list(map(len, lists))), i, side="right"))]


def _read(lists: list[list[Item]], ranks, dst_limit: int, volume_factor: int):
    """Columns of a payload whose list i is held by rank ``ranks[i]``.

    The entries of list i must be ``Item``s with src i and a dst in
    [0, dst_limit), and no negative nbytes. The schedule moves volume_factor
    times the payload's total bytes, which must fit int64, so every byte
    count summed over the columns is exact. Returns (the items as one list,
    src, dst, token, nbytes as int64 columns, total bytes as an int).
    """
    entries, (src, dst, token, nbytes) = _columns(lists, ranks)
    owner = np.repeat(np.arange(len(lists), dtype=np.int64), list(map(len, lists)))
    for bad, problem in (
        (src != owner, lambda i: f"item src {src[i]} should be {owner[i]}"),
        ((dst < 0) | (dst >= dst_limit), lambda i: f"dst {dst[i]} outside [0, {dst_limit})"),
        (nbytes < 0, lambda i: f"negative nbytes on {entries[i]}"),
    ):
        if bad.any():
            i = int(bad.argmax())
            raise ScheduleError(f"rank {ranks[owner[i]]}: {problem(i)}")
    # summed as 32-bit halves, so the total is exact even past int64
    total = (int((nbytes >> 32).sum()) << 32) + int((nbytes & 0xFFFFFFFF).sum())
    if total * volume_factor > _INT64_MAX:
        raise ScheduleError(
            f"payload of {total} bytes: the schedule would move more than {_INT64_MAX} bytes"
        )
    return entries, src, dst, token, nbytes, total


def _check_call(sends, cost) -> CostModel:
    """A schedule's cost model (the default one for None), once ``sends`` is a
    non-empty list or tuple of per-rank lists or tuples."""
    if not isinstance(sends, (list, tuple)) or not sends:
        raise ScheduleError(f"sends must be a non-empty list of per-rank lists, got {sends!r:.80}")
    for rank, items in enumerate(sends):
        _instance(f"rank {rank}: send list", items, (list, tuple), ScheduleError)
    return _instance("cost", cost, (CostModel, type(None)), ScheduleError) or CostModel()


def _events(step, kind: str, src, dst, nbytes, cost: CostModel, reference: int) -> np.ndarray:
    """Event rows of ``kind`` messages. latency_s is a non-self message's
    informational cost c2 * nbytes / reference under the normalized model;
    the trace totals come from the round/volume formula, not from these."""
    rows = np.empty(len(src), _EVENT)
    for name, column in zip(_EVENT.names, (step, kind, src, dst, nbytes)):
        rows[name] = column
    # c2 as a float, so an int one cannot overflow int64; an empty payload
    # (reference 0) has only 0-byte messages, priced 0
    rows["latency_s"] = np.where(src == dst, 0.0, float(cost.c2) * rows["nbytes"] / (reference or np.inf))
    return rows


def _runs(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """A stable sort order of ``key``, in [0, bound), and the start of each run of equal keys in it."""
    order = np.argsort(_uint(key, bound), kind="stable")
    return order, np.flatnonzero(np.diff(key[order], prepend=-1))


def _rank_bytes(ranks: np.ndarray, nbytes: np.ndarray, world: int) -> np.ndarray:
    out = np.zeros(world, np.int64)
    np.add.at(out, ranks, nbytes)
    return out


def _exchange(
    at: np.ndarray, dst: np.ndarray, nbytes: np.ndarray, dest, round_of,
    world: int, step: int, cost: CostModel, reference: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One all-to-all phase over items held at ranks ``at`` and bound for ``dst``.

    Rank s sends its items addressed to ``dst`` to rank ``dest(s, dst)``;
    all items from s to d form one message, sent in round ``round_of(s, d)``
    (both map rank columns to rank columns). A rank sends at most one message
    per round, so the key round * world + s < world**2 names the message: a
    stable argsort groups each message's items and its bytes are a segment sum.
    Returns the events in key, that is (round, source), order at
    ``step + round``; each item's receiving rank; each rank's received bytes.
    """
    d = dest(at, dst)
    key = round_of(at, d).astype(np.int64) * world + at
    order, first = _runs(key, world * world)
    sizes = np.add.reduceat(nbytes[order], first)
    rounds, srcs = np.divmod(key[order[first]], world)
    dsts = d[order[first]]
    events = _events(step + rounds, "a2a-phase", srcs, dsts, sizes, cost, reference)
    return events, d, _rank_bytes(dsts, sizes, world)


def _layout_transform(held: np.ndarray, step: int, cost: CostModel, reference: int) -> np.ndarray:
    """Each rank's local regrouping of the ``held[rank]`` bytes it holds."""
    ranks = np.flatnonzero(held)
    return _events(step, "layout-transform", ranks, ranks, held[ranks], cost, reference)


def _delivery(entries: list[Item], src, dst, token, ranks: int, slice_: int = 1, share=None):
    """A trace's ``delivery``: ``_deliver`` bound to the smallest state it
    reads, so the payload's (4, n) table is not kept alive. src and dst are
    rank keys in [0, ranks); share (coordinated only) is each item's
    replica in [0, slice_)."""
    if share is not None:
        share = _uint(share, slice_ + 1)  # room for share + 1 in the same dtype
    return partial(_deliver, entries, _uint(src, ranks), _uint(dst, ranks), token.copy(), ranks, slice_, share)


def _deliver(entries, src, dst, token, ranks: int, slice_: int, share) -> tuple[tuple[Item, ...], ...]:
    """The receive lists: items sorted by (dst, src, token), equal triples in
    arrival order, one tuple per receiving rank, each gathered from its own
    slice of one lexsort order.

    With slice_ > 1, ``ranks`` counts groups of slice_ replicas, and replica
    t of every group receives its group's tuple. Replica t receives its own
    share first, then the others in replica order, which only reorders
    items with equal (dst, src, token); without such ties the replicas share
    one tuple.
    """
    items = np.fromiter(entries, object, len(entries))
    ends = np.cumsum(np.bincount(dst, minlength=ranks)).tolist()

    def gather(order):
        return tuple(tuple(items[order[start:end]].tolist()) for start, end in zip([0, *ends], ends))

    keys = (token, src, dst)
    order = np.lexsort(keys)
    if slice_ == 1:
        return gather(order)
    if np.logical_and.reduce([np.diff(col[order]) == 0 for col in keys]).any():
        by_replica = [gather(np.lexsort((np.where(share == t, 0, share + 1), *keys))) for t in range(slice_)]
    else:
        by_replica = [gather(order)] * slice_
    return tuple(by_replica[t][grp] for grp in range(ranks) for t in range(slice_))


@_checked(ScheduleError, world=(_int_in, 1), per_rank=(_int_in, 0), nbytes=(_int_in, 0), seed=(_int_in, 0))
def synthetic_sends(world: int, per_rank: int, nbytes: int = 1024, seed: int = 0) -> list[list[Item]]:
    """Random but seeded payload: per_rank items per rank, uniform dst."""
    # the (world, per_rank) int64 draw must fit numpy's array size, so every token id fits int64
    _array_size("payload draw", (world, per_rank), ScheduleError)
    dsts = np.random.default_rng(seed).integers(world, size=(world, per_rank)).tolist()
    # tuple.__new__ builds each Item from its fields in C, with no Python frame per item
    item = partial(tuple.__new__, Item)
    return [
        list(map(item, zip(repeat(src), row, range(src * per_rank, (src + 1) * per_rank), repeat(nbytes))))
        for src, row in enumerate(dsts)
    ]


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def flat_all_to_all(sends: list[list[Item]], cost: CostModel | None = None) -> CommTrace:
    """Baseline exchange: p rounds, round r pairs src with (src + r) mod p."""
    cost, world = _check_call(sends, cost), len(sends)
    entries, src, dst, token, nbytes, reference = _read(sends, range(world), world, 1)

    events, _, _ = _exchange(
        src, dst, nbytes, lambda s, dst: dst, lambda s, d: (d - s) % world,
        world, 0, cost, reference,
    )

    return CommTrace(
        schedule="flat",
        world_size=world,
        a2a_rounds=world,
        allgather_rounds=0,
        volume_bytes=reference,
        a2a_volume_bytes=reference,
        reference_bytes=reference,
        cost=cost,
        events=events,
        delivery=_delivery(entries, src, dst, token, world),
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
    cost, world = _check_call(sends, cost), len(sends)
    g = _divisor("gpus_per_node", gpus_per_node, world, ScheduleError)
    entries, src, dst, token, nbytes, reference = _read(sends, range(world), world, 2)

    # intra-node phase: round l delivers to the local-id-l rank of each node
    intra, held, held_bytes = _exchange(
        src, dst, nbytes, lambda s, dst: (s // g) * g + dst % g, lambda s, d: d % g,
        world, 1, cost, reference,
    )
    # inter-node phase: round m delivers to node m, between same-local ranks
    inter, _, _ = _exchange(
        held, dst, nbytes, lambda s, dst: (dst // g) * g + s % g, lambda s, d: d // g,
        world, g + 2, cost, reference,
    )
    events = np.concatenate([
        _layout_transform(_rank_bytes(src, nbytes, world), 0, cost, reference),
        intra,
        _layout_transform(held_bytes, g + 1, cost, reference),
        inter,
    ])

    return CommTrace(
        schedule="hierarchical",
        world_size=world,
        a2a_rounds=g + world // g,
        allgather_rounds=0,
        volume_bytes=2 * reference,
        a2a_volume_bytes=2 * reference,
        reference_bytes=reference,
        cost=cost,
        events=events,
        delivery=_delivery(entries, src, dst, token, world),
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
    receive set on every member, its own share first.
    """
    cost, world = _check_call(sends, cost), len(sends)
    slice_ = _divisor("tensor_slice", tensor_slice, world, ScheduleError)
    groups = world // slice_
    for base in range(0, world, slice_):
        for r in range(base + 1, base + slice_):
            if sends[r] != sends[base]:
                raise ReplicaMismatchError(
                    f"rank {r} disagrees with rank {base} on group {base // slice_}'s payload"
                )
            # equal is not enough (1.0 == True == 1): items that are not the base
            # replica's own objects get their types checked too
            if not all(map(is_, sends[r], sends[base])):
                _columns([sends[r]], [r])
    # each group's base replica now stands for all of its replicas;
    # reference counts the logical payload once, not per replica
    entries, src, dst, token, nbytes, reference = _read(
        sends[::slice_], range(0, world, slice_), groups, slice_
    )
    per_group = np.bincount(src, minlength=groups)
    first_row = np.repeat(np.cumsum(per_group) - per_group, per_group)
    share = (np.arange(len(entries)) - first_row) % slice_

    # stride-L sub-exchange, all slices in parallel each round
    a2a, _, held = _exchange(
        src * slice_ + share, dst, nbytes,
        lambda s, dst: dst * slice_ + s % slice_,
        lambda s, d: (d // slice_ - s // slice_) % groups,
        world, 0, cost, reference,
    )

    # allgather: round t broadcasts replica t's share (if any) from rank
    # s = group * L + t to its group peers d = group * L + j, in (t, s, d) order
    t, group, j = np.indices((slice_, groups, slice_)).reshape(3, -1)
    s, d = group * slice_ + t, group * slice_ + j
    send = (j != t) & (held[s] > 0)
    gather = _events(groups + t[send], "allgather", s[send], d[send], held[s[send]], cost, reference)

    return CommTrace(
        schedule="coordinated",
        world_size=world,
        a2a_rounds=groups,
        allgather_rounds=slice_,
        volume_bytes=slice_ * reference,
        a2a_volume_bytes=reference,
        reference_bytes=reference,
        cost=cost,
        events=np.concatenate([a2a, gather]),
        delivery=_delivery(entries, src, dst, token, groups, slice_, share),
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
    link's bandwidth; a round costs its busiest source, and the rounds add
    up in round order. A 0-byte message still pays its link's latency.
    Self-deliveries, local layout transforms among them, are free. With
    intra_link == inter_link every message is priced at one link, which is
    the pessimistic worst-case-locality figure. A trace over more ranks than
    the topology has raises ScheduleError.
    """
    _instance("trace", trace, CommTrace, ScheduleError)
    _instance("topology", topology, ClusterTopology, ScheduleError)
    if trace.world_size > topology.world_size:
        raise ScheduleError(
            f"trace of {trace.world_size} ranks cannot be priced on a "
            f"{topology.world_size}-rank topology"
        )
    g = topology.gpus_per_node
    near, far = topology.intra_link, topology.inter_link
    moved = trace.events[trace.events["src"] != trace.events["dst"]]
    # one segment per (round, source), in round order, counted from the first round
    key = (moved["step"] - moved["step"].min(initial=0)) * trace.world_size + moved["src"]
    order, first = _runs(key, int(key.max(initial=-1)) + 1)
    moved = moved[order]
    # equal links price as one: a source's bytes sum before dividing
    cross = (moved["src"] // g != moved["dst"] // g) & (near != far)
    near_bytes = np.add.reduceat(np.where(cross, 0, moved["nbytes"]), first)
    far_bytes = np.add.reduceat(np.where(cross, moved["nbytes"], 0), first)
    # an unused link adds exactly 0.0; latencies as floats, as LinkSpec takes ints past int64
    latency = np.maximum.reduceat(np.where(cross, float(far.latency_s), float(near.latency_s)), first)
    costs = latency + near_bytes / near.bandwidth_bytes_per_s + far_bytes / far.bandwidth_bytes_per_s
    steps = key[order[first]] // trace.world_size
    total = 0.0
    # one round at a time: np.sum adds pairwise, which moves the last bits
    for cost in np.maximum.reduceat(costs, np.flatnonzero(np.diff(steps, prepend=-1))).tolist():
        total += cost
    return total


def payload_multiset(sends_or_recv) -> Counter:
    """Multiset of items, for conservation checks across schedules."""
    return Counter(it for items in sends_or_recv for it in items)
