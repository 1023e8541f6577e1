"""Property tests for the all-to-all schedules on random worlds and payloads."""

import dataclasses
from collections import defaultdict, namedtuple
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moekit import commsim
from moekit.commsim import (
    CostModel,
    Item,
    ReplicaMismatchError,
    ScheduleError,
    coordinated_all_to_all,
    estimate_latency,
    flat_all_to_all,
    hierarchical_all_to_all,
    payload_multiset,
)
from moekit.planner import ClusterTopology, LinkSpec

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def _payload(draw, ranks, ndst):
    """Per-rank item lists with unique tokens, mixed sizes and empty ranks."""
    sends, token = [], 0
    for src in range(ranks):
        items = []
        for dst, nbytes in draw(
            st.lists(
                st.tuples(st.integers(0, ndst - 1), st.integers(0, 4096)), max_size=6
            )
        ):
            items.append(Item(src, dst, token, nbytes))
            token += 1
        sends.append(items)
    return sends


@st.composite
def clusters(draw):
    """(sends, gpus_per_node) over a world of nodes * gpus_per_node ranks."""
    nodes = draw(st.integers(1, 6))
    gpus = draw(st.sampled_from([1, 2, 3, 4]))
    world = nodes * gpus
    return _payload(draw, world, world), gpus


@st.composite
def sliced(draw):
    """(logical group sends, tensor slice) for a world of groups * slice ranks."""
    groups = draw(st.integers(1, 8))
    slice_ = draw(st.sampled_from([1, 2, 3, 4]))
    return _payload(draw, groups, groups), slice_


def _replicate(logical, slice_):
    return [list(items) for items in logical for _ in range(slice_)]


@PROPERTY_SETTINGS
@given(clusters())
def test_hierarchical_delivers_flat_recv_at_twice_the_volume(case):
    sends, gpus = case
    flat = flat_all_to_all(sends)
    hier = hierarchical_all_to_all(sends, gpus)
    assert hier.recv == flat.recv
    assert hier.volume_bytes == 2 * flat.volume_bytes
    sent = payload_multiset(sends)
    assert payload_multiset(flat.recv) == sent
    assert payload_multiset(hier.recv) == sent


@PROPERTY_SETTINGS
@given(sliced())
def test_coordinated_ranks_receive_their_groups_items(case):
    logical, slice_ = case
    coord = coordinated_all_to_all(_replicate(logical, slice_), slice_)
    for rank, got in enumerate(coord.recv):
        want = [it for items in logical for it in items if it.dst == rank // slice_]
        assert got == tuple(sorted(want, key=lambda it: (it.src, it.token)))
    leaders = coord.recv[::slice_]
    assert payload_multiset(leaders) == payload_multiset(logical)


@st.composite
def corruptions(draw):
    """A valid cluster payload with one item given a bad src, dst or nbytes.

    The bad value is out of range, or of a type other than int: a string,
    a float or a bool (even one equal to the valid value).
    """
    sends, gpus = draw(clusters())
    world = len(sends)
    filled = [rank for rank, items in enumerate(sends) if items]
    if not filled:
        sends[0] = [Item(0, 0, 0, 8)]
        filled = [0]
    rank = draw(st.sampled_from(filled))
    pos = draw(st.integers(0, len(sends[rank]) - 1))
    field = draw(st.sampled_from(["src", "dst", "nbytes"]))
    kind = draw(st.sampled_from(["range", "str", "float", "bool"]))
    return sends, gpus, rank, pos, field, kind, draw(st.integers(1, 100))


def _corrupt(item, field, kind, by, dst_limit):
    value = getattr(item, field)
    if kind == "str":
        bad = str(value)
    elif kind == "float":
        bad = float(value)
    elif kind == "bool":
        bad = bool(value)
    elif field == "src":
        bad = item.src + by
    elif field == "dst":
        bad = dst_limit - 1 + by if by % 2 else -by
    else:
        bad = -by
    return item._replace(**{field: bad})


@PROPERTY_SETTINGS
@given(corruptions())
def test_schedules_reject_bad_items(case):
    sends, gpus, rank, pos, field, kind, by = case
    world = len(sends)
    bad = [list(items) for items in sends]
    bad[rank][pos] = _corrupt(bad[rank][pos], field, kind, by, world)
    with pytest.raises(ScheduleError):
        flat_all_to_all(bad)
    with pytest.raises(ScheduleError):
        hierarchical_all_to_all(bad, gpus)
    # the same payload read as logical groups, each replicated on every
    # member rank of a slice-2 group
    replicated = _replicate(bad, 2)
    with pytest.raises(ScheduleError):
        coordinated_all_to_all(replicated, 2)


@PROPERTY_SETTINGS
@given(clusters(), st.sampled_from(["str", "float", "bool", "zero"]))
def test_schedules_reject_bad_divisors(case, kind):
    sends, gpus = case
    bad = {"str": str(gpus), "float": float(gpus), "bool": True, "zero": 0}[kind]
    with pytest.raises(ScheduleError):
        hierarchical_all_to_all(sends, bad)
    with pytest.raises(ScheduleError):
        coordinated_all_to_all(_replicate(sends, gpus), bad)


# ---------------------------------------------------------------------------
# the Item-based schedules as the reference for the columnar ones
# ---------------------------------------------------------------------------
# The schedules before they ran on numpy columns: every item passes through
# Python, messages are built per rank with dict buckets and each rank's recv
# is a stable sort by (src, token). Kept verbatim as the oracle, with one
# tuple per event and per trace.

OracleEvent = namedtuple("OracleEvent", "step kind src dst nbytes latency_s")
OracleTrace = namedtuple(
    "OracleTrace",
    "schedule world_size a2a_rounds allgather_rounds volume_bytes a2a_volume_bytes"
    " reference_bytes cost events recv",
)


def _is_int(value) -> bool:
    return type(value) is int or isinstance(value, np.integer)


def oracle_validate(sends, src_of_rank, dst_limit: int) -> int:
    if not sends:
        raise ScheduleError("world must have at least one rank")
    total = 0
    for rank, items in enumerate(sends):
        want_src = src_of_rank(rank)
        for it in items:
            src, dst, nbytes = it.src, it.dst, it.nbytes
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


_nbytes = attrgetter("nbytes")


def _sorted_recv(items):
    return tuple(sorted(items, key=attrgetter("src", "token")))


def _msg_latency(nbytes, src, dst, cost, reference):
    if src == dst or reference == 0:
        return 0.0
    return cost.c2 * nbytes / reference


def oracle_exchange(held, dest, round_of, step, cost, reference, events):
    messages = {}
    for s, items in enumerate(held):
        buckets = defaultdict(list)
        for it in items:
            buckets[it.dst].append(it)
        for dst, bucket in buckets.items():
            d = dest(s, dst)
            message = messages.setdefault((round_of(s, d), s, d), bucket)
            if message is not bucket:
                message.extend(bucket)

    recv = [[] for _ in held]
    moved = 0
    for key in sorted(messages):
        r, s, d = key
        payload = messages.pop(key)
        nbytes = sum(map(_nbytes, payload))
        moved += nbytes
        events.append(
            OracleEvent(step + r, "a2a-phase", s, d, nbytes, _msg_latency(nbytes, s, d, cost, reference))
        )
        recv[d].extend(payload)
    return recv, moved


def oracle_layout_transform(held, step, events):
    for s, items in enumerate(held):
        total = sum(map(_nbytes, items))
        if total:
            events.append(OracleEvent(step, "layout-transform", s, s, total, 0.0))


def oracle_flat(sends, cost):
    world = len(sends)
    reference = oracle_validate(sends, lambda r: r, world)
    events = []
    recv, volume = oracle_exchange(
        sends, lambda s, dst: dst, lambda s, d: (d - s) % world, 0, cost, reference, events
    )
    return OracleTrace(
        "flat", world, world, 0, volume, volume, reference, cost, tuple(events),
        tuple(_sorted_recv(r) for r in recv),
    )


def oracle_hierarchical(sends, g, cost):
    world = len(sends)
    reference = oracle_validate(sends, lambda r: r, world)
    events = []
    oracle_layout_transform(sends, 0, events)
    held, intra_volume = oracle_exchange(
        sends, lambda s, dst: (s // g) * g + dst % g, lambda s, d: d % g, 1, cost, reference, events
    )
    oracle_layout_transform(held, g + 1, events)
    recv, inter_volume = oracle_exchange(
        held, lambda s, dst: (dst // g) * g + s % g, lambda s, d: d // g, g + 2, cost, reference, events
    )
    volume = intra_volume + inter_volume
    return OracleTrace(
        "hierarchical", world, g + world // g, 0, volume, volume, reference, cost, tuple(events),
        tuple(_sorted_recv(r) for r in recv),
    )


def oracle_coordinated(sends, slice_, cost):
    world = len(sends)
    groups = world // slice_
    total = oracle_validate(sends, lambda r: r // slice_, groups)
    for r in range(world):
        base = r - r % slice_
        if r != base and sends[r] != sends[base]:
            raise ReplicaMismatchError(f"rank {r} disagrees with rank {base}")
    reference = total // slice_
    events = []
    held, a2a_volume = oracle_exchange(
        [items[s % slice_::slice_] for s, items in enumerate(sends)],
        lambda s, dst: dst * slice_ + s % slice_,
        lambda s, d: (d // slice_ - s // slice_) % groups,
        0, cost, reference, events,
    )
    volume = a2a_volume
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
                        OracleEvent(groups + t, "allgather", s, d, nbytes, _msg_latency(nbytes, s, d, cost, reference))
                    )
                recv[d].extend(share)
    return OracleTrace(
        "coordinated", world, groups, slice_, volume, a2a_volume, reference, cost, tuple(events),
        tuple(_sorted_recv(r) for r in recv),
    )


# numpy integer types an item field may carry besides int
INT_TYPES = (int, np.int64, np.int32)
SIZES = (0, 0, 1, 7, 4096)


@st.composite
def oracle_payloads(draw, ranks, ndst, sizes=SIZES):
    """Per-rank items with duplicate (src, token) pairs, empty ranks, 0-byte
    items and numpy-integer fields (one type code per item, a digit per field)."""
    sends = []
    for src in range(ranks):
        rows = draw(
            st.lists(
                st.tuples(
                    st.integers(0, ndst - 1),
                    st.integers(0, 3),  # few tokens: duplicates are common
                    st.integers(0, len(sizes) - 1),
                    st.integers(0, len(INT_TYPES) ** 4 - 1),
                ),
                max_size=8,
            )
        )
        items = []
        for dst, token, size, code in rows:
            fields = []
            for value in (src, dst, token, sizes[size]):
                code, digit = divmod(code, len(INT_TYPES))
                fields.append(INT_TYPES[digit](value))
            items.append(Item(*fields))
        sends.append(items)
    return sends


COSTS = st.sampled_from([CostModel(), CostModel(c1=0, c2=1), CostModel(c1=2e-4, c2=3e-3)])


def assert_traces_identical(got, want):
    """Every event field (latency bit for bit), recv item for item by
    identity, and every volume."""
    assert got.events.dtype.names == OracleEvent._fields
    rows = got.events.tolist()
    assert len(rows) == len(want.events)
    for e, w in zip(rows, want.events):
        assert e[:-1] == w[:-1]
        assert float(e[-1]).hex() == float(w[-1]).hex()
    assert [list(map(id, r)) for r in got.recv] == [list(map(id, r)) for r in want.recv]
    for field in ("schedule", "world_size", "a2a_rounds", "allgather_rounds", "cost"):
        assert getattr(got, field) == getattr(want, field)
    for field in ("volume_bytes", "a2a_volume_bytes", "reference_bytes"):
        assert getattr(got, field) == getattr(want, field)
        assert type(getattr(got, field)) is int


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 5), st.sampled_from([1, 2, 3, 4]), COSTS)
def test_flat_and_hierarchical_match_the_item_oracle(data, nodes, gpus, cost):
    world = nodes * gpus
    sends = data.draw(oracle_payloads(world, world))
    assert_traces_identical(flat_all_to_all(sends, cost), oracle_flat(sends, cost))
    assert_traces_identical(
        hierarchical_all_to_all(sends, gpus, cost), oracle_hierarchical(sends, gpus, cost)
    )


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 6), st.sampled_from([1, 2, 3, 4]), COSTS)
def test_coordinated_matches_the_item_oracle(data, groups, slice_, cost):
    logical = data.draw(oracle_payloads(groups, groups))
    sends = _replicate(logical, slice_)
    assert_traces_identical(
        coordinated_all_to_all(sends, slice_, cost), oracle_coordinated(sends, slice_, cost)
    )


def oracle_estimate_latency(events, topology):
    """estimate_latency as it walked the (step, kind, src, dst, nbytes,
    latency_s) events one at a time into per-round dicts, kept verbatim."""
    g = topology.gpus_per_node
    links = (topology.intra_link, topology.inter_link)
    split = links[0] != links[1]  # equal links price as one: a source's bytes sum before dividing
    # per round: bytes by source, one dict per link
    per_round = {}
    for step, kind, src, dst, nbytes, _ in events:
        if kind != "layout-transform" and src != dst:
            sent = per_round.setdefault(step, ({}, {}))[split and src // g != dst // g]
            sent[src] = sent.get(src, 0) + nbytes
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


# sizes up to 3 MB, so transfer times are not lost beside the latencies
PRICED_SIZES = (0, 0, 1, 7, 4096, 10**6 + 3, 3 * 10**6)
LINK_CHOICES = [LinkSpec(lat, bw) for lat in (0.0, 1e-6, 3e-6, 5e-6) for bw in (7.0, 3e3, 50e9, 300e9)]


@st.composite
def priced_traces(draw):
    """(trace, topology): any schedule on up to 16 ranks, its rounds
    sometimes folded onto one or two, priced on a topology of 1-4 GPUs per
    node with equal or distinct links. A coordinated group is wider than the
    topology's nodes, so allgather sources reach peers over both links in one
    round."""
    schedule = draw(st.sampled_from(["flat", "hierarchical", "coordinated"]))
    cost = draw(COSTS)
    if schedule == "coordinated":
        groups, slice_ = draw(st.integers(1, 4)), draw(st.sampled_from([4, 3, 2, 1]))
        world, node = groups * slice_, draw(st.integers(1, max(1, slice_ - 1)))
        logical = draw(oracle_payloads(groups, groups, PRICED_SIZES))
        trace = coordinated_all_to_all(_replicate(logical, slice_), slice_, cost)
    else:
        gpus = draw(st.sampled_from([1, 2, 3, 4]))
        world, node = draw(st.integers(1, 4)) * gpus, draw(st.sampled_from([1, 2, 3, 4]))
        sends = draw(oracle_payloads(world, world, PRICED_SIZES))
        if schedule == "flat":
            trace = flat_all_to_all(sends, cost)
        else:
            trace = hierarchical_all_to_all(sends, gpus, cost)
    fold = draw(st.sampled_from([0, 0, 1, 2]))
    if fold:
        # folded onto fold rounds, a source sends several messages in one round,
        # over both links and 0-byte ones among them, as no schedule's own rounds do
        events = trace.events.copy()
        events["step"] %= fold
        trace = dataclasses.replace(trace, events=events)
    intra = draw(st.sampled_from(LINK_CHOICES))
    inter = draw(st.sampled_from([intra, *(link for link in LINK_CHOICES if link != intra)]))
    return trace, ClusterTopology(-(-world // node), node, intra, inter)


@settings(max_examples=300, deadline=None)
@given(priced_traces())
def test_estimate_latency_matches_the_per_event_oracle(case):
    trace, topology = case
    got = estimate_latency(trace, topology)
    assert type(got) is float
    assert got.hex() == oracle_estimate_latency(trace.events.tolist(), topology).hex()


# ---------------------------------------------------------------------------
# sort keys of every width
# ---------------------------------------------------------------------------
# The schedules sort rank keys in the smallest unsigned dtype that holds
# them: below world for src and dst, below world**2 for an exchange's
# (round, source) key. Worlds 1, 2, 256, 257 and 300 reach 8-, 16- and
# 32-bit keys; world**2 passes 16 bits from 256 up.

KEY_WORLDS = [(1, 1), (2, 2), (256, 16), (257, 257), (300, 3)]  # (world, gpus_per_node)
NEAR, FAR = LinkSpec(1e-6, 3e3), LinkSpec(5e-6, 7.0)


def _shuffled_payload(ranks, ndst, seed):
    """0-5 items a rank, with tokens out of order, repeated, negative and past
    int32. A nonempty rank's second item is a copy (a new object) of its
    first, so (dst, src, token) ties sit in both shares of a 2-way slice."""
    rng = np.random.default_rng(seed)
    sends = []
    for src in range(ranks):
        n = int(rng.integers(0, 6))
        dsts = rng.integers(ndst, size=n).tolist()
        tokens = (rng.integers(-2, 3, size=n) * (2**40 + 1)).tolist()
        sizes = rng.choice(PRICED_SIZES, size=n).tolist()
        items = [Item(src, d, tok, size) for d, tok, size in zip(dsts, tokens, sizes)]
        sends.append(items[:1] + [Item(*items[0])] + items[1:] if items else items)
    return sends


@pytest.mark.parametrize("world, gpus", KEY_WORLDS)
def test_flat_and_hierarchical_match_the_oracle_at_every_key_width(world, gpus):
    sends = _shuffled_payload(world, world, seed=world)
    topology = ClusterTopology(world // gpus, gpus, NEAR, FAR)
    cost = CostModel()
    for got, want in (
        (flat_all_to_all(sends, cost), oracle_flat(sends, cost)),
        (hierarchical_all_to_all(sends, gpus, cost), oracle_hierarchical(sends, gpus, cost)),
    ):
        assert_traces_identical(got, want)
        assert estimate_latency(got, topology).hex() == oracle_estimate_latency(want.events, topology).hex()


@pytest.mark.parametrize("groups", [world for world, _ in KEY_WORLDS])
def test_coordinated_matches_the_oracle_at_every_key_width(groups):
    sends = _replicate(_shuffled_payload(groups, groups, seed=groups), 2)
    cost = CostModel()
    got, want = coordinated_all_to_all(sends, 2, cost), oracle_coordinated(sends, 2, cost)
    assert_traces_identical(got, want)
    # the tied items reach the two replicas of their group in different orders
    assert any(list(map(id, got.recv[r])) != list(map(id, got.recv[r + 1])) for r in range(0, 2 * groups, 2))
    topology = ClusterTopology(groups, 2, NEAR, FAR)
    assert estimate_latency(got, topology).hex() == oracle_estimate_latency(want.events, topology).hex()


@pytest.mark.parametrize("renumber", [{3: -63}, {0: -1000, 1: -3}, {2: 5}])
def test_estimate_latency_prices_any_step_numbers_like_the_oracle(renumber):
    # the (round, source) sort key counts rounds from the first one, so steps
    # below zero neither wrap nor merge with other rounds (-63 * 4 is 4 mod 256)
    trace = flat_all_to_all(commsim.synthetic_sends(4, 8, seed=3))
    events = trace.events.copy()
    for old, new in renumber.items():
        events["step"][trace.events["step"] == old] = new
    topology = ClusterTopology(2, 2, NEAR, FAR)
    got = estimate_latency(dataclasses.replace(trace, events=events), topology)
    assert got.hex() == oracle_estimate_latency(events.tolist(), topology).hex()


class _SortRecorder:
    """numpy for commsim, recording each argsort's (key dtype, kind) and
    each lexsort's key dtypes."""

    def __init__(self):
        self.argsorts, self.lexsorts = [], []

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, key, kind=None):
        self.argsorts.append((key.dtype, kind))
        return np.argsort(key, kind=kind)

    def lexsort(self, keys):
        self.lexsorts.append([key.dtype for key in keys])
        return np.lexsort(keys)


def test_the_benchmark_world_sorts_rank_keys_of_16_bits_or_fewer(monkeypatch):
    # perfbench's exchange: 16 nodes x 8 GPUs, coordinated at tensor slice 2;
    # numpy radix-sorts only a stable sort of keys of 16 bits or fewer
    topology = ClusterTopology(16, 8)
    recorder = _SortRecorder()
    monkeypatch.setattr(commsim, "np", recorder)
    sends = commsim.synthetic_sends(128, 4)
    for trace in (
        flat_all_to_all(sends),
        hierarchical_all_to_all(sends, 8),
        coordinated_all_to_all(_replicate(_shuffled_payload(64, 64, seed=1), 2), 2),
    ):
        estimate_latency(trace, topology)
        trace.recv  # built on first read: its lexsorts are counted below
    assert len(recorder.argsorts) == 7  # four exchange phases, three estimates
    assert all(dtype.itemsize <= 2 and kind == "stable" for dtype, kind in recorder.argsorts)
    # flat, hierarchical, coordinated, and coordinated's two tied replicas:
    # each sorts its int64 tokens beside rank keys of at most 16 bits
    assert len(recorder.lexsorts) == 5
    for dtypes in recorder.lexsorts:
        assert [dtype.itemsize > 2 for dtype in dtypes].count(True) == 1
