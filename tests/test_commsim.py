"""Tests for the all-to-all schedule simulator."""

import dataclasses
import enum
import io
import pickle
from fractions import Fraction
from operator import index

import numpy as np
import pytest

from moekit.commsim import (
    CommTrace,
    CostModel,
    Item,
    ReplicaMismatchError,
    ScheduleError,
    coordinated_all_to_all,
    estimate_latency,
    flat_all_to_all,
    hierarchical_all_to_all,
    payload_multiset,
    synthetic_sends,
)
from moekit import commsim
from moekit._contract import _is_int
from moekit.planner import ClusterTopology, LinkSpec

COST = CostModel(c1=1e-4, c2=1e-3)


def replicate(logical_sends, slice_):
    """Copy each logical group's list onto its slice_ member ranks."""
    out = []
    for items in logical_sends:
        out.extend([list(items) for _ in range(slice_)])
    return out


# ---------------------------------------------------------------------------
# flat baseline
# ---------------------------------------------------------------------------


def test_two_rank_exchange():
    sends = [
        [Item(0, 1, 0, 100), Item(0, 0, 1, 100)],
        [Item(1, 0, 2, 100)],
    ]
    trace = flat_all_to_all(sends, COST)
    assert trace.rounds == 2
    assert trace.a2a_rounds == 2
    assert trace.recv[0] == (Item(0, 0, 1, 100), Item(1, 0, 2, 100))
    assert trace.recv[1] == (Item(0, 1, 0, 100),)
    assert trace.volume_bytes == 300


def test_four_rank_delivery_by_hand():
    # each rank sends one item to (rank + 1) mod 4 and one to itself
    sends = []
    for s in range(4):
        sends.append([Item(s, (s + 1) % 4, 2 * s, 10), Item(s, s, 2 * s + 1, 10)])
    trace = flat_all_to_all(sends, COST)
    assert trace.recv[1] == (Item(0, 1, 0, 10), Item(1, 1, 3, 10))
    assert trace.recv[0] == (Item(0, 0, 1, 10), Item(3, 0, 6, 10))
    assert trace.rounds == 4
    assert trace.volume_bytes == 80
    assert trace.volume_ratio == 1.0


def test_flat_latency_formula_at_128():
    sends = synthetic_sends(128, 4, nbytes=256, seed=1)
    trace = flat_all_to_all(sends, COST)
    assert trace.a2a_rounds == 128
    assert trace.volume_ratio == 1.0
    assert trace.modeled_latency_s == pytest.approx(128 * COST.c1 + COST.c2, rel=1e-15)
    assert trace.a2a_latency_s == trace.modeled_latency_s


def test_flat_self_round_is_counted():
    trace = flat_all_to_all([[Item(0, 0, 0, 8)]], COST)
    assert trace.rounds == 1
    assert trace.volume_bytes == 8  # self delivery still counts as moved


# ---------------------------------------------------------------------------
# hierarchical
# ---------------------------------------------------------------------------


def test_hierarchical_matches_flat_bitwise():
    sends = synthetic_sends(16, 6, nbytes=64, seed=2)
    flat = flat_all_to_all(sends, COST)
    hier = hierarchical_all_to_all(sends, gpus_per_node=4, cost=COST)
    assert hier.a2a_rounds == 8  # 4 intra + 4 inter
    assert hier.recv == flat.recv


@pytest.mark.parametrize("seed", range(5))
def test_hierarchical_matches_flat_random(seed):
    sends = synthetic_sends(32, 5, nbytes=128, seed=seed)
    assert hierarchical_all_to_all(sends, 8, COST).recv == flat_all_to_all(sends, COST).recv


def test_hierarchical_round_count_at_128():
    sends = synthetic_sends(128, 2, nbytes=32, seed=3)
    hier = hierarchical_all_to_all(sends, gpus_per_node=8, cost=COST)
    assert hier.rounds == 8 + 16
    assert hier.modeled_latency_s == pytest.approx(24 * COST.c1 + 2 * COST.c2, rel=1e-15)


def test_hierarchical_volume_exactly_doubles():
    sends = synthetic_sends(64, 7, nbytes=96, seed=4)
    flat = flat_all_to_all(sends, COST)
    hier = hierarchical_all_to_all(sends, 8, COST)
    assert hier.volume_bytes == 2 * flat.volume_bytes
    assert hier.volume_ratio == 2.0


def test_hierarchical_beats_flat_once_world_is_large():
    for world in (32, 64, 128):
        sends = synthetic_sends(world, 4, nbytes=64, seed=5)
        flat = flat_all_to_all(sends, COST)
        hier = hierarchical_all_to_all(sends, 8, COST)
        assert hier.modeled_latency_s < flat.modeled_latency_s


def test_hierarchical_records_layout_transforms():
    sends = synthetic_sends(16, 3, nbytes=64, seed=6)
    hier = hierarchical_all_to_all(sends, 4, COST)
    kinds = set(hier.events["kind"].tolist())
    assert kinds == {"layout-transform", "a2a-phase"}
    transforms = hier.events[hier.events["kind"] == "layout-transform"]
    assert len(transforms) > 0
    assert (transforms["src"] == transforms["dst"]).all() and (transforms["latency_s"] == 0.0).all()


def test_hierarchical_requires_even_split():
    sends = synthetic_sends(10, 1, seed=0)
    with pytest.raises(ScheduleError):
        hierarchical_all_to_all(sends, 4, COST)


# ---------------------------------------------------------------------------
# coordinated
# ---------------------------------------------------------------------------


def _logical_sends(groups, per_group, seed, nbytes=64):
    raw = synthetic_sends(groups, per_group, nbytes=nbytes, seed=seed)
    return raw


def test_coordinated_slice_one_equals_flat():
    sends = synthetic_sends(8, 4, nbytes=64, seed=7)
    flat = flat_all_to_all(sends, COST)
    coord = coordinated_all_to_all(sends, tensor_slice=1, cost=COST)
    assert coord.recv == flat.recv
    assert coord.a2a_rounds == 8
    assert coord.allgather_rounds == 1
    assert coord.volume_bytes == flat.volume_bytes  # empty allgather moves nothing


@pytest.mark.parametrize("seed", range(5))
def test_coordinated_matches_flat_over_groups(seed):
    logical = _logical_sends(4, 6, seed)
    flat = flat_all_to_all(logical, COST)
    coord = coordinated_all_to_all(replicate(logical, 4), tensor_slice=4, cost=COST)
    assert coord.world_size == 16
    for grp in range(4):
        for member in range(4):
            assert coord.recv[grp * 4 + member] == flat.recv[grp]


def test_coordinated_latency_decomposition_at_128():
    logical = _logical_sends(16, 8, seed=8)
    coord = coordinated_all_to_all(replicate(logical, 8), tensor_slice=8, cost=COST)
    assert coord.world_size == 128
    assert coord.a2a_rounds == 16
    assert coord.allgather_rounds == 8
    assert coord.a2a_latency_s == pytest.approx(16 * COST.c1 + COST.c2, rel=1e-15)
    assert coord.modeled_latency_s - coord.a2a_latency_s == pytest.approx(
        8 * COST.c1, rel=1e-12
    )


def test_coordinated_exchange_volume_counts_payload_once():
    logical = _logical_sends(8, 5, seed=9)
    coord = coordinated_all_to_all(replicate(logical, 4), tensor_slice=4, cost=COST)
    assert coord.a2a_volume_bytes == coord.reference_bytes
    assert coord.volume_ratio == 1.0


def test_coordinated_rejects_replica_mismatch():
    logical = _logical_sends(4, 4, seed=10)
    sends = replicate(logical, 2)
    sends[1] = sends[1][:-1]  # rank 1 lost an item
    with pytest.raises(ReplicaMismatchError):
        coordinated_all_to_all(sends, tensor_slice=2, cost=COST)
    assert issubclass(ReplicaMismatchError, ScheduleError)


def test_coordinated_requires_even_groups():
    sends = replicate(_logical_sends(3, 2, seed=0), 2)
    with pytest.raises(ScheduleError):
        coordinated_all_to_all(sends, tensor_slice=4, cost=COST)


def test_coordinated_requires_group_src_ids():
    # src must be the logical group id, not the physical rank
    sends = synthetic_sends(8, 2, seed=11)
    with pytest.raises(ScheduleError):
        coordinated_all_to_all(sends, tensor_slice=2, cost=COST)


# ---------------------------------------------------------------------------
# shared invariants
# ---------------------------------------------------------------------------


def test_payload_conservation():
    sends = synthetic_sends(24, 9, nbytes=48, seed=12)
    sent = payload_multiset(sends)
    assert payload_multiset(flat_all_to_all(sends, COST).recv) == sent
    assert payload_multiset(hierarchical_all_to_all(sends, 8, COST).recv) == sent


def test_coordinated_conserves_logical_payload():
    logical = _logical_sends(6, 5, seed=13)
    coord = coordinated_all_to_all(replicate(logical, 2), tensor_slice=2, cost=COST)
    leaders = [coord.recv[g * 2] for g in range(6)]
    assert payload_multiset(leaders) == payload_multiset(logical)


def assert_same_trace(a, b):
    # recv is not a field: it is built on first read, so it is compared here
    for field in dataclasses.fields(CommTrace):
        if field.compare:
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert np.array_equal(x, y) if field.name == "events" else x == y, field.name
    assert a.recv == b.recv


def test_schedules_are_deterministic():
    sends = synthetic_sends(16, 4, seed=14)
    assert_same_trace(flat_all_to_all(sends, COST), flat_all_to_all(sends, COST))
    assert_same_trace(hierarchical_all_to_all(sends, 4, COST), hierarchical_all_to_all(sends, 4, COST))
    replicated = replicate(synthetic_sends(4, 4, seed=14), 4)
    assert_same_trace(coordinated_all_to_all(replicated, 4, COST), coordinated_all_to_all(replicated, 4, COST))


def _lazy_cases():
    """(schedule, payload) pairs: flat and hierarchical on a random payload,
    coordinated on one without ties and on one whose tied items give each
    replica its own recv order."""
    sends = synthetic_sends(8, 5, seed=15)
    tied = [[Item(0, 1, 5, 8), Item(0, 1, 5, 16)], [Item(1, 1, 2, 4), Item(1, 0, 7, 32)]]
    return [
        (lambda s: flat_all_to_all(s, COST), sends),
        (lambda s: hierarchical_all_to_all(s, 4, COST), sends),
        (lambda s: coordinated_all_to_all(s, 2, COST), replicate(synthetic_sends(4, 5, seed=15), 2)),
        (lambda s: coordinated_all_to_all(s, 2, COST), replicate(tied, 2)),
    ]


def test_recv_is_built_on_first_read_and_cached(monkeypatch):
    calls = []
    deliver = commsim._deliver
    monkeypatch.setattr(commsim, "_deliver", lambda *args: calls.append(args) or deliver(*args))
    for run, sends in _lazy_cases():
        trace = run(sends)
        assert calls == []
        first = trace.recv
        assert len(calls) == 1
        assert trace.recv is first and len(calls) == 1
        calls.clear()


def test_recv_ignores_later_changes_to_the_sends_lists():
    for run, sends in _lazy_cases():
        mine = [list(items) for items in sends]
        trace = run(mine)
        for rank, items in enumerate(mine):
            if rank % 2:
                items.reverse()
                items.append(None)
            else:
                items.clear()
        assert trace.recv == run(sends).recv


def test_traces_pickle_before_and_after_the_first_recv_read():
    for run, sends in _lazy_cases():
        trace = run(sends)
        unread = pickle.loads(pickle.dumps(trace))
        assert "recv" not in vars(trace) and "recv" not in vars(unread)
        trace.recv
        read = pickle.loads(pickle.dumps(trace))
        assert "recv" in vars(read)
        assert_same_trace(unread, trace)
        assert_same_trace(read, trace)


def test_empty_payload_moves_nothing():
    sends = [[] for _ in range(8)]
    trace = flat_all_to_all(sends, COST)
    assert trace.volume_bytes == 0
    assert trace.volume_ratio == 0.0
    assert all(r == () for r in trace.recv)
    topo = ClusterTopology(nodes=2, gpus_per_node=4)
    assert estimate_latency(trace, topo) == 0.0


def test_malformed_payload_rejected():
    with pytest.raises(ScheduleError):
        flat_all_to_all([[Item(1, 0, 0, 8)]], COST)  # src is not the rank
    with pytest.raises(ScheduleError):
        flat_all_to_all([[Item(0, 5, 0, 8)]], COST)  # dst out of range
    with pytest.raises(ScheduleError):
        flat_all_to_all([[Item(0, 0, 0, -8)]], COST)  # negative size
    # entries that are not items, a plain tuple equal to an item among them
    for entry in (1, None, (0, 0, 1), object(), (0, 0, 1, 8)):
        for run in _all_schedules([[Item(0, 0, 0, 8), entry], []]):
            with pytest.raises(ScheduleError, match="rank 0: entry .* is not an Item"):
                run()
        with pytest.raises(ScheduleError, match="rank 1: entry"):
            flat_all_to_all([[], [entry]], COST)


def _all_schedules(sends):
    """The payload through flat, hierarchical (2 GPUs per node when the world
    is even) and coordinated (as logical groups replicated on slice-2 pairs)."""
    yield lambda: flat_all_to_all(sends, COST)
    yield lambda: hierarchical_all_to_all(sends, 2 if len(sends) % 2 == 0 else 1, COST)
    yield lambda: coordinated_all_to_all(replicate(sends, 2), 2, COST)


@pytest.mark.parametrize("token", ["a", 1.0, True, None])
def test_schedules_reject_non_int_tokens(token):
    sends = [[Item(0, 0, token, 8), Item(0, 0, 1, 8)]]
    for run in _all_schedules(sends):
        with pytest.raises(ScheduleError, match="rank 0"):
            run()


def test_schedules_accept_numpy_integer_tokens():
    sends = [[Item(0, 1, np.int64(5), 8), Item(0, 0, np.int32(-3), 8)], [Item(1, 0, 2, 8)]]
    for run in _all_schedules(sends):
        assert [it.token for it in run().recv[0]] == [-3, 2]


def test_schedules_accept_int_subclass_fields():
    # the one-pass read takes every field type the shared int rule takes
    class Rank(enum.IntEnum):
        FIRST = 0
        SECOND = 1

    sends = [[Item(Rank.FIRST, Rank.SECOND, 5, 8)], [Item(1, 0, Rank.SECOND, 8)]]
    for run in _all_schedules(sends):
        assert [it.token for it in run().recv[0]] == [1]


def test_coordinated_checks_types_on_equal_replicas():
    # 1.0 == 1, so the replicas are equal, but the float is still refused
    sends = [[Item(0, 0, 0, 8)], [Item(0, 0, 0, 8.0)]]
    with pytest.raises(ScheduleError, match="rank 1"):
        coordinated_all_to_all(sends, 2, COST)


def test_coordinated_refuses_a_tuple_equal_to_the_replicas_item():
    # an Item equals the plain tuple of its fields, but only Items are payload
    sends = [[Item(0, 0, 0, 8)], [(0, 0, 0, 8)]]
    assert sends[0] == sends[1]
    with pytest.raises(ScheduleError, match="rank 1: entry"):
        coordinated_all_to_all(sends, 2, COST)


@pytest.mark.parametrize(
    "rank, item, field",
    [
        (1, Item(True, 0, 1, 8), "src"),
        (0, Item(0, False, 2, 8), "dst"),
        (0, Item(0, 1, True, 8), "token"),
        (1, Item(1, 0, 3, False), "nbytes"),
    ],
)
def test_schedules_refuse_bools_that_read_as_valid_fields(rank, item, field):
    # every bool here reads as a valid value of its field, 0 or 1
    sends = [[Item(0, 1, 5, 8)], [Item(1, 0, 6, 8)]]
    sends[rank] = sends[rank] + [item]
    named = f"{field} {getattr(item, field)}"
    with pytest.raises(ScheduleError, match=f"rank {rank}: {named}"):
        flat_all_to_all(sends, COST)
    with pytest.raises(ScheduleError, match=f"rank {rank}: {named}"):
        hierarchical_all_to_all(sends, 2, COST)
    # coordinated names the group's base rank, and a replica's own rank when
    # only its copy holds the bool, in an item equal to the base replica's
    with pytest.raises(ScheduleError, match=f"rank {2 * rank}: {named}"):
        coordinated_all_to_all(replicate(sends, 2), 2, COST)
    replicated = replicate(sends, 2)
    replicated[2 * rank][-1] = Item(*map(int, item))
    with pytest.raises(ScheduleError, match=f"rank {2 * rank + 1}: {named}"):
        coordinated_all_to_all(replicated, 2, COST)


class IndexOnly:
    """An int only by the index protocol: no arithmetic, no comparisons."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_index_protocol_ints_are_accepted():
    assert _is_int(IndexOnly(3)) and _is_int(np.array(3))
    assert not any(map(_is_int, (True, np.bool_(True), np.array(True), np.float64(2.0), Fraction(3))))
    kept = Item(IndexOnly(1), 0, 2, IndexOnly(4))
    sends = [[Item(0, 1, IndexOnly(5), np.array(8)), Item(0, 0, np.array(-3), 8)], [kept]]
    for run in _all_schedules(sends):
        trace = run()
        assert trace.reference_bytes == 20
        assert [index(it.token) for it in trace.recv[0]] == [-3, 2]
        assert trace.recv[0][1] is kept


@pytest.mark.parametrize(
    "value", [np.bool_(True), np.float64(2.0), Fraction(3), 2**63, -(2**63) - 1],
    ids=["np-bool", "np-float", "fraction", "past-int64", "below-int64"],
)
def test_schedules_refuse_non_index_or_out_of_range_values(value):
    sends = [[Item(0, 0, 0, 8), Item(0, 0, value, 8)], []]
    for run in _all_schedules(sends):
        with pytest.raises(ScheduleError, match="rank 0: token"):
            run()


def test_every_schedule_takes_the_empty_payload():
    for run in _all_schedules([[], []]):
        trace = run()
        assert trace.reference_bytes == trace.volume_bytes == 0
        assert all(r == () for r in trace.recv)


INT64_MAX = 2**63 - 1


def test_byte_counts_stay_exact_up_to_int64():
    # a payload of exactly INT64_MAX bytes: each schedule's volume must fit
    # int64, so flat takes it and hierarchical, which moves it twice, refuses
    big = [[Item(0, 1, n, 2**61) for n in range(3)] + [Item(0, 0, 3, 2**61 - 1)], []]
    total = 4 * 2**61 - 1
    assert total == INT64_MAX
    flat = flat_all_to_all(big, COST)
    assert flat.volume_bytes == flat.reference_bytes == total
    assert sum(flat.events["nbytes"].tolist()) == total
    with pytest.raises(ScheduleError, match="bytes"):
        hierarchical_all_to_all(big, 1, COST)
    half = [[Item(0, 1, n, 2**60) for n in range(3)] + [Item(0, 0, 3, 2**60 - 1)], []]
    hier = hierarchical_all_to_all(half, 1, COST)
    assert hier.volume_bytes == 2 * (4 * 2**60 - 1)
    # coordinated moves L times the logical payload
    logical = [[Item(0, 0, 0, 2**62)]]
    assert coordinated_all_to_all(replicate(logical, 1), 1, COST).volume_bytes == 2**62
    with pytest.raises(ScheduleError):
        coordinated_all_to_all(replicate(logical, 2), 2, COST)


@pytest.mark.parametrize(
    "item, match",
    [
        (Item(0, 1, 0, 2**62), "18446744073709551616"),  # four make 2**64 bytes
        (Item(0, 1, 0, 2**63), "rank 0"),  # one item past int64
        (Item(0, 1, 2**63, 8), "rank 0"),  # token past int64
        (Item(0, 2**40, 0, 8), "rank 0"),  # dst past any rank
        (Item(0, 1, 0, np.uint64(2**64 - 1)), "rank 0"),
    ],
)
def test_schedules_reject_sizes_past_int64(item, match):
    sends = [[item] * 4, []]
    for run in _all_schedules(sends):
        with pytest.raises(ScheduleError, match=match):
            run()


@pytest.mark.parametrize("world, per_rank, seed", [(1, 3, 0), (7, 0, 1), (13, 9, 7), (128, 5, 0)])
def test_synthetic_sends_equals_scalar_draws(world, per_rank, seed):
    rng = np.random.default_rng(seed)
    scalar = [
        [Item(src, int(rng.integers(world)), src * per_rank + n, 64) for n in range(per_rank)]
        for src in range(world)
    ]
    got = synthetic_sends(world, per_rank, nbytes=64, seed=seed)
    assert got == scalar
    # Item equals a plain tuple, so its type is checked on its own
    assert all(type(items) is list for items in got)
    assert all(type(it) is Item and all(type(v) is int for v in it) for items in got for it in items)


@pytest.mark.parametrize(
    "world, per_rank, nbytes",
    [(0, 4, 8), (4, -1, 8), (4, 4, -8), (4, "4", 8), (4, 4, 8.0), (4, True, 8)],
)
def test_synthetic_sends_rejects_bad_sizes(world, per_rank, nbytes):
    with pytest.raises(ScheduleError):
        synthetic_sends(world, per_rank, nbytes=nbytes)


@pytest.mark.parametrize("seed", ["x", -1, True, 1.0, None])
def test_synthetic_sends_rejects_bad_seeds(seed):
    with pytest.raises(ScheduleError, match="seed"):
        synthetic_sends(2, 2, seed=seed)


def test_cost_model_validation():
    with pytest.raises(ScheduleError):
        CostModel(c1=-1.0, c2=0.0)
    # a NaN or infinite constant would turn every latency into nan or inf
    for c1, c2 in ((np.nan, 1e-3), (1e-4, np.nan), (np.inf, 1e-3), (1e-4, np.inf), (0.0, -np.inf)):
        with pytest.raises(ScheduleError, match="finite"):
            CostModel(c1=c1, c2=c2)


@pytest.mark.parametrize(
    "c1,c2",
    [("1", 1), (True, 1), (None, 1), (1e-4, "1"), (1e-4, False),
     pytest.param(1e-4, 10**400, id="int-past-float")],
)
def test_cost_model_needs_finite_numbers(c1, c2):
    with pytest.raises(ScheduleError, match="finite"):
        CostModel(c1, c2)


# ---------------------------------------------------------------------------
# pinned event sequences
# ---------------------------------------------------------------------------

# 8 ranks, 2 GPUs per node: mixed sizes, an empty rank, a 0-byte item and
# one self-send (rank 1)
PINNED_RANK_SENDS = [
    [Item(0, 5, 0, 100), Item(0, 1, 1, 40), Item(0, 5, 2, 8)],
    [Item(1, 1, 3, 64)],
    [Item(2, 7, 4, 12)],
    [Item(3, 0, 5, 200), Item(3, 6, 6, 0)],
    [],
    [Item(5, 2, 7, 16)],
    [Item(6, 3, 8, 32), Item(6, 4, 9, 24)],
    [Item(7, 0, 10, 48)],
]

# 4 logical groups for tensor slice 2; group 1 sends to itself
PINNED_GROUP_SENDS = [
    [Item(0, 2, 0, 100), Item(0, 1, 1, 40), Item(0, 2, 2, 8)],
    [Item(1, 1, 3, 64)],
    [Item(2, 3, 4, 12), Item(2, 0, 5, 200)],
    [Item(3, 0, 6, 48)],
]


def _event_tuples(trace):
    return trace.events[["step", "kind", "src", "dst", "nbytes"]].tolist()


def test_flat_pinned_event_sequence():
    trace = flat_all_to_all(PINNED_RANK_SENDS, COST)
    assert _event_tuples(trace) == [
        (0, "a2a-phase", 1, 1, 64),
        (1, "a2a-phase", 0, 1, 40),
        (1, "a2a-phase", 7, 0, 48),
        (3, "a2a-phase", 3, 6, 0),
        (5, "a2a-phase", 0, 5, 108),
        (5, "a2a-phase", 2, 7, 12),
        (5, "a2a-phase", 3, 0, 200),
        (5, "a2a-phase", 5, 2, 16),
        (5, "a2a-phase", 6, 3, 32),
        (6, "a2a-phase", 6, 4, 24),
    ]


def test_hierarchical_pinned_event_sequence():
    trace = hierarchical_all_to_all(PINNED_RANK_SENDS, 2, COST)
    assert _event_tuples(trace) == [
        (0, "layout-transform", 0, 0, 148),
        (0, "layout-transform", 1, 1, 64),
        (0, "layout-transform", 2, 2, 12),
        (0, "layout-transform", 3, 3, 200),
        (0, "layout-transform", 5, 5, 16),
        (0, "layout-transform", 6, 6, 56),
        (0, "layout-transform", 7, 7, 48),
        (1, "a2a-phase", 3, 2, 200),
        (1, "a2a-phase", 5, 4, 16),
        (1, "a2a-phase", 6, 6, 24),
        (1, "a2a-phase", 7, 6, 48),
        (2, "a2a-phase", 0, 1, 148),
        (2, "a2a-phase", 1, 1, 64),
        (2, "a2a-phase", 2, 3, 12),
        (2, "a2a-phase", 6, 7, 32),
        (3, "layout-transform", 1, 1, 212),
        (3, "layout-transform", 2, 2, 200),
        (3, "layout-transform", 3, 3, 12),
        (3, "layout-transform", 4, 4, 16),
        (3, "layout-transform", 6, 6, 72),
        (3, "layout-transform", 7, 7, 32),
        (4, "a2a-phase", 1, 1, 104),
        (4, "a2a-phase", 2, 0, 200),
        (4, "a2a-phase", 6, 0, 48),
        (5, "a2a-phase", 4, 2, 16),
        (5, "a2a-phase", 7, 3, 32),
        (6, "a2a-phase", 1, 5, 108),
        (6, "a2a-phase", 6, 4, 24),
        (7, "a2a-phase", 2, 6, 0),
        (7, "a2a-phase", 3, 7, 12),
    ]


def test_coordinated_replicas_take_their_own_share_of_tied_items():
    # group 0 sends two items with equal (dst, src, token): position 0 is
    # replica 0's share, position 1 replica 1's. Each replica of group 1
    # receives its own share's item first, so their recv orders differ.
    first, second = Item(0, 1, 5, 8), Item(0, 1, 5, 16)
    other, back = Item(1, 1, 2, 4), Item(1, 0, 7, 32)
    trace = coordinated_all_to_all(replicate([[first, second], [other, back]], 2), 2, COST)
    assert trace.recv == ((back,), (back,), (first, second, other), (second, first, other))
    assert trace.recv[2][0] is first and trace.recv[3][0] is second


def test_coordinated_pinned_event_sequence():
    trace = coordinated_all_to_all(replicate(PINNED_GROUP_SENDS, 2), 2, COST)
    assert _event_tuples(trace) == [
        (0, "a2a-phase", 2, 2, 64),
        (1, "a2a-phase", 1, 3, 40),
        (1, "a2a-phase", 4, 6, 12),
        (1, "a2a-phase", 6, 0, 48),
        (2, "a2a-phase", 0, 4, 108),
        (2, "a2a-phase", 5, 1, 200),
        (4, "allgather", 0, 1, 48),
        (4, "allgather", 2, 3, 64),
        (4, "allgather", 4, 5, 108),
        (4, "allgather", 6, 7, 12),
        (5, "allgather", 1, 0, 200),
        (5, "allgather", 3, 2, 40),
    ]


# ---------------------------------------------------------------------------
# physical estimate
# ---------------------------------------------------------------------------

TOPO = ClusterTopology(
    nodes=4,
    gpus_per_node=4,
    intra_link=LinkSpec(1e-6, 300e9),
    inter_link=LinkSpec(5e-6, 50e9),
)


# one GPU per node: every non-self message crosses the inter-node link
ONE_GPU_NODES = ClusterTopology(
    nodes=16,
    gpus_per_node=1,
    intra_link=TOPO.intra_link,
    inter_link=TOPO.inter_link,
)


def _inter_link_estimate(trace, link):
    """Reference: every non-self message priced at one link."""
    per_round = {}
    for step, kind, src, dst, nbytes in _event_tuples(trace):
        if kind == "layout-transform" or src == dst:
            continue
        by_src = per_round.setdefault(step, {})
        by_src[src] = by_src.get(src, 0) + nbytes
    total = 0.0
    for _, by_src in sorted(per_round.items()):
        total += link.latency_s + max(by_src.values()) / link.bandwidth_bytes_per_s
    return total


def test_estimate_hand_value():
    # one 1000-byte item per rank to the next rank, all inside node 0: a
    # single busy round on the intra-node link
    sends = [[Item(s, (s + 1) % 4, s, 1000)] for s in range(4)]
    trace = flat_all_to_all(sends, COST)
    expected = TOPO.intra_link.latency_s + 1000 / TOPO.intra_link.bandwidth_bytes_per_s
    assert estimate_latency(trace, TOPO) == pytest.approx(expected, rel=1e-15)


def test_estimate_ignores_self_messages():
    sends = [[Item(s, s, s, 10**6)] for s in range(4)]
    trace = flat_all_to_all(sends, COST)
    assert estimate_latency(trace, TOPO) == 0.0


def test_estimate_charges_latency_for_zero_byte_messages():
    # each rank sends a 0-byte item to the next rank over 2 nodes of 2 GPUs:
    # one busy round in which ranks 1 and 3 cross nodes
    topo = ClusterTopology(
        nodes=2, gpus_per_node=2, intra_link=TOPO.intra_link, inter_link=TOPO.inter_link
    )
    sends = [[Item(s, (s + 1) % 4, s, 0)] for s in range(4)]
    assert estimate_latency(flat_all_to_all(sends, COST), topo) == TOPO.inter_link.latency_s


def test_estimate_scales_linearly_in_bytes():
    small = synthetic_sends(16, 4, nbytes=512, seed=15)
    big = [[Item(it.src, it.dst, it.token, 2 * it.nbytes) for it in items] for items in small]
    t_small = flat_all_to_all(small, COST)
    t_big = flat_all_to_all(big, COST)
    alpha = ONE_GPU_NODES.inter_link.latency_s
    events = t_small.events
    busy = len(set(events["step"][events["src"] != events["dst"]].tolist()))
    est_small = estimate_latency(t_small, ONE_GPU_NODES)
    est_big = estimate_latency(t_big, ONE_GPU_NODES)
    assert est_big - est_small == pytest.approx(est_small - busy * alpha, rel=1e-9)


def test_estimate_charges_max_source_per_round():
    # round 1: rank 0 pushes 4000 bytes, others push 1000, all inside node
    # 0; the round is priced by the heaviest source
    sends = [[Item(0, 1, 0, 4000)]] + [[Item(s, (s + 1) % 4, s, 1000)] for s in range(1, 4)]
    trace = flat_all_to_all(sends, COST)
    expected = TOPO.intra_link.latency_s + 4000 / TOPO.intra_link.bandwidth_bytes_per_s
    assert estimate_latency(trace, TOPO) == pytest.approx(expected, rel=1e-15)


def test_estimate_mixes_links_per_source():
    # one tensor-slice group of 4 ranks over 2 nodes of 2 GPUs: each
    # allgather source reaches one peer on its node and two on the other
    topo = ClusterTopology(
        nodes=2, gpus_per_node=2, intra_link=TOPO.intra_link, inter_link=TOPO.inter_link
    )
    logical = [[Item(0, 0, 0, 1000), Item(0, 0, 1, 3000)]]
    trace = coordinated_all_to_all(replicate(logical, 4), 4, COST)
    intra, inter = topo.intra_link, topo.inter_link
    expected = sum(
        inter.latency_s + n / intra.bandwidth_bytes_per_s + 2 * n / inter.bandwidth_bytes_per_s
        for n in (1000, 3000)
    )
    assert estimate_latency(trace, topo) == pytest.approx(expected, rel=1e-12)


def test_estimate_rejects_a_trace_wider_than_the_topology():
    topo = ClusterTopology(nodes=16, gpus_per_node=8)
    wide = flat_all_to_all(synthetic_sends(256, 1, seed=19), COST)
    with pytest.raises(ScheduleError, match="256"):
        estimate_latency(wide, topo)
    assert estimate_latency(flat_all_to_all(synthetic_sends(128, 1, seed=19), COST), topo) > 0


def test_estimate_with_equal_links_is_inter_link_pricing():
    link = TOPO.inter_link
    # 2 GPUs per node: each coordinated allgather source reaches peers on
    # both nodes of its group in one round; at 1 MB per item, pricing its
    # two shares separately would differ from the old figure in the last bit
    topo = ClusterTopology(nodes=8, gpus_per_node=2, intra_link=link, inter_link=link)
    sends = synthetic_sends(16, 5, nbytes=96, seed=17)
    traces = [
        flat_all_to_all(sends, COST),
        hierarchical_all_to_all(sends, 4, COST),
        coordinated_all_to_all(replicate(synthetic_sends(4, 5, nbytes=10**6, seed=18), 4), 4, COST),
    ]
    for trace in traces:
        assert estimate_latency(trace, topo) == _inter_link_estimate(trace, link)
    assert estimate_latency(traces[1], TOPO) < _inter_link_estimate(traces[1], link)


# ---------------------------------------------------------------------------
# trace plumbing
# ---------------------------------------------------------------------------


def test_trace_csv_has_header_and_rows():
    sends = synthetic_sends(4, 2, seed=16)
    trace = flat_all_to_all(sends, COST)
    buf = io.StringIO()
    trace.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "step,kind,src,dst,nbytes,latency_s"
    assert len(lines) == len(trace.events) + 1


def test_trace_events_are_read_only():
    sends = synthetic_sends(4, 2, seed=16)
    for trace in (
        flat_all_to_all(sends, COST),
        hierarchical_all_to_all(sends, 2, COST),
        coordinated_all_to_all(replicate(synthetic_sends(2, 2, seed=16), 2), 2, COST),
    ):
        with pytest.raises(ValueError, match="read-only"):
            trace.events["nbytes"][0] = 1
