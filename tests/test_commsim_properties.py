"""Property tests for the all-to-all schedules on random worlds and payloads."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moekit.commsim import (
    Item,
    ScheduleError,
    coordinated_all_to_all,
    flat_all_to_all,
    hierarchical_all_to_all,
    payload_multiset,
)

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
    return replace(item, **{field: bad})


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
