"""``Comm.split`` against the MPI_Comm_split reference, and what it costs.

MPI_Comm_split: ranks of one colour form a communicator, ordered by
``(key, rank in the parent)``.  The reference below is that sentence,
computed serially; the differential drives random group sizes, colours
(negative and repeated) and keys (ties included) through ``split`` —
nested once, and on the communicator ``shrink`` leaves
after a crash — and requires the same membership and local-rank order,
plus a working message namespace (an all-gather inside every group).

``split`` groups by colour once per exchange and every member picks up
its group's tuple, so a rank's share of building a ``Pr x Pc`` grid is
O(Pr + Pc).  That is checked by counting reads of the shared
coordination store, not by timing.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.grid import GridComm
from repro.errors import PeerFailedError
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import Crash, FaultPlan

def reference_split(members, colors, keys):
    """``{colour: members in new local-rank order}`` for one parent.

    ``members`` are the parent's world ranks in local-rank order;
    ``colors`` and ``keys`` are indexed by world rank.
    """
    groups = {}
    for color in {colors[w] for w in members}:
        order = sorted((keys[w], old) for old, w in enumerate(members) if colors[w] == color)
        groups[color] = tuple(members[old] for _, old in order)
    return groups


def _check_group(comm, want):
    """``comm`` must be exactly the ``want`` group, and able to talk."""
    assert comm.world_ranks == want
    assert comm.rank == want.index(comm.world_rank) and comm.size == len(want)
    assert tuple(comm.allgather_object(comm.world_rank)) == want


def _nested_split_program(comm, colors, keys, colors2, keys2):
    me = comm.world_rank
    sub = comm.split(colors[me], keys[me])
    _check_group(sub, reference_split(comm.world_ranks, colors, keys)[colors[me]])
    inner = sub.split(colors2[me], keys2[me])
    _check_group(inner, reference_split(sub.world_ranks, colors2, keys2)[colors2[me]])
    # key=None orders by the parent's local rank: an identity re-split.
    assert sub.split(0).world_ranks == sub.world_ranks
    return sub.world_ranks, inner.world_ranks


per_rank = st.integers(1, 24).flatmap(
    lambda p: st.tuples(
        *(st.lists(st.integers(lo, hi), min_size=p, max_size=p)
          for lo, hi in ((-3, 3), (-2, 2), (-1, 1), (-1, 1)))
    )
)


@settings(max_examples=20, deadline=None)
@given(per_rank)
def test_split_matches_reference(lists):
    colors, keys, colors2, keys2 = lists
    result = SimEngine(len(colors)).run(
        _nested_split_program, colors, keys, colors2, keys2
    )
    # Members of a group agree on it, and the groups partition the world.
    seen = Counter(outer for outer, _ in result.values)
    assert all(seen[group] == len(group) for group in seen)
    assert sorted(w for group in seen for w in group) == list(range(len(colors)))


def _split_after_shrink_program(world, colors, keys):
    try:
        world.heartbeat(step=0)
        world.barrier()
    except PeerFailedError:
        world = world.shrink()
    me = world.world_rank
    sub = world.split(colors[me], keys[me])
    _check_group(sub, reference_split(world.world_ranks, colors, keys)[colors[me]])
    return world.world_ranks


@settings(max_examples=10, deadline=None)
@given(per_rank.filter(lambda lists: len(lists[0]) >= 2), st.data())
def test_split_after_shrink_matches_reference(lists, data):
    colors, keys, _, _ = lists
    p = len(colors)
    victim = data.draw(st.integers(0, p - 1))
    plan = FaultPlan(crashes=(Crash(victim, at_step=0),))
    engine = SimEngine(p, faults=plan, supervise=True)
    result = engine.run(_split_after_shrink_program, colors, keys)
    survivors = tuple(r for r in range(p) if r != victim)
    assert result.failed == (victim,)
    assert all(result.values[r] == survivors for r in survivors)


class _CountingStore:
    """Read-through view of a coordination store that counts lookups."""

    def __init__(self, store, reads, rank):
        self._store, self._reads, self._rank = store, reads, rank

    def get(self, key, default=None):
        self._reads[self._rank] += 1
        return self._store.get(key, default)

    def __getitem__(self, key):
        self._reads[self._rank] += 1
        return self._store[key]

    def __setitem__(self, key, value):
        self._store[key] = value


@pytest.mark.parametrize("pr,pc", [(16, 32), (8, 8)])
def test_grid_costs_each_rank_its_row_and_column_not_the_world(pr, pc):
    p = pr * pc
    engine = SimEngine(p)
    reads = Counter()
    coordinate = engine.coordinate

    def counting_coordinate(ctx, world_rank, value, participants, **kwargs):
        store = coordinate(ctx, world_rank, value, participants, **kwargs)
        return _CountingStore(store, reads, world_rank)

    engine.coordinate = counting_coordinate

    def program(comm):
        grid = GridComm(comm, pr, pc)
        return grid.col_comm.world_ranks, grid.row_comm.world_ranks

    result = engine.run(program)
    for rank, (col, row) in enumerate(result.values):
        r, c = divmod(rank, pc)
        assert col == tuple(range(c, p, pc)) and row == tuple(range(r * pc, (r + 1) * pc))
    # Each of the two exchanges is grouped by its first reader, who looks
    # at all P deposits; everyone else reads the store exactly once.
    groupers = [rank for rank in range(p) if reads[rank] > 2]
    assert 1 <= len(groupers) <= 2
    assert sum(reads.values()) == 2 * ((p + 1) + (p - 1))
    # Beyond the store a member touches only its own group's tuple (one
    # ``index`` over Pr or Pc entries), and that tuple is one object shared
    # by the group: at P = 512, 1 536 communicators hold 48 membership tuples.
    assert len({id(group) for pair in result.values for group in pair}) == pr + pc
