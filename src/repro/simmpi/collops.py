"""Collective algorithms on simulated communicators.

These are faithful implementations of the algorithms the paper's cost
analysis assumes (Section 2.2): Bruck's all-gather and the ring
all-reduce of Thakur et al. [24] (reduce-scatter + ring all-gather),
plus the binomial-tree broadcast SUMMA runs and a dissemination
barrier.  They operate on whole-object payloads (NumPy arrays or
arbitrary picklables) and are built from the communicator's
``send``/``recv`` (the ring all-reduce of a plain run does the same
work inline), so both their *results* and their *emergent virtual
timings* can be validated against theory
(:mod:`repro.collectives.cost` states what each one costs).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.errors import CommunicatorError
from repro.profile import hooks as _profile_hooks
from repro.simmpi.sdc import current_guard
from repro.simmpi.tracing import TraceEvent
from repro.telemetry.spans import span

__all__ = [
    "allgather_blocks",
    "allreduce",
    "allreduce_inplace",
    "bcast_binomial",
    "barrier_dissemination",
]

_TAG_COLL = 7_000_000  # base tag namespace for collective rounds


def _mark(comm, op: str, nbytes: int = 0, seq: Optional[int] = None) -> None:
    """Record a collective-entry marker.

    ``seq`` is the communicator's collective sequence number; the marker
    tag ``(str(ctx), seq)`` is identical on every member rank for the
    same collective call, giving audits a stable cross-rank join key
    (``str`` rather than ``hash`` so traces compare across processes
    regardless of hash randomization).
    """
    tracer = comm._engine.tracer
    if not tracer.enabled:
        return
    tag: tuple = () if seq is None else (str(comm._ctx), seq)
    now = comm.clock
    tracer.record(TraceEvent(comm.world_rank, op, -1, nbytes, now, now, tag))


# ---------------------------------------------------------------------------
# All-gather (Bruck)
# ---------------------------------------------------------------------------


def allgather_blocks(comm, block: Any) -> List[Any]:
    """Gather every rank's ``block`` with Bruck's algorithm; returns the
    list in rank order after ``ceil(log2 P)`` rounds moving doubling
    block runs."""
    p, r = comm.size, comm.rank
    if p == 1:
        return [block]
    seq = comm._next_coll_seq()
    with span("allgather", comm=comm, alg="bruck", seq=seq):
        _mark(comm, "allgather[bruck]", seq=seq)
        # After the doubling rounds, ``blocks[j]`` holds rank ``(r + j) % p``'s
        # contribution; a final local rotation restores rank order.
        blocks: List[Any] = [block]
        step = 1
        round_no = 0
        while step < p:
            count = min(step, p - step)
            dest = (r - step) % p
            source = (r + step) % p
            tag = _TAG_COLL + round_no
            received = comm.sendrecv(blocks[:count], dest, source, tag)
            blocks.extend(received)
            step *= 2
            round_no += 1
        return [blocks[(j - r) % p] for j in range(p)]


# ---------------------------------------------------------------------------
# All-reduce (ring)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _chunk_bounds(n: int, p: int) -> Tuple[Tuple[int, int], ...]:
    """Near-equal split of ``n`` elements into ``p`` contiguous chunks.

    A pure function of two integers that every ring all-reduce of a run
    asks for again (the same few layer sizes over the same group
    sizes), so it is memoised; the result is an immutable tuple.
    """
    base, rem = divmod(n, p)
    bounds = []
    start = 0
    for i in range(p):
        size = base + (1 if i < rem else 0)
        bounds.append((start, start + size))
        start += size
    return tuple(bounds)


def allreduce(comm, arr: np.ndarray) -> np.ndarray:
    """Sum-reduce ``arr`` across all ranks; every rank gets the total.

    The bandwidth-optimal ring of the paper's Eq. 4 analysis: a ring
    reduce-scatter, then a ring all-gather of the reduced chunks.  A
    plain run takes :func:`_ring_rounds_plain`; a faulted, traced or
    guarded one goes round by round through ``comm.sendrecv``.  ``arr``
    is not modified: the ring runs on a private copy of it.
    """
    if not isinstance(arr, np.ndarray):
        raise CommunicatorError("allreduce requires a NumPy array payload")
    if comm.size == 1:
        return arr.copy()
    return _ring_allreduce(comm, arr.flatten()).reshape(arr.shape)


def allreduce_inplace(comm, arr: np.ndarray) -> np.ndarray:
    """:func:`allreduce` into ``arr``'s own buffer (``MPI_IN_PLACE``).

    For a partial the caller just computed and holds no other use for,
    such as a gradient block: the ring reduces straight into it, so no
    second copy of the block is live while the rank waits on its peers.
    Same rounds, messages, clocks and result as :func:`allreduce`;
    ``arr`` must be a writeable C-contiguous array, and is returned.
    """
    if not isinstance(arr, np.ndarray):
        raise CommunicatorError("allreduce requires a NumPy array payload")
    if not (arr.flags.c_contiguous and arr.flags.writeable):
        raise CommunicatorError("an in-place allreduce needs a writeable C-contiguous array")
    if comm.size > 1:
        _ring_allreduce(comm, arr.reshape(-1))  # a view: reduced in place
    return arr


def _ring_allreduce(comm, flat: np.ndarray) -> np.ndarray:
    """Both ring phases over the 1-D ``flat``, reduced in place; on ``P > 1``."""
    p, r = comm.size, comm.rank
    seq = comm._next_coll_seq()
    with span("allreduce", comm=comm, alg="ring", seq=seq):
        _mark(comm, "allreduce[ring]", int(flat.nbytes), seq=seq)
        bounds = _chunk_bounds(flat.size, p)
        engine = comm._engine
        if engine.injector is None and not engine.tracer.enabled and current_guard() is None:
            _ring_rounds_plain(comm, flat, bounds, p, r)
            return flat
        right = (r + 1) % p
        left = (r - 1) % p
        sendrecv = comm.sendrecv
        # Phase 1: reduce-scatter.  After P-1 rounds rank r owns the full
        # sum of chunk (r + 1) % p.
        tag = _TAG_COLL + 3000
        for round_no in range(p - 1):
            s0, s1 = bounds[(r - round_no) % p]
            received = sendrecv(flat[s0:s1], right, left, tag + round_no)
            r0, r1 = bounds[(r - round_no - 1) % p]
            flat[r0:r1] += received
        # Phase 2: ring all-gather of the reduced chunks.
        tag = _TAG_COLL + 4000
        for round_no in range(p - 1):
            s0, s1 = bounds[(r + 1 - round_no) % p]
            received = sendrecv(flat[s0:s1], right, left, tag + round_no)
            r0, r1 = bounds[(r - round_no) % p]
            flat[r0:r1] = received
        return flat


def _ring_rounds_plain(comm, flat: np.ndarray, bounds, p: int, r: int) -> None:
    """Both ring phases of a plain run (no injector, no tracing, no guard).

    Each round does exactly what ``Comm.sendrecv`` does for a fault-free
    message: copy the chunk, bump the hook counters, post it with
    ``arrival = t0 + (alpha + beta * nbytes)`` while the clock moves to
    ``t0 + alpha``, take the left peer's message with the communicator's
    interrupt predicate, and raise the clock to its arrival.  The state
    those calls re-derive every round (peers, keys, machine constants,
    clocks, mailbox, predicate) is read once here instead.

    In phase 2 a round after the first forwards the array it received
    the round before rather than copying the same values out of
    ``flat``: it is a private copy nobody mutates (receivers assign it
    into their own ``flat``).  One whose dtype differs from ``flat``'s
    would ship different bytes, so it is copied fresh as before.
    """
    engine = comm._engine
    me = comm._world_rank
    ctx = comm._ctx
    right = comm._world_ranks[(r + 1) % p]
    left = comm._world_ranks[(r - 1) % p]
    machine = engine.network.machine
    alpha = machine.alpha
    beta = machine.beta_per_byte
    clocks = engine._clocks
    post = engine.mailbox.post
    take = engine.mailbox.take
    interrupt = comm._interrupt_for(left)
    dtype = flat.dtype
    h = _profile_hooks.ACTIVE
    last = p - 1
    for step in range(2 * last):
        if step < last:  # phase 1: reduce-scatter
            s0, s1 = bounds[(r - step) % p]
            payload = flat[s0:s1].copy()
            tag = _TAG_COLL + 3000 + step
        else:  # phase 2: all-gather of the reduced chunks
            k = step - last
            if k and received.dtype == dtype:
                payload = received
            else:
                s0, s1 = bounds[(r + 1 - k) % p]
                payload = flat[s0:s1].copy()
            tag = _TAG_COLL + 4000 + k
        nbytes = payload.nbytes
        if h is not None:
            h.msgs_sent += 1
            h.bytes_sent += nbytes
            h.postal_calls += 1
        t0 = clocks[me]
        clocks[me] = t1 = t0 + alpha
        post((ctx, me, right, tag), payload, t0 + (alpha + beta * nbytes))
        received, arrival = take((ctx, left, me, tag), interrupt)
        if h is not None:
            h.msgs_delivered += 1
        if arrival > t1:
            clocks[me] = arrival
        if type(received) is not np.ndarray:
            received = comm._accept_payload(received, left)
        if step < last:
            r0, r1 = bounds[(r - step - 1) % p]
            flat[r0:r1] += received
        else:
            r0, r1 = bounds[(r - k) % p]
            flat[r0:r1] = received


# ---------------------------------------------------------------------------
# Broadcast / barrier
# ---------------------------------------------------------------------------


def bcast_binomial(comm, obj: Any, root: int = 0) -> Any:
    """Binomial-tree broadcast from ``root``."""
    p, r = comm.size, comm.rank
    if not 0 <= root < p:
        raise CommunicatorError(
            f"bcast root {root} out of range for size-{p} communicator"
        )
    if p == 1:
        return obj
    seq = comm._next_coll_seq()
    with span("bcast", comm=comm, seq=seq):
        _mark(comm, "bcast", seq=seq)
        vrank = (r - root) % p  # virtual rank with root at 0
        value = obj if vrank == 0 else None
        rounds = math.ceil(math.log2(p))
        # Round k: ranks with vrank < 2^k forward to vrank + 2^k.
        for k in range(rounds):
            step = 1 << k
            tag = _TAG_COLL + 8000 + k
            if vrank < step and vrank + step < p:
                comm.send(value, ((vrank + step) + root) % p, tag)
            elif step <= vrank < 2 * step:
                value = comm.recv(((vrank - step) + root) % p, tag)
        return value


def barrier_dissemination(comm) -> None:
    """Dissemination barrier: ``ceil(log2 P)`` rounds of empty exchanges.

    After round ``k`` each rank has (transitively) heard from ``2^k``
    predecessors, so after ``ceil(log2 P)`` rounds every rank's clock
    dominates every other rank's pre-barrier clock.
    """
    p, r = comm.size, comm.rank
    if p == 1:
        return
    seq = comm._next_coll_seq()
    with span("barrier", comm=comm, seq=seq):
        _mark(comm, "barrier", seq=seq)
        step = 1
        round_no = 0
        while step < p:
            dest = (r + step) % p
            source = (r - step) % p
            tag = _TAG_COLL + 11_000 + round_no
            comm.sendrecv(b"", dest, source, tag)
            step *= 2
            round_no += 1
