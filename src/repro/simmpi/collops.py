"""Collective algorithms on simulated communicators.

These are faithful implementations of the algorithms the paper's cost
analysis assumes (Section 2.2): Bruck's all-gather, the ring
all-reduce of Thakur et al. [24] (reduce-scatter + ring all-gather),
recursive doubling as the low-latency alternative, a binomial-tree
broadcast and a dissemination barrier.  They operate on whole-object
payloads (NumPy arrays or arbitrary picklables) and are built purely
from the communicator's ``send``/``recv``, so both their *results* and
their *emergent virtual timings* can be validated against theory.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.errors import CommunicatorError
from repro.simmpi.tracing import TraceEvent
from repro.telemetry.spans import span

__all__ = [
    "allgather_blocks",
    "allreduce",
    "reduce_scatter_ring",
    "bcast_binomial",
    "gather_naive",
    "reduce_to_root",
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
# All-gather (Bruck / ring)
# ---------------------------------------------------------------------------


def allgather_blocks(comm, block: Any, algorithm: str = "bruck") -> List[Any]:
    """Gather every rank's ``block``; returns the list in rank order.

    ``bruck`` runs in ``ceil(log2 P)`` rounds moving doubling block
    runs; ``ring`` runs in ``P - 1`` rounds; ``naive`` (for testing)
    exchanges pairwise with everyone.
    """
    p = comm.size
    if p == 1:
        return [block]
    seq = comm._next_coll_seq()
    with span("allgather", comm=comm, alg=algorithm, seq=seq):
        _mark(comm, f"allgather[{algorithm}]", seq=seq)
        if algorithm == "bruck":
            return _allgather_bruck(comm, block)
        if algorithm == "ring":
            return _allgather_ring(comm, block)
        if algorithm == "naive":
            return _allgather_naive(comm, block)
        raise CommunicatorError(f"unknown all-gather algorithm {algorithm!r}")


def _allgather_bruck(comm, block: Any) -> List[Any]:
    p, r = comm.size, comm.rank
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


def _allgather_ring(comm, block: Any) -> List[Any]:
    p, r = comm.size, comm.rank
    blocks: List[Optional[Any]] = [None] * p
    blocks[r] = block
    right = (r + 1) % p
    left = (r - 1) % p
    carry_idx = r
    for round_no in range(p - 1):
        tag = _TAG_COLL + 1000 + round_no
        received = comm.sendrecv(blocks[carry_idx], right, left, tag)
        carry_idx = (carry_idx - 1) % p
        blocks[carry_idx] = received
    return blocks  # type: ignore[return-value]


def _allgather_naive(comm, block: Any) -> List[Any]:
    p, r = comm.size, comm.rank
    blocks: List[Optional[Any]] = [None] * p
    blocks[r] = block
    for offset in range(1, p):
        dest = (r + offset) % p
        source = (r - offset) % p
        tag = _TAG_COLL + 2000 + offset
        blocks[source] = comm.sendrecv(block, dest, source, tag)
    return blocks  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# All-reduce (ring / recursive doubling / naive)
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


def allreduce(comm, arr: np.ndarray, algorithm: str = "ring") -> np.ndarray:
    """Sum-reduce ``arr`` across all ranks; every rank gets the total.

    ``ring`` is the bandwidth-optimal reduce-scatter + all-gather used
    throughout the paper's Eq. 4 analysis; ``rd`` is recursive doubling
    (fewer rounds, full-size messages); ``naive`` gathers at rank 0 and
    broadcasts (for testing).
    """
    if not isinstance(arr, np.ndarray):
        raise CommunicatorError("allreduce requires a NumPy array payload")
    if comm.size == 1:
        return arr.copy()
    seq = comm._next_coll_seq()
    with span("allreduce", comm=comm, alg=algorithm, seq=seq):
        _mark(comm, f"allreduce[{algorithm}]", int(arr.nbytes), seq=seq)
        if algorithm == "ring":
            return _allreduce_ring(comm, arr)
        if algorithm == "rd":
            return _allreduce_recursive_doubling(comm, arr)
        if algorithm == "rabenseifner":
            return _allreduce_rabenseifner(comm, arr)
        if algorithm == "naive":
            return _allreduce_naive(comm, arr)
        raise CommunicatorError(f"unknown all-reduce algorithm {algorithm!r}")


def _allreduce_ring(comm, arr: np.ndarray) -> np.ndarray:
    p, r = comm.size, comm.rank
    flat = arr.flatten()  # the one private copy, reduced in place
    bounds = _chunk_bounds(flat.size, p)
    right = (r + 1) % p
    left = (r - 1) % p
    sendrecv = comm.sendrecv
    # Phase 1: reduce-scatter.  After P-1 rounds rank r owns the full sum
    # of chunk (r + 1) % p.
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
    return flat.reshape(arr.shape)


def _allreduce_recursive_doubling(comm, arr: np.ndarray) -> np.ndarray:
    p, r = comm.size, comm.rank
    result = arr.copy()
    # Non-power-of-two pre-phase: fold the excess ranks into the lower set.
    pof2 = 1 << (p.bit_length() - 1) if (p & (p - 1)) else p
    rem = p - pof2
    tag0 = _TAG_COLL + 5000
    if r < 2 * rem:
        if r % 2 == 1:  # odd ranks in the remainder send and sit out
            comm.send(result, r - 1, tag0)
            new_rank = -1
        else:
            result = result + comm.recv(r + 1, tag0)
            new_rank = r // 2
    else:
        new_rank = r - rem
    if new_rank != -1:
        mask = 1
        round_no = 0
        while mask < pof2:
            peer_new = new_rank ^ mask
            peer = peer_new * 2 if peer_new < rem else peer_new + rem
            tag = _TAG_COLL + 5100 + round_no
            received = comm.sendrecv(result, peer, peer, tag)
            result = result + received
            mask <<= 1
            round_no += 1
    # Post-phase: deliver the total back to the folded odd ranks.
    tag1 = _TAG_COLL + 5900
    if r < 2 * rem:
        if r % 2 == 1:
            result = comm.recv(r - 1, tag1)
        else:
            comm.send(result, r + 1, tag1)
    return result


def _allreduce_rabenseifner(comm, arr: np.ndarray) -> np.ndarray:
    """Rabenseifner: recursive-halving reduce-scatter, then
    recursive-doubling all-gather (Thakur et al. [24]).

    Logarithmic latency with the ring's optimal ``2 (p-1)/p n``
    bandwidth.  Non-power-of-two counts fold the excess ranks into the
    largest power of two first (as in MPICH) and unfold at the end.
    """
    p, r = comm.size, comm.rank
    flat = arr.flatten()
    pof2 = 1 << (p.bit_length() - 1) if (p & (p - 1)) else p
    rem = p - pof2
    tag0 = _TAG_COLL + 12_000
    # Fold: odd ranks below 2*rem ship their data to the even neighbour.
    if r < 2 * rem:
        if r % 2 == 1:
            comm.send(flat, r - 1, tag0)
            new_rank = -1
        else:
            flat = flat + comm.recv(r + 1, tag0)
            new_rank = r // 2
    else:
        new_rank = r - rem

    def old_rank(nr: int) -> int:
        return nr * 2 if nr < rem else nr + rem

    if new_rank != -1 and pof2 > 1:
        bounds = _chunk_bounds(flat.size, pof2)
        # Phase 1: recursive halving; track the chunk window [lo, hi).
        lo, hi = 0, pof2
        history = []
        mask = pof2 >> 1
        round_no = 0
        while mask >= 1:
            peer_new = new_rank ^ mask
            peer = old_rank(peer_new)
            mid = (lo + hi) // 2
            if new_rank < peer_new:
                keep, ship = (lo, mid), (mid, hi)
            else:
                keep, ship = (mid, hi), (lo, mid)
            tag = _TAG_COLL + 12_100 + round_no
            s0 = bounds[ship[0]][0]
            s1 = bounds[ship[1] - 1][1]
            received = comm.sendrecv(flat[s0:s1], peer, peer, tag)
            k0 = bounds[keep[0]][0]
            k1 = bounds[keep[1] - 1][1]
            flat[k0:k1] += received
            history.append((peer, keep))
            lo, hi = keep
            mask >>= 1
            round_no += 1
        # Phase 2: recursive doubling all-gather, replaying in reverse.
        # The window [lo, hi) is always aligned to its own width, so the
        # sibling half of the parent window sits directly above or below.
        for round_no, (peer, _keep) in enumerate(reversed(history)):
            tag = _TAG_COLL + 12_500 + round_no
            k0 = bounds[lo][0]
            k1 = bounds[hi - 1][1]
            received = comm.sendrecv(flat[k0:k1], peer, peer, tag)
            width = hi - lo
            sib_lo = lo - width if (lo // width) % 2 else hi
            sib_hi = sib_lo + width
            flat[bounds[sib_lo][0] : bounds[sib_hi - 1][1]] = received
            lo, hi = min(lo, sib_lo), max(hi, sib_hi)

    # Unfold: deliver the total back to the folded odd ranks.
    tag1 = _TAG_COLL + 12_900
    if r < 2 * rem:
        if r % 2 == 1:
            flat = comm.recv(r - 1, tag1)
        else:
            comm.send(flat, r + 1, tag1)
    return flat.reshape(arr.shape)


def _allreduce_naive(comm, arr: np.ndarray) -> np.ndarray:
    gathered = gather_naive(comm, arr, root=0)
    if comm.rank == 0:
        total = np.zeros_like(arr)
        for piece in gathered:  # type: ignore[union-attr]
            total = total + piece
    else:
        total = None
    return bcast_binomial(comm, total, root=0)


def reduce_scatter_ring(comm, arr: np.ndarray) -> np.ndarray:
    """Ring reduce-scatter: rank ``r`` returns the summed chunk ``r``."""
    p, r = comm.size, comm.rank
    flat = arr.flatten()
    if p == 1:
        return flat
    bounds = _chunk_bounds(flat.size, p)
    seq = comm._next_coll_seq()
    with span("reduce_scatter", comm=comm, alg="ring", seq=seq):
        _mark(comm, "reduce_scatter[ring]", int(arr.nbytes), seq=seq)
        right = (r + 1) % p
        left = (r - 1) % p
        sendrecv = comm.sendrecv
        tag = _TAG_COLL + 6000
        for round_no in range(p - 1):
            s0, s1 = bounds[(r - round_no - 1) % p]
            received = sendrecv(flat[s0:s1], right, left, tag + round_no)
            r0, r1 = bounds[(r - round_no - 2) % p]
            flat[r0:r1] += received
        s0, s1 = bounds[r]
        return flat[s0:s1].copy()


# ---------------------------------------------------------------------------
# Broadcast / gather / barrier
# ---------------------------------------------------------------------------


def bcast_binomial(comm, obj: Any, root: int = 0) -> Any:
    """Binomial-tree broadcast from ``root``."""
    p, r = comm.size, comm.rank
    if p == 1:
        return obj
    seq = comm._next_coll_seq()
    with span("bcast", comm=comm, seq=seq):
        _mark(comm, "bcast", seq=seq)
        vrank = (r - root) % p  # virtual rank with root at 0
        mask = 1
        have = vrank == 0
        value = obj if have else None
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


def gather_naive(comm, obj: Any, root: int = 0) -> Optional[List[Any]]:
    """Linear gather at ``root`` (returns None elsewhere)."""
    p, r = comm.size, comm.rank
    if p == 1:
        return [obj]
    seq = comm._next_coll_seq()
    with span("gather", comm=comm, seq=seq):
        _mark(comm, "gather", seq=seq)
        tag = _TAG_COLL + 9000
        if r == root:
            out: List[Any] = []
            for src in range(p):
                out.append(obj if src == root else comm.recv(src, tag + src))
            return out
        comm.send(obj, root, tag + r)
        return None


def reduce_to_root(comm, arr: np.ndarray, root: int = 0) -> Optional[np.ndarray]:
    """Binomial-tree sum-reduce to ``root``; returns None elsewhere."""
    if not isinstance(arr, np.ndarray):
        raise CommunicatorError("reduce requires a NumPy array payload")
    p, r = comm.size, comm.rank
    if p == 1:
        return arr.copy()
    seq = comm._next_coll_seq()
    with span("reduce", comm=comm, seq=seq):
        _mark(comm, "reduce", int(arr.nbytes), seq=seq)
        vrank = (r - root) % p
        value = arr.copy()
        mask = 1
        round_no = 0
        # Mirror image of the binomial broadcast: leaves send first.
        while mask < p:
            tag = _TAG_COLL + 14_000 + round_no
            if vrank & mask:
                comm.send(value, ((vrank - mask) + root) % p, tag)
                return None
            partner = vrank | mask
            if partner < p:
                value = value + comm.recv((partner + root) % p, tag)
            mask <<= 1
            round_no += 1
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
