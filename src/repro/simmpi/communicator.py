"""Communicators for the simulated MPI runtime.

A :class:`Comm` is the per-rank handle an SPMD program receives: it
exposes mpi4py-flavoured point-to-point (``send``/``recv``/``sendrecv``)
and collective (``allgather``/``allreduce``/``bcast``/``barrier``)
operations, a virtual ``clock``, and ``split`` for building the row and
column sub-communicators of the ``Pr x Pc`` grid (Fig. 5).

Message payloads are deep-copied on send so rank programs can never
alias each other's buffers; arrival times follow the postal model of
:class:`~repro.simmpi.network.PostalNetwork`.
"""

from __future__ import annotations

import copy
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import (
    CommunicatorError,
    PeerFailedError,
    SDCDetectedError,
    TransientCommError,
)
from repro.profile import hooks as _profile_hooks
from repro.simmpi.network import payload_bytes, payload_data_bytes
from repro.simmpi.sdc import (
    SDC_DIGEST_BYTES,
    GuardedPayload,
    apply_payload_flip,
    current_guard,
    payload_digest,
    wrap_payload,
)
from repro.simmpi.tracing import TraceEvent

__all__ = ["Comm", "Request"]


def _size_and_copy(obj: Any) -> Tuple[int, Any]:
    """Wire size and the receiver's own copy of a non-bare-array payload.

    In general :func:`payload_bytes` and ``copy.deepcopy``.  A list or
    tuple of distinct plain numeric arrays — every Bruck round ships
    one — is still sized by its pickle (that length *is* virtual time),
    but copied element by element in ``order="K"``, which is where
    ``deepcopy`` ends up through ``ndarray.__deepcopy__`` without the
    memo walk.  A container naming one array twice (``deepcopy`` keeps
    the aliasing) and object dtypes (whose elements need the deep copy)
    take the general route.
    """
    kind = type(obj)
    if (kind is list or kind is tuple) and len(set(map(id, obj))) == len(obj):
        copies = []
        for item in obj:
            if type(item) is not np.ndarray or item.dtype.hasobject:
                break
            copies.append(item.copy(order="K"))
        else:
            return payload_bytes(obj), kind(copies)
    return payload_bytes(obj), obj.copy() if isinstance(obj, np.ndarray) else copy.deepcopy(obj)


class Request:
    """Handle for a non-blocking operation (mpi4py-style).

    Non-blocking semantics under the virtual clock: ``isend`` completes
    immediately (eager buffering); an ``irecv`` posted before local
    compute lets the message's flight time *overlap* that compute —
    ``wait`` only advances the receiver's clock to the arrival time if
    the arrival is still in the future.  This is exactly the mechanism
    the paper invokes for halo exchanges: "a non-blocking, pair-wise
    exchange while the convolution is being applied to the rest of the
    image".
    """

    def __init__(self, comm: "Comm", kind: str, key: Optional[Tuple] = None) -> None:
        if kind not in ("send", "recv"):
            raise CommunicatorError(f"unknown request kind {kind!r}")
        self._comm = comm
        self._kind = kind
        self._key = key
        self._done = kind == "send"
        self._payload: Any = None

    @property
    def completed(self) -> bool:
        return self._done

    def test(self) -> bool:
        """Non-blocking completion probe (never advances the clock).

        A request belongs to its run: once ``run()`` has returned, the
        messages nobody received are gone and a pending request answers
        ``False`` from then on.
        """
        if self._done:
            return True
        return self._comm._engine.mailbox.peek(self._key)

    def wait(self) -> Any:
        """Block until complete; returns the payload for receives."""
        if self._done:
            return self._payload
        self._payload = payload = self._comm._deliver(self._key)
        self._done = True
        return payload


class Comm:
    """A communicator over a subset of the engine's world ranks.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.simmpi.engine.SimEngine`.
    world_ranks:
        World ranks of the members, in local-rank order.  Held as given,
        not copied: every rank's world communicator holds the engine's
        one tuple.
    rank:
        This rank's local rank; its world identity is
        ``world_ranks[rank]``.
    ctx:
        Hashable context id isolating this communicator's message
        namespace from every other communicator's.
    gen:
        Failure generation this communicator belongs to (0 for the
        world communicator; bumped by :meth:`shrink`).  Sub-communicators
        inherit their parent's generation.
    """

    def __init__(
        self,
        engine,
        world_ranks: Tuple[int, ...],
        rank: int,
        ctx: Tuple,
        gen: int = 0,
    ) -> None:
        self._engine = engine
        self._world_ranks = world_ranks
        self._rank = rank
        self._world_rank = world_ranks[rank]
        self._ctx = ctx
        self._gen = gen
        self._split_seq = 0
        self._coll_seq = 0
        self._interrupts: Dict[int, Any] = {}  # source world rank -> predicate

    def _next_coll_seq(self) -> int:
        """Per-communicator collective sequence number.

        Every rank of a communicator calls collectives in the same
        program order, so the counter advances identically everywhere —
        a stable cross-rank join key for trace audits (satellite: stable
        collective tag scheme).
        """
        seq = self._coll_seq
        self._coll_seq += 1
        return seq

    # -- identity ----------------------------------------------------------

    @property
    def engine(self) -> Any:
        """The owning :class:`~repro.simmpi.engine.SimEngine`."""
        return self._engine

    @property
    def rank(self) -> int:
        """Local rank within this communicator."""
        return self._rank

    @property
    def size(self) -> int:
        return len(self._world_ranks)

    @property
    def world_rank(self) -> int:
        return self._world_rank

    @property
    def world_ranks(self) -> Tuple[int, ...]:
        return self._world_ranks

    # -- virtual time --------------------------------------------------------

    @property
    def clock(self) -> float:
        """This rank's virtual clock in simulated seconds."""
        return self._engine.get_clock(self._world_rank)

    def advance(self, seconds: float) -> None:
        """Model local computation taking ``seconds`` of virtual time.

        On a rank with an injected :class:`~repro.simmpi.faults.Straggler`
        the time is dilated by the straggler's (seeded) factor; a due
        time-based crash fires once the clock crosses its deadline.
        """
        if seconds < 0:
            raise CommunicatorError(f"cannot advance clock by {seconds}")
        injector = self._engine.injector
        if injector is not None and injector.has_straggler(self._world_rank):
            dilated = seconds * injector.compute_factor(self._world_rank)
            injector.note_straggler_slack(self._world_rank, dilated - seconds)
            seconds = dilated
        self._engine.advance_clock(self._world_rank, seconds)
        if injector is not None:
            injector.check_crash(self._world_rank, time=self.clock)

    def _interrupt_for(self, src_world: int):
        """Interrupt predicate for a receive from ``src_world``.

        The receive fails only when the source provably cannot satisfy
        it (dead, or moved past this communicator's generation), which
        keeps supervised interruption points deterministic.  One predicate per source is
        built on first use and kept for the communicator's lifetime.
        """
        interrupt = self._interrupts.get(src_world)
        if interrupt is None:
            interrupt = self._interrupts[src_world] = partial(
                self._engine.interruption, self._world_rank, src=src_world, gen=self._gen
            )
        return interrupt

    def heartbeat(self, step: Optional[int] = None) -> None:
        """Poll the fault subsystem at a safe point (e.g. each training step).

        Fires any due injected crash for *this* rank (step-based crashes
        need the caller to supply ``step``).  Peer failures surface
        deterministically through communication instead, so a heartbeat
        never raises :class:`~repro.errors.PeerFailedError` itself.  A
        no-op without an injector or supervision.
        """
        engine = self._engine
        if engine.injector is not None or engine.supervise:
            engine.check_interrupt(self._world_rank, step=step)

    # -- point to point --------------------------------------------------------

    def _check_peer(self, peer: int) -> int:
        if not 0 <= peer < self.size:
            raise CommunicatorError(
                f"peer rank {peer} out of range for size-{self.size} communicator"
            )
        return self._world_ranks[peer]

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Post ``obj`` to ``dest``; the sender pays the latency ``alpha``.

        The payload is deep-copied, so mutating ``obj`` afterwards never
        races the receiver (eager-buffered send semantics).

        With a fault injector attached, the send may fail transiently:
        each failed attempt backs off exponentially in *virtual* time
        (``backoff_base * 2**attempt``) before retrying, and after
        ``max_retries`` retries raises
        :class:`~repro.errors.TransientCommError`.  Injected message
        drops pay the full send cost but never arrive, and degraded
        links time the message with the derated link machine.
        """
        ranks = self._world_ranks
        dst_world = ranks[dest] if 0 <= dest < len(ranks) else self._check_peer(dest)
        me = self._world_rank
        engine = self._engine
        injector = engine.injector
        if type(obj) is np.ndarray:
            nbytes = obj.nbytes
            payload = obj.copy()
        else:
            nbytes, payload = _size_and_copy(obj)
        h = _profile_hooks.ACTIVE
        if h is not None:
            h.msgs_sent += 1
            h.bytes_sent += nbytes
        key = (self._ctx, me, dst_world, tag)
        guard = current_guard()
        guard_extra = 0
        if injector is None:
            # Fault-free fast path: exactly the original postal timing
            # (plus the explicit 8-byte digest escort when guarded).
            # Sends never block and never observe peer failures, so no
            # interrupt check is needed even under supervision — eager
            # buffering lets the sender proceed regardless.
            if guard is not None:
                wrapped = wrap_payload(payload, None)
                if wrapped is not None:
                    payload = wrapped
                    guard_extra = SDC_DIGEST_BYTES
                    nbytes += SDC_DIGEST_BYTES
            # ``t0 + PostalNetwork.transfer_time`` and advance_clock
            # inline: same float association, same postal_calls count.
            # ``collops._ring_rounds_plain`` repeats this branch and
            # ``_deliver`` for the ring all-reduce: change them together.
            if h is not None:
                h.postal_calls += 1
            machine = engine.network.machine
            clocks = engine._clocks
            t0 = clocks[me]
            arrival = t0 + (machine.alpha + machine.beta_per_byte * nbytes)
            clocks[me] = t1 = t0 + machine.alpha
            engine.mailbox.post(key, payload, arrival)
            if engine.tracer.enabled:
                engine.tracer.record(
                    TraceEvent(
                        me, "send", dst_world, nbytes, t0, t1, (tag,),
                        payload_data_bytes(obj), (), guard_extra,
                    )
                )
            return
        outcome = injector.send_outcome(self._world_rank, dst_world)
        flip = outcome.bitflip if outcome is not None else None
        if guard is not None:
            # The digest is computed over the clean bits; an injected
            # flip rides along and is applied on arrival (in-flight
            # corruption that the receiver's verify must catch).
            wrapped = wrap_payload(payload, flip)
            if wrapped is not None:
                payload = wrapped
                guard_extra = SDC_DIGEST_BYTES
                nbytes += SDC_DIGEST_BYTES
            else:
                flip = None  # nothing corruptible: the flip is spent without effect
        elif flip is not None and not apply_payload_flip(payload, flip):
            flip = None
        attempt = 0
        if outcome is not None and outcome.transient_attempts:
            plan = injector.plan
            while attempt < outcome.transient_attempts:
                t0 = self.clock
                engine.tracer.record(
                    TraceEvent(
                        self._world_rank, "fault.transient", dst_world, nbytes,
                        t0, t0, (tag, attempt),
                    )
                )
                if attempt >= plan.max_retries:
                    raise TransientCommError(self._world_rank, dst_world, attempt + 1)
                engine.advance_clock(self._world_rank, plan.backoff_base * (2 ** attempt))
                engine.tracer.record(
                    TraceEvent(
                        self._world_rank, "fault.backoff", dst_world, 0,
                        t0, self.clock, (tag, attempt),
                    )
                )
                attempt += 1
        t0 = self.clock
        if flip is not None:
            engine.tracer.record(
                TraceEvent(
                    self._world_rank, "fault.bitflip", dst_world, 0, t0, t0,
                    ("payload", tag, flip.element, flip.bit),
                )
            )
            if guard is not None:
                guard.monitor.inc("injected")
        machine = engine.network.link_machine(self._world_rank, dst_world, t0)
        # Same association as ``t0 + transfer_time`` so a no-op fault
        # plan yields bit-identical timings to running without one.
        arrival = t0 + (machine.alpha + machine.beta_per_byte * nbytes)
        engine.advance_clock(self._world_rank, machine.alpha)
        if machine is not engine.network.machine:
            engine.tracer.record(
                TraceEvent(
                    self._world_rank, "fault.link", dst_world, nbytes, t0, self.clock, (tag,)
                )
            )
        if outcome is not None and outcome.drop:
            engine.tracer.record(
                TraceEvent(
                    self._world_rank, "fault.drop", dst_world, nbytes, t0, self.clock, (tag,)
                )
            )
        else:
            engine.mailbox.post(key, payload, arrival)
        if attempt:
            engine.tracer.record(
                TraceEvent(
                    self._world_rank, "fault.retry", dst_world, nbytes,
                    t0, self.clock, (tag, attempt),
                )
            )
        if engine.tracer.enabled:
            engine.tracer.record(
                TraceEvent(
                    self._world_rank, "send", dst_world, nbytes, t0, self.clock, (tag,),
                    payload_data_bytes(obj), (), guard_extra,
                )
            )

    def recv(self, source: int, tag: int = 0) -> Any:
        """Block for a message from ``source``; advances the clock to arrival."""
        ranks = self._world_ranks
        src_world = ranks[source] if 0 <= source < len(ranks) else self._check_peer(source)
        return self._deliver((self._ctx, src_world, self._world_rank, tag))

    def _deliver(self, key: Tuple) -> Any:
        """Take the message matching ``key``: the body of ``recv`` and ``wait``."""
        src_world = key[1]
        me = self._world_rank
        engine = self._engine
        clocks = engine._clocks
        t0 = clocks[me]
        payload, arrival = engine.mailbox.take(
            key, self._interrupts.get(src_world) or self._interrupt_for(src_world)
        )
        h = _profile_hooks.ACTIVE
        if h is not None:
            h.msgs_delivered += 1
        if arrival > t0:
            clocks[me] = arrival
        if engine.tracer.enabled:
            self._trace_recv(src_world, key[3], payload, t0)
        if type(payload) is np.ndarray:
            return payload  # a bare array is never guarded
        return self._accept_payload(payload, src_world)

    def _trace_recv(self, src_world: int, tag: int, payload: Any, t0: float) -> None:
        """Record the ``recv`` event of a just-delivered ``payload``."""
        if isinstance(payload, np.ndarray):
            # A bare array is its own wire and data size: measure it once.
            nbytes = data_bytes = payload.nbytes
            guard_bytes = 0
        else:
            nbytes = payload_bytes(payload)
            data_bytes = payload_data_bytes(payload)
            guard_bytes = SDC_DIGEST_BYTES if isinstance(payload, GuardedPayload) else 0
        self._engine.tracer.record(
            TraceEvent(
                self._world_rank, "recv", src_world, nbytes, t0, self.clock, (tag,),
                data_bytes, (), guard_bytes,
            )
        )

    def _accept_payload(self, payload: Any, src_world: int) -> Any:
        """Unwrap a guarded payload: apply in-flight corruption, verify, recover.

        The sender shipped the *clean* data plus its 8-byte XOR digest;
        an injected :class:`~repro.simmpi.faults.BitFlipFault` rides
        along as a specification and is applied here, on arrival.  A
        digest mismatch is silent data corruption caught at the wire:

        * ``detect`` — raise :class:`~repro.errors.SDCDetectedError`;
        * ``correct``/``recompute`` — model a retransmission: restore
          the clean bits (XOR is an involution) and charge the flight
          time of the message a second time.
        """
        if not isinstance(payload, GuardedPayload):
            return payload
        data = payload.data
        if payload.flip is not None:
            apply_payload_flip(data, payload.flip)
        if payload_digest(data) == payload.digest:
            return data
        engine = self._engine
        guard = current_guard()
        t0 = self.clock
        engine.tracer.record(
            TraceEvent(
                self._world_rank, "fault.sdc_detected", src_world, 0, t0, t0,
                ("payload",),
            )
        )
        if guard is not None:
            guard.monitor.inc("detected")
        if guard is None or guard.policy.mode == "detect" or payload.flip is None:
            raise SDCDetectedError(
                self._world_rank,
                site="payload",
                detail=f"digest mismatch on message from rank {src_world}",
            )
        apply_payload_flip(data, payload.flip)  # involution: clean bits restored
        nbytes = payload_bytes(payload)
        refetch = engine.network.transfer_time(
            nbytes, src=src_world, dst=self._world_rank, at=t0
        )
        engine.advance_clock(self._world_rank, refetch)
        engine.tracer.record(
            TraceEvent(
                self._world_rank, "fault.sdc_retransmit", src_world, nbytes,
                t0, self.clock, ("payload",),
            )
        )
        guard.monitor.inc("recomputed")
        return data

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; completes immediately (eager buffering)."""
        self.send(obj, dest, tag)
        return Request(self, "send")

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Non-blocking receive; complete it with :meth:`Request.wait`.

        Posting the receive costs no virtual time, so compute performed
        (via :meth:`advance`) between ``irecv`` and ``wait`` overlaps
        the message's flight time.
        """
        src_world = self._check_peer(source)
        key = (self._ctx, src_world, self._world_rank, tag)
        return Request(self, "recv", key)

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        source: Optional[int] = None,
        sendtag: int = 0,
        recvtag: Optional[int] = None,
    ) -> Any:
        """Concurrent exchange: post to ``dest``, then receive from ``source``."""
        if source is None:
            source = dest
        if recvtag is None:
            recvtag = sendtag
        self.send(sendobj, dest, sendtag)
        return self.recv(source, recvtag)

    # -- collectives (implemented in collops; thin delegating wrappers) ------
    #
    # ``algorithm=`` names the one schedule each collective runs (the
    # paper's Bruck all-gather and ring all-reduce); anything else, like a
    # 0-d array to ``allgather``, is an error on every communicator size.

    def barrier(self) -> None:
        from repro.simmpi import collops

        collops.barrier_dissemination(self)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        from repro.simmpi import collops

        return collops.bcast_binomial(self, obj, root)

    def allgather(self, arr: np.ndarray, axis: int = 0, algorithm: str = "bruck") -> np.ndarray:
        from repro.simmpi import collops

        if algorithm != "bruck":
            raise CommunicatorError(f"unknown all-gather algorithm {algorithm!r}")
        if np.ndim(arr) == 0:
            raise CommunicatorError(
                "allgather concatenates blocks along an axis; a 0-d array has none"
            )
        blocks = collops.allgather_blocks(self, arr)
        return np.concatenate(blocks, axis=axis) if self.size > 1 else arr.copy()

    def allgather_object(self, obj: Any) -> List[Any]:
        from repro.simmpi import collops

        return collops.allgather_blocks(self, obj)

    def allreduce(self, arr: np.ndarray, algorithm: str = "ring") -> np.ndarray:
        from repro.simmpi import collops

        if algorithm != "ring":
            raise CommunicatorError(f"unknown all-reduce algorithm {algorithm!r}")
        return collops.allreduce(self, arr)

    def allreduce_inplace(self, arr: np.ndarray) -> np.ndarray:
        """The ring all-reduce into ``arr`` itself; see
        :func:`~repro.simmpi.collops.allreduce_inplace`."""
        from repro.simmpi import collops

        return collops.allreduce_inplace(self, arr)

    # -- sub-communicators ------------------------------------------------------

    def split(self, color: int, key: Optional[int] = None) -> "Comm":
        """Partition this communicator by ``color`` (collective call).

        Members with equal ``color`` form a new communicator, ordered by
        ``(key, old rank)`` — exactly MPI_Comm_split.  Used to build the
        ``Pr`` (column) and ``Pc`` (row) groups of the process grid.
        """
        if key is None:
            key = self._rank
        seq = self._split_seq
        self._split_seq += 1
        # Deposit (color, key) with the engine; the exchange is
        # deterministic metadata, charged zero virtual time.
        values = self._engine.coordinate(
            ctx=(self._ctx, "split", seq),
            world_rank=self._world_rank,
            value=(color, key),
            participants=self._world_ranks,
            gen=self._gen,
        )
        # The first reader groups everyone by colour and leaves that on
        # the shared store under "groups" (its other keys are ranks);
        # each member then picks up its own group's tuple.
        groups = values.get("groups")
        if groups is None:
            by_color: Dict[Any, List[Tuple]] = {}
            for old_rank, w in enumerate(self._world_ranks):
                c, k = values[w]
                by_color.setdefault(c, []).append((k, old_rank, w))
            groups = values["groups"] = {
                c: tuple(w for _, _, w in sorted(members))
                for c, members in by_color.items()
            }
        new_world_ranks = groups[color]
        new_ctx = (self._ctx, "split", seq, color)
        return Comm(
            self._engine, new_world_ranks, new_world_ranks.index(self._world_rank),
            new_ctx, gen=self._gen,
        )

    def shrink(self) -> "Comm":
        """Build a communicator over the surviving members (ULFM-style).

        Callable only on a supervised engine, after a peer crash has
        surfaced as :class:`~repro.errors.PeerFailedError`.  Every
        survivor must call it; the shrink coordinates on the engine's
        failure generation and returns a fresh communicator (with a
        fresh message namespace, so stale in-flight messages from the
        interrupted step can never be matched).  If another rank dies
        mid-shrink, the attempt retries against the updated survivor
        set; local ranks preserve the relative order of
        :attr:`world_ranks`.
        """
        engine = self._engine
        if not engine.supervise:
            raise CommunicatorError("shrink requires a supervised engine")
        injector = engine.injector
        if injector is not None and injector.has_cascades():
            # Cascading-failure schedules fire here: entering recovery
            # is exactly when a scripted cascade kills this rank.
            injector.check_cascade(self._world_rank, time=self.clock)
        from repro.telemetry.spans import span

        with span("shrink", comm=self, gen=self._gen):
            return self._shrink_loop(engine)

    def _shrink_loop(self, engine) -> "Comm":
        while True:
            gen, alive = engine.begin_shrink()
            alive = set(alive)
            members = tuple(r for r in self._world_ranks if r in alive)
            if self._world_rank not in alive:  # pragma: no cover - defensive
                raise CommunicatorError("a dead rank cannot take part in shrink")
            # Declare the move: peers blocked on this rank's old-generation
            # messages fail over deterministically instead of deadlocking.
            engine.mark_recovering(self._world_rank, gen)
            ctx = ("shrink", self._ctx, gen, members)
            try:
                engine.coordinate(ctx, self._world_rank, None, members, gen=gen)
            except PeerFailedError:
                # Another crash landed mid-shrink: re-snapshot and retry.
                continue
            engine.mark_recovered(self._world_rank, gen)
            engine.tracer.record(
                TraceEvent(
                    self._world_rank, "fault.recovery", -1, 0, self.clock, self.clock,
                    (len(members),),
                )
            )
            return Comm(
                engine, members, members.index(self._world_rank), ctx=ctx, gen=gen
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Comm(rank={self._rank}/{self.size}, world={self._world_rank}, "
            f"ctx={self._ctx!r})"
        )
