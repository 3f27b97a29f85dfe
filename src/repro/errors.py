"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration mistakes from simulator faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """An object was constructed with invalid or inconsistent parameters.

    Raised eagerly at construction time (e.g. a process grid whose
    ``Pr * Pc`` does not equal ``P``, or a convolution whose channel
    count is not divisible by its group count) so that errors surface at
    the call site rather than deep inside a simulation.
    """


class ShapeError(ReproError, ValueError):
    """Array or layer shapes are incompatible for the requested operation."""


class PartitionError(ReproError, ValueError):
    """A matrix/domain partition request cannot be satisfied.

    Examples: distributing 3 rows over 5 processes when an exact tile is
    required, or asking for the local block of an out-of-range rank.
    """


class StrategyError(ReproError, ValueError):
    """A parallelization strategy is malformed or inapplicable.

    For instance, assigning domain parallelism to a fully connected
    layer (the paper notes the halo would cover the entire input), or a
    strategy whose layer placement list does not match the network.
    """


class SimMPIError(ReproError, RuntimeError):
    """Base class for faults inside the simulated MPI runtime."""


class DeadlockError(SimMPIError):
    """A simulated rank waits on a receive that can never complete.

    Raised in the rank the scheduler proves deadlocked (no rank can
    run, so no send will ever match its receive), and in every other
    blocked rank once another rank's failure aborts the run.
    """


class RankFailedError(SimMPIError):
    """One or more simulated ranks raised an exception.

    The original per-rank exceptions are available via :attr:`failures`,
    a mapping ``rank -> exception``.
    """

    def __init__(self, failures):
        self.failures = dict(failures)
        ranks = ", ".join(str(r) for r in sorted(self.failures))
        first = self.failures[min(self.failures)]
        super().__init__(
            f"{len(self.failures)} simulated rank(s) failed (ranks {ranks}); "
            f"first failure: {first!r}"
        )


class CommunicatorError(SimMPIError):
    """Misuse of a communicator (bad rank, tag, or buffer)."""


class TransientCommError(SimMPIError):
    """A send kept failing transiently and exhausted its retry budget.

    Raised by :meth:`~repro.simmpi.communicator.Comm.send` after
    ``max_retries`` exponential-backoff retries, mirroring how a real
    transport surfaces a link that stays flaky past the retry policy.
    """

    def __init__(self, src: int, dst: int, attempts: int):
        self.src = src
        self.dst = dst
        self.attempts = attempts
        super().__init__(
            f"send {src} -> {dst} failed transiently {attempts} time(s); "
            "retry budget exhausted"
        )


class SimulatedCrashError(SimMPIError):
    """An injected rank crash (from a :class:`~repro.simmpi.faults.FaultPlan`).

    In a supervised engine this marks the rank dead without aborting the
    whole run; survivors observe :class:`PeerFailedError` and may
    ``shrink`` their communicator ULFM-style and continue.
    """

    def __init__(self, rank: int, step=None, at_time=None):
        self.rank = rank
        self.step = step
        self.at_time = at_time
        where = f" at step {step}" if step is not None else ""
        when = f" at t={at_time:g}s" if at_time is not None else ""
        super().__init__(f"injected crash of rank {rank}{where}{when}")


class SDCError(SimMPIError):
    """Base class for silent-data-corruption (ABFT) failures."""


class SDCDetectedError(SDCError):
    """An ABFT checksum caught corrupted data under the ``detect`` policy.

    Raised loudly instead of letting the corruption propagate: the
    ``detect`` policy flags and aborts, leaving correction or
    recomputation to the stronger policies.
    """

    def __init__(self, rank: int, *, site: str = "", detail: str = ""):
        self.rank = rank
        self.site = site
        where = f" in {site}" if site else ""
        extra = f": {detail}" if detail else ""
        super().__init__(
            f"silent data corruption detected on rank {rank}{where}{extra}"
        )


class SDCUnrecoverableError(SDCError, SimulatedCrashError):
    """Corruption persisted past the bounded recompute retries.

    Subclasses :class:`SimulatedCrashError` deliberately: on a
    supervised engine the afflicted rank is excised exactly like a
    crashed rank, so the elastic shrink / re-plan / checkpoint-restore
    machinery (PR 1) takes over without any special casing.
    """

    def __init__(self, rank: int, *, site: str = "", retries: int = 0):
        SimulatedCrashError.__init__(self, rank)
        self.site = site
        self.retries = retries
        where = f" in {site}" if site else ""
        self.args = (
            f"unrecoverable silent data corruption on rank {rank}{where} "
            f"after {retries} recompute retr{'y' if retries == 1 else 'ies'}",
        )


class PeerFailedError(SimMPIError):
    """A communication partner died while this rank was communicating.

    Only raised in a supervised engine: surviving ranks receive it from
    any pending or subsequent communication call once a peer has
    crashed, and are expected to recover (e.g. via
    :meth:`~repro.simmpi.communicator.Comm.shrink`).
    """

    def __init__(self, dead_ranks):
        self.dead_ranks = tuple(sorted(dead_ranks))
        super().__init__(
            f"peer rank(s) {list(self.dead_ranks)} failed; "
            "communicator must be shrunk before continuing"
        )
