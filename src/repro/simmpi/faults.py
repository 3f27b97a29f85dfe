"""Declarative, deterministic fault injection for the simulated runtime.

The paper's postal network is perfect: conflict-free links, ranks that
never fail.  Production clusters are not — stragglers, flaky links and
outright rank crashes are the common case at scale.  Because
:mod:`repro.simmpi` runs *real* SPMD programs under *virtual* clocks, we
can simulate those faults deterministically and replay them exactly.

A :class:`FaultPlan` is a declarative description of every fault to
inject into one run:

* :class:`Crash` — a rank dies at a training step or virtual time;
  several crashes naming the same step model **concurrent** failures
  (they all register within one failure generation);
* :class:`Cascade` — a crash *during recovery*: the rank dies when it
  enters its ``at_recovery``-th ULFM shrink, so the survivors' recovery
  attempt is itself interrupted and must restart;
* :class:`TransientFault` — the ``n``-th send of a rank fails
  transiently ``attempts`` times (the communicator retries with
  exponential backoff), or every send fails with probability ``p``;
* :class:`MessageDrop` — the ``n``-th send of a rank vanishes on the
  wire (the starved receiver fails with a diagnosed deadlock);
* :class:`LinkFault` — a directed link runs degraded (latency multiplied,
  bandwidth divided) during a virtual-time window;
* :class:`Straggler` — a rank's local compute is dilated by a constant
  factor plus optional seeded jitter;
* :class:`BitFlipFault` — silent data corruption: one bit of a matmul
  output block (``target="matmul"``, keyed by rank/layer/step/GEMM) or
  of an in-flight payload (``target="payload"``, keyed by the rank's
  send index) is flipped.  Unguarded runs silently absorb the
  corruption; ABFT guards (:mod:`repro.dist.abft`) detect it.

Everything is deterministic given ``FaultPlan.seed``: random draws use
per-rank counter-keyed streams, so scheduling order can never change
which faults fire.  An *empty* plan injects nothing and leaves every
virtual timing bit-identical to a run without an injector.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulatedCrashError
from repro.machine.params import MachineParams
from repro.profile import hooks as _profile_hooks

__all__ = [
    "Crash",
    "Cascade",
    "TransientFault",
    "MessageDrop",
    "LinkFault",
    "Straggler",
    "BitFlipFault",
    "FaultPlan",
    "FaultInjector",
    "SendOutcome",
]


@dataclasses.dataclass(frozen=True)
class Crash:
    """Rank ``rank`` dies at training step ``at_step`` or time ``at_time``."""

    rank: int
    at_step: Optional[int] = None
    at_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(f"crash rank must be >= 0, got {self.rank}")
        if self.at_step is None and self.at_time is None:
            raise ConfigurationError("a Crash needs at_step and/or at_time")
        if self.at_step is not None and self.at_step < 0:
            raise ConfigurationError(f"at_step must be >= 0, got {self.at_step}")
        if self.at_time is not None and self.at_time < 0:
            raise ConfigurationError(f"at_time must be >= 0, got {self.at_time}")


@dataclasses.dataclass(frozen=True)
class Cascade:
    """Rank ``rank`` dies while *recovering*: the crash fires when the
    rank enters its ``at_recovery``-th ULFM shrink (1-based).

    This is the cascading-failure schedule the plain :class:`Crash`
    cannot express — a survivor of an earlier failure going down in the
    middle of the shrink/census/restore sequence, forcing the remaining
    ranks to abort and restart recovery."""

    rank: int
    at_recovery: int = 1

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(f"cascade rank must be >= 0, got {self.rank}")
        if self.at_recovery < 1:
            raise ConfigurationError(
                f"at_recovery must be >= 1, got {self.at_recovery}"
            )


@dataclasses.dataclass(frozen=True)
class TransientFault:
    """Transient send failures from ``rank`` (optionally only to ``dest``).

    Deterministic form: the ``send_index``-th send matching the filter
    fails ``attempts`` times before succeeding.  Probabilistic form:
    every matching send *attempt* fails with probability ``probability``
    (drawn from the plan's per-rank seeded stream).
    """

    rank: int
    dest: Optional[int] = None
    send_index: Optional[int] = None
    attempts: int = 1
    probability: float = 0.0

    def __post_init__(self) -> None:
        if self.send_index is None and self.probability <= 0.0:
            raise ConfigurationError(
                "a TransientFault needs send_index or probability > 0"
            )
        if not 0.0 <= self.probability < 1.0:
            raise ConfigurationError(
                f"probability must lie in [0, 1), got {self.probability}"
            )
        if self.attempts < 1:
            raise ConfigurationError(f"attempts must be >= 1, got {self.attempts}")


@dataclasses.dataclass(frozen=True)
class MessageDrop:
    """The ``send_index``-th send of ``rank`` (optionally to ``dest``) vanishes."""

    rank: int
    dest: Optional[int] = None
    send_index: int = 0

    def __post_init__(self) -> None:
        if self.send_index < 0:
            raise ConfigurationError(f"send_index must be >= 0, got {self.send_index}")


@dataclasses.dataclass(frozen=True)
class LinkFault:
    """Directed link ``src -> dst`` runs degraded in ``[t_start, t_end)``.

    Effective latency is ``alpha * latency_factor`` and bandwidth
    ``1 / (beta * bandwidth_factor)`` — the same two knobs as
    :meth:`~repro.machine.params.MachineParams.derated`, applied to one
    link for a window of virtual time.
    """

    src: int
    dst: int
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    t_start: float = 0.0
    t_end: float = math.inf

    def __post_init__(self) -> None:
        if self.latency_factor <= 0 or self.bandwidth_factor <= 0:
            raise ConfigurationError("link derating factors must be positive")
        if self.t_end <= self.t_start:
            raise ConfigurationError(
                f"empty degradation window [{self.t_start}, {self.t_end})"
            )

    def active(self, t: float) -> bool:
        return self.t_start <= t < self.t_end


@dataclasses.dataclass(frozen=True)
class Straggler:
    """Rank ``rank`` computes slower: ``advance(s)`` becomes
    ``advance(s * (factor + jitter * u))`` with ``u ~ U[0, 1)`` seeded."""

    rank: int
    factor: float = 1.5
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ConfigurationError(f"straggler factor must be >= 1, got {self.factor}")
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {self.jitter}")


_BITFLIP_TARGETS = ("matmul", "payload")
_BITFLIP_GEMMS = ("fwd", "bwd_dx", "bwd_dw", "summa")


@dataclasses.dataclass(frozen=True)
class BitFlipFault:
    """One flipped bit — silent data corruption, deterministic and replayable.

    ``target="matmul"``: flip bit ``bit`` of element ``element`` (row-major,
    modulo the block size) of the local GEMM output block computed by
    ``rank`` for ``gemm`` (one of ``fwd``/``bwd_dx``/``bwd_dw``/``summa``)
    at layer ``layer`` (panel index for SUMMA) and training step ``step``.
    ``repeat`` makes the flip re-fire on that many successive
    recomputations of the same block, which lets tests exhaust the
    ``recompute`` policy's retry budget deterministically.

    ``target="payload"``: flip one bit of the ``send_index``-th send of
    ``rank`` (optionally filtered by ``dest``) while the payload is in
    flight.  Only float64 array payloads are corruptible; a flip landing
    on a non-array send is spent without effect.
    """

    rank: int
    target: str = "matmul"
    layer: int = 0
    step: int = 0
    gemm: str = "fwd"
    send_index: Optional[int] = None
    dest: Optional[int] = None
    element: int = 0
    bit: int = 0
    repeat: int = 1

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(f"bitflip rank must be >= 0, got {self.rank}")
        if self.target not in _BITFLIP_TARGETS:
            raise ConfigurationError(
                f"bitflip target must be one of {_BITFLIP_TARGETS}, got {self.target!r}"
            )
        if not 0 <= self.bit < 64:
            raise ConfigurationError(f"bit must lie in [0, 64), got {self.bit}")
        if self.element < 0:
            raise ConfigurationError(f"element must be >= 0, got {self.element}")
        if self.repeat < 1:
            raise ConfigurationError(f"repeat must be >= 1, got {self.repeat}")
        if self.target == "matmul":
            if self.layer < 0:
                raise ConfigurationError(f"layer must be >= 0, got {self.layer}")
            if self.step < 0:
                raise ConfigurationError(f"step (generation) must be >= 0, got {self.step}")
            if self.gemm not in _BITFLIP_GEMMS:
                raise ConfigurationError(
                    f"gemm must be one of {_BITFLIP_GEMMS}, got {self.gemm!r}"
                )
        else:
            if self.send_index is None or self.send_index < 0:
                raise ConfigurationError(
                    "a payload bitflip needs send_index >= 0, got "
                    f"{self.send_index}"
                )
            if self.repeat != 1:
                raise ConfigurationError(
                    "payload bitflips cannot repeat (recovery is by "
                    f"retransmission, not recomputation), got repeat={self.repeat}"
                )


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """Everything to inject into one run, replayable from ``seed``."""

    seed: int = 0
    crashes: Tuple[Crash, ...] = ()
    cascades: Tuple[Cascade, ...] = ()
    transients: Tuple[TransientFault, ...] = ()
    drops: Tuple[MessageDrop, ...] = ()
    links: Tuple[LinkFault, ...] = ()
    stragglers: Tuple[Straggler, ...] = ()
    bitflips: Tuple[BitFlipFault, ...] = ()
    max_retries: int = 3
    backoff_base: float = 1e-5

    def __post_init__(self) -> None:
        # Normalise lists to tuples so plans are hashable/frozen.
        for field in (
            "crashes", "cascades", "transients", "drops", "links",
            "stragglers", "bitflips",
        ):
            value = getattr(self, field)
            if not isinstance(value, tuple):
                object.__setattr__(self, field, tuple(value))
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base <= 0:
            raise ConfigurationError(
                f"backoff_base must be positive, got {self.backoff_base}"
            )

    # -- (de)serialisation for the CLI --------------------------------------

    _KINDS = {
        "crashes": Crash,
        "cascades": Cascade,
        "transients": TransientFault,
        "drops": MessageDrop,
        "links": LinkFault,
        "stragglers": Straggler,
        "bitflips": BitFlipFault,
    }

    def to_dict(self) -> dict:
        out: dict = {
            "seed": self.seed,
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
        }
        for field in self._KINDS:
            specs = getattr(self, field)
            if specs:
                out[field] = [
                    {
                        k: v
                        for k, v in dataclasses.asdict(s).items()
                        if v != math.inf
                    }
                    for s in specs
                ]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        kwargs: dict = {}
        for key in ("seed", "max_retries", "backoff_base"):
            if key in data:
                kwargs[key] = data[key]
        for field, spec_cls in cls._KINDS.items():
            if field in data:
                kwargs[field] = tuple(spec_cls(**item) for item in data[field])
        unknown = set(data) - set(kwargs) - set(cls._KINDS)
        if unknown - {"seed", "max_retries", "backoff_base"}:
            raise ConfigurationError(f"unknown FaultPlan fields: {sorted(unknown)}")
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


@dataclasses.dataclass(frozen=True)
class SendOutcome:
    """What the injector decided for one send operation."""

    transient_attempts: int = 0
    drop: bool = False
    bitflip: Optional[BitFlipFault] = None


# A shared immutable no-fault outcome so the hot path allocates nothing.
SendOutcome.OK = SendOutcome()  # type: ignore[attr-defined]


class FaultInjector:
    """Engine-side oracle answering "does a fault fire here?".

    All per-rank mutable state (send counters, RNG streams, fired-crash
    markers) is keyed by rank and only ever touched by that rank's own
    program, so no draw can be perturbed by scheduling.  ``reset()``
    restores the injector to its initial state so the same plan replays
    identically across engine runs.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._crashes_by_rank: Dict[int, List[Crash]] = {}
        for c in plan.crashes:
            self._crashes_by_rank.setdefault(c.rank, []).append(c)
        self._cascades_by_rank: Dict[int, List[Cascade]] = {}
        for ca in plan.cascades:
            self._cascades_by_rank.setdefault(ca.rank, []).append(ca)
        self._transients_by_rank: Dict[int, List[TransientFault]] = {}
        for t in plan.transients:
            self._transients_by_rank.setdefault(t.rank, []).append(t)
        self._drops_by_rank: Dict[int, List[MessageDrop]] = {}
        for d in plan.drops:
            self._drops_by_rank.setdefault(d.rank, []).append(d)
        self._links: Dict[Tuple[int, int], List[LinkFault]] = {}
        for lf in plan.links:
            self._links.setdefault((lf.src, lf.dst), []).append(lf)
        self._stragglers: Dict[int, Straggler] = {s.rank: s for s in plan.stragglers}
        self._bitflips_matmul: Dict[int, List[BitFlipFault]] = {}
        self._bitflips_payload: Dict[int, List[BitFlipFault]] = {}
        for bf in plan.bitflips:
            by_rank = (
                self._bitflips_matmul
                if bf.target == "matmul"
                else self._bitflips_payload
            )
            by_rank.setdefault(bf.rank, []).append(bf)
        self._link_machines: Dict[Tuple[float, float], MachineParams] = {}
        self.reset()

    def reset(self) -> None:
        """Rewind all per-run state (send counters, RNGs, fired crashes)."""
        self._send_counter: Dict[int, int] = {}
        self._fired: set = set()
        self._flip_fires: Dict[BitFlipFault, int] = {}
        self._rngs: Dict[int, np.random.Generator] = {}
        self._jitter_rngs: Dict[int, np.random.Generator] = {}
        self._recovery_count: Dict[int, int] = {}
        self._slack: Dict[int, float] = {}

    # -- crashes -------------------------------------------------------------

    def crash_due(
        self, rank: int, *, step: Optional[int] = None, time: Optional[float] = None
    ) -> Optional[Crash]:
        """The crash that should fire for ``rank`` here, if any.

        Step-based crashes fire when the rank reports reaching exactly
        ``at_step``; time-based crashes fire the first time the rank's
        virtual clock reaches ``at_time``.  Each crash fires once.
        """
        for crash in self._crashes_by_rank.get(rank, ()):
            if crash in self._fired:
                continue
            if crash.at_step is not None:
                if step is not None and step == crash.at_step:
                    self._fired.add(crash)
                    return crash
            elif crash.at_time is not None and time is not None and time >= crash.at_time:
                self._fired.add(crash)
                return crash
        return None

    def check_crash(
        self, rank: int, *, step: Optional[int] = None, time: Optional[float] = None
    ) -> None:
        """Raise :class:`~repro.errors.SimulatedCrashError` if a crash fires."""
        crash = self.crash_due(rank, step=step, time=time)
        if crash is not None:
            raise SimulatedCrashError(rank, step=crash.at_step, at_time=crash.at_time)

    # -- cascading failures --------------------------------------------------

    def has_cascades(self) -> bool:
        return bool(self._cascades_by_rank)

    def check_cascade(self, rank: int, *, time: Optional[float] = None) -> None:
        """Count a shrink entry for ``rank``; raise if a cascade fires.

        Called from the rank's own thread at the top of every ULFM
        shrink, so ``at_recovery=1`` kills the rank the first time it
        tries to recover from someone *else's* failure — the cascading
        schedule.  Each cascade fires once.
        """
        count = self._recovery_count.get(rank, 0) + 1
        self._recovery_count[rank] = count
        for cascade in self._cascades_by_rank.get(rank, ()):
            if cascade in self._fired:
                continue
            if cascade.at_recovery == count:
                self._fired.add(cascade)
                raise SimulatedCrashError(rank, step=None, at_time=time)

    # -- sends ---------------------------------------------------------------

    def _rng(self, rank: int) -> np.random.Generator:
        rng = self._rngs.get(rank)
        if rng is None:
            rng = np.random.default_rng((self.plan.seed, rank))
            self._rngs[rank] = rng
        return rng

    def send_outcome(self, src: int, dst: int) -> SendOutcome:
        """Decide the fate of the next send ``src -> dst``.

        Advances ``src``'s send counter (one per send *operation*, not
        per retry attempt) and consults drop/transient specs in that
        order.  Only called from ``src``'s own thread.
        """
        h = _profile_hooks.ACTIVE
        if h is not None:
            h.fault_outcomes += 1
        index = self._send_counter.get(src, 0)
        self._send_counter[src] = index + 1
        for drop in self._drops_by_rank.get(src, ()):
            if drop.send_index == index and (drop.dest is None or drop.dest == dst):
                return SendOutcome(drop=True)
        attempts = 0
        for tf in self._transients_by_rank.get(src, ()):
            if tf.dest is not None and tf.dest != dst:
                continue
            if tf.send_index is not None:
                if tf.send_index == index:
                    attempts = max(attempts, tf.attempts)
            elif self._rng(src).random() < tf.probability:
                attempts = max(attempts, tf.attempts)
        flip = None
        for bf in self._bitflips_payload.get(src, ()):
            if bf.send_index == index and (bf.dest is None or bf.dest == dst):
                if self._flip_fires.get(bf, 0) < 1:
                    self._flip_fires[bf] = 1
                    flip = bf
                    break
        if attempts or flip is not None:
            return SendOutcome(transient_attempts=attempts, bitflip=flip)
        return SendOutcome.OK

    # -- silent data corruption ----------------------------------------------

    def matmul_bitflip(
        self, rank: int, *, layer: int, step: int, gemm: str
    ) -> Optional[BitFlipFault]:
        """The bit flip striking this freshly computed GEMM block, if any.

        A flip fires at most ``repeat`` times for the same site, so
        recomputing the block (the ``recompute`` policy) re-corrupts it
        until the budget is spent — deterministic across replays.  Only
        called from ``rank``'s own thread.
        """
        for bf in self._bitflips_matmul.get(rank, ()):
            if bf.layer == layer and bf.step == step and bf.gemm == gemm:
                fires = self._flip_fires.get(bf, 0)
                if fires < bf.repeat:
                    self._flip_fires[bf] = fires + 1
                    return bf
        return None

    # -- links ---------------------------------------------------------------

    def has_link_faults(self) -> bool:
        return bool(self._links)

    def link_machine(
        self, src: int, dst: int, t: float, base: MachineParams
    ) -> Optional[MachineParams]:
        """The degraded machine view of link ``src -> dst`` at time ``t``.

        Returns ``None`` when the link is healthy (the caller must then
        use the exact original code path so healthy timings stay
        bit-identical).  Concurrent active windows compose by
        multiplying factors.  Derated machines are memoised so repeated
        sends over one degraded window share a single object.
        """
        faults = self._links.get((src, dst))
        if not faults:
            return None
        lat = 1.0
        bw = 1.0
        for lf in faults:
            if lf.active(t):
                lat *= lf.latency_factor
                bw *= lf.bandwidth_factor
        if lat == 1.0 and bw == 1.0:
            return None
        machine = self._link_machines.get((lat, bw))
        if machine is None:
            machine = base.derated(latency_factor=lat, bandwidth_factor=bw)
            self._link_machines[(lat, bw)] = machine
        return machine

    # -- stragglers ----------------------------------------------------------

    def has_straggler(self, rank: int) -> bool:
        return rank in self._stragglers

    def compute_factor(self, rank: int) -> float:
        """Dilation factor for the next ``advance`` of a straggler rank."""
        spec = self._stragglers.get(rank)
        if spec is None:
            return 1.0
        if spec.jitter == 0.0:
            return spec.factor
        rng = self._jitter_rngs.get(rank)
        if rng is None:
            # Distinct stream family from the transient-fault RNGs.
            rng = np.random.default_rng((self.plan.seed, 0x9E3779B9, rank))
            self._jitter_rngs[rank] = rng
        return spec.factor + spec.jitter * float(rng.random())

    def note_straggler_slack(self, rank: int, extra: float) -> None:
        """Account virtual seconds added to ``rank`` by straggler dilation.

        Called from the rank's own thread by the communicator whenever
        an ``advance`` is dilated; the accumulated slack is what the
        fault report surfaces (stragglers are otherwise invisible — they
        shift timings without leaving a trace event)."""
        self._slack[rank] = self._slack.get(rank, 0.0) + extra

    def straggler_slack(self) -> Dict[int, float]:
        """Accumulated injected slack, in virtual seconds, by rank."""
        return dict(self._slack)
