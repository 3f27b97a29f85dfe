"""Postal network timing model for the simulated MPI runtime.

Matches the paper's assumptions (Section 1, "Limitations"): a fully
connected, conflict-free network described solely by a latency ``alpha``
and an inverse bandwidth ``beta``.  A message of ``n`` bytes injected at
time ``t`` arrives at ``t + alpha + beta_per_byte * n``; concurrent
messages do not interfere.

A :class:`~repro.simmpi.faults.FaultInjector` may be attached to model
degraded links: while a :class:`~repro.simmpi.faults.LinkFault` window
is active on a directed link, that link's messages are timed with a
derated machine.  Healthy links always take the original code path, so
fault-free timings are bit-identical with or without an injector.
"""

from __future__ import annotations

import pickle
from typing import Any, Optional

import numpy as np

from repro.errors import CommunicatorError
from repro.machine.params import MachineParams, cori_knl
from repro.profile import hooks as _profile_hooks
from repro.simmpi.sdc import SDC_DIGEST_BYTES, GuardedPayload

__all__ = ["PostalNetwork", "payload_bytes", "payload_data_bytes"]


def payload_bytes(obj: Any) -> int:
    """Size on the wire of a message payload.

    NumPy arrays travel as raw buffers (their ``nbytes``); NumPy scalars
    as one element of their dtype; Python numeric scalars as one machine
    word (8 bytes — 16 for ``complex``, which is two doubles); anything
    else is measured by its pickle, mirroring the mpi4py convention of
    fast buffer sends vs pickled object sends.  A payload that cannot be
    pickled raises :class:`~repro.errors.CommunicatorError`.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, np.generic):
        return int(obj.dtype.itemsize)
    if isinstance(obj, complex):
        return 16
    if isinstance(obj, (bool, int, float)):
        return 8
    if isinstance(obj, GuardedPayload):
        # An SDC-guarded payload travels as the data plus its 8-byte
        # XOR digest (repro.simmpi.sdc).
        return payload_bytes(obj.data) + SDC_DIGEST_BYTES
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        # No size means no arrival time: refuse rather than invent one.
        raise CommunicatorError(
            f"cannot size a {type(obj).__name__} payload for the wire: {exc}"
        ) from exc


def payload_data_bytes(obj: Any) -> int:
    """Raw numeric content of a payload, without serialization overhead.

    Where :func:`payload_bytes` measures what travels on the wire
    (pickle framing included for object sends), this counts only the
    data itself — array elements, scalar words — recursing through
    lists, tuples and dict values.  It is the quantity the paper's
    bandwidth terms (Eqs. 3/4/8/9) predict, so telemetry audits compare
    against it; the wire size still drives all virtual timings.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, np.generic):
        return int(obj.dtype.itemsize)
    if isinstance(obj, complex):
        return 16
    if isinstance(obj, (bool, int, float)):
        return 8
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(payload_data_bytes(item) for item in obj)
    if isinstance(obj, dict):
        return sum(payload_data_bytes(value) for value in obj.values())
    if obj is None:
        return 0
    if isinstance(obj, GuardedPayload):
        # The digest is guard traffic, not model data: existing audit
        # terms must close unchanged with guards on.
        return payload_data_bytes(obj.data)
    return payload_bytes(obj)


class PostalNetwork:
    """Latency-bandwidth message timing.

    Parameters
    ----------
    machine:
        Machine parameters supplying ``alpha`` and ``beta_per_byte``.
        Defaults to the paper's Cori-KNL preset.
    injector:
        Optional fault injector supplying per-link degradation windows.

    Timing answers are pure functions of their arguments (no mutable
    state beyond the injector's memo cache).
    """

    __slots__ = ("machine", "injector")

    def __init__(self, machine: MachineParams | None = None, injector=None) -> None:
        self.machine = machine if machine is not None else cori_knl()
        self.injector = injector

    def link_machine(
        self, src: Optional[int], dst: Optional[int], at: float
    ) -> MachineParams:
        """The machine view timing messages on ``src -> dst`` at time ``at``."""
        if (
            self.injector is not None
            and src is not None
            and dst is not None
            and self.injector.has_link_faults()
        ):
            degraded = self.injector.link_machine(src, dst, at, self.machine)
            if degraded is not None:
                return degraded
        return self.machine

    def transfer_time(
        self,
        nbytes: int,
        *,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        at: float = 0.0,
    ) -> float:
        """Seconds for one ``nbytes`` message: ``alpha + beta * n``."""
        if nbytes < 0:
            raise ValueError(f"message size must be >= 0, got {nbytes}")
        h = _profile_hooks.ACTIVE
        if h is not None:
            h.postal_calls += 1
        machine = self.link_machine(src, dst, at)
        return machine.alpha + machine.beta_per_byte * nbytes
