"""Nestable, virtual-time-aware spans for the simulated runtime.

A *span* marks a phase of a rank program — ``with span("fwd", layer=3,
comm=comm): ...`` — and does two things:

* every :class:`~repro.simmpi.tracing.TraceEvent` recorded while the
  span is open carries the current **span path** (a tuple of labels
  like ``("step[step=0]", "fwd[layer=3]", "allgather[alg=bruck,seq=2]")``),
  so traces can be grouped, audited and rendered by phase; and
* when a ``comm`` is supplied, closing the span records a ``"span"``
  trace event whose ``t_start``/``t_end`` bracket the phase in
  *virtual* time (reading the clock never advances it).

Spans are tracked per thread, which under the SPMD engine means per
rank: each rank thread keeps its own stack, so concurrent ranks never
see each other's phases.  Entering or leaving a span performs no
communication and no clock arithmetic, so instrumented programs have
bit-identical virtual timings whether tracing is enabled or not.

Labels are plain strings with a parseable shape: ``name`` for an
attribute-free span, ``name[k=v,...]`` (keys sorted) otherwise.
:func:`parse_label` and :func:`base_name` invert the formatting for
consumers such as the audit module.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

from repro.simmpi.tracing import TraceEvent

__all__ = ["span", "current_path", "format_label", "parse_label", "base_name"]

_local = threading.local()

# Sampling registry: thread ident -> _SpanState, maintained only while
# a repro.profile.ProfileSession is active.  `threading.local` state is
# invisible across threads, so the profiler's sampler could not
# otherwise correlate a sampled stack with the rank's open span.  The
# flag check keeps the disabled-path cost of _state() at one global
# load, and disable_registry() drops every reference so no state
# outlives a profiling session.
_registry: Dict[int, "_SpanState"] = {}
_registry_enabled = False


class _SpanState:
    __slots__ = ("stack", "path")

    def __init__(self) -> None:
        self.stack: list = []
        self.path: Tuple[str, ...] = ()


def _state() -> _SpanState:
    st = getattr(_local, "state", None)
    if st is None:
        st = _local.state = _SpanState()
    if _registry_enabled:
        ident = threading.get_ident()
        if ident not in _registry:
            _registry[ident] = st
    return st


def enable_registry() -> None:
    """Start mirroring per-thread span state for cross-thread sampling."""
    global _registry_enabled
    _registry_enabled = True


def disable_registry() -> None:
    """Stop mirroring and drop all registered state references."""
    global _registry_enabled
    _registry_enabled = False
    _registry.clear()


def registered_path(ident: int) -> Optional[Tuple[str, ...]]:
    """The open span path of thread *ident*, if it registered any.

    Read-only and race-tolerant: ``path`` is replaced atomically on
    span enter/exit, so a concurrent reader sees either the old or the
    new tuple, never a torn value.
    """
    st = _registry.get(ident)
    return st.path if st is not None else None


def current_path() -> Tuple[str, ...]:
    """The open span labels of the calling thread, outermost first."""
    st = getattr(_local, "state", None)
    return st.path if st is not None else ()


def format_label(name: str, attrs: Dict[str, Any]) -> str:
    """``name`` or ``name[k=v,...]`` with keys in sorted order."""
    if not attrs:
        return name
    inner = ",".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    return f"{name}[{inner}]"


def parse_label(label: str) -> Tuple[str, Dict[str, Any]]:
    """Invert :func:`format_label`; numeric attribute values are restored."""
    if "[" not in label or not label.endswith("]"):
        return label, {}
    name, _, rest = label.partition("[")
    attrs: Dict[str, Any] = {}
    for part in rest[:-1].split(","):
        if not part:
            continue
        key, _, value = part.partition("=")
        try:
            attrs[key] = int(value)
        except ValueError:
            try:
                attrs[key] = float(value)
            except ValueError:
                attrs[key] = value
    return name, attrs


def base_name(label: str) -> str:
    """The span name without its attribute suffix."""
    return label.partition("[")[0]


class span:
    """Context manager opening one span.

    Parameters
    ----------
    name:
        Phase name (``"fwd"``, ``"bwd_dw"``, ``"step"``, ...).
    comm:
        Optional :class:`~repro.simmpi.communicator.Comm`.  When given,
        closing the span records a ``"span"`` trace event on the owning
        engine's tracer with the rank's virtual entry/exit clocks (a
        no-op when tracing is disabled).  Without it the span still
        annotates nested events with its label but records no event of
        its own.
    **attrs:
        Attributes baked into the label (``layer=3``, ``seq=7``); they
        also travel in the span event's ``tag`` as sorted pairs.
    """

    __slots__ = ("name", "comm", "attrs", "label", "_t0", "_path")

    def __init__(self, name: str, comm: Optional[Any] = None, **attrs: Any) -> None:
        self.name = name
        self.comm = comm
        self.attrs = attrs
        self.label = format_label(name, attrs)

    def __enter__(self) -> "span":
        st = _state()
        st.stack.append(self.label)
        st.path = st.path + (self.label,)
        self._path = st.path
        self._t0 = self.comm.clock if self.comm is not None else None
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        st = _state()
        st.stack.pop()
        st.path = st.path[:-1]
        comm = self.comm
        if comm is not None:
            tracer = comm._engine.tracer
            if tracer.enabled:
                tracer.record(
                    TraceEvent(
                        comm.world_rank,
                        "span",
                        -1,
                        0,
                        self._t0,
                        comm.clock,
                        tuple(sorted(self.attrs.items())),
                        0,
                        self._path,
                    )
                )
        return False
