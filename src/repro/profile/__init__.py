"""Host-time self-profiler for the simulator.

Everything else in the observability stack (spans, audits, critical
paths, health events) lives in *virtual* time.  This package measures
where *host* wall-clock goes while the simulator runs: a sampling
profiler (a dedicated sampler thread walking ``sys._current_frames()``
at a configurable Hz — no signals, no ``sys.setprofile``) plus
near-free counter hooks at subsystem boundaries.  Samples are
correlated with the current virtual time and the active telemetry
span, and attributed to subsystems (scheduler, message path, postal
model, telemetry, faults, compute), yielding derived metrics such as
µs per message and µs per scheduler switch.

The profiler is observability-only by construction: hooks increment
host-side counters and the sampler merely reads simulation state, so a
profiled run is bit-identical to an unprofiled one in values, clocks,
and canonical traces.  Self-overhead is measured per session and
documented against a <5% budget (``docs/PROFILE.md``), enforced by
``benchmarks/bench_profile.py``.
"""

# Lazy exports (PEP 562): the simulator's hot paths import
# ``repro.profile.hooks`` at module load; keeping this __init__ free of
# eager imports means that costs nothing and cannot cycle back into
# ``repro.telemetry``/``repro.simmpi``.
_EXPORTS = {
    "SUBSYSTEMS": "attribution",
    "classify_frame": "attribution",
    "stack_frames": "attribution",
    "collapsed_lines": "export",
    "write_collapsed": "export",
    "write_flamegraph_html": "export",
    "write_pprof_json": "export",
    "OVERHEAD_BUDGET": "session",
    "ProfileReport": "session",
    "ProfileSession": "session",
    "host_block": "session",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "OVERHEAD_BUDGET",
    "ProfileReport",
    "ProfileSession",
    "SUBSYSTEMS",
    "classify_frame",
    "collapsed_lines",
    "host_block",
    "stack_frames",
    "write_collapsed",
    "write_flamegraph_html",
    "write_pprof_json",
]
