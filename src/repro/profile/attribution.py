"""Frame → subsystem attribution for the sampling profiler.

Two classification problems are solved here, both keyed on code
objects (cached, so each code object is inspected once per process):

**Idle detection.**  The simulator keeps every rank's stack alive —
the scheduler parks P tasklet threads on closed gates (and keeps
spare worker threads parked between runs).  A naive sampler would
attribute P parked stacks the same weight as the one stack doing work.  A thread is *idle*
when its innermost Python frame is a known blocking site: any frame in
the stdlib ``threading.py`` (condition waits, joins, lock acquires
routed through Python), or the tasklet park points in
``simmpi/events.py`` (``_suspend`` / ``_worker_main`` / ``run``, whose
innermost line is a gate wait — the gate itself is a raw
``lock.acquire``, a C call that leaves no frame).

**Subsystem mapping.**  Busy stacks are attributed by walking from the
innermost frame outward and taking the first frame that lives in this
package; non-repro frames (numpy, copy, pickle, …) fall through to
their nearest repro caller, so ``np.vstack`` called from
``dist/train.py`` counts as *compute* and ``copy.deepcopy`` called
from ``simmpi/communicator.py`` counts as *message*.
"""

from __future__ import annotations

import os
from types import CodeType, FrameType
from typing import Dict, Optional, Tuple

#: Attribution buckets, in report order.  ``handoff`` is wall time
#: during an active run in which *no* thread had a busy Python frame —
#: the OS futex wake + GIL handoff cost of a scheduler switch; it is
#: real scheduler spend and feeds the µs/switch metric.  ``idle`` is the
#: same no-busy-stack state observed while no engine run is in
#: progress.  ``profiler`` covers sampled profiler frames (the
#: sampler's own thread is excluded and measured directly as
#: self-overhead).  Rows always sum to wall-clock by construction.
SUBSYSTEMS = (
    "scheduler",
    "handoff",
    "message",
    "network",
    "telemetry",
    "faults",
    "compute",
    "profiler",
    "other",
    "idle",
)

# First match wins, checked in order, against the path relative to the
# ``repro`` package root (``/`` separators).  More specific entries
# precede directory catch-alls.
_FILE_SUBSYSTEM: Tuple[Tuple[str, str], ...] = (
    ("simmpi/events.py", "scheduler"),
    ("simmpi/engine.py", "scheduler"),
    ("simmpi/communicator.py", "message"),
    ("simmpi/collops.py", "message"),
    ("simmpi/network.py", "network"),
    ("simmpi/tracing.py", "telemetry"),
    ("simmpi/faults.py", "faults"),
    ("simmpi/sdc.py", "faults"),
    ("dist/abft.py", "faults"),
    ("telemetry/", "telemetry"),
    ("observe/", "telemetry"),
    ("analysis/", "telemetry"),
    ("report/", "telemetry"),
    ("profile/", "profiler"),
    ("dist/", "compute"),
    ("nn/", "compute"),
    ("data/", "compute"),
    ("core/", "compute"),
    ("collectives/", "compute"),
    ("machine/", "compute"),
    ("experiments/", "compute"),
    ("search/", "compute"),
)

# Tasklet park points: the innermost line of these frames is a gate
# wait whenever the thread is not actively scheduling.  A worker parked
# between runs (or spare in this one) waits in ``_worker_main``.
_EVENT_PARK_FUNCS = frozenset({"_suspend", "_worker_main", "run"})

#: Max stack depth retained for collapsed stacks/flamegraphs.
MAX_DEPTH = 64

# code object -> (label, repro-relative path or None, idle flag)
_CODE_INFO: Dict[CodeType, Tuple[str, Optional[str], bool]] = {}


def _build_info(code: CodeType) -> Tuple[str, Optional[str], bool]:
    filename = code.co_filename.replace(os.sep, "/")
    marker = "/repro/"
    idx = filename.rfind(marker)
    rel: Optional[str] = None
    if idx >= 0:
        rel = filename[idx + len(marker):]
    short = rel if rel is not None else filename.rsplit("/", 1)[-1]
    label = f"{short}:{code.co_name}"
    idle = False
    if rel is None:
        # Python-level blocking primitives (Condition.wait, Thread.join,
        # _wait_for_tstate_lock, ...) all live in stdlib threading.py.
        idle = filename.endswith("/threading.py") or filename == "threading.py"
    elif rel == "simmpi/events.py" and code.co_name in _EVENT_PARK_FUNCS:
        idle = True
    return label, rel, idle


def code_info(code: CodeType) -> Tuple[str, Optional[str], bool]:
    """``(label, repro_relative_path, is_idle)`` for a code object."""
    info = _CODE_INFO.get(code)
    if info is None:
        info = _build_info(code)
        _CODE_INFO[code] = info
    return info


def subsystem_of(rel: Optional[str]) -> Optional[str]:
    """Map a repro-relative path to its subsystem, or ``None``."""
    if rel is None:
        return None
    for prefix, subsystem in _FILE_SUBSYSTEM:
        if rel.startswith(prefix):
            return subsystem
    return "other"


def classify_frame(frame: Optional[FrameType]) -> str:
    """Attribute a busy stack: innermost repro frame's subsystem wins."""
    while frame is not None:
        sub = subsystem_of(code_info(frame.f_code)[1])
        if sub is not None:
            return sub
        frame = frame.f_back
    return "other"


def stack_frames(frame: Optional[FrameType]) -> Tuple[str, ...]:
    """Root-first frame labels for collapsed-stack export."""
    labels = []
    while frame is not None and len(labels) < MAX_DEPTH:
        labels.append(code_info(frame.f_code)[0])
        frame = frame.f_back
    labels.reverse()
    return tuple(labels)
