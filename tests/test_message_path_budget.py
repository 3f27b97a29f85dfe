"""A call budget for the message path: counted, so it cannot flake.

Host time at P = 512 is messages, and what a message costs is mostly how
many Python frames it enters.  This gate counts ``call`` profile events
(Python functions entered; C functions do not raise one) on every rank
thread of a P = 16 run, tracing off, and divides by the
hook counters' exact message count.  The figure is the *marginal* cost:
two runs that differ only in how many collectives they issue, difference
over difference, so thread start-up and the rank program's own frames
cancel and the per-collective overhead (span, marker, concatenate) is
spread over the collective's messages.  Counts repeat exactly from run
to run — no clock is read — so unlike a wall-clock gate this one fails
only when somebody adds a call to the path.

Before the path was flattened the same measure read 23.1 (ring
all-reduce) and 44.6 (Bruck all-gather); the ceilings are what the
flattened path reaches, plus two.
"""

import threading

import numpy as np
import pytest

from repro.profile import hooks as profile_hooks
from repro.simmpi.engine import SimEngine

P = 16


def _ring_allreduce(comm, reps):
    x = np.arange(64, dtype=np.float64)
    for _ in range(reps):
        comm.allreduce(x, algorithm="ring")


def _bruck_allgather(comm, reps):
    x = np.arange(8, dtype=np.float64)
    for _ in range(reps):
        comm.allgather(x, algorithm="bruck")


def _calls_and_messages(program, reps):
    calls = [0]

    def on_event(frame, event, arg):
        if event == "call":
            calls[0] += 1

    engine = SimEngine(P)
    hooks = profile_hooks.activate(None)
    threading.setprofile(on_event)  # inherited by the rank threads run() starts
    try:
        engine.run(program, reps)
    finally:
        threading.setprofile(None)
        profile_hooks.deactivate()
    assert hooks.msgs_sent == hooks.msgs_delivered
    return calls[0], hooks.msgs_sent


def _calls_per_message(program):
    few_calls, few_msgs = _calls_and_messages(program, 2)
    many_calls, many_msgs = _calls_and_messages(program, 10)
    assert _calls_and_messages(program, 10) == (many_calls, many_msgs)  # exact
    return (many_calls - few_calls) / (many_msgs - few_msgs)


@pytest.mark.parametrize(
    "program,messages_per_rep,ceiling",
    [
        (_ring_allreduce, P * 2 * (P - 1), 9.9),  # reaches 7.9
        (_bruck_allgather, P * 4, 23.4),  # reaches 21.3; four rounds carry one collective
    ],
    ids=["ring-allreduce", "bruck-allgather"],
)
def test_python_calls_per_message_stay_in_budget(program, messages_per_rep, ceiling):
    assert _calls_and_messages(program, 1)[1] == messages_per_rep
    per_message = _calls_per_message(program)
    assert per_message <= ceiling, (
        f"{per_message:.2f} Python calls per message, budget {ceiling}: "
        "something added a frame to send/recv or the collective loop"
    )
