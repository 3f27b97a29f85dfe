"""Edge-case coverage for heartbeats and the rules that consume them.

Three awkward regimes the happy-path suite (``test_observe_health.py``)
never enters:

* **zero-duration epochs** — every heartbeat of a step lands at the
  same virtual instant (tiny problems where compute costs round to
  nothing), so per-step durations are 0 and both the straggler median
  and the comm-wait fraction would divide by zero without their guards;
* **a monitor attached mid-run** — the rules start consuming a
  heartbeat stream partway through (a trace cut to its later steps):
  the first heartbeat seen per rank must establish state without
  fabricating a duration or a spurious alert;
* **dedupe across an elastic shrink** — a ``fault.crash`` renumbers the
  world, so the one-event-per-``(kind, rank)`` dedupe must reset with
  the epoch while still suppressing repeats within one.

Plus the :mod:`repro.telemetry.heartbeat` emitter edges: no-op when
tracing is disabled, NaN losses surviving the tag round trip.
"""

import math

from repro.observe.health import HealthConfig, HealthMonitor, evaluate_health
from repro.simmpi.engine import SimEngine
from repro.simmpi.tracing import TraceEvent
from repro.telemetry.heartbeat import HB_OP, emit_heartbeat
from repro.telemetry.metrics import MetricsRegistry


def hb(rank, step, t, loss=None, phase="train"):
    attrs = {"step": step, "phase": phase}
    if loss is not None:
        attrs["loss"] = loss
    return TraceEvent(
        rank=rank, op=HB_OP, peer=-1, nbytes=0, t_start=t, t_end=t,
        tag=tuple(sorted(attrs.items())),
    )


def feed(events, config=None):
    monitor = HealthMonitor(config)
    for ev in events:
        monitor.observe_event(ev)
    return monitor.finish()


class TestZeroDurationEpochs:
    def test_all_zero_durations_raise_nothing(self):
        # Every rank reports every step at the same instant: all
        # per-step durations are exactly 0.  The straggler judge must
        # hit its zero-median guard, not divide by zero or flag anyone.
        events = [hb(r, s, 1e-6) for s in range(5) for r in range(3)]
        assert feed(events).events == ()

    def test_zero_duration_step_skips_comm_wait(self):
        # recv time recorded against a zero-duration step: the
        # ``duration > 0`` guard must skip the fraction, not ZeroDivide.
        events = [
            hb(0, 2, 1e-5),
            TraceEvent(rank=0, op="recv", peer=1, nbytes=8,
                       t_start=1e-5, t_end=2e-5),
            hb(0, 3, 1e-5),  # same virtual instant as step 2's beat
        ]
        assert feed(events).counts.get("comm_wait_spike") is None

    def test_one_zero_rank_does_not_mask_real_straggler(self):
        # Median over {0, 1e-5, 3e-5} is positive, so the judge still
        # runs and flags the 3x rank even with a zero-duration rank.
        durs = {0: 0.0, 1: 1e-5, 2: 3e-5}
        events = [hb(r, s, durs[r] * (s + 1))
                  for s in range(4) for r in range(3)]
        report = feed(events)
        stragglers = [e for e in report.events if e.kind == "straggler"]
        assert stragglers and all(e.rank == 2 for e in stragglers)

    def test_deterministic_replay_agrees(self):
        events = [hb(r, s, 1e-6) for s in range(5) for r in range(3)]
        assert evaluate_health(events).to_dict() == feed(events).to_dict()


class TestMonitorAttachedMidRun:
    def _full_stream(self):
        # Rank 1 is a genuine straggler in the early steps only; times
        # are cumulative per rank so consecutive-beat deltas (what the
        # monitor measures) equal the intended step durations.
        events = []
        t = {r: 0.0 for r in range(3)}
        for s in range(6):
            for r in range(3):
                t[r] += 5e-5 if (r == 1 and s < 3) else 1e-5
                events.append(hb(r, s, t[r]))
        return events

    def test_late_attach_sees_no_stale_alerts(self):
        # Attach after the straggler phase ended: the monitor never saw
        # the slow steps, so it must stay quiet — the first heartbeat
        # per rank establishes state without inventing a duration from
        # the pre-attach gap.
        events = self._full_stream()
        late = [e for e in events if dict(e.tag)["step"] >= 4]
        assert feed(late).events == ()

    def test_full_stream_does_flag(self):
        # Control: the same stream seen from the start raises it.
        report = feed(self._full_stream())
        assert report.counts.get("straggler") == 1

    def test_attach_mid_step_skew_below_threshold(self):
        # At attach time ranks are one step apart (a normal pipeline
        # skew): below stall_steps, so no stall may be raised.
        events = [hb(0, 5, 1e-4), hb(1, 4, 1e-4), hb(2, 5, 1.1e-4)]
        assert feed(events).counts.get("stall") is None

    def test_attach_still_catches_future_stall(self):
        # A rank that keeps lagging *after* attach is still caught.
        events = [hb(0, 4, 1e-4), hb(1, 4, 1e-4)]
        events += [hb(0, s, 1e-4 + 1e-5 * s) for s in range(5, 9)]
        report = feed(events)
        assert report.counts.get("stall") == 1
        assert report.events[0].rank == 1


class TestDedupeAcrossShrink:
    def _mark(self, op, rank=0, t=1e-6):
        return TraceEvent(rank=rank, op=op, peer=-1, nbytes=0,
                          t_start=t, t_end=t)

    def test_repeat_straggler_collapses_within_epoch(self):
        # Rank 2 is slow on every step: the rule trips repeatedly but
        # the (kind, rank, epoch) dedupe emits exactly one event.
        events = []
        t = {r: 0.0 for r in range(3)}
        for s in range(6):
            for r in range(3):
                t[r] += 5e-5 if r == 2 else 1e-5
                events.append(hb(r, s, t[r]))
        report = feed(events)
        assert report.counts.get("straggler") == 1

    def test_shrink_opens_a_fresh_epoch(self):
        # Same persistent straggler, interrupted by a crash (the
        # elastic trainer's shrink): one event per epoch, two total.
        events = []
        t = {r: 0.0 for r in range(3)}
        for s in range(4):
            for r in range(3):
                t[r] += 5e-5 if r == 2 else 1e-5
                events.append(hb(r, s, t[r]))
        events.append(self._mark("fault.crash", rank=0, t=5e-4))
        t = {r: 1e-3 for r in range(3)}
        for s in range(4):
            for r in range(3):
                t[r] += 5e-5 if r == 2 else 1e-5
                events.append(hb(r, s, t[r]))
        report = feed(events)
        stragglers = [e for e in report.events if e.kind == "straggler"]
        assert len(stragglers) == 2
        assert all(e.rank == 2 for e in stragglers)

    def test_ckpt_degraded_dedupes_per_epoch_too(self):
        events = [self._mark("ckpt.degraded"), self._mark("ckpt.degraded")]
        assert feed(events).counts == {"ckpt_degraded": 1}
        events.insert(1, self._mark("fault.crash"))
        assert feed(events).counts == {"ckpt_degraded": 2}

    def test_shrink_discards_unjudged_durations(self):
        # Durations accumulated before the crash but never judged (the
        # crash lands before any later step reports) must not leak into
        # the post-shrink world where rank numbering changed: the world
        # is uniform afterwards, so nothing may be raised.
        events = []
        t = {r: 0.0 for r in range(3)}
        for s in range(3):  # step 2 is slow on rank 1, never judged
            for r in range(3):
                t[r] += 5e-5 if (r == 1 and s == 2) else 1e-5
                events.append(hb(r, s, t[r]))
        events.append(self._mark("fault.crash", rank=1, t=5e-4))
        t = {r: 1e-3 for r in range(2)}
        for s in range(3, 6):
            for r in range(2):  # shrunk world, uniform speed
                t[r] += 1e-5
                events.append(hb(r, s, t[r]))
        assert feed(events).counts.get("straggler") is None


class TestEmitterEdges:
    def _run(self, program, *, trace):
        engine = SimEngine(2, None, trace=trace)
        return engine, engine.run(program)

    def test_noop_when_tracing_disabled(self):
        def program(comm):
            before = comm.clock
            emit_heartbeat(comm, step=0, loss=1.0, phase="train")
            return comm.clock - before

        engine, result = self._run(program, trace=False)
        assert result.values == (0.0, 0.0)  # clock untouched
        assert not engine.tracer.enabled

    def test_zero_duration_and_sorted_tags_when_enabled(self):
        def program(comm):
            emit_heartbeat(comm, step=3, loss=0.25, phase="warm")
            return None

        engine, _ = self._run(program, trace=True)
        beats = [e for e in engine.tracer.canonical() if e.op == HB_OP]
        assert len(beats) == 2
        for ev in beats:
            assert ev.t_start == ev.t_end and ev.nbytes == 0
            assert list(ev.tag) == sorted(ev.tag)
            assert dict(ev.tag) == {
                "loss": 0.25, "phase": "warm", "step": 3,
            }

    def test_nan_loss_survives_round_trip(self):
        def program(comm):
            emit_heartbeat(comm, step=0, loss=float("nan"))
            return None

        engine, _ = self._run(program, trace=True)
        beats = [e for e in engine.tracer.canonical() if e.op == HB_OP]
        losses = [dict(e.tag)["loss"] for e in beats]
        assert all(math.isnan(v) for v in losses)

    def test_metrics_sink_receives_beats_without_trace_storage(self):
        # Attaching a metrics sink enables recording even when no trace
        # is stored: the registry counts every beat at constant memory.
        registry = MetricsRegistry()
        engine = SimEngine(2, None, trace=False, metrics=registry)

        def program(comm):
            emit_heartbeat(comm, step=0)
            return None

        engine.run(program)
        assert engine.tracer.events == ()
        assert registry.counter("hb.count").total() == 2


class TestWarmupBoundary:
    def test_step_equal_warmup_is_judged(self):
        cfg = HealthConfig(warmup_steps=2)
        events = []
        t = {r: 0.0 for r in range(3)}
        for s in range(4):
            for r in range(3):
                t[r] += 5e-5 if r == 0 else 1e-5
                events.append(hb(r, s, t[r]))
        report = feed(events, cfg)
        steps = {e.step for e in report.events if e.kind == "straggler"}
        assert steps and min(steps) >= 2

    def test_zero_warmup_judges_earliest_measurable_step(self):
        # Step 0 has no measurable duration (the first beat per rank
        # only establishes state), so with warmup 0 the first judged
        # step is step 1.
        cfg = HealthConfig(warmup_steps=0)
        events = []
        t = {r: 0.0 for r in range(3)}
        for s in range(2):
            for r in range(3):
                t[r] += 5e-5 if r == 1 else 1e-5
                events.append(hb(r, s, t[r]))
        report = feed(events, cfg)
        assert report.counts.get("straggler") == 1
