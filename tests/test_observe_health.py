"""Tests for the health rules and their deterministic replay."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dist.train import MLPParams, distributed_mlp_train
from repro.errors import ConfigurationError
from repro.observe.health import (
    HEALTH_KINDS,
    HealthConfig,
    HealthEvent,
    HealthMonitor,
    HealthReport,
    evaluate_health,
    virtual_order,
)
from repro.simmpi.engine import SimEngine
from repro.simmpi.tracing import TraceEvent
from repro.telemetry.metrics import MetricsRegistry


def hb(rank, step, t, loss=None, phase="train"):
    """A synthetic heartbeat event, tagged exactly like the emitter's."""
    attrs = {"step": step, "phase": phase}
    if loss is not None:
        attrs["loss"] = loss
    return TraceEvent(
        rank=rank, op="hb", peer=-1, nbytes=0, t_start=t, t_end=t,
        tag=tuple(sorted(attrs.items())),
    )


def feed(events, config=None):
    monitor = HealthMonitor(config)
    for ev in events:
        monitor.observe_event(ev)
    return monitor.finish()


class TestConfig:
    def test_defaults_validate(self):
        HealthConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stall_steps": 0},
            {"straggler_factor": 1.0},
            {"divergence_factor": 0.5},
            {"comm_wait_max": 0.0},
            {"comm_wait_max": 1.5},
            {"warmup_steps": -1},
        ],
    )
    def test_bad_thresholds_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            HealthConfig(**kwargs).validate()


class TestStall:
    def test_lagging_rank_flagged(self):
        events = [hb(0, s, 1e-6 * (s + 1)) for s in range(4)]
        events.append(hb(1, 0, 1e-6))  # rank 1 never gets past step 0
        report = feed(events)
        kinds = {(e.kind, e.rank) for e in report.events}
        assert ("stall", 1) in kinds
        assert all(e.severity == "crit" for e in report.events
                   if e.kind == "stall")

    def test_in_step_lag_below_threshold_is_healthy(self):
        events = []
        for s in range(4):
            events.append(hb(0, s, 1e-6 * (s + 1)))
            events.append(hb(1, s, 1e-6 * (s + 1)))
        assert feed(events).events == ()

    def test_finish_sweeps_quiet_ranks(self):
        # Rank 1 reports only step 0 and rank 0 races ahead — even if no
        # later heartbeat triggers the in-stream check, finish() must.
        events = [hb(1, 0, 1e-6), hb(0, 0, 1e-6), hb(0, 5, 2e-6)]
        report = feed(events)
        assert report.counts.get("stall") == 1


class TestStraggler:
    def test_slow_rank_flagged_per_step_duration(self):
        events = []
        for s in range(4):
            base = 1e-5 * s
            for r in range(4):
                dur = 3e-5 if r == 2 else 1e-5  # rank 2 is 3x slower
                events.append(hb(r, s, base + dur * (s + 1)))
        report = feed(events)
        stragglers = [e for e in report.events if e.kind == "straggler"]
        assert stragglers and all(e.rank == 2 for e in stragglers)
        assert all(e.severity == "warn" for e in stragglers)

    def test_warmup_steps_exempt(self):
        events = []
        for s in range(2):  # only warmup steps happen
            for r in range(3):
                dur = 9e-5 if r == 0 else 1e-5
                events.append(hb(r, s, 1e-4 * s + dur))
        assert feed(events).counts.get("straggler") is None

    def test_first_heartbeat_of_step_wins(self):
        # A compute-phase heartbeat then an end-of-step one: the judged
        # duration must be the compute phase's, not the remainder's.
        events = []
        for r in range(3):
            events.append(hb(r, 0, 1e-5, phase="compute"))
        for s in (1, 2, 3):
            t0 = 1e-4 * s
            for r in range(3):
                compute = 5e-5 if r == 1 else 1e-5
                events.append(hb(r, s, t0 + compute, phase="compute"))
                # end-of-step: everyone syncs to the same instant
                events.append(hb(r, s, t0 + 9e-5))
        report = feed(events)
        stragglers = [e for e in report.events if e.kind == "straggler"]
        assert stragglers and all(e.rank == 1 for e in stragglers)


class TestLossRules:
    def test_nan_loss_is_critical(self):
        events = [hb(0, 0, 1e-6, loss=1.0), hb(0, 1, 2e-6, loss=float("nan"))]
        report = feed(events)
        assert report.counts.get("loss_nan") == 1
        assert report.worst == "crit"

    def test_divergence_after_warmup(self):
        losses = [2.0, 1.5, 1.0, 0.9, 5.0]  # 5.0 > 2x best (0.9)
        events = [hb(0, s, 1e-6 * (s + 1), loss=v)
                  for s, v in enumerate(losses)]
        report = feed(events)
        div = [e for e in report.events if e.kind == "loss_divergence"]
        assert len(div) == 1 and div[0].step == 4

    def test_noisy_warmup_tolerated(self):
        losses = [9.0, 0.5, 0.6, 0.55]  # big warmup loss never judged
        events = [hb(0, s, 1e-6 * (s + 1), loss=v)
                  for s, v in enumerate(losses)]
        assert feed(events).events == ()


class TestCommWait:
    def _recv(self, rank, t0, t1):
        return TraceEvent(rank=rank, op="recv", peer=0, nbytes=8,
                          t_start=t0, t_end=t1)

    def test_recv_dominated_step_flagged(self):
        events = [hb(0, 2, 1e-5), self._recv(0, 1.02e-5, 1.98e-5),
                  hb(0, 3, 2e-5)]
        report = feed(events)
        assert report.counts.get("comm_wait_spike") == 1

    def test_modest_wait_is_healthy(self):
        events = [hb(0, 2, 1e-5), self._recv(0, 1.2e-5, 1.5e-5),
                  hb(0, 3, 2e-5)]
        assert feed(events).events == ()


class TestCkptAndEpochs:
    def _mark(self, op, rank=0, t=1e-6):
        return TraceEvent(rank=rank, op=op, peer=-1, nbytes=0,
                          t_start=t, t_end=t)

    def test_degraded_restore_is_critical(self):
        report = feed([self._mark("ckpt.degraded")])
        assert report.counts == {"ckpt_degraded": 1}
        assert report.worst == "crit"

    def test_crash_resets_progress_epoch(self):
        # Pre-crash rank 1 lags badly; the crash renumbers the world, so
        # no stall may be raised from stale pre-crash identities.
        events = [hb(0, 0, 1e-6), hb(1, 0, 1e-6), hb(0, 4, 2e-6),
                  self._mark("fault.crash", rank=1, t=3e-6)]
        events += [hb(r, 5, 4e-6) for r in range(2)]
        report = feed(events)
        assert report.counts.get("stall") == 1  # pre-crash stall only
        # Same kind can fire again in the new epoch (dedupe is per epoch).
        events += [hb(0, 9, 5e-6)]
        report2 = feed(events)
        assert report2.counts.get("stall") == 2

    def test_dedupe_within_epoch(self):
        events = [hb(0, 0, 1e-6), hb(1, 0, 1e-6)]
        events += [hb(0, s, 1e-6 * (s + 2)) for s in range(1, 6)]
        report = feed(events)
        assert report.counts.get("stall") == 1


class TestEventAndReport:
    def test_event_round_trip(self):
        ev = HealthEvent("stall", 3, 1.5e-6, "crit", "lagging", step=2)
        assert HealthEvent.from_dict(ev.to_dict()) == ev

    def test_step_omitted_when_none(self):
        ev = HealthEvent("ckpt_degraded", 0, 1e-6, "crit", "d")
        assert "step" not in ev.to_dict()

    def test_report_round_trip_and_worst(self):
        events = (
            HealthEvent("straggler", 1, 1e-6, "warn", "slow", step=3),
            HealthEvent("loss_nan", 0, 2e-6, "crit", "nan", step=4),
        )
        report = HealthReport(events)
        again = HealthReport.from_dict(report.to_dict())
        assert again.events == events
        assert report.worst == "crit"
        assert report.counts == {"straggler": 1, "loss_nan": 1}

    def test_kinds_have_severities(self):
        assert set(HEALTH_KINDS.values()) <= {"warn", "crit"}

    def test_to_table_has_all_rows(self):
        report = HealthReport(
            (HealthEvent("stall", 0, 1e-6, "crit", "x", step=1),)
        )
        assert len(report.to_table()) == 1


class TestDeterministicReplay:
    def test_virtual_order_is_scheduling_independent(self):
        events = [hb(r, s, 1e-6 * (s + 1) + 1e-9 * r)
                  for s in range(3) for r in range(4)]
        rng = np.random.default_rng(7)
        for _ in range(5):
            shuffled = list(events)
            rng.shuffle(shuffled)
            assert virtual_order(shuffled) == virtual_order(events)

    def test_evaluate_health_stable_under_shuffle(self):
        events = [hb(0, s, 1e-6 * (s + 1)) for s in range(5)]
        events.append(hb(1, 0, 1e-6))
        base = evaluate_health(events).to_dict()
        rng = np.random.default_rng(3)
        shuffled = list(events)
        rng.shuffle(shuffled)
        assert evaluate_health(shuffled).to_dict() == base


class TestBitIdentity:
    """The headline invariant: observation never changes the run."""

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        steps=st.integers(min_value=1, max_value=3),
    )
    @example(seed=0, steps=3)
    def test_sink_on_equals_sink_off(self, seed, steps):
        # A metrics sink sees every event as it is recorded, yet the
        # run it watches is bit-identical to a bare one: same weights,
        # losses and virtual makespan (an overhead of exactly 1.0).
        dims = (8, 6, 4)
        batch = 4
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((dims[0], 2 * batch))
        y = rng.integers(0, dims[-1], 2 * batch)
        params0 = MLPParams.init(dims, seed=seed)

        def one(metrics):
            engine = SimEngine(4, None, trace=True, metrics=metrics)
            weights, losses, sim = distributed_mlp_train(
                params0, x, y, pr=2, pc=2, batch=batch, steps=steps,
                engine=engine,
            )
            return weights, losses, sim.time, engine.tracer.events

        bare_w, bare_l, bare_t, _ = one(None)
        registry = MetricsRegistry()
        sink_w, sink_l, sink_t, trace = one(registry)
        assert sink_t == bare_t
        assert sink_l == bare_l
        assert all(
            a.tobytes() == b.tobytes() for a, b in zip(sink_w, bare_w)
        )
        # One end-of-step heartbeat per rank per step: Pr * Pc * steps.
        assert sum(e.op == "hb" for e in trace) == 4 * steps
        assert registry.counter("hb.count").total() == 4 * steps

    def test_monitored_trace_replays_identically(self):
        dims = (8, 6, 4)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((dims[0], 8))
        y = rng.integers(0, dims[-1], 8)
        params0 = MLPParams.init(dims, seed=0)
        engine = SimEngine(4, None, trace=True)
        distributed_mlp_train(
            params0, x, y, pr=2, pc=2, batch=4, steps=2, engine=engine
        )
        # The scheduler-order replay (what ``repro watch`` streams) and
        # the virtual-order one (the verdict) raise the same kinds.
        streamed = feed(engine.tracer.events)
        replay = evaluate_health(engine.tracer.canonical())
        assert {e.kind for e in replay.events} == {
            e.kind for e in streamed.events
        }

    def test_heartbeats_are_zero_duration(self):
        dims = (8, 6, 4)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((dims[0], 8))
        y = rng.integers(0, dims[-1], 8)
        params0 = MLPParams.init(dims, seed=0)
        engine = SimEngine(4, None, trace=True)
        distributed_mlp_train(
            params0, x, y, pr=2, pc=2, batch=4, steps=2, engine=engine
        )
        hbs = [e for e in engine.tracer.canonical() if e.op == "hb"]
        assert hbs
        assert all(e.t_start == e.t_end and e.nbytes == 0 for e in hbs)
        fields = dict(hbs[0].tag)
        assert fields["phase"] == "train"
        assert math.isfinite(fields["loss"])
