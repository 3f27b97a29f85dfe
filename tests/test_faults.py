"""Tests for the fault-injection subsystem: plans, injector, comm faults,
supervised crashes, ULFM-style shrink, and replay determinism."""

import numpy as np
import pytest

from repro.errors import (
    CommunicatorError,
    ConfigurationError,
    DeadlockError,
    PeerFailedError,
    RankFailedError,
    SimulatedCrashError,
    TransientCommError,
)
from repro.machine.params import MachineParams, cori_knl
from repro.simmpi import SimEngine
from repro.simmpi.faults import (
    Cascade,
    Crash,
    FaultInjector,
    FaultPlan,
    LinkFault,
    MessageDrop,
    SendOutcome,
    Straggler,
    TransientFault,
)


def random_plan(seed: int, size: int, *, steps: int = 8) -> FaultPlan:
    """A small arbitrary-but-seeded plan over ``size`` ranks.

    Any plan this returns must end in success, a raised simulator error,
    or a completed recovery -- never a hang.
    """
    rng = np.random.default_rng(seed)
    # At most size-1 crashes so at least one rank can survive.
    crashes = [
        Crash(int(rank), at_step=int(rng.integers(0, steps)))
        for rank in rng.permutation(size)[: int(rng.integers(0, size))]
    ]
    transients, drops, links, stragglers = [], [], [], []
    if rng.random() < 0.5:
        transients.append(
            TransientFault(
                rank=int(rng.integers(0, size)),
                send_index=int(rng.integers(0, 20)),
                attempts=int(rng.integers(1, 6)),
            )
        )
    if rng.random() < 0.3:
        drops.append(
            MessageDrop(rank=int(rng.integers(0, size)), send_index=int(rng.integers(0, 20)))
        )
    if rng.random() < 0.5:
        src, dst = rng.integers(0, size, 2)
        if src != dst:
            links.append(
                LinkFault(
                    int(src),
                    int(dst),
                    latency_factor=float(1 + rng.random() * 9),
                    bandwidth_factor=float(rng.random() * 0.9 + 0.1),
                )
            )
    if rng.random() < 0.5:
        stragglers.append(
            Straggler(
                rank=int(rng.integers(0, size)),
                factor=float(1 + rng.random() * 2),
                jitter=float(rng.random()),
            )
        )
    return FaultPlan(
        seed=seed,
        crashes=tuple(crashes),
        transients=tuple(transients),
        drops=tuple(drops),
        links=tuple(links),
        stragglers=tuple(stragglers),
    )


class TestFaultPlan:
    def test_empty_plan(self):
        knobs = {"seed", "max_retries", "backoff_base"}
        assert set(FaultPlan().to_dict()) == knobs
        assert set(FaultPlan(crashes=(Crash(0, at_step=1),)).to_dict()) == knobs | {"crashes"}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Crash(0)  # needs at_step or at_time
        with pytest.raises(ConfigurationError):
            TransientFault(0)  # needs send_index or probability
        with pytest.raises(ConfigurationError):
            LinkFault(0, 1, t_start=2.0, t_end=1.0)
        with pytest.raises(ConfigurationError):
            Straggler(0, factor=0.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(max_retries=-1)

    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=42,
            crashes=(Crash(1, at_step=3), Crash(2, at_time=1e-3)),
            cascades=(Cascade(3, at_recovery=2),),
            transients=(TransientFault(0, dest=1, send_index=5, attempts=2),),
            drops=(MessageDrop(3, send_index=7),),
            links=(LinkFault(0, 1, latency_factor=2.0, t_start=0.0, t_end=1.0),),
            stragglers=(Straggler(2, factor=1.5, jitter=0.1),),
            max_retries=5,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_json_round_trip_with_infinite_window(self):
        plan = FaultPlan(links=(LinkFault(0, 1, latency_factor=3.0),))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_random_plans_seeded(self):
        a = random_plan(7, 4)
        assert a == random_plan(7, 4)
        # At least one rank must be able to survive any random plan.
        for seed in range(20):
            plan = random_plan(seed, 4)
            assert len({c.rank for c in plan.crashes}) < 4


class TestFaultInjector:
    def test_crash_fires_once_per_spec(self):
        inj = FaultInjector(FaultPlan(crashes=(Crash(0, at_step=2),)))
        assert inj.crash_due(0, step=1) is None
        assert inj.crash_due(0, step=2) is not None
        assert inj.crash_due(0, step=2) is None  # already fired
        with pytest.raises(SimulatedCrashError):
            FaultInjector(FaultPlan(crashes=(Crash(1, at_time=0.5),))).check_crash(
                1, time=0.6
            )

    def test_reset_replays_identically(self):
        plan = FaultPlan(
            seed=5, transients=(TransientFault(0, probability=0.5, attempts=1),)
        )
        inj = FaultInjector(plan)
        first = [inj.send_outcome(0, 1).transient_attempts for _ in range(32)]
        inj.reset()
        second = [inj.send_outcome(0, 1).transient_attempts for _ in range(32)]
        assert first == second
        assert any(first) and not all(first)

    def test_send_outcome_indexing(self):
        inj = FaultInjector(
            FaultPlan(
                transients=(TransientFault(0, send_index=1, attempts=2),),
                drops=(MessageDrop(0, send_index=3),),
            )
        )
        outcomes = [inj.send_outcome(0, 1) for _ in range(5)]
        assert outcomes[0] is SendOutcome.OK
        assert outcomes[1].transient_attempts == 2
        assert outcomes[3].drop
        assert outcomes[4] is SendOutcome.OK
        # Other ranks keep independent counters.
        assert inj.send_outcome(1, 0) is SendOutcome.OK

    def test_link_machine_windows_and_memoisation(self):
        base = cori_knl()
        inj = FaultInjector(
            FaultPlan(
                links=(
                    LinkFault(0, 1, latency_factor=4.0, t_start=1.0, t_end=2.0),
                )
            )
        )
        assert inj.link_machine(0, 1, 0.5, base) is None  # before the window
        assert inj.link_machine(1, 0, 1.5, base) is None  # other direction
        degraded = inj.link_machine(0, 1, 1.5, base)
        assert degraded is not None
        assert degraded.alpha == pytest.approx(4 * base.alpha)
        # Memoised: same object for the same factors.
        assert inj.link_machine(0, 1, 1.7, base) is degraded

    def test_cascade_fires_once_at_counted_recovery(self):
        inj = FaultInjector(FaultPlan(cascades=(Cascade(2, at_recovery=2),)))
        inj.check_cascade(2)  # first shrink: survives
        inj.check_cascade(0)  # other ranks never fire
        with pytest.raises(SimulatedCrashError):
            inj.check_cascade(2)  # second shrink: dies
        inj.check_cascade(2)  # already fired: no re-raise on replayed shrinks

    def test_cascade_validation(self):
        with pytest.raises(ConfigurationError):
            Cascade(-1)
        with pytest.raises(ConfigurationError):
            Cascade(0, at_recovery=0)

    def test_straggler_slack_accumulates_and_resets(self):
        inj = FaultInjector(FaultPlan(stragglers=(Straggler(1, factor=2.0),)))
        assert inj.straggler_slack() == {}
        inj.note_straggler_slack(1, 0.25)
        inj.note_straggler_slack(1, 0.5)
        assert inj.straggler_slack() == {1: 0.75}
        inj.reset()
        assert inj.straggler_slack() == {}

    def test_straggler_factor(self):
        inj = FaultInjector(FaultPlan(stragglers=(Straggler(2, factor=1.5),)))
        assert inj.has_straggler(2) and not inj.has_straggler(0)
        assert inj.compute_factor(2) == 1.5
        jitter = FaultInjector(
            FaultPlan(seed=9, stragglers=(Straggler(0, factor=2.0, jitter=0.5),))
        )
        draws = [jitter.compute_factor(0) for _ in range(8)]
        assert all(2.0 <= f < 2.5 for f in draws)
        jitter.reset()
        assert [jitter.compute_factor(0) for _ in range(8)] == draws


def _pingpong(comm):
    other = 1 - comm.rank
    if comm.rank == 0:
        comm.send(np.ones(8), other)
        return comm.recv(other)
    payload = comm.recv(other)
    comm.send(payload, other)
    return comm.clock


class TestInjectedCommFaults:
    def test_transient_retries_then_succeeds(self):
        plan = FaultPlan(transients=(TransientFault(0, send_index=0, attempts=2),))
        eng = SimEngine(2, faults=plan, trace=True)
        res = eng.run(_pingpong)
        assert isinstance(res[0], np.ndarray)
        assert len(eng.tracer.faults("transient")) == 2
        assert len(eng.tracer.faults("backoff")) == 2
        assert len(eng.tracer.faults("retry")) == 1
        # The backoff cost lands in virtual time.
        clean = SimEngine(2).run(_pingpong)
        expected_backoff = plan.backoff_base * (1 + 2)
        assert res.clocks[0] == pytest.approx(clean.clocks[0] + expected_backoff)

    def test_transient_budget_exhausted(self):
        plan = FaultPlan(
            transients=(TransientFault(0, send_index=0, attempts=9),), max_retries=3
        )
        with pytest.raises(RankFailedError) as err:
            SimEngine(2, faults=plan).run(_pingpong)
        exc = err.value.failures[0]
        assert isinstance(exc, TransientCommError)
        assert exc.attempts == 4

    def test_message_drop_trips_watchdog(self):
        """An unsupervised drop starves its receiver: a diagnosed deadlock."""
        plan = FaultPlan(drops=(MessageDrop(0, send_index=0),))
        eng = SimEngine(2, faults=plan, trace=True)
        with pytest.raises(RankFailedError) as err:
            eng.run(_pingpong)
        starved, waiting = err.value.failures[1], err.value.failures[0]
        assert isinstance(starved, DeadlockError) and "no rank can run" in str(starved)
        assert isinstance(waiting, DeadlockError) and "interrupted" in str(waiting)
        assert len(eng.tracer.faults("drop")) == 1

    def test_link_fault_slows_messages(self):
        plan = FaultPlan(links=(LinkFault(0, 1, latency_factor=10.0),))
        eng = SimEngine(2, faults=plan, trace=True)
        res = eng.run(_pingpong)
        clean = SimEngine(2).run(_pingpong)
        assert res.clocks[1] > clean.clocks[1]
        assert len(eng.tracer.faults("link")) == 1  # only the 0 -> 1 leg

    def test_straggler_dilates_compute(self):
        def prog(comm):
            comm.advance(1.0)
            return comm.clock

        plan = FaultPlan(stragglers=(Straggler(1, factor=2.5),))
        res = SimEngine(2, faults=plan).run(prog)
        assert res[0] == pytest.approx(1.0)
        assert res[1] == pytest.approx(2.5)

    def test_empty_plan_bit_identical_to_no_injector(self):
        def prog(comm):
            comm.advance(1e-6)
            x = np.full(3, float(comm.rank))
            total = comm.allreduce(x)
            comm.barrier()
            return float(total.sum()), comm.clock

        plain = SimEngine(4, trace=True)
        res_plain = plain.run(prog)
        injected = SimEngine(4, trace=True, faults=FaultPlan(), supervise=True)
        res_inj = injected.run(prog)
        assert res_plain.values == res_inj.values
        assert res_plain.clocks == res_inj.clocks
        assert plain.tracer.canonical() == injected.tracer.canonical()


def _resilient_allreduce(world, steps=6):
    """A rank program that shrinks and re-agrees on the step after crashes."""
    step = 0
    while step < steps:
        try:
            world.heartbeat(step=step)
            world.allreduce(np.full(4, float(world.rank)))
            world.advance(1e-6)
            step += 1
        except PeerFailedError:
            world = world.shrink()
            step = min(world.allgather_object(step))
    return world.size, step


class TestSupervisedCrashes:
    def test_unsupervised_crash_aborts_run(self):
        plan = FaultPlan(crashes=(Crash(1, at_step=1),))
        for size in (2, 4):
            with pytest.raises(RankFailedError) as err:
                SimEngine(size, faults=plan).run(_resilient_allreduce)
            failures = err.value.failures
            assert isinstance(failures.pop(1), SimulatedCrashError)
            # Everyone the abort interrupted says so, never silently.
            assert all(isinstance(exc, DeadlockError) for exc in failures.values())

    def test_supervised_crash_survivors_shrink_and_finish(self):
        plan = FaultPlan(crashes=(Crash(1, at_step=2),))
        eng = SimEngine(4, faults=plan, supervise=True, trace=True)
        res = eng.run(_resilient_allreduce)
        assert res.failed == (1,)
        assert res.survivors == (0, 2, 3)
        assert res.values[1] is None
        assert all(res.values[r] == (3, 6) for r in res.survivors)
        assert len(eng.tracer.faults("crash")) == 1
        assert len(eng.tracer.faults("recovery")) == 3
        assert res.time > 0

    def test_two_crashes_sequential_recoveries(self):
        plan = FaultPlan(crashes=(Crash(1, at_step=2), Crash(2, at_step=4)))
        eng = SimEngine(4, faults=plan, supervise=True)
        res = eng.run(_resilient_allreduce)
        assert res.failed == (1, 2)
        assert all(res.values[r] == (2, 6) for r in (0, 3))

    def test_all_ranks_dead_raises(self):
        plan = FaultPlan(crashes=(Crash(0, at_step=0), Crash(1, at_step=0)))
        with pytest.raises(RankFailedError):
            SimEngine(2, faults=plan, supervise=True).run(_resilient_allreduce)

    def test_shrink_requires_supervision(self):
        def prog(comm):
            comm.shrink()

        with pytest.raises(RankFailedError) as err:
            SimEngine(2).run(prog)
        assert isinstance(err.value.failures[0], CommunicatorError)

    def test_replay_is_deterministic(self):
        plan = FaultPlan(seed=3, crashes=(Crash(1, at_step=2), Crash(2, at_step=4)))
        eng = SimEngine(4, faults=plan, supervise=True, trace=True)
        first = eng.run(_resilient_allreduce)
        trace1 = eng.tracer.canonical()
        eng.tracer.clear()
        second = eng.run(_resilient_allreduce)
        assert second.failed == first.failed
        assert second.values == first.values
        assert second.clocks == first.clocks
        assert eng.tracer.canonical() == trace1


class TestRandomizedPlansNeverHang:
    """Any seeded random plan must end, one way or another — success,
    RankFailedError, DeadlockError, or a completed recovery, but never a
    hang."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_plan_terminates(self, seed):
        plan = random_plan(seed, 4)
        eng = SimEngine(4, faults=plan, supervise=True)
        try:
            res = eng.run(_resilient_allreduce)
            assert all(res.values[r] is not None for r in res.survivors)
        except RankFailedError as err:
            assert err.failures  # aggregated, typed failures
        except DeadlockError:
            pass  # a dropped message starved a receive: a diagnosed deadlock


class TestMachineDerating:
    def test_derated_composes_with_link_faults(self):
        base = MachineParams(alpha=1e-6, beta_per_byte=1e-9)
        inj = FaultInjector(
            FaultPlan(
                links=(
                    LinkFault(0, 1, latency_factor=2.0),
                    LinkFault(0, 1, bandwidth_factor=0.5),
                )
            )
        )
        machine = inj.link_machine(0, 1, 0.0, base)
        assert machine.alpha == pytest.approx(2e-6)
        assert machine.beta_per_byte == pytest.approx(2e-9)
