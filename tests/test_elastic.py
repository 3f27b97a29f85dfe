"""Integration tests for elastic fault-tolerant 1.5D training.

The headline guarantee: a run that loses ranks mid-training shrinks to
the surviving grid, restores the newest common checkpoint, and finishes
on the *same* synchronous-SGD trajectory — final weights match the
uninterrupted serial reference to reduction-order accuracy, and the
whole scenario replays bit-identically from the fault plan's seed.
"""

import numpy as np
import pytest

from repro.dist.elastic import (
    Checkpoint,
    elastic_mlp_train,
    replan_grid,
)
from repro.dist.erasure import MODE_ERASURE, MODE_REPLICATE
from repro.dist.sgd import SGD
from repro.dist.train import MLPParams, distributed_mlp_train, serial_mlp_train
from repro.errors import ConfigurationError, RankFailedError
from repro.machine.params import cori_knl
from repro.run import RunSpec
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import (
    Cascade,
    Crash,
    FaultPlan,
    LinkFault,
    Straggler,
    TransientFault,
)

DIMS = (6, 8, 5)
BATCH = 8
STEPS = 8
SEED = 0

RNG = np.random.default_rng(SEED)
X = RNG.standard_normal((DIMS[0], 3 * BATCH))
Y = RNG.integers(0, DIMS[-1], 3 * BATCH)
PARAMS0 = MLPParams.init(DIMS, seed=1)


def _serial(momentum=0.0):
    return serial_mlp_train(
        PARAMS0, X, Y, batch=BATCH, steps=STEPS, lr=0.05, momentum=momentum
    )


def _elastic(faults=None, momentum=0.0, trace=False, **kw):
    kw.setdefault("checkpoint_every", 2)
    kw.setdefault("pr", 2)
    kw.setdefault("pc", 2)
    if trace:
        kw["engine"] = SimEngine(
            kw["pr"] * kw["pc"], trace=True, faults=faults, supervise=True
        )
        faults = None
    return elastic_mlp_train(
        PARAMS0,
        X,
        Y,
        batch=BATCH,
        steps=STEPS,
        lr=0.05,
        momentum=momentum,
        faults=faults,
        **kw,
    )


class TestElasticNoFaults:
    def test_matches_serial_reference(self):
        ref_params, ref_losses = _serial()
        res = _elastic()
        assert not res.recovered
        assert res.grids == [(2, 2)]
        np.testing.assert_allclose(res.losses, ref_losses, rtol=1e-10, atol=1e-13)
        for w, r in zip(res.weights, ref_params.weights):
            np.testing.assert_allclose(w, r, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("ckpt_mode", ["erasure", "replicate"])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_equals_plain_trainer_bit_for_bit(self, momentum, ckpt_mode):
        """With no faults the recovery hook only charges compute and
        takes checkpoints: weights and losses equal the plain trainer's."""
        res = _elastic(momentum=momentum, pr=2, pc=4, ckpt_mode=ckpt_mode)
        weights, losses, _ = distributed_mlp_train(
            PARAMS0, X, Y, pr=2, pc=4, batch=BATCH, steps=STEPS, lr=0.05,
            momentum=momentum,
        )
        assert np.asarray(res.losses).tobytes() == np.asarray(losses).tobytes()
        assert [w.tobytes() for w in res.weights] == [w.tobytes() for w in weights]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _elastic(checkpoint_every=0)

    def test_unsupervised_prebuilt_engine_rejected(self):
        # It would abort on the first crash instead of recovering.
        with pytest.raises(ConfigurationError, match="supervise=True"):
            _elastic(engine=SimEngine(4))


class TestElasticRecovery:
    def test_crash_shrinks_restores_and_matches_reference(self):
        plan = FaultPlan(seed=3, crashes=(Crash(rank=1, at_step=5),))
        res = _elastic(faults=plan, trace=True)
        assert res.sim.failed == (1,)
        assert res.recovered
        # Re-planned to the best 3-rank grid chosen by the Eq. 8 cost model.
        assert res.grids[1] == replan_grid(3, DIMS, BATCH, cori_knl())
        # Resumed from a checkpoint boundary at or before the crash step.
        assert res.restore_steps and res.restore_steps[0] <= 5
        assert res.restore_steps[0] % 2 == 0
        # The recovered trajectory matches the uninterrupted reference.
        ref_params, ref_losses = _serial()
        np.testing.assert_allclose(res.losses, ref_losses, rtol=1e-10, atol=1e-13)
        for w, r in zip(res.weights, ref_params.weights):
            np.testing.assert_allclose(w, r, rtol=1e-10, atol=1e-12)

    def test_recovery_matches_reference_restarted_from_checkpoint(self):
        """Explicit acceptance check: continue serially from the very
        checkpoint the recovery restored, and compare final weights."""
        plan = FaultPlan(seed=3, crashes=(Crash(rank=1, at_step=5),))
        res = _elastic(faults=plan)
        s = res.restore_steps[0]
        # Rebuild the step-s state by running serial SGD to step s...
        ref_at_s, _ = serial_mlp_train(
            PARAMS0, X, Y, batch=BATCH, steps=s, lr=0.05
        )
        # ... then continue, uninterrupted, for the remaining steps (the
        # batch schedule is a pure function of the absolute step index).
        params = ref_at_s.copy()
        opt = SGD(lr=0.05)
        from repro.dist.train import _batch_columns, _mlp_forward
        from repro.dist.loss import softmax_cross_entropy
        from repro.dist.layers import relu_grad

        for step in range(s, STEPS):
            cols = _batch_columns(step, BATCH, X.shape[1])
            xb, yb = X[:, cols], Y[cols]
            acts, zs = _mlp_forward(params.weights, xb)
            _, dz = softmax_cross_entropy(zs[-1], yb, global_batch=BATCH)
            grads = [None] * len(params.weights)
            for i in range(len(params.weights) - 1, -1, -1):
                grads[i] = dz @ acts[i].T
                if i > 0:
                    da = params.weights[i].T @ dz
                    dz = relu_grad(zs[i - 1], da)
            opt.step(params.weights, grads)
        for w, r in zip(res.weights, params.weights):
            np.testing.assert_allclose(w, r, rtol=1e-10, atol=1e-10)

    def test_momentum_state_survives_recovery(self):
        plan = FaultPlan(seed=3, crashes=(Crash(rank=2, at_step=5),))
        ref_params, ref_losses = _serial(momentum=0.9)
        res = _elastic(faults=plan, momentum=0.9)
        assert res.recovered
        np.testing.assert_allclose(res.losses, ref_losses, rtol=1e-10, atol=1e-13)
        for w, r in zip(res.weights, ref_params.weights):
            np.testing.assert_allclose(w, r, rtol=1e-10, atol=1e-10)

    def test_double_crash_two_recoveries(self):
        plan = FaultPlan(
            seed=3, crashes=(Crash(rank=1, at_step=3), Crash(rank=2, at_step=6))
        )
        ref_params, _ = _serial()
        res = _elastic(faults=plan)
        assert res.sim.failed == (1, 2)
        assert len(res.grids) == 3 and res.grids[-1] == (1, 2)
        assert len(res.restore_steps) == 2
        for w, r in zip(res.weights, ref_params.weights):
            np.testing.assert_allclose(w, r, rtol=1e-10, atol=1e-12)

    def test_crash_with_ambient_faults(self):
        """Recovery still works with a straggler, a degraded link and a
        transient retry in the mix — and stays numerically exact."""
        plan = FaultPlan(
            seed=11,
            crashes=(Crash(rank=3, at_step=4),),
            transients=(TransientFault(rank=0, send_index=4, attempts=2),),
            links=(LinkFault(src=0, dst=2, latency_factor=3.0, bandwidth_factor=0.5),),
            stragglers=(Straggler(rank=2, factor=1.4),),
        )
        ref_params, _ = _serial()
        res = _elastic(faults=plan, trace=True)
        assert res.sim.failed == (3,)
        for w, r in zip(res.weights, ref_params.weights):
            np.testing.assert_allclose(w, r, rtol=1e-10, atol=1e-12)
        ops = {e.op for e in res.engine.tracer.faults()}
        assert {"fault.crash", "fault.recovery", "fault.transient", "fault.link"} <= ops

    def test_all_ranks_crashing_raises(self):
        plan = FaultPlan(
            crashes=tuple(Crash(rank=r, at_step=2) for r in range(4))
        )
        with pytest.raises(RankFailedError):
            _elastic(faults=plan)


class TestElasticDeterminism:
    def test_identical_traces_and_weights_across_runs(self):
        plan = FaultPlan(seed=5, crashes=(Crash(rank=1, at_step=5),))
        a = _elastic(faults=plan, trace=True)
        b = _elastic(faults=plan, trace=True)
        assert a.sim.failed == b.sim.failed
        assert a.sim.clocks == b.sim.clocks
        assert a.grids == b.grids and a.restore_steps == b.restore_steps
        assert a.engine.tracer.canonical() == b.engine.tracer.canonical()
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert a.losses == b.losses

    def test_fault_events_carry_virtual_times(self):
        plan = FaultPlan(seed=5, crashes=(Crash(rank=1, at_step=5),))
        res = _elastic(faults=plan, trace=True)
        crash = res.engine.tracer.faults("crash")
        recoveries = res.engine.tracer.faults("recovery")
        assert len(crash) == 1 and crash[0].rank == 1
        assert {e.rank for e in recoveries} == {0, 2, 3}
        assert all(e.t_start >= crash[0].t_start for e in recoveries)


class TestCheckpointModes:
    """Erasure-coded sharded checkpoints vs full replication."""

    def test_modes_bit_identical_on_survivable_crash(self):
        # Crash on an odd step (not a take step) so both modes restore
        # the same checkpoint: the runs must then be interchangeable
        # bit for bit.
        plan = FaultPlan(seed=3, crashes=(Crash(rank=1, at_step=5),))
        er = _elastic(faults=plan)
        rp = _elastic(faults=plan, ckpt_mode="replicate")
        assert er.restore_steps == rp.restore_steps == [4]
        assert not er.degraded_steps and not rp.degraded_steps
        for a, b in zip(er.weights, rp.weights):
            assert a.tobytes() == b.tobytes()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _elastic(ckpt_mode="holographic")
        with pytest.raises(ConfigurationError):
            _elastic(parity=0)

    def test_erasure_take_stores_fraction_and_moves_nothing(self):
        er = _elastic(trace=True, pr=2, pc=4, parity=1)
        rp = _elastic(trace=True, pr=2, pc=4, parity=1, ckpt_mode="replicate")

        def stored(res, mode):
            takes = [
                e for e in res.engine.tracer.canonical()
                if e.op == "ckpt.take" and int(e.tag[0]) > 0
            ]
            assert takes and all(int(e.tag[1]) == mode for e in takes)
            return sum(int(e.tag[2]) for e in takes)

        # k = pc - parity = 3 data chunks per stripe, so sharded storage
        # is several times smaller than full replication...
        assert stored(rp, MODE_REPLICATE) > 2 * stored(er, MODE_ERASURE)
        # ... and the erasure takes put zero checkpoint bytes on the
        # wire (every send inside a checkpoint span would carry one).
        ckpt_sends = [
            e for e in er.engine.tracer.canonical()
            if e.op == "send" and any(l.startswith("checkpoint") for l in e.span)
        ]
        assert ckpt_sends == []

    def test_capacity_and_overhead_on_the_reference_job(self):
        # A 2x4 job (24, 16, 10), batch 16, 8 steps, a take every 2
        # steps at parity 1.  Erasure shards store 6x less than full
        # replicas (the floor is 2x), cost no virtual time, and neither
        # mode changes the weights of the checkpoint-free run.
        dims, batch, steps = (24, 16, 10), 16, 8
        rng = np.random.default_rng(0)
        x = rng.standard_normal((dims[0], 4 * batch))
        y = rng.integers(0, dims[-1], 4 * batch)
        params0 = MLPParams.init(dims, seed=1)

        def one(mode, every):
            res = elastic_mlp_train(
                params0, x, y, pr=2, pc=4, batch=batch, steps=steps,
                checkpoint_every=every, ckpt_mode=mode, parity=1,
                engine=SimEngine(8, trace=True, supervise=True),
            )
            takes = [
                e for e in res.engine.tracer.events
                if e.op == "ckpt.take" and int(e.tag[0]) > 0
            ]
            stored = sum(int(e.tag[2]) for e in takes)
            return [w.tobytes() for w in res.weights], res.sim.time, stored, len(takes)

        # A take interval past the last step: no periodic take fires.
        off_w, off_s, off_stored, _ = one("erasure", 2 * steps)
        er_w, er_s, er_stored, er_takes = one("erasure", 2)
        rp_w, _, rp_stored, rp_takes = one("replicate", 2)
        assert er_w == off_w and rp_w == off_w
        assert off_stored == 0
        assert (er_stored, rp_stored) == (17424, 104448)
        assert rp_stored / er_stored >= 2.0
        assert er_s / off_s <= 1.05
        assert er_takes == rp_takes == 24

    def test_concurrent_double_crash_within_parity(self):
        # Ranks 1 and 2 share a row stripe of the 2x4 grid: two
        # concurrent losses, survivable bit-exactly with parity 2.
        plan = FaultPlan(
            seed=3, crashes=(Crash(rank=1, at_step=5), Crash(rank=2, at_step=5))
        )
        res = _elastic(faults=plan, pr=2, pc=4, parity=2)
        assert sorted(res.sim.failed) == [1, 2]
        assert res.restore_steps == [4] and not res.degraded_steps
        ref_params, _ = _serial()
        for w, r in zip(res.weights, ref_params.weights):
            np.testing.assert_allclose(w, r, rtol=1e-10, atol=1e-12)

    def test_concurrent_loss_beyond_parity_is_declared(self):
        # The same double crash with a single parity shard loses two
        # chunks of one stripe: the census must *declare* degradation
        # (here all the way to the step-0 replica) — and the replayed
        # run is still numerically correct, just redone from further
        # back.
        plan = FaultPlan(
            seed=3, crashes=(Crash(rank=1, at_step=5), Crash(rank=2, at_step=5))
        )
        res = _elastic(faults=plan, pr=2, pc=4, parity=1)
        assert res.restore_steps == [0]
        assert res.degraded_steps == [0]
        ref_params, _ = _serial()
        for w, r in zip(res.weights, ref_params.weights):
            np.testing.assert_allclose(w, r, rtol=1e-10, atol=1e-12)

    def test_narrow_grid_falls_back_to_replication(self):
        # A 1x2 grid stripes with parity 1 until the crash shrinks it to
        # 1x1, where Pc - parity < 1 cannot stripe: the takes after the
        # restore fall back to full replication (and still recover).
        plan = FaultPlan(seed=3, crashes=(Crash(rank=1, at_step=5),))
        res = _elastic(faults=plan, pr=1, pc=2, trace=True)
        assert res.grids == [(1, 2), (1, 1)]
        modes = {
            int(e.tag[0]): int(e.tag[1])
            for e in res.engine.tracer.canonical() if e.op == "ckpt.take"
        }
        assert modes == {2: MODE_ERASURE, 4: MODE_ERASURE, 6: MODE_REPLICATE}
        assert res.restore_steps == [4] and not res.degraded_steps

    @pytest.mark.parametrize("pc, parity", [(1, 1), (2, 2), (4, 4)])
    def test_grid_that_cannot_stripe_is_refused(self, pc, parity):
        # An erasure run whose starting grid has no data chunk per stripe
        # fails before any rank starts, instead of storing full replicas
        # under the name "erasure"; replication on that grid is fine.
        with pytest.raises(ConfigurationError, match="1 <= parity < Pc"):
            _elastic(pr=1, pc=pc, parity=parity)
        spec = dict(trainer="elastic", pr=5, pc=pc, batch=8, parity=parity)
        with pytest.raises(ConfigurationError, match="1 <= parity < Pc"):
            RunSpec(**spec)
        assert RunSpec(**spec, ckpt_mode="replicate").ckpt_mode == "replicate"
        assert not _elastic(pr=1, pc=pc, parity=parity, ckpt_mode="replicate").recovered

    def test_cascading_crash_during_recovery(self):
        # Rank 2 dies while recovering from rank 1's crash; recovery
        # restarts from the top and still restores the newest
        # checkpoint bit-exactly (two total losses, parity 2).
        plan = FaultPlan(
            seed=3,
            crashes=(Crash(rank=1, at_step=4),),
            cascades=(Cascade(rank=2, at_recovery=1),),
        )
        res = _elastic(faults=plan, pr=2, pc=4, parity=2)
        assert sorted(res.sim.failed) == [1, 2]
        assert res.grids == [(2, 4), (2, 3)]
        assert res.restore_steps == [4] and not res.degraded_steps
        ref_params, _ = _serial()
        for w, r in zip(res.weights, ref_params.weights):
            np.testing.assert_allclose(w, r, rtol=1e-10, atol=1e-12)

    def test_restored_checkpoints_and_store_are_exposed(self):
        plan = FaultPlan(seed=3, crashes=(Crash(rank=1, at_step=5),))
        res = _elastic(faults=plan)
        assert [c.step for c in res.restored] == res.restore_steps
        clean = _elastic(ckpt_mode="replicate")
        assert clean.store.steps() == [0, 2, 4, 6]
        # The restored state is bit-identical to the clean oracle's
        # checkpoint at the same step.
        oracle = clean.store.get(res.restore_steps[0]).checkpoint
        for a, b in zip(res.restored[0].weights, oracle.weights):
            assert a.tobytes() == b.tobytes()


class TestCheckpointScheduleEdges:
    """``checkpoint_every`` edge cases and restore bookkeeping."""

    def test_crash_before_first_checkpoint_falls_back_to_step0(self):
        # Regression: a crash that lands before any periodic take must
        # restore the locally-held step-0 replica cleanly — in both
        # modes, bit-identically.
        plan = FaultPlan(seed=3, crashes=(Crash(rank=1, at_step=1),))
        er = _elastic(faults=plan, checkpoint_every=4)
        rp = _elastic(faults=plan, checkpoint_every=4, ckpt_mode="replicate")
        assert er.restore_steps == rp.restore_steps == [0]
        assert not er.degraded_steps  # the step-0 replica IS the newest state
        for a, b in zip(er.weights, rp.weights):
            assert a.tobytes() == b.tobytes()
        ref_params, _ = _serial()
        for w, r in zip(er.weights, ref_params.weights):
            np.testing.assert_allclose(w, r, rtol=1e-10, atol=1e-12)

    def test_checkpoint_every_one(self):
        # A take at every step: the local erasure encode survives the
        # crash step itself, so recovery resumes from the crash step.
        plan = FaultPlan(seed=3, crashes=(Crash(rank=1, at_step=5),))
        res = _elastic(faults=plan, checkpoint_every=1)
        assert res.restore_steps == [5] and not res.degraded_steps
        ref_params, _ = _serial()
        for w, r in zip(res.weights, ref_params.weights):
            np.testing.assert_allclose(w, r, rtol=1e-10, atol=1e-12)

    def test_checkpoint_every_beyond_steps(self):
        plan = FaultPlan(seed=3, crashes=(Crash(rank=1, at_step=5),))
        res = _elastic(faults=plan, checkpoint_every=STEPS + 5)
        assert res.restore_steps == [0]
        ref_params, _ = _serial()
        for w, r in zip(res.weights, ref_params.weights):
            np.testing.assert_allclose(w, r, rtol=1e-10, atol=1e-12)

    def test_restore_bookkeeping_lengths_agree(self):
        plan = FaultPlan(
            seed=3, crashes=(Crash(rank=1, at_step=3), Crash(rank=2, at_step=6))
        )
        res = _elastic(faults=plan)
        assert len(res.restore_steps) == len(res.grids) - 1 == len(res.restored)
        assert set(res.degraded_steps) <= set(res.restore_steps)


class TestSharedStep0Replica:
    """The step-0 checkpoint is one read-only object per run."""

    def test_survivors_share_one_read_only_step0(self):
        plan = FaultPlan(seed=3, crashes=(Crash(rank=1, at_step=1),))
        res = _elastic(faults=plan, checkpoint_every=4)
        assert res.restore_steps == [0]
        stores = [res.sim.values[r][6] for r in res.sim.survivors]
        step0 = stores[0].get(0).checkpoint
        assert all(s.get(0).checkpoint is step0 for s in stores)
        assert step0.weights[0] is not PARAMS0.weights[0]
        for w, w0 in zip(step0.weights, PARAMS0.weights):
            assert not w.flags.writeable
            assert w.tobytes() == w0.tobytes()
            with pytest.raises(ValueError):
                w[0, 0] = 1.0
        # The restore copied out of it: what recovery restored is writeable.
        assert all(w.flags.writeable for w in res.restored[0].weights)

    def test_every_rank_still_counts_step0_as_stored(self):
        step0_bytes = sum(w.nbytes for w in PARAMS0.weights)

        def stored(res):
            return [res.sim.values[r][6].stored_bytes() for r in range(4)]

        assert stored(_elastic(ckpt_mode="replicate")) == [4 * step0_bytes] * 4
        # Step 0 plus one 384-byte shard per take at steps 2, 4 and 6.
        assert stored(_elastic()) == [step0_bytes + 3 * 384] * 4


class TestReplanGrid:
    def test_uses_all_survivors(self):
        for p in (1, 2, 3, 4, 6):
            pr, pc = replan_grid(p, DIMS, BATCH, cori_knl())
            assert pr * pc == p
            assert pr <= min(DIMS[1:]) and pc <= BATCH

    def test_infeasible_counts_raise(self):
        with pytest.raises(ConfigurationError):
            replan_grid(7, (4, 3, 3), 2, cori_knl())  # 7x1 and 1x7 both infeasible

    def test_checkpoint_copy_is_deep(self):
        ck = Checkpoint(0, [np.zeros(3)], [np.ones(3)], (1.0,))
        cp = ck.copy()
        cp.weights[0][:] = 9.0
        assert np.all(ck.weights[0] == 0.0)
