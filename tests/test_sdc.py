"""Silent-data-corruption defense: injection, ABFT guards, recovery.

The headline guarantee under test: under any *single* injected bit flip
per generation, guarded training either converges **bit-identically**
to the clean run or fails loudly — corruption never escapes silently.
The unguarded runs are the negative control showing the threat is real.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.diff import diff_records
from repro.analysis.record import RUN_RECORD_SCHEMA, RunRecord
from repro.dist.abft import (
    SDCGuard,
    block_checksums,
    correct_element,
    locate_corruption,
    make_guard,
)
from repro.dist.train import MLPParams, distributed_mlp_train, mlp_run_record
from repro.errors import (
    ConfigurationError,
    RankFailedError,
    SDCDetectedError,
)
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import BitFlipFault, FaultPlan
from repro.simmpi.sdc import (
    SDCPolicy,
    apply_payload_flip,
    as_policy,
    flip_bit,
    flippable_arrays,
    payload_digest,
    wrap_payload,
)

DIMS = (12, 10, 8)
BATCH = 8
STEPS = 3

rng = np.random.default_rng(7)
X = rng.standard_normal((DIMS[0], 4 * BATCH))
Y = rng.integers(0, DIMS[-1], 4 * BATCH)
PARAMS0 = MLPParams.init(DIMS, seed=1)


def train(plan=None, sdc=None, *, pr=2, pc=2):
    engine = SimEngine(pr * pc, None, trace=True, faults=plan)
    weights, losses, sim = distributed_mlp_train(
        PARAMS0, X, Y, pr=pr, pc=pc, batch=BATCH, steps=STEPS,
        engine=engine, sdc=sdc,
    )
    return weights, losses, engine, sim


def fault_ops(engine):
    return [e.op for e in engine.tracer.canonical() if e.op.startswith("fault.")]


def bits(weights):
    return [w.tobytes() for w in weights]


CLEAN_W, CLEAN_L, _, _ = train()


# ---------------------------------------------------------------------------
# FaultPlan round-trip and validation (injection surface)
# ---------------------------------------------------------------------------


class TestBitFlipPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=3,
            bitflips=(
                BitFlipFault(rank=1, target="matmul", layer=1, step=0,
                             gemm="bwd_dw", element=2, bit=7, repeat=2),
                BitFlipFault(rank=0, target="payload", send_index=4,
                             dest=2, element=1, bit=62),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_bitflips_survive_dict_round_trip_with_empty_plan(self):
        assert FaultPlan.from_json(FaultPlan().to_json()).bitflips == ()

    @pytest.mark.parametrize(
        "bad",
        [
            dict(rank=-1),
            dict(rank=0, bit=64),
            dict(rank=0, bit=-1),
            dict(rank=0, element=-2),
            dict(rank=0, target="alpha-particle"),
            dict(rank=0, gemm="nope"),
            dict(rank=0, layer=-1),
            dict(rank=0, repeat=0),
            dict(rank=0, target="payload"),  # needs send_index
            dict(rank=0, target="payload", send_index=-1),
            dict(rank=0, target="payload", send_index=1, repeat=2),
        ],
    )
    def test_validation_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            BitFlipFault(**bad)

    def test_policy_coercion(self):
        assert as_policy("detect").mode == "detect"
        p = SDCPolicy(mode="recompute", max_retries=5)
        assert as_policy(p) is p
        with pytest.raises(ConfigurationError):
            as_policy("fix-it-somehow")
        with pytest.raises(ConfigurationError):
            SDCPolicy(mode="correct", max_retries=-1)

    def test_make_guard_forms(self):
        assert make_guard(None) is None
        guard = SDCGuard()
        assert make_guard(guard) is guard
        assert make_guard("detect").policy.mode == "detect"


# ---------------------------------------------------------------------------
# ABFT checksum math (property tests)
# ---------------------------------------------------------------------------


class TestChecksumProperties:
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        element=st.integers(0, 1000),
        bit=st.integers(0, 63),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=120, deadline=None)
    def test_single_flip_is_located_and_corrected(self, rows, cols, element, bit, seed):
        block = np.random.default_rng(seed).standard_normal((rows, cols))
        clean = block.tobytes()
        row_sum, col_sum = block_checksums(block)
        flip_bit(block, element, bit)
        corruption = locate_corruption(block, row_sum, col_sum)
        assert corruption is not None and corruption.correctable
        idx = np.unravel_index(element % block.size, block.shape)
        assert (corruption.row, corruption.col) == idx
        correct_element(block, corruption)
        assert block.tobytes() == clean

    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_clean_block_never_flags(self, rows, cols, seed):
        block = np.random.default_rng(seed).standard_normal((rows, cols))
        row_sum, col_sum = block_checksums(block)
        assert locate_corruption(block, row_sum, col_sum) is None

    def test_vector_blocks_are_protected_too(self):
        vec = np.arange(5, dtype=np.float64)
        row_sum, col_sum = block_checksums(vec)
        flip_bit(vec, 3, 17)
        corruption = locate_corruption(vec, row_sum, col_sum)
        assert corruption is not None and corruption.correctable
        correct_element(vec, corruption)
        assert list(vec) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_double_corruption_detected_but_not_correctable(self):
        block = np.random.default_rng(0).standard_normal((4, 4))
        row_sum, col_sum = block_checksums(block)
        flip_bit(block, 0, 5)
        flip_bit(block, 5, 9)
        corruption = locate_corruption(block, row_sum, col_sum)
        assert corruption is not None and not corruption.correctable

    def test_flip_is_involution(self):
        arr = np.random.default_rng(1).standard_normal(6)
        before = arr.tobytes()
        flip_bit(arr, 2, 40)
        assert arr.tobytes() != before
        flip_bit(arr, 2, 40)
        assert arr.tobytes() == before


class TestPayloadGuardPrimitives:
    def test_digest_is_order_sensitive_xor_fold(self):
        a = np.arange(4, dtype=np.float64)
        assert payload_digest(a) == payload_digest(a.copy())
        b = a.copy()
        flip_bit(b, 1, 3)
        assert payload_digest(a) != payload_digest(b)

    def test_flippable_payloads(self):
        arr = np.zeros(3)
        assert flippable_arrays(arr) == [arr]
        blocks = [np.zeros(2), np.ones(3)]
        assert flippable_arrays(blocks) == blocks
        assert flippable_arrays("header") == []
        assert flippable_arrays([np.zeros(2), "x"]) == []
        assert flippable_arrays(np.zeros(3, dtype=np.int64)) == []
        assert flippable_arrays([]) == []

    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40),
        layout=st.sampled_from(["C", "F", "strided"]),
        as_list=st.booleans(),
        flip=st.one_of(st.none(), st.tuples(st.integers(0, 10**6), st.integers(0, 63))),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_fold_equals_the_per_array_fold(self, seeds, layout, as_list, flip):
        arrays = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            rows, cols = (int(n) for n in rng.integers(1, 6, size=2))
            raw = np.frombuffer(rng.bytes(rows * 2 * cols * 8), dtype=np.float64)
            base = raw.reshape(rows, 2 * cols).copy()  # arbitrary bits, NaNs included
            arrays.append(
                base[:, ::2] if layout == "strided"
                else np.asfortranarray(base) if layout == "F" else base
            )
        payload = arrays if as_list or len(arrays) > 1 else arrays[0]
        if flip is not None:
            fault = BitFlipFault(
                rank=0, target="payload", send_index=0, element=flip[0], bit=flip[1]
            )
            assert apply_payload_flip(payload, fault)
        expected = 0
        for a in arrays:
            bits = np.ascontiguousarray(a).reshape(-1).view(np.uint64)
            expected ^= int(np.bitwise_xor.reduce(bits))
        assert payload_digest(payload) == expected
        assert wrap_payload(payload, None).digest == expected

    def test_payload_flip_indexes_concatenated_space(self):
        blocks = [np.zeros(2), np.zeros(3)]
        flip = BitFlipFault(rank=0, target="payload", send_index=0, element=3, bit=1)
        assert apply_payload_flip(blocks, flip)
        assert blocks[0].tobytes() == np.zeros(2).tobytes()
        assert blocks[1][1] != 0.0
        # Involution: applying the same flip again restores clean bits.
        assert apply_payload_flip(blocks, flip)
        assert blocks[1].tobytes() == np.zeros(3).tobytes()


# ---------------------------------------------------------------------------
# End-to-end: the headline guarantee
# ---------------------------------------------------------------------------

MATMUL_FLIP = BitFlipFault(
    rank=1, target="matmul", layer=1, step=1, gemm="fwd", element=3, bit=52
)
PAYLOAD_FLIP = BitFlipFault(
    rank=0, target="payload", send_index=4, element=11, bit=40
)


class TestGuardedTraining:
    def test_guards_on_no_faults_bit_identical(self):
        weights, losses, engine, _ = train(sdc="correct")
        assert bits(weights) == bits(CLEAN_W)
        assert losses == CLEAN_L
        assert fault_ops(engine) == []

    @given(
        pr=st.integers(1, 3),
        pc=st.integers(1, 2),
        mode=st.sampled_from(["detect", "correct", "recompute"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_guards_on_no_faults_bit_identical_any_grid(self, pr, pc, mode):
        base, _, _, _ = train(pr=pr, pc=pc)
        guarded, _, _, _ = train(pr=pr, pc=pc, sdc=mode)
        assert bits(guarded) == bits(base)

    def test_unguarded_matmul_flip_escapes_silently(self):
        plan = FaultPlan(bitflips=(MATMUL_FLIP,))
        weights, _, engine, _ = train(plan)
        assert bits(weights) != bits(CLEAN_W)
        assert fault_ops(engine) == ["fault.bitflip"]

    def test_correct_policy_repairs_matmul_flip_bit_identically(self):
        plan = FaultPlan(bitflips=(MATMUL_FLIP,))
        guard = make_guard("correct")
        weights, losses, engine, _ = train(plan, guard)
        assert bits(weights) == bits(CLEAN_W)
        assert losses == CLEAN_L
        assert fault_ops(engine) == [
            "fault.bitflip", "fault.sdc_detected", "fault.sdc_corrected"
        ]
        assert guard.monitor.snapshot() == {
            "injected": 1, "detected": 1, "corrected": 1,
            "recomputed": 0, "escaped": 0,
        }

    def test_recompute_policy_redoes_the_block(self):
        plan = FaultPlan(bitflips=(MATMUL_FLIP,))
        guard = make_guard("recompute")
        weights, _, engine, _ = train(plan, guard)
        assert bits(weights) == bits(CLEAN_W)
        assert "fault.sdc_recomputed" in fault_ops(engine)
        assert guard.monitor["recomputed"] == 1

    def test_detect_policy_fails_loudly(self):
        plan = FaultPlan(bitflips=(MATMUL_FLIP,))
        with pytest.raises(RankFailedError) as excinfo:
            train(plan, "detect")
        detections = [
            e for e in excinfo.value.failures.values()
            if isinstance(e, SDCDetectedError)
        ]
        assert len(detections) == 1
        assert detections[0].site.startswith("fwd")

    @pytest.mark.parametrize("gemm", ["fwd", "bwd_dx", "bwd_dw"])
    def test_every_gemm_site_is_guarded(self, gemm):
        plan = FaultPlan(bitflips=(
            BitFlipFault(rank=2, target="matmul", layer=1, step=0,
                         gemm=gemm, element=1, bit=60),
        ))
        weights, _, engine, _ = train(plan, "correct")
        assert bits(weights) == bits(CLEAN_W)
        assert "fault.sdc_corrected" in fault_ops(engine)

    def test_payload_flip_recovered_by_retransmission(self):
        plan = FaultPlan(bitflips=(PAYLOAD_FLIP,))
        guard = make_guard("correct")
        weights, _, engine, _ = train(plan, guard)
        assert bits(weights) == bits(CLEAN_W)
        assert fault_ops(engine) == [
            "fault.bitflip", "fault.sdc_detected", "fault.sdc_retransmit"
        ]
        assert guard.monitor["recomputed"] == 1

    def test_unguarded_payload_flip_escapes(self):
        plan = FaultPlan(bitflips=(PAYLOAD_FLIP,))
        weights, _, engine, _ = train(plan)
        assert bits(weights) != bits(CLEAN_W)
        assert fault_ops(engine) == ["fault.bitflip"]

    def test_injection_is_deterministic(self):
        plan = FaultPlan(bitflips=(MATMUL_FLIP,))
        a, la, _, _ = train(plan)
        b, lb, _, _ = train(plan)
        assert bits(a) == bits(b) and la == lb


class TestEscalation:
    def test_repeating_flip_exhausts_retries_and_escalates_to_elastic(self):
        from repro.dist.elastic import elastic_mlp_train

        # The flip re-fires on every recomputation: 1 + max_retries
        # strikes exhaust the budget, the guard raises
        # SDCUnrecoverableError (a SimulatedCrashError), and the
        # elastic machinery absorbs it like a crash: shrink, re-plan,
        # restore from checkpoint, converge.
        plan = FaultPlan(bitflips=(
            BitFlipFault(rank=1, target="matmul", layer=0, step=2,
                         gemm="fwd", element=2, bit=51, repeat=3),
        ))
        result = elastic_mlp_train(
            PARAMS0, X, Y, pr=2, pc=2, batch=BATCH, steps=6,
            checkpoint_every=2,
            engine=SimEngine(4, trace=True, faults=plan, supervise=True),
            sdc=SDCPolicy(mode="recompute", max_retries=2),
        )
        assert result.recovered
        assert 1 in result.sim.failed
        ops = fault_ops(result.engine)
        assert ops.count("fault.sdc_recomputed") == 2
        assert "fault.sdc_escalated" in ops
        # After recovery the surviving grid retrains cleanly.
        from repro.dist.train import serial_mlp_train

        ref, _ = serial_mlp_train(PARAMS0, X, Y, batch=BATCH, steps=6)
        for got, expected in zip(result.weights, ref.weights):
            np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-10)


# ---------------------------------------------------------------------------
# Cost model, audit, and run records
# ---------------------------------------------------------------------------


class TestGuardCostAndAudit:
    def test_guarded_audit_exact_with_digest_terms(self):
        from repro.run import RunSpec, execute
        from repro.telemetry.audit import audit_events

        run = execute(RunSpec(size=DIMS, pr=2, pc=2, batch=8, steps=2, sdc="correct"))
        report = audit_events(
            run.engine.tracer.canonical(), DIMS, pr=2, pc=2, batch=8, steps=2, sdc=True
        )
        assert report.exact
        assert report.max_latency_rel_error == 0.0
        categories = {t.category for t in report.terms}
        assert {"abft.digest_fwd", "abft.digest_dx", "abft.digest_dw"} <= categories

    def test_guarded_trace_without_sdc_flag_is_an_error(self):
        from repro.run import RunSpec, execute
        from repro.telemetry.audit import audit_events

        run = execute(RunSpec(size=DIMS, pr=2, pc=2, batch=8, steps=2, sdc="correct"))
        events = run.engine.tracer.canonical()
        with pytest.raises(ConfigurationError, match="digest escorts"):
            audit_events(events, DIMS, pr=2, pc=2, batch=8, steps=2)

    def test_digest_volume_matches_cost_model_terms(self):
        import math

        from repro.core.costs import sdc_guard_cost_terms
        from repro.core.strategy import ProcessGrid
        from repro.machine.params import cori_knl
        from repro.nn import mlp

        pr, pc = 4, 2
        breakdown = sdc_guard_cost_terms(
            mlp(list(DIMS)), 16, ProcessGrid(pr, pc), cori_knl()
        )
        by_cat = {}
        for t in breakdown.terms:
            by_cat.setdefault(t.category, []).append(t)
        # One digest per message of the underlying collective.
        assert all(t.volume == math.ceil(math.log2(pr))
                   for t in by_cat["abft.digest_fwd"])
        assert all(t.volume == 2 * (pr - 1) for t in by_cat["abft.digest_dx"])
        assert all(t.volume == 2 * (pc - 1) for t in by_cat["abft.digest_dw"])
        # dX terms skip the first weighted layer, like Eq. 8.
        assert len(by_cat["abft.digest_dx"]) == len(by_cat["abft.digest_fwd"]) - 1
        # Checksum folds are free in alpha-beta time but counted.
        checksum = breakdown.filter("abft.checksum")
        assert checksum.total == 0.0 and checksum.volume > 0

    def test_degenerate_grids_have_no_digest_traffic(self):
        from repro.core.costs import sdc_guard_cost_terms
        from repro.core.strategy import ProcessGrid
        from repro.machine.params import cori_knl
        from repro.nn import mlp

        breakdown = sdc_guard_cost_terms(
            mlp(list(DIMS)), 16, ProcessGrid(1, 1), cori_knl()
        )
        assert breakdown.filter("abft.digest").terms == ()
        assert breakdown.filter("abft.checksum").volume > 0


class TestRunRecordV2:
    def record(self, plan=None, sdc=None):
        _, _, engine, sim = train(plan, sdc)
        return mlp_run_record(
            engine, sim, dims=DIMS, pr=2, pc=2, batch=BATCH, steps=STEPS, sdc=sdc
        )

    def test_clean_record_has_no_sdc_block(self):
        record = self.record()
        assert record.sdc == {}
        assert "sdc" not in record.to_dict()
        assert "sdc" not in record.config

    def test_guarded_record_carries_counters(self):
        record = self.record(FaultPlan(bitflips=(MATMUL_FLIP,)), "correct")
        assert record.config["sdc"] == "correct"
        assert record.sdc["injected"] == 1
        assert record.sdc["detected"] == 1
        assert record.sdc["corrected"] == 1
        assert record.sdc["escaped"] == 0
        assert record.sdc["guard_bytes"] > 0
        round_tripped = RunRecord.from_json(record.to_json())
        assert round_tripped.sdc == record.sdc

    def test_unguarded_injected_record_reports_escape(self):
        record = self.record(FaultPlan(bitflips=(MATMUL_FLIP,)))
        assert record.sdc["injected"] == 1
        assert record.sdc["escaped"] == 1
        assert record.sdc["guard_bytes"] == 0

    def test_v1_baseline_still_reads_and_diffs_clean(self):
        # A current record re-read from JSON diffs clean; a v1 tag is refused.
        record = self.record()
        payload = json.loads(record.to_json())
        assert payload["schema"] == RUN_RECORD_SCHEMA
        report = diff_records(RunRecord.from_dict(payload), record)
        assert not report.regressed
        payload["schema"] = "repro.analysis.record/v1"
        with pytest.raises(ConfigurationError, match="v1"):
            RunRecord.from_dict(payload)

    def test_unknown_schema_rejected(self):
        record = self.record()
        payload = json.loads(record.to_json())
        payload["schema"] = "repro.analysis.record/v999"
        with pytest.raises(ConfigurationError, match="schema"):
            RunRecord.from_dict(payload)

    def test_bad_sdc_block_rejected(self):
        record = self.record(FaultPlan(bitflips=(MATMUL_FLIP,)), "correct")
        payload = json.loads(record.to_json())
        payload["sdc"]["wat"] = 1
        with pytest.raises(ConfigurationError, match="unknown counter"):
            RunRecord.from_dict(payload)
        del payload["sdc"]["wat"]
        payload["sdc"]["injected"] = -1
        with pytest.raises(ConfigurationError, match="non-negative"):
            RunRecord.from_dict(payload)

    def test_guarded_config_key_differs_from_clean(self):
        # Guard state is part of comparability: a guarded record never
        # silently diffs against an unguarded baseline.
        clean = self.record()
        guarded = self.record(sdc="correct")
        assert clean.config_key != guarded.config_key


# ---------------------------------------------------------------------------
# The other trainers
# ---------------------------------------------------------------------------


class TestOtherTrainers:
    def test_summa_guarded_panels_recover(self):
        from repro.dist.summa2d import summa_matmul

        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 12))
        b = rng.standard_normal((12, 6))
        plan = FaultPlan(bitflips=(
            BitFlipFault(rank=2, target="matmul", layer=1, step=0,
                         gemm="summa", element=4, bit=55),
        ))

        def run(plan, sdc):
            engine = SimEngine(4, None, trace=True, faults=plan)
            result = engine.run(summa_matmul, a, b, pr=2, pc=2, sdc=sdc)
            blocks = result.values
            top = np.hstack([blocks[0], blocks[1]])
            bottom = np.hstack([blocks[2], blocks[3]])
            return np.vstack([top, bottom]), engine

        clean, _ = run(None, None)
        np.testing.assert_allclose(clean, a @ b, rtol=1e-12, atol=1e-12)
        guarded, engine = run(plan, "correct")
        assert guarded.tobytes() == clean.tobytes()
        assert "fault.sdc_corrected" in fault_ops(engine)
        corrupted, engine = run(plan, None)
        assert corrupted.tobytes() != clean.tobytes()
        assert fault_ops(engine) == ["fault.bitflip"]

    def test_integrated_cnn_guarded_fc_flip_bit_identical(self):
        from repro.dist.integrated import (
            CNNParams,
            IntegratedCNNConfig,
            distributed_cnn_train,
        )

        config = IntegratedCNNConfig(
            in_channels=2, height=8, width=8, conv_channels=(3,),
            conv_kernels=(3,), pool_after=(True,), fc_dims=(10, 4),
        )
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 2, 8, 8))
        y = rng.integers(0, 4, 16)
        p0 = CNNParams.init(config, seed=1)

        def run(plan, sdc):
            engine = SimEngine(4, None, trace=True, faults=plan)
            params, _, _ = distributed_cnn_train(
                config, p0, x, y, pr=2, pc=2, batch=8, steps=2,
                engine=engine, sdc=sdc,
            )
            return params, engine

        clean, _ = run(None, None)
        plan = FaultPlan(bitflips=(
            BitFlipFault(rank=1, target="matmul", layer=1, step=1,
                         gemm="fwd", element=3, bit=52),
        ))
        guarded, engine = run(plan, "correct")
        assert bits(guarded.all_params()) == bits(clean.all_params())
        assert "fault.sdc_corrected" in fault_ops(engine)

    def test_integrated_cnn_halo_payload_flip_recovered_at_the_wire(self):
        from repro.dist.integrated import (
            CNNParams,
            IntegratedCNNConfig,
            distributed_cnn_train,
        )

        config = IntegratedCNNConfig(
            in_channels=2, height=8, width=8, conv_channels=(3,),
            conv_kernels=(3,), pool_after=(True,), fc_dims=(10, 4),
        )
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 2, 8, 8))
        y = rng.integers(0, 4, 16)
        p0 = CNNParams.init(config, seed=1)

        def run(plan, sdc):
            engine = SimEngine(4, None, trace=True, faults=plan)
            params, _, _ = distributed_cnn_train(
                config, p0, x, y, pr=2, pc=2, batch=8, steps=2,
                engine=engine, sdc=sdc,
            )
            return params, engine

        clean, _ = run(None, None)
        plan = FaultPlan(bitflips=(
            BitFlipFault(rank=0, target="payload", send_index=2,
                         element=5, bit=44),
        ))
        guarded, engine = run(plan, "correct")
        assert bits(guarded.all_params()) == bits(clean.all_params())
        assert "fault.sdc_retransmit" in fault_ops(engine)
