"""Satellite test: measured 1.5D traffic equals the Eq. 8 terms exactly.

The audit compares the *simulated* per-step communication (data bytes
summed over all ranks, and send counts) of ``distributed_mlp_train`` against
the closed-form bandwidth/latency terms of
:func:`repro.core.costs.integrated_mb_cost` — zero relative error, not
approximately.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.run import RunSpec, execute
from repro.telemetry.audit import PHASE_CATEGORY, audit_events

DIMS = (32, 24, 16, 10)
BATCH = 16


def traced_audit(dims, *, pr, pc, batch, steps):
    """Traced 1.5D training of ``dims`` and its Eq. 8 audit: ``(report, events)``."""
    run = execute(RunSpec(size=dims, pr=pr, pc=pc, batch=batch, steps=steps))
    events = run.engine.tracer.canonical()
    return audit_events(events, dims, pr=pr, pc=pc, batch=batch, steps=steps), events

# Grid shapes covering general, pure-model, pure-batch and a
# non-power-of-two, non-divisible split (24/3, 16/3 are uneven).
GRIDS = [(4, 2), (2, 4), (4, 1), (1, 4), (3, 2)]


@pytest.mark.parametrize("pr,pc", GRIDS)
class TestExactness:
    def test_bandwidth_terms_exact(self, pr, pc):
        report, _ = traced_audit(DIMS, pr=pr, pc=pc, batch=BATCH, steps=2)
        assert report.max_bandwidth_rel_error == 0.0
        assert report.exact
        for term in report.terms:
            assert term.measured_bytes == term.predicted_bytes

    def test_latency_message_counts_exact(self, pr, pc):
        report, _ = traced_audit(DIMS, pr=pr, pc=pc, batch=BATCH, steps=2)
        assert report.max_latency_rel_error == 0.0
        for term in report.terms:
            assert term.measured_messages == term.predicted_messages


@pytest.mark.parametrize("dims", [DIMS, (784, 1024, 512, 10)])
def test_seven_row_grid_closes_exactly(dims):
    """Each rank of a 7-row group moves 6/7 of a volume, which no float
    holds; the predicted totals are still exactly the traced bytes."""
    report, _ = traced_audit(dims, pr=7, pc=1, batch=30, steps=1)
    for term in report.terms:
        assert term.measured_bytes == term.predicted_bytes, term
    assert report.exact


class TestStructure:
    def test_terms_cover_every_eq8_sum(self):
        report, _ = traced_audit(DIMS, pr=2, pc=2, batch=BATCH, steps=1)
        cats = {t.category for t in report.terms}
        assert cats == set(PHASE_CATEGORY.values())
        layers = {t.layer_index for t in report.terms if t.category.endswith("dw")}
        assert layers == {1, 2, 3}
        # No dx all-reduce for the first layer (no input gradient needed).
        dx_layers = {
            t.layer_index for t in report.terms if t.category.endswith("dx")
        }
        assert 1 not in dx_layers

    def test_degenerate_grid_dims_send_nothing(self):
        # pr=1: no model-parallel traffic; every fwd/bwd_dx term is 0 = 0.
        report, _ = traced_audit(DIMS, pr=1, pc=4, batch=BATCH, steps=1)
        for t in report.terms:
            if t.category.startswith("model."):
                assert t.predicted_bytes == t.measured_bytes == 0

    def test_message_counts_match_round_formulas(self):
        pr, pc = 4, 2
        report, _ = traced_audit(DIMS, pr=pr, pc=pc, batch=BATCH, steps=1)
        p = pr * pc
        for t in report.terms:
            if t.category == "model.allgather_fwd":
                assert t.measured_messages == p * math.ceil(math.log2(pr))
            elif t.category == "model.allreduce_dx":
                assert t.measured_messages == p * 2 * (pr - 1)
            elif t.category == "batch.allreduce_dw":
                assert t.measured_messages == p * 2 * (pc - 1)

    def test_audit_report_table_renders(self):
        report, _ = traced_audit(DIMS, pr=2, pc=2, batch=BATCH, steps=1)
        text = report.to_table().to_ascii()
        assert "model.allgather_fwd" in text
        assert "bytes_rel_err" in text

    def test_events_returned_for_export(self):
        _, events = traced_audit(DIMS, pr=2, pc=2, batch=BATCH, steps=1)
        assert any(e.op == "span" for e in events)
        assert any(e.op == "send" and e.data_bytes > 0 for e in events)


class TestAuditEvents:
    def test_wrong_dims_detected(self):
        # Audit a real trace against the wrong network: errors must show.
        _, events = traced_audit(DIMS, pr=2, pc=2, batch=BATCH, steps=1)
        wrong = (32, 48, 32, 10)
        report = audit_events(events, wrong, pr=2, pc=2, batch=BATCH, steps=1)
        assert report.max_bandwidth_rel_error > 0.0
        assert not report.exact

    def test_rejects_bad_steps(self):
        with pytest.raises(ConfigurationError):
            audit_events((), DIMS, pr=2, pc=2, batch=BATCH, steps=0)


class TestCheckpointAudit:
    """Checkpoint traffic closes against the closed forms at zero error."""

    def _events(self, mode, momentum, pr=2, pc=4, dims=(8, 10, 6)):
        import numpy as np

        from repro.dist.elastic import elastic_mlp_train
        from repro.dist.train import MLPParams
        from repro.simmpi.engine import SimEngine
        from repro.simmpi.faults import Crash, FaultPlan

        rng = np.random.default_rng(3)
        x = rng.standard_normal((dims[0], 32))
        y = rng.integers(0, dims[-1], 32)
        plan = FaultPlan(seed=3, crashes=(Crash(rank=1, at_step=3),))
        res = elastic_mlp_train(
            MLPParams.init(dims, seed=3), x, y, pr=pr, pc=pc, batch=8,
            steps=6, checkpoint_every=2, ckpt_mode=mode, momentum=momentum,
            engine=SimEngine(pr * pc, trace=True, faults=plan, supervise=True),
        )
        return res.engine.tracer.canonical(), dims

    @pytest.mark.parametrize("mode", ["erasure", "replicate"])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_crashy_run_closes_exactly(self, mode, momentum):
        from repro.telemetry.audit import audit_checkpoint_events

        events, dims = self._events(mode, momentum)
        report = audit_checkpoint_events(events, dims, pr=2, pc=4, batch=8)
        assert report.terms, "checkpoint activity must produce audit terms"
        for t in report.terms:
            assert t.predicted_bytes == t.measured_bytes, t.category
            assert t.predicted_messages == t.measured_messages, t.category
        assert report.exact
        categories = {t.category for t in report.terms}
        assert "ckpt.census" in categories
        if mode == "erasure":
            # Takes are local: the parity terms predict zero wire bytes;
            # shard fetches are the only checkpoint traffic.
            assert "ckpt.fetch" in categories
            parity = [t for t in report.terms if t.category == "ckpt.parity"]
            assert parity and all(t.measured_bytes == 0 for t in parity)
        else:
            assert any(
                t.category == "ckpt.replicate" and t.measured_bytes > 0
                for t in report.terms
            )

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_three_row_grid_closes_exactly(self, momentum):
        """Replicate takes over 3-row groups move 2/3 of each layer per
        rank (here 2/3 of 112 elements, which no float holds): the audit
        must still close in exact arithmetic."""
        from repro.telemetry.audit import audit_checkpoint_events

        events, dims = self._events("replicate", momentum, pr=3, pc=2, dims=(8, 14, 6))
        report = audit_checkpoint_events(events, dims, pr=3, pc=2, batch=8)
        assert any(
            t.category == "ckpt.replicate" and t.measured_bytes > 0 for t in report.terms
        )
        for t in report.terms:
            assert t.predicted_bytes == t.measured_bytes, t.category
            assert t.predicted_messages == t.measured_messages, t.category

    def test_wrong_dims_break_closure(self):
        from repro.telemetry.audit import audit_checkpoint_events

        events, _ = self._events("replicate", 0.0)
        report = audit_checkpoint_events(events, (8, 14, 6), pr=2, pc=4, batch=8)
        assert not report.exact
