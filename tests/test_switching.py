"""Tests for the per-layer grid-switching trainer (executable Fig. 7 /
Eq. 6): exact agreement with serial SGD for every placement mix, and
redistribution traffic matching the Eq. 6 volume."""

import numpy as np
import pytest

from repro.core.redistribution import redistribution_cost
from repro.data.synthetic import synthetic_classification
from repro.dist.switching import distributed_switching_mlp_train
from repro.dist.train import MLPParams, serial_mlp_train
from repro.errors import StrategyError
from repro.machine.params import MachineParams, cori_knl
from repro.nn import mlp
from repro.simmpi.engine import SimEngine
from repro.telemetry.spans import base_name, format_label

X, Y = synthetic_classification(12, 64, 5, seed=42)
PARAMS = MLPParams.init([12, 16, 10, 5], seed=1)
KW = dict(batch=16, steps=5, lr=0.1, momentum=0.9)
SERIAL_W, SERIAL_L = serial_mlp_train(PARAMS, X, Y, **KW)


@pytest.mark.parametrize(
    "placements,pr,pc",
    [
        (["batch", "model", "model"], 2, 2),   # the Fig. 7 shape
        (["batch", "batch", "model"], 2, 4),
        (["model", "batch", "model"], 2, 2),   # switch both directions
        (["batch", "batch", "batch"], 2, 2),   # degenerate: pure batch
        (["model", "model", "model"], 3, 2),   # degenerate: plain 1.5D
        (["batch", "model", "batch"], 4, 2),
        (["batch", "model", "model"], 1, 4),   # Pr = 1: switches are no-ops
    ],
)
class TestSwitchingMatchesSerial:
    def test_losses(self, placements, pr, pc):
        _, losses, _ = distributed_switching_mlp_train(
            PARAMS, X, Y, placements=placements, pr=pr, pc=pc, **KW
        )
        np.testing.assert_allclose(losses, SERIAL_L, rtol=1e-10, atol=1e-13)

    def test_weights(self, placements, pr, pc):
        weights, _, _ = distributed_switching_mlp_train(
            PARAMS, X, Y, placements=placements, pr=pr, pc=pc, **KW
        )
        for got, expected in zip(weights, SERIAL_W.weights):
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-11)


def test_traced_run_beats_once_per_rank_per_step():
    """On the shared SGD loop the switching trainer is observable like the
    others: one ``hb`` per rank per step, each inside its step span, and a
    healthy trace."""
    from repro.observe.health import evaluate_health
    from repro.telemetry.heartbeat import HB_OP

    engine = SimEngine(8, trace=True)
    distributed_switching_mlp_train(
        PARAMS, X, Y, placements=["batch", "model", "batch"], pr=4, pc=2,
        engine=engine, **KW,
    )
    beats = [e for e in engine.tracer.events if e.op == HB_OP]
    assert len(beats) == 8 * KW["steps"]
    assert {dict(e.tag)["phase"] for e in beats} == {"switching"}
    assert all(base_name(e.span[-1]) == "step" for e in beats)
    assert evaluate_health(engine.tracer.events).events == ()


class TestValidation:
    def test_wrong_placement_count(self):
        with pytest.raises(StrategyError):
            distributed_switching_mlp_train(
                PARAMS, X, Y, placements=["batch"], pr=2, pc=2, **KW
            )

    def test_unknown_placement(self):
        with pytest.raises(StrategyError):
            distributed_switching_mlp_train(
                PARAMS, X, Y, placements=["batch", "domain", "model"], pr=2, pc=2, **KW
            )


def _redist_traffic(placements, expected, pr=4, pc=2, batch=16):
    """Per-rank bytes received under each ``redist`` span of one step,
    and the same map built from ``expected``: ``(direction, layer)`` of
    each span -> the layer whose Eq. 6 volume it moves, or None for a
    local slice (0 bytes)."""
    engine = SimEngine(pr * pc, cori_knl(), trace=True)
    distributed_switching_mlp_train(
        PARAMS, X, Y, placements=placements, pr=pr, pc=pc,
        batch=batch, steps=1, lr=0.1, engine=engine,
    )
    events = engine.tracer.canonical()
    measured = {
        e.span[-1]: [0] * (pr * pc) for e in events
        if e.op == "span" and base_name(e.span[-1]) == "redist"
    }
    for e in (e for e in events if e.op == "recv"):
        for label in e.span:
            if label in measured:
                measured[label][e.rank] += e.data_bytes
    # float64 elements at 1 s/byte: the bandwidth term is the byte count.
    per_byte = MachineParams(alpha=0.0, beta_per_byte=1.0, element_bytes=8)
    layers = mlp(PARAMS.dims).weighted_layers
    want = {}
    for (direction, i), eq6_layer in expected.items():
        label = format_label("redist", {"direction": direction, "layer": i})
        eq6 = 0.0
        if eq6_layer is not None:
            layer = layers[eq6_layer]
            eq6 = redistribution_cost(layer, batch / pc, pr, per_byte).bandwidth
            assert eq6 == 8 * (batch / pc) * layer.d_in * (pr - 1) / pr
        want[label] = [eq6] * (pr * pc)
    return measured, want


class TestRedistributionTraffic:
    def test_allgather_volume_matches_eq6(self):
        """The batch->model switch moves (Pr-1)/Pr of the B/Pc x d panel
        through each rank per iteration — Eq. 6's all-gather volume,
        at zero relative error; the mirrored backward slice moves
        nothing."""
        measured, want = _redist_traffic(
            ["batch", "model", "model"], {("fwd", 1): 1, ("bwd", 1): None}
        )
        assert measured == want

    @pytest.mark.parametrize(
        "placements,expected",
        [
            (
                ["batch", "model", "batch"],
                {("fwd", 1): 1, ("fwd", 2): None, ("bwd", 2): 2, ("bwd", 1): None},
            ),
            (  # the batch-layout input is redistributed into layer 0 too
                ["model", "batch", "model"],
                {("fwd", 0): 0, ("fwd", 1): None, ("fwd", 2): 2,
                 ("bwd", 2): None, ("bwd", 1): 1},
            ),
        ],
        ids=["batch-model-batch", "model-batch-model"],
    )
    def test_backward_regather_matches_eq6(self, placements, expected):
        """A gradient flowing back out of a batch layer into a model one
        is re-gathered over Pr: Eq. 6's volume again, at zero relative
        error.  Model->batch crossings, either way, are local slices."""
        measured, want = _redist_traffic(placements, expected)
        assert measured == want

    def test_pr1_has_no_redistribution_messages(self):
        """With Pr = 1 the layout switch is the identity: tracing a 1x4
        run of a batch->model mix shows only dW/loss all-reduce traffic
        (no all-gather rounds beyond those collectives)."""
        engine = SimEngine(4, cori_knl(), trace=True)
        distributed_switching_mlp_train(
            PARAMS,
            X,
            Y,
            placements=["batch", "model", "model"],
            pr=1,
            pc=4,
            batch=16,
            steps=1,
            lr=0.1,
            engine=engine,
        )
        ops = {e.op for e in engine.tracer.events if e.peer == -1}
        assert not any(op.startswith("allgather") for op in ops)
