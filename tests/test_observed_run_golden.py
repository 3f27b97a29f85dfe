"""Golden digests of everything an *observed* run produces.

An observed run passes each trace event through four stages — the
``Tracer`` record, the ``MetricsRegistry`` sink, the analysis passes
behind the ``RunRecord`` and the Perfetto export.  Each case here runs
one trainer traced with a registry attached and pins the sha256 of the
four artifacts, so a host-cost optimisation of any stage that changes
one byte of output fails here.

After an *intended* change of trace content, copy the digests the
failing assertion prints into ``GOLDEN``.
"""

import hashlib

import pytest

from repro.data.synthetic import synthetic_classification
from repro.dist.elastic import elastic_mlp_train, elastic_run_record
from repro.dist.train import MLPParams, distributed_mlp_train, mlp_run_record
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import Crash, FaultPlan
from repro.simmpi.tracing import TraceEvent
from repro.telemetry.chrome import write_chrome_trace
from repro.telemetry.metrics import MetricsRegistry

X, Y = synthetic_classification(16, 64, 8, seed=7)
DIMS = (16, 16, 8)


def _sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:24]


def _registry_snapshot(registry):
    """``{metric: series}`` with every mapping in sorted order."""
    snapshot = {}
    for metric in registry.metrics():
        series = {
            key: sorted(cell.items()) if isinstance(cell, dict) else cell
            for key, cell in metric.series().items()
        }
        snapshot[metric.name] = sorted(series.items(), key=repr)
    return repr(sorted(snapshot.items()))


def _digests(engine, registry, record, tmp_path):
    events = engine.tracer.canonical()
    path = tmp_path / "trace.json"
    write_chrome_trace(events, str(path), title="golden")
    return {
        "chrome": _sha(path.read_bytes()),
        "registry": _sha(_registry_snapshot(registry)),
        "rows": _sha(repr(registry.to_rows())),
        "canonical": _sha(repr(events)),
        "record": _sha(record.to_json()),
    }


def _observed_mlp(tmp_path):
    registry = MetricsRegistry()
    engine = SimEngine(16, trace=True, metrics=registry)
    _, _, sim = distributed_mlp_train(
        MLPParams.init(DIMS, seed=1), X, Y,
        pr=4, pc=4, batch=32, steps=2, engine=engine,
    )
    record = mlp_run_record(engine, sim, dims=DIMS, pr=4, pc=4, batch=32, steps=2)
    return engine, registry, _digests(engine, registry, record, tmp_path)


def _observed_elastic(tmp_path):
    """A crash at step 3: the fault, span and ``hb`` branches of the sink."""
    registry = MetricsRegistry()
    plan = FaultPlan(seed=9, crashes=(Crash(rank=1, at_step=3),))
    result = elastic_mlp_train(
        MLPParams.init(DIMS, seed=2), X, Y,
        pr=2, pc=4, batch=16, steps=6, checkpoint_every=2,
        engine=SimEngine(8, trace=True, metrics=registry, faults=plan, supervise=True),
    )
    assert result.restore_steps == [2] and result.sim.failed == (1,)
    record = elastic_run_record(result, batch=16, steps=6, checkpoint_every=2)
    return result.engine, registry, _digests(result.engine, registry, record, tmp_path)


RUNNERS = {"mlp-4x4": _observed_mlp, "elastic-2x4": _observed_elastic}

#: case -> artifact -> digest.
GOLDEN = {
    "mlp-4x4": {
        "chrome": "d7daff3ef80b22de0bd00496",
        "registry": "199053a70f2980366fdd9537",
        "rows": "b43206e806d9c553df95fc58",
        "canonical": "18ef7f718d251f04a3790ff0",
        "record": "97a6daef7e2a4ebe38e1a6f8",
    },
    "elastic-2x4": {
        "chrome": "1c4c0b64bd8edc23d421393c",
        "registry": "be3f781e960871693fb2fcd6",
        "rows": "ddaa5f89e00a6b1db545f68b",
        "canonical": "e184abc37494fd1982254af3",
        "record": "05b7df5663d2631b40474f09",
    },
}


@pytest.mark.parametrize("case", sorted(RUNNERS))
def test_observed_run_digests_are_pinned(case, tmp_path):
    _, _, digests = RUNNERS[case](tmp_path)
    assert digests == GOLDEN[case], (case, digests)


def test_elastic_case_reaches_every_sink_branch(tmp_path):
    _, registry, _ = _observed_elastic(tmp_path)
    names = {m.name for m in registry.metrics()}
    assert {
        "comm.messages", "comm.recv_seconds", "span.seconds", "faults.events",
        "hb.count", "hb.step", "hb.loss", "coll.calls", "clock.seconds",
    } <= names


class TestTraceEventContract:
    """``TraceEvent`` is a value: what callers may rely on."""

    FULL = (3, "send", 1, 64, 0.5, 0.75, (7,), 56, ("step", "fwd[layer=0]"), 8)

    def test_positional_and_keyword_construction_agree(self):
        names = (
            "rank", "op", "peer", "nbytes", "t_start", "t_end",
            "tag", "data_bytes", "span", "guard_bytes",
        )
        a = TraceEvent(*self.FULL)
        b = TraceEvent(**dict(zip(names, self.FULL)))
        c = TraceEvent(*self.FULL[:6], data_bytes=56, guard_bytes=8,
                       tag=(7,), span=("step", "fwd[layer=0]"))
        assert a == b == c
        assert tuple(getattr(a, n) for n in names) == self.FULL

    def test_defaults(self):
        e = TraceEvent(0, "barrier", -1, 0, 1.0, 1.0)
        assert (e.tag, e.data_bytes, e.span, e.guard_bytes) == ((), 0, (), 0)

    def test_missing_required_field_is_a_type_error(self):
        with pytest.raises(TypeError):
            TraceEvent(0, "send", 1, 8, 0.0)

    def test_equality_and_hash_follow_every_field(self):
        a = TraceEvent(*self.FULL)
        assert a == TraceEvent(*self.FULL)
        assert hash(a) == hash(TraceEvent(*self.FULL))
        for i, other in enumerate((4, "recv", 2, 65, 0.25, 1.0, (8,), 0, (), 0)):
            fields = list(self.FULL)
            fields[i] = other
            assert a != TraceEvent(*fields), i
        assert a != self.FULL
        assert not (a == object())

    def test_usable_as_dict_key_and_set_member(self):
        a = TraceEvent(*self.FULL)
        slack = {a: 1.5}
        assert slack[TraceEvent(*self.FULL)] == 1.5
        assert len({a, TraceEvent(*self.FULL), TraceEvent(0, "recv", 1, 8, 0.0, 1.0)}) == 2

    def test_repr_text(self):
        assert repr(TraceEvent(*self.FULL)) == (
            "TraceEvent(rank=3, op='send', peer=1, nbytes=64, t_start=0.5, "
            "t_end=0.75, tag=(7,), data_bytes=56, span=('step', 'fwd[layer=0]'), "
            "guard_bytes=8)"
        )

    def test_is_fault(self):
        assert TraceEvent(0, "fault.crash", -1, 0, 0.0, 0.0).is_fault
        assert not TraceEvent(0, "send", 1, 8, 0.0, 1.0).is_fault
        assert TraceEvent.FAULT_PREFIX == "fault."

    def test_tracer_annotates_a_fresh_event_with_the_open_span(self):
        from repro.simmpi.tracing import Tracer
        from repro.telemetry.spans import span

        tracer = Tracer(enabled=True)
        with span("outer", step=1):
            tracer.record(TraceEvent(0, "send", 1, 8, 0.0, 1.0))
        assert tracer.events[0].span == ("outer[step=1]",)
