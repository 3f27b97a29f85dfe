"""Tests for the host-time self-profiler (``repro.profile``).

The headline invariant — profiling never changes the run — is checked
bitwise; the rest covers session lifecycle,
attribution arithmetic (rows sum to wall by construction), the hook
counters, the exporters, the v5 RunRecord host block, and the
``resolve_engine`` coercion the CLI and trainers share.
"""

import json
import time

import numpy as np
import pytest

from repro.analysis.record import (
    HOST_COUNTER_KEYS,
    RUN_RECORD_SCHEMA,
    RunRecord,
    validate_run_record,
)
from repro.dist.summa2d import summa_train
from repro.dist.train import MLPParams, distributed_mlp_train, mlp_run_record
from repro.errors import ConfigurationError, ShapeError
from repro.profile import (
    OVERHEAD_BUDGET,
    ProfileSession,
    SUBSYSTEMS,
    active_session,
    collapsed_lines,
    host_block,
    write_collapsed,
    write_flamegraph_html,
    write_pprof_json,
)
from repro.profile import hooks as profile_hooks
from repro.profile.export import PPROF_SCHEMA
from repro.profile.sampler import Sampler
from repro.simmpi.engine import SimEngine, resolve_engine
from repro.simmpi.faults import FaultPlan

DIMS = (12, 10, 6)


def _train(trace=False, steps=2):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((DIMS[0], 16))
    y = rng.integers(0, DIMS[-1], 16)
    params0 = MLPParams.init(DIMS, seed=1)
    engine = SimEngine(4, trace=trace)
    weights, losses, sim = distributed_mlp_train(
        params0, x, y, pr=2, pc=2, batch=8, steps=steps, engine=engine,
    )
    return weights, losses, sim, engine


class TestBitIdentity:
    """Profiling is observability-only: outputs are bit-identical."""

    def test_profiled_equals_unprofiled(self):
        w0, l0, s0, e0 = _train(trace=True)
        with ProfileSession():
            w1, l1, s1, e1 = _train(trace=True)
        assert l0 == l1
        assert s0.clocks == s1.clocks
        assert all(a.tobytes() == b.tobytes() for a, b in zip(w0, w1))
        assert e0.tracer.canonical() == e1.tracer.canonical()


class TestSessionLifecycle:
    def test_bad_hz_rejected(self):
        with pytest.raises(ConfigurationError):
            ProfileSession(hz=0)
        with pytest.raises(ConfigurationError):
            ProfileSession(hz=-5)

    def test_bad_max_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            ProfileSession(max_samples=-1)

    def test_report_requires_closed_session(self):
        with pytest.raises(RuntimeError):
            ProfileSession().report()

    def test_single_use(self):
        session = ProfileSession()
        with session:
            pass
        with pytest.raises(RuntimeError):
            session.__enter__()

    def test_only_one_active_session_per_process(self):
        with ProfileSession():
            with pytest.raises(RuntimeError):
                ProfileSession().__enter__()
        # The failed enter must not have clobbered the hook slot.
        assert profile_hooks.ACTIVE is None

    def test_active_session_lookup(self):
        assert active_session() is None
        with ProfileSession() as session:
            assert active_session() is session
        assert active_session() is None


@pytest.fixture(scope="module")
def profiled():
    """One profiled traced run, shared across report tests.

    The trailing sleep is idle host time *inside* the profiled window:
    it guarantees the sampler lands ticks even when the training run
    itself finishes in a handful of milliseconds on a fast host.
    """
    session = ProfileSession(hz=499)
    with session:
        out = _train(trace=True, steps=3)
        time.sleep(0.08)
    return session, out


class TestReport:
    def test_rows_sum_to_wall_by_construction(self, profiled):
        session, _ = profiled
        report = session.report()
        assert report.ticks > 0
        assert report.attribution_total_s == pytest.approx(report.wall_s)
        assert {row["subsystem"] for row in report.rows} == set(SUBSYSTEMS)
        assert all(row["host_s"] >= 0.0 for row in report.rows)
        assert sum(row["share"] for row in report.rows) == pytest.approx(1.0)

    def test_hook_counters_saw_the_run(self, profiled):
        session, _ = profiled
        counters = session.report().counters
        assert counters["runs"] == 1
        assert counters["msgs_sent"] > 0
        assert counters["msgs_delivered"] > 0
        assert counters["switches"] > 0
        assert counters["trace_records"] > 0

    def test_derived_metrics(self, profiled):
        session, _ = profiled
        report = session.report()
        msgs = report.counters["msgs_sent"]
        assert report.us_per_msg_allin == pytest.approx(
            1e6 * report.wall_s / msgs
        )
        assert report.us_per_switch is not None and report.us_per_switch >= 0
        assert report.us_per_msg is not None and report.us_per_msg >= 0

    def test_overhead_measured_and_bounded(self, profiled):
        session, _ = profiled
        report = session.report()
        assert report.sampler_busy_s > 0
        # Loose sanity bound only: the precise <5% budget gate runs in
        # benchmarks/bench_profile.py over a long window; one short
        # session on a noisy host can wobble.
        assert 0.0 < report.overhead_frac < OVERHEAD_BUDGET * 3

    def test_to_dict_schema(self, profiled):
        session, _ = profiled
        payload = session.report().to_dict()
        assert payload["schema"] == "repro.profile.report/v1"
        assert payload["overhead_budget"] == OVERHEAD_BUDGET
        for key in ("wall_s", "ticks", "throttled", "rows", "counters",
                    "samples", "samples_dropped"):
            assert key in payload

    def test_samples_correlate_virtual_time(self, profiled):
        session, _ = profiled
        for sample in session.samples:
            d = sample.to_dict()
            assert d["subsystem"] in SUBSYSTEMS
            assert d["t_host_s"] >= 0.0
            assert d["weight"] > 0.0
            if d["t_virtual_s"] is not None:
                assert d["t_virtual_s"] >= 0.0

    def test_throttles_at_absurd_rates(self):
        session = ProfileSession(hz=100_000)
        with session:
            time.sleep(0.05)
        report = session.report()
        # The pacer must refuse to burn the budget chasing 100kHz.
        assert report.throttled > 0
        assert report.ticks > 0


class TestHostBlock:
    def test_empty_for_fresh_engine(self):
        assert host_block(SimEngine(2)) == {}

    def test_wall_only_for_unprofiled_run(self):
        _, _, _, engine = _train()
        block = host_block(engine)
        assert set(block) == {"wall_s"}
        assert block["wall_s"] > 0

    def test_counters_for_profiled_run(self, profiled):
        session, (_, _, _, engine) = profiled
        block = host_block(engine)
        assert set(block) == {"wall_s"} | set(HOST_COUNTER_KEYS)
        assert block["samples"] == session.ticks
        assert block["samples_dropped"] == session.samples_dropped

    def test_run_record_round_trip(self, profiled):
        _, (_, _, sim, engine) = profiled
        record = mlp_run_record(
            engine, sim, dims=DIMS, pr=2, pc=2, batch=8, steps=3,
            host=host_block(engine),
        )
        payload = record.to_dict()
        assert payload["schema"] == RUN_RECORD_SCHEMA
        validate_run_record(payload)
        again = RunRecord.from_dict(payload)
        assert again.host == record.host

    def test_host_block_is_opt_in(self, profiled):
        _, (_, _, sim, engine) = profiled
        record = mlp_run_record(engine, sim, dims=DIMS, pr=2, pc=2,
                                batch=8, steps=3)
        assert record.host == {}
        assert "host" not in record.to_dict()

    @pytest.mark.parametrize("host", [
        {"wall_s": -1.0},
        {"samples": -1},
        {"samples": 1.5},
        {"mystery": 3},
    ])
    def test_invalid_host_blocks_rejected(self, profiled, host):
        _, (_, _, sim, engine) = profiled
        payload = mlp_run_record(
            engine, sim, dims=DIMS, pr=2, pc=2, batch=8, steps=3,
        ).to_dict()
        payload["host"] = host
        with pytest.raises(ConfigurationError):
            validate_run_record(payload)


class TestSampler:
    def test_each_tick_carries_one_weight_unit(self):
        sampler = Sampler(profile_hooks.HookCounters(), hz=100.0, max_samples=10)
        for _ in range(3):
            sampler.sample_once()
        assert sampler.ticks == 3
        assert sum(sampler.subsystem_weight.values()) == pytest.approx(3.0)

    def test_sample_cap_drops_detail_not_attribution(self):
        sampler = Sampler(profile_hooks.HookCounters(), hz=100.0, max_samples=0)
        sampler.sample_once()
        # The calling thread is busy in this very function, so a detail
        # record was attempted and dropped — but the aggregate weight
        # and collapsed stack were kept.
        assert sampler.ticks == 1
        assert sampler.samples == []
        assert sampler.samples_dropped >= 1
        assert sum(sampler.subsystem_weight.values()) == pytest.approx(1.0)
        assert sampler.collapsed

    def test_hook_run_bookkeeping(self):
        hooks = profile_hooks.HookCounters()
        hooks.note_run_start(None)
        assert hooks.runs == 1 and hooks.runs_active == 1
        hooks.note_run_end(None)
        hooks.note_run_end(None)  # never goes negative
        assert hooks.runs_active == 0
        hooks.note_switches(5)
        assert hooks.counters()["switches"] == 5


class TestExport:
    COLLAPSED = {
        ("a.py:f", "b.py:g"): 1.5,
        ("a.py:f",): 0.25,
        ("z.py:h",): 0.0001,  # rounds to zero milliticks
    }

    def test_collapsed_lines(self):
        assert collapsed_lines(self.COLLAPSED) == [
            "a.py:f 250",
            "a.py:f;b.py:g 1500",
        ]

    def test_write_collapsed(self, tmp_path):
        path = tmp_path / "collapsed.txt"
        assert write_collapsed(self.COLLAPSED, str(path)) == 2
        assert path.read_text().splitlines() == collapsed_lines(self.COLLAPSED)

    def test_flamegraph_html(self, tmp_path):
        path = tmp_path / "flame.html"
        write_flamegraph_html(self.COLLAPSED, str(path), subtitle="2 ticks")
        doc = path.read_text()
        assert doc.startswith("<!doctype html>")
        assert "<script" not in doc  # self-contained, no JS
        assert "a.py:f" in doc and "b.py:g" in doc
        assert "2 ticks" in doc

    def test_flamegraph_empty(self, tmp_path):
        path = tmp_path / "flame.html"
        write_flamegraph_html({}, str(path))
        assert "(no busy samples recorded)" in path.read_text()

    def test_pprof_json(self, tmp_path):
        collapsed = {("a.py:f", "b.py:g"): 1.5, ("a.py:f",): 0.25}
        path = tmp_path / "pprof.json"
        payload = write_pprof_json(collapsed, str(path), period_ns=2_000_000)
        assert payload["schema"] == PPROF_SCHEMA
        assert json.loads(path.read_text()) == payload
        functions = {f["id"]: f for f in payload["function"]}
        locations = {loc["id"]: loc for loc in payload["location"]}
        assert len(functions) == 2 and len(locations) == 2
        for sample in payload["sample"]:
            assert all(lid in locations for lid in sample["location"])
        # Location IDs are leaf-first: the two-frame stack leads with g.
        deep = next(s for s in payload["sample"] if len(s["location"]) == 2)
        leaf = functions[locations[deep["location"][0]]["function"]]
        assert leaf["name"] == "g" and leaf["filename"] == "b.py"
        assert deep["value"] == [1500, 3_000_000]


class TestResolveEngine:
    def test_unknown_backend_lists_valid_ones(self):
        with pytest.raises(ConfigurationError) as err:
            resolve_engine("gpu", 4)
        msg = str(err.value)
        assert "'gpu'" in msg
        assert "thread" in msg and "event" in msg

    @pytest.mark.parametrize("name", ["thread", "event"])
    def test_backend_names_coerce(self, name):
        engine = resolve_engine(name, 4)
        assert isinstance(engine, SimEngine) and engine.size == 4

    def test_none_builds_event_default(self):
        engine = resolve_engine(None, 3)
        assert isinstance(engine, SimEngine) and engine.size == 3

    def test_prebuilt_engine_passes_through(self):
        engine = SimEngine(4)
        assert resolve_engine(engine, 4) is engine

    def test_prebuilt_size_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine(SimEngine(4), 6)

    @pytest.mark.parametrize("name,value", [("faults", FaultPlan(seed=0))])
    def test_prebuilt_engine_rejects_configuration_it_would_drop(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name}= conflicts"):
            resolve_engine(SimEngine(4), 4, **{name: value})

    def test_prebuilt_engine_must_be_supervised_when_required(self):
        with pytest.raises(ConfigurationError, match="supervise=True"):
            resolve_engine(SimEngine(4), 4, supervise=True)
        engine = SimEngine(4, supervise=True)
        assert resolve_engine(engine, 4, supervise=True) is engine


class TestSummaTrain:
    def _ab(self):
        rng = np.random.default_rng(0)
        return rng.standard_normal((8, 12)), rng.standard_normal((12, 6))

    def test_matches_numpy(self):
        a, b = self._ab()
        c, sim, engine = summa_train(a, b, pr=2, pc=2)
        assert isinstance(engine, SimEngine)
        np.testing.assert_allclose(c, a @ b, rtol=1e-12, atol=1e-12)

    def test_profiled_bit_identical(self):
        a, b = self._ab()
        c0, s0, e0 = summa_train(a, b, pr=2, pc=2, engine=SimEngine(4, trace=True))
        with ProfileSession():
            c1, s1, e1 = summa_train(
                a, b, pr=2, pc=2, engine=SimEngine(4, trace=True)
            )
        assert c0.tobytes() == c1.tobytes()
        assert s0.clocks == s1.clocks
        assert e0.tracer.canonical() == e1.tracer.canonical()

    def test_nonconforming_shapes_rejected(self):
        a, b = self._ab()
        with pytest.raises(ShapeError):
            summa_train(a, b[:-1], pr=2, pc=2)
