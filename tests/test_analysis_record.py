"""Tests for versioned RunRecords: build, validate, round-trip, all trainers."""

import dataclasses

import numpy as np
import pytest

from repro.analysis import (
    RUN_RECORD_SCHEMA,
    RunRecord,
    read_run_record,
    validate_run_record,
    write_run_record,
)
from repro.dist.train import MLPParams, distributed_mlp_train, mlp_run_record
from repro.errors import ConfigurationError
from repro.run import RunSpec, execute
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import Crash, FaultPlan

#: The elastic runs below: 8-10-6 on 2x2, a crash of rank 1 at step 3.
ELASTIC = RunSpec(
    trainer="elastic", size=(8, 10, 6), pr=2, pc=2, batch=8, steps=6, seed=3,
    faults=FaultPlan(seed=3, crashes=(Crash(rank=1, at_step=3),)),
)

DIMS = (12, 9, 5)


def _mlp_record(pr=2, pc=2, batch=8, steps=2, meta=None):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((DIMS[0], 4 * batch))
    y = rng.integers(0, DIMS[-1], 4 * batch)
    engine = SimEngine(pr * pc, trace=True)
    _, _, sim = distributed_mlp_train(
        MLPParams.init(DIMS, seed=0), x, y,
        pr=pr, pc=pc, batch=batch, steps=steps, engine=engine,
    )
    return mlp_run_record(
        engine, sim, dims=DIMS, pr=pr, pc=pc, batch=batch, steps=steps,
        meta=meta,
    )


class TestBuildAndValidate:
    def test_payload_validates(self):
        record = _mlp_record()
        validate_run_record(record.to_dict())  # must not raise

    def test_counters_present(self):
        record = _mlp_record()
        for key in ("dag_nodes", "dag_edges", "critical_events",
                    "idle_fraction", "imbalance", "straggler_rank"):
            assert key in record.counters
        assert record.counters["dag_nodes"] > 0

    def test_critical_bounded_by_makespan(self):
        record = _mlp_record()
        assert record.critical["length_s"] <= record.makespan_s

    def test_span_rows_shape(self):
        record = _mlp_record()
        names = [r["span"] for r in record.spans]
        assert "step" in names
        step = next(r for r in record.spans if r["span"] == "step")
        assert step["count"] > 0 and step["virtual_time_s"] > 0
        # Sends attribute to the innermost span (the collectives).
        assert any(r["sends"] > 0 and r["bytes"] > 0 for r in record.spans)


class TestRoundTrip:
    def test_json_round_trip_is_byte_identical(self):
        record = _mlp_record(meta={"label": "a"})
        text = record.to_json()
        again = RunRecord.from_json(text)
        assert again == record
        assert again.to_json() == text

    def test_file_round_trip(self, tmp_path):
        record = _mlp_record()
        path = write_run_record(record, str(tmp_path / "sub" / "rec.json"))
        assert read_run_record(path) == record

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_run_record(str(tmp_path / "absent.json"))

    def test_determinism_across_reruns(self):
        assert _mlp_record().to_json() == _mlp_record().to_json()


class TestValidatorRejects:
    def _payload(self):
        return _mlp_record().to_dict()

    def test_wrong_schema(self):
        payload = self._payload()
        payload["schema"] = "repro.analysis.record/v999"
        with pytest.raises(ConfigurationError, match="schema"):
            validate_run_record(payload)

    def test_missing_required_key(self):
        payload = self._payload()
        del payload["makespan_s"]
        with pytest.raises(ConfigurationError, match="missing key"):
            validate_run_record(payload)

    def test_unknown_key(self):
        payload = self._payload()
        payload["extra"] = 1
        with pytest.raises(ConfigurationError, match="unknown key"):
            validate_run_record(payload)

    def test_bad_grid(self):
        payload = self._payload()
        payload["grid"]["pr"] = 0
        with pytest.raises(ConfigurationError, match="grid.pr"):
            validate_run_record(payload)

    def test_broken_decomposition(self):
        payload = self._payload()
        payload["ranks"][0]["compute_s"] += 1.0
        with pytest.raises(ConfigurationError, match="wall"):
            validate_run_record(payload)

    def test_critical_exceeding_makespan(self):
        payload = self._payload()
        payload["critical"]["length_s"] = payload["makespan_s"] * 2 + 1.0
        with pytest.raises(ConfigurationError, match="exceeds makespan"):
            validate_run_record(payload)

    def test_not_json(self):
        with pytest.raises(ConfigurationError):
            RunRecord.from_json("{nope")


class TestConfigKey:
    def test_machine_and_meta_excluded(self):
        a = _mlp_record(meta={"commit": "abc"})
        b = dataclasses.replace(
            a, machine={**a.machine, "name": "other box"}, meta={}
        )
        assert a.config_key == b.config_key

    def test_config_changes_key(self):
        a = _mlp_record(steps=2)
        b = _mlp_record(steps=3)
        assert a.config_key != b.config_key


class TestEveryTrainerEmits:
    def test_train(self):
        record = _mlp_record()
        assert record.trainer == "train"
        assert record.config["dims"] == list(DIMS)

    def test_elastic_with_faults(self):
        record = execute(ELASTIC).record()
        validate_run_record(record.to_dict())
        assert record.trainer == "elastic"
        assert record.grid == {"pr": 2, "pc": 2}
        assert record.meta["failed_ranks"] == [1]
        assert record.meta["grids"][0] == [2, 2]

    def test_integrated(self):
        spec = RunSpec(trainer="integrated", size=(8,), pr=2, pc=2, seed=7)
        record = execute(spec).record()
        validate_run_record(record.to_dict())
        assert record.trainer == "integrated"
        assert record.config["image"] == [2, 8, 8]

    def test_summa2d(self):
        spec = RunSpec(trainer="summa", size=(8, 4, 6), pr=2, pc=2, seed=1)
        record = execute(spec).record()
        validate_run_record(record.to_dict())
        assert record.trainer == "summa2d"
        assert record.config == {"m": 8, "k": 4, "n": 6}

    def test_schema_tag(self):
        assert _mlp_record().to_dict()["schema"] == RUN_RECORD_SCHEMA


class TestCheckpointCounters:
    def _elastic_record(self, **spec_kw):
        return execute(dataclasses.replace(ELASTIC, **spec_kw)).record()

    def test_elastic_record_carries_ckpt_block(self):
        record = self._elastic_record()
        validate_run_record(record.to_dict())
        ckpt = record.ckpt
        # Marker events are per rank: one restore per survivor.
        assert ckpt["takes"] > 0 and ckpt["restores"] == 3
        assert ckpt["degraded"] == 0
        assert ckpt["stored_bytes"] > 0 and ckpt["fetched_bytes"] > 0
        # Replication stores the full state everywhere: strictly more.
        replicated = self._elastic_record(ckpt_mode="replicate")
        assert replicated.ckpt["stored_bytes"] > ckpt["stored_bytes"]

    def test_ckpt_block_round_trips(self):
        record = self._elastic_record()
        again = RunRecord.from_json(record.to_json())
        assert again.ckpt == record.ckpt
        assert again == record

    def test_untraced_runs_omit_ckpt(self):
        payload = _mlp_record().to_dict()
        assert "ckpt" not in payload

    def test_older_schemas_still_load(self):
        # Only v5 loads now: a v1-v4 tag is refused by name, not misread.
        payload = _mlp_record().to_dict()
        assert RunRecord.from_dict(dict(payload)) == _mlp_record()
        for old in ("v1", "v2", "v3", "v4"):
            older = dict(payload)
            older["schema"] = f"repro.analysis.record/{old}"
            with pytest.raises(ConfigurationError, match=old):
                RunRecord.from_dict(older)

    def test_validator_rejects_bad_ckpt(self):
        payload = self._elastic_record().to_dict()
        bad = dict(payload)
        bad["ckpt"] = {**payload["ckpt"], "mystery": 1}
        with pytest.raises(ConfigurationError, match="unknown"):
            validate_run_record(bad)
        bad = dict(payload)
        bad["ckpt"] = {**payload["ckpt"], "takes": -1}
        with pytest.raises(ConfigurationError):
            validate_run_record(bad)


class TestHealthBlock:
    def _faulty_record(self):
        from repro.observe.health import HealthConfig
        from repro.simmpi.faults import Straggler

        plan = FaultPlan(
            seed=5, stragglers=(Straggler(rank=0, factor=2.0),)
        )
        spec = dataclasses.replace(ELASTIC, pc=4, seed=5, faults=plan)
        return execute(spec).record(health_config=HealthConfig())

    def test_health_block_round_trips(self):
        record = self._faulty_record()
        assert record.health["counts"].get("straggler", 0) >= 1
        payload = record.to_dict()
        validate_run_record(payload)
        assert payload["health"]["events"]
        counts = {}
        for event in payload["health"]["events"]:
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        assert counts == payload["health"]["counts"]
        again = RunRecord.from_json(record.to_json())
        assert again.health == record.health
        assert again == record

    def test_healthy_run_omits_block(self):
        from repro.observe.health import HealthConfig

        rng = np.random.default_rng(0)
        x = rng.standard_normal((DIMS[0], 32))
        y = rng.integers(0, DIMS[-1], 32)
        engine = SimEngine(4, trace=True)
        _, _, sim = distributed_mlp_train(
            MLPParams.init(DIMS, seed=0), x, y,
            pr=2, pc=2, batch=8, steps=2, engine=engine,
        )
        record = mlp_run_record(
            engine, sim, dims=DIMS, pr=2, pc=2, batch=8, steps=2,
            health_config=HealthConfig(),
        )
        assert record.health == {}
        assert "health" not in record.to_dict()

    def test_no_config_means_no_health(self):
        assert "health" not in _mlp_record().to_dict()

    @pytest.mark.parametrize(
        "health",
        [
            {"mystery": 1},
            {"counts": {"not_a_kind": 1}},
            {"counts": {"stall": -1}},
            {"counts": []},
            {"events": {"kind": "stall"}},
            {"events": [{"kind": "stall", "rank": 0, "t_s": 1e-6,
                         "severity": "mild", "detail": "x"}]},
            {"events": [{"kind": "nope", "rank": 0, "t_s": 1e-6,
                         "severity": "crit", "detail": "x"}]},
            {"events": [{"kind": "stall", "rank": "zero", "t_s": 1e-6,
                         "severity": "crit", "detail": "x"}]},
        ],
    )
    def test_validator_rejects_bad_health(self, health):
        payload = _mlp_record().to_dict()
        payload["health"] = health
        with pytest.raises(ConfigurationError):
            validate_run_record(payload)
