"""Versioned, schema-validated run records.

A :class:`RunRecord` is the durable artifact of one traced run: which
trainer ran, on what configuration, machine and grid, how long each
span took, how each rank's time decomposed, and the critical-path
digest — everything ``repro diff`` needs to decide whether a later run
regressed, in one JSON file.  Because all timings are *virtual*, a
record is bit-stable across hosts: two runs of the same program on the
same fault plan produce byte-identical payloads (minus the free-form
``meta`` block), which is what lets ``repro diff`` gate a fresh run
against a committed baseline at zero tolerance.

The schema is versioned (:data:`RUN_RECORD_SCHEMA`, ``v5``); readers
reject every other version instead of misinterpreting it, and
:func:`validate_run_record` checks the structural invariants every
consumer relies on (required keys, types, per-rank decomposition
consistency).

Optional blocks
---------------
Each is omitted from the payload when empty, so a clean run's record
carries none of them.

``sdc``
    Silent-data-corruption counters (``injected`` / ``detected`` /
    ``corrected`` / ``recomputed`` / ``escaped``) plus the total
    digest-escort bytes of ABFT-guarded runs, derived from the
    ``fault.*`` trace events.
``ckpt``
    Checkpoint-subsystem counters (``takes`` / ``restores`` /
    ``degraded`` / ``stored_bytes`` / ``fetched_bytes``), derived from
    the zero-duration ``ckpt.*`` marker events of
    :mod:`repro.dist.elastic` summed over all ranks.
``health``
    The deterministic :func:`~repro.observe.health.evaluate_health`
    verdict over the trace: per-kind counts plus the raised
    :class:`~repro.observe.health.HealthEvent` rows.  ``repro diff``
    ignores it (health is observability, not comparability).
``host``
    *Host-side* wall-clock of the run (``wall_s``) plus, under the
    self profiler (:mod:`repro.profile`), its sampler tick and drop
    counters (``samples`` / ``samples_dropped``).  The one deliberately
    machine-dependent quantity, so it is opt-in
    (``build_run_record(..., host=...)``, typically fed by
    :func:`repro.profile.host_block`) and ``repro diff`` ignores it.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.machine.params import MachineParams
from repro.simmpi.tracing import TraceEvent

__all__ = [
    "RUN_RECORD_SCHEMA",
    "SDC_COUNTER_KEYS",
    "CKPT_COUNTER_KEYS",
    "HOST_COUNTER_KEYS",
    "RunRecord",
    "validate_run_record",
    "build_run_record",
    "read_run_record",
    "write_run_record",
]

RUN_RECORD_SCHEMA = "repro.analysis.record/v5"

#: The ``sdc`` block's counter keys (all non-negative integers).
SDC_COUNTER_KEYS = ("injected", "detected", "corrected", "recomputed", "escaped")

#: The ``ckpt`` block's counter keys (all non-negative integers,
#: summed over all ranks): checkpoint takes, census restores, restores
#: that had to *degrade* to an older step, bytes of checkpoint state
#: stored, and bytes of shards fetched during recovery.
CKPT_COUNTER_KEYS = (
    "takes",
    "restores",
    "degraded",
    "stored_bytes",
    "fetched_bytes",
)

#: key -> (required, type check) for the top-level payload.
_TOP_LEVEL: Dict[str, Tuple[bool, type]] = {
    "schema": (True, str),
    "trainer": (True, str),
    "config": (True, dict),
    "machine": (True, dict),
    "grid": (True, dict),
    "makespan_s": (True, (int, float)),
    "spans": (True, list),
    "ranks": (True, list),
    "critical": (True, dict),
    "counters": (True, dict),
    "dropped": (True, int),
    "sdc": (False, dict),
    "ckpt": (False, dict),
    "health": (False, dict),
    "host": (False, dict),
    "meta": (False, dict),
}

#: The ``host`` block's integer counter keys; ``wall_s`` is the
#: only float-valued member.
HOST_COUNTER_KEYS = ("samples", "samples_dropped")

_SPAN_KEYS = ("span", "count", "virtual_time_s", "sends", "bytes")
_RANK_KEYS = ("rank", "wall_s", "compute_s", "comm_s", "wait_s")

#: Absolute tolerance for the per-rank decomposition identity check.
_DECOMP_TOL = 1e-9


def _validate_health_block(health: Dict[str, Any]) -> None:
    """Structural checks for the ``health`` block (empty is fine)."""
    from repro.observe.health import HEALTH_KINDS

    for key in set(health) - {"counts", "events"}:
        raise ConfigurationError(f"health block has unknown key {key!r}")
    counts = health.get("counts", {})
    if not isinstance(counts, dict):
        raise ConfigurationError("health.counts must be an object")
    for kind, value in counts.items():
        if kind not in HEALTH_KINDS:
            raise ConfigurationError(f"health.counts has unknown kind {kind!r}")
        if not isinstance(value, int) or value < 0:
            raise ConfigurationError(
                f"health.counts.{kind} must be a non-negative integer, got {value!r}"
            )
    events = health.get("events", [])
    if not isinstance(events, list):
        raise ConfigurationError("health.events must be a list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ConfigurationError(f"health.events[{i}] is not an object")
        if ev.get("kind") not in HEALTH_KINDS:
            raise ConfigurationError(
                f"health.events[{i}].kind must be one of {tuple(HEALTH_KINDS)!r}, "
                f"got {ev.get('kind')!r}"
            )
        if ev.get("severity") not in ("warn", "crit"):
            raise ConfigurationError(
                f"health.events[{i}].severity must be 'warn' or 'crit', "
                f"got {ev.get('severity')!r}"
            )
        if not isinstance(ev.get("rank"), int):
            raise ConfigurationError(f"health.events[{i}].rank must be an integer")
        if not isinstance(ev.get("t_s"), (int, float)):
            raise ConfigurationError(f"health.events[{i}].t_s must be a number")
        if not isinstance(ev.get("detail"), str):
            raise ConfigurationError(f"health.events[{i}].detail must be a string")
        if "step" in ev and not isinstance(ev["step"], int):
            raise ConfigurationError(f"health.events[{i}].step must be an integer")


def validate_run_record(payload: Any) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` on a bad payload.

    Checks the schema tag, required keys and their types, the span and
    rank row shapes, and that every rank row satisfies
    ``compute + comm + wait == wall`` to within float tolerance — the
    invariant :func:`~repro.analysis.accounting.rank_accounting`
    guarantees and ``repro diff`` relies on.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("run record must be a JSON object")
    if payload.get("schema") != RUN_RECORD_SCHEMA:
        raise ConfigurationError(
            f"run record schema must be {RUN_RECORD_SCHEMA!r}, "
            f"got {payload.get('schema')!r}"
        )
    for key, (required, types) in _TOP_LEVEL.items():
        if key not in payload:
            if required:
                raise ConfigurationError(f"run record missing key {key!r}")
            continue
        if not isinstance(payload[key], types):
            raise ConfigurationError(
                f"run record key {key!r} has type "
                f"{type(payload[key]).__name__}, expected {types}"
            )
    for extra in set(payload) - set(_TOP_LEVEL):
        raise ConfigurationError(f"run record has unknown key {extra!r}")
    grid = payload["grid"]
    for key in ("pr", "pc"):
        if not isinstance(grid.get(key), int) or grid[key] < 1:
            raise ConfigurationError(f"grid.{key} must be a positive integer")
    for i, row in enumerate(payload["spans"]):
        if not isinstance(row, dict):
            raise ConfigurationError(f"spans[{i}] is not an object")
        for key in _SPAN_KEYS:
            if key not in row:
                raise ConfigurationError(f"spans[{i}] missing key {key!r}")
    for i, row in enumerate(payload["ranks"]):
        if not isinstance(row, dict):
            raise ConfigurationError(f"ranks[{i}] is not an object")
        for key in _RANK_KEYS:
            if not isinstance(row.get(key), (int, float)):
                raise ConfigurationError(
                    f"ranks[{i}].{key} must be a number, got {row.get(key)!r}"
                )
        residual = row["wall_s"] - row["compute_s"] - row["comm_s"] - row["wait_s"]
        if abs(residual) > _DECOMP_TOL * max(1.0, abs(row["wall_s"])):
            raise ConfigurationError(
                f"ranks[{i}]: compute + comm + wait != wall "
                f"(residual {residual:.3e})"
            )
    for key, value in payload.get("sdc", {}).items():
        if key not in SDC_COUNTER_KEYS and key != "guard_bytes":
            raise ConfigurationError(f"sdc block has unknown counter {key!r}")
        if not isinstance(value, int) or value < 0:
            raise ConfigurationError(
                f"sdc.{key} must be a non-negative integer, got {value!r}"
            )
    for key, value in payload.get("ckpt", {}).items():
        if key not in CKPT_COUNTER_KEYS:
            raise ConfigurationError(f"ckpt block has unknown counter {key!r}")
        if not isinstance(value, int) or value < 0:
            raise ConfigurationError(
                f"ckpt.{key} must be a non-negative integer, got {value!r}"
            )
    for key, value in payload.get("host", {}).items():
        if key == "wall_s":
            if not isinstance(value, (int, float)) or value < 0:
                raise ConfigurationError(
                    f"host.wall_s must be a non-negative number, got {value!r}"
                )
        elif key in HOST_COUNTER_KEYS:
            if not isinstance(value, int) or value < 0:
                raise ConfigurationError(
                    f"host.{key} must be a non-negative integer, got {value!r}"
                )
        else:
            raise ConfigurationError(f"host block has unknown key {key!r}")
    _validate_health_block(payload.get("health", {}))
    critical = payload["critical"]
    if not isinstance(critical.get("length_s"), (int, float)):
        raise ConfigurationError("critical.length_s must be a number")
    if critical["length_s"] > payload["makespan_s"] + _DECOMP_TOL:
        raise ConfigurationError(
            f"critical path {critical['length_s']} exceeds makespan "
            f"{payload['makespan_s']}"
        )


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One traced run, ready to serialize, compare, and gate on."""

    trainer: str
    config: Dict[str, Any]
    machine: Dict[str, Any]
    grid: Dict[str, int]
    makespan_s: float
    spans: Tuple[Dict[str, Any], ...]
    ranks: Tuple[Dict[str, Any], ...]
    critical: Dict[str, Any]
    counters: Dict[str, Any]
    #: Trace events lost while recording.  Always ``0`` for records
    #: built here (the tracer stores every event); kept in the file
    #: format, and a read record with a non-zero count is refused as a
    #: :mod:`repro.analysis.diff` baseline.
    dropped: int = 0
    meta: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: SDC counters of a fault-injected / ABFT-guarded run;
    #: empty — and omitted from the payload — when nothing happened.
    sdc: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Checkpoint counters of an elastic run; empty — and omitted
    #: from the payload — when the run never checkpointed.
    ckpt: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Deterministic health verdict over the trace: per-kind
    #: counts plus the raised HealthEvent rows; empty — and omitted —
    #: for healthy runs.
    health: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Host-side wall clock and profiler sample counters; empty —
    #: and omitted — unless the builder was handed a host block
    #: (records stay bit-stable across machines by default).
    host: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def config_key(self) -> Tuple:
        """What must match for two records to be diffable."""
        return (
            self.trainer,
            tuple(sorted((k, repr(v)) for k, v in self.config.items())),
            self.grid["pr"],
            self.grid["pc"],
        )

    def span_row(self, name: str) -> Optional[Dict[str, Any]]:
        for row in self.spans:
            if row["span"] == name:
                return row
        return None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": RUN_RECORD_SCHEMA,
            "trainer": self.trainer,
            "config": dict(self.config),
            "machine": dict(self.machine),
            "grid": dict(self.grid),
            "makespan_s": self.makespan_s,
            "spans": [dict(r) for r in self.spans],
            "ranks": [dict(r) for r in self.ranks],
            "critical": dict(self.critical),
            "counters": dict(self.counters),
            "dropped": self.dropped,
        }
        if self.sdc:
            payload["sdc"] = dict(self.sdc)
        if self.ckpt:
            payload["ckpt"] = dict(self.ckpt)
        if self.health:
            payload["health"] = {
                "counts": dict(self.health.get("counts", {})),
                "events": [dict(e) for e in self.health.get("events", [])],
            }
        if self.host:
            payload["host"] = dict(self.host)
        if self.meta:
            payload["meta"] = dict(self.meta)
        return payload

    def to_json(self) -> str:
        payload = self.to_dict()
        validate_run_record(payload)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunRecord":
        validate_run_record(payload)
        return cls(
            trainer=payload["trainer"],
            config=dict(payload["config"]),
            machine=dict(payload["machine"]),
            grid={k: int(v) for k, v in payload["grid"].items()},
            makespan_s=float(payload["makespan_s"]),
            spans=tuple(dict(r) for r in payload["spans"]),
            ranks=tuple(dict(r) for r in payload["ranks"]),
            critical=dict(payload["critical"]),
            counters=dict(payload["counters"]),
            dropped=int(payload["dropped"]),
            meta=dict(payload.get("meta", {})),
            sdc={k: int(v) for k, v in payload.get("sdc", {}).items()},
            ckpt={k: int(v) for k, v in payload.get("ckpt", {}).items()},
            health=dict(payload.get("health", {})),
            host=dict(payload.get("host", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid run record: {exc}") from exc
        return cls.from_dict(payload)


def _machine_dict(machine: Optional[MachineParams]) -> Dict[str, Any]:
    from repro.machine.params import cori_knl

    m = machine if machine is not None else cori_knl()
    return {
        "name": m.name,
        "alpha_s": m.alpha,
        "bandwidth_bytes_s": m.bandwidth,
        "element_bytes": m.element_bytes,
    }


def build_run_record(
    events: Sequence[TraceEvent],
    *,
    trainer: str,
    config: Dict[str, Any],
    pr: int,
    pc: int,
    clocks: Optional[Sequence[float]] = None,
    machine: Optional[MachineParams] = None,
    meta: Optional[Dict[str, Any]] = None,
    health_config: Optional[Any] = None,
    host: Optional[Dict[str, Any]] = None,
) -> RunRecord:
    """Assemble a :class:`RunRecord` from a trace.

    Runs the accounting and critical-path analyses over ``events`` and
    packages their machine-readable digests together with the run's
    configuration.  ``config`` must be JSON-serializable; ``meta`` is a
    free-form block (labels, commit ids) excluded from comparability.

    When the trace shows SDC activity (injected bit flips or ABFT
    digest escorts), the ``sdc`` block is derived from the
    ``fault.*`` events; clean unguarded traces produce no block at
    all.  Likewise, ``ckpt.take``/``ckpt.restore``/``ckpt.degraded``
    marker events of elastic runs yield the ``ckpt`` counter block,
    and the deterministic health replay
    (:func:`~repro.observe.health.evaluate_health`, tunable via
    ``health_config``) yields the ``health`` block — omitted when
    no rule fired.  ``host`` is the opt-in host-time block
    (typically :func:`repro.profile.host_block` of the engine that
    ran); it is the one machine-dependent field, so builders never
    fill it implicitly.
    """
    from repro.analysis.accounting import rank_accounting
    from repro.analysis.critical import critical_path
    from repro.telemetry.summary import span_totals

    accounting = rank_accounting(events, clocks=clocks)
    cp = critical_path(events, clocks=clocks)
    counters = {
        "dag_nodes": cp.graph.n_nodes,
        "dag_edges": cp.graph.n_edges,
        "critical_events": len(cp.path),
        "idle_fraction": accounting.idle_fraction,
        "imbalance": accounting.imbalance,
        "straggler_rank": accounting.straggler_rank,
    }
    # One pass for the rare markers instead of one scan per counter.
    ops: Dict[str, int] = {}
    stored = fetched = guard_bytes = 0
    for e in events:
        op = e.op
        if op == "send":
            guard_bytes += e.guard_bytes
        elif op != "recv":
            ops[op] = ops.get(op, 0) + 1
            if op == "ckpt.take":
                stored += int(e.tag[2])
            elif op == "ckpt.restore":
                fetched += int(e.tag[2])
    ckpt: Dict[str, int] = {}
    if ops.get("ckpt.take") or ops.get("ckpt.restore"):
        ckpt = {
            "takes": ops.get("ckpt.take", 0),
            "restores": ops.get("ckpt.restore", 0),
            "degraded": ops.get("ckpt.degraded", 0),
            "stored_bytes": stored,
            "fetched_bytes": fetched,
        }
    injected = ops.get("fault.bitflip", 0)
    detected = ops.get("fault.sdc_detected", 0)
    sdc: Dict[str, int] = {}
    if injected or guard_bytes:
        sdc = {
            "injected": injected,
            "detected": detected,
            "corrected": ops.get("fault.sdc_corrected", 0),
            # Recomputed GEMM blocks plus retransmitted payloads: both
            # are "redo the work" recoveries.
            "recomputed": (
                ops.get("fault.sdc_recomputed", 0)
                + ops.get("fault.sdc_retransmit", 0)
            ),
            # A flip nobody detected escaped into the run silently.
            "escaped": max(0, injected - detected),
            "guard_bytes": guard_bytes,
        }
    from repro.observe.health import evaluate_health

    health_report = evaluate_health(events, health_config)
    health = health_report.to_dict() if health_report.events else {}
    return RunRecord(
        trainer=trainer,
        config=dict(config),
        machine=_machine_dict(machine),
        grid={"pr": int(pr), "pc": int(pc)},
        makespan_s=max(accounting.makespan_s, cp.makespan_s),
        spans=tuple(span_totals(events)),
        ranks=tuple(a.to_dict() for a in accounting.accounts),
        critical=cp.summary(),
        counters=counters,
        meta=dict(meta or {}),
        sdc=sdc,
        ckpt=ckpt,
        health=health,
        host=dict(host or {}),
    )


def read_run_record(path: str) -> RunRecord:
    """Load and validate a record file (:class:`ConfigurationError` on failure)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return RunRecord.from_json(fh.read())
    except OSError as exc:
        raise ConfigurationError(f"cannot read run record {path!r}: {exc}") from exc


def write_run_record(record: RunRecord, path: str) -> str:
    """Serialize ``record`` to ``path`` (validating on the way out)."""
    import os

    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(record.to_json())
    return path
