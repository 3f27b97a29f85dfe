"""Measured-vs-analytic communication audits (Eqs. 3/4/8).

The simulator *executes* the 1.5D algorithm of Fig. 5 while the cost
model *predicts* it in closed form; this module closes the loop.  It
runs (or consumes a trace of) distributed MLP training, aggregates the
measured per-step communication out of the span-annotated trace events,
and compares per layer and per category against
:func:`repro.core.costs.integrated_mb_cost`:

* **bandwidth terms** — measured payload *data* bytes summed over all
  ranks per step vs the analytic per-process volume times ``P``.  These
  match with **zero** relative error for any grid shape and any (even
  non-divisible) layer/batch split: e.g. a Bruck all-gather over ``Pr``
  ranks moves exactly ``(Pr-1)/Pr * n`` elements per process on
  average, so the group total is exactly ``(Pr-1) * n`` no matter how
  unevenly ``n`` splits.
* **latency terms** — measured message counts vs the round counts of
  the simulated algorithms (Bruck: ``ceil(log2 Pr)`` sends per rank;
  ring all-reduce: ``2 (P-1)`` sends per rank — the ``exact_latency``
  convention of :mod:`repro.collectives.cost`).

Pure model parallelism (``pc=1``) audits Eq. 3, pure batch (``pr=1``)
Eq. 4, and the general grid Eq. 8.  The Eq. 9 domain terms are
idealized-uniform in the paper (edge ranks exchange fewer halo rows
than interior ranks), so halos are reported by the summary/metrics
layers but not audited for exactness here.

SDC-guarded runs (``sdc=True``) add one ``abft.digest_*`` term per
audited collective: every guarded message carries an 8-byte checksum
digest (:class:`~repro.simmpi.sdc.GuardedPayload`), recorded on the
trace as :attr:`~repro.simmpi.tracing.TraceEvent.guard_bytes` and
predicted by :func:`repro.core.costs.sdc_guard_cost_terms`.  Because
the escort is metered separately from payload data bytes, the guarded
audit still closes with zero relative error — digest traffic is an
explicit term, never smeared into the data-volume comparison.
Auditing a guarded trace without ``sdc=True`` is a configuration
error (the digest traffic would silently go unaccounted).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.costs import integrated_mb_cost
from repro.core.results import ResultTable
from repro.core.strategy import ProcessGrid
from repro.errors import ConfigurationError
from repro.machine.params import MachineParams, cori_knl
from repro.simmpi.tracing import TraceEvent
from repro.telemetry.spans import base_name, parse_label

__all__ = [
    "AuditTerm",
    "AuditReport",
    "audit_events",
    "audit_checkpoint_events",
    "audit_mlp_15d",
    "PHASE_CATEGORY",
    "CKPT_SPAN_CATEGORY",
]

#: Trainer span name -> cost-model category (Eq. 8's three sums).
PHASE_CATEGORY = {
    "fwd": "model.allgather_fwd",
    "bwd_dx": "model.allreduce_dx",
    "bwd_dw": "batch.allreduce_dw",
}

#: The simulated payloads are float64 NumPy arrays.
SIM_ELEMENT_BYTES = 8

#: Checkpoint-subsystem span name -> cost-model category.  ``checkpoint``
#: spans resolve to ``ckpt.replicate`` or ``ckpt.parity`` by their
#: ``mode`` attribute.
CKPT_SPAN_CATEGORY = {
    "checkpoint": "ckpt.replicate",
    "ckpt_census": "ckpt.census",
    "ckpt_fetch": "ckpt.fetch",
}


@dataclasses.dataclass(frozen=True)
class AuditTerm:
    """One (layer, category) comparison, per training step, all ranks."""

    layer_index: int
    category: str
    predicted_bytes: float
    measured_bytes: float
    predicted_messages: float
    measured_messages: float

    @staticmethod
    def _rel(measured: float, predicted: float) -> float:
        if predicted == 0:
            return 0.0 if measured == 0 else math.inf
        return abs(measured - predicted) / predicted

    @property
    def bytes_rel_error(self) -> float:
        """Relative error of the bandwidth (volume) term."""
        return self._rel(self.measured_bytes, self.predicted_bytes)

    @property
    def messages_rel_error(self) -> float:
        """Relative error of the latency (message-count) term."""
        return self._rel(self.measured_messages, self.predicted_messages)


@dataclasses.dataclass(frozen=True)
class AuditReport:
    """All audit terms of one run, with the headline error figures."""

    terms: Tuple[AuditTerm, ...]
    pr: int
    pc: int
    batch: int
    steps: int

    @property
    def max_bandwidth_rel_error(self) -> float:
        return max((t.bytes_rel_error for t in self.terms), default=0.0)

    @property
    def max_latency_rel_error(self) -> float:
        return max((t.messages_rel_error for t in self.terms), default=0.0)

    @property
    def exact(self) -> bool:
        """True when every bandwidth term matched with zero error."""
        return self.max_bandwidth_rel_error == 0.0

    def to_table(self) -> ResultTable:
        title = (
            f"communication audit: measured vs Eq. 8 "
            f"({self.pr}x{self.pc} grid, B={self.batch}, per step, all ranks)"
        )
        table = ResultTable(
            title,
            columns=[
                "layer",
                "category",
                "predicted_bytes",
                "measured_bytes",
                "bytes_rel_err",
                "predicted_msgs",
                "measured_msgs",
                "msgs_rel_err",
            ],
        )
        for t in sorted(self.terms, key=lambda t: (t.layer_index, t.category)):
            table.add_row(
                layer=t.layer_index,
                category=t.category,
                predicted_bytes=round(t.predicted_bytes, 3),
                measured_bytes=t.measured_bytes,
                bytes_rel_err=t.bytes_rel_error,
                predicted_msgs=round(t.predicted_messages, 3),
                measured_msgs=t.measured_messages,
                msgs_rel_err=t.messages_rel_error,
            )
        return table


def _measured_phase_totals(
    events: Sequence[TraceEvent],
) -> Dict[Tuple[str, int], Tuple[int, int, int]]:
    """Sum send data bytes, counts and guard bytes per (phase, layer).

    Only ``send`` events are counted (each message once); the owning
    phase is the innermost enclosing span whose base name is a trainer
    phase (``fwd``/``bwd_dx``/``bwd_dw``).  Guard bytes are the SDC
    digest escorts riding those messages — zero on unguarded runs.
    """
    totals: Dict[Tuple[str, int], Tuple[int, int, int]] = {}
    for e in events:
        if e.op != "send":
            continue
        for label in reversed(e.span):
            name = base_name(label)
            if name in PHASE_CATEGORY:
                layer = parse_label(label)[1].get("layer", -1)
                key = (name, int(layer))
                nbytes, count, guard = totals.get(key, (0, 0, 0))
                totals[key] = (
                    nbytes + e.data_bytes, count + 1, guard + e.guard_bytes
                )
                break
    return totals


def _predicted_messages(category: str, pr: int, pc: int) -> int:
    """Per-step send count over all ``P = pr*pc`` ranks for one term.

    Counts match the algorithms the simulator actually runs: Bruck
    all-gather sends ``ceil(log2 Pr)`` messages per rank, the ring
    all-reduce ``2 (group-1)`` per rank.
    """
    p = pr * pc
    if category == "model.allgather_fwd":
        return p * math.ceil(math.log2(pr))
    if category == "model.allreduce_dx":
        return p * 2 * (pr - 1)
    if category == "batch.allreduce_dw":
        return p * 2 * (pc - 1)
    raise ConfigurationError(f"no message-count model for category {category!r}")


def audit_events(
    events: Sequence[TraceEvent],
    dims: Sequence[int],
    *,
    pr: int,
    pc: int,
    batch: int,
    steps: int,
    machine: Optional[MachineParams] = None,
    sdc: bool = False,
) -> AuditReport:
    """Audit an existing trace of :func:`repro.dist.train.mlp_train_program`.

    ``dims`` are the MLP layer sizes the trace was produced with;
    measured totals are averaged over ``steps`` (they are identical
    every step) and compared against Eq. 8 for the same configuration.
    ``sdc=True`` audits the ABFT digest escorts of a guarded run against
    :func:`repro.core.costs.sdc_guard_cost_terms` as separate
    ``abft.digest_*`` terms.
    """
    from repro.core.costs import ABFT_DIGEST_CATEGORY, sdc_guard_cost_terms
    from repro.nn import mlp

    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    machine = machine if machine is not None else cori_knl()
    network = mlp(list(dims))
    grid = ProcessGrid(pr, pc)
    breakdown = integrated_mb_cost(network, batch, grid, machine)
    measured = _measured_phase_totals(events)
    p = pr * pc
    category_phase = {v: k for k, v in PHASE_CATEGORY.items()}
    terms = []
    seen = set()
    for cost_term in breakdown.terms:
        phase = category_phase[cost_term.category]
        # Trainer spans number layers from 0; weighted layers from 1.
        key = (phase, cost_term.layer_index - 1)
        seen.add(key)
        meas_bytes, meas_msgs, _ = measured.get(key, (0, 0, 0))
        terms.append(
            AuditTerm(
                layer_index=cost_term.layer_index,
                category=cost_term.category,
                predicted_bytes=cost_term.volume * p * SIM_ELEMENT_BYTES,
                measured_bytes=meas_bytes / steps,
                predicted_messages=_predicted_messages(cost_term.category, pr, pc),
                measured_messages=meas_msgs / steps,
            )
        )
    stray = set(measured) - seen
    if stray:
        raise ConfigurationError(
            f"trace contains phase traffic the cost model does not predict: "
            f"{sorted(stray)}"
        )
    guard_traffic = sum(g for _, _, g in measured.values())
    if guard_traffic and not sdc:
        raise ConfigurationError(
            f"trace carries {guard_traffic} bytes of SDC digest escorts but "
            "the audit was asked for an unguarded run; pass sdc=True so the "
            "abft.digest_* terms account for them"
        )
    if sdc:
        # Digest escorts: one 8-byte checksum per guarded message,
        # predicted straight from the guard cost model (its per-rank
        # volume is the send count at one element per message).
        digest_phase = {v: category_phase[k] for k, v in ABFT_DIGEST_CATEGORY.items()}
        guard_terms = sdc_guard_cost_terms(network, batch, grid, machine)
        for cost_term in guard_terms.filter("abft.digest").terms:
            phase = digest_phase[cost_term.category]
            key = (phase, cost_term.layer_index - 1)
            _, _, meas_guard = measured.get(key, (0, 0, 0))
            pred_msgs = cost_term.volume * p
            terms.append(
                AuditTerm(
                    layer_index=cost_term.layer_index,
                    category=cost_term.category,
                    predicted_bytes=pred_msgs * SIM_ELEMENT_BYTES,
                    measured_bytes=meas_guard / steps,
                    predicted_messages=pred_msgs,
                    measured_messages=meas_guard / SIM_ELEMENT_BYTES / steps,
                )
            )
    return AuditReport(tuple(terms), pr=pr, pc=pc, batch=batch, steps=steps)


def _ckpt_span_instances(
    events: Sequence[TraceEvent],
) -> Dict[str, Dict[int, list]]:
    """Per family, per rank: the ``checkpoint``/``ckpt_census``/
    ``ckpt_fetch`` span instances, time-ordered, each paired with the
    measured (bytes, messages) of the sends it encloses."""
    spans: Dict[str, Dict[int, list]] = {name: {} for name in CKPT_SPAN_CATEGORY}
    for e in events:
        if e.op != "span" or not e.span:
            continue
        name = base_name(e.span[-1])
        if name in spans:
            attrs = dict(e.tag)
            spans[name].setdefault(e.rank, []).append(
                {"t0": e.t_start, "t1": e.t_end, "attrs": attrs,
                 "bytes": 0, "msgs": 0}
            )
    for per_rank in spans.values():
        for instances in per_rank.values():
            instances.sort(key=lambda inst: inst["t0"])
    unassigned = 0
    for e in events:
        if e.op != "send":
            continue
        for label in reversed(e.span):
            name = base_name(label)
            if name not in spans:
                continue
            hit = None
            for inst in spans[name].get(e.rank, ()):
                if inst["t0"] <= e.t_start <= inst["t1"]:
                    hit = inst
                    break
            if hit is None:
                unassigned += 1
            else:
                hit["bytes"] += e.data_bytes
                hit["msgs"] += 1
            break
    if unassigned:
        raise ConfigurationError(
            f"{unassigned} sends inside checkpoint spans could not be "
            "matched to a recorded span instance (partial trace?)"
        )
    return spans


def audit_checkpoint_events(
    events: Sequence[TraceEvent],
    dims: Sequence[int],
    *,
    pr: int = 0,
    pc: int = 0,
    batch: int = 0,
) -> AuditReport:
    """Audit checkpoint/recovery traffic of an elastic trace.

    Closes the loop on the ``ckpt.*`` cost terms
    (:func:`repro.core.costs.checkpoint_cost_terms` and
    :func:`~repro.core.costs.checkpoint_recovery_cost_terms`): every
    ``checkpoint`` span's gather traffic, every recovery's shard
    census and every erasure fetch is compared, summed over all ranks
    per event, against the closed forms — zero relative error on both
    bytes and message counts for any grid, any crash pattern and any
    parity.  Span instances are aligned across ranks by per-rank
    occurrence order (the trainer is SPMD, so survivors see the same
    sequence of takes and recoveries).

    ``pr``/``pc``/``batch`` are report metadata only (the initial grid);
    the per-event grids come from the span labels themselves.
    """
    from repro.core.costs import checkpoint_chunk_bytes

    num_layers = len(dims) - 1
    spans = _ckpt_span_instances(events)
    terms = []

    def _grouped(family: str, keyer):
        """Align instances across ranks: (key attrs, per-rank ordinal)."""
        groups: Dict[tuple, list] = {}
        for instances in spans[family].values():
            ordinals: Dict[tuple, int] = {}
            for inst in instances:
                key = keyer(inst["attrs"])
                j = ordinals.get(key, 0)
                ordinals[key] = j + 1
                groups.setdefault((key, j), []).append(inst)
        return groups

    # --- checkpoint takes -------------------------------------------------
    take_groups = _grouped(
        "checkpoint",
        lambda a: (a.get("step"), a.get("mode"), a.get("pr"),
                   a.get("pc"), a.get("mom")),
    )
    for (key, _j), insts in sorted(take_groups.items(), key=lambda kv: kv[0][0]):
        step, mode, g_pr, g_pc, mom = key
        meas_bytes = sum(i["bytes"] for i in insts)
        meas_msgs = sum(i["msgs"] for i in insts)
        if mode == "erasure":
            pred_bytes, pred_msgs = 0.0, 0.0
            category = "ckpt.parity"
        else:
            state = sum(dims[i + 1] * dims[i] for i in range(num_layers))
            state *= SIM_ELEMENT_BYTES * (2 if mom else 1)
            pred_bytes = g_pc * (g_pr - 1) * state if g_pr > 1 else 0.0
            pred_msgs = (
                (2 if mom else 1) * num_layers
                * g_pr * g_pc * math.ceil(math.log2(g_pr))
                if g_pr > 1 else 0.0
            )
            category = "ckpt.replicate"
        terms.append(
            AuditTerm(
                layer_index=int(step),
                category=category,
                predicted_bytes=pred_bytes,
                measured_bytes=meas_bytes,
                predicted_messages=pred_msgs,
                measured_messages=meas_msgs,
            )
        )

    # --- recovery: shard census ------------------------------------------
    census_groups = _grouped("ckpt_census", lambda a: ())
    for (_key, j), insts in sorted(census_groups.items(), key=lambda kv: kv[0][1]):
        s = len(insts)
        held_bytes = sum(
            i["attrs"].get("held", 0) * 8 * SIM_ELEMENT_BYTES for i in insts
        )
        terms.append(
            AuditTerm(
                layer_index=j,
                category="ckpt.census",
                predicted_bytes=(s - 1) * held_bytes,
                measured_bytes=sum(i["bytes"] for i in insts),
                predicted_messages=s * math.ceil(math.log2(s)) if s > 1 else 0.0,
                measured_messages=sum(i["msgs"] for i in insts),
            )
        )

    # --- recovery: erasure shard fetch -----------------------------------
    fetch_groups = _grouped(
        "ckpt_fetch",
        lambda a: (a.get("step"), a.get("prt"), a.get("k"),
                   a.get("r"), a.get("mom")),
    )
    for (key, j), insts in sorted(
        fetch_groups.items(), key=lambda kv: (kv[0][1], kv[0][0][0])
    ):
        step, prt, k, _r, mom = key
        s = len(insts)
        chunk = checkpoint_chunk_bytes(
            tuple(dims), pr=int(prt), k=int(k), momentum=bool(mom)
        )
        # One fetched shard = 16-byte (row, col) header + chunk payload
        # + the loss history (one float per completed step).
        shard_bytes = 16 + chunk + SIM_ELEMENT_BYTES * int(step)
        have = sum(i["attrs"].get("have", 0) for i in insts)
        terms.append(
            AuditTerm(
                layer_index=int(step),
                category="ckpt.fetch",
                predicted_bytes=(s - 1) * have * shard_bytes,
                measured_bytes=sum(i["bytes"] for i in insts),
                predicted_messages=s * math.ceil(math.log2(s)) if s > 1 else 0.0,
                measured_messages=sum(i["msgs"] for i in insts),
            )
        )
    return AuditReport(tuple(terms), pr=pr, pc=pc, batch=batch, steps=1)


def audit_mlp_15d(
    dims: Sequence[int],
    *,
    pr: int,
    pc: int,
    batch: int,
    steps: int = 2,
    samples: Optional[int] = None,
    machine: Optional[MachineParams] = None,
    seed: int = 0,
    sdc=None,
) -> Tuple[AuditReport, Tuple[TraceEvent, ...]]:
    """Run traced 1.5D MLP training and audit it against Eq. 8.

    Returns ``(report, events)`` so callers (the CLI, the tests) can
    also export the trace.  The training run is deterministic in
    ``seed``.  ``sdc`` (a policy mode / policy / guard) turns on the
    ABFT guards for the run and audits their digest escorts too.
    """
    from repro.dist.train import MLPParams, mlp_train_program
    from repro.simmpi.engine import SimEngine

    n = samples if samples is not None else 4 * batch
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dims[0], n))
    y = rng.integers(0, dims[-1], n)
    params0 = MLPParams.init(dims, seed=seed)
    engine = SimEngine(pr * pc, machine, trace=True)
    engine.run(
        mlp_train_program, params0, x, y,
        pr=pr, pc=pc, batch=batch, steps=steps, sdc=sdc,
    )
    events = engine.tracer.events
    report = audit_events(
        events, dims, pr=pr, pc=pc, batch=batch, steps=steps, machine=machine,
        sdc=sdc is not None,
    )
    return report, events
