"""Measured-vs-analytic communication audits (Eqs. 3/4/8).

The simulator *executes* the 1.5D algorithm of Fig. 5 while the cost
model *predicts* it in closed form; this module closes the loop.  It
consumes the trace of a distributed MLP training run (for example
``execute(RunSpec(...)).engine.tracer.canonical()``, see
:mod:`repro.run`), aggregates the measured per-step communication out
of the span-annotated trace events,
and compares per layer and per category against
:func:`repro.core.costs.integrated_mb_cost`:

* **bandwidth terms** — measured payload *data* bytes summed over all
  ranks per step vs the analytic per-process volume times ``P``.  These
  match with **zero** relative error for any grid shape and any (even
  non-divisible) layer/batch split: e.g. a Bruck all-gather over ``Pr``
  ranks moves exactly ``(Pr-1)/Pr * n`` elements per process on
  average, so the group total is exactly ``(Pr-1) * n`` no matter how
  unevenly ``n`` splits.
  Predicted totals are computed in exact arithmetic (the cost model is
  evaluated at a :class:`~fractions.Fraction` batch), so no rounding of
  a per-process share stands between the two.
* **latency terms** — measured message counts vs each term's
  ``cost.messages`` (the per-rank send count of the simulated
  algorithm: Bruck ``ceil(log2 Pr)``, ring all-reduce ``2 (P-1)``)
  times ``P``.

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
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

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
    """Audit an existing trace of :func:`repro.dist.train.distributed_mlp_train`.

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
    breakdown = integrated_mb_cost(network, Fraction(batch), grid, machine)
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
                predicted_bytes=float(cost_term.volume * p * SIM_ELEMENT_BYTES),
                measured_bytes=meas_bytes / steps,
                predicted_messages=cost_term.cost.messages * p,
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
    from repro.core.costs import checkpoint_cost_terms, checkpoint_recovery_cost_terms

    dims = tuple(dims)
    machine = cori_knl()  # only volumes and send counts are audited
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

    def _add(index: int, category: str, breakdown, p: int, insts) -> None:
        """Compare the wire traffic of ``breakdown`` over ``p`` ranks (its
        terms that send messages; the erasure take's stored chunk does
        not) with what ``insts`` measured."""
        sent = [t for t in breakdown.terms if t.cost.messages]
        terms.append(
            AuditTerm(
                layer_index=index,
                category=category,
                predicted_bytes=float(sum(t.volume for t in sent) * p * SIM_ELEMENT_BYTES),
                measured_bytes=sum(i["bytes"] for i in insts),
                predicted_messages=sum(t.cost.messages for t in sent) * p,
                measured_messages=sum(i["msgs"] for i in insts),
            )
        )

    # --- checkpoint takes -------------------------------------------------
    take_groups = _grouped(
        "checkpoint",
        lambda a: (a.get("step"), a.get("mode"), a.get("pr"),
                   a.get("pc"), a.get("mom")),
    )
    for (key, _j), insts in sorted(take_groups.items(), key=lambda kv: kv[0][0]):
        step, mode, g_pr, g_pc, mom = key
        take = checkpoint_cost_terms(
            dims, pr=g_pr, pc=g_pc, machine=machine, momentum=bool(mom), mode=mode
        )
        category = "ckpt.parity" if mode == "erasure" else "ckpt.replicate"
        _add(int(step), category, take, g_pr * g_pc, insts)

    # --- recovery: shard census ------------------------------------------
    census_groups = _grouped("ckpt_census", lambda a: ())
    for (_key, j), insts in sorted(census_groups.items(), key=lambda kv: kv[0][1]):
        s = len(insts)
        census = checkpoint_recovery_cost_terms(
            survivors=s, held=tuple(i["attrs"].get("held", 0) for i in insts),
            machine=machine,
        )
        _add(j, "ckpt.census", census, s, insts)

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
        recovery = checkpoint_recovery_cost_terms(
            survivors=s, held=(0,) * s, machine=machine, dims=dims, step=int(step),
            pr=int(prt), k=int(k), momentum=bool(mom),
            have=tuple(i["attrs"].get("have", 0) for i in insts),
        )
        _add(int(step), "ckpt.fetch", recovery.filter("ckpt.fetch"), s, insts)
    return AuditReport(tuple(terms), pr=pr, pc=pc, batch=batch, steps=1)
