"""Shared experiment scaffolding: the fixed setting of Table 1 and the
result container every experiment returns."""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.core.results import ResultTable
from repro.core.simulate import SimulationPoint
from repro.data.imagenet import IMAGENET_LSVRC_2012, ImageNetMeta
from repro.machine.compute import ComputeModel
from repro.machine.params import MachineParams, cori_knl
from repro.nn.alexnet import alexnet
from repro.nn.network import NetworkSpec

__all__ = ["Setting", "default_setting", "ExperimentResult", "points_to_rows"]


@dataclasses.dataclass(frozen=True)
class Setting:
    """The fixed options of Table 1: network, dataset, platform, compute."""

    network: NetworkSpec
    dataset: ImageNetMeta
    machine: MachineParams
    compute: ComputeModel

    @property
    def iterations_per_epoch(self):
        return self.dataset.iterations_per_epoch


def default_setting() -> Setting:
    """AlexNet + ImageNet + Cori-KNL, exactly the paper's Table 1."""
    return Setting(
        network=alexnet(),
        dataset=IMAGENET_LSVRC_2012,
        machine=cori_knl(),
        compute=ComputeModel.knl_alexnet(),
    )


@dataclasses.dataclass
class ExperimentResult:
    """What an experiment produced, ready to print or export.

    ``paper_claim`` states what the paper reports for the corresponding
    table/figure; ``notes`` record the measured headline numbers plus
    any reproduction assumptions, giving EXPERIMENTS.md its
    paper-vs-measured pairs.
    """

    experiment_id: str
    title: str
    paper_claim: str
    tables: List[ResultTable] = dataclasses.field(default_factory=list)
    charts: List[str] = dataclasses.field(default_factory=list)
    notes: List[str] = dataclasses.field(default_factory=list)

    def render(self) -> str:
        parts = [f"=== {self.experiment_id}: {self.title} ===", ""]
        parts.append(f"Paper: {self.paper_claim}")
        for note in self.notes:
            parts.append(f"Note: {note}")
        for table in self.tables:
            parts += ["", table.to_ascii()]
        for chart in self.charts:
            parts += ["", chart]
        return "\n".join(parts)


def points_to_rows(
    points: Sequence[SimulationPoint], baseline: Optional[SimulationPoint] = None
) -> List[dict]:
    """Figure-style rows for a set of grid simulation points.

    ``baseline`` (normally the pure-batch ``1 x P`` point) adds the
    speedup columns the paper annotates on its best bars.
    """
    rows: List[dict] = []
    for pt in points:
        row = {
            "grid": pt.label,
            "P": pt.processes,
            "B": int(pt.batch),
            "compute_s": pt.compute_epoch,
            "comm_s": pt.comm_epoch,
            "batch_comm_s": pt.batch_comm_epoch,
            "total_s": pt.total_epoch,
        }
        if baseline is not None:
            # Degenerate zero-time points (e.g. free compute models in
            # tests) have no meaningful ratio — report None, not a crash.
            row["speedup_total"] = (
                baseline.total_epoch / pt.total_epoch if pt.total_epoch > 0 else None
            )
            row["speedup_comm"] = (
                baseline.comm_epoch / pt.comm_epoch if pt.comm_epoch > 0 else float("inf")
            )
        rows.append(row)
    return rows
