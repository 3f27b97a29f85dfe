"""Execution plans: the ordered communication schedule of one iteration.

The cost models aggregate; a *plan* lays the same terms out in the order
a real implementation issues them — forward pass layer by layer
(redistributions, halo exchanges, all-gathers), then the backward pass
(activation-gradient and weight-gradient all-reduces) — with each
operation's collective, communicator scope, volume and alpha-beta time.
This is what an engineer adopting the strategy would turn into MPI
calls, and what `repro best --plan` prints.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.collectives.cost import CollectiveCost
from repro.core.costs import integrated_cost
from repro.core.overlap import BLOCKING_CATEGORIES
from repro.core.results import ResultTable
from repro.core.strategy import Placement, Strategy
from repro.machine.params import MachineParams
from repro.nn.network import NetworkSpec

__all__ = ["PlanStep", "IterationPlan", "build_iteration_plan"]


@dataclasses.dataclass(frozen=True)
class PlanStep:
    """One communication operation in the iteration schedule."""

    phase: str          # "forward" | "backward"
    order: int          # position within the schedule
    layer: str
    operation: str      # e.g. "allgather(Y)", "allreduce(dW)"
    collective: str     # algorithm name
    group: str          # communicator scope: "Pr", "Pc", "P", "neighbours"
    group_size: int
    volume_elements: float
    cost: CollectiveCost
    overlappable: bool  # can hide behind compute (paper Sec. 2.4 / Fig. 8)

    @property
    def time(self) -> float:
        return self.cost.total


@dataclasses.dataclass(frozen=True)
class IterationPlan:
    """The full ordered schedule plus aggregate views."""

    strategy: Strategy
    batch: float
    steps: Tuple[PlanStep, ...]

    @property
    def total_time(self) -> float:
        return sum(s.time for s in self.steps)

    @property
    def blocking_time(self) -> float:
        """Time in steps that sit on the forward critical path."""
        return sum(s.time for s in self.steps if not s.overlappable)

    def to_table(self) -> ResultTable:
        table = ResultTable(
            f"Iteration plan: grid {self.strategy.grid}, B = {self.batch:g}"
        )
        for s in self.steps:
            table.add_row(
                order=s.order,
                phase=s.phase,
                layer=s.layer,
                operation=s.operation,
                collective=s.collective,
                group=f"{s.group}({s.group_size})",
                volume=s.volume_elements,
                time_s=s.time,
                overlappable=s.overlappable,
            )
        return table


#: Cost category -> (phase, position within one layer's phase, operation,
#: collective).  Backward, a layer's halo goes first, then dW, then dX.
_SCHEDULE = {
    "domain.halo_fwd": ("forward", 0, "halo(X rows)", "pairwise"),
    "model.allgather_fwd": ("forward", 1, "allgather(Y)", "bruck"),
    "domain.halo_bwd": ("backward", 0, "halo(dX rows)", "pairwise"),
    "batch.allreduce_dw": ("backward", 1, "allreduce(dW)", "ring"),
    "model.allreduce_dx": ("backward", 2, "allreduce(dX)", "ring"),
}


def build_iteration_plan(
    network: NetworkSpec,
    batch: float,
    strategy: Strategy,
    machine: MachineParams,
) -> IterationPlan:
    """Lay out the strategy's communication in issue order.

    The steps are the :func:`~repro.core.costs.integrated_cost` terms,
    put in order: the forward pass in layer order, then the backward
    pass in reverse layer order.  The plan's total time is therefore
    the cost model's total exactly -- it is the same cost, scheduled.
    """
    grid = strategy.grid
    placement = {
        layer.index: pl for layer, pl in zip(network.weighted_layers, strategy.placements)
    }

    def slot(term):
        phase, position = _SCHEDULE[term.category][:2]
        if phase == "forward":
            return (0, term.layer_index, position)
        return (1, -term.layer_index, position)

    terms = sorted(integrated_cost(network, batch, strategy, machine).terms, key=slot)
    steps: List[PlanStep] = []
    for order, term in enumerate(terms):
        phase, _, operation, collective = _SCHEDULE[term.category]
        if collective == "pairwise":
            group, group_size = "neighbours", 2
        elif term.category != "batch.allreduce_dw":
            group, group_size = "Pr", grid.pr
        elif placement[term.layer_index] is Placement.MODEL:
            group, group_size = "Pc", grid.pc
        else:
            group, group_size = "P", grid.p
        steps.append(
            PlanStep(
                phase, order, term.layer, operation, collective, group, group_size,
                term.volume, term.cost, term.category not in BLOCKING_CATEGORIES,
            )
        )
    return IterationPlan(strategy=strategy, batch=batch, steps=tuple(steps))
