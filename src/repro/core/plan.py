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

from repro.collectives.cost import (
    CollectiveCost,
    allgather_bruck,
    allreduce_ring,
    halo_exchange,
)
from repro.core.results import ResultTable
from repro.core.strategy import Placement, Strategy
from repro.errors import StrategyError
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


def build_iteration_plan(
    network: NetworkSpec,
    batch: float,
    strategy: Strategy,
    machine: MachineParams,
    *,
    exact_ring_latency: bool = False,
) -> IterationPlan:
    """Lay out the strategy's communication in issue order.

    With the default paper-convention latency the plan's total time
    equals the :func:`~repro.core.costs.integrated_cost` total exactly
    (tested) — it is the same cost, scheduled.  With
    ``exact_ring_latency=True`` the ring all-reduces charge their true
    ``2(P-1)`` message latency instead of the paper's ``2*ceil(log2 P)``,
    which is what the executable simulator produces — the setting the
    model-validation experiment uses.
    """
    strategy.check_matches(network)
    grid = strategy.grid
    pr, pc, p = grid.pr, grid.pc, grid.p
    local_batch = batch / pc
    steps: List[PlanStep] = []
    order = 0

    def ring(p_group, n):
        return allreduce_ring(p_group, n, machine, exact_latency=exact_ring_latency)

    def add(phase, layer, operation, collective, group, group_size, volume, cost, overlappable):
        nonlocal order
        if cost.total == 0.0 and volume == 0.0:
            return
        steps.append(
            PlanStep(
                phase, order, layer, operation, collective, group, group_size,
                volume, cost, overlappable,
            )
        )
        order += 1

    # ---- forward pass, in layer order ------------------------------------
    for layer, placement in zip(network.weighted_layers, strategy.placements):
        if placement is Placement.MODEL and pr > 1:
            n = local_batch * layer.d_out
            add(
                "forward", layer.name, "allgather(Y)", "bruck", "Pr", pr,
                n * (pr - 1) / pr, allgather_bruck(pr, n, machine),
                overlappable=False,  # the next layer's GEMM needs it now
            )
        elif placement is Placement.DOMAIN and pr > 1:
            n = local_batch * layer.in_shape.width * layer.in_shape.channels * layer.halo_rows
            if n > 0:
                add(
                    "forward", layer.name, "halo(X rows)", "pairwise", "neighbours", 2,
                    n, halo_exchange(n, machine),
                    overlappable=True,  # interior conv proceeds meanwhile
                )

    # ---- backward pass, reverse layer order --------------------------------
    for layer, placement in zip(
        reversed(network.weighted_layers), reversed(strategy.placements)
    ):
        if placement is Placement.MODEL:
            if pc > 1:
                n = layer.weights / pr
                add(
                    "backward", layer.name, "allreduce(dW)", "ring", "Pc", pc,
                    2 * n * (pc - 1) / pc, ring(pc, n),
                    overlappable=True,
                )
            if pr > 1 and layer.index > 1:
                n = local_batch * layer.d_in
                add(
                    "backward", layer.name, "allreduce(dX)", "ring", "Pr", pr,
                    2 * n * (pr - 1) / pr, ring(pr, n),
                    overlappable=True,
                )
        elif placement is Placement.DOMAIN:
            if pr > 1:
                n = (
                    local_batch
                    * layer.out_shape.width
                    * layer.out_shape.channels
                    * layer.halo_cols
                )
                if n > 0:
                    add(
                        "backward", layer.name, "halo(dX rows)", "pairwise",
                        "neighbours", 2, n, halo_exchange(n, machine),
                        overlappable=True,
                    )
            if p > 1:
                add(
                    "backward", layer.name, "allreduce(dW)", "ring", "P", p,
                    2 * layer.weights * (p - 1) / p,
                    ring(p, layer.weights),
                    overlappable=True,
                )
        else:  # BATCH
            if p > batch:
                raise StrategyError(
                    f"layer {layer.name!r} placed pure batch with P={p} > B={batch}"
                )
            if p > 1:
                add(
                    "backward", layer.name, "allreduce(dW)", "ring", "P", p,
                    2 * layer.weights * (p - 1) / p,
                    ring(p, layer.weights),
                    overlappable=True,
                )

    return IterationPlan(strategy=strategy, batch=batch, steps=tuple(steps))
