"""Fig. 10: scaling beyond the batch limit with domain parallelism.

Pure batch parallelism stops at ``P = B`` (one sample per process).
The paper fixes ``B = 512`` and scales to ``P = 4096`` by splitting
each image into 1/2/4/8 domain parts for the convolutional layers while
the FC layers use the 1.5D model+batch layout.  Using model parallelism
for the *convolutional* layers instead is shown to be the worse way to
scale past the limit (the early-layer all-gather volume is huge).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.costs import integrated_cost
from repro.core.overlap import overlapped_time_from_breakdown
from repro.core.simulate import SimulationPoint
from repro.core.strategy import ProcessGrid, Strategy
from repro.core.results import ResultTable
from repro.errors import StrategyError
from repro.experiments.common import ExperimentResult, Setting, default_setting
from repro.report.charts import stacked_bar_chart
from repro.search import default_engine

__all__ = ["run", "DEFAULT_PROCESSES", "DEFAULT_BATCH"]

DEFAULT_BATCH = 512
DEFAULT_PROCESSES: Tuple[int, ...] = (512, 1024, 2048, 4096)


def _point(setting: Setting, batch: int, strategy: Strategy) -> SimulationPoint:
    return default_engine().simulate_epoch(
        setting.network,
        batch,
        strategy,
        setting.machine,
        setting.compute,
        dataset_size=setting.dataset.train_images,
    )


def _halo_share(setting: Setting, batch: int, grid: ProcessGrid) -> float:
    """Per-process halo volume over the conv all-gather volume it replaces.

    Conv-domain and same-grid model layouts differ only in the conv
    layers, so the replaced volume is the difference of their forward
    all-gather volumes (Eqs. 3 and 9 on one grid).
    """
    net, m = setting.network, setting.machine
    model, domain = (
        integrated_cost(net, batch, family(net, grid), m)
        for family in (Strategy.same_grid_model, Strategy.conv_domain_fc_model)
    )
    gather = [sum(t.volume for t in c.filter("model.allgather_fwd").terms) for c in (model, domain)]
    return sum(t.volume for t in domain.filter("domain.").terms) / (gather[0] - gather[1])


def run(
    setting: Setting | None = None,
    processes: Sequence[int] = DEFAULT_PROCESSES,
    batch: int = DEFAULT_BATCH,
) -> ExperimentResult:
    setting = setting or default_setting()
    net = setting.network

    result = ExperimentResult(
        "fig10",
        "Domain parallelism extends the strong-scaling limit",
        (
            "with B=512, pure batch stops at P=512; splitting each image into "
            "2/4/8 domain parts (P=1024/2048/4096) keeps reducing epoch time, "
            "and does so more cheaply than using model parallelism in the "
            "convolutional layers"
        ),
    )
    table = ResultTable(f"B = {batch}: strategies per process count (epoch seconds)")
    chart_labels: List[str] = []
    chart_segs: List[dict] = []
    shares: List[int] = []  # halo share (%) of each domain point past P = B

    for p in processes:
        candidates: List[Tuple[str, SimulationPoint]] = []
        # (a) pure batch — only feasible while P <= B.
        if p <= batch:
            candidates.append(
                ("pure batch", _point(setting, batch, Strategy.same_grid_model(net, ProcessGrid(1, p))))
            )
        # (b) best same-grid model+batch (Pc capped at B).
        try:
            mb_points = default_engine().evaluate_grids(
                net, batch, p, setting.machine, setting.compute,
                family=Strategy.same_grid_model,
                dataset_size=setting.dataset.train_images,
            )
            candidates.append(("model+batch (best grid)", min(mb_points, key=lambda x: x.total_epoch)))
        except StrategyError:
            pass
        # (c) integrated batch+domain+model: convs split into P/B domain
        # parts, batch fully spread (Pc = B), FCs 1.5D on the same grid.
        if p % batch == 0 or p <= batch:
            pr = max(1, p // batch)
            pc = p // pr
            strategy = Strategy.conv_domain_fc_model(net, ProcessGrid(pr, pc))
            candidates.append((f"domain x{pr} + batch + model", _point(setting, batch, strategy)))
            if p > batch:
                shares.append(round(100 * _halo_share(setting, batch, strategy.grid)))

        for name, pt in candidates:
            # Category-aware overlap (Sec. 2.4's blocking-vs-non-blocking
            # argument): the forward all-gather stays on the critical
            # path; halos and backward all-reduces hide under backprop.
            bd = default_engine().integrated_cost(
                setting.network, batch, pt.strategy, setting.machine
            )
            overlapped = (
                overlapped_time_from_breakdown(bd, pt.iteration.compute_time)
                * pt.iterations_per_epoch
            )
            table.add_row(
                P=p,
                strategy=name,
                grid=pt.label,
                compute_s=pt.compute_epoch,
                comm_s=pt.comm_epoch,
                batch_comm_s=pt.batch_comm_epoch,
                total_s=pt.total_epoch,
                total_overlapped_s=overlapped,
            )
            chart_labels.append(f"P={p} {name}")
            chart_segs.append(
                {
                    "compute": pt.compute_epoch,
                    "comm(model/domain)": pt.comm_epoch - pt.batch_comm_epoch,
                    "comm(batch allreduce)": pt.batch_comm_epoch,
                }
            )

    result.tables.append(table)
    result.charts.append(
        stacked_bar_chart(chart_labels, chart_segs, title=f"Scaling beyond B={batch}")
    )

    # Headline: does total epoch time keep falling past P = B with domain?
    domain_rows = [r for r in table.rows if r["strategy"].startswith("domain")]
    if len(domain_rows) >= 2:
        first, last = domain_rows[0], domain_rows[-1]
        result.notes.append(
            "measured: domain-integrated epoch time falls from "
            f"{first['total_s']:.1f}s at P={first['P']} to {last['total_s']:.1f}s "
            f"at P={last['P']} (scaling continues beyond P=B={batch})"
        )
    shares.sort()
    note = (
        "reproduction nuance: under the literal non-overlapped Eq. 9, the "
        "conv-model grids total lower than conv-domain here because domain "
        "parallelism replicates all conv weights across P (full-|W| "
        "all-reduce); the paper's preference for domain rests on the halo "
        "being non-blocking/overlappable while the model all-gather is "
        "blocking (Sec. 2.4)"
    )
    if shares:
        span = f"{shares[0]}" if shares[0] == shares[-1] else f"{shares[0]}–{shares[-1]}"
        note += (
            f" — the per-process halo volume itself is {span}% of the "
            "all-gather volume it replaces"
        )
    result.notes.append(note)
    return result
