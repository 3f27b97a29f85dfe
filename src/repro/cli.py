"""Command-line interface: ``repro list`` / ``repro run <id> [--out DIR]``.

Examples::

    repro list                      # enumerate experiments
    repro run fig7                  # print Fig. 7's tables and bars
    repro run all --out results/    # regenerate everything, export files
    repro summary                   # network + machine summary
    repro best --batch 2048 --processes 512        # optimizer front-end
    repro best -B 512 -P 4096 --network vgg16 --max-memory-mb 256
    repro trace --experiment fig7 --pr 4 --pc 2 --out trace-out --assert-exact
    repro trace --traffic --record run.json          # analysis + RunRecord
    repro diff benchmarks/RECORD_baseline.json run.json   # regression gate

Simulations run on simmpi's discrete-event scheduler (no scheduler flag):
output is byte-identical run to run and a stall fails at once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, List, Optional

from repro.experiments.common import default_setting
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.report.export import export_results, write_text

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse ``type=`` for seeds: NumPy rejects negative ones."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _option(*names, **kwargs) -> argparse.ArgumentParser:
    """A one-option parent parser, so an option shared by several
    commands is declared once."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose commands can take option defaults from
    the config object they configure.

    ``config_defaults`` returns ``{dest: default}``.  It is called when
    the command is parsed (``--help`` included), so no other command pays
    for importing the config's module.
    """

    def __init__(self, *args, config_defaults: Optional[Callable[[], dict]] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._config_defaults = config_defaults

    def parse_known_args(self, args=None, namespace=None):
        if self._config_defaults is not None:
            self.set_defaults(**self._config_defaults())
            self._config_defaults = None
        return super().parse_known_args(args, namespace)


def _watch_defaults() -> dict:
    from repro.observe.health import HealthConfig

    return {
        "stall_steps": HealthConfig.stall_steps,
        "straggler_factor": HealthConfig.straggler_factor,
    }


def _history_defaults() -> dict:
    from repro.observe.registry import DriftThresholds

    return {"min_history": DriftThresholds.min_history}


def _profile_defaults() -> dict:
    from repro.profile.session import DEFAULT_HZ

    return {"hz": DEFAULT_HZ}


def _diff_defaults() -> dict:
    from repro.analysis.diff import DiffThresholds

    return {
        "time_tol": DiffThresholds.time_rel,
        "bytes_tol": DiffThresholds.bytes_rel,
        "msgs_tol": DiffThresholds.msgs_rel,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description=(
            "Reproduction of 'Integrated Model, Batch, and Domain Parallelism "
            "in Training Neural Networks' (SPAA 2018)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def steps(default):
        return _option(
            "--steps", type=_positive_int, default=default,
            help=f"training steps, at least 1 (default {default})",
        )

    seed = _option(
        "--seed", type=_nonnegative_int, default=0, help="data/init seed (default 0)"
    )
    record = _option(
        "--record", default=None,
        help="write the run's versioned RunRecord JSON to this path",
    )
    as_json = _option(
        "--json", action="store_true",
        help="emit one machine-readable JSON object instead of tables",
    )
    out = _option("--out", default=None, help="directory for exported artifacts")
    registry = _option(
        "--registry", default="benchmarks/REGISTRY.jsonl",
        help="JSONL run registry (default: benchmarks/REGISTRY.jsonl)",
    )

    sub.add_parser("list", help="list available experiments").set_defaults(
        run=_run_list
    )

    run_p = sub.add_parser("run", parents=[out], help="run one experiment (or 'all')")
    run_p.add_argument("experiment", help="experiment id from 'repro list', or 'all'")
    run_p.add_argument("--quiet", action="store_true", help="suppress stdout rendering")
    run_p.set_defaults(run=_run_experiments)

    sub.add_parser("summary", help="print the Table-1 setting summary").set_defaults(
        run=_run_summary
    )

    best_p = sub.add_parser(
        "best", help="find the best parallelization strategy for (network, B, P)"
    )
    best_p.add_argument("-B", "--batch", type=int, required=True, help="global batch size")
    best_p.add_argument("-P", "--processes", type=int, required=True, help="process count")
    best_p.add_argument(
        "--network",
        default="alexnet",
        choices=["alexnet", "vgg16", "resnet_like", "mlp"],
        help="network spec (default: alexnet)",
    )
    best_p.add_argument(
        "--max-memory-mb",
        type=float,
        default=None,
        help="per-process memory cap in MB (Sec. 4 constraint)",
    )
    best_p.add_argument(
        "--max-pc",
        type=int,
        default=None,
        help="cap on batch-parallel width (large-batch accuracy concern)",
    )
    best_p.add_argument(
        "--overlap",
        action="store_true",
        help="assume perfect comm/backprop overlap (Fig. 8)",
    )
    best_p.add_argument(
        "--plan",
        action="store_true",
        help="print the ordered per-iteration communication schedule",
    )
    best_p.add_argument(
        "--cache-stats",
        action="store_true",
        help="print search-engine cache hit/miss statistics",
    )
    best_p.set_defaults(run=_run_best)

    faults_p = sub.add_parser(
        "faults",
        parents=[steps(8), seed, record, as_json],
        help="fault-injection demo: crash a rank mid-training, shrink, recover",
    )
    faults_p.add_argument(
        "--plan",
        default=None,
        help="JSON FaultPlan file (default: a built-in demo plan)",
    )
    faults_p.add_argument(
        "--ranks", type=int, default=4, help="world size (default 4)"
    )
    faults_p.add_argument(
        "--width", type=int, default=72, help="timeline width in columns"
    )
    faults_p.add_argument(
        "--sdc",
        default=None,
        choices=["detect", "correct", "recompute"],
        help="ABFT-guard the run against the plan's bit flips",
    )
    faults_p.set_defaults(run=_run_faults)

    sdc_p = sub.add_parser(
        "sdc",
        parents=[steps(3), seed, record],
        help=(
            "silent-data-corruption gauntlet: inject single bit flips into "
            "every GEMM site and payload path, verify the ABFT guards "
            "recover bit-identically (exit 0), detect without recovery "
            "(exit 1), or let corruption escape (exit 2)"
        ),
    )
    sdc_p.add_argument(
        "--policy",
        default="correct",
        choices=["detect", "correct", "recompute"],
        help="recovery policy for the guarded runs (default: correct)",
    )
    sdc_p.add_argument(
        "--no-guard",
        action="store_true",
        help="run the gauntlet unguarded (negative control: flips escape)",
    )
    sdc_p.set_defaults(run=_run_sdc)

    chaos_p = sub.add_parser(
        "chaos",
        parents=[steps(8), seed, out, as_json],
        help=(
            "chaos soak: run a gauntlet of crash/cascade/bit-flip/straggler "
            "fault plans against erasure-coded checkpoints and verify every "
            "survivable failure recovers bit-identically to full replication "
            "(exit 0), every unsurvivable one is *declared* (exit 1), and "
            "nothing ever diverges silently (exit 2); --out gets per-trial "
            "fault plans, RunRecords and the chaos_summary.json verdict"
        ),
    )
    chaos_p.add_argument(
        "--trials",
        type=int,
        default=3,
        help="extra randomized single-crash trials after the gauntlet (default 3)",
    )
    chaos_p.add_argument(
        "--parity",
        type=int,
        default=1,
        help="parity shards per stripe for the baseline trials, 1 to 3 (default 1)",
    )
    chaos_p.add_argument(
        "--over-parity",
        action="store_true",
        help=(
            "include trials that exceed the parity budget (concurrent losses "
            "> r, dropped messages): these must be *declared*, so the sweep "
            "exits 1 by design"
        ),
    )
    chaos_p.set_defaults(run=_run_chaos)

    trace_p = sub.add_parser(
        "trace",
        parents=[steps(2), out, record],
        help=(
            "run a traced 1.5D training job, audit measured bytes against "
            "the Eq. 3/4/8 cost model, export a Chrome trace (trace.json) "
            "and the audit/metrics tables to --out"
        ),
    )
    trace_p.add_argument(
        "--experiment",
        default="mlp",
        choices=["mlp", "fig7"],
        help="network preset: 'mlp' (tiny) or 'fig7' (scaled-down AlexNet FC stack)",
    )
    trace_p.add_argument("--pr", type=_positive_int, default=2, help="model-parallel rows")
    trace_p.add_argument("--pc", type=_positive_int, default=2, help="batch-parallel columns")
    trace_p.add_argument("--batch", type=_positive_int, default=16, help="global batch size")
    trace_p.add_argument(
        "--per-rank", action="store_true", help="break the span summary out per rank"
    )
    trace_p.add_argument(
        "--assert-exact",
        action="store_true",
        help="exit non-zero unless the audit shows zero relative error",
    )
    trace_p.add_argument(
        "--traffic",
        action="store_true",
        help="print the rank-by-rank point-to-point traffic heatmap",
    )
    trace_p.add_argument(
        "--sdc",
        default=None,
        choices=["detect", "correct", "recompute"],
        help=(
            "run with ABFT guards on and audit their digest escorts as "
            "explicit abft.* cost-model terms"
        ),
    )
    trace_p.set_defaults(run=_run_trace)

    watch_p = sub.add_parser(
        "watch",
        parents=[steps(8), seed, record, as_json],
        config_defaults=_watch_defaults,
        help=(
            "run a training scenario, then judge its trace with the health "
            "rules: heartbeats and rule firings (stall, straggler, loss NaN/"
            "divergence, comm-wait spike, ckpt degradation) are replayed in "
            "scheduler order, then the verdict table; exit 0 healthy / "
            "1 warnings / 2 critical"
        ),
    )
    watch_p.add_argument(
        "--scenario",
        default="straggler",
        choices=["clean", "straggler", "crash", "degrade", "diverge"],
        help="what to run and judge (default: straggler)",
    )
    watch_p.add_argument(
        "--quiet", action="store_true",
        help="suppress per-heartbeat lines; show only health alerts",
    )
    watch_p.add_argument(
        "--stall-steps", type=int,
        help="heartbeat lag that counts as a stall (default %(default)s)",
    )
    watch_p.add_argument(
        "--straggler-factor", type=float,
        help="per-step duration ratio over the median that flags a "
             "straggler (default %(default)s)",
    )
    watch_p.add_argument(
        "--registry",
        default=None,
        help="append the run's metrics to this JSONL run registry",
    )
    watch_p.set_defaults(run=_run_watch)

    history_p = sub.add_parser(
        "history",
        parents=[registry, as_json],
        config_defaults=_history_defaults,
        help=(
            "regression observatory over the run registry: per-series "
            "metric trends against rolling median + MAD bands; exit 0 ok / "
            "1 warnings / 2 drift"
        ),
    )
    history_p.add_argument(
        "--min-history", type=int,
        help="baseline entries required before a series gates (default %(default)s)",
    )
    history_p.add_argument(
        "--series", default=None,
        help="only judge series whose key contains this substring",
    )
    history_p.set_defaults(run=_run_history)

    ingest_p = sub.add_parser(
        "ingest",
        parents=[registry],
        help=(
            "append RunRecord / BENCH result JSON files to the run registry "
            "(auto-detected by schema tag)"
        ),
    )
    ingest_p.add_argument(
        "paths", nargs="+", help="RunRecord or BENCH JSON files to ingest"
    )
    ingest_p.set_defaults(run=_run_ingest)

    dash_p = sub.add_parser(
        "dash",
        parents=[registry],
        help=(
            "render the run registry as a static HTML dashboard: "
            "sparklines, per-cost-term trend heatmap, health-event "
            "timelines; no external assets"
        ),
    )
    dash_p.add_argument(
        "--out", default="dash.html", help="output HTML path (default dash.html)"
    )
    dash_p.add_argument(
        "--records", nargs="*", default=(),
        help="RunRecord JSON files whose health events get timelines",
    )
    dash_p.set_defaults(run=_run_dash)

    profile_p = sub.add_parser(
        "profile",
        parents=[steps(4), out, record, as_json],
        config_defaults=_profile_defaults,
        help=(
            "host-time self-profiler: run a trainer under the sampling "
            "profiler, print the per-subsystem attribution table with "
            "µs/msg and µs/switch, export collapsed stacks / flamegraph / "
            "pprof-style JSON to --out"
        ),
    )
    profile_p.add_argument(
        "--trainer",
        default="mlp",
        choices=["mlp", "elastic", "summa", "integrated"],
        help="which simulated workload to profile (default: mlp)",
    )
    profile_p.add_argument(
        "-P", "--processes", type=int, default=None,
        help=(
            "total rank count; the grid is derived (Pr = largest divisor "
            "<= sqrt(P)).  Mutually exclusive with --pr/--pc."
        ),
    )
    profile_p.add_argument(
        "--pr", type=_positive_int, default=None, help="model-parallel rows"
    )
    profile_p.add_argument(
        "--pc", type=_positive_int, default=None, help="batch-parallel columns"
    )
    profile_p.add_argument(
        "--hz", type=float,
        help="sampling rate of the profiler thread (default %(default)s)",
    )
    profile_p.set_defaults(run=_run_profile)

    diff_p = sub.add_parser(
        "diff",
        config_defaults=_diff_defaults,
        help=(
            "compare two RunRecord JSON files span by span and exit "
            "non-zero on timing/traffic regressions"
        ),
    )
    diff_p.add_argument("baseline", help="baseline RunRecord JSON path")
    diff_p.add_argument("current", help="current RunRecord JSON path")
    diff_p.add_argument(
        "--time-tol",
        type=float,
        help="allowed relative growth of any virtual time (default: %(default)s)",
    )
    diff_p.add_argument(
        "--bytes-tol",
        type=float,
        help="allowed relative growth of span bytes (default: %(default)s — exact)",
    )
    diff_p.add_argument(
        "--msgs-tol",
        type=float,
        help="allowed relative growth of span message counts (default: %(default)s)",
    )
    diff_p.set_defaults(run=_run_diff)
    return parser


# -- the shared run path of the simulated-run commands ---------------------


def _write_record(args, build) -> None:
    """Write ``build()``'s RunRecord to ``--record``, if given, and say so
    unless stdout carries ``--json``."""
    if args.record:
        from repro.analysis import write_run_record

        write_run_record(build(), args.record)
        if not getattr(args, "json", False):
            print(f"record  : wrote {args.record}")


def _emit_json(payload, path: Optional[str] = None) -> int:
    """Write ``payload`` as sorted, indented JSON to ``path`` (stdout when
    ``None``); returns the exit code the payload carries."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return payload.get("exit_code", 0)


def _exit_code(kinds, severity) -> int:
    """The worst exit code among the outcome ``kinds`` (``severity`` maps
    a kind to 1 or 2; any other kind is clean)."""
    return max((severity.get(kind, 0) for kind in kinds), default=0)


def _bits(arrays):
    """``arrays`` as bytes, for bit-exact comparison (``None`` stays)."""
    return None if arrays is None else [a.tobytes() for a in arrays]


def _build_network(name: str):
    from repro.nn import alexnet, mlp, resnet_like_stack, vgg16

    if name == "alexnet":
        return alexnet()
    if name == "vgg16":
        return vgg16()
    if name == "resnet_like":
        return resnet_like_stack(input_size=56, blocks=8)
    return mlp([4096, 4096, 4096, 1000], name="MLP 4096x3")


def _run_best(args) -> int:
    from repro.core.costs import integrated_cost
    from repro.core.memory import memory_footprint
    from repro.report.tables import format_seconds
    from repro.search import default_engine

    setting = default_setting()
    network = _build_network(args.network)
    machine = setting.machine
    max_memory = (
        args.max_memory_mb * 2**20 / machine.element_bytes
        if args.max_memory_mb is not None
        else None
    )
    engine = default_engine()
    choice = engine.best_strategy(
        network,
        args.batch,
        args.processes,
        machine,
        setting.compute,
        max_pc=args.max_pc,
        max_memory_elements=max_memory,
        overlap=args.overlap,
    )
    strategy = choice.strategy
    print(f"network : {network.name} ({network.total_params:,} parameters)")
    print(f"setting : B={args.batch}, P={args.processes}, machine={machine.name}")
    print(f"best    : {strategy.describe()}")
    print(f"  epoch time    : {format_seconds(choice.total_epoch)}")
    print(f"  communication : {format_seconds(choice.comm_epoch)}")
    fp = memory_footprint(network, args.batch, strategy)
    print(
        f"  memory/process: {fp.bytes(machine.element_bytes) / 2**20:.1f} MB "
        f"(weights {fp.weights / 1e6:.1f}M + grads + activations "
        f"{fp.activations / 1e6:.1f}M elements)"
    )
    breakdown = integrated_cost(network, args.batch, strategy, machine)
    print("  per-iteration comm breakdown:")
    for category, seconds in sorted(breakdown.by_category().items()):
        print(f"    {category:<22} {format_seconds(seconds)}")
    print("  per-layer placements:")
    for w, pl in zip(network.weighted_layers, strategy.placements):
        print(f"    {w.name:<10} {pl.value}")
    if args.plan:
        from repro.core.plan import build_iteration_plan

        plan = build_iteration_plan(network, args.batch, strategy, machine)
        print()
        print(plan.to_table().to_ascii())
        print(
            "  blocking (critical-path) communication: "
            f"{format_seconds(plan.blocking_time)} of {format_seconds(plan.total_time)}"
        )
    if args.cache_stats:
        stats = engine.cache_stats()
        print(
            f"cache   : {stats.hits} hits / {stats.misses} misses "
            f"({stats.hit_rate:.1%} hit rate, {stats.entries} entries)"
        )
    return 0


def _run_faults(args) -> int:
    import numpy as np

    from repro.dist.elastic import replan_grid
    from repro.dist.train import serial_mlp_train
    from repro.errors import ConfigurationError, ReproError
    from repro.machine.params import cori_knl
    from repro.report.timeline import render_fault_log, render_span_timeline, render_timeline
    from repro.run import RunSpec, execute
    from repro.simmpi.faults import Crash, FaultPlan, LinkFault, Straggler

    if args.ranks < 2:
        raise ConfigurationError("faults demo needs at least 2 ranks")
    if args.width < 10:
        raise ConfigurationError(f"width must be >= 10, got {args.width}")
    if args.plan is not None:
        try:
            with open(args.plan, "r", encoding="utf-8") as fh:
                plan = FaultPlan.from_json(fh.read())
        except (OSError, ValueError, ConfigurationError) as exc:
            raise ConfigurationError(f"bad fault plan {args.plan!r}: {exc}") from exc
    else:
        # Built-in demo: one mid-run crash, one degraded link, one mild
        # straggler — enough to show detection, shrink and resumption.
        plan = FaultPlan(
            seed=args.seed,
            crashes=(Crash(rank=1, at_step=max(1, args.steps // 2)),),
            links=(LinkFault(src=0, dst=2, latency_factor=4.0, bandwidth_factor=0.5),),
            stragglers=(Straggler(rank=0, factor=1.3),),
        )
    dims, batch = (8, 10, 6), 8
    pr, pc = replan_grid(args.ranks, dims, batch, cori_knl())
    spec = RunSpec(
        trainer="elastic", size=dims, pr=pr, pc=pc, batch=batch,
        steps=args.steps, seed=args.seed, faults=plan, sdc=args.sdc,
    )
    counts = {
        kind: len(getattr(plan, kind))
        for kind in ("crashes", "transients", "drops", "links", "stragglers", "bitflips")
    }
    if not args.json:
        print(f"world   : {args.ranks} ranks as a {pr}x{pc} grid, "
              f"{args.steps} steps")
        print(
            "plan    : {crashes} crash(es), {transients} transient(s), {drops} "
            "drop(s), {links} link fault(s), {stragglers} straggler(s), "
            "{bitflips} bit flip(s)".format(**counts) + f"  [seed {plan.seed}]"
        )
        if args.sdc:
            print(f"guards  : ABFT on, policy {args.sdc!r}")
    try:
        run = execute(spec)
    except ReproError as exc:
        print(f"DEGRADED: run failed under the fault plan: {exc}", file=sys.stderr)
        return 1
    result = run.elastic
    events = run.engine.tracer.canonical()
    injector = run.engine.injector
    stragglers = injector.plan.stragglers if injector is not None else ()
    slack = injector.straggler_slack() if stragglers else {}
    x, y, params0 = spec.inputs()
    ref_params, _ = serial_mlp_train(params0, x, y, batch=batch, steps=args.steps)
    dev = max(
        float(np.max(np.abs(w - r)))
        for w, r in zip(run.weights, ref_params.weights)
    )
    # Exit granularity: 0 = clean or fully recovered (crashes absorbed by
    # shrink/restore, bit flips detected and repaired); 1 = degraded — an
    # injected flip nobody detected escaped into the weights.
    ops = [e.op for e in events]
    escaped = ops.count("fault.bitflip") - ops.count("fault.sdc_detected")
    code = 1 if escaped > 0 else 0
    if args.json:
        _write_record(args, run.record)
        return _emit_json(
            {
                "schema": "repro.cli.faults/v1",
                "config": {
                    "ranks": args.ranks, "grid": [pr, pc],
                    "dims": list(dims), "batch": batch,
                    "steps": args.steps, "seed": args.seed,
                    "sdc": args.sdc,
                },
                "plan": dict(counts, seed=plan.seed),
                "recovered": result.recovered,
                "grids": [list(g) for g in result.grids],
                "restore_steps": list(result.restore_steps),
                "degraded_steps": list(result.degraded_steps),
                "failed_ranks": sorted(run.sim.failed),
                "straggler_slack_s": {
                    str(r): s for r, s in sorted(slack.items())
                },
                "final_loss": float(run.losses[-1]),
                "max_weight_dev": dev,
                "escaped_flips": escaped,
                "dropped": 0,  # format field: the tracer keeps every event
                "exit_code": code,
            }
        )
    print()
    print("fault log:")
    print(render_fault_log(events))
    print()
    print(render_timeline(events, width=args.width))
    print()
    print(render_span_timeline(events, width=args.width))
    print()
    degraded_at = set(result.degraded_steps)
    for (gpr, gpc), at in zip(result.grids[1:], result.restore_steps):
        print(
            f"recovery: shrank to a {gpr}x{gpc} grid, resumed from "
            f"the step-{at} checkpoint"
            + (" (DEGRADED: newer shards unrecoverable)" if at in degraded_at else "")
        )
    if not result.recovered:
        print("recovery: none needed")
    if stragglers:
        print()
        print("stragglers:")
        for straggler in stragglers:
            jitter = f", jitter {straggler.jitter:g}" if straggler.jitter else ""
            print(
                f"  rank {straggler.rank}: factor {straggler.factor:g}{jitter} -> "
                f"injected slack {slack.get(straggler.rank, 0.0):.3e}s virtual"
            )
    _write_record(args, run.record)
    print(f"failed ranks   : {list(run.sim.failed) or 'none'}")
    print(f"final loss     : {run.losses[-1]:.6f}")
    print(f"max |w - serial|: {dev:.3e}")
    if escaped > 0:
        print(
            f"DEGRADED: {escaped} injected bit flip(s) escaped undetected "
            "(run unguarded, or guard coverage missed the site)",
            file=sys.stderr,
        )
    return code


#: The ``repro sdc`` gauntlet's fault matrix: every GEMM site of the
#: 1.5D trainer (forward, dX, dW; both layers) plus in-flight payload
#: corruption, across ranks, steps and bit positions — including
#: high-exponent bits whose escape is catastrophic when unguarded.
_SDC_GAUNTLET = (
    ("fwd/L0", dict(rank=0, target="matmul", layer=0, step=0, gemm="fwd", element=1, bit=3)),
    ("fwd/L1", dict(rank=2, target="matmul", layer=1, step=1, gemm="fwd", element=5, bit=62)),
    ("bwd_dx/L1", dict(rank=1, target="matmul", layer=1, step=2, gemm="bwd_dx", element=2, bit=31)),
    ("bwd_dw/L0", dict(rank=3, target="matmul", layer=0, step=1, gemm="bwd_dw", element=7, bit=52)),
    ("bwd_dw/L1", dict(rank=0, target="matmul", layer=1, step=0, gemm="bwd_dw", element=0, bit=62)),
    ("payload/r0", dict(rank=0, target="payload", send_index=4, element=11, bit=40)),
    ("payload/r1", dict(rank=1, target="payload", send_index=0, element=0, bit=62)),
    ("payload/r3", dict(rank=3, target="payload", send_index=3, element=3, bit=50)),
)


def _run_sdc(args) -> int:
    import dataclasses

    from repro.errors import ConfigurationError, RankFailedError, SDCError
    from repro.run import RunSpec, execute
    from repro.simmpi.faults import BitFlipFault, FaultPlan

    # A plan for a step the run never reaches cannot fire, which would
    # read as an escape rather than the misconfiguration it is.
    min_steps = 1 + max(flip.get("step", 0) for _, flip in _SDC_GAUNTLET)
    if args.steps < min_steps:
        raise ConfigurationError(f"sdc needs at least {min_steps} steps")
    clean = RunSpec(
        size=(12, 10, 8), pr=2, pc=2, batch=8, steps=args.steps, seed=args.seed
    )
    clean_bits = _bits(execute(clean).weights)
    policy = None if args.no_guard else args.policy
    print(
        f"gauntlet: {len(_SDC_GAUNTLET)} single-bit-flip plans on a "
        f"{clean.pr}x{clean.pc} grid, dims {clean.size}, {args.steps} steps, "
        + (f"guards ON (policy {policy!r})" if policy else "guards OFF")
    )
    outcomes = []
    last = None
    for name, flip in _SDC_GAUNTLET:
        plan = FaultPlan(seed=args.seed, bitflips=(BitFlipFault(**flip),))
        try:
            run = execute(dataclasses.replace(clean, faults=plan, sdc=policy))
        except (RankFailedError, SDCError):
            # The guard refused to continue (detect policy, or retries
            # exhausted): corruption never reached the weights, but the
            # run did not complete either.
            outcomes.append((name, "detected-unrecovered"))
            continue
        guard = run.guard
        injected = guard.monitor["injected"] if guard is not None else sum(
            1 for e in run.engine.tracer.canonical() if e.op == "fault.bitflip"
        )
        identical = _bits(run.weights) == clean_bits
        if injected == 0:
            outcome = "no-fire"
        elif identical:
            if guard is not None and guard.monitor["corrected"]:
                outcome = "corrected"
            elif guard is not None and guard.monitor["recomputed"]:
                outcome = "recomputed"
            else:
                outcome = "benign"
        else:
            outcome = "escaped"
        outcomes.append((name, outcome))
        last = run
    width = max(len(n) for n, _ in outcomes)
    for name, outcome in outcomes:
        print(f"  {name:<{width}}  {outcome}")
    if last is not None:
        _write_record(args, lambda: last.record(meta={"gauntlet": "sdc"}))
    code = _exit_code(
        (o for _, o in outcomes),
        {"escaped": 2, "no-fire": 2, "detected-unrecovered": 1},
    )
    verdict = (
        "every injected flip was detected and recovered; all final weights "
        "bit-identical to the clean run",
        "all corruption detected, but some runs could not recover",
        "corruption escaped into the weights (or a plan failed to fire)",
    )[code]
    print(f"VERDICT : {verdict}", file=sys.stderr if code else sys.stdout)
    return code


def _chaos_trials(args):
    """The chaos gauntlet as ``(base spec, [(name, spec), ...])``: every
    failure archetype the checkpoint subsystem claims to survive, the
    seeded random single crashes, then (``--over-parity``) the losses it
    must *declare*.  Each spec runs with erasure-coded checkpoints.
    Bad arguments raise before any spec is built."""
    import dataclasses

    from repro.errors import ConfigurationError
    from repro.run import RunSpec, random_crashes
    from repro.simmpi.faults import BitFlipFault, Cascade, Crash, FaultPlan, MessageDrop, Straggler

    base = RunSpec(
        trainer="elastic", size=(8, 10, 6), pr=2, pc=4, batch=8,
        steps=args.steps, seed=args.seed, parity=args.parity,
    )
    for bad, message in (
        (args.steps < 4, "chaos needs at least 4 steps"),
        (args.trials < 0, "chaos --trials must be >= 0"),
    ):
        if bad:
            raise ConfigurationError(message)
    steps = args.steps
    mid = max(2, steps // 2)
    crash = Crash(1, at_step=mid)
    # Ranks 1 and 2 share a row stripe: two concurrent losses in one stripe.
    pair = (crash, Crash(2, at_step=mid))
    cascade = Cascade(2, at_recovery=1)  # a second loss mid-recovery
    flip = BitFlipFault(
        rank=0, target="matmul", layer=0, step=0, gemm="fwd", element=1, bit=40
    )

    def trial(name, parity=args.parity, sdc=None, **plan):
        faults = FaultPlan(seed=args.seed, **plan)
        return name, dataclasses.replace(base, faults=faults, parity=parity, sdc=sdc)

    trials = [
        trial("clean"),
        trial("crash-1", crashes=(crash,)),
        trial("crash-seq-2", crashes=(
            Crash(1, at_step=max(1, steps // 3)),
            Crash(3, at_step=max(2, (2 * steps) // 3)),
        )),
        # A genuine 2-concurrent-loss test of a 2-shard parity budget.
        trial("crash-concurrent-2-r2", 2, crashes=pair),
        # Across *different* row stripes: each loses one chunk, so
        # parity 1 suffices.
        trial("crash-concurrent-2-split-r1", 1, crashes=(crash, Crash(5, at_step=mid))),
        # Two total losses, so this needs a 2-shard budget to recover exactly.
        trial("cascade-r2", 2, crashes=(crash,), cascades=(cascade,)),
        trial("bitflip-crash", sdc="correct",
              crashes=(Crash(2, at_step=mid),), bitflips=(flip,)),
        trial("straggler-crash", crashes=(Crash(3, at_step=mid),),
              stragglers=(Straggler(rank=0, factor=1.5),)),
    ]
    ranks = base.pr * base.pc
    for t, c in enumerate(random_crashes(args.seed + 1, args.trials, ranks=ranks, steps=steps)):
        trials.append(trial(f"random-{t}", crashes=(c,)))
    if args.over_parity:
        trials += [
            # Unrecoverable past step 0 by design with one parity shard.
            trial("over-parity-2-r1", 1, crashes=pair),
            trial("cascade-r1", 1, crashes=(crash,), cascades=(cascade,)),
            trial("drop", drops=(MessageDrop(rank=0, send_index=5),)),
        ]
    return base, trials


def _checkpoint_bits(ckpt):
    return ckpt.step, tuple(ckpt.losses), _bits(ckpt.weights), _bits(ckpt.velocity)


def _chaos_outcome(oracle, erasure, e_err, replicate, r_err):
    """``(outcome, detail)`` of one chaos trial: its erasure-coded run
    judged against the replicated run of the same plan and, when their
    recoveries differ, against the clean replicated ``oracle``."""
    import numpy as np

    if e_err is not None:
        # The run itself refused to continue — a *declared* failure,
        # never a silently wrong answer.
        return "declared-failed", str(e_err)
    if erasure.degraded_steps:
        return "declared-degraded", (
            f"restored step(s) {erasure.restore_steps} "
            f"(degraded at {erasure.degraded_steps})"
        )
    if r_err is not None:
        return "declared-failed", f"reference run: {r_err}"
    if (erasure.grids == replicate.grids
            and erasure.restore_steps == replicate.restore_steps):
        # Identical recovery trajectories: the whole runs must be
        # bit-for-bit interchangeable.
        same = _bits(erasure.weights) == _bits(replicate.weights)
        detail = (
            f"recovered from {sorted(erasure.sim.failed)} via "
            f"step(s) {erasure.restore_steps}"
            if erasure.recovered else ""
        )
        return ("exact" if same else "SILENT-DIVERGENCE"), detail
    # Trajectories diverged.  Legitimate only one way: a crash landing on
    # a take step tears the replicated all-gather but not the purely
    # local erasure encode, so erasure restores a *newer* step.  Then the
    # restored state must still match the clean oracle's checkpoint
    # bit-exactly, and both modes must converge to the same weights up to
    # reduction order.  (The oracle's store holds the full original-grid
    # checkpoint at every take step, and every faulted run is
    # bit-identical to it before its first crash.)
    ahead = len(erasure.restore_steps) == len(replicate.restore_steps) and all(
        es >= rs for es, rs in zip(erasure.restore_steps, replicate.restore_steps)
    )
    first = erasure.restored[0] if erasure.restored else None
    holding = oracle.store.get(first.step) if first is not None else None
    first_ok = holding is not None and (
        _checkpoint_bits(first) == _checkpoint_bits(holding.checkpoint)
    )
    close = all(
        np.allclose(a, b, atol=1e-9)
        for a, b in zip(erasure.weights, replicate.weights)
    )
    if ahead and first_ok and close:
        return "exact-ahead", (
            f"erasure restored step(s) {erasure.restore_steps} vs "
            f"replication's {replicate.restore_steps}; restored state "
            "bit-identical to the clean oracle"
        )
    return "SILENT-DIVERGENCE", (
        f"erasure restored {erasure.restore_steps} (grids "
        f"{erasure.grids}) vs replication {replicate.restore_steps} "
        f"(grids {replicate.grids}); ahead={ahead} "
        f"oracle-match={first_ok} converged={close}"
    )


def _run_chaos(args) -> int:
    import dataclasses

    from repro.analysis import write_run_record
    from repro.errors import ReproError
    from repro.run import CHECKPOINT_EVERY, execute

    base, trials = _chaos_trials(args)
    want_artifacts = args.out is not None
    if want_artifacts:
        os.makedirs(args.out, exist_ok=True)

    def attempt(spec):
        try:
            return execute(spec, trace=want_artifacts), None
        except ReproError as exc:
            return None, exc

    if not args.json:
        print(
            f"chaos soak: {len(trials)} trials on a {base.pr}x{base.pc} grid, "
            f"dims {base.size}, {base.steps} steps, checkpoint every "
            f"{CHECKPOINT_EVERY}, parity {args.parity} "
            f"(each trial: erasure-coded shards vs full replication)"
        )
    # Oracle: one clean replicated run; a failure here is bad input.
    oracle = execute(
        dataclasses.replace(base, ckpt_mode="replicate"), trace=want_artifacts
    ).elastic

    rows = []
    width = max(len(name) for name, _ in trials)
    for name, spec in trials:
        e_run, e_err = attempt(spec)
        r_run, r_err = attempt(dataclasses.replace(spec, ckpt_mode="replicate"))
        e_res = e_run.elastic if e_run else None
        outcome, detail = _chaos_outcome(
            oracle, e_res, e_err, r_run.elastic if r_run else None, r_err
        )
        rows.append(
            {
                "trial": name,
                "parity": spec.parity,
                "outcome": outcome,
                "detail": detail,
                "failed_ranks": sorted(e_res.sim.failed) if e_res else None,
                "restore_steps": e_res.restore_steps if e_res else None,
                "degraded_steps": e_res.degraded_steps if e_res else None,
                "dropped": 0,  # format field: the tracer keeps every event
            }
        )
        if not args.json:
            print(f"  {name:<{width}}  {outcome}"
                  + (f"  [{detail}]" if detail else ""))
        if want_artifacts:
            stem = os.path.join(args.out, f"trial_{name}")
            with open(f"{stem}.plan.json", "w", encoding="utf-8") as fh:
                fh.write(spec.faults.to_json())
            if e_run is not None:
                write_run_record(
                    e_run.record(meta={"chaos_trial": name}), f"{stem}.record.json"
                )
    code = _exit_code(
        (row["outcome"] for row in rows),
        {"SILENT-DIVERGENCE": 2, "declared-failed": 1, "declared-degraded": 1},
    )
    verdict = (
        "every trial recovered bit-identically to the replicated reference",
        "every loss beyond the parity budget was declared; nothing diverged "
        "silently",
        "erasure-coded recovery silently diverged from the replicated "
        "reference",
    )[code]
    payload = {
        "config": {
            "dims": list(base.size), "pr": base.pr, "pc": base.pc,
            "batch": base.batch, "steps": base.steps, "parity": args.parity,
            "seed": args.seed, "trials": len(trials),
            "over_parity": bool(args.over_parity),
        },
        "trials": rows,
        "dropped": 0,  # format field: the tracer keeps every event
        "exit_code": code,
        "verdict": verdict,
    }
    if not args.json:
        print(f"VERDICT : {verdict}",
              file=sys.stderr if code == 2 else sys.stdout)
    if want_artifacts:
        summary_path = os.path.join(args.out, "chaos_summary.json")
        _emit_json(payload, summary_path)
        if not args.json:
            print(f"wrote   : {summary_path}")
    if args.json:
        return _emit_json(payload)
    return code


def _watch_spec(scenario: str, steps: int, seed: int):
    """The run behind ``repro watch --scenario``: the 1.5D trainer on 2x2
    (``clean``; ``diverge`` at a deliberately unstable learning rate
    that blows the loss up past 2x its best), or the elastic trainer on
    2x4 under a fault plan."""
    import dataclasses

    from repro.run import RunSpec
    from repro.simmpi.faults import Crash, FaultPlan, Straggler

    spec = RunSpec(size=(8, 10, 6), pr=2, pc=2, batch=8, steps=steps, seed=seed)
    if scenario == "clean":
        return spec
    if scenario == "diverge":
        return dataclasses.replace(spec, lr=40.0)
    mid = max(1, steps // 2)
    faults = {
        "straggler": dict(stragglers=(Straggler(rank=0, factor=2.0),)),
        "crash": dict(crashes=(Crash(rank=1, at_step=mid),)),
        # Two concurrent losses in one stripe, parity 1.
        "degrade": dict(crashes=(Crash(rank=1, at_step=mid), Crash(rank=2, at_step=mid))),
    }[scenario]
    return dataclasses.replace(
        spec, trainer="elastic", pc=4, faults=FaultPlan(seed=seed, **faults), parity=1,
    )


def _run_watch(args) -> int:
    from repro.observe.health import HealthConfig
    from repro.observe.watch import stream_watch
    from repro.run import execute

    health_config = HealthConfig(
        stall_steps=args.stall_steps, straggler_factor=args.straggler_factor
    )
    health_config.validate()

    scenario = args.scenario
    spec = _watch_spec(scenario, args.steps, args.seed)
    if not args.json:
        print(f"watch   : scenario {scenario!r}, {spec.steps} steps, "
              f"seed {args.seed}")
    run = execute(spec)
    config = {"scenario": scenario, "steps": spec.steps}
    if spec.trainer == "elastic":
        config["parity"] = spec.parity

    # One virtual-time replay of the trace is both the stream and the
    # verdict (the one every record embeds).
    report = stream_watch(run.engine.tracer.canonical(), health_config,
                          None if args.json else sys.stdout,
                          heartbeats=not args.quiet)
    clocks = run.sim.clocks
    makespan = max(clocks) if clocks else 0.0
    worst = report.worst
    if not args.json:
        print()
        if report.events:
            print(report.to_table().to_ascii())
        else:
            print("health  : no events — run looks healthy")

    record = None
    if args.record or args.registry:
        record = run.record(
            meta={"watch_scenario": scenario}, health_config=health_config
        )
    _write_record(args, lambda: record)
    if args.registry:
        from repro.observe.registry import append_entries, entry_from_record

        entry = entry_from_record(
            record.to_dict(), source=f"repro watch --scenario {scenario}"
        )
        append_entries(args.registry, [entry])
        if not args.json:
            print(f"registry: appended 1 entry to {args.registry}")

    code = _exit_code([worst], {"crit": 2, "warn": 1})
    if args.json:
        return _emit_json({
            "schema": "repro.cli.watch/v1",
            "scenario": scenario,
            "config": dict(config, grid=f"{spec.pr}x{spec.pc}", seed=args.seed),
            "health": report.to_dict(),
            "worst": worst,
            "makespan_s": makespan,
            "dropped": 0,  # format field: the tracer keeps every event
            "exit_code": code,
        })
    print(f"verdict : {'healthy' if worst is None else worst.upper()} "
          f"(makespan {makespan:.6f}s virtual)")
    return code


def _run_history(args) -> int:
    from repro.errors import ReproError
    from repro.observe.registry import (
        DriftThresholds,
        compute_trends,
        load_registry,
        trend_table,
        worst_status,
    )

    try:
        entries = load_registry(args.registry)
    except ReproError as exc:
        print(f"bad registry {args.registry!r}: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"registry {args.registry!r} is missing or empty",
              file=sys.stderr)
        return 2
    thresholds = DriftThresholds(min_history=args.min_history)
    trends = compute_trends(entries, thresholds)
    if args.series:
        trends = [t for t in trends if args.series in t.series]
        if not trends:
            print(f"no series matching {args.series!r} in {args.registry}",
                  file=sys.stderr)
            return 2
    status = worst_status(trends)
    code = _exit_code([status], {"drift": 2, "warn": 1})
    if args.json:
        return _emit_json({
            "schema": "repro.cli.history/v1",
            "registry": args.registry,
            "entries": len(entries),
            "trends": [
                {
                    "series": t.series,
                    "metric": t.metric,
                    "n": len(t.values),
                    "median": t.median,
                    "mad": t.mad,
                    "latest": t.latest,
                    "deviation": t.deviation,
                    "status": t.status,
                }
                for t in trends
            ],
            "worst": status,
            "exit_code": code,
        })
    print(f"registry: {args.registry} ({len(entries)} entries, "
          f"{len({t.series for t in trends})} judged series)")
    print()
    print(trend_table(trends).to_ascii())
    print()
    gates = [t for t in trends if t.gates]
    for t in gates:
        print(
            f"{'DRIFT' if t.status == 'drift' else 'WARN '}   : "
            f"{t.series} :: {t.metric} latest {t.latest:.6g} vs median "
            f"{t.median:.6g} (deviation {t.deviation:.3g})",
            file=sys.stderr,
        )
    print(f"verdict : {status}")
    return code


def _run_ingest(args) -> int:
    from repro.errors import ReproError
    from repro.observe.registry import append_entries, entry_from_payload

    entries = []
    for path in args.paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {path!r}: {exc}", file=sys.stderr)
            return 2
        try:
            entry = entry_from_payload(payload, source=path)
        except ReproError as exc:
            print(f"cannot ingest {path!r}: {exc}", file=sys.stderr)
            return 2
        entries.append(entry)
        print(f"ingest  : {path} -> series {entry.series!r} "
              f"({len(entry.metrics)} metrics)")
    count = append_entries(args.registry, entries)
    print(f"registry: appended {count} entr{'y' if count == 1 else 'ies'} "
          f"to {args.registry}")
    return 0


def _run_dash(args) -> int:
    from repro.errors import ReproError
    from repro.observe.registry import compute_trends, load_registry
    from repro.report.dash import write_dashboard

    if not os.path.exists(args.registry):
        print(f"registry {args.registry!r} is missing", file=sys.stderr)
        return 2
    try:
        entries = load_registry(args.registry)
        trends = compute_trends(entries) if entries else []
    except ReproError as exc:
        print(f"bad registry {args.registry!r}: {exc}", file=sys.stderr)
        return 2
    health_runs = []
    for path in args.records:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read record {path!r}: {exc}", file=sys.stderr)
            return 2
        makespan = payload.get("makespan_s", 0.0)
        events = payload.get("health", {}).get("events", [])
        health_runs.append((path, makespan, events))
    write_dashboard(
        args.out, trends, health_runs=health_runs,
        title="repro regression observatory",
    )
    print(f"dash    : wrote {args.out} ({len(trends)} trends, "
          f"{len(health_runs)} health timeline(s))")
    return 0


#: Network presets for ``repro trace`` — small enough to simulate quickly,
#: big enough that every layer exercises both grid dimensions.  "fig7" is a
#: scaled-down proxy for the AlexNet FC stack the paper's Fig. 7 studies.
TRACE_PRESETS = {
    "mlp": (32, 24, 16, 10),
    "fig7": (48, 32, 32, 10),
}


def _run_trace(args) -> int:
    from repro.analysis import critical_path, rank_accounting, register_analysis_metrics
    from repro.report.export import export_metrics
    from repro.report.timeline import render_traffic_matrix, traffic_matrix
    from repro.run import RunSpec, execute
    from repro.telemetry.audit import audit_events
    from repro.telemetry.chrome import validate_chrome_trace, write_chrome_trace
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.summary import span_summary

    dims = TRACE_PRESETS[args.experiment]
    spec = RunSpec(
        size=dims, pr=args.pr, pc=args.pc, batch=args.batch, steps=args.steps,
        sdc=args.sdc,
    )
    print(
        f"tracing : {args.experiment} dims={dims} on a {args.pr}x{args.pc} grid, "
        f"batch {args.batch}, {args.steps} step(s)"
        + (f", SDC guards on ({args.sdc})" if args.sdc else "")
    )
    run = execute(spec)
    events = run.engine.tracer.canonical()
    report = audit_events(
        events, dims, pr=args.pr, pc=args.pc, batch=args.batch,
        steps=args.steps, sdc=args.sdc is not None,
    )
    accounting = rank_accounting(events, clocks=run.sim.clocks)
    cp = critical_path(events, clocks=run.sim.clocks)
    registry = MetricsRegistry()
    for event in events:
        registry.observe_event(event)
    register_analysis_metrics(registry, cp, accounting)
    print()
    print(span_summary(events, per_rank=args.per_rank).to_ascii())
    print()
    print(report.to_table().to_ascii())
    print()
    print(accounting.to_table().to_ascii())
    print()
    print(cp.to_table(limit=12).to_ascii())
    digest = cp.summary()
    print(
        f"critical: {digest['length_s']:.3e}s of {digest['makespan_s']:.3e}s "
        f"makespan on the path ({digest['events']} events, DAG "
        f"{digest['dag_nodes']} nodes / {digest['dag_edges']} edges); "
        f"idle fraction {accounting.idle_fraction:.1%}, straggler rank "
        f"{accounting.straggler_rank}"
    )
    if args.traffic:
        print()
        print(render_traffic_matrix(traffic_matrix(events)))
    print()
    print(
        f"audit   : max bandwidth rel. error "
        f"{report.max_bandwidth_rel_error:.3e}, max latency rel. error "
        f"{report.max_latency_rel_error:.3e}"
        f" -> {'EXACT' if report.exact else 'MISMATCH'}"
    )
    _write_record(args, lambda: run.record(meta={"experiment": args.experiment}))
    if args.out:
        trace_path = f"{args.out.rstrip('/')}/trace.json"
        obj = write_chrome_trace(
            events, trace_path, title=f"repro trace {args.experiment}"
        )
        n_ev = validate_chrome_trace(obj)
        print(f"chrome  : wrote {n_ev} events to {trace_path} (load in Perfetto)")
        export_results(report.to_table(), args.out, "audit")
        export_results(accounting.to_table(), args.out, "accounting")
        export_results(cp.to_table(), args.out, "critical_path")
        export_metrics(registry, args.out)
        export_results(span_summary(events, per_rank=True), args.out, "spans")
    if args.assert_exact and not report.exact:
        print("audit mismatch: measured traffic deviates from the cost model",
              file=sys.stderr)
        return 1
    return 0


def _profile_spec(args):
    """The run ``repro profile`` samples: ``--trainer`` on the grid from
    ``--pr/--pc`` or derived from ``-P`` (Pr = largest divisor <=
    sqrt(P)), sized so every rank holds a block.  SUMMA runs one
    product whatever ``--steps`` says, so its spec has one step.  An
    elastic run replicates its checkpoints where ``Pc`` is too narrow
    for an erasure stripe."""
    import math

    from repro.errors import ConfigurationError
    from repro.run import RunSpec

    if args.pr is not None or args.pc is not None:
        if args.processes is not None:
            raise ConfigurationError("pass either -P or --pr/--pc, not both")
        pr, pc = args.pr or 2, args.pc or 2
    else:
        p = args.processes if args.processes is not None else 16
        if p < 1:
            raise ConfigurationError(f"-P must be >= 1, got {p}")
        pr = max(d for d in range(1, math.isqrt(p) + 1) if p % d == 0)
        pc = p // pr
    run = dict(trainer=args.trainer, pr=pr, pc=pc, steps=args.steps)
    if args.trainer == "elastic" and pc <= RunSpec.parity:
        run["ckpt_mode"] = "replicate"  # an erasure stripe needs Pc > parity
    if args.trainer == "summa":
        m, k, n = max(64, 4 * pr), math.lcm(pr, pc) * 8, max(64, 4 * pc)
        return RunSpec(size=(m, k, n), **{**run, "steps": 1})
    if args.trainer == "integrated":
        return RunSpec(size=(max(8, 4 * pr),), batch=2 * pc, **run)
    return RunSpec(size=(max(64, pr), max(64, pr), max(32, pr)), batch=2 * pc, **run)


def _run_profile(args) -> int:
    from repro.profile import OVERHEAD_BUDGET, ProfileSession, host_block
    from repro.profile.export import write_collapsed, write_flamegraph_html, write_pprof_json
    from repro.run import execute

    spec = _profile_spec(args)
    pr, pc, steps = spec.pr, spec.pc, spec.steps
    session = ProfileSession(hz=args.hz)
    if not args.json:
        work = "one product" if args.trainer == "summa" else f"{steps} step(s)"
        print(
            f"profile : {args.trainer} on a {pr}x{pc} grid, {work}, "
            f"sampling at {session.hz:g}Hz"
        )
    with session:
        run = execute(spec, trace=args.record is not None)

    report = session.report()
    # Attribution sanity gate (the acceptance bar): per-subsystem host
    # times must sum to within 10% of the measured wall-clock.
    wall = report.wall_s
    attribution_ok = (
        report.ticks == 0
        or abs(report.attribution_total_s - wall) <= 0.10 * wall
    )
    exit_code = 0 if attribution_ok else 1

    artifacts = {}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out = args.out.rstrip("/")
        collapsed = session.collapsed
        subtitle = (
            f"{args.trainer} {pr}x{pc}, {report.wall_s:.3f}s "
            f"wall, {report.ticks} ticks @ {report.hz:g}Hz"
        )
        artifacts["collapsed"] = f"{out}/collapsed.txt"
        write_collapsed(collapsed, artifacts["collapsed"])
        artifacts["flamegraph"] = f"{out}/flamegraph.html"
        write_flamegraph_html(
            collapsed, artifacts["flamegraph"],
            title=f"repro profile {args.trainer}", subtitle=subtitle,
        )
        artifacts["pprof"] = f"{out}/pprof.json"
        write_pprof_json(
            collapsed, artifacts["pprof"], period_ns=1e9 / report.hz,
        )
        artifacts["report"] = f"{out}/profile.json"
        _emit_json(report.to_dict(), artifacts["report"])

    if not args.json:
        print()
        print(report.to_table().to_ascii())
        print()
        c = report.counters
        print(
            f"counters: {c['msgs_sent']} msgs ({c['bytes_sent']} bytes), "
            f"{c['msgs_delivered']} delivered, {c['postal_calls']} postal, "
            f"{c['switches']} switches, {c['dispatches']} dispatches, "
            f"{c['trace_records']} trace records"
        )
        if report.us_per_msg is not None:
            print(
                f"derived : {report.us_per_msg:.2f} µs/msg sampled on the "
                f"message path, {report.us_per_msg_allin:.2f} µs/msg all-in "
                "(wall / msgs)"
            )
        if report.us_per_switch is not None:
            print(
                f"          {report.us_per_switch:.2f} µs/switch "
                "(scheduler + handoff over switch count)"
            )
        print(
            f"overhead: sampler busy {report.sampler_busy_s * 1e3:.1f}ms of "
            f"{wall:.3f}s wall ({report.overhead_frac:.2%}; budget "
            f"{100 * OVERHEAD_BUDGET:.0f}%), {report.samples} samples kept, "
            f"{report.samples_dropped} dropped"
        )
        for name, path in artifacts.items():
            print(f"export  : {name} -> {path}")
    _write_record(args, lambda: run.record(
        meta={"profiled": True}, host=host_block(run.engine)
    ))

    if args.json:
        return _emit_json({
            "schema": "repro.cli.profile/v1",
            "trainer": args.trainer,
            "grid": {"pr": pr, "pc": pc},
            "steps": steps,
            "report": report.to_dict(),
            "attribution_ok": attribution_ok,
            "artifacts": artifacts,
            "record": args.record,
            "exit_code": exit_code,
        })
    if not attribution_ok:
        print(
            f"ATTRIBUTION MISMATCH: rows sum to {report.attribution_total_s:.3f}s "
            f"vs {wall:.3f}s wall (>10% apart)",
            file=sys.stderr,
        )
    return exit_code


def _run_diff(args) -> int:
    from repro.analysis import DiffThresholds, diff_records, read_run_record
    from repro.errors import ConfigurationError

    try:
        baseline = read_run_record(args.baseline)
    except (OSError, ValueError, ConfigurationError) as exc:
        print(f"cannot read baseline {args.baseline!r}: {exc}", file=sys.stderr)
        return 2
    try:
        current = read_run_record(args.current)
    except (OSError, ValueError, ConfigurationError) as exc:
        print(f"cannot read current {args.current!r}: {exc}", file=sys.stderr)
        return 2
    thresholds = DiffThresholds(
        time_rel=args.time_tol, bytes_rel=args.bytes_tol, msgs_rel=args.msgs_tol
    )
    try:
        report = diff_records(baseline, current, thresholds=thresholds)
    except ConfigurationError as exc:
        print(f"diff error: {exc}", file=sys.stderr)
        return 2
    print(
        f"baseline: {args.baseline} ({baseline.trainer}, "
        f"{baseline.grid['pr']}x{baseline.grid['pc']} grid, "
        f"machine {baseline.machine.get('name', '?')})"
    )
    print(
        f"current : {args.current} "
        f"(machine {current.machine.get('name', '?')})"
    )
    if current.dropped:
        print(
            f"WARNING : current record dropped {current.dropped} trace events; "
            "its totals are lower bounds",
            file=sys.stderr,
        )
    print()
    print(report.to_table().to_ascii())
    if report.regressed:
        for regression in report.regressions:
            print(f"REGRESSION: {regression}", file=sys.stderr)
        return 1
    print(
        f"gate    : PASS ({report.compared} quantities within "
        f"time {thresholds.time_rel:.0%} / bytes {thresholds.bytes_rel:.0%} / "
        f"msgs {thresholds.msgs_rel:.0%})"
    )
    return 0


def _run_list(args) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for entry in EXPERIMENTS.values():
        print(f"{entry.experiment_id:<{width}}  [{entry.paper_ref:<15}] {entry.title}")
    return 0


def _run_summary(args) -> int:
    setting = default_setting()
    print(setting.network.summary())
    print()
    m = setting.machine
    print(
        f"machine: {m.name} (alpha={m.alpha * 1e6:g}us, "
        f"1/beta={m.bandwidth / 1e9:g} GB/s)"
    )
    print(
        f"dataset: {setting.dataset.name} "
        f"({setting.dataset.train_images:,} images, "
        f"{setting.dataset.num_classes} classes)"
    )
    return 0


def _run_experiments(args) -> int:
    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for experiment_id in ids:
        result = get_experiment(experiment_id).runner()
        if not args.quiet:
            print(result.render())
            print()
        if args.out:
            for i, table in enumerate(result.tables):
                stem = result.experiment_id if i == 0 else f"{result.experiment_id}_{i}"
                export_results(table, args.out, stem)
            write_text(
                f"{args.out.rstrip('/')}/{result.experiment_id}_report.txt",
                result.render(),
            )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` and run the command.  Bad input exits 2: argparse
    rejects malformed options, and a :class:`~repro.errors.ReproError`
    or an ``OSError`` (an ``--out``/``--record`` path that cannot be
    written) escaping a command becomes one ``repro <command>: <message>``
    line on stderr instead of a traceback."""
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ReproError, OSError) as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
