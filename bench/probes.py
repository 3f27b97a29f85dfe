"""Per-layer probes: one small fixed measurement per layer of ``repro``.

Each probe isolates the cost one layer adds to the workloads, so that a
later change can be traced from the layer number it moves to the
end-to-end metric it should move (``README.md`` lists the predictions).
Probes are sized to finish in a fraction of a second each: they are
read as before/after pairs on one machine, not as absolute figures.

Every probe returns ``{metric name: value}``; ``run_all`` merges them.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

import adapters

REPS = 3


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _median_time(fn, *args, reps=REPS, **kwargs):
    return statistics.median(_timed(fn, *args, **kwargs)[0] for _ in range(reps))


def _counted_run(ranks, program, *args, trace=False, faults=None):
    """Run ``program`` on a fresh event engine; ``(wall_s, counters)``."""
    engine = adapters.make_engine(ranks, trace=trace, faults=faults)
    with adapters.counting_session() as session:
        wall, _ = _timed(adapters.run_ranks, engine, program, *args)
    return wall, session.counters


def _median_counted(ranks, program, *args, **kwargs):
    """Median wall of ``REPS`` runs, with the (exact) counters of the last."""
    runs = [_counted_run(ranks, program, *args, **kwargs) for _ in range(REPS)]
    return statistics.median(wall for wall, _ in runs), runs[-1][1]


# -- simmpi -------------------------------------------------------------------


def probe_spawn():
    ranks = 512
    wall = _median_time(
        lambda: adapters.run_ranks(adapters.make_engine(ranks), adapters.noop_program)
    )
    return {"simmpi.spawn_us_per_rank": 1e6 * wall / ranks}


def probe_switch():
    out = {}
    for ranks, rounds in ((64, 40), (512, 8)):
        wall, counters = _median_counted(ranks, adapters.barrier_storm_program, rounds)
        out[f"simmpi.switch_us_p{ranks}"] = 1e6 * wall / counters["switches"]
    return out


def probe_p2p():
    small = np.zeros(1)  # 8 B
    wall, counters = _median_counted(64, adapters.ring_program, 50, small)
    out = {"simmpi.p2p_us_per_msg_small": 1e6 * wall / counters["msgs_sent"]}
    large = np.zeros(1 << 17)  # 1 MiB of float64
    wall, counters = _median_counted(8, adapters.ring_program, 8, large)
    out["simmpi.p2p_us_per_msg_large"] = 1e6 * wall / counters["msgs_sent"]
    out["simmpi.payload_copy_mb_s"] = counters["bytes_sent"] / 2**20 / wall
    return out


def probe_collectives():
    wall, counters = _median_counted(64, adapters.allreduce_ring_program, 4, 4096)
    out = {"simmpi.allreduce_ring_us_per_msg": 1e6 * wall / counters["msgs_sent"]}
    wall, counters = _median_counted(64, adapters.allgather_bruck_program, 8, 256)
    out["simmpi.allgather_bruck_us_per_msg"] = 1e6 * wall / counters["msgs_sent"]
    return out


def probe_trace_record():
    """(traced - untraced barrier storm) per trace record."""
    deltas = []
    for _ in range(REPS):
        bare, _ = _counted_run(64, adapters.barrier_storm_program, 40)
        traced, counters = _counted_run(64, adapters.barrier_storm_program, 40, trace=True)
        deltas.append(1e6 * (traced - bare) / counters["trace_records"])
    return {"simmpi.trace_record_us": statistics.median(deltas)}


def probe_fault_check():
    """(inert fault plan - no plan) per message on the small ring."""
    small = np.zeros(1)
    deltas = []
    for _ in range(REPS):
        bare, counters = _counted_run(64, adapters.ring_program, 50, small)
        checked, _ = _counted_run(
            64, adapters.ring_program, 50, small, faults=adapters.inert_fault_plan()
        )
        deltas.append(1e6 * (checked - bare) / counters["msgs_sent"])
    return {"simmpi.fault_check_us": statistics.median(deltas)}


def probe_default_engine():
    """The threaded backend that README and most tests run."""
    dims, batch, steps = (64, 64, 32), 64, 2
    params0, x, y = adapters.mlp_inputs(dims, batch, 0)

    def run():
        engine = adapters.make_engine(16, backend="thread")
        adapters.train_mlp(params0, x, y, pr=4, pc=4, batch=batch, steps=steps, engine=engine)

    return {"simmpi.default_engine_p16_s": _median_time(run)}


# -- telemetry, analysis, observe (one traced run, each consumer timed) --------


def probe_trace_consumers():
    dims, batch, steps, pr, pc = (64, 64, 32), 64, 2, 8, 8
    shape = dict(pr=pr, pc=pc, batch=batch, steps=steps)
    params0, x, y = adapters.mlp_inputs(dims, batch, 0)
    engine = adapters.make_engine(pr * pc, trace=True)
    _, _, sim = adapters.train_mlp(params0, x, y, engine=engine, **shape)
    t_canonical, events = _timed(adapters.canonical_events, engine)
    per_100k = 1e5 / len(events)
    chrome_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "chrome-probe.json")
    registry = adapters.metrics_registry()
    return {
        "simmpi.canonical_s_per_100k": t_canonical * per_100k,
        "telemetry.metrics_observe_us_per_event":
            1e6 * _timed(adapters.observe_all, registry, events)[0] / len(events),
        "telemetry.audit_s_per_100k":
            _timed(adapters.audit, events, dims, **shape)[0] * per_100k,
        "telemetry.span_summary_s_per_100k":
            _timed(adapters.summarize_spans, events)[0] * per_100k,
        "telemetry.chrome_export_s_per_100k":
            _timed(adapters.chrome_export, events, chrome_path)[0] * per_100k,
        "analysis.accounting_s_per_100k":
            _timed(adapters.accounting, events, sim.clocks)[0] * per_100k,
        "analysis.critical_path_s_per_100k":
            _timed(adapters.critical, events, sim.clocks)[0] * per_100k,
        "analysis.run_record_s_per_100k":
            _timed(adapters.run_record, engine, sim, dims=dims, **shape)[0] * per_100k,
        "observe.health_eval_us_per_event":
            1e6 * _timed(adapters.health, events)[0] / len(events),
    }


def probe_profile_overhead():
    """Profiled over bare wall of one event-backend run (informational)."""
    dims, batch, steps = (64, 64, 32), 64, 10
    params0, x, y = adapters.mlp_inputs(dims, batch, 0)

    def run():
        engine = adapters.make_engine(16)
        adapters.train_mlp(params0, x, y, pr=4, pc=4, batch=batch, steps=steps, engine=engine)

    bare, profiled = [], []
    for _ in range(REPS):
        bare.append(_timed(run)[0])
        with adapters.default_profile_session():
            profiled.append(_timed(run)[0])
    return {"profile.session_overhead_ratio": statistics.median(profiled) / statistics.median(bare)}


# -- dist ---------------------------------------------------------------------


def probe_serial_baselines():
    dims, batch, steps = (128, 128, 64), 64, 8
    params0, x, y = adapters.mlp_inputs(dims, batch, 0)
    mlp_wall = _median_time(adapters.serial_mlp, params0, x, y, batch=batch, steps=steps)
    config = adapters.cnn_config(
        in_channels=3, height=64, width=64, conv_channels=(16, 32), fc_dims=(256, 10)
    )
    batch = 32
    cnn0, cx, cy = adapters.cnn_inputs(config, batch, 0)
    serial_wall, _ = _timed(adapters.serial_cnn, config, cnn0, cx, cy, batch=batch, steps=1)
    dist_wall, _ = _timed(
        adapters.train_cnn, config, cnn0, cx, cy, pr=4, pc=4, batch=batch, steps=1,
        engine=adapters.make_engine(16),
    )
    return {
        "dist.serial_mlp_step_ms": 1e3 * mlp_wall / steps,
        "dist.serial_cnn_step_ms": 1e3 * serial_wall,
        "dist.sim_overhead_ratio": dist_wall / serial_wall,
    }


def probe_domain_conv():
    """DomainConv2D at cnn_domain_p16's first-layer local shape: batch
    shard 32/4, 3 channels, 64/4 rows of 64 pixels, 16 3x3 filters."""
    rounds, ranks, height = 5, 4, 64
    rng = np.random.default_rng(0)
    x_local = rng.standard_normal((8, 3, height // ranks, 64))
    weights = rng.standard_normal((16, 3, 3, 3))

    def run(backward):
        engine = adapters.make_engine(ranks)
        adapters.run_ranks(
            engine, adapters.domain_conv_program, x_local, weights, height, rounds, backward
        )

    fwd = _median_time(run, False)
    both = _median_time(run, True)
    # All four ranks compute in turn on one core: per-rank cost is 1/ranks.
    return {
        "dist.conv_fwd_ms": 1e3 * fwd / rounds / ranks,
        "dist.conv_bwd_ms": 1e3 * (both - fwd) / rounds / ranks,
    }


def probe_codecs():
    k, r, mib = 8, 2, 1 << 20
    data = np.random.default_rng(0).integers(0, 256, mib, dtype=np.uint8)
    encode_wall, chunks = _timed(adapters.erasure_encode, data, k, r)
    survivors = {i: c for i, c in enumerate(chunks) if i != 0}  # one data chunk lost
    decode_wall, decoded = _timed(adapters.erasure_decode, survivors, k, r, mib)
    if not np.array_equal(decoded, data):
        raise RuntimeError("erasure probe: decode did not recover the stripe")
    # elastic_chaos_p64's local GEMM block: 128/8 weight rows by 64/8 columns.
    block = np.random.default_rng(1).standard_normal((16, 8))
    calls = 2000
    checksum_wall, _ = _timed(lambda: [adapters.abft_checksums(block) for _ in range(calls)])
    return {
        "dist.erasure_encode_mb_s": 1.0 / encode_wall,
        "dist.erasure_decode_mb_s": 1.0 / decode_wall,
        "dist.abft_checksum_us_per_block": 1e6 * checksum_wall / calls,
    }


# -- search, core, experiments, cli --------------------------------------------


def probe_search():
    networks, machine, compute = adapters.sweep_inputs(0)
    net, batch = networks["alexnet"], 2048
    processes = [2 ** i for i in range(3, 15)]
    engine = adapters.search_engine()
    cold, points = _timed(adapters.strong_sweep, engine, net, batch, processes, machine, compute)
    warm, _ = _timed(adapters.strong_sweep, engine, net, batch, processes, machine, compute)
    serial_ps = (8, 64, 256, 512)
    serial, _ = _timed(
        lambda: [adapters.serial_point(net, batch, p, machine, compute) for p in serial_ps]
    )
    evals = 200
    cost, _ = _timed(
        lambda: [adapters.cost_eval(net, batch, 32, 16, machine) for _ in range(evals)]
    )
    best, _ = _timed(adapters.serial_best_strategy, net, batch, 512, machine, compute)
    return {
        "search.points_per_s_cold": len(points) / cold,
        "search.points_per_s_warm": len(points) / warm,
        "search.serial_points_per_s": len(serial_ps) / serial,
        "core.cost_eval_us": 1e6 * cost / evals,
        "core.best_strategy_ms": 1e3 * best,
    }


def probe_experiments():
    wall, _ = _timed(
        lambda: [adapters.run_analytic_experiment(k) for k in adapters.analytic_experiment_ids()]
    )
    return {"experiments.analytic_all_s": wall}


def probe_cli():
    """Fresh-process costs a CLI user pays: import, and one ``best`` query."""

    def run(*argv):
        subprocess.run(
            [sys.executable, *argv], check=True, stdout=subprocess.DEVNULL, timeout=60
        )

    return {
        "cli.import_s": _median_time(run, "-c", "import repro.cli"),
        "cli.best_s": _median_time(run, "-m", "repro.cli", "best", "-B", "2048", "-P", "512"),
    }


PROBES = (
    probe_spawn,
    probe_switch,
    probe_p2p,
    probe_collectives,
    probe_trace_record,
    probe_fault_check,
    probe_default_engine,
    probe_trace_consumers,
    probe_profile_overhead,
    probe_serial_baselines,
    probe_domain_conv,
    probe_codecs,
    probe_search,
    probe_experiments,
    probe_cli,
)


def run_all(span):
    """Every probe, each under its own span; returns the merged metrics."""
    metrics = {}
    for probe in PROBES:
        with span(probe.__name__):
            metrics.update(probe())
    return metrics
