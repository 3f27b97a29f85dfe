"""The benchmark's only door into ``repro``.

Every import of the package under test and every call into it lives in
this module, so a later change to a public signature is a one-file fix
in a benchmark-only PR.  Nothing here measures anything: functions take
plain inputs, call public functions of ``repro`` and return plain
outputs.  Timing, spans and checks belong to ``workloads.py`` and
``probes.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

import repro
from repro.analysis import critical_path, rank_accounting
from repro.core import ProcessGrid, best_strategy, integrated_mb_cost
from repro.core import pareto as serial_pareto
from repro.core import sweep as serial_sweep
from repro.dist.abft import block_checksums, make_guard
from repro.dist.conv_domain import DomainConv2D
from repro.dist.elastic import elastic_mlp_train
from repro.dist.erasure import decode_stripe, encode_stripe
from repro.dist.integrated import (
    CNNParams,
    IntegratedCNNConfig,
    distributed_cnn_train,
    serial_cnn_train,
)
from repro.dist.train import (
    MLPParams,
    distributed_mlp_train,
    mlp_run_record,
    serial_mlp_train,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.machine import ComputeModel, cori_knl
from repro.nn import alexnet, resnet_like_stack, vgg16
from repro.observe.health import evaluate_health
from repro.profile import ProfileSession
from repro.search import (
    SearchEngine,
    comm_memory_frontier,
    strong_scaling_curve,
    weak_scaling_curve,
)
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import (
    BitFlipFault,
    Cascade,
    Crash,
    FaultPlan,
    Straggler,
)
from repro.telemetry.audit import audit_events
from repro.telemetry.chrome import validate_chrome_trace, write_chrome_trace
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.summary import span_summary

REPRO_VERSION = repro.__version__

#: ImageNet LSVRC-2012 training-set size, the paper's Table 1 dataset.
DATASET_SIZE = 1281167


# -- engines and counters -----------------------------------------------------


def make_engine(ranks, *, backend="event", trace=False, metrics=None, faults=None):
    """A fresh simulated-MPI engine of ``ranks`` world ranks."""
    return SimEngine(
        ranks, backend=backend, trace=trace, metrics=metrics, faults=faults
    )


def run_ranks(engine, program, *args):
    """Run ``program(comm, *args)`` on every rank; returns the final clocks."""
    return engine.run(program, *args).clocks


def counting_session():
    """A context manager that counts messages, bytes, switches and trace
    records of everything run inside it (``.counters`` afterwards).

    The sampler is slowed to 1 Hz: only the exact hook counters are read,
    never the sampled times (docs/PROFILE.md documents their single-core
    bias), so the session should cost the run as little as possible.
    """
    return ProfileSession(hz=1.0)


def default_profile_session():
    """The profiler as a user would switch it on (default sampling rate)."""
    return ProfileSession()


def metrics_registry():
    return MetricsRegistry()


# -- rank programs for the simmpi probes --------------------------------------


def noop_program(comm):
    return comm.rank


def barrier_storm_program(comm, rounds):
    for _ in range(rounds):
        comm.barrier()


def ring_program(comm, rounds, payload):
    """Each rank passes ``payload`` to its right neighbour ``rounds`` times."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    for _ in range(rounds):
        comm.sendrecv(payload, right, source=left)


def allreduce_ring_program(comm, rounds, length):
    arr = np.full(length, float(comm.rank))
    for _ in range(rounds):
        comm.allreduce(arr, algorithm="ring")


def allgather_bruck_program(comm, rounds, length):
    arr = np.full(length, float(comm.rank))
    for _ in range(rounds):
        comm.allgather(arr, algorithm="bruck")


def domain_conv_program(comm, x_local, weights, total_height, rounds, backward):
    """``rounds`` halo-exchanging convolutions (and optionally their
    backward pass) on this rank's row block."""
    conv = DomainConv2D(comm, total_height, weights.shape[2], weights.shape[3])
    for _ in range(rounds):
        out = conv.forward(x_local, weights)
        if backward:
            conv.backward(out, weights)


def inert_fault_plan():
    """A non-empty plan that never fires: the run pays for every fault
    check and takes none of the fault paths."""
    return FaultPlan(seed=0, crashes=(Crash(rank=0, at_step=10**9),))


# -- inputs -------------------------------------------------------------------


def mlp_inputs(dims, batch, seed):
    """Initial weights and a two-batch dataset, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dims[0], 2 * batch))
    y = rng.integers(0, dims[-1], 2 * batch)
    return MLPParams.init(dims, seed=seed + 1), x, y


def cnn_config(*, in_channels, height, width, conv_channels, fc_dims):
    """3x3 same-padding convolutions, each followed by a 2x2 max pool."""
    n = len(conv_channels)
    return IntegratedCNNConfig(
        in_channels=in_channels,
        height=height,
        width=width,
        conv_channels=tuple(conv_channels),
        conv_kernels=(3,) * n,
        pool_after=(True,) * n,
        fc_dims=tuple(fc_dims),
    )


def cnn_inputs(config, batch, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(
        (2 * batch, config.in_channels, config.height, config.width)
    )
    y = rng.integers(0, config.fc_dims[-1], 2 * batch)
    return CNNParams.init(config, seed=seed + 1), x, y


def chaos_plan(ranks):
    """Two concurrent crashes at step 2, a cascade during the recovery
    they trigger, one straggler and one correctable matmul bit flip.

    The plan is the same for every benchmark seed, its own jitter seed
    included: the straggler's jitter moves virtual time, virtual time
    orders the scheduler, and the number of switches followed the seed
    by up to 8 %.  Every seed must do the same amount of work.
    """
    return FaultPlan(
        seed=7,
        crashes=(
            Crash(rank=ranks // 7, at_step=2),
            Crash(rank=ranks // 2 - 2, at_step=2),
        ),
        cascades=(Cascade(rank=(2 * ranks) // 3 - 1, at_recovery=1),),
        stragglers=(Straggler(rank=5, factor=1.5, jitter=0.1),),
        bitflips=(
            BitFlipFault(
                rank=3, target="matmul", layer=0, step=1, gemm="fwd",
                element=5, bit=40,
            ),
        ),
    )


# -- trainers -----------------------------------------------------------------


def serial_mlp(params0, x, y, *, batch, steps):
    """The single-worker baseline: ``(weights, losses)``."""
    params, losses = serial_mlp_train(params0, x, y, batch=batch, steps=steps)
    return params.weights, losses


def train_mlp(params0, x, y, *, pr, pc, batch, steps, engine):
    """1.5D training on ``engine``: ``(weights, losses, sim)``."""
    return distributed_mlp_train(
        params0, x, y, pr=pr, pc=pc, batch=batch, steps=steps, engine=engine
    )


def serial_cnn(config, params0, x, y, *, batch, steps):
    params, losses = serial_cnn_train(config, params0, x, y, batch=batch, steps=steps)
    return params.all_params(), losses


def train_cnn(config, params0, x, y, *, pr, pc, batch, steps, engine):
    """Model+batch+domain training (Eq. 9): ``(params, losses, sim)``."""
    params, losses, sim = distributed_cnn_train(
        config, params0, x, y, pr=pr, pc=pc, batch=batch, steps=steps, engine=engine
    )
    return params.all_params(), losses, sim


def train_elastic(params0, x, y, *, pr, pc, batch, steps, plan, parity):
    """Elastic 1.5D training under ``plan`` with correcting ABFT guards.

    Returns the :class:`ElasticResult` and the guard's ``sdc.*`` counts.
    """
    guard = make_guard("correct", single_thread=True)
    result = elastic_mlp_train(
        params0, x, y, pr=pr, pc=pc, batch=batch, steps=steps,
        checkpoint_every=2, parity=parity, faults=plan, sdc=guard, engine="event",
    )
    return result, guard.monitor.snapshot()


def elastic_summary(result):
    """The exact recovery and checkpoint facts of an elastic run."""
    return {
        "grids": [list(g) for g in result.grids],
        "failed": list(result.sim.failed),
        "restore_steps": list(result.restore_steps),
        "degraded_steps": list(result.degraded_steps),
        "ckpt_takes": len(result.store.steps()),
        "ckpt_restores": len(result.restore_steps),
        "ckpt_stored_bytes": int(result.store.stored_bytes()),
    }


def sim_digest(sim, losses):
    """Virtual-time digest of a run: makespan, every rank's clock and
    every loss, bit for bit."""
    h = hashlib.sha256()
    h.update(np.asarray(sim.clocks, dtype=np.float64).tobytes())
    h.update(np.asarray(losses, dtype=np.float64).tobytes())
    return {"makespan": max(sim.clocks).hex(), "state_sha": h.hexdigest()[:16]}


# -- trace analysis pipeline --------------------------------------------------


def canonical_events(engine):
    return engine.tracer.canonical()


def tracer_dropped(engine):
    return engine.tracer.dropped


def event_traffic(events):
    """``(messages, bytes)`` sent, counted from a trace."""
    sends = [e for e in events if e.op == "send"]
    return len(sends), sum(e.nbytes for e in sends)


def audit(events, dims, *, pr, pc, batch, steps):
    """Measured traffic against Eq. 8; returns ``report.exact``."""
    return audit_events(events, dims, pr=pr, pc=pc, batch=batch, steps=steps).exact


def accounting(events, clocks):
    return rank_accounting(events, clocks=clocks)


def critical(events, clocks):
    return critical_path(events, clocks=clocks).summary()


def summarize_spans(events):
    return span_summary(events).to_ascii()


def run_record(engine, sim, *, dims, pr, pc, batch, steps):
    return mlp_run_record(engine, sim, dims=dims, pr=pr, pc=pc, batch=batch, steps=steps)


def chrome_export(events, path):
    """Write the Perfetto trace and validate it; returns its event count."""
    return validate_chrome_trace(write_chrome_trace(events, path, title="bench"))


def observe_all(registry, events):
    for event in events:
        registry.observe_event(event)


def health(events):
    return evaluate_health(events).counts


# -- strategy search ----------------------------------------------------------


def sweep_inputs(seed):
    """The three networks, the paper's compute table and a Cori-KNL
    machine whose alpha and beta are drawn within 10 % of Table 1."""
    rng = np.random.default_rng(seed)
    machine = cori_knl()
    machine = dataclasses.replace(
        machine,
        alpha=machine.alpha * rng.uniform(0.9, 1.1),
        beta_per_byte=machine.beta_per_byte * rng.uniform(0.9, 1.1),
    )
    networks = {
        "alexnet": alexnet(),
        "vgg16": vgg16(),
        "resnet": resnet_like_stack(),
    }
    return networks, machine, ComputeModel.knl_alexnet()


def search_engine():
    """A cold search engine (empty cost cache)."""
    return SearchEngine()


def cache_counts(engine):
    stats = engine.cache_stats()
    return stats.hits, stats.misses


def _point_key(point):
    return (point.processes, point.batch, point.best_label, point.best_total_s.hex())


def strong_sweep(engine, network, batch, processes, machine, compute):
    points, _ = strong_scaling_curve(
        network, batch, processes, machine, compute,
        dataset_size=DATASET_SIZE, jobs=1, engine=engine,
    )
    return [_point_key(p) for p in points]


def weak_sweep(engine, network, pairs, machine, compute):
    points, _ = weak_scaling_curve(
        network, pairs, machine, compute,
        dataset_size=DATASET_SIZE, jobs=1, engine=engine,
    )
    return [_point_key(p) for p in points]


def _frontier_key(frontier):
    return [
        (pt.strategy.describe(), pt.comm_time.hex(), float(pt.memory_elements).hex())
        for pt in frontier
    ]


def pareto_sweep(engine, network, batch, p, machine):
    frontier, _ = comm_memory_frontier(network, batch, p, machine, jobs=1, engine=engine)
    return _frontier_key(frontier)


def serial_point(network, batch, p, machine, compute):
    """One ``(P, B)`` point from the plain serial optimizer (the oracle)."""
    return _point_key(
        serial_sweep.evaluate_scaling_point(
            network, batch, p, machine, compute, dataset_size=DATASET_SIZE
        )
    )


def serial_pareto_frontier(network, batch, p, machine):
    frontier, _ = serial_pareto.comm_memory_frontier(network, batch, p, machine)
    return _frontier_key(frontier)


def cost_eval(network, batch, pr, pc, machine):
    """One closed-form Eq. 8 evaluation."""
    return integrated_mb_cost(network, batch, ProcessGrid(pr, pc), machine).total


def serial_best_strategy(network, batch, p, machine, compute):
    return best_strategy(network, batch, p, machine, compute).strategy.describe()


def analytic_experiment_ids():
    """Every registered experiment that evaluates closed forms only."""
    return [k for k in EXPERIMENTS if k not in ("dist", "modelcheck")]


def run_analytic_experiment(experiment_id):
    return run_experiment(experiment_id)


# -- codecs -------------------------------------------------------------------


def erasure_encode(data, k, r):
    return encode_stripe(data, k, r)


def erasure_decode(chunks, k, r, length):
    return decode_stripe(chunks, k, r, length)


def abft_checksums(block):
    return block_checksums(block)
