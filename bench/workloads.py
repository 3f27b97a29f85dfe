"""The five workloads: what one iteration runs and how it is checked.

A workload is built from ``(seed, quick)``.  ``setup()`` generates the
inputs from the seed and computes the serial oracle; ``iterate(span)``
runs one closed-loop iteration, wrapping each call into a layer of
``repro`` in ``span(name)``, checks the result against the oracle and
returns ``(digest, counts, errors)``:

* ``digest`` — every simulated statistic of the iteration, bit for bit.
  It must be the same on every iteration and, for seed 0, equal to
  ``golden.json``: a simulator speed-up may not move virtual time.
* ``counts`` — exact per-iteration counts for the per-layer report.
* ``errors`` — oracle mismatches, as strings (empty when correct).

The problem sizes are what the reference numbers in ``README.md`` were
measured with; ``quick`` shrinks the grids for the self-test.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

import adapters

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# Distributed and serial training agree to rounding, not bit for bit:
# the grid changes the order of the reductions.
RTOL, ATOL = 1e-10, 1e-12


def _compare(name, got, want):
    if len(got) != len(want):
        return [f"{name}: {len(got)} arrays, oracle has {len(want)}"]
    errors = []
    for i, (a, b) in enumerate(zip(got, want)):
        if not np.allclose(a, b, rtol=RTOL, atol=ATOL):
            worst = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
            errors.append(f"{name}[{i}] differs from the serial oracle by {worst:.3e}")
    return errors


def _sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Mlp15dP512:
    """Tiny blocks on the paper's largest evaluated P: nearly all host
    time is simmpi spawn/switch/message Python."""

    name = "mlp15d_p512"

    def __init__(self, seed, quick):
        self.seed = seed
        self.pr, self.pc = (8, 8) if quick else (16, 32)
        self.dims = (64, 64, 32)
        self.batch = 64
        self.steps = 1

    def setup(self):
        self.params0, self.x, self.y = adapters.mlp_inputs(self.dims, self.batch, self.seed)
        self.oracle = adapters.serial_mlp(
            self.params0, self.x, self.y, batch=self.batch, steps=self.steps
        )

    def iterate(self, span):
        with span("train"):
            engine = adapters.make_engine(self.pr * self.pc)
            weights, losses, sim = adapters.train_mlp(
                self.params0, self.x, self.y, pr=self.pr, pc=self.pc,
                batch=self.batch, steps=self.steps, engine=engine,
            )
        with span("check"):
            errors = _compare("weights", weights, self.oracle[0])
            errors += _compare("losses", [losses], [self.oracle[1]])
            digest = adapters.sim_digest(sim, losses)
        return digest, {}, errors


class Mlp15dP64Traced:
    """The same trainer with tracing, a metrics sink and the whole
    analysis pipeline: recording and analysis are over half the wall."""

    name = "mlp15d_p64_traced"

    def __init__(self, seed, quick):
        self.seed = seed
        self.pr, self.pc = (4, 4) if quick else (8, 8)
        self.dims = (64, 64, 32)
        self.batch = 64
        self.steps = 2
        self.chrome_path = os.path.join(OUT_DIR, f"chrome-{self.name}.json")

    def setup(self):
        self.params0, self.x, self.y = adapters.mlp_inputs(self.dims, self.batch, self.seed)
        self.oracle = adapters.serial_mlp(
            self.params0, self.x, self.y, batch=self.batch, steps=self.steps
        )

    def iterate(self, span):
        shape = dict(pr=self.pr, pc=self.pc, batch=self.batch, steps=self.steps)
        with span("train"):
            registry = adapters.metrics_registry()
            engine = adapters.make_engine(self.pr * self.pc, trace=True, metrics=registry)
            weights, losses, sim = adapters.train_mlp(
                self.params0, self.x, self.y, engine=engine, **shape
            )
        with span("canonical"):
            events = adapters.canonical_events(engine)
        with span("audit"):
            exact = adapters.audit(events, self.dims, **shape)
        with span("accounting"):
            account = adapters.accounting(events, sim.clocks)
        with span("critical_path"):
            path = adapters.critical(events, sim.clocks)
        with span("span_summary"):
            table = adapters.summarize_spans(events)
        with span("run_record"):
            record = adapters.run_record(engine, sim, dims=self.dims, **shape)
        with span("chrome_export"):
            chrome_events = adapters.chrome_export(events, self.chrome_path)
        with span("check"):
            errors = _compare("weights", weights, self.oracle[0])
            errors += _compare("losses", [losses], [self.oracle[1]])
            if not exact:
                errors.append("audit: traced traffic does not match Eq. 8 exactly")
            if adapters.tracer_dropped(engine):
                errors.append("tracer dropped events")
            msgs, nbytes = adapters.event_traffic(events)
            digest = adapters.sim_digest(sim, losses)
            digest.update(
                msgs=msgs,
                bytes=nbytes,
                events=len(events),
                chrome_events=chrome_events,
                critical_s=float(path["length_s"]).hex(),
                idle_fraction=float(account.idle_fraction).hex(),
                span_table_sha=_sha(table),
                record_sha=_sha(record.to_dict()),
            )
        return digest, {}, errors


class CnnDomainP16:
    """The paper's Eq. 9 model+batch+domain case: NumPy conv/GEMM and
    halo payload copies dominate, simmpi does little."""

    name = "cnn_domain_p16"

    def __init__(self, seed, quick):
        self.seed = seed
        self.pr, self.pc = (2, 2) if quick else (4, 4)
        size = 32 if quick else 64
        self.batch = 8 if quick else 32
        self.steps = 2
        self.config = adapters.cnn_config(
            in_channels=3, height=size, width=size,
            conv_channels=(16, 32), fc_dims=(256, 10),
        )

    def setup(self):
        self.params0, self.x, self.y = adapters.cnn_inputs(self.config, self.batch, self.seed)
        self.oracle = adapters.serial_cnn(
            self.config, self.params0, self.x, self.y, batch=self.batch, steps=self.steps
        )

    def iterate(self, span):
        with span("train"):
            engine = adapters.make_engine(self.pr * self.pc)
            params, losses, sim = adapters.train_cnn(
                self.config, self.params0, self.x, self.y, pr=self.pr, pc=self.pc,
                batch=self.batch, steps=self.steps, engine=engine,
            )
        with span("check"):
            errors = _compare("params", params, self.oracle[0])
            errors += _compare("losses", [losses], [self.oracle[1]])
            digest = adapters.sim_digest(sim, losses)
        return digest, {}, errors


class ElasticChaosP64:
    """The only workload through simmpi.faults, dist.elastic,
    dist.erasure (checkpoint take and census restore) and dist.abft."""

    name = "elastic_chaos_p64"

    def __init__(self, seed, quick):
        self.seed = seed
        self.pr, self.pc = (4, 4) if quick else (8, 8)
        self.dims = (128, 128, 64)
        self.batch = 64
        self.steps = 4
        self.parity = 2

    def setup(self):
        self.params0, self.x, self.y = adapters.mlp_inputs(self.dims, self.batch, self.seed)
        self.plan = adapters.chaos_plan(self.pr * self.pc)
        self.oracle = adapters.serial_mlp(
            self.params0, self.x, self.y, batch=self.batch, steps=self.steps
        )

    def iterate(self, span):
        with span("train"):
            result, sdc = adapters.train_elastic(
                self.params0, self.x, self.y, pr=self.pr, pc=self.pc,
                batch=self.batch, steps=self.steps, plan=self.plan, parity=self.parity,
            )
        with span("check"):
            errors = _compare("weights", result.weights, self.oracle[0])
            errors += _compare("losses", [result.losses], [self.oracle[1]])
            summary = adapters.elastic_summary(result)
            if len(summary["failed"]) != 3:
                errors.append(f"expected 3 dead ranks, got {summary['failed']}")
            if summary["degraded_steps"]:
                errors.append(f"degraded restore at {summary['degraded_steps']}")
            if sdc.get("corrected", 0) != 1:
                errors.append(f"expected one corrected bit flip, got {sdc}")
            digest = adapters.sim_digest(result.sim, result.losses)
            digest.update(summary, sdc=sdc)
        counts = {k: summary[k] for k in ("ckpt_takes", "ckpt_restores", "ckpt_stored_bytes")}
        return digest, counts, errors


class StrategySweep:
    """No simmpi at all: the paper's actual contribution (core,
    collectives, search, nn, machine) on a cold cost cache."""

    name = "strategy_sweep"

    #: Seed-chosen points re-evaluated by the plain serial optimizer.
    #: All of them would take 7 s; twelve take about 0.4 s.
    ORACLE_POINTS = 12

    def __init__(self, seed, quick):
        self.seed = seed
        top = 9 if quick else 14
        self.processes = [2 ** i for i in range(3, top + 1)]  # 8 .. 16384
        self.batches = [2048] if quick else [512, 1024, 2048, 4096, 8192]
        self.pareto_p = [64] if quick else [64, 512, 4096]
        self.pareto_batch = 2048

    def setup(self):
        self.networks, self.machine, self.compute = adapters.sweep_inputs(self.seed)
        rng = np.random.default_rng(self.seed)
        names = sorted(self.networks)
        self.oracle_points = {}
        for _ in range(self.ORACLE_POINTS):
            net = names[rng.integers(len(names))]
            batch = self.batches[rng.integers(len(self.batches))]
            p = self.processes[rng.integers(len(self.processes))]
            self.oracle_points[(net, batch, p)] = adapters.serial_point(
                self.networks[net], batch, p, self.machine, self.compute
            )
        net = names[rng.integers(len(names))]
        p = self.pareto_p[rng.integers(len(self.pareto_p))]
        self.oracle_frontier = (net, p), adapters.serial_pareto_frontier(
            self.networks[net], self.pareto_batch, p, self.machine
        )

    def iterate(self, span):
        engine = adapters.search_engine()
        strong, weak, pareto = {}, {}, {}
        with span("strong"):
            for net, spec in self.networks.items():
                for batch in self.batches:
                    points = adapters.strong_sweep(
                        engine, spec, batch, self.processes, self.machine, self.compute
                    )
                    for point in points:
                        strong[(net, batch, point[0])] = point
        with span("weak"):
            pairs = [(p, 4 * p) for p in self.processes]
            for net, spec in self.networks.items():
                weak[net] = adapters.weak_sweep(
                    engine, spec, pairs, self.machine, self.compute
                )
        with span("pareto"):
            for net, spec in self.networks.items():
                for p in self.pareto_p:
                    pareto[(net, p)] = adapters.pareto_sweep(
                        engine, spec, self.pareto_batch, p, self.machine
                    )
        with span("check"):
            errors = [
                f"strong{key}: engine {strong[key]} != serial {want}"
                for key, want in self.oracle_points.items()
                if strong[key] != want
            ]
            key, want = self.oracle_frontier
            if pareto[key] != want:
                errors.append(f"pareto{key}: engine frontier differs from serial")
            hits, misses = adapters.cache_counts(engine)
            points = len(strong) + sum(len(v) for v in weak.values())
            labels = {
                f"{net} B={batch} P={p}": strong[(net, batch, p)][2]
                for net, batch, p in (
                    ("alexnet", 2048, 512), ("vgg16", 2048, 512), ("resnet", 2048, 512),
                )
            }
            digest = {
                "points": points,
                "best_strategy_labels": labels,
                "strong_sha": _sha(sorted((list(k), v) for k, v in strong.items())),
                "weak_sha": _sha(sorted(weak.items())),
                "pareto_sha": _sha(sorted((list(k), v) for k, v in pareto.items())),
                "cache_hits": hits,
                "cache_misses": misses,
            }
        return digest, {"points": points, "cache_hits": hits, "cache_misses": misses}, errors


WORKLOADS = {
    w.name: w
    for w in (Mlp15dP512, Mlp15dP64Traced, CnnDomainP16, ElasticChaosP64, StrategySweep)
}
