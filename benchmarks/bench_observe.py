"""Monitor-overhead gate for the live health monitor.

Runs the same 1.5D MLP training job twice — once bare, once with a
:class:`~repro.observe.health.HealthMonitor` attached as the engine's
streaming event sink — and gates the monitored/bare makespan ratio
against the committed baseline in ``benchmarks/BENCH_observe.json``.
Both makespans are *virtual* seconds from the simulator's postal model,
and the monitor is observability-only (it never touches virtual
clocks), so the expected ratio is exactly ``1.0``; the committed
ceiling leaves the same 1.05x headroom as the other gates in case a
future change accidentally couples observation to timing.  The gate
also re-asserts the headline invariant directly: monitored weights,
losses and makespan must be bit-identical to the bare run's, and the
monitor must actually have seen the run (one heartbeat per rank per
step).

Flags, baseline handling and exit codes (0 pass, 1 ``REGRESSION:``,
2 unusable baseline) are those of ``_gate.run_gate``; refresh the
baseline after an intentional change with ``--update-baseline``.
"""

import os

import numpy as np

import _gate

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_observe.json")
BENCH_SCHEMA = "repro.observe.bench/v1"

# Observation must be free in virtual time: heartbeats are zero-duration
# trace events and the rule engine runs on host threads only.
MAX_OVERHEAD = 1.05

CONFIG = {
    "dims": [24, 16, 10],
    "pr": 2,
    "pc": 2,
    "batch": 16,
    "steps": 3,
    "seed": 0,
    "machine": "cori-knl",
}


def run_observe_bench() -> dict:
    """Measure monitored vs bare virtual makespan; return a record."""
    from repro.dist.train import MLPParams, distributed_mlp_train
    from repro.observe.health import HealthMonitor
    from repro.simmpi.engine import SimEngine

    dims = tuple(CONFIG["dims"])
    rng = np.random.default_rng(CONFIG["seed"])
    x = rng.standard_normal((dims[0], 4 * CONFIG["batch"]))
    y = rng.integers(0, dims[-1], 4 * CONFIG["batch"])
    params0 = MLPParams.init(dims, seed=1)

    def one(monitor):
        engine = SimEngine(
            CONFIG["pr"] * CONFIG["pc"], None, trace=True, metrics=monitor
        )
        weights, losses, sim = distributed_mlp_train(
            params0, x, y, pr=CONFIG["pr"], pc=CONFIG["pc"],
            batch=CONFIG["batch"], steps=CONFIG["steps"], engine=engine,
        )
        return weights, losses, sim.time

    bare_w, bare_l, bare_s = one(None)
    monitor = HealthMonitor()
    mon_w, mon_l, mon_s = one(monitor)
    monitor.finish()
    # One end-of-step heartbeat per rank per step must reach the monitor.
    heartbeats = CONFIG["pr"] * CONFIG["pc"] * CONFIG["steps"]
    seen = monitor.heartbeats_seen
    return {
        "schema": BENCH_SCHEMA,
        "config": CONFIG,
        "bare_s": bare_s,
        "monitored_s": mon_s,
        "overhead": mon_s / bare_s,
        "heartbeats": seen,
        "expected_heartbeats": heartbeats,
        "identical": (
            all(a.tobytes() == b.tobytes() for a, b in zip(mon_w, bare_w))
            and list(mon_l) == list(bare_l)
            and mon_s == bare_s
        ),
        "health_events": len(monitor.events),
        "max_overhead": MAX_OVERHEAD,
    }


def _report(record) -> None:
    print(f"config   : {record['config']}")
    print(f"bare     : {record['bare_s']:.6f} virtual s")
    print(f"monitored: {record['monitored_s']:.6f} virtual s "
          f"({record['heartbeats']} heartbeats observed)")
    print(f"overhead : {record['overhead']:.4f}x")


CHECKS = [
    ("true", "identical", None,
     "monitored run diverged bitwise from the bare run "
     "(weights, losses or makespan changed under observation)"),
    ("ceiling", "overhead", "max_overhead",
     "monitor overhead {value:.4f}x exceeds the committed ceiling {limit:.4f}x"),
    ("at_least", "heartbeats", "expected_heartbeats",
     "monitor saw {value} heartbeats, expected at least {limit} "
     "(one per rank per step; did a trainer stop emitting?)"),
]


def main(argv=None) -> int:
    return _gate.run_gate(
        argv,
        description=__doc__.splitlines()[0],
        baseline_path=BASELINE_PATH,
        measure=run_observe_bench,
        report=_report,
        checks=CHECKS,
        passed="ceiling {max_overhead:.4f}x, baseline {baseline[overhead]:.4f}x",
    )


test_observe_monitor_overhead_gate = _gate.tier2_hook(main)


if __name__ == "__main__":
    raise SystemExit(main())
