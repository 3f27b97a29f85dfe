"""Scale and determinism gate for the discrete-event simmpi scheduler.

Two claims are gated against the committed baseline in
``benchmarks/BENCH_simmpi.json``:

1. **Scale ceiling.**  A full-telemetry, fault-injected 1.5D training
   step at P=1024 must finish within the committed wall-clock ceiling:
   the "10k+ ranks are routine" claim, kept honest in seconds.

2. **Rerun identity.**  A second run on one engine must equal a fresh
   engine's run: values, final clocks, and canonical trace, bit for bit.

Flags, baseline handling and exit codes (0 pass, 1 ``REGRESSION:``,
2 unusable baseline) are those of ``_gate.run_gate``; refresh the
baseline after an intentional change with ``--update-baseline``.
"""

import os
import time

import numpy as np

import _gate

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_simmpi.json")
BENCH_SCHEMA = "repro.simmpi.bench/v1"

CONFIG = {
    "scale": {"pr": 32, "pc": 32, "steps": 1, "dims": [64, 64, 32]},
}

CEILING_P1024_S = 60.0


def _scale_run():
    """Full-telemetry fault-injected P=1024 training step."""
    from repro.dist.train import MLPParams, distributed_mlp_train
    from repro.simmpi.engine import SimEngine
    from repro.simmpi.faults import FaultPlan, LinkFault, Straggler

    cfg = CONFIG["scale"]
    pr, pc = cfg["pr"], cfg["pc"]
    dims = tuple(cfg["dims"])
    batch = pc * 2
    rng = np.random.default_rng(0)
    x = rng.standard_normal((dims[0], 2 * batch))
    y = rng.integers(0, dims[-1], 2 * batch)
    params0 = MLPParams.init(dims, seed=1)
    plan = FaultPlan(
        seed=5,
        stragglers=(Straggler(rank=3, factor=2.0, jitter=0.05),),
        links=(
            LinkFault(
                src=0, dst=1, latency_factor=4.0, bandwidth_factor=2.0,
                t_start=0.0, t_end=1.0,
            ),
        ),
    )
    engine = SimEngine(pr * pc, trace=True, faults=plan)
    t0 = time.monotonic()
    _, losses, sim = distributed_mlp_train(
        params0, x, y, pr=pr, pc=pc, batch=batch, steps=cfg["steps"],
        engine=engine,
    )
    wall = time.monotonic() - t0
    ok = (
        bool(np.isfinite(losses).all())
        and len(sim.clocks) == pr * pc
        and len(engine.tracer.events) > 100 * pr * pc
    )
    return wall, ok


def _rerun_identity():
    """A rerun on one engine equals a fresh engine's run, bit for bit."""
    from repro.dist.train import MLPParams, distributed_mlp_train
    from repro.simmpi.engine import SimEngine

    dims = (12, 10, 6)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((dims[0], 32))
    y = rng.integers(0, dims[-1], 32)
    params0 = MLPParams.init(dims, seed=2)

    def train(engine):
        engine.tracer.clear()
        w, losses, sim = distributed_mlp_train(
            params0, x, y, pr=2, pc=2, batch=8, steps=2, engine=engine
        )
        return [a.tobytes() for a in w], losses, sim.clocks, engine.tracer.canonical()

    reused = SimEngine(4, trace=True)
    train(reused)
    return train(reused) == train(SimEngine(4, trace=True))


def run_simmpi_bench() -> dict:
    scale_wall, scale_ok = _scale_run()
    return {
        "schema": BENCH_SCHEMA,
        "config": CONFIG,
        "scale_wall_s": scale_wall,
        "scale_ok": scale_ok,
        "identical": _rerun_identity(),
        "ceiling_s": CEILING_P1024_S,
    }


def _report(record) -> None:
    print(f"scale P=1024: full-telemetry faulted step in "
          f"{record['scale_wall_s']:.1f}s")
    print(f"identity    : {'PASS' if record['identical'] else 'FAIL'}")


CHECKS = [
    ("ceiling", "scale_wall_s", "ceiling_s",
     "P=1024 full-telemetry step took {value:.1f}s, over the committed "
     "ceiling {limit:.1f}s"),
    ("true", "scale_ok", None,
     "P=1024 run lost its telemetry or clocks (scale sanity failed)"),
    ("true", "identical", None,
     "a rerun on one engine diverged bitwise from a fresh engine "
     "(values, clocks, or canonical trace)"),
]


def main(argv=None) -> int:
    return _gate.run_gate(
        argv,
        description=__doc__.splitlines()[0],
        baseline_path=BASELINE_PATH,
        measure=run_simmpi_bench,
        report=_report,
        checks=CHECKS,
        passed="ceiling {ceiling_s:.0f}s",
        width=12,
    )


test_simmpi_scale_gate = _gate.tier2_hook(main)


if __name__ == "__main__":
    raise SystemExit(main())
