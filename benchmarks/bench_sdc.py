"""Guard-overhead gate for the ABFT / SDC defense subsystem.

Runs the same 1.5D MLP training job twice — unguarded and with ABFT
guards on — and gates the guarded/unguarded makespan ratio against the
committed baseline in ``benchmarks/BENCH_sdc.json``.  Both makespans
are *virtual* seconds from the simulator's postal model, so the ratio
is exactly reproducible: the only guard cost in alpha-beta time is the
8-byte digest escort on every guarded send (checksum folds are charged
zero virtual time, matching the cost model's ``abft.checksum_*``
terms).  The gate also re-asserts the headline invariant that guards
never change the math: guarded weights must be bit-identical to the
unguarded run's.

Flags, baseline handling and exit codes (0 pass, 1 ``REGRESSION:``,
2 unusable baseline) are those of ``_gate.run_gate``; refresh the
baseline after an intentional change with ``--update-baseline``.
"""

import os

import numpy as np

import _gate

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_sdc.json")
BENCH_SCHEMA = "repro.sdc.bench/v1"

# The committed ceiling on guarded/unguarded makespan.  The 8-byte
# digest escorts are tiny next to the block payloads they ride with, so
# the guard tax stays low single-digit percent at this problem size.
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


def run_sdc_bench() -> dict:
    """Measure guarded vs unguarded virtual makespan; return a record."""
    from repro.dist.train import MLPParams, distributed_mlp_train
    from repro.simmpi.engine import SimEngine

    dims = tuple(CONFIG["dims"])
    rng = np.random.default_rng(CONFIG["seed"])
    x = rng.standard_normal((dims[0], 4 * CONFIG["batch"]))
    y = rng.integers(0, dims[-1], 4 * CONFIG["batch"])
    params0 = MLPParams.init(dims, seed=1)

    def one(sdc):
        engine = SimEngine(CONFIG["pr"] * CONFIG["pc"], None, trace=True)
        weights, _, sim = distributed_mlp_train(
            params0, x, y, pr=CONFIG["pr"], pc=CONFIG["pc"],
            batch=CONFIG["batch"], steps=CONFIG["steps"],
            engine=engine, sdc=sdc,
        )
        guard_bytes = sum(
            e.guard_bytes for e in engine.tracer.canonical() if e.op == "send"
        )
        return weights, sim.time, guard_bytes

    plain_w, plain_s, plain_guard = one(None)
    guarded_w, guarded_s, guard_bytes = one("correct")
    assert plain_guard == 0, "unguarded run must carry no digest traffic"
    assert guard_bytes > 0, "guarded run produced no digest traffic"
    return {
        "schema": BENCH_SCHEMA,
        "config": CONFIG,
        "unguarded_s": plain_s,
        "guarded_s": guarded_s,
        "overhead": guarded_s / plain_s,
        "guard_bytes": guard_bytes,
        "identical": all(
            a.tobytes() == b.tobytes() for a, b in zip(guarded_w, plain_w)
        ),
        "max_overhead": MAX_OVERHEAD,
    }


def _report(record) -> None:
    print(f"config   : {record['config']}")
    print(f"unguarded: {record['unguarded_s']:.6f} virtual s")
    print(f"guarded  : {record['guarded_s']:.6f} virtual s "
          f"({record['guard_bytes']} digest bytes on the wire)")
    print(f"overhead : {record['overhead']:.4f}x")


CHECKS = [
    ("true", "identical", None,
     "guarded weights diverged bitwise from the unguarded run"),
    ("ceiling", "overhead", "max_overhead",
     "guard overhead {value:.4f}x exceeds the committed ceiling {limit:.4f}x"),
    ("same", "guard_bytes", None,
     "digest traffic changed: {value} bytes vs baseline {limit} "
     "(guard coverage grew or shrank; update the baseline if intended)"),
]


def main(argv=None) -> int:
    return _gate.run_gate(
        argv,
        description=__doc__.splitlines()[0],
        baseline_path=BASELINE_PATH,
        measure=run_sdc_bench,
        report=_report,
        checks=CHECKS,
        passed="ceiling {max_overhead:.4f}x, baseline {baseline[overhead]:.4f}x",
    )


test_sdc_guard_overhead_gate = _gate.tier2_hook(main)


if __name__ == "__main__":
    raise SystemExit(main())
