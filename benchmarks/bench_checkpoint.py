"""Capacity/overhead gate for the erasure-coded checkpoint subsystem.

Runs the same elastic 1.5D MLP training job three times — with
checkpointing off, with erasure-coded sharded checkpoints, and with
full replication — and gates two committed claims:

* **capacity** — the bytes stored per periodic take (summed over all
  ranks) shrink by at least ``MIN_REDUCTION``x versus full replication.
  With ``k = Pc - parity`` data chunks per stripe the analytic ratio is
  ``~ Pr * k`` (each rank keeps one chunk of its row stripe instead of
  the whole state), so the 2x floor has wide margin at this shape.
* **overhead** — the erasure run's virtual makespan stays within
  ``MAX_OVERHEAD`` of the checkpoint-free run.  Erasure takes are
  purely local encodes (zero bytes on the wire, zero alpha-beta time),
  so the measured ratio is exactly 1.0; the ceiling guards against the
  take path ever growing a communication step.

Both figures are *virtual* and therefore exactly reproducible.  The
gate also re-asserts that checkpointing never changes the math: all
three runs' final weights must be bit-identical.

Flags, baseline handling and exit codes (0 pass, 1 ``REGRESSION:``,
2 unusable baseline) are those of ``_gate.run_gate``; refresh the
baseline after an intentional change with ``--update-baseline``.
"""

import os

import numpy as np

import _gate

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_checkpoint.json")
BENCH_SCHEMA = "repro.checkpoint.bench/v1"

#: Committed floor on replicated/erasure stored bytes per take.
MIN_REDUCTION = 2.0
#: Committed ceiling on erasure/no-checkpoint virtual makespan.
MAX_OVERHEAD = 1.05

CONFIG = {
    "dims": [24, 16, 10],
    "pr": 2,
    "pc": 4,
    "batch": 16,
    "steps": 8,
    "checkpoint_every": 2,
    "parity": 1,
    "seed": 0,
    "machine": "cori-knl",
}


def run_checkpoint_bench() -> dict:
    """Measure stored bytes and makespans; return a gateable record."""
    from repro.dist.elastic import elastic_mlp_train
    from repro.dist.train import MLPParams
    from repro.simmpi.engine import SimEngine

    dims = tuple(CONFIG["dims"])
    rng = np.random.default_rng(CONFIG["seed"])
    x = rng.standard_normal((dims[0], 4 * CONFIG["batch"]))
    y = rng.integers(0, dims[-1], 4 * CONFIG["batch"])
    params0 = MLPParams.init(dims, seed=1)

    def one(mode, every):
        res = elastic_mlp_train(
            params0, x, y, pr=CONFIG["pr"], pc=CONFIG["pc"],
            batch=CONFIG["batch"], steps=CONFIG["steps"],
            checkpoint_every=every, ckpt_mode=mode,
            parity=CONFIG["parity"],
            engine=SimEngine(CONFIG["pr"] * CONFIG["pc"], trace=True, supervise=True),
        )
        takes = [
            e for e in res.engine.tracer.canonical()
            if e.op == "ckpt.take" and int(e.tag[0]) > 0
        ]
        stored = sum(int(e.tag[2]) for e in takes)
        return res.weights, res.sim.time, stored, len(takes)

    # Checkpointing off: the periodic take never fires past step 0.
    off_w, off_s, off_stored, _ = one("erasure", 2 * CONFIG["steps"])
    assert off_stored == 0, "checkpoint-free run must store nothing"
    er_w, er_s, er_stored, er_takes = one("erasure", CONFIG["checkpoint_every"])
    rep_w, rep_s, rep_stored, rep_takes = one(
        "replicate", CONFIG["checkpoint_every"]
    )
    assert er_takes == rep_takes > 0, "both modes must take the same steps"
    return {
        "schema": BENCH_SCHEMA,
        "config": CONFIG,
        "no_ckpt_s": off_s,
        "erasure_s": er_s,
        "replicate_s": rep_s,
        "takes": er_takes,
        "erasure_stored_bytes": er_stored,
        "replicate_stored_bytes": rep_stored,
        "reduction": rep_stored / er_stored,
        "overhead": er_s / off_s,
        "identical": all(
            a.tobytes() == b.tobytes() for a, b in zip(er_w, off_w)
        )
        and all(a.tobytes() == b.tobytes() for a, b in zip(rep_w, off_w)),
        "min_reduction": MIN_REDUCTION,
        "max_overhead": MAX_OVERHEAD,
    }


def _report(record) -> None:
    print(f"config   : {record['config']}")
    print(f"stored   : erasure {record['erasure_stored_bytes']} B vs "
          f"replicate {record['replicate_stored_bytes']} B over "
          f"{record['takes']} takes -> {record['reduction']:.2f}x reduction")
    print(f"makespan : no-ckpt {record['no_ckpt_s']:.6f}s, erasure "
          f"{record['erasure_s']:.6f}s, replicate "
          f"{record['replicate_s']:.6f}s (virtual)")
    print(f"overhead : {record['overhead']:.4f}x")


_LAYOUT_DRIFT = (
    "{key} changed: {value} vs baseline {limit} (shard layout drifted; "
    "update the baseline if intended)"
)

CHECKS = [
    ("true", "identical", None,
     "checkpointed weights diverged bitwise from the checkpoint-free run"),
    ("floor", "reduction", "min_reduction",
     "stored-bytes reduction {value:.2f}x fell below the committed floor "
     "{limit:.2f}x"),
    ("ceiling", "overhead", "max_overhead",
     "checkpoint overhead {value:.4f}x exceeds the committed ceiling "
     "{limit:.4f}x"),
    ("same", "erasure_stored_bytes", None, _LAYOUT_DRIFT),
    ("same", "replicate_stored_bytes", None, _LAYOUT_DRIFT),
]


def main(argv=None) -> int:
    return _gate.run_gate(
        argv,
        description=__doc__.splitlines()[0],
        baseline_path=BASELINE_PATH,
        measure=run_checkpoint_bench,
        report=_report,
        checks=CHECKS,
        passed="reduction floor {min_reduction:.2f}x, overhead ceiling "
               "{max_overhead:.4f}x, baseline {baseline[reduction]:.2f}x / "
               "{baseline[overhead]:.4f}x",
    )


test_checkpoint_capacity_gate = _gate.tier2_hook(main)


if __name__ == "__main__":
    raise SystemExit(main())
