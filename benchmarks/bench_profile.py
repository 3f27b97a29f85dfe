"""Self-profiler overhead gate (``repro.profile``).

Three claims are gated against the committed baseline in
``benchmarks/BENCH_profile.json``:

1. **Overhead budget.**  A fixed event-backend 1.5D training run is
   timed bare and under a :class:`~repro.profile.ProfileSession`
   (interleaved, medians over ``REPS`` pairs).  The profiled/bare wall
   ratio must stay under the committed ceiling — the documented <5%
   budget (``repro.profile.OVERHEAD_BUDGET``) — and the sampler's own
   measured busy fraction must stay under the budget too (the
   self-pacing in :mod:`repro.profile.sampler` enforces this even at
   high rank counts).

2. **Per-message host cost.**  The profiled run's all-in µs/msg
   (wall clock over messages sent — counter-exact, no sampling
   involved) must stay under the committed ceiling.  This is the
   ROADMAP's "~7µs per message" figure turned into a regression gate:
   message-path pessimisations show up here directly.

3. **Bit-identity.**  The profiler is observability only: a profiled
   and an unprofiled run of the same program must produce identical
   weights, losses, virtual clocks, and canonical traces.

Flags, baseline handling and exit codes (0 pass, 1 ``REGRESSION:``,
2 unusable baseline) are those of ``_gate.run_gate``; refresh the
baseline after an intentional change with ``--update-baseline``.
"""

import os
import statistics
import time
from contextlib import nullcontext

import numpy as np

import _gate

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_profile.json")
BENCH_SCHEMA = "repro.profile.bench/v1"

REPS = 5

CONFIG = {
    "run": {"pr": 4, "pc": 4, "steps": 40, "dims": [64, 64, 32], "hz": 197.0},
    "reps": REPS,
}

# Committed gates.  The documented <5% budget (OVERHEAD_BUDGET) is
# enforced on the sampler's *directly measured* self time — stable at
# ~0.5% — because the identical workload's wall time swings ±15%
# run-to-run on a shared single-core container, so an end-to-end wall
# ratio cannot resolve a 5% effect there.  The ratio is still gated as
# a coarse backstop against gross pessimisation (a hook on the wrong
# path, a sampler that stops pacing): min(profiled)/min(bare) walls —
# minima because scheduling noise only ever adds time — against a
# ceiling with noise headroom above the budget (quiet-host ratios sit
# at ~0.99-1.06, but loaded runs have been observed at 1.16).  The
# µs/msg ceiling carries ~4x headroom over quiet measurements
# (~45µs/msg all-in at this size, scheduler handoff dominating) for
# the same reason.
CEILING_OVERHEAD_RATIO = 1.25
CEILING_US_PER_MSG = 180.0


def _workload(session=None):
    """One fixed event-backend training run, inside ``session`` when
    given; returns (wall_s, outputs)."""
    from repro.dist.train import MLPParams, distributed_mlp_train
    from repro.simmpi.engine import SimEngine

    cfg = CONFIG["run"]
    pr, pc = cfg["pr"], cfg["pc"]
    dims = tuple(cfg["dims"])
    batch = pc * 2
    rng = np.random.default_rng(0)
    x = rng.standard_normal((dims[0], 2 * batch))
    y = rng.integers(0, dims[-1], 2 * batch)
    params0 = MLPParams.init(dims, seed=1)
    engine = SimEngine(pr * pc, backend="event")
    t0 = time.monotonic()
    with nullcontext() if session is None else session:
        weights, losses, sim = distributed_mlp_train(
            params0, x, y, pr=pr, pc=pc, batch=batch, steps=cfg["steps"],
            engine=engine,
        )
    wall = time.monotonic() - t0
    return wall, (weights, losses, sim)


def _overhead_ratios():
    """Interleaved bare/profiled walls; robust ratio + per-rep reports.

    Returns ``(ratio, pair_ratios, reports)`` where ``ratio`` is
    ``min(profiled walls) / min(bare walls)`` — minima because
    OS-scheduling noise only ever *adds* wall time, making this the
    robust estimator on shared single-core runners where per-pair
    ratios swing ±15% (the pair ratios are recorded for eyes).
    """
    from repro.profile import ProfileSession

    bare_walls = []
    profiled_walls = []
    reports = []
    for _ in range(REPS):
        bare_wall, _ = _workload()
        session = ProfileSession(hz=CONFIG["run"]["hz"])
        profiled_wall, _ = _workload(session)
        bare_walls.append(bare_wall)
        profiled_walls.append(profiled_wall)
        reports.append(session.report())
    ratio = min(profiled_walls) / min(bare_walls)
    pairs = [p / b for p, b in zip(profiled_walls, bare_walls)]
    return ratio, pairs, reports


def _bit_identity():
    """Profiled vs unprofiled traced run: all outputs bit-identical."""
    from repro.dist.train import MLPParams, distributed_mlp_train
    from repro.profile import ProfileSession
    from repro.simmpi.engine import SimEngine

    dims = (12, 10, 6)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((dims[0], 32))
    y = rng.integers(0, dims[-1], 32)
    params0 = MLPParams.init(dims, seed=2)
    out = {}
    for profiled in (False, True):
        engine = SimEngine(4, backend="event", trace=True)
        with ProfileSession() if profiled else nullcontext():
            w, losses, sim = distributed_mlp_train(
                params0, x, y, pr=2, pc=2, batch=8, steps=2, engine=engine,
            )
        out[profiled] = (w, losses, sim, engine.tracer.canonical())
    w0, l0, s0, c0 = out[False]
    w1, l1, s1, c1 = out[True]
    return (
        all(a.tobytes() == b.tobytes() for a, b in zip(w0, w1))
        and l0 == l1
        and s0.clocks == s1.clocks
        and c0 == c1
    )


def run_profile_bench() -> dict:
    from repro.profile import OVERHEAD_BUDGET

    ratio, pair_ratios, reports = _overhead_ratios()
    # Median-rep derived figures: the counter-exact all-in µs/msg and
    # the sampler's directly measured self-time fraction.
    us_per_msg = statistics.median(
        r.us_per_msg_allin for r in reports if r.us_per_msg_allin
    )
    sampler_frac = statistics.median(r.overhead_frac for r in reports)
    attribution_ok = all(
        r.ticks == 0 or abs(r.attribution_total_s - r.wall_s) <= 0.10 * r.wall_s
        for r in reports
    )
    return {
        "schema": BENCH_SCHEMA,
        "config": CONFIG,
        "overhead_ratio": ratio,
        "overhead_ratio_reps": pair_ratios,
        "sampler_busy_frac": sampler_frac,
        "us_per_msg_allin": us_per_msg,
        "attribution_ok": attribution_ok,
        "identical": _bit_identity(),
        "budget": OVERHEAD_BUDGET,
        "ceiling_overhead_ratio": CEILING_OVERHEAD_RATIO,
        "ceiling_us_per_msg": CEILING_US_PER_MSG,
    }


def _report(record) -> None:
    print(f"overhead    : profiled/bare wall ratio {record['overhead_ratio']:.3f} "
          f"(reps {[f'{r:.3f}' for r in record['overhead_ratio_reps']]})")
    print(f"sampler     : busy fraction {record['sampler_busy_frac']:.2%} "
          f"of wall (budget {record['budget']:.0%})")
    print(f"message path: {record['us_per_msg_allin']:.1f} µs/msg all-in "
          "(wall / msgs, counter-exact)")
    print(f"attribution : {'PASS' if record['attribution_ok'] else 'FAIL'} "
          "(rows sum to wall within 10%)")
    print(f"identity    : {'PASS' if record['identical'] else 'FAIL'}")


CHECKS = [
    ("ceiling", "overhead_ratio", "ceiling_overhead_ratio",
     "profiler overhead ratio {value:.3f} exceeds the committed ceiling "
     "{limit:.3f}"),
    ("ceiling", "sampler_busy_frac", "budget",
     "sampler busy fraction {value:.2%} exceeds the budget {limit:.2%}"),
    ("ceiling", "us_per_msg_allin", "ceiling_us_per_msg",
     "all-in per-message host cost {value:.1f}µs exceeds the committed "
     "ceiling {limit:.1f}µs"),
    ("true", "attribution_ok", None,
     "attribution rows no longer sum to the measured wall-clock within 10%"),
    ("true", "identical", None,
     "profiled run diverged bitwise from the unprofiled run "
     "(values, clocks, or canonical trace)"),
]


def main(argv=None) -> int:
    return _gate.run_gate(
        argv,
        description=__doc__.splitlines()[0],
        baseline_path=BASELINE_PATH,
        measure=run_profile_bench,
        report=_report,
        checks=CHECKS,
        passed="ratio <= {ceiling_overhead_ratio:.3f}, busy <= {budget:.2%}, "
               "µs/msg <= {ceiling_us_per_msg:.0f}",
        width=12,
    )


test_profile_gate = _gate.tier2_hook(main)


if __name__ == "__main__":
    raise SystemExit(main())
