"""One workload in one process: set-up, the timed loop or the traced pass.

Started by ``run.py`` with the BLAS thread variables already set to 1
(they must be set before NumPy is imported) and ``PYTHONPATH`` pointing
at ``src/``.  Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

# Set again here so a child started by hand is measured the same way.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy  # noqa: E402

import adapters  # noqa: E402
import probes  # noqa: E402
from spans import SpanRecorder, ThreadWatch, no_span  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fewest timed iterations (or traced/untraced pairs) whatever ``--seconds`` says.
MIN_ITERATIONS = 3
#: A workload whose calibration loop slows by more than this is ``noisy``.
NOISE_LIMIT = 0.10

PHASES = (
    "train", "canonical", "audit", "accounting", "critical_path", "span_summary",
    "run_record", "chrome_export", "strong", "weak", "pareto", "check",
)


def pin_to_one_cpu():
    """Pin this process to the last CPU it may run on; returns its label.

    Unpinned, the event backend's hand-offs between parked OS threads
    become cross-core wake-ups, which doubled ``wall_s`` and made it
    drift by 20 % between sets on the 2-vCPU reference box.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return "unpinned"


def calib_spin_s():
    """A fixed pure-Python loop: the same work before and after a
    workload should take the same time on a quiet machine.  The fastest
    of five, so a short burst of interference does not flag the workload."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def load_golden(path, mode, workload):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)[mode][workload]
    except (OSError, ValueError, KeyError):
        return None


class Checker:
    """Counts operations and the ones whose check failed."""

    def __init__(self, golden):
        self.golden = golden  # None: compare iterations with each other only
        self.reference = None
        self.ops = 0
        self.failed = 0
        self.errors = []

    def check(self, digest, errors, counters=None):
        """One operation: oracle errors, then digest against the golden
        (seed 0) and against the first iteration (every seed)."""
        errors = list(errors)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            errors.append("digest differs from the first iteration's")
        if self.golden is not None:
            if digest != self.golden["digest"]:
                errors.append("virtual-time digest differs from golden.json")
            if counters is not None and counters != self.golden["counters"]:
                errors.append(f"counters {counters} differ from golden.json")
        self.ops += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:3])
        return not errors


def simmpi_counters(session):
    c = session.counters
    return {
        "msgs": c["msgs_sent"],
        "bytes": c["bytes_sent"],
        "switches": c["switches"],
        "trace_records": c["trace_records"],
    }


def iteration(workload, span):
    """One iteration: ``(wall_s, digest, counts, errors)``.

    An exception is a failed operation, not a crash.  Every iteration
    starts from a collected heap (outside the timed part), as it would in
    a fresh process.  Without this the cyclic garbage of earlier
    iterations piles up until the collector's oldest generation runs, and
    peak RSS follows the iteration count (elastic_chaos_p64: 110 MiB after
    one iteration, 257 MiB after seven) instead of the program.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        digest, counts, errors = workload.iterate(span)
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        digest, counts, errors = None, {}, [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - start, digest, counts, errors


def set_up(args):
    """Everything before the first timed iteration (``setup_s``):
    inputs, serial oracle, golden, one counted warm-up (the imports at
    the top of this module are in it too: the parent starts the clock)."""
    workload = WORKLOADS[args.workload](args.seed, args.quick)
    workload.setup()
    golden = None
    if args.seed == 0 and args.golden != "none":
        mode = "quick" if args.quick else "full"
        golden = load_golden(args.golden, mode, args.workload)
        if golden is None:
            raise SystemExit(f"no golden entry for {mode}/{args.workload} in {args.golden}")
    checker = Checker(golden)
    with adapters.counting_session() as session:
        _, digest, _, errors = iteration(workload, no_span)
    counters = simmpi_counters(session)
    checker.check(digest, errors, counters)
    return workload, checker, digest, counters


def timed_loop(workload, checker, seconds):
    """Closed loop, one client: the next iteration starts when the
    previous one has been checked."""
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_ITERATIONS or time.perf_counter() < deadline:
        wall, digest, _, errors = iteration(workload, no_span)
        walls.append(wall)
        checker.check(digest, errors)
    return walls


def traced_pass(workload, checker, seconds):
    """Alternating untraced and traced iterations for half of ``seconds``
    (the probes take the other half), then the layer probes."""
    recorder = SpanRecorder()
    untraced, traced, per_op, counts, threads_peak = [], [], [], {}, 0
    deadline = time.perf_counter() + seconds / 2
    while len(traced) < MIN_ITERATIONS or time.perf_counter() < deadline:
        wall, digest, _, errors = iteration(workload, no_span)
        untraced.append(wall)
        checker.check(digest, errors)

        recorder.op = len(traced)
        with adapters.counting_session() as session, ThreadWatch() as watch:
            wall, digest, counts, errors = iteration(workload, recorder.span)
        traced.append(wall)
        checker.check(digest, errors, simmpi_counters(session))
        per_op.append(recorder.self_time_by_name(recorder.op))
        threads_peak = max(threads_peak, watch.peak)

    recorder.op = len(traced)
    metrics = probes.run_all(recorder.span)

    counters = simmpi_counters(session)
    for phase in PHASES:
        metrics[f"phase.{phase}_s"] = statistics.median(op.get(phase, 0.0) for op in per_op)
    traced_wall = statistics.median(traced)
    metrics["trace_overhead_ratio"] = traced_wall / statistics.median(untraced)
    for name, count in counters.items():
        metrics[f"simmpi.{name}"] = count
    metrics["simmpi.us_per_msg_allin"] = (
        1e6 * metrics["phase.train_s"] / counters["msgs"] if counters["msgs"] else 0.0
    )
    metrics["simmpi.threads_peak"] = threads_peak
    for name in ("ckpt_takes", "ckpt_restores", "ckpt_stored_bytes"):
        metrics[f"dist.{name}"] = counts.get(name, 0)
    hits, misses = counts.get("cache_hits", 0), counts.get("cache_misses", 0)
    metrics["search.cache_misses"] = misses
    metrics["search.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    # How much of a traced iteration its named phases account for.
    covered = statistics.median(
        sum(op.get(phase, 0.0) for phase in PHASES) / wall
        for op, wall in zip(per_op, traced)
    )
    return {
        "per_layer": metrics,
        "untraced_walls_s": untraced,
        "traced_walls_s": traced,
        "phase_coverage": covered,
        "spans": recorder.spans,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--golden", default=os.path.join(HERE, "golden.json"),
                        help="golden file, or 'none' to skip the comparison")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() of the parent just before it started this process")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()

    cpu = pin_to_one_cpu()
    workload, checker, digest, counters = set_up(args)
    setup_s = time.monotonic() - spawned_at

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": adapters.REPRO_VERSION,
        "setup_s": setup_s,
        "digest": digest,
        "counters": counters,
    }
    spin_before = calib_spin_s()
    if args.trace:
        result.update(traced_pass(workload, checker, args.seconds))
    else:
        result["walls_s"] = timed_loop(workload, checker, args.seconds)
    spin_after = calib_spin_s()
    result.update(
        calib_spin_s=[spin_before, spin_after],
        noisy=abs(spin_after - spin_before) > NOISE_LIMIT * min(spin_before, spin_after),
        ops=checker.ops,
        failed_ops=checker.failed,
        errors=checker.errors[:10],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
