"""Host-time benchmark of the repo: five workloads, one command.

Benchmark-contract form (one workload, result as the last line)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs, every metric is printed by
name with its unit and the result is written to ``bench/out/result.json``::

    python3 bench/run.py [--seed N] [--trace 1] [--quick] [--repeat 2]
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --update-golden

Each workload runs in child processes of its own (``child.py``), pinned
to one CPU with the BLAS thread count set to 1.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from compare import compare_results, format_rows, summarize  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
#: Set-ups (child processes) per untraced run; ``setup_s`` is their median.
SETUPS = 3
CHILD_TIMEOUT_S = 170
QUICK_SECONDS = 1.0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_child(workload, *, seed, seconds, trace, quick=False, golden=GOLDEN):
    """Start ``child.py`` for one workload and return its result object."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--golden", golden,
        "--spawned-at", repr(time.monotonic()),
    ]
    if quick:
        argv.append("--quick")
    done = subprocess.run(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload, spec, *, seed, seconds, trace, quick=False, golden=GOLDEN):
    """One run of one workload: ``SETUPS`` children sharing ``seconds``
    of timed iterations, or one child for the traced pass."""
    kwargs = dict(seed=seed, trace=trace, quick=quick, golden=golden)
    if trace:
        children = [run_child(workload, seconds=seconds, **kwargs)]
        metrics = children[0]["per_layer"]
    else:
        children = [run_child(workload, seconds=seconds / SETUPS, **kwargs) for _ in range(SETUPS)]
        walls = [w for c in children for w in c["walls_s"]]
        samples = {
            "wall_s": walls,
            # Interference only ever adds time, so the lower quartile of the
            # pooled iterations is the steadier estimate of the program's own.
            "wall_p25_s": [summarize(walls, "s")["p25"]],
            "setup_s": [c["setup_s"] for c in children],
            "peak_rss_mb": [c["peak_rss_mb"] for c in children],
        }
        metrics = {m["name"]: summarize(samples[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    first = children[0]
    run = {
        "metrics": metrics,
        "ops": sum(c["ops"] for c in children),
        "failed_ops": sum(c["failed_ops"] for c in children),
        "errors": [e for c in children for e in c["errors"]][:10],
        "noisy": any(c["noisy"] for c in children),
        "calib_spin_s": [c["calib_spin_s"] for c in children],
        "cpu": first["cpu"],
        "numpy": first["numpy"],
        "repro": first["repro"],
        "digest": first["digest"],
        "counters": first["counters"],
    }
    if trace:
        run.update({k: first[k] for k in ("phase_coverage", "spans", "traced_walls_s", "untraced_walls_s")})
    return run


def contract_line(run, spec, trace):
    """The result object the benchmark contract asks for."""
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    values = run["metrics"]
    metrics = {
        name: {"value": values[name] if trace else values[name]["median"], "unit": unit}
        for name, unit in units.items()
    }
    return {
        "correct": run["failed_ops"] == 0,
        "attempted": run["ops"],
        "failed": run["failed_ops"],
        "metrics": metrics,
    }


def print_run(workload, run, spec, trace):
    flags = "  NOISY" if run["noisy"] else ""
    print(f"{workload}: {run['ops']} ops, {run['failed_ops']} failed, cpu {run['cpu']}{flags}")
    for error in run["errors"]:
        print(f"  FAILED: {error}")
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in run["metrics"].items():
            print(f"  {name:<42} {value:>16.6g} {units[name]}")
        print(f"  phases cover {run['phase_coverage']:.1%} of a traced iteration")
    else:
        for name, m in run["metrics"].items():
            print(
                f"  {name:<12} {m['median']:>10.4f} {m['unit']:<4} "
                f"(n={m['n']}, p25 {m['p25']:.4f}, p75 {m['p75']:.4f})"
            )


def print_layer_split(result):
    """The split the workloads were designed to have (README.md)."""
    runs = result["workloads"]

    def share(workload, value):
        wall = sum(v for k, v in runs[workload]["metrics"].items() if k.startswith("phase."))
        return value / wall

    print("layer split:")
    if "mlp15d_p512" in runs:
        m = runs["mlp15d_p512"]["metrics"]
        print(f"  mlp15d_p512        train phase {share('mlp15d_p512', m['phase.train_s']):.1%} of wall (design: >= 90%)")
    if "mlp15d_p64_traced" in runs:
        m = runs["mlp15d_p64_traced"]["metrics"]
        analysis = sum(v for k, v in m.items() if k.startswith("phase.") and k != "phase.train_s")
        # What recording costs the train phase: one tracer record and one
        # metrics-sink update per event, at the probes' per-event prices.
        recording = 1e-6 * m["simmpi.trace_records"] * (
            m["simmpi.trace_record_us"] + m["telemetry.metrics_observe_us_per_event"]
        )
        print(f"  mlp15d_p64_traced  analysis phases + recording "
              f"{share('mlp15d_p64_traced', analysis + recording):.1%} of wall (design: >= 50%)")
    if "cnn_domain_p16" in runs:
        m = runs["cnn_domain_p16"]["metrics"]
        msg_s = m["simmpi.msgs"] * m["simmpi.p2p_us_per_msg_small"] * 1e-6
        print(f"  cnn_domain_p16     msgs x small-message cost {share('cnn_domain_p16', msg_s):.1%} of wall (design: <= 20%)")
    if "strategy_sweep" in runs:
        print(f"  strategy_sweep     simmpi.msgs = {runs['strategy_sweep']['metrics']['simmpi.msgs']} (design: 0)")


def provenance(args):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_set(spec, args, names):
    """Every named workload once; returns the result object."""
    result = {"provenance": provenance(args), "workloads": {}}
    for name in names:
        run = run_workload(
            name, spec, seed=args.seed, seconds=args.seconds, trace=args.trace, quick=args.quick
        )
        result["workloads"][name] = run
        print_run(name, run, spec, args.trace)
    if args.trace:
        print_layer_split(result)
    return result


def write_json(obj, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def update_golden(spec, names):
    """Record the seed-0 digests and counters of both problem sizes."""
    golden = {}
    for mode, quick in (("full", False), ("quick", True)):
        golden[mode] = {}
        for name in names:
            child = run_child(
                name, seed=0, seconds=QUICK_SECONDS, trace=0, quick=quick, golden="none"
            )
            if child["failed_ops"]:
                raise SystemExit(f"{name}: {child['errors']}; golden not written")
            golden[mode][name] = {"digest": child["digest"], "counters": child["counters"]}
            print(f"golden {mode}/{name}: {child['digest']}")
    write_json(golden, GOLDEN)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload and print the contract's result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass (spans, layer probes, per-layer metrics)")
    parser.add_argument("--quick", action="store_true", help="small grids, about a second per workload")
    parser.add_argument("--repeat", type=int, default=1, help="run this many sets; compare the first two")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"))
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.compare:
        results = []
        for path in args.compare:
            with open(path, "r", encoding="utf-8") as fh:
                results.append(json.load(fh))
        rows = compare_results(results[0], results[1], spec)
        print(format_rows(rows))
        return 1 if any(row[-1] == "regressed" for row in rows) else 0

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"bench: unknown workload {args.workload!r}; known: {', '.join(names)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(spec["run_seconds"])
    if args.seconds <= 0 or args.repeat < 1:
        print("bench: --seconds must be positive and --repeat at least 1", file=sys.stderr)
        return 2

    if args.update_golden:
        update_golden(spec, names)
        return 0

    if args.workload is not None:
        run = run_workload(
            args.workload, spec, seed=args.seed, seconds=args.seconds,
            trace=args.trace, quick=args.quick,
        )
        print_run(args.workload, run, spec, args.trace)
        if args.trace:
            write_json(run.pop("spans"), os.path.join(OUT_DIR, "trace.json"))
        print(json.dumps(contract_line(run, spec, args.trace)))
        return 1 if run["failed_ops"] else 0

    sets = []
    for index in range(args.repeat):
        if args.repeat > 1:
            print(f"== set {index + 1} of {args.repeat} ==")
        sets.append(run_set(spec, args, names))
    failed = 0
    for index, result in enumerate(sets):
        if args.trace:
            spans = {name: run.pop("spans") for name, run in result["workloads"].items()}
            write_json(spans, os.path.join(OUT_DIR, "trace.json"))
        path = args.out if index == 0 else f"{os.path.splitext(args.out)[0]}.{index + 1}.json"
        write_json(result, path)
        print(f"wrote {os.path.relpath(path, ROOT)}")
        failed += sum(run["failed_ops"] for run in result["workloads"].values())
    regressed = False
    if len(sets) > 1 and not args.trace:
        rows = compare_results(sets[0], sets[1], spec)
        print(format_rows(rows))
        regressed = any(row[-1] == "regressed" for row in rows)
    return 1 if failed or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
