"""Search-engine speedup gate: the serial optimizer vs a cold ``SearchEngine``.

Times the Fig. 7 strong-scaling sweep (AlexNet, ``B = 2048``,
``P in {8, 64, 256, 512}``) through :mod:`repro.core.sweep`, which
scores every grid from scratch, and through a fresh-cache
:class:`~repro.search.SearchEngine`, best of ``REPEAT`` runs each, and
gates against the committed baseline in ``benchmarks/BENCH_search.json``:

* the engine's points must be bit-identical to the serial ones;
* the serial/engine wall ratio must stay above the committed
  ``floor_speedup``.  Both sides run in the same process on the same
  host, so the ratio travels across machines where the seconds do not;
* the cold engine's cache hits and misses must equal the baseline's:
  they count the distinct cost kernels the sweep evaluates.

Flags, baseline handling and exit codes (0 pass, 1 ``REGRESSION:``,
2 unusable baseline) are those of ``_gate.run_gate``; refresh the
baseline after an intentional change with ``--update-baseline``.
"""

import os
import time

import _gate

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_search.json")
BENCH_SCHEMA = "repro.search.bench/v1"

REPEAT = 5
BATCH = 2048
PROCESSES = (8, 64, 256, 512)

# The committed floor.  Sixteen readings of this ratio on a shared 2-vCPU
# host spanned 7.7-11.9x, so the gate sits well below them: it catches an
# engine that stops memoizing, not host noise.
FLOOR_SPEEDUP = 3.0


def _best_of(sweep):
    """``(best wall seconds, points)`` over ``REPEAT`` calls of ``sweep``."""
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        points, _table = sweep()
        best = min(best, time.perf_counter() - start)
    return best, points


def run_search_bench() -> dict:
    """Time serial vs cold-engine sweeps of the same points; return a record."""
    from repro.core.sweep import strong_scaling_curve as serial_curve
    from repro.experiments.common import default_setting
    from repro.search import SearchEngine, strong_scaling_curve

    setting = default_setting()
    dataset_size = setting.dataset.train_images
    args = (setting.network, BATCH, PROCESSES, setting.machine, setting.compute)
    serial_s, serial_points = _best_of(
        lambda: serial_curve(*args, dataset_size=dataset_size)
    )
    engines = []

    def cold_sweep():
        engines.append(SearchEngine())
        return strong_scaling_curve(
            *args, dataset_size=dataset_size, engine=engines[-1]
        )

    engine_s, engine_points = _best_of(cold_sweep)
    stats = engines[-1].cache_stats()
    return {
        "schema": BENCH_SCHEMA,
        "config": {
            "network": setting.network.name,
            "batch": float(BATCH),
            "processes": list(PROCESSES),
            "dataset_size": dataset_size,
        },
        "repeat": REPEAT,
        "serial_s": serial_s,
        "engine_s": engine_s,
        "speedup": serial_s / engine_s,
        "identical": serial_points == engine_points,
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "cache_entries": stats.entries,
        "floor_speedup": FLOOR_SPEEDUP,
    }


def _report(record) -> None:
    config = record["config"]
    print(f"config  : {config['network']}, B={config['batch']:g}, "
          f"P={config['processes']} (best of {record['repeat']})")
    print(f"serial  : {record['serial_s'] * 1e3:8.1f} ms")
    print(f"engine  : {record['engine_s'] * 1e3:8.1f} ms")
    print(f"speedup : {record['speedup']:.2f}x "
          f"({'bit-identical' if record['identical'] else 'RESULTS DIFFER'})")
    print(f"cache   : {record['cache_hits']} hits / {record['cache_misses']} "
          f"misses, {record['cache_entries']} entries")


CHECKS = [
    ("true", "identical", None,
     "engine results are NOT bit-identical to the serial path"),
    ("floor", "speedup", "floor_speedup",
     "speedup {value:.2f}x is below the {limit:.2f}x floor"),
    ("same", "cache_hits", None,
     "cold-engine cache hits changed: {value} vs baseline {limit}"),
    ("same", "cache_misses", None,
     "cold-engine cache misses changed: {value} vs baseline {limit}"),
]


def main(argv=None) -> int:
    return _gate.run_gate(
        argv,
        description=__doc__.splitlines()[0],
        baseline_path=BASELINE_PATH,
        measure=run_search_bench,
        report=_report,
        checks=CHECKS,
        passed="floor {floor_speedup:.2f}x, baseline {baseline[speedup]:.2f}x",
        width=8,
    )


test_search_speedup_gate = _gate.tier2_hook(main)


if __name__ == "__main__":
    raise SystemExit(main())
