"""End-to-end telemetry: spans, metrics, the Eq. 8 audit, Chrome export.

Runs a traced 1.5D MLP training job on a 2x2 grid and shows all four
telemetry surfaces: the per-span virtual-time summary, aggregate
metrics, the measured-vs-analytic communication audit (which matches
the paper's cost model exactly), and a Chrome ``trace_event`` JSON you
can load in Perfetto (https://ui.perfetto.dev).

Run:  python examples/telemetry_trace.py [out_dir]
"""

import sys
import tempfile

from repro.run import RunSpec, execute
from repro.telemetry.audit import audit_events
from repro.telemetry.chrome import validate_chrome_trace, write_chrome_trace
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.summary import span_summary


def main() -> None:
    dims = (32, 24, 16, 10)
    run = execute(RunSpec(size=dims, pr=2, pc=2, batch=16, steps=2))
    events = run.engine.tracer.events
    report = audit_events(events, dims, pr=2, pc=2, batch=16, steps=2)

    print("Per-span summary (2x2 grid, 2 steps):")
    print(span_summary(events).to_ascii())

    registry = MetricsRegistry()
    for event in events:
        registry.observe_event(event)
    sends = registry.counter("comm.messages")
    print(f"\np2p messages sent by rank 0: {int(sends.value(rank=0, op='send'))}")
    clock = registry.gauge("clock.seconds")
    print(f"rank 0 finished at virtual t = {clock.value(rank=0):.3e} s")

    print("\nMeasured vs analytic (Eq. 8):")
    print(report.to_table().to_ascii())
    assert report.exact
    print(
        "\nthe simulator's measured traffic matches the cost model with "
        "zero relative error on every bandwidth term"
    )

    out_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp()
    path = f"{out_dir}/trace.json"
    obj = write_chrome_trace(events, path, title="telemetry example")
    print(f"\nChrome trace: {validate_chrome_trace(obj)} events -> {path}")
    print("load it at https://ui.perfetto.dev to zoom through the run")


if __name__ == "__main__":
    main()
