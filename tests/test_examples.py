"""Smoke tests: every example script runs to completion and prints its
headline output.  Examples are part of the public API surface — if they
break, adoption breaks."""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

EXPECTED_SNIPPETS = {
    "quickstart.py": "Best strategy:",
    "distributed_mlp_training.py": "sequential consistency",
    "domain_parallel_cnn.py": "floor(3/2) = 1 boundary row",
    "strategy_explorer.py": "crossover batch",
    "scaling_beyond_batch.py": "pure batch parallelism cannot pass",
    "grid_switching.py": "reproduces serial SGD exactly",
    "summa_vs_15d.py": "1.5D never moves more than SUMMA",
    "trace_timeline.py": "only adjacent row owners exchange boundaries",
    "telemetry_trace.py": "zero relative error on every bandwidth term",
}


def run_example(name: str) -> str:
    path = os.path.join(EXAMPLES_DIR, name)
    proc = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr}"
    return proc.stdout


@pytest.mark.parametrize("name,snippet", sorted(EXPECTED_SNIPPETS.items()))
def test_example_runs_and_prints_headline(name, snippet):
    out = run_example(name)
    assert snippet in out

