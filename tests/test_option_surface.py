"""Pin the public parameter lists of the trainers, the engine and its
sinks, and the fields of the run specification.

The paper trains with plain minibatch SGD at a fixed global batch, and a
run is configured by its engine.  A new keyword on any of these entry
points is a new option to test and benchmark: adding one must change
this file on purpose.  Each :class:`~repro.run.RunSpec` field is one a
``repro`` command sets to more than one value; a value every caller
passes alike is a constant, not a field.
"""

import dataclasses
import inspect

import pytest

from repro.dist.elastic import elastic_mlp_train
from repro.dist.integrated import distributed_cnn_train
from repro.dist.summa2d import summa_train
from repro.dist.switching import distributed_switching_mlp_train
from repro.dist.train import distributed_mlp_train
from repro.run import RunSpec, execute
from repro.simmpi.engine import SimEngine
from repro.simmpi.tracing import Tracer
from repro.telemetry.metrics import MetricsRegistry

SGD_RUN = ("pr", "pc", "batch", "steps", "lr", "momentum")

SURFACE = [
    (distributed_mlp_train, ("params0", "x", "y", *SGD_RUN, "sdc", "engine")),
    (distributed_cnn_train, ("config", "params0", "x", "y", *SGD_RUN, "engine", "sdc")),
    (
        elastic_mlp_train,
        ("params0", "x", "y", *SGD_RUN, "checkpoint_every", "ckpt_mode", "parity",
         "faults", "sdc", "engine"),
    ),
    (summa_train, ("a", "b", "pr", "pc", "sdc", "engine")),
    (
        distributed_switching_mlp_train,
        ("params0", "x", "y", "placements", *SGD_RUN, "engine"),
    ),
    (
        SimEngine.__init__,
        ("self", "size", "machine", "trace", "faults", "supervise", "metrics", "backend"),
    ),
    (Tracer.__init__, ("self", "enabled", "sink", "store")),
    (MetricsRegistry.__init__, ("self",)),
    (execute, ("spec", "trace")),
]


@pytest.mark.parametrize(
    "fn, names", SURFACE, ids=[fn.__qualname__ for fn, _ in SURFACE]
)
def test_parameter_names_are_pinned(fn, names):
    assert tuple(inspect.signature(fn).parameters) == names


def test_run_spec_fields_are_pinned():
    assert tuple(f.name for f in dataclasses.fields(RunSpec)) == (
        "trainer", "size", "pr", "pc", "batch", "steps", "seed", "lr",
        "faults", "sdc", "ckpt_mode", "parity",
    )
