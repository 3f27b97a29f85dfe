"""``RunSpec`` rejects what no run can use, and one spec is one run."""

import pytest

from repro.errors import ConfigurationError
from repro.run import RunSpec, execute, random_crashes
from repro.simmpi.faults import Crash, FaultPlan


@pytest.mark.parametrize(
    "fields",
    [
        dict(trainer="cnn"),
        dict(size=(8,)),  # an MLP needs input and output widths
        dict(size=(8, 0, 6)),
        dict(trainer="integrated", size=(8, 8)),
        dict(trainer="summa", size=(8, 4)),
        dict(batch=3, pc=4),  # a batch group with no sample
    ],
    ids=["trainer", "mlp-1d", "zero-width", "cnn-2d", "summa-2d", "batch-below-pc"],
)
def test_bad_spec_is_rejected_when_made(fields):
    with pytest.raises(ConfigurationError):
        RunSpec(**fields)


def test_summa_ignores_batch():
    RunSpec(trainer="summa", size=(8, 4, 6), pc=16)  # batch 8 < Pc is no error


@pytest.mark.parametrize("trainer", ["mlp", "elastic"])
def test_one_spec_replays_byte_for_byte(trainer):
    spec = RunSpec(
        trainer=trainer, pr=2, pc=2, steps=4, seed=3,
        faults=FaultPlan(seed=3, crashes=(Crash(rank=1, at_step=2),))
        if trainer == "elastic" else None,
    )
    first, again = execute(spec), execute(spec)
    assert [w.tobytes() for w in first.weights] == [w.tobytes() for w in again.weights]
    assert first.record().to_json() == again.record().to_json()


def test_random_crashes_are_seeded_and_in_range():
    crashes = random_crashes(7, 20, ranks=8, steps=6)
    assert crashes == random_crashes(7, 20, ranks=8, steps=6)
    assert all(0 <= c.rank < 8 and 1 <= c.at_step < 6 for c in crashes)
