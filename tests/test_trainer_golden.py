"""Golden digests of the four trainers' observable behaviour.

Each case runs one trainer traced on a small grid and hashes everything
the bit-identity contract covers — every field of every event of
``Tracer.canonical()`` (virtual timestamps, span paths, message and
byte counts), the final per-rank clocks, and the losses (for SUMMA, the
product matrix).  The digests are pinned, so a refactor of the training
layer that moves a span, reorders a collective or changes one byte on
the wire fails here.

After an *intended* change of trace content, copy the digest the
failing assertion prints into ``GOLDEN``.
"""

import hashlib

import numpy as np
import pytest

from repro.data.synthetic import synthetic_classification, synthetic_images
from repro.dist.elastic import elastic_mlp_train
from repro.dist.integrated import (
    CNNParams,
    IntegratedCNNConfig,
    distributed_cnn_train,
)
from repro.dist.summa2d import summa_train
from repro.dist.switching import distributed_switching_mlp_train
from repro.dist.train import MLPParams, distributed_mlp_train
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import Crash, FaultPlan

X, Y = synthetic_classification(10, 48, 5, seed=7)
CNN_CONFIG = IntegratedCNNConfig(
    in_channels=2, height=8, width=8, conv_channels=(4,),
    conv_kernels=(3,), pool_after=(True,), fc_dims=(12, 5),
)
XC, YC = synthetic_images(16, 2, 8, 8, 5, seed=5)


def _digest(events, clocks, values, *, spans=True):
    h = hashlib.sha256()
    for e in events:
        h.update(repr((
            e.rank, e.op, e.peer, e.nbytes, e.t_start, e.t_end, e.tag,
            e.data_bytes, e.span if spans else (), e.guard_bytes,
        )).encode())
    h.update(np.asarray(clocks, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return h.hexdigest()[:24]


def _run_mlp(pr, pc, sdc):
    engine = SimEngine(pr * pc, trace=True)
    _, losses, sim = distributed_mlp_train(
        MLPParams.init((10, 9, 5), seed=1), X, Y,
        pr=pr, pc=pc, batch=12, steps=3, engine=engine, sdc=sdc,
    )
    return _digest(engine.tracer.canonical(), sim.clocks, losses)


def _run_elastic(pr, pc, sdc):
    plan = FaultPlan(seed=9, crashes=(Crash(rank=1, at_step=3),))
    engine = SimEngine(pr * pc, trace=True, faults=plan, supervise=True)
    res = elastic_mlp_train(
        MLPParams.init((10, 8, 5), seed=2), X, Y,
        pr=pr, pc=pc, batch=12, steps=6, checkpoint_every=2,
        engine=engine, sdc=sdc,
    )
    assert res.restore_steps == [2] and res.sim.failed == (1,)
    return _digest(res.engine.tracer.canonical(), res.sim.clocks, res.losses)


def _run_cnn(pr, pc, sdc):
    engine = SimEngine(pr * pc, trace=True)
    _, losses, sim = distributed_cnn_train(
        CNN_CONFIG, CNNParams.init(CNN_CONFIG, seed=3), XC, YC,
        pr=pr, pc=pc, batch=8, steps=2, engine=engine, sdc=sdc,
    )
    return _digest(engine.tracer.canonical(), sim.clocks, losses)


def _run_summa(pr, pc, sdc):
    rng = np.random.default_rng(13)
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 6))
    engine = SimEngine(pr * pc, trace=True)
    c_full, sim, _ = summa_train(a, b, pr=pr, pc=pc, engine=engine, sdc=sdc)
    return _digest(engine.tracer.canonical(), sim.clocks, c_full)


RUNNERS = {
    "mlp": _run_mlp,
    "elastic": _run_elastic,
    "cnn": _run_cnn,
    "summa": _run_summa,
}

#: ``trainer-PrxPc-guard`` -> digest.
GOLDEN = {
    "cnn-2x2-plain": "dc3a0e3d6115c36b7e0b07a6",
    "cnn-2x2-guarded": "78f9d2b38c781581a51e75b9",
    "cnn-2x4-plain": "8eb23e2b1cf7f6f4e90e84de",
    "cnn-2x4-guarded": "81b3c1c006e24a3f6c63d2bb",
    "elastic-2x2-plain": "3db83727eb043842e886f47d",
    "elastic-2x2-guarded": "7cce28c791d513ad698c749b",
    "elastic-2x4-plain": "a752496f666bcb2a733193c5",
    "elastic-2x4-guarded": "db9752b57249c45b53d53b8d",
    "mlp-2x2-plain": "ae3170c54ec1077a4125fa59",
    "mlp-2x2-guarded": "7427a74b096fd03205ba200b",
    "mlp-2x4-plain": "73250c190ba110ee08242286",
    "mlp-2x4-guarded": "a6144d3a448dbbdb20dd661d",
    "summa-2x2-plain": "a5e072758ddd84801d60d423",
    "summa-2x2-guarded": "b137733bde72953334a9408f",
    "summa-2x4-plain": "ec3c73d5b1491ce78453cb71",
    "summa-2x4-guarded": "3a5041602c66eef687eefbaa",
}


@pytest.mark.parametrize("sdc", [None, "correct"], ids=["plain", "guarded"])
@pytest.mark.parametrize("pr,pc", [(2, 2), (2, 4)])
@pytest.mark.parametrize("trainer", sorted(RUNNERS))
def test_trainer_digest_is_pinned(trainer, pr, pc, sdc):
    key = f"{trainer}-{pr}x{pc}-{'guarded' if sdc else 'plain'}"
    assert RUNNERS[trainer](pr, pc, sdc) == GOLDEN[key], key


#: ``placements-PrxPc`` -> digest of the switching trainer's wire traffic.
#: Only ``send``/``recv`` events are hashed, without their span paths, so
#: the digest pins every message (tags included) but not the phase spans.
SWITCHING_GOLDEN = {
    "batch/model/model-2x2": "e770ba7adae9858e39ee8485",
    "model/batch/model-2x2": "1f4c3462286a6b63c4fc83b8",
    "batch/model/batch-4x2": "930d0f78049bb9e1d56b1415",
    "model/batch/batch-3x1": "dde26ce1f4b8bb6730243dab",
}


@pytest.mark.parametrize("key", sorted(SWITCHING_GOLDEN))
def test_switching_wire_digest_is_pinned(key):
    mix, _, grid = key.rpartition("-")
    pr, pc = map(int, grid.split("x"))
    params = MLPParams.init((10, 9, 7, 5), seed=4)
    engine = SimEngine(pr * pc, trace=True)
    weights, losses, sim = distributed_switching_mlp_train(
        params, X, Y, placements=mix.split("/"), pr=pr, pc=pc,
        batch=12, steps=2, lr=0.1, momentum=0.9, engine=engine,
    )
    wire = [e for e in engine.tracer.canonical() if e.op in ("send", "recv")]
    values = np.concatenate([losses] + [w.ravel() for w in weights])
    digest = _digest(wire, sim.clocks, values, spans=False)
    assert digest == SWITCHING_GOLDEN[key], key
