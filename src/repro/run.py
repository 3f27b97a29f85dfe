"""One training run as a value: :class:`RunSpec` says what to run and
:func:`execute` runs it on a fresh simulated engine.

The paper describes a run by its configuration: the network, the
``Pr x Pc`` grid, the global batch.  A spec holds that plus what the
fault, SDC and checkpoint machinery vary: the seed its inputs are drawn
from, the learning rate, the fault plan, the SDC policy and the elastic
trainer's checkpoint mode and parity.  One spec is one replayable run::

    from repro.run import RunSpec, execute

    run = execute(RunSpec(trainer="elastic", size=(8, 10, 6), pr=2, pc=4))
    run.record().to_json()      # the run's RunRecord

The ``repro`` commands that train (``faults``, ``sdc``, ``chaos``,
``watch``, ``trace``, ``profile``) each parse their arguments into specs,
call :func:`execute` and render a view of the :class:`Run`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.data.synthetic import synthetic_images
from repro.dist.abft import SDCGuard, make_guard
from repro.dist.elastic import ElasticResult, check_ckpt_policy, elastic_mlp_train
from repro.dist.integrated import CNNParams, IntegratedCNNConfig, distributed_cnn_train
from repro.dist.summa2d import summa_train
from repro.dist.train import MLPParams, distributed_mlp_train, trainer_run_record
from repro.errors import ConfigurationError
from repro.simmpi.engine import SimEngine, SimResult
from repro.simmpi.faults import Crash, FaultPlan

__all__ = ["TRAINERS", "RunSpec", "Run", "execute", "random_crashes"]

#: Trainer name -> what ``RunSpec.size`` holds for it.
TRAINERS = {
    "mlp": "MLP layer widths",
    "elastic": "MLP layer widths",
    "integrated": "the square image side",
    "summa": "the (m, k, n) of C = A B",
}

#: Every elastic run checkpoints every this many steps.
CHECKPOINT_EVERY = 2

#: The integrated CNN is the same small network at every image side.
_CNN_CLASSES = 5


def _cnn_config(side: int) -> IntegratedCNNConfig:
    return IntegratedCNNConfig(
        in_channels=2, height=side, width=side, conv_channels=(4,),
        conv_kernels=(3,), pool_after=(True,), fc_dims=(32, _CNN_CLASSES),
    )


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """A training run: trainer, size, grid, batch, steps and faults.

    ``size`` is what :data:`TRAINERS` says for ``trainer``.  The inputs
    are ``4 * batch`` samples drawn from ``seed`` (SUMMA: two seeded
    operands; it ignores ``batch``, ``steps`` and ``lr``).  ``faults``
    is a :class:`~repro.simmpi.faults.FaultPlan`, ``sdc`` an ABFT policy
    mode (``"detect"``/``"correct"``/``"recompute"``), and ``ckpt_mode``
    and ``parity`` the elastic trainer's checkpoint policy.  A bad
    trainer name or size, a batch smaller than ``pc`` (a batch group
    with no sample, which the cost model and the audit reject), or an
    elastic checkpoint policy the grid cannot keep
    (:func:`~repro.dist.elastic.check_ckpt_policy`), is a
    :class:`~repro.errors.ConfigurationError` when the spec is made,
    before anything runs.
    """

    trainer: str = "mlp"
    size: Tuple[int, ...] = (8, 10, 6)
    pr: int = 2
    pc: int = 2
    batch: int = 8
    steps: int = 2
    seed: int = 0
    lr: float = 0.05
    faults: Optional[FaultPlan] = None
    sdc: Optional[str] = None
    ckpt_mode: str = "erasure"
    parity: int = 1

    def __post_init__(self) -> None:
        if self.trainer not in TRAINERS:
            raise ConfigurationError(
                f"trainer must be one of {tuple(TRAINERS)}, got {self.trainer!r}"
            )
        size = tuple(int(d) for d in self.size)
        arity = {"integrated": 1, "summa": 3}.get(self.trainer)
        bad_arity = len(size) != arity if arity else len(size) < 2
        if bad_arity or min(size) < 1:
            raise ConfigurationError(
                f"size of a {self.trainer} run is {TRAINERS[self.trainer]}, got {size}"
            )
        object.__setattr__(self, "size", size)
        if self.trainer != "summa" and self.batch < self.pc:
            raise ConfigurationError(
                f"batch {self.batch} cannot be split over Pc={self.pc} "
                "(fewer than one sample per batch group)"
            )
        if self.trainer == "elastic":
            check_ckpt_policy(self.pc, self.ckpt_mode, self.parity)

    def inputs(self):
        """The seeded ``(x, y, params0)`` the run trains on; for SUMMA,
        ``(A, B, None)``."""
        if self.trainer == "summa":
            m, k, n = self.size
            rng = np.random.default_rng(self.seed)
            return rng.standard_normal((m, k)), rng.standard_normal((k, n)), None
        samples = 4 * self.batch
        if self.trainer == "integrated":
            config = _cnn_config(self.size[0])
            x, y = synthetic_images(
                samples, config.in_channels, config.height, config.width,
                _CNN_CLASSES, seed=self.seed,
            )
            return x, y, CNNParams.init(config, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        x = rng.standard_normal((self.size[0], samples))
        y = rng.integers(0, self.size[-1], samples)
        return x, y, MLPParams.init(self.size, seed=self.seed)


@dataclasses.dataclass
class Run:
    """What :func:`execute` returns: the final weights (SUMMA: ``[C]``),
    per-step losses, the simulation result and its engine, the SDC guard
    (``None`` unguarded) and, for the elastic trainer, its
    :class:`~repro.dist.elastic.ElasticResult`."""

    spec: RunSpec
    weights: List[np.ndarray]
    losses: List[float]
    sim: SimResult
    engine: SimEngine
    guard: Optional[SDCGuard] = None
    elastic: Optional[ElasticResult] = None

    def record(self, *, meta=None, health_config=None, host=None):
        """The run's :class:`~repro.analysis.record.RunRecord`; the run
        must have been traced.  ``host`` is the opt-in host-time block
        (``repro.profile.host_block(run.engine)``).  The grid recorded is
        the initial one; an elastic record carries its grid history,
        restores and failed ranks in ``meta``, since they describe the
        fault scenario, not the comparable configuration."""
        spec = self.spec
        if spec.trainer == "summa":
            m, k, n = spec.size
            trainer, config = "summa2d", {"m": m, "k": k, "n": n}
        else:
            trainer, config = "train", {"dims": list(spec.size)}
            if spec.trainer == "integrated":
                cnn = _cnn_config(spec.size[0])
                trainer, config = "integrated", {
                    "image": [cnn.in_channels, cnn.height, cnn.width],
                    "conv_channels": list(cnn.conv_channels),
                    "fc_dims": list(cnn.fc_dims),
                }
            config.update(batch=spec.batch, steps=spec.steps)
        if self.elastic is not None:
            trainer = "elastic"
            config.update(
                checkpoint_every=CHECKPOINT_EVERY, ckpt_mode=spec.ckpt_mode,
                parity=spec.parity,
            )
            result = self.elastic
            meta = {
                "grids": [list(g) for g in result.grids],
                "restore_steps": list(result.restore_steps),
                "degraded_steps": list(result.degraded_steps),
                "failed_ranks": list(result.sim.failed),
                **(meta or {}),
            }
        return trainer_run_record(
            self.engine, self.sim, trainer=trainer, config=config,
            pr=spec.pr, pc=spec.pc, sdc=spec.sdc, meta=meta,
            health_config=health_config, host=host,
        )


def execute(spec: RunSpec, *, trace: bool = True, metrics=None) -> Run:
    """Run ``spec`` on a new ``SimEngine(pr * pc)``.

    ``trace`` keeps the trace a :meth:`Run.record` needs; ``metrics`` is
    a tracer sink (a :class:`~repro.telemetry.metrics.MetricsRegistry`
    or a live health monitor).  The elastic trainer runs supervised.
    Errors of the run itself propagate.
    """
    engine = SimEngine(
        spec.pr * spec.pc, trace=trace, metrics=metrics, faults=spec.faults,
        supervise=spec.trainer == "elastic",
    )
    guard = make_guard(spec.sdc)
    x, y, params0 = spec.inputs()
    if spec.trainer == "summa":
        c, sim, _ = summa_train(x, y, pr=spec.pr, pc=spec.pc, sdc=guard, engine=engine)
        return Run(spec, [c], [], sim, engine, guard)
    sgd = dict(
        pr=spec.pr, pc=spec.pc, batch=spec.batch, steps=spec.steps, lr=spec.lr,
        sdc=guard, engine=engine,
    )
    if spec.trainer == "integrated":
        params, losses, sim = distributed_cnn_train(
            _cnn_config(spec.size[0]), params0, x, y, **sgd
        )
        return Run(spec, params.all_params(), losses, sim, engine, guard)
    if spec.trainer == "mlp":
        weights, losses, sim = distributed_mlp_train(params0, x, y, **sgd)
        return Run(spec, weights, losses, sim, engine, guard)
    result = elastic_mlp_train(
        params0, x, y, checkpoint_every=CHECKPOINT_EVERY,
        ckpt_mode=spec.ckpt_mode, parity=spec.parity, **sgd,
    )
    return Run(spec, result.weights, result.losses, result.sim, engine, guard, result)


def random_crashes(seed: int, count: int, *, ranks: int, steps: int) -> List[Crash]:
    """``count`` single crashes drawn from one seeded stream: each a rank
    in ``[0, ranks)`` at a step in ``[1, steps)``."""
    rng = np.random.default_rng(seed)
    return [
        Crash(int(rng.integers(0, ranks)), at_step=int(rng.integers(1, steps)))
        for _ in range(count)
    ]
