"""Golden digest of a cold strategy sweep through the public sweep API.

The ``--quick``-sized sweep of the host-time benchmark (AlexNet, VGG-16,
ResNet-like; strong scaling at ``B = 2048`` over ``P = 8 ... 512``, weak
scaling at ``B = 4P``, the comm/memory frontier at ``P = 64``) runs on
one cold :class:`~repro.search.SearchEngine`, and everything the
bit-identity contract covers is pinned: sha256 over every point's
``(P, B, label, float.hex(total), float.hex(pure_batch))``, over every
frontier point, and the exact ``CostCache`` hit/miss counts — which
lookups reach the cache is part of the contract (``bench/golden.json``
pins the same counts).  One full-size ``P = 16384`` point per network
covers the widest grid enumeration.

The digests were generated at the commit *before* the matrix rebuild of
``repro.search.tables`` and must never move under a search-side
optimisation.  After an *intended* change of the cost model, copy the
values the failing assertion prints into ``GOLDEN``.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.machine import ComputeModel, cori_knl
from repro.nn import alexnet, resnet_like_stack, vgg16
from repro.search import (
    SearchEngine,
    comm_memory_frontier,
    strong_scaling_curve,
    weak_scaling_curve,
)

DATASET_SIZE = 1281167
PROCESSES = [2 ** i for i in range(3, 10)]  # 8 .. 512
BATCH = 2048
PARETO_P = 64

GOLDEN = {
    "strong_sha": "26fc658f8a3095e53c84aec5",
    "weak_sha": "01ccd21abac1f09abc8d7bea",
    "pareto_sha": "f6340d352165664d61faefed",
    "points": 42,
    "cache_hits": 2329,
    "cache_misses": 2231,
}

GOLDEN_P16384 = {
    "alexnet": "6273b03f239e9176deb4a904",
    "vgg16": "a2be690951be78d4ebfd0fd5",
    "resnet": "49b3c9fcefd6ae37504abefb",
}


def _machine():
    """The benchmark's seed-0 machine: Cori-KNL with alpha and beta
    drawn within 10 % of Table 1."""
    rng = np.random.default_rng(0)
    machine = cori_knl()
    return dataclasses.replace(
        machine,
        alpha=machine.alpha * rng.uniform(0.9, 1.1),
        beta_per_byte=machine.beta_per_byte * rng.uniform(0.9, 1.1),
    )


NETWORKS = {"alexnet": alexnet(), "vgg16": vgg16(), "resnet": resnet_like_stack()}
MACHINE = _machine()
COMPUTE = ComputeModel.knl_alexnet()


def _sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:24]


def _point_key(point):
    pure = point.pure_batch_total_s  # None past P = B
    return [
        point.processes,
        point.batch,
        point.best_label,
        point.best_total_s.hex(),
        None if pure is None else pure.hex(),
    ]


def _frontier_key(frontier):
    return [
        [pt.strategy.describe(), pt.comm_time.hex(), float(pt.memory_elements).hex()]
        for pt in frontier
    ]


def test_quick_sweep_digest_and_cache_counts():
    engine = SearchEngine()
    kwargs = dict(dataset_size=DATASET_SIZE, jobs=1, engine=engine)
    strong, weak, pareto = {}, {}, {}
    for name, net in NETWORKS.items():
        points, _ = strong_scaling_curve(net, BATCH, PROCESSES, MACHINE, COMPUTE, **kwargs)
        strong[name] = [_point_key(p) for p in points]
    pairs = [(p, 4 * p) for p in PROCESSES]
    for name, net in NETWORKS.items():
        points, _ = weak_scaling_curve(net, pairs, MACHINE, COMPUTE, **kwargs)
        weak[name] = [_point_key(p) for p in points]
    for name, net in NETWORKS.items():
        frontier, _ = comm_memory_frontier(net, BATCH, PARETO_P, MACHINE, jobs=1, engine=engine)
        pareto[name] = _frontier_key(frontier)
    stats = engine.cache_stats()
    got = {
        "strong_sha": _sha(strong),
        "weak_sha": _sha(weak),
        "pareto_sha": _sha(pareto),
        "points": sum(len(v) for v in strong.values()) + sum(len(v) for v in weak.values()),
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
    }
    assert got == GOLDEN


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_full_size_point_p16384(name):
    """The widest enumeration (15 grids, P > B): one cold point per network."""
    points, _ = strong_scaling_curve(
        NETWORKS[name], BATCH, [16384], MACHINE, COMPUTE,
        dataset_size=DATASET_SIZE, jobs=1, engine=SearchEngine(),
    )
    assert _sha(_point_key(points[0])) == GOLDEN_P16384[name], _point_key(points[0])
