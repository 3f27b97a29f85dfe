"""Randomized (hypothesis) end-to-end properties.

These sample grid shapes, placements, and network/batch sizes the
hand-written tests did not enumerate, holding the reproduction's three
central invariants: (1) every distributed trainer is sequentially
consistent with serial SGD; (2) collective results are independent of
the algorithm used; (3) the memoized/vectorized search engine returns
bit-identical results to the serial optimizer.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costs import integrated_cost
from repro.core.optimizer import (
    best_strategy,
    enumerate_grids,
    evaluate_grids,
    optimal_placements,
)
from repro.core.simulate import simulate_epoch
from repro.core.strategy import Placement, ProcessGrid, Strategy
from repro.data.synthetic import synthetic_classification
from repro.dist.switching import distributed_switching_mlp_train
from repro.dist.train import MLPParams, distributed_mlp_train, serial_mlp_train
from repro.errors import ConfigurationError, StrategyError
from repro.machine.compute import ComputeModel
from repro.machine.params import MachineParams
from repro.nn.alexnet import alexnet
from repro.nn.zoo import lenet_like, mlp, resnet_like_stack
from repro.search import SearchEngine
from repro.search.cache import machine_key
from repro.search.engine import _FAMILY_PLACEMENTS
from repro.search.tables import family_cost_table, per_layer_cost_table
from repro.simmpi.engine import SimEngine

X, Y = synthetic_classification(9, 40, 4, seed=100)


@st.composite
def grids(draw, max_p=6):
    pr = draw(st.integers(1, max_p))
    pc = draw(st.integers(1, max(1, max_p // pr)))
    return pr, pc


@given(
    grid=grids(),
    hidden=st.integers(3, 17),
    batch=st.integers(4, 20),
)
@settings(max_examples=15, deadline=None)
def test_random_grid_mlp_matches_serial(grid, hidden, batch):
    pr, pc = grid
    if pc > batch:
        return
    dims = [9, hidden, 4]
    params = MLPParams.init(dims, seed=hidden)
    kw = dict(batch=batch, steps=2, lr=0.1)
    sw, sl = serial_mlp_train(params, X, Y, **kw)
    dw, dl, _ = distributed_mlp_train(params, X, Y, pr=pr, pc=pc, **kw)
    np.testing.assert_allclose(dl, sl, rtol=1e-9, atol=1e-12)
    for got, expected in zip(dw, sw.weights):
        np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-10)


@given(
    placements=st.lists(st.sampled_from(["batch", "model"]), min_size=3, max_size=3),
    grid=grids(max_p=6),
)
@settings(max_examples=15, deadline=None)
def test_random_placements_switching_matches_serial(placements, grid):
    pr, pc = grid
    batch = 12
    if pc > batch or pr * pc > batch:
        return
    dims = [9, 11, 7, 4]
    params = MLPParams.init(dims, seed=3)
    kw = dict(batch=batch, steps=2, lr=0.1)
    sw, sl = serial_mlp_train(params, X, Y, **kw)
    dw, dl, _ = distributed_switching_mlp_train(
        params, X, Y, placements=placements, pr=pr, pc=pc, **kw
    )
    np.testing.assert_allclose(dl, sl, rtol=1e-9, atol=1e-12)
    for got, expected in zip(dw, sw.weights):
        np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-10)


@given(
    size=st.integers(2, 9),
    n=st.integers(1, 300),
    algorithm=st.sampled_from(["ring"]),
)
@settings(max_examples=20, deadline=None)
def test_allreduce_algorithms_agree_on_random_sizes(size, n, algorithm):
    rng = np.random.default_rng(n)
    data = rng.standard_normal((size, n))

    def prog(comm):
        return comm.allreduce(data[comm.rank].copy(), algorithm=algorithm)

    res = SimEngine(size).run(prog)
    expected = data.sum(axis=0)
    for value in res.values:
        np.testing.assert_allclose(value, expected, rtol=1e-10, atol=1e-12)


@given(
    size=st.integers(2, 9),
    per_rank=st.lists(st.integers(0, 17), min_size=9, max_size=9),
    algorithm=st.sampled_from(["bruck"]),
)
@settings(max_examples=20, deadline=None)
def test_allgather_variable_blocks_random(size, per_rank, algorithm):
    def prog(comm):
        block = np.full(per_rank[comm.rank], float(comm.rank))
        return comm.allgather(block, algorithm=algorithm)

    res = SimEngine(size).run(prog)
    expected = np.concatenate(
        [np.full(per_rank[r], float(r)) for r in range(size)]
    )
    for value in res.values:
        np.testing.assert_array_equal(np.asarray(value).ravel(), expected)


# -- search-engine bit-identity properties -----------------------------------

NETWORKS = {
    "alexnet": alexnet(),
    "lenet": lenet_like(),
    "resnet8": resnet_like_stack(input_size=56, blocks=4),
    "mlp": mlp([512, 384, 256, 10], name="rand-mlp"),
}
COMPUTE = ComputeModel.knl_alexnet()


def machines():
    """Random machine parameters (alpha seconds, beta seconds/byte)."""
    return st.builds(
        lambda alpha, inv_bw: MachineParams(
            alpha=alpha, beta_per_byte=1.0 / inv_bw, name="rand"
        ),
        alpha=st.floats(1e-7, 1e-4),
        inv_bw=st.floats(1e8, 1e12),
    )


def _grid_choices_equal(serial, engine):
    assert serial.strategy == engine.strategy
    assert serial.total_epoch == engine.total_epoch  # exact, not approx
    assert serial.comm_epoch == engine.comm_epoch
    assert (
        serial.point.iteration.comm.terms == engine.point.iteration.comm.terms
    )


@given(
    net=st.sampled_from(sorted(NETWORKS)),
    p=st.sampled_from([2, 4, 8, 24, 60, 64, 256]),
    batch=st.sampled_from([1, 7, 32, 100, 512, 2048]),
    machine=machines(),
    per_layer=st.booleans(),
    overlap=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_search_engine_best_strategy_bit_identical(
    net, p, batch, machine, per_layer, overlap
):
    """Cached+vectorized best_strategy == serial, bit for bit."""
    network = NETWORKS[net]
    engine = SearchEngine()
    kwargs = dict(per_layer=per_layer, overlap=overlap)
    try:
        serial = best_strategy(network, batch, p, machine, COMPUTE, **kwargs)
    except StrategyError:
        with pytest.raises(StrategyError):
            engine.best_strategy(network, batch, p, machine, COMPUTE, **kwargs)
        return
    cached = engine.best_strategy(network, batch, p, machine, COMPUTE, **kwargs)
    _grid_choices_equal(serial, cached)
    # A second (fully cache-hit) evaluation must not change the answer.
    again = engine.best_strategy(network, batch, p, machine, COMPUTE, **kwargs)
    _grid_choices_equal(serial, again)
    assert engine.cache_stats().hits > 0


@given(
    net=st.sampled_from(sorted(NETWORKS)),
    p=st.sampled_from([4, 8, 36, 64]),
    batch=st.sampled_from([16, 100, 512]),
    machine=machines(),
)
@settings(max_examples=20, deadline=None)
def test_search_engine_grid_tables_bit_identical(net, p, batch, machine):
    """Every grid's full SimulationPoint matches the serial evaluation."""
    network = NETWORKS[net]
    engine = SearchEngine()
    serial = evaluate_grids(network, batch, p, machine, COMPUTE)
    cached = engine.evaluate_grids(network, batch, p, machine, COMPUTE)
    assert len(serial) == len(cached)
    for a, b in zip(serial, cached):
        assert a.strategy == b.strategy
        assert a.total_epoch == b.total_epoch
        assert a.comm_epoch == b.comm_epoch
        assert a.iteration.comm.terms == b.iteration.comm.terms


def _outcome(call):
    """The call's result, or its ``(exception type, message)``."""
    try:
        return call()
    except (StrategyError, ConfigurationError) as exc:
        return type(exc), str(exc)


#: Primes, highly composite, non powers of two, the paper's largest P.
WIDE_PROCESSES = [1, 2, 7, 13, 60, 96, 97, 500, 1000, 6144, 16381, 16384]
#: Tiny and fractional batches next to the paper's.
WIDE_BATCHES = [0.5, 1, 1.5, 3, 7, 100.5, 512, 2048, 65536]


@given(
    net=st.sampled_from(sorted(NETWORKS)),
    p=st.sampled_from(WIDE_PROCESSES),
    batch=st.sampled_from(WIDE_BATCHES),
    machine=machines(),
    allow_domain=st.booleans(),
    conv_pure_batch=st.booleans(),
    overlap=st.booleans(),
    per_layer=st.booleans(),
    max_pc=st.sampled_from([None, None, 0, 1, 2, 16, 64]),
    max_memory_elements=st.sampled_from([None, None, 1e5, 1e7, 1e9]),
    dataset_size=st.sampled_from([None, 1000, 1281167]),
)
@settings(max_examples=60, deadline=None)
def test_search_engine_best_strategy_every_kwarg_bit_identical(net, p, batch, machine, **kwargs):
    """Same point, or the same error with the same message — over primes,
    P > B, fractional batches and every ``best_strategy`` option."""
    network = NETWORKS[net]
    serial = _outcome(lambda: best_strategy(network, batch, p, machine, COMPUTE, **kwargs))
    engine = _outcome(
        lambda: SearchEngine().best_strategy(network, batch, p, machine, COMPUTE, **kwargs)
    )
    if isinstance(serial, tuple):
        assert engine == serial
    else:
        assert engine.point == serial.point  # every term, every float, ==


FAMILY_PLACEMENTS = {
    **_FAMILY_PLACEMENTS,
    # Not a built-in family: every placement kind interleaved.
    "mixed": lambda w: (
        (Placement.DOMAIN, Placement.BATCH, Placement.MODEL)[w.index % 3]
        if w.is_conv
        else (Placement.BATCH, Placement.MODEL)[w.index % 2]
    ),
}


def _assert_columns_equal_serial(table, i, network, batch, strategy, machine, overlap, dataset):
    """Column entry ``i`` of every table array == the serial evaluation."""
    point = simulate_epoch(
        network, batch, strategy, machine, COMPUTE, overlap=overlap, dataset_size=dataset
    )
    comm = point.iteration.comm
    by_category = comm.by_category()
    assert table.comm_latency[i] == comm.latency
    assert table.comm_bandwidth[i] == comm.bandwidth
    assert table.comm_total[i] == comm.total
    assert table.volume[i] == comm.volume
    assert table.batch_comm[i] == comm.batch_time
    assert table.model_comm[i] == (
        by_category.get("model.allgather_fwd", 0.0) + by_category.get("model.allreduce_dx", 0.0)
    )
    assert table.domain_comm[i] == (
        by_category.get("domain.halo_fwd", 0.0) + by_category.get("domain.halo_bwd", 0.0)
    )
    assert table.iter_total[i] == point.iteration.total
    assert table.epoch_total[i] == point.total_epoch
    assert table.comm_epoch[i] == point.comm_epoch


@given(
    net=st.sampled_from(sorted(NETWORKS)),
    p=st.sampled_from(WIDE_PROCESSES),
    batch=st.sampled_from(WIDE_BATCHES),
    machine=machines(),
    family=st.sampled_from(sorted(FAMILY_PLACEMENTS)),
    overlap=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_family_table_columns_equal_serial_breakdowns(net, p, batch, machine, family, overlap):
    """Every ``GridCostTable`` array, per grid, ``==`` the serial
    ``CostBreakdown`` — or the table raises what the first grid raises."""
    network, dataset = NETWORKS[net], 1281167
    grids = _outcome(lambda: enumerate_grids(p, batch=batch))
    if isinstance(grids[0], type):
        return  # no feasible grid at all: nothing to tabulate
    placements = tuple(FAMILY_PLACEMENTS[family](w) for w in network.weighted_layers)
    table = _outcome(
        lambda: family_cost_table(
            network, batch, grids, machine, placements=placements,
            compute_time=COMPUTE.share_iteration_time(batch, p),
            iterations=dataset / batch, overlap=overlap,
        )
    )
    if isinstance(table, tuple):
        # A fixed placement vector fails on every grid alike (BATCH past
        # P = B, DOMAIN on an FC layer): same error as the scalar path
        # (the tables work on, and report, ``float(batch)``).
        assert table == _outcome(
            lambda: integrated_cost(
                network, float(batch), Strategy(grids[0], placements), machine
            )
        )
        return
    assert table.grids == grids
    for i, grid in enumerate(grids):
        _assert_columns_equal_serial(
            table, i, network, batch, Strategy(grid, placements), machine, overlap, dataset
        )


@given(
    net=st.sampled_from(sorted(NETWORKS)),
    p=st.sampled_from(WIDE_PROCESSES),
    batch=st.sampled_from(WIDE_BATCHES),
    machine=machines(),
    allow_domain=st.booleans(),
    overlap=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_per_layer_table_columns_and_placements_equal_serial(
    net, p, batch, machine, allow_domain, overlap
):
    """Each grid's placement vector ``==`` ``optimal_placements`` and each
    column ``==`` the serial breakdown of that per-grid strategy."""
    network, dataset = NETWORKS[net], 1281167
    grids = _outcome(lambda: enumerate_grids(p, batch=batch))
    if isinstance(grids[0], type):
        return
    table, placements = per_layer_cost_table(
        network, batch, grids, machine, allow_domain=allow_domain,
        compute_time=COMPUTE.share_iteration_time(batch, p),
        iterations=dataset / batch, overlap=overlap,
    )
    assert len(placements) == len(grids)
    for i, grid in enumerate(grids):
        strategy = optimal_placements(network, batch, grid, machine, allow_domain=allow_domain)
        assert placements[i] == strategy.placements
        _assert_columns_equal_serial(
            table, i, network, batch, strategy, machine, overlap, dataset
        )


@given(
    net=st.sampled_from(sorted(NETWORKS)),
    pr=st.sampled_from([1, 2, 4, 8]),
    pc=st.sampled_from([1, 3, 8, 16]),
    batch=st.sampled_from([16, 100, 512]),
    machine=machines(),
)
@settings(max_examples=20, deadline=None)
def test_search_engine_placements_bit_identical(net, pr, pc, batch, machine):
    network = NETWORKS[net]
    grid = ProcessGrid(pr, pc)
    if grid.pc > batch:
        return
    engine = SearchEngine()
    serial = optimal_placements(network, batch, grid, machine)
    cached = engine.optimal_placements(network, batch, grid, machine)
    assert serial == cached


@given(machine=machines(), factor=st.floats(1.001, 100.0))
@settings(max_examples=15, deadline=None)
def test_cache_invalidates_when_machine_changes(machine, factor):
    """A derated machine gets fresh kernels, never stale cached costs."""
    network = NETWORKS["alexnet"]
    engine = SearchEngine()
    derated = machine.derated(latency_factor=factor, bandwidth_factor=1.0 / factor)
    assert machine_key(machine) != machine_key(derated)
    first = engine.best_strategy(network, 512, 64, machine, COMPUTE)
    keys_before = set(engine.cache._terms)
    second = engine.best_strategy(network, 512, 64, derated, COMPUTE)
    # Every key carries the machine fields: no entry was reused.
    new_keys = set(engine.cache._terms) - keys_before
    assert new_keys and all(k[-1] == machine_key(derated) for k in new_keys)
    # And the answers still match the serial path for both machines.
    _grid_choices_equal(best_strategy(network, 512, 64, machine, COMPUTE), first)
    _grid_choices_equal(best_strategy(network, 512, 64, derated, COMPUTE), second)


def test_stress_many_ranks_collectives():
    """32 simulated ranks exercising every collective in one program."""
    size = 32

    def prog(comm):
        x = np.full(50, float(comm.rank))
        total = comm.allreduce(x)
        assert total[0] == pytest.approx(sum(range(size)))
        gathered = comm.allgather(np.array([comm.rank], dtype=float))
        assert gathered.shape == (size,)
        comm.barrier()
        value = comm.bcast("token" if comm.rank == 5 else None, root=5)
        assert value == "token"
        # 4x8 grid split and a sub-collective.
        row = comm.split(color=comm.rank // 8)
        assert row.size == 8
        s = row.allreduce(np.array([1.0]))
        assert s[0] == 8.0
        return comm.clock

    res = SimEngine(size).run(prog)
    assert res.time > 0
