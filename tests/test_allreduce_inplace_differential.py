"""The in-place gradient all-reduce equals the copying one, bit for bit.

The trainers reduce each gradient partial they just computed into its
own buffer (``Comm.allreduce_inplace``); ``Comm.allreduce`` reduces a
private copy and leaves its argument alone.  Both run the same ring
rounds, so one rank program run both ways must deliver byte-equal
values, ``float.hex``-equal clocks, identical canonical traces and
identical hook counters: plain, traced, faulted (a slow link, a
transient retry) and SDC-guarded (a payload flip the guard corrects),
on P = 2..9 and lengths not divisible by P.
"""

import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.dist.abft import make_guard
from repro.errors import CommunicatorError
from repro.profile import hooks as profile_hooks
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import BitFlipFault, FaultPlan, LinkFault, TransientFault
from repro.simmpi.sdc import payload_guard

MODES = ("plain", "traced", "faulted", "guarded")
COUNTERS = ("msgs_sent", "bytes_sent", "msgs_delivered", "postal_calls", "switches")


def _partial(rank, shape, dtype, seed):
    """Rank ``rank``'s freshly computed partial, like a GEMM output."""
    rng = np.random.default_rng([seed, rank])
    return rng.standard_normal(shape).astype(dtype)


def _program(comm, shape, dtype, seed, in_place, guard):
    x = _partial(comm.rank, shape, dtype, seed)
    with payload_guard(guard):
        if in_place:
            out = comm.allreduce_inplace(x)
            assert out is x  # reduced into the caller's own buffer
        else:
            before = x.copy()
            out = comm.allreduce(x)
            assert x.tobytes() == before.tobytes()  # the argument is never written
    return out.dtype.str, out.shape, out.tobytes()


def _engine(p, mode):
    plan = None
    if mode == "faulted":
        plan = FaultPlan(
            seed=7,
            links=(LinkFault(src=0, dst=1, latency_factor=3.0, bandwidth_factor=0.5),),
            transients=(TransientFault(rank=1, send_index=0, attempts=1),),
        )
    elif mode == "guarded":
        plan = FaultPlan(seed=7, bitflips=(
            BitFlipFault(rank=0, target="payload", send_index=0, element=0, bit=52),
        ))
    return SimEngine(p, trace=mode != "plain", faults=plan)


def _run(p, mode, in_place, shape, dtype, seed):
    engine = _engine(p, mode)
    guard = make_guard("correct") if mode == "guarded" else None
    hooks = profile_hooks.activate(None)
    try:
        result = engine.run(_program, shape, dtype, seed, in_place, guard)
    finally:
        profile_hooks.deactivate()
    counters = hooks.counters()
    return (
        result.values,
        [clock.hex() for clock in result.clocks],
        engine.tracer.canonical() if engine.tracer.enabled else None,
        {name: counters[name] for name in COUNTERS},
        guard.monitor.snapshot() if guard is not None else None,
    )


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(2, 9),
    rows=st.integers(1, 7),
    cols=st.integers(1, 40),
    dtype=st.sampled_from((np.float64, np.float32)),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**16),
)
def test_in_place_matches_the_copying_reduction(p, rows, cols, dtype, mode, seed):
    assume((rows * cols) % p)
    shape = (rows, cols)
    copied = _run(p, mode, False, shape, dtype, seed)
    in_place = _run(p, mode, True, shape, dtype, seed)
    assert in_place == copied
    values, _, trace, counts, sdc = in_place
    assert counts["msgs_sent"] == counts["msgs_delivered"] >= p * 2 * (p - 1)
    assert (trace is None) == (mode == "plain")
    if mode == "guarded" and dtype is np.float64:
        # The flip was caught on the wire and the message sent again.
        assert sdc["detected"] == sdc["recomputed"] == 1
    expected = sum(_partial(rank, shape, dtype, seed) for rank in range(p))
    tol = 1e-4 if dtype is np.float32 else 1e-9
    for dtype_str, out_shape, data in values:
        assert dtype_str == np.dtype(dtype).str and out_shape == shape
        got = np.frombuffer(data, dtype=dtype).reshape(shape)
        np.testing.assert_allclose(got, expected, rtol=tol, atol=tol)


@pytest.mark.parametrize("flip", [False, True])
def test_protect_block_keeps_no_reference_to_its_block(flip):
    # The trainers reduce the very array SDCGuard.protect_block returned.
    # Were the guard to keep it (say, to verify it again later), the
    # reduction would overwrite what it kept: every reference must be
    # gone once the caller drops the array, on the clean path and on the
    # corrected one.
    plan = FaultPlan(bitflips=(
        BitFlipFault(rank=1, target="matmul", layer=0, step=0, gemm="bwd_dw",
                     element=3, bit=50),
    )) if flip else None
    guard = make_guard("correct")
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((6, 5)), rng.standard_normal((5, 7))

    def program(comm):
        with payload_guard(guard):
            block = guard.protect_block(
                comm, lambda: (comm.rank + 1) * (a @ b), layer=0, step=0, gemm="bwd_dw"
            )
            ref = weakref.ref(block)
            total = comm.allreduce_inplace(block)
            assert total is block
            summed = total.tobytes()
            del block, total
            return ref() is None, summed

    result = SimEngine(4, faults=plan).run(program)
    assert all(dropped for dropped, _ in result.values)
    expected = sum((r + 1) * (a @ b) for r in range(4))
    for _, summed in result.values:
        np.testing.assert_allclose(np.frombuffer(summed).reshape(6, 7), expected, rtol=1e-12)
    assert guard.monitor.snapshot()["corrected"] == (1 if flip else 0)


def test_in_place_needs_a_writeable_contiguous_array():
    def program(comm, arr):
        try:
            comm.allreduce_inplace(arr)
        except CommunicatorError as exc:
            return str(exc)
        return None

    strided = np.arange(12.0)[::2]
    frozen = np.arange(6.0)
    frozen.flags.writeable = False
    for arr in (strided, frozen, np.arange(12.0).reshape(3, 4).T):
        messages = SimEngine(2).run(program, arr).values
        assert all("C-contiguous" in m for m in messages)
