"""The ring all-reduce's two loops agree bit for bit.

A plain run (no fault injector, tracing off, no SDC guard) executes the
ring's rounds in one loop that reads the per-call state once; any other
run goes round by round through ``Comm.sendrecv``.  An inert
``FaultPlan`` forces the second loop without changing a single virtual
time, so the same all-reduce run both ways must deliver byte-equal
values, ``float.hex``-equal clocks, and the same message, byte and
switch counts.  ``postal_calls`` is bumped only by the fault-free
branch, which shows that each run took the loop it was meant to.  Runs
whose odd ranks pass the other float width check that the plain loop's
phase-2 forwarding never ships a chunk in a dtype the rank would not.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.profile import hooks as profile_hooks
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import FaultPlan

DTYPES = (np.float64, np.float32, np.int64)

#: The other float width, for runs whose odd ranks pass a different dtype.
OTHER_FLOAT = {np.float64: np.float32, np.float32: np.float64}


def _input(rank, n, dtype, layout, seed, mixed=False):
    """Rank ``rank``'s ``n``-element input in the given memory layout."""
    if mixed and rank % 2:
        dtype = OTHER_FLOAT.get(dtype, dtype)
    rng = np.random.default_rng([seed, rank])
    if np.dtype(dtype).kind == "f":
        values = rng.standard_normal(2 * n).astype(dtype)
    else:
        values = rng.integers(-(2**40), 2**40, 2 * n).astype(dtype)
    if layout == "contiguous":
        return values[:n].copy()
    if layout == "strided":
        return values[::2]  # every other element: a non-contiguous view
    # Two columns of a C-ordered (n, 2) block, transposed: F-ordered (2, n).
    return values.reshape(n, 2).T


def _program(comm, n, dtype, layout, seed, mixed):
    x = _input(comm.rank, n, dtype, layout, seed, mixed)
    before = x.copy()
    out = comm.allreduce(x)
    assert np.array_equal(x, before)  # the input is never written
    return out.dtype.str, out.shape, out.tobytes()


def _run(p, planned, *args):
    engine = SimEngine(p, faults=FaultPlan(seed=5) if planned else None)
    hooks = profile_hooks.activate(None)
    try:
        result = engine.run(_program, *args)
    finally:
        profile_hooks.deactivate()
    counters = hooks.counters()
    return (
        result.values,
        [clock.hex() for clock in result.clocks],
        {name: counters[name] for name in
         ("msgs_sent", "bytes_sent", "msgs_delivered", "switches")},
        counters["postal_calls"],
    )


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 40),
    n=st.one_of(st.integers(0, 8), st.integers(0, 300)),  # n < P: empty chunks
    dtype=st.sampled_from(DTYPES),
    layout=st.sampled_from(("contiguous", "strided", "transposed")),
    seed=st.integers(0, 2**16),
    mixed=st.booleans(),  # odd ranks pass the other float width
)
def test_plain_loop_matches_the_per_message_loop(p, n, dtype, layout, seed, mixed):
    plain_values, plain_clocks, plain_counts, plain_postal = _run(
        p, False, n, dtype, layout, seed, mixed
    )
    values, clocks, counts, postal = _run(p, True, n, dtype, layout, seed, mixed)
    assert plain_values == values
    assert plain_clocks == clocks
    assert plain_counts == counts
    assert counts["msgs_sent"] == counts["msgs_delivered"] == p * 2 * (p - 1)
    assert postal == 0
    assert plain_postal == plain_counts["msgs_sent"]  # nonzero whenever p > 1
    if mixed:
        return  # each rank rounds into its own dtype: no one reference sum
    expected = sum(_input(rank, n, dtype, layout, seed) for rank in range(p))
    for dtype_str, shape, data in plain_values:
        assert dtype_str == np.dtype(dtype).str and shape == expected.shape
        got = np.frombuffer(data, dtype=dtype)
        tol = 1e-4 if dtype is np.float32 else 1e-9
        np.testing.assert_allclose(got, expected.ravel(), rtol=tol, atol=tol)
