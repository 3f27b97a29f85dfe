"""Golden digests of the point-to-point message path.

One rank program pushes every payload kind the message path tells apart
through ``send``/``recv``, ``sendrecv`` and ``isend``+``irecv``+``wait``
— exact arrays in C and Fortran order, views, read-only, empty and 0-d
arrays, an ndarray subclass, NumPy and Python scalars, ``bytes``,
``None``, containers of arrays (aliased, mixed and nested ones included)
— then a sub-communicator exchange and the array collectives.  Each case
(traced or not, ``sdc="correct"`` guard or not, inert ``FaultPlan`` or
none) pins the sha256 of ``repr(Tracer.canonical())``, every final clock
as ``float.hex``, the hook counters, and what the receivers got: type,
dtype, shape, flags, aliasing and bytes, so a host-cost change to the
path that moves one bit of virtual time, one counter or one flag of a
delivered array fails here.

After an *intended* change, copy what the failing assertion prints into
``GOLDEN``.
"""

import copy
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.abft import make_guard
from repro.profile import hooks as profile_hooks
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import FaultPlan
from repro.simmpi.sdc import payload_guard

P = 6


#: An ndarray subclass must arrive as itself, by the general route.  One of
#: NumPy's own, so its pickle (wire size) does not carry this module's name.
Subclass = np.recarray


def _base(rank):
    return np.arange(12, dtype=np.float64).reshape(3, 4) + rank


def _payloads(rank):
    """``(name, payload)`` in send order; every array is freshly built."""
    readonly = _base(rank)
    readonly.setflags(write=False)
    shared = _base(rank)
    return [
        ("c-order", _base(rank)),
        ("f-order", np.asfortranarray(_base(rank))),
        ("strided-view", _base(rank)[::2, 1::2]),
        ("transposed", _base(rank).T),
        ("empty", np.empty((0, 3))),
        ("read-only", readonly),
        ("zero-d", np.array(2.5 + rank)),
        ("generic", np.float32(1.5 + rank)),
        ("subclass", _base(rank).view(Subclass)),
        ("int32", np.arange(5, dtype=np.int32) * (rank + 1)),
        ("object-dtype", np.array([rank, "x", None], dtype=object)),
        ("int", 7 + rank),
        ("float", 0.25 * rank),
        ("complex", complex(rank, -1.5)),
        ("bool", rank % 2 == 0),
        ("bytes", b"ab" * rank),
        ("none", None),
        ("list", [_base(rank), _base(rank) * 2.0]),
        ("tuple", (_base(rank), _base(rank)[:1])),
        ("dict", {"w": _base(rank), "b": _base(rank)[0]}),
        ("nested", [[_base(rank)], [_base(rank)[:1], 3]]),
        ("list-mixed", [_base(rank), 1.0]),
        ("list-orders", [np.asfortranarray(_base(rank)), _base(rank)[::2], _base(rank).T]),
        ("list-float32", [_base(rank).astype(np.float32), np.zeros(2, np.float32)]),
        ("list-aliased", [shared, shared, shared[:2]]),
        ("list-subclass", [_base(rank).view(Subclass)]),
        ("list-read-only", [readonly, _base(rank)]),
        ("list-object-dtype", [np.array([rank, None], dtype=object)]),
        ("list-empty-array", [np.empty(0), _base(rank)]),
        ("empty-list", []),
        ("empty-tuple", ()),
    ]


def _scribble(obj):
    """Overwrite every writable array inside ``obj`` (sends must have copied)."""
    if isinstance(obj, np.ndarray):
        if obj.flags.writeable and obj.dtype != object:
            obj[...] = -1
    elif isinstance(obj, dict):
        for value in obj.values():
            _scribble(value)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _scribble(item)


def _describe(obj):
    """Everything observable about a received value, as nested tuples."""
    if isinstance(obj, np.ndarray):
        f = obj.flags
        body = repr(obj.tolist()) if obj.dtype == object else obj.tobytes().hex()
        return (
            type(obj).__name__, str(obj.dtype), obj.shape,
            (f.c_contiguous, f.f_contiguous, f.writeable, f.owndata), body,
        )
    if isinstance(obj, (list, tuple)):
        ids = [id(item) for item in obj]
        return (
            type(obj).__name__,
            tuple(ids.index(i) for i in ids),  # which items are one object
            tuple(_describe(item) for item in obj),
        )
    if isinstance(obj, dict):
        return ("dict", tuple((k, _describe(v)) for k, v in obj.items()))
    return (type(obj).__name__, repr(obj))


def _program(comm, guarded):
    rank, p = comm.rank, comm.size
    right, left = (rank + 1) % p, (rank - 1) % p
    comm.advance(rank * 1e-6)
    got = []
    with payload_guard(make_guard("correct") if guarded else None):
        for k, (name, obj) in enumerate(_payloads(rank)):
            mode = k % 3
            if mode == 0:
                comm.send(obj, right, tag=k)
                _scribble(obj)
                value = comm.recv(left, tag=k)
            elif mode == 1:
                value = comm.sendrecv(obj, right, left, sendtag=k)
                _scribble(obj)
            else:
                request = comm.irecv(left, tag=k)
                assert comm.isend(obj, right, tag=k).wait() is None
                _scribble(obj)
                comm.advance(2e-6)  # flight time overlaps this compute
                value = request.wait()
                assert request.test() and request.wait() is value
            got.append((name, _describe(value)))
        # A sub-communicator has its own peers, ranks and message namespace.
        sub = comm.split(rank % 2, key=-rank)
        got.append(("sub", _describe(sub.sendrecv(_base(rank), (sub.rank + 1) % sub.size,
                                                  (sub.rank - 1) % sub.size, sendtag=5))))
        vec = np.arange(17, dtype=np.float64) * (rank + 1)
        got.append(("ring", _describe(comm.allreduce(vec.reshape(17, 1)))))
        got.append(("bruck", _describe(comm.allgather(_base(rank)))))
        assert vec[3] == 3.0 * (rank + 1)  # collectives never write their input
        comm.barrier()
    return got


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _run(traced, guarded, planned):
    engine = SimEngine(
        P, trace=traced, faults=FaultPlan(seed=3) if planned else None,
    )
    hooks = profile_hooks.activate(None)
    try:
        result = engine.run(_program, guarded)
    finally:
        profile_hooks.deactivate()
    counters = hooks.counters()
    switches = (counters.pop("dispatches"), counters.pop("switches"))
    observed = {
        "canonical": _sha(repr(engine.tracer.canonical())),
        "clocks": _sha(repr([clock.hex() for clock in result.clocks])),
        "values": _sha(repr(result.values)),
        "counters": counters,
    }
    return observed, switches


#: What the receivers got: the same in every case.
VALUES = "bf788e4e4e556721113978ed"

#: Final clocks by ``guarded`` (the 8-byte digest escort is wire time);
#: tracing and an inert plan cost host time, never virtual time.
CLOCKS = {False: "1282c3fb2093c2920115ec8d", True: "103957db22cbc7b30eb6a436"}

#: ``repr(canonical())`` by ``guarded`` when traced, and of the empty trace.
CANONICAL = {False: "caf8908d7f039da44c95e84a", True: "03b0bdebdefb34b81671f85f"}
CANONICAL_EMPTY = "2e38e77b22c314a449e91faf"

#: (dispatches, switches) of the scheduler, identical in every case.
EVENT_SWITCHES = (7, 83)


def _golden(traced, guarded, planned):
    return {
        "canonical": CANONICAL[guarded] if traced else CANONICAL_EMPTY,
        "clocks": CLOCKS[guarded],
        "values": VALUES,
        "counters": {
            "runs": 1,
            "msgs_sent": 288,
            "bytes_sent": 32758,  # payload bytes: the escort is not counted
            "msgs_delivered": 288,
            # The faulted branch times messages without PostalNetwork.
            "postal_calls": 0 if planned else 288,
            "trace_records": 612 if traced else 0,
            "fault_outcomes": 288 if planned else 0,
        },
    }


@pytest.mark.parametrize("planned", [False, True], ids=["faultfree", "planned"])
@pytest.mark.parametrize("guarded", [False, True], ids=["bare", "guarded"])
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_message_path_is_pinned(traced, guarded, planned):
    observed, switches = _run(traced, guarded, planned)
    assert observed == _golden(traced, guarded, planned), observed
    assert switches == EVENT_SWITCHES, switches


def test_subclass_and_container_semantics_survive_the_wire():
    """Spot checks in the clear, so a digest mismatch has a readable twin."""
    result = SimEngine(P).run(_program, False)
    got = dict(result.values[1])  # rank 1 receives from rank 0
    assert got["subclass"][0] == "recarray" and got["list-subclass"][2][0][0] == "recarray"
    for name in ("c-order", "f-order", "transposed", "strided-view", "read-only"):
        # A bare array lands C-ordered, writable and owned by the receiver.
        assert got[name][3] == (True, False, True, True), name
    assert got["list-aliased"][1] == (0, 0, 2)  # one object twice stays one object
    orders = [item[3][:2] for item in got["list-orders"][2]]
    assert orders == [(False, True), (True, False), (False, True)]  # order="K" in containers
    assert got["list-read-only"][2][0][3][2] is True  # copies are writable there too
    assert _base(0).tobytes().hex() == got["c-order"][4]  # and never the scribble


# -- the container rule as a property -----------------------------------------
#
# A list or tuple of plain arrays is sized by its pickle and copied element by
# element.  Whatever the structure, and whatever was sent before it, the
# answers must be the general ones.

DTYPES = ["f8", "f4", "f2", "i8", "i4", "u1", "?", "c16", ">f8", "<i2", "S3", "U2",
          "M8[ns]", "O", [("a", "f8"), ("b", "i4")]]
LAYOUTS = ["c", "f", "transposed", "strided", "read-only", "subclass"]

elements = st.tuples(
    st.sampled_from(DTYPES),
    st.lists(st.integers(0, 4), max_size=3).map(tuple),
    st.sampled_from(LAYOUTS),
)
containers = st.tuples(
    st.sampled_from([list, tuple]),
    st.lists(elements, max_size=6),
    st.sampled_from(["plain", "one-array-twice", "with-a-float", "with-a-nested-list"]),
)


def _build(spec, seed):
    """The container ``spec`` describes, filled from ``seed``."""
    kind, element_specs, twist = spec
    rng = np.random.default_rng(seed)
    items = []
    for dtype, shape, layout in element_specs:
        dtype = np.dtype(dtype)
        if dtype.hasobject:
            a = np.empty(shape, dtype=object)
            a[...] = int(rng.integers(100))
        else:
            raw = rng.bytes(int(np.prod(shape, dtype=int)) * dtype.itemsize)
            a = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        if layout == "f":
            a = np.asfortranarray(a)
        elif layout == "transposed":
            a = a.T
        elif layout == "strided" and a.ndim:
            a = a[::2]
        elif layout == "read-only":
            a.setflags(write=False)
        elif layout == "subclass":
            a = a.view(Subclass)
        items.append(a)
    if twist == "one-array-twice" and items:
        items.append(items[0])
    elif twist == "with-a-float":
        items.append(float(rng.random()))
    elif twist == "with-a-nested-list":
        items.append([np.arange(3.0)])
    return kind(items)


def _assert_sized_by_pickle_and_copied_like_deepcopy(objs):
    """Send ``objs`` rank 0 -> rank 1 in order; check each size and arrival."""
    engine = SimEngine(2, trace=True)

    def program(comm):
        if comm.rank == 0:
            for obj in objs:
                comm.send(obj, 1)
            return None
        return [comm.recv(0) for _ in objs]

    received = engine.run(program).values[1]
    sizes = [event.nbytes for event in engine.tracer.events if event.op == "send"]
    assert len(sizes) == len(received) == len(objs)
    for obj, nbytes, clone in zip(objs, sizes, received):
        assert nbytes == len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        assert _describe(clone) == _describe(copy.deepcopy(obj))
        for mine, theirs in zip(clone, obj):
            if isinstance(mine, np.ndarray):
                assert not np.shares_memory(mine, theirs)


@settings(max_examples=300, deadline=None)
@given(containers, st.integers(0, 2**32 - 1))
def test_container_size_is_its_pickle_and_copy_is_its_deepcopy(spec, seed):
    first, twin = _build(spec, seed), _build(spec, seed + 1)  # one structure, other numbers
    _assert_sized_by_pickle_and_copied_like_deepcopy([first, twin, first])


# Same shape, same dtype number, different pickle: the pairs a size
# remembered by (dtype.num, shape, flags) would charge alike.
LOOKALIKES = [
    (["S2", "S2"], ["S8", "S8"]),
    (["U1"], ["U7"]),
    (["M8[s]"], ["M8[ns]"]),
    (["m8[D]"], ["m8[ms]"]),
    (["f8", "f8"], [">f8", "f8"]),
    ([">f8", ">f8"], ["f8", "f8"]),
    (["V3"], ["V16"]),
]


@pytest.mark.parametrize("dtypes_a,dtypes_b", LOOKALIKES, ids=lambda d: "+".join(d))
@pytest.mark.parametrize("kind", [list, tuple])
def test_size_never_depends_on_what_was_sized_before(kind, dtypes_a, dtypes_b):
    a, b = (kind(np.zeros(3, dtype=d) for d in dtypes) for dtypes in (dtypes_a, dtypes_b))
    sizes = {len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)) for obj in (a, b)}
    assert len(sizes) == 2  # the pair really does differ on the wire
    _assert_sized_by_pickle_and_copied_like_deepcopy([a, b, a])
