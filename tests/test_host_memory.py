"""Host memory of the integrated CNN run, counted with ``tracemalloc``.

The simulator holds every rank's buffers in one process, and ranks
interleave at each blocking exchange, so whatever a rank keeps alive
across a send or a receive is multiplied by P at the peak.  These tests
read no clock: ``tracemalloc`` counts the bytes Python and NumPy
allocate, the same on every run of the same code.
"""

import gc
import inspect
import sys
import tracemalloc

import pytest

from repro.data.synthetic import synthetic_images
from repro.dist import conv_domain, integrated, layers
from repro.dist.conv_domain import DomainConv2D
from repro.dist.integrated import (
    CNNParams,
    IntegratedCNNConfig,
    distributed_cnn_train,
    serial_cnn_train,
)
from repro.simmpi import collops
from repro.simmpi.communicator import Comm
from repro.simmpi.engine import SimEngine

PR = PC = 2
BATCH = 8
SIDE = 32
CONFIG = IntegratedCNNConfig(
    in_channels=2, height=SIDE, width=SIDE, conv_channels=(8, 16),
    conv_kernels=(3, 3), pool_after=(True, True), fc_dims=(64, 5),
)
X, Y = synthetic_images(2 * BATCH, 2, SIDE, SIDE, 5, seed=1)
PARAMS0 = CNNParams.init(CONFIG, seed=1)

#: The peak this test read before the im2col buffers were released
#: early and the gradients reduced in place: 7 364 316 to 7 366 707
#: bytes over three runs (CPython 3.11, NumPy 2.4), where conv 0's
#: backward waits on its halo exchange.  It reads about 4.76 MB now.
PEAK_BEFORE = 7_364_000


def _run():
    return distributed_cnn_train(
        CONFIG, PARAMS0, X, Y, pr=PR, pc=PC, batch=BATCH, steps=2,
        engine=SimEngine(PR * PC),
    )


def _lines(fn):
    """``(file, first line, last line)`` of ``fn``'s source."""
    source, first = inspect.getsourcelines(fn)
    return inspect.getsourcefile(fn), first, first + len(source) - 1


def _line_of(fn, text):
    """``(file, line, line)`` of the one line of ``fn`` containing ``text``."""
    path, first, _ = _lines(fn)
    source, _ = inspect.getsourcelines(fn)
    (line,) = [first + i for i, src in enumerate(source) if text in src]
    return path, line, line


#: The smallest buffer the sites below allocate in this configuration:
#: conv 1's ``dy_mat`` on one rank, F x (b * h * W) float64 = 64 KiB.
#: Smaller live blocks under those lines are NumPy's own bookkeeping.
SMALLEST_BUFFER = CONFIG.conv_channels[1] * (BATCH // PC) * (SIDE // 2 // PR) * (SIDE // 2) * 8


def _largest_live_from(snapshot, sites):
    """Size of the largest live block allocated on one of ``sites``
    (each a ``(file, first line, last line)``), or 0."""
    sizes = [
        trace.size for trace in snapshot.traces
        if any(trace.traceback[0].filename == path and lo <= trace.traceback[0].lineno <= hi
               for path, lo, hi in sites)
    ]
    return max(sizes, default=0)


@pytest.fixture
def traced_memory():
    """Count allocations from here on, each by the line that made it."""
    gc.collect()
    tracemalloc.start(1)
    try:
        yield
    finally:
        tracemalloc.stop()


def test_peak_is_below_the_earlier_peak_less_the_released_buffers(traced_memory):
    _run()  # warm-up outside the count: worker threads, imports, caches
    gc.collect()
    tracemalloc.reset_peak()
    _run()
    _, peak = tracemalloc.get_traced_memory()
    # At the earlier peak conv 0's backward held its im2col columns and
    # their gradient on every rank, each (C*kh*kw) x (b*h*W) float64.
    kh = CONFIG.conv_kernels[0]
    columns = CONFIG.in_channels * kh * kh * (BATCH // PC) * (SIDE // PR) * SIDE * 8
    released = PR * PC * 2 * columns
    assert peak <= PEAK_BEFORE - released, (peak, PEAK_BEFORE - released)


def test_no_lowered_buffer_is_held_across_a_halo_exchange(traced_memory, monkeypatch):
    sites = [
        _lines(layers.im2col),
        _line_of(DomainConv2D.backward, "dcols = "),
        _line_of(DomainConv2D.backward, "dy_mat = "),
    ]
    backward, send = DomainConv2D.backward.__code__, Comm.send
    held = []

    def spying_send(self, *args, **kwargs):
        if sys._getframe(1).f_code is backward:
            held.append(_largest_live_from(tracemalloc.take_snapshot(), sites))
        return send(self, *args, **kwargs)

    monkeypatch.setattr(Comm, "send", spying_send)
    _run()
    # 2 steps x 2 convs x every rank shipping halo gradient to its one
    # neighbour.
    assert len(held) == 2 * 2 * PR * PC
    assert max(held) < SMALLEST_BUFFER, held


def test_gradient_all_reduce_makes_no_private_copy(traced_memory, monkeypatch):
    # The copying all-reduce's own allocations (its ``flatten``) never
    # appear while a trainer's gradient is reduced: the ring works in
    # the partial itself.
    sites = [_lines(collops.allreduce)]
    rounds, held = collops._ring_rounds_plain, []

    def spying_rounds(comm, flat, *args):
        if flat.size > 1 and comm.world_rank == 0:  # not the one-number loss
            held.append(_largest_live_from(tracemalloc.take_snapshot(), sites))
        return rounds(comm, flat, *args)

    monkeypatch.setattr(collops, "_ring_rounds_plain", spying_rounds)
    _run()
    assert held and max(held) < SMALLEST_BUFFER, held


def test_serial_conv_backward_frees_its_columns_before_col2im(traced_memory, monkeypatch):
    sites = [_lines(layers.im2col), _line_of(layers.conv2d_backward, "dy_mat = ")]
    col2im, held = layers.col2im, []

    def spying_col2im(*args, **kwargs):
        held.append(_largest_live_from(tracemalloc.take_snapshot(), sites))
        return col2im(*args, **kwargs)

    monkeypatch.setattr(layers, "col2im", spying_col2im)
    monkeypatch.setattr(conv_domain, "col2im", spying_col2im)
    serial_cnn_train(CONFIG, PARAMS0, X, Y, batch=BATCH, steps=1)
    assert len(held) == CONFIG.num_convs
    assert max(held) < SMALLEST_BUFFER, held


def test_no_halo_extended_input_outlives_its_backward(traced_memory, monkeypatch):
    # A ring all-reduce returns on no rank before every rank has entered
    # it, so once conv 0's weight gradient (the step's last conv
    # all-reduce) comes back, every rank has run both convs' backward:
    # no halo-extended input ``_assemble_ext`` built may still be live.
    sites = [_lines(DomainConv2D._assemble_ext)]
    reduce, held = Comm.allreduce_inplace, []

    def spying_reduce(self, *args, **kwargs):
        out = reduce(self, *args, **kwargs)
        caller = sys._getframe(1)
        if caller.f_code.co_filename == integrated.__file__ and caller.f_locals.get("i") == 0:
            held.append(_largest_live_from(tracemalloc.take_snapshot(), sites))
        return out

    monkeypatch.setattr(Comm, "allreduce_inplace", spying_reduce)
    # One step, so no rank can have started the next step's forward.
    distributed_cnn_train(
        CONFIG, PARAMS0, X, Y, pr=PR, pc=PC, batch=BATCH, steps=1,
        engine=SimEngine(PR * PC),
    )
    # The smaller of the two: conv 0's, b x C x (h + 2 halo rows) x W
    # float64 on one rank.  Smaller live blocks are NumPy bookkeeping.
    smallest_ext = (BATCH // PC) * CONFIG.in_channels * (SIDE // PR + 2) * SIDE * 8
    assert len(held) == PR * PC
    assert max(held) < smallest_ext, held
