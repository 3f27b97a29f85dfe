"""Rank tasklets share one malloc heap.

Only one tasklet runs at a time, so what one rank frees the next can
reuse, but glibc gives every rank thread an arena of its own.  The
first engine run of a process therefore sets one arena and fixed
mmap/trim thresholds through ``mallopt`` (``simmpi.events``; see "Host
memory" in ``docs/SIMMPI.md``).  Each check runs in a fresh interpreter,
whose allocator nothing else has touched, and reads glibc's own
``malloc_info`` report.
"""

import ctypes
import os
import subprocess
import sys
import textwrap

import pytest

try:
    _LIBC = ctypes.CDLL(None)
    HAS_GLIBC_MALLOC = all(hasattr(_LIBC, f) for f in ("mallopt", "malloc_info"))
except (OSError, TypeError):  # pragma: no cover - no C library handle
    HAS_GLIBC_MALLOC = False

pytestmark = pytest.mark.skipif(not HAS_GLIBC_MALLOC, reason="needs glibc mallopt")

#: Prints how many arenas glibc's ``malloc_info`` reports, as ``ARENAS n``.
ARENAS = """
def arenas():
    import ctypes, tempfile
    libc = ctypes.CDLL(None)
    libc.fopen.restype = ctypes.c_void_p
    libc.fopen.argtypes = (ctypes.c_char_p, ctypes.c_char_p)
    libc.fclose.argtypes = (ctypes.c_void_p,)
    libc.malloc_info.argtypes = (ctypes.c_int, ctypes.c_void_p)
    with tempfile.NamedTemporaryFile("r", suffix=".xml") as fh:
        stream = libc.fopen(fh.name.encode(), b"w")
        assert libc.malloc_info(0, stream) == 0
        libc.fclose(stream)
        return fh.read().count("<heap nr=")

def allocating(comm):
    import numpy as np
    blocks = [np.ones(1 << 14) for _ in range(4)]  # 128 KiB each
    comm.barrier()
    return sum(float(b[0]) for b in blocks)
"""


def _python(body):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MALLOC_ARENA_MAX", None)  # the policy, not the environment, must set it
    code = ARENAS + textwrap.dedent(body)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_one_engine_run_leaves_one_arena():
    out = _python("""
        from repro.simmpi.engine import SimEngine
        result = SimEngine(16).run(allocating)
        assert result.values == (4.0,) * 16
        print("ARENAS", arenas())
    """)
    assert "ARENAS 1\n" in out


def test_a_profile_session_opened_first_keeps_one_arena():
    # The sampler thread starts before the first run: were it to get an
    # arena of its own, glibc would hand that one to rank threads too.
    out = _python("""
        from repro.profile import ProfileSession
        from repro.simmpi.engine import SimEngine
        with ProfileSession(hz=1.0):
            assert SimEngine(16).run(allocating).values == (4.0,) * 16
        print("ARENAS", arenas())
    """)
    assert "ARENAS 1\n" in out


def test_applying_the_policy_twice_is_harmless():
    out = _python("""
        from repro.simmpi import events
        from repro.simmpi.engine import SimEngine
        SimEngine(4).run(allocating)
        events.share_one_heap()       # a second run's call: a no-op
        events._heap_shared = False
        events.share_one_heap()       # set again from scratch
        assert SimEngine(16).run(allocating).values == (4.0,) * 16
        print("ARENAS", arenas())
    """)
    assert "ARENAS 1\n" in out


def test_import_alone_does_not_apply_it():
    # Without an engine run, threads that allocate side by side still
    # get arenas of their own: importing the package changed nothing.
    out = _python("""
        import threading
        import numpy as np
        import repro, repro.simmpi, repro.dist
        from repro.simmpi import events
        assert not events._heap_shared
        gate = threading.Barrier(4)

        def allocate():
            block = np.ones(1 << 14)
            gate.wait()
            del block

        threads = [threading.Thread(target=allocate) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        print("ARENAS", arenas())
    """)
    count = int(out.split("ARENAS ")[1])
    assert count > 1, out
