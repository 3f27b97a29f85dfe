"""Golden output of the gauntlet commands, of the experiments that run
the switching trainer, and of ``best --plan``: exit code, sha256 of
stdout, no stderr.

Run with no scheduler flag, so a CLI change that moves one byte a user
sees fails here.  After an *intended* change of output, copy the digest
the failing assertion prints into ``GOLDEN``.
"""

import hashlib

import pytest

from repro.cli import main

GOLDEN = {  # argv -> (exit code, sha256(stdout)[:24])
    "faults": (0, "c2e61d6475395076ff8e6666"),
    "faults --json": (0, "9b715223109dc69742811fc1"),
    "sdc": (0, "cb7bdc360d9579109f6b2b3d"),
    "chaos --trials 1": (0, "ea34136f06be23910a3f5349"),
    "chaos --trials 0 --steps 6 --over-parity": (1, "21acf6b06dc93b09b1af7583"),
    "trace": (0, "d877e5cfd0c3f0e39a51824d"),
    "watch --scenario clean": (0, "68c0bdf0f5b8879c9539dc81"),
    "watch --scenario straggler": (1, "f83b49fa689c36cb2c4958e4"),
    "watch --scenario crash": (1, "4ea4d45466430b065f698d4c"),
    "watch --scenario degrade": (2, "ef3cf04ae4b663d1ecdc5173"),
    "watch --scenario diverge": (1, "71ea9045296750bcdaea137a"),
    # The two experiments that print the switching trainer's virtual time.
    "run dist": (0, "a8e47c81e4e65474a3218053"),
    "run modelcheck": (0, "a4a6c065eb927700898cc10d"),
    # The iteration plan: batch + model placements, then domain + model
    # placements with their halo exchanges.
    "best -B 2048 -P 512 --plan": (0, "61f319e8c514270b58466294"),
    "best -B 256 -P 4096 --plan": (0, "6ca2a59ea4b683f70ba5e766"),
}


def _run(capsys, command):
    rc = main(command.split())
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_golden(capsys, command):
    rc, out, err = _run(capsys, command)
    digest = hashlib.sha256(out.encode()).hexdigest()[:24]
    assert (rc, digest) == GOLDEN[command], command
    assert err == ""


def test_watch_output_reproducible(capsys):
    first = _run(capsys, "watch --scenario straggler")
    assert _run(capsys, "watch --scenario straggler") == first
