"""Golden output of the gauntlet commands, of the experiments that run
the switching trainer, and of ``best --plan``: exit code, sha256 of
stdout, no stderr; and the RunRecord bytes every trainer-running
command writes.

Run with no scheduler flag, so a CLI change that moves one byte a user
sees fails here.  After an *intended* change of output, copy the digest
the failing assertion prints into ``GOLDEN`` or ``RECORD_GOLDEN``.
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
    "watch --scenario clean": (0, "a737b66369ef0e2547290032"),
    "watch --scenario straggler": (1, "3446a7d08015a2fb0b8855a8"),
    "watch --scenario crash": (1, "369f660dde431721bb22c8e3"),
    "watch --scenario degrade": (2, "ad18418f1bd73e89f38eaa32"),
    "watch --scenario diverge": (1, "a6611ad402316ad2786a69f5"),
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


#: argv (``{out}`` is a fresh directory) -> sha256 of the RunRecord JSON
#: it writes, over every file under ``{out}`` (name and bytes, in name
#: order).  ``profile`` records lose their ``host`` block first: host
#: wall-clock is the one field that differs between two runs.
RECORD_GOLDEN = {
    "faults --record {out}/r.json": "55427fce51d5f4924a6220eb",
    "sdc --record {out}/r.json": "99d4ed065fd5415771da00fa",
    "watch --scenario clean --record {out}/r.json": "cd9bee4a6e71250685437f7f",
    "watch --scenario straggler --record {out}/r.json": "be6feabdebcad954d2e020b2",
    "watch --scenario crash --record {out}/r.json": "b89413d0ed83cd1c6e30affb",
    "watch --scenario degrade --record {out}/r.json": "062532dbcfd4c09ef10f5d60",
    "watch --scenario diverge --record {out}/r.json": "35f4c8fcf70dffa90bbc943f",
    "trace --record {out}/r.json": "17902f77cf918a5b2c9fae6c",
    "trace --sdc correct --record {out}/r.json": "500cc488c08506373d538229",
    # Every trial's plan and record, plus the summary.
    "chaos --trials 1 --out {out}": "17d4b4a51a613b9a1bb16e63",
    "profile --trainer mlp -P 4 --steps 2 --record {out}/r.json": "785203bbe52c8beea693490f",
    "profile --trainer elastic -P 4 --steps 2 --record {out}/r.json": "d491f8b12eb96e22f6046d57",
    "profile --trainer summa -P 4 --steps 2 --record {out}/r.json": "0156bd34e3b1d6689d7119eb",
    "profile --trainer integrated -P 4 --steps 2 --record {out}/r.json": "355a12c78fbd2506cbc24344",
}


def _tree_digest(root) -> str:
    import json

    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            payload = json.loads(data)
            if "host" in payload:
                payload.pop("host")
                data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()[:24]


@pytest.mark.parametrize("command", sorted(RECORD_GOLDEN))
def test_cli_record_golden(tmp_path, capsys, command):
    main(command.format(out=tmp_path).split())
    capsys.readouterr()
    assert _tree_digest(tmp_path) == RECORD_GOLDEN[command], command
