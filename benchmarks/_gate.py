"""The one baseline gate behind the ``bench_*.py`` regression scripts.

A gate script measures a record (a JSON-able dict carrying ``schema``
and ``config``), prints its report lines and declares a list of checks;
:func:`run_gate` owns everything else — the ``--baseline`` /
``--update-baseline`` / ``--tolerance`` flags, reading and validating
the committed baseline, scaling floors and ceilings by the tolerance,
and the exit-code convention shared with ``repro diff``:

* ``0`` — every check passes (``gate : PASS (...)`` on stdout).
* ``1`` — regression (one ``REGRESSION: ...`` line per failure on stderr).
* ``2`` — configuration error (negative tolerance, unreadable baseline,
  schema or config mismatch, a baseline without a limit a check needs).

A check is a tuple ``(kind, key, limit_key, message)`` judging
``record[key]``; ``message`` is formatted with ``key``, ``value`` and
``limit``.  The kinds:

* ``"true"`` — a boolean invariant the script measured itself.
* ``"floor"`` / ``"ceiling"`` — against ``baseline[limit_key]``, loosened
  by the tolerance (floor slack is clamped so a floor never reaches 0).
* ``"same"`` — an exact count that must equal ``baseline[key]``.
* ``"at_least"`` — against ``record[limit_key]``, no tolerance.
"""

import argparse
import json
import sys


def _judge(check, record, baseline, tolerance, limits):
    """The failure message of one check, or ``None``; floors and ceilings
    also leave their scaled limit in ``limits`` for the ``PASS`` line."""
    kind, key, limit_key, message = check
    value, limit = record[key], None
    if kind == "true":
        failed = not value
    elif kind == "same":
        limit = baseline.get(key)
        failed = value != limit
    elif kind == "at_least":
        limit = record[limit_key]
        failed = value < limit
    else:
        slack = 1.0 + tolerance if kind == "ceiling" else 1.0 - min(tolerance, 0.99)
        limit = limits[limit_key] = float(baseline[limit_key]) * slack
        failed = value > limit if kind == "ceiling" else value < limit
    return message.format(key=key, value=value, limit=limit) if failed else None


def run_gate(
    argv, *, description, baseline_path, measure, report, checks, passed, width=9
):
    """Parse ``argv``, measure, report, and gate against the baseline.

    ``measure()`` returns the record, ``report(record)`` prints the
    script's measurement lines, ``checks`` run in order (all of them —
    every regression is listed, not just the first), and ``passed`` is
    the ``PASS (...)`` detail, formatted with the scaled limits as
    keywords plus ``baseline``.  ``width`` pads the ``gate`` /
    ``baseline`` labels to the script's report column.  Returns the
    process exit code.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--baseline", default=baseline_path)
    parser.add_argument("--update-baseline", action="store_true")
    parser.add_argument(
        "--tolerance", type=float, default=0.0,
        help="extra slack on the committed gates (fraction)",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        print("bench gate error: tolerance must be >= 0", file=sys.stderr)
        return 2

    record = measure()
    report(record)

    if args.update_baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"{'baseline':<{width}}: updated {args.baseline}")
        return 0

    try:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline {args.baseline!r}: {exc}", file=sys.stderr)
        return 2
    if baseline.get("schema") != record["schema"]:
        print(f"bad baseline schema {baseline.get('schema')!r}", file=sys.stderr)
        return 2
    if baseline.get("config") != record["config"]:
        print("baseline config does not match this benchmark's config; "
              "re-run with --update-baseline", file=sys.stderr)
        return 2

    missing = {c[2] for c in checks if c[0] in ("floor", "ceiling")} - set(baseline)
    if missing:
        print(f"baseline lacks the limit(s) {sorted(missing)}; re-run with "
              "--update-baseline", file=sys.stderr)
        return 2

    limits = {}
    failures = [_judge(c, record, baseline, args.tolerance, limits) for c in checks]
    if any(failures):
        for failure in filter(None, failures):
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    detail = passed.format(baseline=baseline, **limits)
    print(f"{'gate':<{width}}: PASS ({detail})")
    return 0


def tier2_hook(main):
    """A pytest-collectable function so ``pytest benchmarks/bench_x.py``
    runs the gate (bind it to a ``test_*`` name in the script)."""

    def test_gate():
        assert main([]) == 0

    return test_gate
