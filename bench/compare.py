"""Compare two result files: one row per workload x end-to-end metric."""

from __future__ import annotations

import statistics


def summarize(samples, unit):
    """Median, quartiles and count of a metric's samples."""
    if len(samples) >= 2:
        p25, _, p75 = statistics.quantiles(samples, n=4)
    else:
        p25 = p75 = samples[0]
    return {
        "median": statistics.median(samples),
        "p25": p25,
        "p75": p75,
        "n": len(samples),
        "unit": unit,
        "samples": list(samples),
    }


def _spread(metric):
    return (metric["p75"] - metric["p25"]) / metric["median"]


def verdict(a, b, bound, better="lower"):
    """``(delta, verdict)`` for metric summaries ``a`` (before) and ``b`` (after).

    ``delta`` is the relative change of the median, positive when worse.
    When either side's own spread exceeds the bound the pair cannot
    resolve a change of that size: the verdict is ``unresolved`` unless
    every sample of one side beats every sample of the other.
    """
    sign = 1.0 if better == "lower" else -1.0
    delta = sign * (b["median"] - a["median"]) / a["median"]
    if max(_spread(a), _spread(b)) > bound:
        a_s = [sign * v for v in a["samples"]]
        b_s = [sign * v for v in b["samples"]]
        if max(b_s) < min(a_s) and delta < -bound:
            return delta, "improved"
        if min(b_s) > max(a_s) and delta > bound:
            return delta, "regressed"
        return delta, "unresolved"
    if delta > bound:
        return delta, "regressed"
    if delta < -bound:
        return delta, "improved"
    return delta, "unchanged"


def compare_results(before, after, spec):
    """Rows ``(workload, metric, a, b, delta, bound, verdict)`` for every
    workload both results hold, plus a ``failed_ops`` row whose share of
    ``ops`` may not grow."""
    rows = []
    for workload, a_run in before["workloads"].items():
        b_run = after["workloads"].get(workload)
        if b_run is None:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = a_run["metrics"][name], b_run["metrics"][name]
            delta, word = verdict(a, b, bound, metric["better"])
            rows.append((workload, name, a["median"], b["median"], delta, bound, word))
        a_share = a_run["failed_ops"] / a_run["ops"]
        b_share = b_run["failed_ops"] / b_run["ops"]
        word = "regressed" if b_share > a_share else "improved" if b_share < a_share else "unchanged"
        rows.append((workload, "failed_ops", a_share, b_share, b_share - a_share, 0.0, word))
    return rows


def format_rows(rows):
    lines = [
        f"{'workload':<20} {'metric':<12} {'before':>12} {'after':>12} "
        f"{'delta':>8} {'bound':>6}  verdict"
    ]
    for workload, name, a, b, delta, bound, word in rows:
        lines.append(
            f"{workload:<20} {name:<12} {a:>12.4f} {b:>12.4f} "
            f"{delta:>+8.1%} {bound:>6.0%}  {word}"
        )
    return "\n".join(lines)
