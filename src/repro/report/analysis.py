"""Markdown/HTML rendering of trace-analysis results.

Turns the machine-readable reports of :mod:`repro.analysis` — the
critical path and the per-rank accounting — into shareable documents:
a markdown narrative with the critical-path hop table and a per-grid
imbalance heatmap, and a minimal self-contained HTML page for browsers.
The renderers are pure string builders over the analysis dataclasses;
no analysis logic lives here.
"""

from __future__ import annotations

import html
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.report.tables import format_seconds

__all__ = [
    "render_imbalance_heatmap",
    "critical_path_markdown",
    "analysis_markdown",
    "analysis_html",
]

#: Shading ramp for the imbalance heatmap, coolest to hottest.
_SHADES = ".:-=+*#%@"


def render_imbalance_heatmap(accounting, pr: int, pc: int) -> str:
    """``Pr x Pc`` grid heatmap of per-rank busy (compute) fractions.

    Each cell is ``rank:fraction`` with a shade scaled to the busiest
    rank; the straggler cell is bracketed.  Ranks map to coordinates as
    ``(row, col) = divmod(rank, pc)``.
    """
    if pr < 1 or pc < 1:
        raise ConfigurationError(f"grid dims must be >= 1, got {pr}x{pc}")
    by_rank = {a.rank: a for a in accounting.accounts}
    if max(by_rank) >= pr * pc:
        raise ConfigurationError(
            f"rank {max(by_rank)} does not fit a {pr}x{pc} grid"
        )
    straggler = accounting.straggler_rank
    lines = [
        f"load heatmap ({pr}x{pc} grid): cell = rank:busy%% of wall, "
        f"[..] = straggler, shade {_SHADES} scales with busy fraction"
        .replace("%%", "%"),
    ]
    peak = max((a.busy_fraction for a in accounting.accounts), default=1.0)
    for row in range(pr):
        cells: List[str] = []
        for col in range(pc):
            rank = row * pc + col
            a = by_rank.get(rank)
            if a is None:
                cells.append("   (absent)  ")
                continue
            frac = a.busy_fraction
            shade = _SHADES[
                min(len(_SHADES) - 1, int(len(_SHADES) * frac / peak))
                if peak > 0
                else 0
            ]
            body = f"{rank}:{frac:5.1%} {shade}"
            cells.append(f"[{body}]" if rank == straggler else f" {body} ")
        lines.append(f"row {row} |" + " ".join(cells))
    return "\n".join(lines)


def critical_path_markdown(cp, *, limit: Optional[int] = 20) -> str:
    """The critical path as a markdown section with a hop table."""
    lines = [
        "## Critical path",
        "",
        f"The longest dependency chain covers "
        f"**{format_seconds(cp.length_s)}** of the "
        f"**{format_seconds(cp.makespan_s)}** virtual makespan "
        f"({len(cp.path)} events over a DAG of {cp.graph.n_nodes} nodes / "
        f"{cp.graph.n_edges} edges; max off-path slack "
        f"{format_seconds(cp.max_slack_s)}).",
        "",
    ]
    by_cat = cp.by_category()
    if by_cat:
        lines.append("Critical time per cost-model term:")
        lines.append("")
        for cat, seconds in sorted(by_cat.items(), key=lambda kv: -kv[1]):
            lines.append(f"- `{cat}`: {format_seconds(seconds)}")
        lines.append("")
    lines += [
        "| hop | rank | op | peer | start | duration | phase | layer | category |",
        "| ---: | ---: | --- | ---: | ---: | ---: | --- | ---: | --- |",
    ]
    path = cp.path if limit is None else cp.path[:limit]
    for hop, c in enumerate(path):
        e = c.event
        lines.append(
            f"| {hop} | {e.rank} | {e.op} | {e.peer} | "
            f"{format_seconds(e.t_start)} | {format_seconds(c.duration_s)} | "
            f"{c.phase} | {c.layer} | {c.category} |"
        )
    if limit is not None and len(cp.path) > limit:
        lines.append(f"| … | | | | | | {len(cp.path) - limit} more hops | | |")
    return "\n".join(lines)


def analysis_markdown(accounting, cp, *, pr: int, pc: int, title: str = "Trace analysis") -> str:
    """Full markdown report: headline metrics, heatmap, critical path."""
    lines = [
        f"# {title}",
        "",
        f"- virtual makespan: **{format_seconds(cp.makespan_s)}**",
        f"- straggler: **rank {accounting.straggler_rank}**",
        f"- load imbalance (max/mean compute): "
        f"**{accounting.imbalance:.3f}**",
        f"- idle fraction of the P×makespan rectangle: "
        f"**{accounting.idle_fraction:.1%}**",
        "",
        "## Load imbalance",
        "",
        "```",
        render_imbalance_heatmap(accounting, pr, pc),
        "```",
        "",
        critical_path_markdown(cp),
        "",
    ]
    return "\n".join(lines)


def analysis_html(accounting, cp, *, pr: int, pc: int, title: str = "Trace analysis") -> str:
    """Self-contained HTML page wrapping the markdown content.

    Deliberately minimal: monospace ``<pre>`` blocks for the heatmap
    and an actual ``<table>`` for the critical path, no external assets.
    """
    rows = []
    for hop, c in enumerate(cp.path):
        e = c.event
        rows.append(
            "<tr>"
            f"<td>{hop}</td><td>{e.rank}</td><td>{html.escape(e.op)}</td>"
            f"<td>{e.peer}</td><td>{html.escape(format_seconds(e.t_start))}</td>"
            f"<td>{html.escape(format_seconds(c.duration_s))}</td>"
            f"<td>{html.escape(c.phase)}</td><td>{c.layer}</td>"
            f"<td>{html.escape(c.category)}</td>"
            "</tr>"
        )
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        "<style>body{font-family:sans-serif;margin:2em}"
        "pre{background:#f6f6f6;padding:1em}"
        "table{border-collapse:collapse}"
        "td,th{border:1px solid #ccc;padding:2px 8px;text-align:right}"
        "td:nth-child(3),td:nth-child(7),td:nth-child(9){text-align:left}"
        "</style></head><body>"
        f"<h1>{html.escape(title)}</h1>"
        "<ul>"
        f"<li>virtual makespan: {html.escape(format_seconds(cp.makespan_s))}</li>"
        f"<li>critical path: {html.escape(format_seconds(cp.length_s))} over "
        f"{len(cp.path)} events</li>"
        f"<li>straggler: rank {accounting.straggler_rank}</li>"
        f"<li>imbalance: {accounting.imbalance:.3f}</li>"
        f"<li>idle fraction: {accounting.idle_fraction:.1%}</li>"
        "</ul>"
        "<h2>Load heatmap</h2>"
        f"<pre>{html.escape(render_imbalance_heatmap(accounting, pr, pc))}</pre>"
        "<h2>Critical path</h2>"
        "<table><tr><th>hop</th><th>rank</th><th>op</th><th>peer</th>"
        "<th>start</th><th>duration</th><th>phase</th><th>layer</th>"
        "<th>category</th></tr>"
        + "".join(rows)
        + "</table></body></html>\n"
    )
