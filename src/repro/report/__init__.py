"""Reporting: ASCII tables/charts and file export for the experiments."""

from repro.report.charts import bar_chart, stacked_bar_chart
from repro.report.export import export_results, write_text
from repro.report.tables import format_seconds
from repro.report.timeline import render_timeline, traffic_matrix

__all__ = [
    "bar_chart",
    "stacked_bar_chart",
    "format_seconds",
    "export_results",
    "write_text",
    "render_timeline",
    "traffic_matrix",
]
