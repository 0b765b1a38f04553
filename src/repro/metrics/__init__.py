"""Reporting helpers for the experiment reproduction benchmarks."""

from repro.metrics.charts import bar_chart
from repro.metrics.report import Table, fmt, ratio
from repro.metrics.analysis import (
    duplicate_deliveries,
    prefix_consistency_violations,
)

__all__ = [
    "bar_chart",
    "Table",
    "fmt",
    "ratio",
    "duplicate_deliveries",
    "prefix_consistency_violations",
]
