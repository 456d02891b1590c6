"""Measurement: overhead counters, staleness tracking, report tables.

The paper's claims are about protocol *work*, so counters
(:mod:`repro.obs`, re-exported here) are the primary instrument; staleness
(:mod:`~repro.metrics.staleness`) quantifies the failure-vulnerability
comparison against Oracle-style push (paper section 8.2); reporting
(:mod:`~repro.metrics.reporting`) renders the experiment tables.
"""

from repro.metrics.ascii_chart import bar_chart, line_chart
from repro.metrics.reporting import Table, format_bytes, format_ratio
from repro.metrics.staleness import StalenessSummary, summarize_staleness
from repro.obs import NULL_COUNTERS, OverheadCounters

__all__ = [
    "NULL_COUNTERS",
    "OverheadCounters",
    "Table",
    "format_bytes",
    "format_ratio",
    "bar_chart",
    "line_chart",
    "StalenessSummary",
    "summarize_staleness",
]
