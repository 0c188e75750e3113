"""Smoke tests for the paper-style text rendering."""

import numpy as np

from repro.core.concurrency import ConcurrencyAnalysis
from repro.core.report import (
    format_box,
    format_category_table,
    format_concurrency,
    format_correlation_table,
    format_gap_report,
    format_series,
    format_suitability_grid,
    format_summary_block,
    format_summary_row,
    gap_label,
)
from repro.core.sessions import GapReportRow
from repro.core.snmp_correlation import CorrelationTable
from repro.core.stats import box_stats, six_number_summary
from repro.core.throughput import CategorySummary
from repro.core.vc_suitability import SuitabilityResult


def summary():
    return six_number_summary([1e9, 2e9, 3e9, 4e9])


class TestFormatting:
    def test_summary_row_scaling(self):
        row = format_summary_row("tput", summary(), scale=1e-6)
        assert "tput" in row
        assert "1,000" in row  # 1e9 bps -> 1000 Mbps

    def test_summary_block(self):
        block = format_summary_block("Table V", [("dur", summary(), 1.0)])
        assert block.startswith("Table V")
        assert "Median" in block

    def test_gap_report(self):
        rows = [GapReportRow(60.0, 5, 10, 33.3, 1234, 2)]
        text = format_gap_report("Table III", rows)
        assert "60s" in text and "1,234" in text

    def test_suitability_grid(self):
        grid = {
            (0.0, 60.0): SuitabilityResult(0.0, 60.0, 1e9, 100, 50, 1000, 900),
            (0.0, 0.05): SuitabilityResult(0.0, 0.05, 1e9, 100, 93, 1000, 998),
        }
        text = format_suitability_grid("Table IV", grid)
        assert "50.00%" in text and "90.00%" in text
        assert "setup=60s" in text and "setup=50ms" in text

    def test_gap_labels(self):
        # whole seconds print as before; a fractional g keeps its digits
        assert [gap_label(g) for g in (0.0, 60.0, 120, 0.5, 1.25)] == [
            "0s", "60s", "120s", "0.5s", "1.25s"]
        rows = [GapReportRow(g, 5, 10, 33.3, 1234, 2) for g in (0.0, 0.5)]
        text = format_gap_report("Table III", rows)
        assert [line.split()[0] for line in text.splitlines()[2:]] == ["0s", "0.5s"]
        grid = {
            (g, 60.0): SuitabilityResult(g, 60.0, 1e9, 100, 50, 1000, 900)
            for g in (0.0, 0.5, 60.0)
        }
        text = format_suitability_grid("Table IV", grid)
        assert [line[:8] for line in text.splitlines()[2:]] == [
            "      0s", "    0.5s", "     60s"]

    def test_category_table(self):
        cats = [
            CategorySummary("mem-mem", summary(), 0.35, box_stats([1e9, 2e9, 3e9]))
        ]
        text = format_category_table("Table VI", cats)
        assert "mem-mem" in text and "35.00%" in text

    def test_correlation_table(self):
        table = CorrelationTable(
            link_names=("rt1", "rt2"),
            per_quartile={q: {"rt1": 0.5, "rt2": 0.6} for q in (1, 2, 3, 4)},
            overall={"rt1": 0.7, "rt2": 0.8},
        )
        text = format_correlation_table("Table XI", table)
        assert "0.700" in text and "rt2" in text

    def test_box(self):
        text = format_box("disk-disk", box_stats([1e9, 2e9, 3e9, 4e9, 50e9]))
        assert "disk-disk" in text and "outliers" in text

    def test_series_downsampling(self):
        x = np.arange(100.0)
        text = format_series("Fig 3", x, {"m8": x * 2}, max_rows=10)
        assert text.count("\n") <= 12

    def test_series_empty(self):
        text = format_series("Fig", np.zeros(0), {"y": np.zeros(0)})
        assert "Fig" in text

    def test_concurrency(self):
        a = ConcurrencyAnalysis(
            capacity_bps=2.19e9,
            actual_bps=np.array([1e9, 2e9]),
            predicted_bps=np.array([1.5e9, 1.8e9]),
            correlation=0.458,
            quartile_correlations=(0.1, 0.2, 0.3, 0.4),
        )
        text = format_concurrency("Fig 8", a)
        assert "0.458" in text and "2.19" in text
