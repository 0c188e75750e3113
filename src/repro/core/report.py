"""Paper-style plain-text rendering of analysis results.

Every benchmark regenerates a table or figure of the paper; this module
turns the analysis dataclasses into rows formatted like the paper's
tables (Min / 1st Qu. / Median / Mean / 3rd Qu. / Max, units of MB, s,
Mbps) so the bench output can be eyeballed against the original.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from .concurrency import ConcurrencyAnalysis
from .sessions import GapReportRow
from .snmp_correlation import CorrelationTable
from .stats import BoxStats, SixNumberSummary
from .throughput import CategorySummary
from .vc_suitability import SuitabilityResult

__all__ = [
    "gap_label",
    "format_summary_row",
    "format_summary_block",
    "format_gap_report",
    "format_suitability_grid",
    "format_category_table",
    "format_correlation_table",
    "format_box",
    "format_series",
    "format_concurrency",
]

_HEADER = f"{'':>12} {'Min':>12} {'1st Qu.':>12} {'Median':>12} {'Mean':>12} {'3rd Qu.':>12} {'Max':>12}"


def _fmt(x: float) -> str:
    if not np.isfinite(x):
        return "nan"
    if x == 0:
        return "0"
    if abs(x) >= 1e5 or abs(x) < 1e-2:
        return f"{x:.3g}"
    return f"{x:,.1f}"


def format_summary_row(label: str, s: SixNumberSummary, scale: float = 1.0) -> str:
    """One table row: label then the six statistics, each scaled by ``scale``."""
    vals = [v * scale for v in s.as_row()]
    return f"{label:>12} " + " ".join(f"{_fmt(v):>12}" for v in vals)


def format_summary_block(
    title: str, rows: Sequence[tuple[str, SixNumberSummary, float]]
) -> str:
    """A titled block of summary rows (Tables I/II layout).

    ``rows`` holds (label, summary, scale) triples; scale converts units
    (e.g. 1e-6 for bytes -> MB or bps -> Mbps).
    """
    lines = [title, _HEADER]
    lines += [format_summary_row(label, s, scale) for label, s, scale in rows]
    return "\n".join(lines)


def gap_label(g: float) -> str:
    """A gap parameter in seconds: ``60s`` when whole, else the shortest
    repr (``0.5s``), so distinct values never share a label."""
    g = float(g)
    return f"{g:.0f}s" if g.is_integer() else f"{g!r}s"


def format_gap_report(title: str, rows: Sequence[GapReportRow]) -> str:
    """Table III layout: session structure per g value."""
    lines = [
        title,
        f"{'g':>8} {'#single':>9} {'#multi':>9} {'%<=2 xfer':>10} "
        f"{'max xfers':>10} {'#>=100':>8}",
    ]
    for r in rows:
        lines.append(
            f"{gap_label(r.g):>8} {r.n_single:>9,} {r.n_multi:>9,} "
            f"{r.percent_1_or_2:>9.2f}% {r.max_transfers_in_session:>10,} "
            f"{r.n_sessions_100_plus:>8,}"
        )
    return "\n".join(lines)


def format_suitability_grid(
    title: str,
    grid: Mapping[tuple[float, float], SuitabilityResult],
) -> str:
    """Table IV layout: % sessions (% transfers) per (g, setup delay) cell."""
    gs = sorted({g for g, _ in grid})
    delays = sorted({d for _, d in grid}, reverse=True)
    header = f"{'g':>8} " + " ".join(
        f"{('setup=' + _delay_label(d)):>22}" for d in delays
    )
    lines = [title, header]
    for g in gs:
        cells = []
        for d in delays:
            r = grid[(g, d)]
            cells.append(f"{r.percent_sessions:6.2f}% ({r.percent_transfers:6.2f}%)")
        lines.append(f"{gap_label(g):>8} " + " ".join(f"{c:>22}" for c in cells))
    return "\n".join(lines)


def _delay_label(delay_s: float) -> str:
    if delay_s >= 1.0:
        return f"{delay_s:.0f}s"
    return f"{delay_s * 1000:.0f}ms"


def format_category_table(
    title: str, categories: Sequence[CategorySummary], scale: float = 1e-6
) -> str:
    """Table VI layout: one column block per endpoint category, plus CV."""
    lines = [title, _HEADER + f" {'CV':>8}"]
    for c in categories:
        row = format_summary_row(c.category, c.summary, scale)
        lines.append(row + f" {100 * c.cv:>7.2f}%")
    return "\n".join(lines)


def format_correlation_table(title: str, table: CorrelationTable) -> str:
    """Tables XI/XII layout: quartile rows x router columns."""
    lines = [title, f"{'':>8} " + " ".join(f"{n:>8}" for n in table.link_names)]
    for q in (1, 2, 3, 4):
        vals = [table.per_quartile[q][n] for n in table.link_names]
        lines.append(f"{q}{'  Qu.':>5}  " + " ".join(f"{v:>8.3f}" for v in vals))
    vals = [table.overall[n] for n in table.link_names]
    lines.append(f"{'All':>6}  " + " ".join(f"{v:>8.3f}" for v in vals))
    return "\n".join(lines)


def format_box(label: str, box: BoxStats, scale: float = 1e-6) -> str:
    """One Figure 1 box: whiskers, quartiles, median and outlier count."""
    return (
        f"{label:>10}: |-{_fmt(box.whisker_low * scale):>9} "
        f"[{_fmt(box.q1 * scale):>9} {{{_fmt(box.median * scale):>9}}} "
        f"{_fmt(box.q3 * scale):>9}] {_fmt(box.whisker_high * scale):>9}-| "
        f"(+{len(box.outliers)} outliers, n={box.n})"
    )


def format_series(
    title: str,
    x: np.ndarray,
    ys: Mapping[str, np.ndarray],
    x_label: str = "x",
    max_rows: int = 25,
) -> str:
    """A figure rendered as aligned data columns, downsampled to ``max_rows``."""
    n = len(x)
    idx = np.linspace(0, n - 1, min(max_rows, n)).astype(int) if n else np.array([], int)
    names = list(ys)
    lines = [title, f"{x_label:>14} " + " ".join(f"{n_:>14}" for n_ in names)]
    for i in idx:
        row = f"{_fmt(float(x[i])):>14} " + " ".join(
            f"{_fmt(float(ys[n_][i])):>14}" for n_ in names
        )
        lines.append(row)
    return "\n".join(lines)


def format_concurrency(title: str, a: ConcurrencyAnalysis) -> str:
    """Figure 8 companion text: rho, R, and the quartile correlations."""
    qs = ", ".join(f"{v:.3f}" for v in a.quartile_correlations)
    return (
        f"{title}\n"
        f"  R = {a.capacity_bps * 1e-9:.2f} Gbps, n = {a.actual_bps.size}\n"
        f"  corr(actual, predicted) rho = {a.correlation:.3f}\n"
        f"  per-quartile rho = [{qs}]"
    )
