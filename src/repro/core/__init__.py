"""The paper's primary contribution: the GridFTP log analysis pipeline.

Submodules map one-to-one to the paper's analyses:

* :mod:`~repro.core.stats` — six-number summaries, CV, quartiles, binned medians
* :mod:`~repro.core.sessions` — gap-``g`` session grouping (Tables I--III)
* :mod:`~repro.core.vc_suitability` — VC setup-delay amortization (Table IV)
* :mod:`~repro.core.throughput` — per-path characterization (Tables V, VI; Fig. 1)
* :mod:`~repro.core.stripes` — stripe/year factor analysis (Tables VII--IX)
* :mod:`~repro.core.streams` — parallel-stream analysis (Figs. 2--5)
* :mod:`~repro.core.timeofday` — time-of-day factor (Fig. 6)
* :mod:`~repro.core.snmp_correlation` — Eq. (1) and Tables X--XIII
* :mod:`~repro.core.concurrency` — Eq. (2) and Figs. 7--8
* :mod:`~repro.core.alpha_flows` — α-flow / elephant classification
* :mod:`~repro.core.burstiness` — link/flow burstiness (Sarvotham motivation)
* :mod:`~repro.core.rate_advisor` — circuit rate/duration estimation
* :mod:`~repro.core.variance` — factor variance decomposition
* :mod:`~repro.core.report` — paper-style text rendering
* :mod:`~repro.core.streaming` — chunked sessionization + mergeable summaries
"""

from .sessions import (
    GapReportRow,
    SessionSet,
    group_sessions,
    group_sessions_at,
    session_gap_report,
    sessionize_chunks,
)
from .stats import (
    BinnedMedians,
    BoxStats,
    SixNumberSummary,
    binned_medians,
    box_stats,
    coefficient_of_variation,
    pearson_correlation,
    six_number_summary,
)
from .burstiness import link_burstiness, porcupine_elephant_overlap
from .distfit import fit_lognormal, skew_report, tail_index
from .interarrival import arrival_report, burstiness_index, interarrival_cv
from .rate_advisor import CircuitAdvice, RateAdvisor
from .streaming import (
    QuantileSketch,
    StreamAnalysis,
    StreamingMoments,
    StreamingSessionizer,
    StreamReport,
    StreamSummary,
)
from .throughput import PathStream, path_report, throughput_summary
from .variance import decompose_throughput_variance, eta_squared
from .vc_suitability import (
    HARDWARE_SETUP_DELAY_S,
    OSCARS_SETUP_DELAY_S,
    SuitabilityResult,
    suitability_table,
    vc_suitability,
)

__all__ = [
    "GapReportRow",
    "SessionSet",
    "group_sessions",
    "group_sessions_at",
    "sessionize_chunks",
    "session_gap_report",
    "QuantileSketch",
    "StreamAnalysis",
    "StreamingMoments",
    "StreamingSessionizer",
    "StreamReport",
    "StreamSummary",
    "BinnedMedians",
    "BoxStats",
    "SixNumberSummary",
    "binned_medians",
    "box_stats",
    "coefficient_of_variation",
    "pearson_correlation",
    "six_number_summary",
    "PathStream",
    "path_report",
    "throughput_summary",
    "CircuitAdvice",
    "RateAdvisor",
    "link_burstiness",
    "porcupine_elephant_overlap",
    "fit_lognormal",
    "skew_report",
    "tail_index",
    "arrival_report",
    "burstiness_index",
    "interarrival_cv",
    "decompose_throughput_variance",
    "eta_squared",
    "HARDWARE_SETUP_DELAY_S",
    "OSCARS_SETUP_DELAY_S",
    "SuitabilityResult",
    "suitability_table",
    "vc_suitability",
]
