"""VC suitability analysis: which sessions amortize circuit setup delay.

Implements the Table IV methodology (Section VI-A).  Actual session
durations are inflated by factors unrelated to the network (disk I/O,
server load), so the paper instead computes a *hypothetical* duration for
each session by dividing its total size by an optimistic rate — the third
quartile of per-transfer throughput over the whole dataset.  A session is
deemed suitable for a dynamic VC when the setup delay is at most one tenth
of that hypothetical duration.

Two setup-delay regimes from the paper are provided as constants: the
~1 minute of the production OSCARS IDC (batch signalling of advance
reservations) and the 50 ms floor of a hypothetical hardware-signalled
setup (one cross-country RTT).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..gridftp.records import TransferLog
from .sessions import SessionSet, group_sessions_at

__all__ = [
    "OSCARS_SETUP_DELAY_S",
    "HARDWARE_SETUP_DELAY_S",
    "AMORTIZATION_FACTOR",
    "SuitabilityResult",
    "vc_suitability",
    "suitability_table",
    "min_suitable_session_size",
]

#: VC setup delay of the production ESnet OSCARS deployment (Section IV).
OSCARS_SETUP_DELAY_S = 60.0

#: Optimistic hardware-signalled setup delay: one US round-trip (Section VI-A).
HARDWARE_SETUP_DELAY_S = 0.050

#: Setup delay must be <= duration / AMORTIZATION_FACTOR to be "worth it".
AMORTIZATION_FACTOR = 10.0


@dataclasses.dataclass(frozen=True, slots=True)
class SuitabilityResult:
    """Outcome of the suitability test for one (g, setup-delay) cell.

    ``percent_sessions`` and ``percent_transfers`` are the two numbers each
    Table IV cell reports (the latter in parentheses in the paper).
    """

    g: float
    setup_delay_s: float
    reference_throughput_bps: float
    n_sessions: int
    n_suitable_sessions: int
    n_transfers: int
    n_suitable_transfers: int

    @property
    def percent_sessions(self) -> float:
        if self.n_sessions == 0:
            return float("nan")
        return 100.0 * self.n_suitable_sessions / self.n_sessions

    @property
    def percent_transfers(self) -> float:
        if self.n_transfers == 0:
            return float("nan")
        return 100.0 * self.n_suitable_transfers / self.n_transfers


def _reference_throughput(log: TransferLog) -> float:
    """Third-quartile per-transfer throughput (bps) over the dataset.

    Zero-duration transfers carry no rate information and are excluded
    before taking the quantile.
    """
    tput = log.throughput_bps
    tput = tput[tput > 0.0]
    if tput.size == 0:
        raise ValueError("no transfers with positive duration in log")
    return float(np.percentile(tput, 75.0))


def vc_suitability(
    sessions: SessionSet,
    setup_delay_s: float,
    reference_throughput_bps: float | None = None,
    amortization_factor: float = AMORTIZATION_FACTOR,
) -> SuitabilityResult:
    """Evaluate the Table IV suitability test on a grouped session set.

    Parameters
    ----------
    sessions:
        Output of :func:`repro.core.sessions.group_sessions`.
    setup_delay_s:
        Assumed VC setup delay.
    reference_throughput_bps:
        Rate used to compute hypothetical durations.  Defaults to the
        third-quartile transfer throughput of the session set's source log
        (the paper's choice).
    amortization_factor:
        A session qualifies when ``hypothetical_duration >=
        amortization_factor * setup_delay_s`` (paper: 10).
    """
    if setup_delay_s < 0:
        raise ValueError("setup delay must be non-negative")
    if reference_throughput_bps is None:
        reference_throughput_bps = _reference_throughput(sessions.source)
    if reference_throughput_bps <= 0:
        raise ValueError("reference throughput must be positive")

    hypothetical_duration = sessions.total_size * 8.0 / reference_throughput_bps
    suitable = hypothetical_duration >= amortization_factor * setup_delay_s
    n_suitable_transfers = int(sessions.n_transfers[suitable].sum())
    return SuitabilityResult(
        g=sessions.g,
        setup_delay_s=setup_delay_s,
        reference_throughput_bps=reference_throughput_bps,
        n_sessions=len(sessions),
        n_suitable_sessions=int(np.count_nonzero(suitable)),
        n_transfers=int(sessions.n_transfers.sum()),
        n_suitable_transfers=n_suitable_transfers,
    )


def suitability_table(
    log: TransferLog,
    g_values: list[float] = (0.0, 60.0, 120.0),
    setup_delays: list[float] = (OSCARS_SETUP_DELAY_S, HARDWARE_SETUP_DELAY_S),
) -> dict[tuple[float, float], SuitabilityResult]:
    """Compute the full Table IV grid for one dataset.

    Returns a mapping ``(g, setup_delay) -> SuitabilityResult``.  The
    reference throughput is computed once from the log (it does not depend
    on ``g``), matching the paper's use of a single Q3 value per dataset.
    """
    ref = _reference_throughput(log)
    out: dict[tuple[float, float], SuitabilityResult] = {}
    for g, sessions in zip(g_values, group_sessions_at(log, g_values)):
        for delay in setup_delays:
            out[(g, delay)] = vc_suitability(
                sessions, delay, reference_throughput_bps=ref
            )
    return out


def min_suitable_session_size(
    setup_delay_s: float,
    reference_throughput_bps: float,
    amortization_factor: float = AMORTIZATION_FACTOR,
) -> float:
    """Smallest session size (bytes) that passes the suitability test.

    The paper notes that at a 50 ms setup delay and the NCAR reference rate
    of 682.2 Mbps, sessions of 42 MB or larger qualify; this function is
    that arithmetic.
    """
    return amortization_factor * setup_delay_s * reference_throughput_bps / 8.0
