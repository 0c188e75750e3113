"""Session grouping: the paper's central analytical construct.

A *transfer* is one file (one log row); a *session* is a maximal run of
transfers between the same two GridFTP servers where the gap between the
end of one transfer and the start of the next never exceeds a configurable
parameter ``g`` (Section V).  Gaps may be negative — scripts start several
transfers concurrently — and such overlapping transfers always belong to
the same session.

A virtual circuit, once set up, serves every transfer in a session, so
session (not transfer) duration is what must amortize VC setup delay.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from ..gridftp.records import ANONYMIZED_HOST, TransferLog
from .stats import SixNumberSummary, six_number_summary
from .streaming import PairScan, StreamingSessionizer, pair_scan

__all__ = [
    "SessionSet",
    "group_sessions",
    "group_sessions_at",
    "sessionize_chunks",
    "session_gap_report",
    "GapReportRow",
]


@dataclasses.dataclass(frozen=True)
class SessionSet:
    """Column-oriented result of grouping a transfer log into sessions.

    All arrays have one entry per session.  ``transfer_session`` maps each
    transfer of the *time-sorted* source log to its session id, enabling
    transfer-weighted statistics (Table IV reports both percent-of-sessions
    and percent-of-transfers).
    """

    #: gap parameter used for the grouping, in seconds
    g: float
    #: first transfer start per session (s since epoch)
    start: np.ndarray
    #: wall-clock session duration: max transfer end - min transfer start (s)
    duration: np.ndarray
    #: total bytes over the session's transfers
    total_size: np.ndarray
    #: number of transfers in the session
    n_transfers: np.ndarray
    #: (local, remote) host pair per session
    local_host: np.ndarray
    remote_host: np.ndarray
    #: session id per transfer of the sorted source log
    transfer_session: np.ndarray
    #: the time-sorted source log the grouping was computed over
    source: TransferLog

    def __len__(self) -> int:
        return int(self.start.size)

    @property
    def n_single(self) -> int:
        """Number of single-transfer sessions (Table III column)."""
        return int(np.count_nonzero(self.n_transfers == 1))

    @property
    def n_multi(self) -> int:
        """Number of multi-transfer sessions (Table III column)."""
        return int(np.count_nonzero(self.n_transfers > 1))

    @property
    def effective_throughput_bps(self) -> np.ndarray:
        """Per-session effective rate: total bytes * 8 / wall duration.

        Sessions whose transfers all have zero logged duration report 0.
        """
        out = np.zeros_like(self.duration)
        np.divide(self.total_size * 8.0, self.duration, out=out, where=self.duration > 0)
        return out

    def size_summary(self) -> SixNumberSummary:
        """Six-number summary of session sizes in bytes (Tables I/II, top block)."""
        return six_number_summary(self.total_size)

    def duration_summary(self) -> SixNumberSummary:
        """Six-number summary of session durations in seconds (Tables I/II)."""
        return six_number_summary(self.duration)

    def percent_with_at_most_transfers(self, k: int) -> float:
        """Percent of sessions having <= k transfers (Table III's '1 or 2' column)."""
        if len(self) == 0:
            return float("nan")
        return 100.0 * np.count_nonzero(self.n_transfers <= k) / len(self)

    def max_transfers(self) -> int:
        """Highest number of transfers observed in any session (Table III)."""
        return int(self.n_transfers.max()) if len(self) else 0

    def count_with_at_least_transfers(self, k: int) -> int:
        """Number of sessions with >= k transfers (Table III's '>= 100' column)."""
        return int(np.count_nonzero(self.n_transfers >= k))


def _empty_session_set(g: float, slog: TransferLog) -> SessionSet:
    z = np.zeros(0)
    zi = np.zeros(0, dtype=np.int64)
    return SessionSet(
        g=g, start=z, duration=z.copy(), total_size=z.copy(),
        n_transfers=zi, local_host=zi.copy(), remote_host=zi.copy(),
        transfer_session=zi.copy(), source=slog,
    )


def _validate_groupable(log: TransferLog, *g_values: float) -> None:
    for g in g_values:
        if not g >= 0:  # refuses NaN too
            raise ValueError(f"gap parameter g must be >= 0, got {g}")
    if len(log) and log.is_anonymized:
        raise ValueError(
            "cannot group an anonymized log into sessions: remote endpoints "
            "are scrubbed (the NERSC situation in Section V of the paper)"
        )
    if len(log) and np.any(log.remote_host == ANONYMIZED_HOST):
        raise ValueError("log mixes anonymized and identified remote hosts")


def group_sessions_at(log: TransferLog, g_values: Sequence[float]) -> list[SessionSet]:
    """Group ``log`` into sessions once per gap in ``g_values`` (seconds).

    The sort by start, the stable (pair, start) sort and each transfer's
    gap to its pair's running max end (:func:`~repro.core.streaming.pair_scan`)
    do not depend on ``g`` and run once; each ``g`` then costs one
    comparison and a few O(n) folds.  Item *i* equals
    ``group_sessions(log, g_values[i])``.
    """
    _validate_groupable(log, *g_values)
    slog = log.sorted_by_start()
    if len(slog) == 0:
        return [_empty_session_set(g, slog) for g in g_values]
    scan = pair_scan(slog)
    gap = scan.start - scan.prev_end
    return [_sessions_at(slog, scan, gap, g) for g in g_values]


def _sessions_at(
    slog: TransferLog, scan: PairScan, gap: np.ndarray, g: float
) -> SessionSet:
    # session ids in scan order already are the one-shot ids: ascending
    # pair key, then time within the pair
    heads = scan.head | (gap > g)
    sid = np.cumsum(heads) - 1
    first = np.flatnonzero(heads)
    # np.add.at folds each session's sizes in time order, as the per-pair
    # reference loop does; a pairwise np.add.reduceat would not
    total_size = np.zeros(first.size)
    np.add.at(total_size, sid, scan.size)
    max_end = np.full(first.size, -np.inf)
    np.maximum.at(max_end, sid, scan.end)
    start = scan.start[first]
    transfer_session = np.empty(sid.size, dtype=np.int64)
    transfer_session[scan.order] = sid
    first_row = scan.order[first]
    return SessionSet(
        g=float(g),
        start=start,
        duration=max_end - start,
        total_size=total_size,
        n_transfers=np.diff(first, append=sid.size),
        local_host=slog.local_host[first_row].astype(np.int64),
        remote_host=slog.remote_host[first_row].astype(np.int64),
        transfer_session=transfer_session,
        source=slog,
    )


def group_sessions(log: TransferLog, g: float) -> SessionSet:
    """Group ``log`` into sessions with gap parameter ``g`` (seconds).

    Transfers between *different* host pairs never share a session.  The
    log must carry remote-host information; grouping an anonymized log
    raises ``ValueError`` — exactly the limitation that prevented session
    analysis of the NERSC datasets in the paper (Section V).

    One :func:`group_sessions_at` call; the per-pair Python loop it
    replaced is kept in the test suite as the bit-exact oracle.
    """
    return group_sessions_at(log, [g])[0]


def sessionize_chunks(chunks, g: float) -> SessionSet:
    """Collect a chunked stream into the same :class:`SessionSet` the
    one-shot grouper returns.

    ``chunks`` is an iterable of time-ordered :class:`TransferLog` chunks
    (the streaming chunk contract; see :mod:`repro.core.streaming`).
    The result is byte-identical to ``group_sessions`` on the
    concatenated log, for *any* chunk split.  The chunks are kept and
    concatenated, so use :class:`~repro.core.streaming.StreamAnalysis`
    instead when bounded memory matters (a SessionSet is inherently
    O(sessions + transfers)).
    """
    szr = StreamingSessionizer(g)
    kept: list[TransferLog] = []
    cl_start, cl_dur, cl_total, cl_count = [], [], [], []
    cl_local, cl_remote, cl_pk, cl_seq = [], [], [], []
    t_pk, t_seq = [], []
    for chunk in chunks:
        upd = szr.update(chunk)
        if len(upd.closed):
            c = upd.closed
            cl_start.append(c.start)
            cl_dur.append(c.duration)
            cl_total.append(c.total_size)
            cl_count.append(c.n_transfers)
            cl_local.append(c.local_host)
            cl_remote.append(c.remote_host)
            cl_pk.append(c.pair_key)
            cl_seq.append(c.seq)
        t_pk.append(upd.transfer_pair_key)
        t_seq.append(upd.transfer_seq)
        if len(chunk):
            kept.append(chunk)
    final = szr.finalize()
    if len(final):
        cl_start.append(final.start)
        cl_dur.append(final.duration)
        cl_total.append(final.total_size)
        cl_count.append(final.n_transfers)
        cl_local.append(final.local_host)
        cl_remote.append(final.remote_host)
        cl_pk.append(final.pair_key)
        cl_seq.append(final.seq)

    source = TransferLog.concatenate(kept)
    if not cl_pk:
        return _empty_session_set(g, source)

    pk_all = np.concatenate(cl_pk)
    seq_all = np.concatenate(cl_seq)
    # one-shot ids are ordered by (ascending pair key, time within pair)
    order = np.lexsort((seq_all, pk_all))

    # map each transfer's (pair, seq) label to its final session id via
    # a dense composite key (ids are lexsorted, so keys are ascending)
    upk, pk_rank = np.unique(pk_all, return_inverse=True)
    span = int(seq_all.max()) + 1
    ses_key_sorted = (pk_rank * span + seq_all)[order]
    t_pk_all = np.concatenate(t_pk) if t_pk else np.zeros(0, dtype=np.int64)
    t_seq_all = np.concatenate(t_seq) if t_seq else np.zeros(0, dtype=np.int64)
    t_rank = np.searchsorted(upk, t_pk_all)
    transfer_session = np.searchsorted(ses_key_sorted, t_rank * span + t_seq_all)

    return SessionSet(
        g=float(g),
        start=np.concatenate(cl_start)[order],
        duration=np.concatenate(cl_dur)[order],
        total_size=np.concatenate(cl_total)[order],
        n_transfers=np.concatenate(cl_count)[order],
        local_host=np.concatenate(cl_local)[order],
        remote_host=np.concatenate(cl_remote)[order],
        transfer_session=transfer_session,
        source=source,
    )


@dataclasses.dataclass(frozen=True, slots=True)
class GapReportRow:
    """One row of Table III: session structure under one ``g`` value."""

    g: float
    n_single: int
    n_multi: int
    percent_1_or_2: float
    max_transfers_in_session: int
    n_sessions_100_plus: int

    @property
    def n_sessions(self) -> int:
        return self.n_single + self.n_multi


def session_gap_report(log: TransferLog, g_values: list[float]) -> list[GapReportRow]:
    """Compute Table III ("Impact of the g parameter") for ``log``.

    One row per ``g`` value, reporting single/multi-transfer session counts,
    the percentage of sessions with one or two transfers, the largest
    session, and the number of sessions with at least 100 transfers.
    """
    return [
        GapReportRow(
            g=g,
            n_single=s.n_single,
            n_multi=s.n_multi,
            percent_1_or_2=s.percent_with_at_most_transfers(2),
            max_transfers_in_session=s.max_transfers(),
            n_sessions_100_plus=s.count_with_at_least_transfers(100),
        )
        for g, s in zip(g_values, group_sessions_at(log, g_values))
    ]
