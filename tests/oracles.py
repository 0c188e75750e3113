"""Reference implementations the vectorized kernels are pinned against.

Test support, not package surface: each function is the original,
obviously-correct loop that a fast path in :mod:`repro.core`,
:mod:`repro.gridftp` or :mod:`repro.workload` replaced, kept so tests
(and the Ext-S bench) can demand bit-exact agreement.
"""

import io
import os

import numpy as np

from repro.core.sessions import (
    SessionSet,
    _empty_session_set,
    _validate_groupable,
)
from repro.core.stats import BinnedMedians, _bin_ids, _medians_by_group_loop
from repro.gridftp.logfmt import _USAGE_COLUMNS
from repro.gridftp.records import TransferLog, TransferType
from repro.workload.distributions import LogNormal
from repro.workload.synth import _SessionDraft, vector_transfer_duration


def _group_one_pair(start: np.ndarray, end: np.ndarray, g: float) -> np.ndarray:
    """Session ids (0-based, in time order) for one host pair.

    ``start``/``end`` must already be sorted by ``start``.  A new session
    begins at transfer *i* when ``start[i] - max(end[0..i-1]) > g``.  The
    running max handles overlapping transfers: a long transfer keeps the
    session open across later short ones.
    """
    n = start.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    # prev_max_end[i] = max(end[0..i-1]); prev_max_end[0] unused
    cummax_end = np.maximum.accumulate(end)
    gaps = np.empty(n, dtype=np.float64)
    gaps[0] = -np.inf
    gaps[1:] = start[1:] - cummax_end[:-1]
    breaks = gaps > g
    return np.cumsum(breaks).astype(np.int64)


def group_sessions_reference(log: TransferLog, g: float) -> SessionSet:
    """The original per-pair-loop grouper, the bit-exact oracle.

    O(unique pairs) Python iterations with a full-log scan each — correct
    and simple, but quadratic-ish on many-pair logs.  Tests pin
    :func:`repro.core.sessions.group_sessions` (the vectorized fast path)
    against this.
    """
    _validate_groupable(log, g)
    slog = log.sorted_by_start()
    n = len(slog)
    if n == 0:
        return _empty_session_set(g, slog)

    # Partition the sorted log by host pair; group each pair independently,
    # then assign globally unique session ids.
    pair_key = slog.local_host.astype(np.int64) * (2**32) + (
        slog.remote_host.astype(np.int64) + 2**31
    )
    session_of = np.empty(n, dtype=np.int64)
    next_id = 0
    for key in np.unique(pair_key):
        idx = np.flatnonzero(pair_key == key)
        local_ids = _group_one_pair(slog.start[idx], slog.end[idx], g)
        session_of[idx] = local_ids + next_id
        next_id += int(local_ids[-1]) + 1

    n_sessions = next_id
    starts = np.full(n_sessions, np.inf)
    ends = np.full(n_sessions, -np.inf)
    np.minimum.at(starts, session_of, slog.start)
    np.maximum.at(ends, session_of, slog.end)
    total_size = np.zeros(n_sessions)
    np.add.at(total_size, session_of, slog.size)
    counts = np.bincount(session_of, minlength=n_sessions).astype(np.int64)
    lhost = np.zeros(n_sessions, dtype=np.int64)
    rhost = np.zeros(n_sessions, dtype=np.int64)
    lhost[session_of] = slog.local_host
    rhost[session_of] = slog.remote_host

    return SessionSet(
        g=g,
        start=starts,
        duration=ends - starts,
        total_size=total_size,
        n_transfers=counts,
        local_host=lhost,
        remote_host=rhost,
        transfer_session=session_of,
        source=slog,
    )


def binned_medians_reference(x, y, bin_width, x_min=0.0, x_max=None) -> BinnedMedians:
    """Per-group ``np.median`` loop: the oracle
    :func:`repro.core.stats.binned_medians` is pinned against."""
    ids, y, x_min, empty = _bin_ids(x, y, bin_width, x_min, x_max)
    if empty is not None:
        return empty
    return _medians_by_group_loop(ids, y, x_min, bin_width)


def read_usage_log_reference(path: str | os.PathLike | io.TextIOBase) -> TransferLog:
    """The original per-row usage-log reader: the oracle
    :func:`repro.gridftp.logfmt.read_usage_log` is pinned against.

    Splits every data row and appends ten Python scalars one by one.
    """
    if isinstance(path, io.TextIOBase):
        lines = path.read().splitlines()
    else:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    rows = [ln.split() for ln in lines if ln.strip() and not ln.startswith("#")]
    cols: dict[str, list] = {name: [] for name in _USAGE_COLUMNS}
    for lineno, parts in enumerate(rows, start=1):
        if len(parts) != len(_USAGE_COLUMNS):
            raise ValueError(
                f"malformed usage-log row {lineno}: expected "
                f"{len(_USAGE_COLUMNS)} fields, got {len(parts)}"
            )
        cols["start"].append(float(parts[0]))
        cols["duration"].append(float(parts[1]))
        cols["size"].append(float(parts[2]))
        cols["transfer_type"].append(int(TransferType.parse(parts[3])))
        cols["streams"].append(int(parts[4]))
        cols["stripes"].append(int(parts[5]))
        cols["tcp_buffer"].append(int(parts[6]))
        cols["block_size"].append(int(parts[7]))
        cols["local_host"].append(int(parts[8]))
        cols["remote_host"].append(int(parts[9]))
    return TransferLog(cols)


def place_sessions_reference(
    drafts: list[_SessionDraft],
    rng: np.random.Generator,
    t0: float,
    rtt_s: float,
    overlap_fraction: float,
    inter_gap: LogNormal,
    chain_gap_count: int = 0,
) -> TransferLog:
    """The original per-session placement: the oracle
    :func:`repro.workload.synth._place_sessions` is pinned against.

    Runs the duration model and fills every column once per session,
    then concatenates the sessions in pair order and sorts the log by
    start.
    """
    by_pair: dict[tuple[int, int], list[int]] = {}
    for k, d in enumerate(drafts):
        by_pair.setdefault((d.local_host, d.remote_host), []).append(k)

    n_adjacent = sum(max(len(v) - 1, 0) for v in by_pair.values())
    chain_flags = np.zeros(n_adjacent, dtype=bool)
    if chain_gap_count > 0 and n_adjacent > 0:
        pick = rng.choice(n_adjacent, size=min(chain_gap_count, n_adjacent), replace=False)
        chain_flags[pick] = True

    cols: dict[str, list[np.ndarray]] = {
        name: [] for name in ("start", "duration", "size", "streams", "stripes",
                              "local_host", "remote_host")
    }
    adj_cursor = 0
    for idxs in by_pair.values():
        t = t0 + float(rng.uniform(0.0, 3600.0))
        for j, k in enumerate(idxs):
            d = drafts[k]
            n = d.sizes.size
            durations = vector_transfer_duration(
                d.sizes,
                np.full(n, d.streams * d.stripes),
                d.steady_bps,
                rtt_s,
                ssthresh_bytes=None if d.pure_slow_start else 1.2e6,
            )
            ovl = overlap_fraction if d.overlap_override is None else d.overlap_override
            gaps = np.where(
                rng.random(n - 1) < ovl,
                -rng.uniform(0.1, 0.9, n - 1) * durations[:-1],
                rng.uniform(0.3, d.max_gap_s, n - 1),
            ) if n > 1 else np.zeros(0)
            starts = np.empty(n)
            starts[0] = t
            if n > 1:
                starts[1:] = t + np.cumsum(durations[:-1] + gaps)
            starts = np.maximum.accumulate(starts)
            cols["start"].append(starts)
            cols["duration"].append(durations)
            cols["size"].append(d.sizes)
            for name in ("streams", "stripes", "local_host", "remote_host"):
                cols[name].append(np.full(n, getattr(d, name), dtype=np.int32))
            session_end = float(np.max(starts + durations))
            if j < len(idxs) - 1:
                if chain_flags[adj_cursor]:
                    gap = float(rng.uniform(61.0, 119.0))
                else:
                    gap = max(float(inter_gap.sample(rng, 1)[0]), 121.0)
                adj_cursor += 1
                t = session_end + gap

    return TransferLog(
        {name: np.concatenate(parts) for name, parts in cols.items()}
    ).sorted_by_start()
