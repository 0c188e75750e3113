"""Reference implementations the package's kernels are pinned against.

Test support, not package surface: each function is the original,
obviously-correct loop that a fast path in :mod:`repro.core`,
:mod:`repro.gridftp` or :mod:`repro.workload` replaced, kept so tests
(and the Ext-S bench) can demand bit-exact agreement.  The allocator's
two references run the other way: :func:`progressive_fill_reference`
is the NumPy kernel that the scalar filling loop replaced, and
:func:`component_closure` is the re-solve set the level-frontier bound
replaced.
"""

import io
import math
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
from repro.net.flows import _EPS
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


def progressive_fill_reference(
    flow_links: list[list[int]],
    demands: list[float],
    weights: list[float],
    caps: list[float],
) -> tuple[list[float], list[float]]:
    """:func:`~repro.net.flows._progressive_fill` over NumPy arrays.

    Same inputs, outputs and arithmetic in the same order: per-link
    weight sums and subtractions accumulate flow-major (``np.add.at``
    and ``np.subtract.at`` apply repeated indexes in order), and the
    freeze thresholds are the same relative slacks.  Each pass costs a
    fixed ~20 NumPy calls, which a large frontier amortizes.
    """
    n = len(flow_links)
    w = np.array(weights)
    d = np.array(demands)
    counts = np.array([len(row) for row in flow_links], dtype=np.intp)
    flat = np.fromiter(
        (k for row in flow_links for k in row), dtype=np.intp, count=int(counts.sum())
    )
    n_links = len(caps)
    caps0 = np.array(caps, dtype=float)
    remaining = caps0.copy()
    thresh = _EPS * np.maximum(caps0, 1.0)
    # relative demand slack, as in the scalar loop: at bps scale one
    # ulp dwarfs an absolute 1e-9, and a flow stranded one rounding
    # error below its demand must still freeze
    d_slack = _EPS * np.maximum(np.where(np.isfinite(d), d, 1.0), 1.0)

    rate = np.zeros(n)
    active = counts > 0
    # flows with no links are only demand-capped
    rate[~active] = d[~active]

    while active.any():
        idx = np.flatnonzero(active)
        cnt = counts[idx]
        flat_act = flat[np.repeat(active, counts)]
        offsets = np.zeros(idx.size, dtype=np.intp)
        np.cumsum(cnt[:-1], out=offsets[1:])
        # per-unit-weight headroom on each used link, flow-major sums
        link_weight = np.zeros(n_links)
        np.add.at(link_weight, flat_act, np.repeat(w[idx], cnt))
        link_inc = np.full(n_links, np.inf)
        used = link_weight > 0
        link_inc[used] = remaining[used] / link_weight[used]
        link_limited = np.minimum.reduceat(link_inc[flat_act], offsets)
        demand_room = (d[idx] - rate[idx]) / w[idx]
        inc = float(np.minimum(link_limited, demand_room).min())
        if not math.isfinite(inc):
            raise RuntimeError("unbounded allocation: flow without binding constraint")
        inc = max(inc, 0.0)

        delta = inc * w[idx]
        rate[idx] += delta
        np.subtract.at(remaining, flat_act, np.repeat(delta, cnt))
        np.maximum(remaining, 0.0, out=remaining)  # numerical dust

        # freeze flows at demand, or on a saturated link
        at_demand = rate[idx] >= d[idx] - d_slack[idx]
        saturated = np.minimum.reduceat((remaining - thresh)[flat_act], offsets) <= 0.0
        freeze = at_demand | saturated
        if not freeze.any():
            raise RuntimeError("progressive filling made no progress")
        clamp = idx[at_demand]
        rate[clamp] = np.minimum(rate[clamp], d[clamp])
        active[idx[freeze]] = False
    return rate.tolist(), remaining.tolist()


def component_closure(alloc) -> set[int]:
    """Every flow a pending :meth:`~repro.net.allocator.MaxMinAllocator.recompute`
    could move: the dirty flows and the flows on dirty links, closed
    transitively over shared links (read from ``_flows`` and
    ``_link_flows``).  Max-min rates decompose exactly across
    link-disjoint components, so re-solving this set is always correct;
    the level frontier the allocator re-solves is a subset of it.
    """
    stack = [fid for fid in alloc._dirty_flows if fid in alloc._flows]
    for key in alloc._dirty_links:
        stack.extend(alloc._link_flows.get(key, ()))
    closure: set[int] = set()
    while stack:
        fid = stack.pop()
        if fid not in closure:
            closure.add(fid)
            for key in alloc._flows[fid].links:
                stack.extend(alloc._link_flows[key])
    return closure
