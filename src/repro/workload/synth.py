"""Calibrated synthetic generators for the paper's four datasets.

The real inputs — GridFTP usage logs from NERSC, SLAC and NCAR — are
proprietary.  Each generator here produces a transfer log whose *logged
fields* carry the same statistical structure the paper reports, so every
analysis in :mod:`repro.core` exercises the same regime:

* :func:`ncar_nics` — 52,454 transfers, 2009--2011, striped (Tables I,
  III, IV, VII--IX); ~211 sessions at g = 1 min; Q3 transfer throughput
  near 682 Mbps; 4--5 GB and 16--17 GB slices dominating the top-5%.
* :func:`slac_bnl` — 1,021,999 transfers, Feb--Apr 2012, single-stripe,
  84.6% multi-stream (Tables II--IV, Figs. 2--5); ~10,199 sessions at
  g = 1 min with the 12 TB monster; the Apr-2 2--3 AM fast burst and the
  302 MB spike bin planted as in the paper.
* :func:`nersc_ornl_32gb` — 145 test transfers of ~32 GB (Table V,
  Fig. 6): all 8-stream single-stripe, starting at 2 AM / 8 AM, IQR near
  695 Mbps.
* :func:`nersc_anl_tests` — 334 test transfers in four endpoint
  categories (Table VI, Figs. 1, 7, 8) with built-in server-contention
  coupling so Eq. (2) finds a weak positive correlation.

Throughput is produced by the same slow-start model the mechanistic
simulator uses (:mod:`repro.net.tcp`), vectorized here for the million-row
dataset; a property test pins the two implementations together.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.rng import derive_seed
from ..core.stripes import epoch_of_year
from ..gridftp.records import TransferLog, TransferLogBuilder, TransferType
from .distributions import LogNormal, TruncatedLogNormal, split_total

__all__ = [
    "vector_transfer_duration",
    "ncar_nics",
    "slac_bnl",
    "nersc_ornl_32gb",
    "nersc_anl_tests",
    "AnlTestSet",
    "generate",
    "generate_stream",
    "stream_block_counts",
    "GENERATORS",
    "STREAMABLE_DATASETS",
    "STREAM_BLOCK_TRANSFERS",
    "NCAR_NICS_N_TRANSFERS",
    "SLAC_BNL_N_TRANSFERS",
]

#: Transfer counts of the paper's datasets (Section VI-A).
NCAR_NICS_N_TRANSFERS = 52_454
SLAC_BNL_N_TRANSFERS = 1_021_999

#: the fewest sessions, burst and spike transfers slac_bnl plants at any
#: scale; each session holds at least one transfer, so their sum is the
#: smallest log it can build
_SLAC_MIN_SESSIONS, _SLAC_MIN_BURST, _SLAC_MIN_SPIKE = 4, 2, 2
_SLAC_MIN_TRANSFERS = _SLAC_MIN_SESSIONS + _SLAC_MIN_BURST + _SLAC_MIN_SPIKE

_MSS = 1460  # bytes

# Host ids: sites use the esnet_like() ordering (NERSC=0 ... BNL=6);
# per-site DTN instances get derived ids in disjoint ranges.
_NERSC, _ANL, _ORNL, _NCAR, _NICS, _SLAC, _BNL = range(7)


def vector_transfer_duration(
    size_bytes: np.ndarray,
    n_conn: np.ndarray,
    steady_bps: np.ndarray,
    rtt_s: float,
    mss_bytes: int = _MSS,
    ssthresh_bytes: float | None = 1.2e6,
) -> np.ndarray:
    """Vectorized twin of :meth:`repro.net.tcp.TcpPathModel.transfer_duration_s`.

    ``n_conn`` is the total parallel TCP connection count (streams x
    stripes).  All array arguments broadcast together, ``ssthresh_bytes``
    included: ``None``, or an infinite entry, means pure slow start up to
    the steady rate.  The three window phases (slow start to the
    per-stream ssthresh, linear congestion avoidance to the steady rate,
    constant rate) match the scalar model; a property test pins the two
    implementations together.  The generators call this once over every
    file of a generation block, so arrays the later phases do not read
    are freed early.
    """
    size = np.asarray(size_bytes, dtype=np.float64)
    n = np.asarray(n_conn, dtype=np.float64)
    s = np.asarray(steady_bps, dtype=np.float64)
    if np.any(s <= 0):
        raise ValueError("steady rates must be positive")
    size, n, s = np.broadcast_arrays(size, n, s)

    r0 = (
        np.minimum(s, n * ssthresh_bytes * 8.0 / rtt_s)
        if ssthresh_bytes is not None
        else s.copy()
    )
    ratio = np.maximum(r0 / (n * mss_bytes * 8.0 / rtt_s), 1.0)
    t1 = np.log2(ratio) * rtt_s
    ramp_bytes = n * mss_bytes * (ratio - 1.0)
    del ratio
    # phase 1 only: transfer ends inside slow start
    in_ramp = size < ramp_bytes

    # phase 2: linear window growth from r0 to the steady rate
    a = n * mss_bytes * 8.0 / rtt_s**2
    t2_full = (s - r0) / a
    b2_full = (r0 + s) / 2.0 * t2_full / 8.0
    left1 = np.maximum(size - ramp_bytes, 0.0)
    del ramp_bytes
    in_linear = left1 <= b2_full
    inside_linear = (
        t1 + (-r0 + np.sqrt(r0**2 + 16.0 * a * np.minimum(left1, b2_full))) / a
    )

    # phase 3: steady state
    left2 = np.maximum(left1 - b2_full, 0.0)
    out = np.where(in_linear, inside_linear, t1 + t2_full + left2 * 8.0 / s)
    np.copyto(out, np.log2(size / (n * mss_bytes) + 1.0) * rtt_s, where=in_ramp)
    return out


# --------------------------------------------------------------------------
# shared assembly helpers
# --------------------------------------------------------------------------


@dataclasses.dataclass
class _SessionDraft:
    """One synthetic session before time placement."""

    sizes: np.ndarray  # per-file bytes
    streams: int
    stripes: int
    steady_bps: np.ndarray  # per-file steady rate
    local_host: int
    remote_host: int
    #: upper bound of the positive inter-transfer pause; large sessions use
    #: tight pacing (automated scripts), keeping their wall time realistic
    max_gap_s: float = 55.0
    #: per-session override of the dataset's overlap fraction (None = default)
    overlap_override: float | None = None
    #: True for sessions with hot/reused data channels: windows ramp in pure
    #: slow start with no congestion-avoidance cap, so short files can still
    #: reach multi-Gbps (the paper's 2.56 Gbps peak on a 398 MB transfer)
    pure_slow_start: bool = False


def _place_sessions(
    drafts: list[_SessionDraft],
    rng: np.random.Generator,
    t0: float,
    rtt_s: float,
    overlap_fraction: float,
    inter_gap: LogNormal,
    chain_gap_count: int = 0,
) -> TransferLog:
    """Lay sessions out in time and emit the final log.

    Per (local, remote) pair, sessions are placed sequentially with
    inter-session gaps drawn from ``inter_gap`` (floored at 121 s so they
    never merge at g = 2 min), except for ``chain_gap_count`` randomly
    chosen adjacent pairs whose gap is drawn from (61, 119) s — those merge
    at g = 2 min but not at g = 1 min, producing Table III's g-dependence.
    Within a session, a fraction ``overlap_fraction`` of inter-transfer
    gaps is negative (concurrent starts); the rest are short positive
    pauses (< 55 s), so g = 1 min keeps the session whole while g = 0
    fragments it.

    Only the seeded draws, and the start arithmetic that chains one
    session's end to the next session's start, run per session.  The
    duration model runs once over every file in placement order (pair by
    pair), and each column is gathered once, straight into start order.
    """
    by_pair: dict[tuple[int, int], list[int]] = {}
    for k, d in enumerate(drafts):
        by_pair.setdefault((d.local_host, d.remote_host), []).append(k)

    n_adjacent = sum(max(len(v) - 1, 0) for v in by_pair.values())
    chain_flags = np.zeros(n_adjacent, dtype=bool)
    if chain_gap_count > 0 and n_adjacent > 0:
        pick = rng.choice(n_adjacent, size=min(chain_gap_count, n_adjacent), replace=False)
        chain_flags[pick] = True

    placed = [drafts[k] for idxs in by_pair.values() for k in idxs]
    counts = np.array([d.sizes.size for d in placed], dtype=np.int64)
    sizes = np.concatenate([d.sizes for d in placed])
    durations = vector_transfer_duration(
        sizes,
        np.repeat([float(d.streams * d.stripes) for d in placed], counts),
        np.concatenate([d.steady_bps for d in placed]),
        rtt_s,
        # an infinite ssthresh never caps slow start: pure slow start
        ssthresh_bytes=np.repeat(
            [np.inf if d.pure_slow_start else 1.2e6 for d in placed], counts
        ),
    )

    starts = np.empty(sizes.size)
    lo = 0
    adj_cursor = 0
    for idxs in by_pair.values():
        t = t0 + float(rng.uniform(0.0, 3600.0))
        for j, k in enumerate(idxs):
            d = drafts[k]
            n = d.sizes.size
            dur = durations[lo:lo + n]
            s = starts[lo:lo + n]
            s[0] = t
            if n > 1:
                ovl = overlap_fraction if d.overlap_override is None else d.overlap_override
                gaps = np.where(
                    rng.random(n - 1) < ovl,
                    -rng.uniform(0.1, 0.9, n - 1) * dur[:-1],
                    rng.uniform(0.3, d.max_gap_s, n - 1),
                )
                # an overlap takes back at most 90% of the previous
                # duration, so starts never decrease within a session
                s[1:] = t + np.cumsum(dur[:-1] + gaps)
            session_end = float((s + dur).max())
            lo += n
            if j < len(idxs) - 1:
                if chain_flags[adj_cursor]:
                    gap = float(rng.uniform(61.0, 119.0))
                else:
                    gap = max(float(inter_gap.sample(rng, 1)[0]), 121.0)
                adj_cursor += 1
                t = session_end + gap

    order = np.argsort(starts, kind="stable")
    session = np.repeat(np.arange(len(placed)), counts)[order]
    columns = {"start": starts[order], "duration": durations[order], "size": sizes[order]}
    for name in ("streams", "stripes", "local_host", "remote_host"):
        columns[name] = np.array([getattr(d, name) for d in placed], dtype=np.int32)[session]
    return TransferLog(columns)


def _adjust_counts(counts: np.ndarray, target_total: int, cap: int) -> np.ndarray:
    """Nudge integer session counts so they sum exactly to ``target_total``."""
    counts = counts.copy()
    diff = target_total - int(counts.sum())
    order = np.argsort(counts)[::-1]
    # spread the correction over the largest sessions proportionally, so a
    # single session is not inflated into an artificial outlier
    chunk = max(1, abs(diff) // max(min(order.size, 40), 1))
    i = 0
    while diff != 0 and counts.size:
        j = order[i % order.size]
        if diff > 0 and counts[j] < cap:
            step = min(diff, chunk, cap - int(counts[j]))
            counts[j] += step
            diff -= step
        elif diff < 0 and counts[j] > 1:
            step = min(-diff, chunk, int(counts[j]) - 1)
            counts[j] -= step
            diff += step
        i += 1
        if i > 1000 * order.size:
            raise RuntimeError("cannot reach target transfer count")
    return counts


# --------------------------------------------------------------------------
# NCAR--NICS
# --------------------------------------------------------------------------


def ncar_nics(
    seed: int = 2009, n_transfers: int = NCAR_NICS_N_TRANSFERS
) -> TransferLog:
    """The NCAR--NICS dataset: 52,454 striped transfers over 2009--2011.

    Calibration targets (paper values in parentheses):

    * ~211 sessions at g = 1 min, with ~57% of sessions / ~90% of
      transfers VC-suitable at a 1-minute setup delay (56.87% / 90.54%);
    * Q3 transfer throughput near 682 Mbps; maximum near 4.23 Gbps;
    * one 19,450-transfer monster session;
    * [4, 5) GB and [16, 17) GB files dominating the top-5% sizes
      (Tables VII--IX), with stripe counts drifting 3 -> 2 -> 1 over the
      years as the ``frost`` cluster shrank.
    """
    if n_transfers < 500:
        raise ValueError(
            "ncar_nics needs n_transfers >= 500: the session-class structure "
            "(monster session, 16G/4G slices) cannot be scaled below that"
        )
    rng = np.random.default_rng(seed)
    scale = n_transfers / NCAR_NICS_N_TRANSFERS
    n_tiny = max(int(round(15 * scale)), 1)
    n_mid = max(int(round(76 * scale)), 1)
    n_big = max(int(round(120 * scale)), 1)

    year_probs = {2009: 0.25, 2010: 0.40, 2011: 0.35}
    years = rng.choice(
        list(year_probs), size=n_tiny + n_mid + n_big, p=list(year_probs.values())
    )

    def stripes_for(year: int) -> int:
        r = rng.random()
        if year == 2009:
            return 3 if r < 0.5 else 1
        if year == 2010:
            return 2 if r < 0.8 else 1
        return 1 if r < 0.9 else 2

    # transfer counts per class
    tiny_counts = rng.integers(1, 3, size=n_tiny)
    mid_counts = np.clip(
        np.round(LogNormal(50, 0.9).sample(rng, n_mid)), 3, 300
    ).astype(np.int64)
    monster = int(19_450 * scale) if scale < 1 else 19_450
    remaining = (
        n_transfers - int(tiny_counts.sum()) - int(mid_counts.sum()) - monster
    )
    raw = LogNormal(175, 0.9).sample(rng, max(n_big - 1, 1))
    # scale multiplicatively so the draw sums to the remaining budget,
    # preserving the distribution's shape instead of trimming its top
    raw *= remaining / raw.sum()
    big_counts = np.concatenate(
        [[monster], np.clip(np.round(raw), 40, 20_000)]
    ).astype(np.int64)
    big_counts = _adjust_counts(big_counts, remaining + monster, cap=30_000)

    per_server = LogNormal(340e6, 0.6)  # per-stripe steady rate, bps

    drafts: list[_SessionDraft] = []
    all_counts = np.concatenate([tiny_counts, mid_counts, big_counts])
    classes = ["tiny"] * n_tiny + ["mid"] * n_mid + ["big"] * n_big
    monster_index = n_tiny + n_mid  # big_counts[0] is the 19,450-transfer session
    for k, (cnt, cls) in enumerate(zip(all_counts, classes)):
        cnt = int(cnt)
        year = int(years[k])
        stripes = stripes_for(year)
        max_gap = 55.0
        if cls == "tiny":
            sizes = rng.uniform(1e6, 20e6, size=cnt)
        elif cls == "mid":
            sizes = TruncatedLogNormal(LogNormal(60e6, 1.2), 1e5, 2e9).sample(rng, cnt)
        elif k == monster_index:
            # the 19,450-transfer session moved ~2.4 TB in ~13.5 h: small
            # files, machine-paced, heavily overlapped
            sizes = TruncatedLogNormal(LogNormal(90e6, 0.9), 1e5, 1e9).sample(rng, cnt)
            max_gap = 1.5
        else:
            sizes = TruncatedLogNormal(LogNormal(130e6, 1.5), 1e5, 3.9e9).sample(rng, cnt)
            r = rng.random(cnt)
            sizes[r < 0.08] = rng.uniform(4e9, 5e9, size=int((r < 0.08).sum()))
            mask16 = (r >= 0.08) & (r < 0.12)
            sizes[mask16] = rng.uniform(16e9, 17e9, size=int(mask16.sum()))
            if cnt > 500:
                max_gap = 6.0
        steady = np.clip(
            stripes * per_server.sample(rng, cnt), 1e5, 4.4e9
        )
        drafts.append(
            _SessionDraft(
                sizes=sizes,
                streams=4,
                stripes=stripes,
                steady_bps=steady,
                local_host=_NCAR * 100 + rng.integers(0, 3),
                remote_host=1000 + _NICS * 100 + rng.integers(0, 2),
                max_gap_s=max_gap,
            )
        )

    # timestamp sessions inside their year (so Table VIII grouping works)
    order = rng.permutation(len(drafts))
    year_logs = []
    for year in (2009, 2010, 2011):
        year_drafts = [drafts[i] for i in order if int(years[i]) == year]
        if not year_drafts:
            continue
        year_logs.append(
            _place_sessions(
                year_drafts,
                rng,
                t0=epoch_of_year(year) + 86_400.0,
                rtt_s=0.038,
                overlap_fraction=0.30,
                inter_gap=LogNormal(3.0 * 3600.0, 1.2),
                chain_gap_count=int(round(10 * scale)),
            )
        )
    return TransferLog.concatenate(year_logs).sorted_by_start()


# --------------------------------------------------------------------------
# SLAC--BNL
# --------------------------------------------------------------------------


def slac_bnl(seed: int = 2012, n_transfers: int = SLAC_BNL_N_TRANSFERS) -> TransferLog:
    """The SLAC--BNL dataset: ~1.02 M single-stripe transfers, Feb--Apr 2012.

    Calibration targets: ~10,199 sessions at g = 1 min (session sizes
    lognormal, median ~1.1 GB, mean ~24 GB, max 12 TB); 84.6% of transfers
    with 8 streams; throughput capped at 2.56 Gbps; the Apr-2 2--3 AM
    burst of ~1,891 fast 398 MB transfers; the 588-transfer 302 MB spike
    bin of Fig. 3; and the Fig. 4 throughput dip for 2.2--3.1 GB files.

    ``n_transfers`` scales the dataset down proportionally for tests; the
    planted features scale with it, down to four sessions, two burst and
    two spike transfers, so fewer than eight transfers are refused.
    """
    if n_transfers < _SLAC_MIN_TRANSFERS:
        raise ValueError(
            f"slac_bnl needs n_transfers >= {_SLAC_MIN_TRANSFERS}: "
            f"{_SLAC_MIN_SESSIONS} sessions of at least one transfer plus "
            f"{_SLAC_MIN_BURST} burst and {_SLAC_MIN_SPIKE} spike transfers"
        )
    rng = np.random.default_rng(seed)
    scale = n_transfers / SLAC_BNL_N_TRANSFERS
    n_sessions = max(int(round(10_199 * scale)), _SLAC_MIN_SESSIONS)

    size_dist = TruncatedLogNormal(LogNormal(1.1e9, 2.5), 1e5, 12.1e12)
    totals = size_dist.sample(rng, n_sessions)
    totals[int(np.argmax(totals))] = 12.04e12 * max(scale, 0.02)  # the 12 TB session

    mean_file = TruncatedLogNormal(LogNormal(60e6, 1.1), 1e6, 2e9).sample(rng, n_sessions)
    raw_counts = totals / mean_file
    # reserve room for the planted features
    n_burst = max(int(round(1_891 * scale)), _SLAC_MIN_BURST)
    n_spike = max(int(round(588 * scale)), _SLAC_MIN_SPIKE)
    budget = n_transfers - n_burst - n_spike
    # multiplicative scaling keeps count proportional to session size, which
    # is what concentrates most *transfers* into the VC-suitable sessions
    # (Table IV's 78.4%-of-transfers-in-12.5%-of-sessions structure)
    raw_counts *= budget / raw_counts.sum()
    counts = np.clip(np.round(raw_counts), 1, 30_153).astype(np.int64)
    counts = _adjust_counts(counts, budget, cap=30_153)

    steady_dist = LogNormal(215e6, 0.55)
    # Stream groups are assigned per session (scripts pick -p once), but the
    # paper's 84.6%-of-transfers-with-8-streams is a TRANSFER-level share;
    # a quota fill over randomly-ordered sessions pins that share at any
    # scale instead of letting one giant 1-stream session swing it.
    one_stream_target = 0.15385 * int(counts.sum())
    one_stream_mask = np.zeros(n_sessions, dtype=bool)
    acc = 0
    for k in rng.permutation(n_sessions):
        if acc >= one_stream_target:
            break
        if acc + counts[k] <= 1.25 * one_stream_target:
            one_stream_mask[k] = True
            acc += int(counts[k])

    # the per-session loop holds only the seeded draws, in draw order
    ends = np.cumsum(counts).tolist()
    sizes = np.empty(ends[-1])
    rates = np.empty(ends[-1])
    hot: list[bool] = []
    hosts: list[tuple[int, int]] = []
    for k, (cnt, end) in enumerate(zip(counts.tolist(), ends)):
        sizes[end - cnt:end] = split_total(rng, float(totals[k]), cnt, sigma=0.6)
        rates[end - cnt:end] = steady_dist.sample(rng, cnt)
        hot.append(rng.random() < 0.005)  # reused data channels, no CA cap
        hosts.append((rng.integers(0, 4), rng.integers(0, 4)))

    streams = np.where(one_stream_mask, 1, 8)
    np.clip(rates, 1e5, 2.58e9, out=rates)
    # Fig. 4 dip: 2.2--3.1 GB files on 8-stream sessions run at half rate
    rates[np.repeat(streams == 8, counts) & (sizes >= 2.2e9) & (sizes < 3.1e9)] *= 0.5
    drafts = [
        _SessionDraft(
            sizes=sizes[end - cnt:end],
            streams=n_streams,
            stripes=1,
            steady_bps=rates[end - cnt:end],
            local_host=_SLAC * 100 + local,
            remote_host=1000 + _BNL * 100 + remote,
            max_gap_s=2.0 if cnt > 2_000 else 50.0,
            # the biggest sessions are machine-driven firehoses: essentially
            # all of their transfers overlap, so they survive even g = 0 as
            # one run
            overlap_override=0.9995 if cnt > 8_000 else None,
            pure_slow_start=is_hot,
        )
        for n_streams, cnt, end, is_hot, (local, remote) in zip(
            streams.tolist(), counts.tolist(), ends, hot, hosts
        )
    ]

    # planted feature 1: the Apr 2, 2--3 AM fast burst (throughput > 1.5 Gbps)
    burst_sizes = rng.uniform(398e6, 399e6, size=n_burst)
    drafts.append(
        _SessionDraft(
            sizes=burst_sizes,
            streams=8,
            stripes=1,
            steady_bps=rng.uniform(5e9, 8e9, size=n_burst),
            local_host=_SLAC * 100 + 90,
            remote_host=1000 + _BNL * 100 + 90,
            max_gap_s=1.0,
            overlap_override=0.9,
            pure_slow_start=True,
        )
    )
    # planted feature 2: the 302--303 MB spike bin (8-stream median ~400 Mbps)
    spike_sizes = rng.uniform(302e6, 303e6, size=n_spike)
    drafts.append(
        _SessionDraft(
            sizes=spike_sizes,
            streams=8,
            stripes=1,
            steady_bps=LogNormal(520e6, 0.25).sample(rng, n_spike),
            local_host=_SLAC * 100 + 91,
            remote_host=1000 + _BNL * 100 + 91,
        )
    )

    t0 = epoch_of_year(2012) + 56 * 86_400.0  # late February 2012
    return _place_sessions(
        drafts,
        rng,
        t0=t0,
        rtt_s=0.070,
        overlap_fraction=0.80,
        inter_gap=LogNormal(1.5 * 3600.0, 1.3),
        chain_gap_count=int(round(4_441 * scale)),
    )


# --------------------------------------------------------------------------
# NERSC--ORNL 32 GB test transfers
# --------------------------------------------------------------------------


def nersc_ornl_32gb(seed: int = 2010, n_transfers: int = 145) -> TransferLog:
    """The 145 NERSC--ORNL 32 GB test transfers of Sep 2010 (Table V, Fig. 6).

    Throughput spans 758 Mbps -- 3.64 Gbps with an IQR near 695 Mbps; all
    transfers use 1 stripe and 8 streams and start at 2 AM or 8 AM; both
    STOR and RETR directions appear.  The remote host is *not* anonymized
    here — :func:`repro.gridftp.anonymize.scrub_remote_hosts` applies the
    NERSC treatment, as the dataset registry does.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.uniform(32e9, 33e9, size=n_transfers)
    # lognormal throughput, 2 AM slightly faster, truncated to the paper's range
    hours = rng.choice([2, 8], size=n_transfers)
    base = TruncatedLogNormal(LogNormal(1.55e9, 0.33), 0.758e9, 3.64e9).sample(
        rng, n_transfers
    )
    tput = np.clip(base * np.where(hours == 2, 1.08, 0.97), 0.758e9, 3.64e9)
    durations = sizes * 8.0 / tput

    t0 = epoch_of_year(2010) + 243 * 86_400.0  # Sep 1, 2010
    day = rng.integers(0, 30, size=n_transfers)
    starts = t0 + day * 86_400.0 + hours * 3600.0 + rng.uniform(0, 600, n_transfers)
    ttype = np.where(
        rng.random(n_transfers) < 0.5, int(TransferType.STOR), int(TransferType.RETR)
    )
    return TransferLog(
        {
            "start": starts,
            "duration": durations,
            "size": sizes,
            "streams": np.full(n_transfers, 8, dtype=np.int32),
            "stripes": np.ones(n_transfers, dtype=np.int32),
            "transfer_type": ttype,
            "local_host": np.full(n_transfers, _NERSC * 100, dtype=np.int32),
            "remote_host": np.full(n_transfers, 1000 + _ORNL * 100, dtype=np.int32),
        }
    ).sorted_by_start()


# --------------------------------------------------------------------------
# NERSC--ANL endpoint-category test transfers
# --------------------------------------------------------------------------

_ANL_CATEGORIES = ("mem-mem", "mem-disk", "disk-mem", "disk-disk")
_ANL_COUNTS = (84, 78, 87, 85)
# category median throughput (bps): disk *writes* at NERSC bottleneck the
# *-disk categories (Fig. 1's story)
_ANL_MEDIANS = (1.45e9, 0.95e9, 1.35e9, 0.88e9)


@dataclasses.dataclass(frozen=True)
class AnlTestSet:
    """The ANL->NERSC test transfers plus their category labels.

    The GridFTP log format does not record endpoint categories; the test
    harness knows them, so they travel alongside the log as masks.
    """

    log: TransferLog
    masks: dict[str, np.ndarray]

    def category(self, name: str) -> TransferLog:
        return self.log.select(self.masks[name])

    def mm_indices(self) -> np.ndarray:
        """Indices of the memory-to-memory transfers (the Eq. 2 subset)."""
        return np.flatnonzero(self.masks["mem-mem"])


def nersc_anl_tests(seed: int = 334, batches: int = 100) -> AnlTestSet:
    """The 334 ANL->NERSC test transfers of Mar--Apr 2012 (Table VI, Figs. 1, 7, 8).

    Transfers arrive in overlapping batches so concurrency at the NERSC
    server varies between 1 and ~8.  Actual throughput couples to the
    concurrent load (the busier the server, the slower the transfer) with
    substantial noise, so Eq. (2)'s prediction correlates weakly but
    positively with reality — the paper's rho was 0.458.
    """
    rng = np.random.default_rng(seed)
    n = sum(_ANL_COUNTS)
    cat_idx = np.concatenate(
        [np.full(c, i, dtype=np.int64) for i, c in enumerate(_ANL_COUNTS)]
    )
    rng.shuffle(cat_idx)
    sizes = rng.uniform(18e9, 22e9, size=n)

    # batched start times over ~49 days
    t0 = epoch_of_year(2012) + 63 * 86_400.0  # Mar 4, 2012
    batch_of = rng.integers(0, batches, size=n)
    batch_t = np.sort(rng.uniform(0, 49 * 86_400.0, size=batches))
    starts = t0 + batch_t[batch_of] + rng.uniform(0, 90.0, size=n)

    medians = np.array(_ANL_MEDIANS)[cat_idx]
    base = medians * rng.lognormal(0.0, 0.30, size=n)

    # couple throughput to concurrent load; two fixed-point passes
    r_server = 3.2e9
    tput = base.copy()
    for _ in range(2):
        durations = sizes * 8.0 / tput
        ends = starts + durations
        load = np.zeros(n)
        for i in range(n):
            overlap = np.minimum(ends, ends[i]) - np.maximum(starts, starts[i])
            np.clip(overlap, 0.0, None, out=overlap)
            overlap[i] = 0.0
            load[i] = float((tput * overlap).sum()) / durations[i]
        tput = base * np.clip(1.0 - 0.45 * load / r_server, 0.30, 1.0)
    durations = sizes * 8.0 / tput

    log = TransferLog(
        {
            "start": starts,
            "duration": durations,
            "size": sizes,
            "streams": np.full(n, 8, dtype=np.int32),
            "stripes": np.ones(n, dtype=np.int32),
            "local_host": np.full(n, _NERSC * 100, dtype=np.int32),
            "remote_host": np.full(n, 1000 + _ANL * 100, dtype=np.int32),
        }
    )
    order = np.argsort(log.start, kind="stable")
    log = log.select(order)
    cat_sorted = cat_idx[order]
    masks = {
        name: cat_sorted == i for i, name in enumerate(_ANL_CATEGORIES)
    }
    return AnlTestSet(log=log, masks=masks)


# -- spec-driven generation entry point --------------------------------------

#: generator name -> callable(seed=..., **kwargs); the names the
#: experiment framework's "synth" scenario accepts as its ``dataset``
GENERATORS = {
    "ncar-nics": ncar_nics,
    "slac-bnl": slac_bnl,
    "nersc-ornl-32gb": nersc_ornl_32gb,
    "nersc-anl-tests": nersc_anl_tests,
}


def generate(dataset: str, seed: int | None = None, **kwargs) -> TransferLog:
    """Generate one calibrated dataset by name — the spec-driven entry.

    ``dataset`` is a :data:`GENERATORS` key; ``seed=None`` keeps the
    generator's own calibrated default seed.  Extra keyword arguments
    pass through to the generator (``n_transfers=...``, or ``batches=...``
    for the ANL test set).  Always returns a
    :class:`~repro.gridftp.records.TransferLog` — the ANL test set's
    category masks are dropped here; call :func:`nersc_anl_tests`
    directly when you need them.
    """
    try:
        fn = GENERATORS[dataset]
    except KeyError:
        raise KeyError(
            f"unknown dataset {dataset!r}; available: {sorted(GENERATORS)}"
        ) from None
    if seed is not None:
        kwargs["seed"] = int(seed)
    out = fn(**kwargs)
    return out.log if isinstance(out, AnlTestSet) else out


# -- chunked streaming generation --------------------------------------------

#: datasets whose generator accepts ``n_transfers`` and therefore scales
#: to arbitrary stream lengths (``nersc-anl-tests`` sizes by batches)
STREAMABLE_DATASETS = ("ncar-nics", "slac-bnl", "nersc-ornl-32gb")
_STREAM_DEFAULT_SEEDS = {"ncar-nics": 2009, "slac-bnl": 2012, "nersc-ornl-32gb": 2010}
#: transfers generated per internal block; bounds generation memory
STREAM_BLOCK_TRANSFERS = 250_000
#: integer namespace separating stream-block seeds from sweep-cell seeds
_STREAM_NAMESPACE = 0x57AB
#: a tail smaller than this merges into the previous block (ncar-nics
#: needs >= 500 transfers to build its session-class structure)
_STREAM_MIN_BLOCK = 1_000
#: seconds between consecutive generation blocks on the synthetic
#: calendar — larger than any realistic gap parameter g, so sessions
#: never straddle a *generation block*.  Sessions routinely straddle
#: *chunks*, because chunking re-slices the stream independently.
STREAM_BLOCK_GAP_S = 7_200.0


def stream_block_counts(
    n_transfers: int, block_transfers: int = STREAM_BLOCK_TRANSFERS
) -> list[int]:
    """Deterministic per-block transfer budgets for :func:`generate_stream`.

    Depends only on ``(n_transfers, block_transfers)`` — never on the
    consumer's ``chunk_size`` — so the generated stream is identical no
    matter how it is re-chunked.
    """
    if n_transfers < 1:
        raise ValueError("n_transfers must be >= 1")
    if block_transfers < _STREAM_MIN_BLOCK:
        raise ValueError(f"block_transfers must be >= {_STREAM_MIN_BLOCK}")
    full, rem = divmod(n_transfers, block_transfers)
    blocks = [block_transfers] * full
    if rem:
        if blocks and rem < _STREAM_MIN_BLOCK:
            blocks[-1] += rem
        else:
            blocks.append(rem)
    return blocks


def generate_stream(
    dataset: str,
    n_transfers: int,
    chunk_size: int,
    seed: int | None = None,
    block_transfers: int = STREAM_BLOCK_TRANSFERS,
):
    """Yield a calibrated workload as time-ordered :class:`TransferLog` chunks.

    The scale-out entry point: memory stays O(``block_transfers`` +
    ``chunk_size``) regardless of ``n_transfers``, which is how the
    100M-transfer regime becomes reachable at all.  Internally the
    stream is built from fixed generation blocks, each produced by the
    dataset's one-shot generator under an independent
    :func:`~repro.core.rng.derive_seed`-derived seed and shifted
    end-to-end on the calendar (:data:`STREAM_BLOCK_GAP_S` apart).  The
    concatenation of the yielded chunks is therefore a deterministic
    function of ``(dataset, n_transfers, seed, block_transfers)`` alone:
    ``chunk_size`` only re-slices it.  Every chunk is internally sorted
    by start and starts no earlier than its predecessor's last start —
    the chunk contract :mod:`repro.core.streaming` consumes.
    """
    if dataset not in STREAMABLE_DATASETS:
        raise ValueError(
            f"dataset {dataset!r} is not streamable; "
            f"available: {sorted(STREAMABLE_DATASETS)}"
        )
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    fn = GENERATORS[dataset]
    base_seed = _STREAM_DEFAULT_SEEDS[dataset] if seed is None else int(seed)
    builder = TransferLogBuilder()
    cursor: float | None = None
    for b, budget in enumerate(stream_block_counts(n_transfers, block_transfers)):
        block = fn(seed=derive_seed(base_seed, _STREAM_NAMESPACE, b),
                   n_transfers=budget)
        if cursor is not None:
            block = block.shift_time(
                cursor + STREAM_BLOCK_GAP_S - float(block.start[0])
            )
        cursor = float(np.max(block.end))
        builder.append_log(block)
        while len(builder) >= chunk_size:
            yield builder.split_off(chunk_size)
    if len(builder):
        yield builder.split_off(len(builder))
