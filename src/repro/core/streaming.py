"""Streaming kernels: incremental sessionization and mergeable summaries.

The paper's analyses were written for a log that fits in RAM (the
SLAC--BNL dataset is ~1M rows).  The ROADMAP north star asks for 10--100x
that with bounded memory, which needs the generate -> sessionize ->
summarize path to run over *chunks* instead of one giant
:class:`~repro.gridftp.records.TransferLog`.  This module holds the
chunk-level kernels; :mod:`repro.core.sessions` builds its one-shot API
on top of them.

Contracts (see DESIGN.md section 13):

* **Chunk contract** — chunks are time-sorted slices of one global
  stream: each chunk is internally sorted by ``start`` and begins at or
  after the previous chunk's last start.  How the stream is cut into
  chunks is *presentation only*: every result below is invariant to the
  split.
* **Sessionizer** — :class:`StreamingSessionizer` carries open-session
  state per (local, remote) host pair across chunk boundaries and emits
  closed sessions incrementally.  Collected over any split, its output
  is byte-identical to the one-shot grouper (pinned by tests against
  the per-pair reference loop in the test suite).
* **Accumulators** — :class:`StreamingMoments` (count/sum/mean/CV) and
  :class:`QuantileSketch` (bounded-memory quantiles with a pinned
  tolerance) reduce values in fixed-size blocks aligned to global
  stream offsets, so their reports are bit-identical for any chunk
  split of the same stream; ``merge`` combines two accumulators
  exactly over their already-reduced blocks.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..gridftp.records import ANONYMIZED_HOST, TransferLog
from .stats import SixNumberSummary

__all__ = [
    "pair_key_of",
    "segmented_cummax",
    "PairScan",
    "pair_scan",
    "ClosedSessions",
    "SessionizerUpdate",
    "StreamingSessionizer",
    "StreamingMoments",
    "QuantileSketch",
    "StreamSummary",
    "StreamReport",
    "StreamAnalysis",
]


def pair_key_of(local_host: np.ndarray, remote_host: np.ndarray) -> np.ndarray:
    """Collision-free int64 key for a (local, remote) host pair.

    The same packing the one-shot grouper has always used: local id in
    the high 32 bits, remote id (offset into unsigned range) in the low.
    """
    return local_host.astype(np.int64) * (2**32) + (
        remote_host.astype(np.int64) + 2**31
    )


def segmented_cummax(values: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Running maximum of ``values`` restarting at every ``head`` mark.

    A Hillis--Steele segmented scan: O(n log n) element operations, all
    vectorized, and exact (``max`` never rounds).  ``head[0]`` must be
    True.  This is what replaces the per-pair Python loop of the old
    grouper: with rows lexsorted by (pair, start), per-pair running
    maxima of transfer end times become one segmented scan.
    """
    out = values.astype(np.float64, copy=True)
    n = out.size
    if n == 0:
        return out
    if not head[0]:
        raise ValueError("head[0] must mark the first segment")
    flag = head.copy()
    d = 1
    while d < n:
        contrib = np.where(flag[d:], -np.inf, out[:-d])
        np.maximum(out[d:], contrib, out=out[d:])
        flag[d:] |= flag[:-d]
        d *= 2
    return out


@dataclasses.dataclass(frozen=True)
class PairScan:
    """The ``g``-independent half of gap-``g`` grouping over one batch.

    Rows are in stable (pair, start) order: ascending pair key, time
    order within a pair (the batch must be sorted by start).  A session
    break is then ``head | (start - prev_end > g)``, one comparison per
    row for any ``g``; the streaming sessionizer first raises
    ``prev_end`` to the max end it carried from earlier chunks.
    """

    pair_key: np.ndarray  # int64 per row, in the batch's own order
    order: np.ndarray  # batch row of each scanned row
    head: np.ndarray  # True at the first row of each pair
    start: np.ndarray
    end: np.ndarray
    size: np.ndarray
    #: running max end over the pair's earlier rows (-inf at a head)
    prev_end: np.ndarray


def pair_scan(log: TransferLog) -> PairScan:
    """Sort a start-sorted batch by pair and scan each pair's max end."""
    n = len(log)
    pk = pair_key_of(log.local_host, log.remote_host)
    order = np.argsort(pk, kind="stable")  # preserves time order per pair
    pk_s = pk[order]
    end = log.end[order]
    head = np.empty(n, dtype=bool)
    head[:1] = True
    head[1:] = pk_s[1:] != pk_s[:-1]
    m = segmented_cummax(end, head)
    prev_end = np.full(n, -np.inf)
    prev_end[1:] = np.where(head[1:], -np.inf, m[:-1])
    return PairScan(pair_key=pk, order=order, head=head, start=log.start[order],
                    end=end, size=log.size[order], prev_end=prev_end)


@dataclasses.dataclass(frozen=True)
class ClosedSessions:
    """Columnar batch of sessions the sessionizer has finished.

    ``pair_key``/``seq`` identify a session globally: ``seq`` counts the
    sessions of one host pair in time order, so sorting all emissions by
    (pair_key, seq) reproduces the one-shot grouper's session ids.
    """

    start: np.ndarray  # float64, first transfer start (s)
    duration: np.ndarray  # float64, max end - min start (s)
    total_size: np.ndarray  # float64, total bytes
    n_transfers: np.ndarray  # int64
    local_host: np.ndarray  # int64
    remote_host: np.ndarray  # int64
    pair_key: np.ndarray  # int64
    seq: np.ndarray  # int64, session index within its pair

    def __len__(self) -> int:
        return int(self.start.size)

    @classmethod
    def empty(cls) -> "ClosedSessions":
        z = np.zeros(0)
        zi = np.zeros(0, dtype=np.int64)
        return cls(z, z.copy(), z.copy(), zi, zi.copy(), zi.copy(),
                   zi.copy(), zi.copy())


@dataclasses.dataclass(frozen=True)
class SessionizerUpdate:
    """Result of one :meth:`StreamingSessionizer.update` call.

    ``transfer_pair_key``/``transfer_seq`` label every transfer of the
    chunk (in chunk order) with the session it belongs to — the
    streaming form of ``SessionSet.transfer_session``.  Bounded-memory
    consumers simply ignore them.
    """

    closed: ClosedSessions
    transfer_pair_key: np.ndarray
    transfer_seq: np.ndarray


# per-pair open-session state list layout
_ST_MAXEND, _ST_START, _ST_TOTAL, _ST_COUNT, _ST_SEQ, _ST_LOCAL, _ST_REMOTE = range(7)
#: rough per-pair cost of the state dict (list of 7 scalars + dict slot)
_STATE_NBYTES_PER_PAIR = 200


class StreamingSessionizer:
    """Incremental gap-``g`` session grouping over time-ordered chunks.

    Feed chunks with :meth:`update`; each call emits the sessions that
    provably closed (a later transfer of the same pair arrived more than
    ``g`` seconds after the session's running max end).  Open sessions —
    at most one per host pair — are carried across chunk boundaries and
    flushed by :meth:`finalize`.

    Byte-identical to the one-shot grouper for any chunk split: session
    boundaries, starts, durations, totals (same floating-point addition
    order) and (pair, seq) identities all match.  Closed sessions are
    emitted ordered by the position of their *closing transfer* in the
    global stream, which makes the emission order itself independent of
    the chunk split (finalize flushes in pair-key order).
    """

    def __init__(self, g: float) -> None:
        if not g >= 0:  # refuses NaN too
            raise ValueError(f"gap parameter g must be >= 0, got {g}")
        self._g = float(g)
        self._pairs: dict[int, list] = {}
        self._last_start: float | None = None
        self._n_transfers = 0
        self._finalized = False

    @property
    def g(self) -> float:
        return self._g

    @property
    def n_transfers_seen(self) -> int:
        return self._n_transfers

    @property
    def n_pairs(self) -> int:
        """Distinct host pairs seen so far (the state's growth axis)."""
        return len(self._pairs)

    @property
    def state_nbytes(self) -> int:
        """Approximate footprint of the carried state: O(pairs), not O(n)."""
        return len(self._pairs) * _STATE_NBYTES_PER_PAIR

    def update(self, chunk: TransferLog) -> SessionizerUpdate:
        """Ingest the next chunk; return newly closed sessions."""
        if self._finalized:
            raise RuntimeError("sessionizer already finalized")
        n = len(chunk)
        if n == 0:
            zi = np.zeros(0, dtype=np.int64)
            return SessionizerUpdate(ClosedSessions.empty(), zi, zi.copy())
        start = chunk.start
        if n > 1 and np.any(start[1:] < start[:-1]):
            raise ValueError("chunk is not sorted by start time")
        if self._last_start is not None and start[0] < self._last_start:
            raise ValueError(
                "chunks are not time-ordered: chunk starts at "
                f"{start[0]:.6f}, before the previous chunk's last start "
                f"{self._last_start:.6f}"
            )
        if np.any(chunk.remote_host == ANONYMIZED_HOST):
            raise ValueError(
                "cannot sessionize anonymized transfers: remote endpoints "
                "are scrubbed (the NERSC situation in Section V of the paper)"
            )
        self._last_start = float(start[-1])
        self._n_transfers += n

        scan = pair_scan(chunk)
        order, head = scan.order, scan.head
        s_s, e_s = scan.start, scan.end
        group_first = np.flatnonzero(head)
        n_groups = group_first.size
        group_len = np.diff(np.append(group_first, n))
        group_pk = scan.pair_key[order[group_first]]

        # carried open-session state per group present in this chunk
        carry_maxend = np.full(n_groups, -np.inf)
        carry_start = np.zeros(n_groups)
        carry_total = np.zeros(n_groups)
        carry_count = np.zeros(n_groups, dtype=np.int64)
        carry_seq = np.full(n_groups, -1, dtype=np.int64)
        carry_local = np.zeros(n_groups, dtype=np.int64)
        carry_remote = np.zeros(n_groups, dtype=np.int64)
        carry_known = np.zeros(n_groups, dtype=bool)
        pairs = self._pairs
        for j, key in enumerate(group_pk.tolist()):
            st = pairs.get(key)
            if st is not None:
                carry_maxend[j] = st[_ST_MAXEND]
                carry_start[j] = st[_ST_START]
                carry_total[j] = st[_ST_TOTAL]
                carry_count[j] = st[_ST_COUNT]
                carry_seq[j] = st[_ST_SEQ]
                carry_local[j] = st[_ST_LOCAL]
                carry_remote[j] = st[_ST_REMOTE]
                carry_known[j] = True

        # the scan's running max end per pair, raised to the carried max:
        # the one-shot rule is "break when start - max(all earlier ends
        # of the pair) > g"; ends from *closed* sessions are provably
        # dominated (a break certifies start > old max + g), so the open
        # session's running max is the whole carry.
        prev = np.maximum(scan.prev_end, np.repeat(carry_maxend, group_len))
        breaks = (s_s - prev) > self._g

        # slots: one per (possibly partial) session touched by this chunk
        slot_head = head | breaks
        slot_id = np.cumsum(slot_head) - 1
        n_slots = int(slot_id[-1]) + 1
        slot_first = np.flatnonzero(slot_head)
        group_id = np.cumsum(head) - 1
        slot_group = group_id[slot_first]
        gfirst_slot = slot_id[group_first]
        slot_rank = np.arange(n_slots) - gfirst_slot[slot_group]
        # a rank-0 slot continues the carried open session when the pair
        # is known and its head transfer did not break (at g = inf an
        # unknown pair's head never "breaks" from its -inf carry)
        continuing = (head[slot_first] & ~breaks[slot_first]
                      & carry_known[slot_group])
        group_cont = np.zeros(n_groups, dtype=bool)
        group_cont[slot_group[continuing]] = True

        # per-slot aggregates, carry-initialized so the floating-point
        # fold order matches the one-shot np.add.at over the whole log
        cont_groups = slot_group[continuing]
        totals = np.zeros(n_slots)
        totals[continuing] = carry_total[cont_groups]
        np.add.at(totals, slot_id, scan.size)
        maxend = np.full(n_slots, -np.inf)
        maxend[continuing] = carry_maxend[cont_groups]
        np.maximum.at(maxend, slot_id, e_s)
        counts = np.bincount(slot_id, minlength=n_slots).astype(np.int64)
        counts[continuing] += carry_count[cont_groups]
        starts = s_s[slot_first].copy()
        starts[continuing] = carry_start[cont_groups]
        base_seq = carry_seq[slot_group]
        seq = base_seq + slot_rank + np.where(group_cont[slot_group], 0, 1)

        slot_row = order[slot_first]
        slot_local = chunk.local_host[slot_row].astype(np.int64)
        slot_remote = chunk.remote_host[slot_row].astype(np.int64)

        # emissions: carried sessions whose head transfer broke, plus
        # every slot that is not the last of its group; ordered by the
        # closing transfer's position in the chunk so the emission
        # sequence is invariant to how the stream was split
        is_last = np.empty(n_slots, dtype=bool)
        is_last[-1] = True
        is_last[:-1] = slot_group[1:] != slot_group[:-1]
        cs = np.flatnonzero(~is_last)
        cg = np.flatnonzero(carry_known & ~group_cont)
        em_start = np.concatenate([carry_start[cg], starts[cs]])
        em_maxend = np.concatenate([carry_maxend[cg], maxend[cs]])
        em_total = np.concatenate([carry_total[cg], totals[cs]])
        em_count = np.concatenate([carry_count[cg], counts[cs]])
        em_local = np.concatenate([carry_local[cg], slot_local[cs]])
        em_remote = np.concatenate([carry_remote[cg], slot_remote[cs]])
        em_pk = np.concatenate([group_pk[cg], scan.pair_key[slot_row[cs]]])
        em_seq = np.concatenate([carry_seq[cg], seq[cs]])
        closer = np.concatenate(
            [order[group_first[cg]], slot_row[cs + 1]]
        )
        eo = np.argsort(closer, kind="stable")
        closed = ClosedSessions(
            start=em_start[eo],
            duration=em_maxend[eo] - em_start[eo],
            total_size=em_total[eo],
            n_transfers=em_count[eo],
            local_host=em_local[eo],
            remote_host=em_remote[eo],
            pair_key=em_pk[eo],
            seq=em_seq[eo],
        )

        # carry the last slot of every group forward as the open session
        lasts = np.flatnonzero(is_last)
        new_maxend = maxend[lasts].tolist()
        new_start = starts[lasts].tolist()
        new_total = totals[lasts].tolist()
        new_count = counts[lasts].tolist()
        new_seq = seq[lasts].tolist()
        new_local = slot_local[lasts].tolist()
        new_remote = slot_remote[lasts].tolist()
        for j, key in enumerate(group_pk.tolist()):
            pairs[key] = [
                new_maxend[j], new_start[j], new_total[j], new_count[j],
                new_seq[j], new_local[j], new_remote[j],
            ]

        t_seq = np.empty(n, dtype=np.int64)
        t_seq[order] = seq[slot_id]
        return SessionizerUpdate(closed=closed, transfer_pair_key=scan.pair_key,
                                 transfer_seq=t_seq)

    def finalize(self) -> ClosedSessions:
        """Close every still-open session (end of stream), pair-key order."""
        if self._finalized:
            raise RuntimeError("sessionizer already finalized")
        self._finalized = True
        if not self._pairs:
            return ClosedSessions.empty()
        keys = sorted(self._pairs)
        states = [self._pairs[k] for k in keys]
        self._pairs = {}
        start = np.array([st[_ST_START] for st in states])
        maxend = np.array([st[_ST_MAXEND] for st in states])
        return ClosedSessions(
            start=start,
            duration=maxend - start,
            total_size=np.array([st[_ST_TOTAL] for st in states]),
            n_transfers=np.array([st[_ST_COUNT] for st in states], dtype=np.int64),
            local_host=np.array([st[_ST_LOCAL] for st in states], dtype=np.int64),
            remote_host=np.array([st[_ST_REMOTE] for st in states], dtype=np.int64),
            pair_key=np.array(keys, dtype=np.int64),
            seq=np.array([st[_ST_SEQ] for st in states], dtype=np.int64),
        )


# --------------------------------------------------------------------------
# mergeable accumulators
# --------------------------------------------------------------------------


def _exact_add(partials: list[float], x: float) -> None:
    """Fold ``x`` into a Shewchuk exact-partials accumulator in place."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class StreamingMoments:
    """Deterministic streaming count / sum / mean / CV with bounded memory.

    Values are reduced in fixed-size blocks aligned to the *global*
    element offset, so the result depends only on the value sequence —
    never on how the stream was cut into ``update`` calls.  Completed
    block sums are folded into Shewchuk exact partials (the block-sum
    accumulation is exact, hence associative), which is what makes
    :meth:`merge` exact: merging two accumulators yields precisely the
    sum of all their block sums.  ``count``/``min``/``max`` are exact;
    the blocked sums of the non-negative quantities this repo summarizes
    carry ~1 ulp error per block level.

    ``merge`` seals both operands' partial blocks first, so a merged
    accumulator matches sequential feeding bit-for-bit whenever the left
    stream's length is a multiple of the block size (tests pin both the
    law and the general closeness).
    """

    __slots__ = ("block", "count", "_min", "_max", "_sum_parts",
                 "_sumsq_parts", "_buf", "_fill")

    def __init__(self, block: int = 4096) -> None:
        if block < 1:
            raise ValueError("block must be >= 1")
        self.block = int(block)
        self.count = 0
        self._min = math.inf
        self._max = -math.inf
        self._sum_parts: list[float] = []
        self._sumsq_parts: list[float] = []
        self._buf = np.empty(self.block)
        self._fill = 0

    @property
    def nbytes(self) -> int:
        return int(self._buf.nbytes) + 8 * (
            len(self._sum_parts) + len(self._sumsq_parts)
        )

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        if not np.all(np.isfinite(values)):
            raise ValueError("sample contains non-finite values")
        self.count += int(values.size)
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))
        pos = 0
        while pos < values.size:
            take = min(self.block - self._fill, values.size - pos)
            self._buf[self._fill : self._fill + take] = values[pos : pos + take]
            self._fill += take
            pos += take
            if self._fill == self.block:
                self._seal()

    def _seal(self) -> None:
        if self._fill == 0:
            return
        blk = self._buf[: self._fill]
        _exact_add(self._sum_parts, float(np.add.reduce(blk)))
        _exact_add(self._sumsq_parts, float(np.add.reduce(blk * blk)))
        self._fill = 0

    def merge(self, other: "StreamingMoments") -> None:
        """Fold ``other`` into self (both partial blocks are sealed)."""
        self._seal()
        other._seal()
        self.count += other.count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        for p in other._sum_parts:
            _exact_add(self._sum_parts, p)
        for p in other._sumsq_parts:
            _exact_add(self._sumsq_parts, p)

    # -- queries (pure; no state change) ------------------------------------

    @property
    def total(self) -> float:
        tail = float(np.add.reduce(self._buf[: self._fill])) if self._fill else 0.0
        return math.fsum(self._sum_parts + [tail])

    @property
    def total_sq(self) -> float:
        if self._fill:
            blk = self._buf[: self._fill]
            tail = float(np.add.reduce(blk * blk))
        else:
            tail = 0.0
        return math.fsum(self._sumsq_parts + [tail])

    @property
    def minimum(self) -> float:
        return self._min

    @property
    def maximum(self) -> float:
        return self._max

    @property
    def mean(self) -> float:
        if self.count == 0:
            return float("nan")
        return self.total / self.count

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1), clamped at 0 against cancellation."""
        if self.count < 2:
            return float("nan")
        s, s2, n = self.total, self.total_sq, self.count
        return max((s2 - s * s / n) / (n - 1), 0.0)

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else float("nan")

    @property
    def cv(self) -> float:
        """Coefficient of variation, NaN for degenerate inputs (Table VI)."""
        if self.count < 2 or self.mean == 0.0:
            return float("nan")
        return self.std / self.mean


class QuantileSketch:
    """Bounded-memory quantile summary (MRL-style merging buffers).

    Level-``l`` buffers hold ``k`` sorted values each standing for
    ``2**l`` originals; two buffers at a level collapse into one at the
    next by merging and keeping alternate elements (the offset toggles
    per level, deterministically).  Memory is O(k log(n/k)); rank error
    grows ~n/(2k) per collapse level, pinned by a tolerance test at 2%
    of n for the default ``k``.  Like :class:`StreamingMoments`, buffers
    fill at global element offsets, so results are invariant to the
    chunk split.  ``merge`` folds another sketch's buffers in whole: the
    merged sketch obeys the same rank-error bound, but is not bitwise
    identical to sequential feeding (the two sketches' compaction
    toggles ran independently).
    """

    __slots__ = ("k", "count", "_min", "_max", "_levels", "_toggle",
                 "_buf", "_fill")

    def __init__(self, k: int = 2048) -> None:
        if k < 2 or k % 2:
            raise ValueError("k must be an even integer >= 2")
        self.k = int(k)
        self.count = 0
        self._min = math.inf
        self._max = -math.inf
        self._levels: list[list[np.ndarray]] = []
        self._toggle: list[int] = []
        self._buf = np.empty(self.k)
        self._fill = 0

    @property
    def nbytes(self) -> int:
        return int(self._buf.nbytes) + int(
            sum(b.nbytes for bufs in self._levels for b in bufs)
        )

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        if not np.all(np.isfinite(values)):
            raise ValueError("sample contains non-finite values")
        self.count += int(values.size)
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))
        self._fill_raw(values)

    def _fill_raw(self, values: np.ndarray) -> None:
        pos = 0
        while pos < values.size:
            take = min(self.k - self._fill, values.size - pos)
            self._buf[self._fill : self._fill + take] = values[pos : pos + take]
            self._fill += take
            pos += take
            if self._fill == self.k:
                self._push(np.sort(self._buf, kind="stable").copy(), 0)
                self._fill = 0

    def _push(self, buf: np.ndarray, level: int) -> None:
        while len(self._levels) <= level:
            self._levels.append([])
            self._toggle.append(0)
        self._levels[level].append(buf)
        if len(self._levels[level]) == 2:
            a, b = self._levels[level]
            self._levels[level] = []
            merged = np.sort(np.concatenate([a, b]), kind="stable")
            off = self._toggle[level]
            self._toggle[level] ^= 1
            self._push(merged[off::2], level + 1)

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into self (buffers whole, its tail re-blocked)."""
        if other.k != self.k:
            raise ValueError("cannot merge sketches with different k")
        self.count += other.count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        for level, bufs in enumerate(other._levels):
            for b in bufs:
                self._push(b.copy(), level)
        if other._fill:
            self._fill_raw(other._buf[: other._fill])

    def _weighted(self) -> tuple[np.ndarray, np.ndarray]:
        vals = [self._buf[: self._fill]]
        weights = [np.ones(self._fill)]
        for level, bufs in enumerate(self._levels):
            for b in bufs:
                vals.append(b)
                weights.append(np.full(b.size, float(2**level)))
        v = np.concatenate(vals)
        w = np.concatenate(weights)
        o = np.argsort(v, kind="stable")
        return v[o], w[o]

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (linear interpolation, R type 7)."""
        return float(self.quantiles(np.array([q]))[0])

    def quantiles(self, qs: np.ndarray) -> np.ndarray:
        if self.count == 0:
            raise ValueError("cannot query an empty sketch")
        qs = np.asarray(qs, dtype=np.float64)
        if np.any((qs < 0) | (qs > 1)):
            raise ValueError("quantiles must be in [0, 1]")
        v, w = self._weighted()
        cw = np.cumsum(w)
        # item i spans ranks [cw[i]-w[i], cw[i]); interpolate midpoints
        mid = cw - (w + 1.0) / 2.0
        return np.interp(qs * (self.count - 1), mid, v)

    @property
    def minimum(self) -> float:
        return self._min

    @property
    def maximum(self) -> float:
        return self._max


class StreamSummary:
    """Moments + sketch bundled into six-number-summary-shaped reports.

    The streaming stand-in for
    :func:`repro.core.stats.six_number_summary`: ``n``, ``min``, ``max``,
    ``mean`` and ``std`` are the deterministic streaming values; the
    quartiles and median come from the sketch (approximate, pinned
    tolerance).  Chunk-split invariant; mergeable.
    """

    __slots__ = ("moments", "sketch")

    def __init__(self, block: int = 4096, sketch_k: int = 2048) -> None:
        self.moments = StreamingMoments(block=block)
        self.sketch = QuantileSketch(k=sketch_k)

    @property
    def count(self) -> int:
        return self.moments.count

    @property
    def nbytes(self) -> int:
        return self.moments.nbytes + self.sketch.nbytes

    def update(self, values: np.ndarray) -> None:
        self.moments.update(values)
        self.sketch.update(values)

    def merge(self, other: "StreamSummary") -> None:
        self.moments.merge(other.moments)
        self.sketch.merge(other.sketch)

    def summary(self) -> SixNumberSummary:
        if self.count == 0:
            raise ValueError("cannot summarize an empty sample")
        q1, med, q3 = self.sketch.quantiles(np.array([0.25, 0.5, 0.75]))
        m = self.moments
        return SixNumberSummary(
            minimum=m.minimum,
            q1=float(q1),
            median=float(med),
            mean=m.mean,
            q3=float(q3),
            maximum=m.maximum,
            n=m.count,
            std=m.std if m.count > 1 else 0.0,
        )


# --------------------------------------------------------------------------
# the full streaming analysis pipeline
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StreamReport:
    """Bounded-memory census of one streamed log: paper-table shaped."""

    g: float
    n_transfers: int
    n_chunks: int
    total_bytes: float
    n_sessions: int
    n_single: int
    n_multi: int
    max_transfers_in_session: int
    n_sessions_100_plus: int
    n_pairs: int
    session_duration: SixNumberSummary
    session_size: SixNumberSummary
    transfer_throughput: SixNumberSummary
    peak_state_nbytes: int

    def as_dict(self) -> dict:
        def six(s: SixNumberSummary) -> dict:
            return {
                "min": s.minimum, "q1": s.q1, "median": s.median,
                "mean": s.mean, "q3": s.q3, "max": s.maximum,
                "n": s.n, "std": s.std,
            }

        return {
            "g": self.g,
            "n_transfers": self.n_transfers,
            "n_chunks": self.n_chunks,
            "total_bytes": self.total_bytes,
            "n_sessions": self.n_sessions,
            "n_single": self.n_single,
            "n_multi": self.n_multi,
            "max_transfers_in_session": self.max_transfers_in_session,
            "n_sessions_100_plus": self.n_sessions_100_plus,
            "n_pairs": self.n_pairs,
            "session_duration_s": six(self.session_duration),
            "session_size_bytes": six(self.session_size),
            "transfer_throughput_bps": six(self.transfer_throughput),
            "peak_state_nbytes": self.peak_state_nbytes,
        }


class StreamAnalysis:
    """generate -> sessionize -> summarize over chunks in bounded memory.

    Feed time-ordered chunks (e.g. from
    :func:`repro.workload.synth.generate_stream`) with :meth:`update`,
    then :meth:`finalize` for a :class:`StreamReport`.  Peak working set
    is O(chunk + pairs + sketch), independent of the total transfer
    count — the property the memory-bound tests pin.
    """

    def __init__(self, g: float = 60.0, block: int = 4096,
                 sketch_k: int = 2048) -> None:
        self._sessionizer = StreamingSessionizer(g)
        self._duration = StreamSummary(block=block, sketch_k=sketch_k)
        self._size = StreamSummary(block=block, sketch_k=sketch_k)
        self._tput = StreamSummary(block=block, sketch_k=sketch_k)
        self._bytes = StreamingMoments(block=block)
        self._n_chunks = 0
        self._n_single = 0
        self._n_multi = 0
        self._max_transfers = 0
        self._n_100_plus = 0
        self._peak_state = 0
        self._report: StreamReport | None = None

    @property
    def state_nbytes(self) -> int:
        """Current footprint of all carried state (not the chunk itself)."""
        return (
            self._sessionizer.state_nbytes
            + self._duration.nbytes
            + self._size.nbytes
            + self._tput.nbytes
            + self._bytes.nbytes
        )

    def _consume(self, closed) -> None:
        if len(closed) == 0:
            return
        self._duration.update(closed.duration)
        self._size.update(closed.total_size)
        self._n_single += int(np.count_nonzero(closed.n_transfers == 1))
        self._n_multi += int(np.count_nonzero(closed.n_transfers > 1))
        self._max_transfers = max(
            self._max_transfers, int(closed.n_transfers.max())
        )
        self._n_100_plus += int(np.count_nonzero(closed.n_transfers >= 100))

    def update(self, chunk: TransferLog) -> None:
        if self._report is not None:
            raise RuntimeError("analysis already finalized")
        upd = self._sessionizer.update(chunk)
        self._consume(upd.closed)
        if len(chunk):
            tput = chunk.throughput_bps
            self._tput.update(tput[tput > 0.0])
            self._bytes.update(chunk.size)
            self._n_chunks += 1
        self._peak_state = max(self._peak_state, self.state_nbytes)

    def finalize(self) -> StreamReport:
        if self._report is not None:
            return self._report
        n_pairs = self._sessionizer.n_pairs
        self._consume(self._sessionizer.finalize())
        self._peak_state = max(self._peak_state, self.state_nbytes)
        self._report = StreamReport(
            g=self._sessionizer.g,
            n_transfers=self._sessionizer.n_transfers_seen,
            n_chunks=self._n_chunks,
            total_bytes=self._bytes.total,
            n_sessions=self._n_single + self._n_multi,
            n_single=self._n_single,
            n_multi=self._n_multi,
            max_transfers_in_session=self._max_transfers,
            n_sessions_100_plus=self._n_100_plus,
            n_pairs=n_pairs,
            session_duration=self._duration.summary(),
            session_size=self._size.summary(),
            transfer_throughput=self._tput.summary(),
            peak_state_nbytes=self._peak_state,
        )
        return self._report
