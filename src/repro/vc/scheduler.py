"""Time-bandwidth admission control: the heart of an advance-reservation IDC.

Each link has a capacity and a (growing) set of reservations, each a
``(start, end, rate)`` triple.  Admitting a new reservation requires that
on every link of its path, the *peak* committed bandwidth over the
requested window — existing reservations plus the newcomer — stays within
the link's reservable capacity.

Section II of the paper notes that advance reservation is what lets the
provider run circuits at high utilization with low blocking when
individual circuits claim a large fraction of link capacity; the Ext-D
benchmark measures exactly that blocking-vs-load tradeoff on this
scheduler.
"""

from __future__ import annotations

import bisect
import dataclasses
import math

from ..net.topology import Topology

__all__ = ["Reservation", "BandwidthScheduler", "AdmissionError"]


class AdmissionError(Exception):
    """Raised when a reservation cannot be admitted on the requested window."""


@dataclasses.dataclass(frozen=True, slots=True)
class Reservation:
    """An admitted time-bandwidth claim along a path."""

    reservation_id: int
    path: tuple[str, ...]
    rate_bps: float
    start: float
    end: float


class _LinkBook:
    """Per-link reservation ledger with peak-commitment queries.

    Reservations are kept as parallel sorted-by-start lists; peak
    commitment over a window is computed by an event sweep over the
    overlapping entries.  Consumed heads of torn-down circuits stay in the
    book, so past windows keep answering.

    Queries scan only the entries that can overlap them.  ``max_len`` is
    one float step above the longest entry ever added (``remove`` never
    lowers it), so an entry starting before
    ``nextafter(t - max_len, -inf)`` ends strictly before ``t`` in exact
    arithmetic: :meth:`first_live` bisects past those, and the entries
    scanned still pass the exact overlap test.  A query therefore costs
    two bisects plus the entries starting within ``max_len`` before it,
    not the whole history; a book holding one long reservation scans
    everything, as an unpruned book would.
    """

    __slots__ = ("starts", "ends", "rates", "max_len")

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.rates: list[float] = []
        self.max_len = 0.0

    def add(self, start: float, end: float, rate: float) -> None:
        i = bisect.bisect_left(self.starts, start)
        self.starts.insert(i, start)
        self.ends.insert(i, end)
        self.rates.insert(i, rate)
        self.max_len = max(self.max_len, math.nextafter(end - start, math.inf))

    def remove(self, start: float, end: float, rate: float) -> None:
        i = bisect.bisect_left(self.starts, start)
        while i < len(self.starts) and self.starts[i] == start:
            if self.ends[i] == end and self.rates[i] == rate:
                del self.starts[i], self.ends[i], self.rates[i]
                return
            i += 1
        raise KeyError("reservation not present on link")

    def first_live(self, t: float) -> int:
        """Index of the first entry that may still be running at ``t``;
        every entry before it ends strictly before ``t``."""
        cutoff = math.nextafter(t - self.max_len, -math.inf)
        return bisect.bisect_left(self.starts, cutoff)

    def peak_commitment(self, start: float, end: float) -> float:
        """Maximum committed rate at any instant of [start, end)."""
        lo = self.first_live(start)
        hi = bisect.bisect_left(self.starts, end)
        events: list[tuple[float, float]] = []
        for s, e, r in zip(self.starts[lo:hi], self.ends[lo:hi], self.rates[lo:hi]):
            if e <= start or s >= end:
                continue
            events.append((max(s, start), r))
            events.append((min(e, end), -r))
        if not events:
            return 0.0
        events.sort()
        peak = 0.0
        level = 0.0
        for _, delta in events:
            level += delta
            peak = max(peak, level)
        return peak

    def commitment_at(self, t: float) -> float:
        """Committed rate at instant ``t``."""
        lo = self.first_live(t)
        hi = bisect.bisect_right(self.starts, t)
        total = 0.0
        for s, e, r in zip(self.starts[lo:hi], self.ends[lo:hi], self.rates[lo:hi]):
            if s <= t < e:
                total += r
        return total


class BandwidthScheduler:
    """Admission control over a topology's links.

    Parameters
    ----------
    topology:
        Supplies link capacities.
    reservable_fraction:
        Providers cap the share of a link that circuits may claim, keeping
        headroom for IP-routed traffic; ESnet-style deployments reserve
        well under 100%.
    """

    def __init__(self, topology: Topology, reservable_fraction: float = 1.0) -> None:
        if not 0.0 < reservable_fraction <= 1.0:
            raise ValueError("reservable_fraction must be in (0, 1]")
        self.topology = topology
        self.reservable_fraction = reservable_fraction
        self._books: dict[tuple[str, str], _LinkBook] = {}
        self._next_id = 0
        self._reservations: dict[int, Reservation] = {}
        #: admission counters — the blocking-rate telemetry an operator
        #: (and the chaos runner) watches; rejections here are what the
        #: retry/fallback machinery upstream exists to absorb
        self.n_admitted = 0
        self.n_rejected = 0

    def _book(self, key: tuple[str, str]) -> _LinkBook:
        if key not in self._books:
            self._books[key] = _LinkBook()
        return self._books[key]

    def _limit(self, key: tuple[str, str]) -> float:
        return self.topology.link_capacity(key) * self.reservable_fraction

    # -- queries ---------------------------------------------------------------

    def available_rate(self, path: list[str], start: float, end: float) -> float:
        """Largest rate admissible along ``path`` over [start, end)."""
        if end <= start:
            raise ValueError("window must have positive length")
        avail = float("inf")
        for key in self.topology.path_links(path):
            headroom = self._limit(key) - self._book(key).peak_commitment(start, end)
            avail = min(avail, headroom)
        return max(avail, 0.0)

    def committed_now(self, t: float) -> dict[tuple[str, str], float]:
        """Committed rate per link at instant ``t`` (for path computation)."""
        return {key: book.commitment_at(t) for key, book in self._books.items()}

    def find_earliest_slot(
        self,
        path: list[str],
        rate_bps: float,
        duration_s: float,
        not_before: float = 0.0,
        horizon_s: float = 30 * 86_400.0,
    ) -> float | None:
        """Earliest start >= ``not_before`` admitting (rate, duration) on ``path``.

        This is the calendar query behind a user-friendly IDC: "when is
        the soonest I can get my 5 Gbps for two hours?"  The search walks
        the reservation event boundaries (commitment levels only change
        there), so it is exact, not sampled.  Returns ``None`` when no
        slot fits within ``horizon_s``.
        """
        if rate_bps <= 0 or duration_s <= 0:
            raise ValueError("rate and duration must be positive")
        keys = self.topology.path_links(path)
        # admission must hold over [t, t + duration) on every link
        candidates = {not_before}
        for key in keys:
            book = self._book(key)
            # entries ending before not_before add no candidate
            lo = book.first_live(not_before)
            for s, e in zip(book.starts[lo:], book.ends[lo:]):
                # commitment can only *drop* at reservation ends
                if not_before <= e <= not_before + horizon_s:
                    candidates.add(e)
                if not_before <= s <= not_before + horizon_s:
                    candidates.add(s)
        for t in sorted(candidates):
            if t > not_before + horizon_s:
                break
            fits = all(
                rate_bps
                <= self._limit(key)
                - self._book(key).peak_commitment(t, t + duration_s)
                + 1e-9
                for key in keys
            )
            if fits:
                return t
        return None

    # -- admission ---------------------------------------------------------------

    def reserve(
        self, path: list[str], rate_bps: float, start: float, end: float
    ) -> Reservation:
        """Admit a reservation or raise :class:`AdmissionError`.

        Admission is atomic: either every link accepts or none is touched.
        """
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if end <= start:
            raise ValueError("reservation must have positive duration")
        keys = self.topology.path_links(path)
        for key in keys:
            headroom = self._limit(key) - self._book(key).peak_commitment(start, end)
            if rate_bps > headroom + 1e-9:
                self.n_rejected += 1
                raise AdmissionError(
                    f"link {key} has {headroom / 1e9:.2f} Gbps headroom over "
                    f"[{start}, {end}), requested {rate_bps / 1e9:.2f} Gbps"
                )
        for key in keys:
            self._book(key).add(start, end, rate_bps)
        self.n_admitted += 1
        res = Reservation(self._next_id, tuple(path), rate_bps, start, end)
        self._reservations[res.reservation_id] = res
        self._next_id += 1
        return res

    def release(self, reservation_id: int, at: float | None = None) -> None:
        """Release a reservation, optionally truncating it at time ``at``.

        Early release (``at`` inside the window) returns the tail capacity
        to the pool — what an IDC does when a user tears a circuit down
        before its scheduled end.
        """
        res = self._reservations.pop(reservation_id, None)
        if res is None:
            raise KeyError(f"unknown reservation {reservation_id}")
        keys = self.topology.path_links(list(res.path))
        for key in keys:
            self._book(key).remove(res.start, res.end, res.rate_bps)
        if at is not None and res.start < at < res.end:
            # keep the consumed head as a historical commitment
            truncated = Reservation(res.reservation_id, res.path, res.rate_bps, res.start, at)
            for key in keys:
                self._book(key).add(truncated.start, truncated.end, truncated.rate_bps)

    def extend(self, reservation_id: int, new_end: float) -> Reservation:
        """Extend a reservation's end time, subject to admission on the tail.

        Used by the gap-``g`` hold policy: when a new transfer arrives
        before the hold timer fires, the circuit's reservation is pushed
        out rather than torn down and re-signalled.
        """
        res = self._reservations.get(reservation_id)
        if res is None:
            raise KeyError(f"unknown reservation {reservation_id}")
        if new_end <= res.end:
            return res
        keys = self.topology.path_links(list(res.path))
        for key in keys:
            headroom = self._limit(key) - self._book(key).peak_commitment(res.end, new_end)
            if res.rate_bps > headroom + 1e-9:
                raise AdmissionError(
                    f"cannot extend reservation {reservation_id} on link {key}"
                )
        for key in keys:
            self._book(key).remove(res.start, res.end, res.rate_bps)
            self._book(key).add(res.start, new_end, res.rate_bps)
        new_res = Reservation(res.reservation_id, res.path, res.rate_bps, res.start, new_end)
        self._reservations[reservation_id] = new_res
        return new_res

    @property
    def active_reservations(self) -> list[Reservation]:
        return list(self._reservations.values())
