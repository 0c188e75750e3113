"""Property tests for the admission scheduler (hypothesis)."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import Topology, esnet_like
from repro.vc.scheduler import AdmissionError, BandwidthScheduler, _LinkBook

_TOPO = esnet_like()
_PATHS = [
    _TOPO.path("NERSC", "ORNL"),
    _TOPO.path("SLAC", "BNL"),
    _TOPO.path("NCAR", "ANL"),
]


@st.composite
def reservation_sequence(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    out = []
    for _ in range(n):
        path_idx = draw(st.integers(min_value=0, max_value=len(_PATHS) - 1))
        rate = draw(st.floats(min_value=0.1e9, max_value=6e9))
        start = draw(st.floats(min_value=0.0, max_value=5_000.0))
        length = draw(st.floats(min_value=1.0, max_value=3_000.0))
        out.append((path_idx, rate, start, start + length))
    return out


class TestSchedulerProperties:
    @given(reservation_sequence())
    @settings(max_examples=60, deadline=None)
    def test_never_oversubscribed(self, seq):
        """Whatever gets admitted, no instant commits more than the limit."""
        sched = BandwidthScheduler(_TOPO, reservable_fraction=0.9)
        admitted = []
        for path_idx, rate, start, end in seq:
            try:
                sched.reserve(_PATHS[path_idx], rate, start, end)
                admitted.append((path_idx, rate, start, end))
            except AdmissionError:
                pass
        # check commitment at every event boundary on every used link
        boundaries = sorted(
            {t for _, _, s, e in admitted for t in (s, e)}
        )
        for t in boundaries:
            committed = sched.committed_now(t + 1e-6)
            for key, level in committed.items():
                assert level <= 0.9 * _TOPO.link_capacity(key) + 1e-3

    @given(reservation_sequence(), st.floats(min_value=0.1e9, max_value=5e9),
           st.floats(min_value=10.0, max_value=1_000.0))
    @settings(max_examples=40, deadline=None)
    def test_earliest_slot_always_admissible(self, seq, rate, duration):
        """find_earliest_slot's answer must survive actual admission."""
        sched = BandwidthScheduler(_TOPO, reservable_fraction=0.9)
        for path_idx, r, start, end in seq:
            try:
                sched.reserve(_PATHS[path_idx], r, start, end)
            except AdmissionError:
                pass
        slot = sched.find_earliest_slot(_PATHS[0], rate, duration, not_before=0.0)
        if slot is not None:
            sched.reserve(_PATHS[0], rate, slot, slot + duration)

    @given(reservation_sequence())
    @settings(max_examples=40, deadline=None)
    def test_release_restores_full_capacity(self, seq):
        sched = BandwidthScheduler(_TOPO, reservable_fraction=1.0)
        ids = []
        for path_idx, rate, start, end in seq:
            try:
                res = sched.reserve(_PATHS[path_idx], rate, start, end)
                ids.append(res.reservation_id)
            except AdmissionError:
                pass
        for rid in ids:
            sched.release(rid)
        for p in _PATHS:
            assert sched.available_rate(p, 0.0, 10_000.0) == pytest.approx(
                10e9
            )


# ---------------------------------------------------------------------------
# pruned link books against the full-scan book they replaced


class ReferenceBook:
    """The full-scan link book: every query scans every entry ever recorded."""

    __slots__ = ("starts", "ends", "rates")

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.rates: list[float] = []

    def add(self, start: float, end: float, rate: float) -> None:
        i = bisect.bisect_left(self.starts, start)
        self.starts.insert(i, start)
        self.ends.insert(i, end)
        self.rates.insert(i, rate)

    def remove(self, start: float, end: float, rate: float) -> None:
        i = bisect.bisect_left(self.starts, start)
        while i < len(self.starts) and self.starts[i] == start:
            if self.ends[i] == end and self.rates[i] == rate:
                del self.starts[i], self.ends[i], self.rates[i]
                return
            i += 1
        raise KeyError("reservation not present on link")

    def first_live(self, t: float) -> int:
        """The scheduler's boundary walk starts here: at the first entry."""
        return 0

    def peak_commitment(self, start: float, end: float) -> float:
        events: list[tuple[float, float]] = []
        for s, e, r in zip(self.starts, self.ends, self.rates):
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
        total = 0.0
        for s, e, r in zip(self.starts, self.ends, self.rates):
            if s <= t < e:
                total += r
        return total


class ReferenceScheduler(BandwidthScheduler):
    """A :class:`BandwidthScheduler` whose links keep full-scan books."""

    def _book(self, key):
        return self._books.setdefault(key, ReferenceBook())


def _two_hop():
    t = Topology()
    t.add_site("A")
    t.add_site("B")
    t.add_router("r")
    t.add_link("A", "r")
    t.add_link("r", "B")
    return t


_TWO_HOP = _two_hop()
_TWO_HOP_PATH = ["A", "r", "B"]
_TWO_HOP_KEYS = _TWO_HOP.path_links(_TWO_HOP_PATH)

#: 1e-6 s to 1e6 s, log-uniform: blips to ~12-day circuits
_LENGTHS = st.floats(min_value=-6.0, max_value=6.0).map(lambda x: 10.0**x)
_RATES = st.sampled_from([1e9, 1.6e9, 2.5e9, 4e9]) | st.floats(1e6, 5e9)


def _step(x: float, n: int) -> float:
    """``x`` moved ``n`` float steps (n in -1, 0, 1)."""
    return x if n == 0 else math.nextafter(x, math.inf * n)


@st.composite
def book_stream(draw):
    """Adds, removes and truncating releases on the two links of
    ``_TWO_HOP``, plus the instants and windows to query afterwards.

    Starts lie in [0, 1e9].  New entries cluster near earlier ones, and
    some end exactly on another entry's start, or begin on another's end,
    or one float step either side of it.
    """
    ops = []
    live = []  # (link, start, end, rate) currently in the books
    seen = []  # every (start, end) ever added
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        kind = draw(st.sampled_from(["add", "add", "add", "remove", "release"]))
        if kind == "add" or not live:
            length = draw(_LENGTHS)
            anchor = draw(
                st.sampled_from(["fresh", "near", "end-on-start", "start-on-end"])
            )
            if anchor == "fresh" or not seen:
                start = draw(st.floats(min_value=0.0, max_value=1e9))
                end = start + length
            else:
                s0, e0 = draw(st.sampled_from(seen))
                n = draw(st.sampled_from([-1, 0, 1]))
                if anchor == "near":
                    offset = draw(st.sampled_from([-1.0, 1.0])) * draw(_LENGTHS)
                    start = max(0.0, s0 + offset)
                    end = start + length
                elif anchor == "end-on-start":
                    end = _step(s0, n)
                    start = max(0.0, end - length)
                else:
                    start = _step(e0, n)
                    end = start + length
            if not end > start:
                end = math.nextafter(start, math.inf)
            link = draw(st.integers(min_value=0, max_value=1))
            entry = (link, start, end, draw(_RATES))
            ops.append(("add", *entry))
            live.append(entry)
            seen.append((start, end))
            continue
        entry = live.pop(draw(st.integers(min_value=0, max_value=len(live) - 1)))
        ops.append(("remove", *entry))
        link, start, end, rate = entry
        if kind == "release":
            # tear down early: the consumed head stays booked
            edges = [math.nextafter(start, math.inf), math.nextafter(end, -math.inf)]
            at = draw(
                st.sampled_from(edges) | st.floats(min_value=start, max_value=end)
            )
            if start < at < end:
                head = (link, start, at, rate)
                ops.append(("add", *head))
                live.append(head)
                seen.append((start, at))
    bounds = [x for s, e in seen for x in (s, e)]
    instants = draw(
        st.lists(
            st.tuples(st.sampled_from(bounds), st.sampled_from([-1, 0, 1])).map(
                lambda p: _step(*p)
            )
            | st.floats(min_value=-1.0, max_value=1.1e9),
            min_size=1,
            max_size=25,
        )
    )
    # windows from each instant: short or long, so some lie wholly in the
    # past or future of the booked entries and some straddle many of them
    n = len(instants)
    lengths = draw(st.lists(_LENGTHS, min_size=n, max_size=n))
    windows = [(t, t + dt) for t, dt in zip(instants, lengths) if t + dt > t]
    windows.append((-1.0, 2e9))
    return ops, instants, windows


def _replay(ops, book_of):
    for kind, link, start, end, rate in ops:
        getattr(book_of(link), kind)(start, end, rate)


class TestPrunedBooks:
    @given(book_stream())
    @settings(max_examples=200, deadline=None)
    def test_books_match_full_scan(self, stream):
        ops, instants, windows = stream
        books = [_LinkBook(), _LinkBook()]
        refs = [ReferenceBook(), ReferenceBook()]
        _replay(ops, books.__getitem__)
        _replay(ops, refs.__getitem__)
        for book, ref in zip(books, refs):
            assert book.starts == ref.starts
            assert book.ends == ref.ends and book.rates == ref.rates
            for t in instants:
                assert book.commitment_at(t) == ref.commitment_at(t)
            for start, end in windows:
                want = ref.peak_commitment(start, end)
                assert book.peak_commitment(start, end) == want

    @given(
        book_stream(),
        # up to the whole 10 Gbps link, so booked entries block the slot
        st.sampled_from([4e9, 8e9, 10e9]) | st.floats(1e6, 10e9),
        _LENGTHS,
        st.sampled_from([1e3, 1e6, 30 * 86_400.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_schedulers_match_full_scan(self, stream, rate, duration, horizon_s):
        ops, instants, windows = stream
        sched = BandwidthScheduler(_TWO_HOP)
        ref = ReferenceScheduler(_TWO_HOP)
        for s in (sched, ref):
            _replay(ops, lambda link, s=s: s._book(_TWO_HOP_KEYS[link]))
        path = _TWO_HOP_PATH
        for t in instants:
            assert sched.committed_now(t) == ref.committed_now(t)
            want = ref.find_earliest_slot(path, rate, duration, t, horizon_s)
            assert sched.find_earliest_slot(path, rate, duration, t, horizon_s) == want
        for start, end in windows:
            want = ref.available_rate(path, start, end)
            assert sched.available_rate(path, start, end) == want
