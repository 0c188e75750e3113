"""Unit and property tests for the SNMP byte counters."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.snmp import SnmpCollector, SnmpCounter


class TestSnmpCounter:
    def test_single_bin_deposit(self):
        c = SnmpCounter(bin_seconds=30.0)
        c.add_bytes(5.0, 25.0, 600.0)
        starts, counts = c.series()
        assert counts[0] == pytest.approx(600.0)
        assert starts[0] == 0.0

    def test_spread_across_bins_proportional(self):
        c = SnmpCounter(bin_seconds=30.0)
        c.add_bytes(15.0, 45.0, 300.0)  # half in bin 0, half in bin 1
        _, counts = c.series()
        assert counts[0] == pytest.approx(150.0)
        assert counts[1] == pytest.approx(150.0)

    def test_conservation_many_bins(self):
        c = SnmpCounter(bin_seconds=30.0)
        c.add_bytes(7.0, 307.0, 12345.0)
        assert c.total_bytes() == pytest.approx(12345.0)

    def test_instantaneous_deposit(self):
        c = SnmpCounter(bin_seconds=30.0)
        c.add_bytes(31.0, 31.0, 99.0)
        _, counts = c.series()
        assert counts[1] == pytest.approx(99.0)

    def test_zero_bytes_noop(self):
        c = SnmpCounter()
        c.add_bytes(0.0, 10.0, 0.0)
        assert c.n_bins == 0

    def test_before_epoch_rejected(self):
        c = SnmpCounter(t0=100.0)
        with pytest.raises(ValueError):
            c.add_bytes(50.0, 60.0, 1.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            SnmpCounter().add_bytes(0, 1, -1.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            SnmpCounter().add_bytes(10.0, 5.0, 1.0)

    def test_bad_bin_seconds(self):
        with pytest.raises(ValueError):
            SnmpCounter(bin_seconds=0)

    def test_bin_boundary_exact(self):
        c = SnmpCounter(bin_seconds=30.0)
        c.add_bytes(0.0, 30.0, 30.0)
        _, counts = c.series()
        assert len(counts) == 1
        assert counts[0] == pytest.approx(30.0)

    def test_utilization(self):
        c = SnmpCounter(bin_seconds=30.0)
        c.add_bytes(0.0, 30.0, 30.0 * 1e9 / 8)  # 1 Gbps for one bin
        util = c.utilization(10e9)
        assert util[0] == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))]
    )
    def test_clone_deposits_into_its_own_bins(self, clone):
        # the bins are an array with a NumPy view over them; a clone must
        # rebuild that pairing, or one-bin adds (on the array) and spans
        # (through the view) would land in different storage
        deposits = [(10.0, 20.0, 1e9), (0.0, 90.0, 3e9), (3000.0, 3000.0, 5.0)]
        original = SnmpCounter(bin_seconds=30.0)
        original.add_bytes(0.0, 100.0, 4e9)
        want = clone(original)
        twin = clone(original)
        ref = SnmpCounter(bin_seconds=30.0)
        ref.add_bytes(0.0, 100.0, 4e9)
        before = original.series()[1].copy()
        for deposit in deposits:
            twin.add_bytes(*deposit)
            ref.add_bytes(*deposit)
        assert np.asarray(twin._counts).tobytes() == np.asarray(ref._counts).tobytes()
        assert twin.series()[1].tobytes() == ref.series()[1].tobytes()
        assert twin.total_bytes() == ref.total_bytes()
        assert np.array_equal(original.series()[1], before)
        assert np.array_equal(want.series()[1], before)

    def test_accumulation_over_multiple_deposits(self):
        c = SnmpCounter(bin_seconds=30.0)
        c.add_bytes(0.0, 30.0, 100.0)
        c.add_bytes(10.0, 20.0, 50.0)
        _, counts = c.series()
        assert counts[0] == pytest.approx(150.0)

    @given(
        st.floats(min_value=0, max_value=1e4),
        st.floats(min_value=1e-3, max_value=1e4),
        st.floats(min_value=0, max_value=1e9),
    )
    @settings(max_examples=80)
    def test_conservation_property(self, start, length, nbytes):
        c = SnmpCounter(bin_seconds=30.0)
        c.add_bytes(start, start + length, nbytes)
        assert c.total_bytes() == pytest.approx(nbytes, rel=1e-9, abs=1e-6)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=5e3),
                st.floats(min_value=0, max_value=1e3),
                st.floats(min_value=0, max_value=1e8),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_multi_deposit_conservation(self, deposits):
        c = SnmpCounter(bin_seconds=30.0)
        total = 0.0
        for start, length, nbytes in deposits:
            c.add_bytes(start, start + length, nbytes)
            total += nbytes
        assert c.total_bytes() == pytest.approx(total, rel=1e-9, abs=1e-6)


class TestSnmpCollector:
    def test_counter_created_on_touch(self):
        col = SnmpCollector()
        col.counter(("a", "b")).add_bytes(0, 10, 5.0)
        assert ("a", "b") in col.keys()

    def test_path_deposit(self):
        col = SnmpCollector()
        links = [("a", "b"), ("b", "c")]
        col.add_bytes(links, 0.0, 10.0, 99.0)
        for key in links:
            assert col.counter(key).total_bytes() == pytest.approx(99.0)

    def test_export_naming(self):
        col = SnmpCollector()
        col.add_bytes([("rt-x", "rt-y")], 0, 30, 10.0)
        exported = col.export()
        assert "rt-x--rt-y" in exported
        starts, counts = exported["rt-x--rt-y"]
        assert counts.sum() == pytest.approx(10.0)

    def test_export_subset(self):
        col = SnmpCollector()
        col.add_bytes([("a", "b"), ("c", "d")], 0, 10, 1.0)
        exported = col.export(keys=[("a", "b")])
        assert list(exported) == ["a--b"]

    @pytest.mark.parametrize(
        "t_start, t_end, nbytes",
        [(30.0, 40.0, -1.0), (40.0, 30.0, 1.0), (5.0, 10.0, 1.0)],
        ids=["negative-bytes", "reversed", "before-epoch"],
    )
    def test_bad_deposit_refused_and_not_recorded(self, t_start, t_end, nbytes):
        col = SnmpCollector(t0=20.0)
        with pytest.raises(ValueError):
            col.add_bytes([("a", "b")], t_start, t_end, nbytes)
        assert col.keys() == []

    def test_zero_bytes_registers_every_link(self):
        col = SnmpCollector()
        col.add_bytes([("a", "b"), ("c", "d")], 0.0, 10.0, 0.0)
        assert col.keys() == [("a", "b"), ("c", "d")]
        assert all(col.counter(k).n_bins == 0 for k in col.keys())


# -- differential test against the per-counter deposit arithmetic ------------


class ReferenceCounter:
    """The per-counter deposit arithmetic the package replaced.

    Every deposit checks its inputs and rebuilds the bin split on its
    own; :class:`SnmpCollector` splits once per interval and must land
    on the same bits.
    """

    def __init__(self, t0, bin_seconds):
        self.t0 = float(t0)
        self.bin_seconds = float(bin_seconds)
        self._counts = np.zeros(0, dtype=np.float64)

    def _ensure(self, k):
        if k >= self._counts.size:
            grown = np.zeros(max(k + 1, 2 * self._counts.size, 64), dtype=np.float64)
            grown[: self._counts.size] = self._counts
            self._counts = grown

    def add_bytes(self, t_start, t_end, nbytes):
        if nbytes < 0:
            raise ValueError("byte count must be non-negative")
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        if t_start < self.t0:
            raise ValueError(f"deposit at {t_start} precedes counter epoch {self.t0}")
        if nbytes == 0:
            return
        if t_end == t_start:
            k = int((t_start - self.t0) // self.bin_seconds)
            self._ensure(k)
            self._counts[k] += nbytes
            return
        k_first = int((t_start - self.t0) // self.bin_seconds)
        k_last = int(math.ceil((t_end - self.t0) / self.bin_seconds)) - 1
        k_last = max(k_last, k_first)
        self._ensure(k_last)
        edges = self.t0 + np.arange(k_first, k_last + 2) * self.bin_seconds
        lo = np.maximum(edges[:-1], t_start)
        hi = np.minimum(edges[1:], t_end)
        overlap = np.clip(hi - lo, 0.0, None)
        frac = overlap / (t_end - t_start)
        self._counts[k_first : k_last + 1] += nbytes * frac


class ReferenceCollector:
    def __init__(self, t0, bin_seconds):
        self.t0, self.bin_seconds = t0, bin_seconds
        self.counters = {}

    def add_bytes(self, links, t_start, t_end, nbytes):
        for key in links:
            if key not in self.counters:
                self.counters[key] = ReferenceCounter(self.t0, self.bin_seconds)
            self.counters[key].add_bytes(t_start, t_end, nbytes)


LINKS = [(f"n{i}", f"n{i + 1}") for i in range(8)]


def assert_same_storage(counter, want):
    """The counter's whole bin storage, trailing grown zeros included,
    equals the reference's: length, float64 dtype and every byte."""
    got = np.asarray(counter._counts)
    assert got.dtype == want._counts.dtype == np.float64
    assert got.size == want._counts.size
    assert got.tobytes() == want._counts.tobytes()


def _nudge(x, steps):
    """``x`` moved ``steps`` (-1, 0 or +1) representable floats."""
    return x if steps == 0 else math.nextafter(x, math.copysign(math.inf, steps))


@st.composite
def deposit_streams(draw):
    """(t0, bin_seconds, runs): each run is one interval and its deposits.

    Starts and ends are free, on a bin edge, or one ``nextafter`` step
    either side of it; ends also coincide with the start (zero length)
    or reach several hundred bins on.  A run deposits on many links, as
    every flow settled by one simulator advance does.  Far from an epoch
    like 1234.567 the subtraction ``t_end - t0`` rounds, so an end one
    step past an edge can still split into one bin with a share below 1.
    """
    t0 = draw(st.sampled_from([0.0, 12.25, 1234.567]))
    bin_seconds = draw(st.sampled_from([30.0, 7.5]))

    def point(lo):
        if draw(st.booleans()):
            return lo + draw(st.floats(0.0, 40 * bin_seconds))
        k = math.ceil((lo - t0) / bin_seconds) + draw(st.integers(0, 3))
        return max(_nudge(t0 + k * bin_seconds, draw(st.integers(-1, 1))), lo)

    runs = []
    for _ in range(draw(st.integers(1, 6))):
        t_start = point(t0 + draw(st.floats(0.0, 3000 * bin_seconds)))
        shape = draw(st.sampled_from(["zero", "point", "long"]))
        if shape == "zero":
            t_end = t_start
        elif shape == "point":
            t_end = point(t_start)
        else:
            t_end = t_start + draw(st.floats(100 * bin_seconds, 600 * bin_seconds))
        deposits = draw(st.lists(
            st.tuples(
                st.lists(st.sampled_from(LINKS), max_size=6),
                st.one_of(st.just(0.0), st.floats(0.0, 1e11)),
            ),
            min_size=1,
            max_size=8,
        ))
        runs.append((t_start, t_end, deposits))
    return t0, bin_seconds, runs


@given(deposit_streams())
@settings(max_examples=150, deadline=None)
def test_deposits_match_per_counter_reference(stream):
    """A collector and a lone counter land on the reference's bits."""
    t0, bin_seconds, runs = stream
    col = SnmpCollector(t0, bin_seconds)
    ref = ReferenceCollector(t0, bin_seconds)
    lone, lone_ref = SnmpCounter(t0, bin_seconds), ReferenceCounter(t0, bin_seconds)
    for t_start, t_end, deposits in runs:
        for links, nbytes in deposits:
            col.add_bytes(links, t_start, t_end, nbytes)
            ref.add_bytes(links, t_start, t_end, nbytes)
            lone.add_bytes(t_start, t_end, nbytes)
            lone_ref.add_bytes(t_start, t_end, nbytes)
    assert col.keys() == list(ref.counters)
    for key, want in ref.counters.items():
        assert_same_storage(col.counter(key), want)
    assert_same_storage(lone, lone_ref)


@pytest.mark.parametrize("t0", [0.0, 1234.567])
@pytest.mark.parametrize("bin_seconds", [30.0, 7.5])
def test_bin_edge_neighbourhood_matches_reference(t0, bin_seconds):
    """Start/end pairs within one step of the first edges and of those
    past 12,000 s, where ``t - 1234.567`` rounds: there an end one step
    past an edge splits into one bin with a share below 1."""
    far = int(12_000 / bin_seconds)
    points = sorted({
        max(_nudge(t0 + k * bin_seconds, step), t0)
        for k in (0, 1, 2, 3, far, far + 1, far + 2, far + 3)
        for step in (-1, 0, 1)
    })
    col = SnmpCollector(t0, bin_seconds)
    ref = ReferenceCollector(t0, bin_seconds)
    for i, t_start in enumerate(points):
        for t_end in points[i:]:
            col.add_bytes(LINKS[:3], t_start, t_end, 1e9 + t_end)
            ref.add_bytes(LINKS[:3], t_start, t_end, 1e9 + t_end)
    for key, want in ref.counters.items():
        assert_same_storage(col.counter(key), want)
