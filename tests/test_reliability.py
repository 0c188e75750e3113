"""Unit and property tests for fault recovery / restart markers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import merge_intervals
from repro.gridftp.reliability import (
    FaultModel,
    ReliableTransferService,
    RestartPolicy,
    ScheduledOutages,
    expected_overhead_factor,
)


class TestFaultModel:
    def test_fault_free_never_faults(self):
        m = FaultModel(0.0)
        assert m.time_to_fault_s(np.random.default_rng(0)) == math.inf

    def test_rate_scales_interarrival(self):
        rng = np.random.default_rng(1)
        fast = np.mean([FaultModel(10.0).time_to_fault_s(rng) for _ in range(500)])
        rng = np.random.default_rng(1)
        slow = np.mean([FaultModel(1.0).time_to_fault_s(rng) for _ in range(500)])
        assert slow == pytest.approx(10 * fast, rel=0.2)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultModel(-1.0)


class TestRestartPolicy:
    def test_resume_rounds_down_to_marker(self):
        p = RestartPolicy(marker_interval_bytes=100.0)
        assert p.resume_point(250.0) == 200.0
        assert p.resume_point(99.0) == 0.0

    def test_no_markers_resume_from_zero(self):
        p = RestartPolicy(marker_interval_bytes=None)
        assert p.resume_point(1e12) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(marker_interval_bytes=0.0)
        with pytest.raises(ValueError):
            RestartPolicy(reconnect_s=-1.0)


class TestService:
    def test_fault_free_single_attempt(self):
        svc = ReliableTransferService(FaultModel(0.0))
        result = svc.execute(1e9, 1e9)
        assert result.succeeded
        assert len(result.attempts) == 1
        assert result.total_wall_s == pytest.approx(8.0)
        assert result.overhead_factor == pytest.approx(1.0)
        assert result.wire_overhead_factor == pytest.approx(1.0)

    def test_faulty_transfer_retries_and_succeeds(self):
        svc = ReliableTransferService(
            FaultModel(faults_per_hour=30.0),
            RestartPolicy(marker_interval_bytes=64e6, reconnect_s=2.0),
            max_attempts=50,
        )
        result = svc.execute(10e9, 1e9, rng=np.random.default_rng(3))
        assert result.succeeded
        assert result.n_faults >= 1
        assert result.total_wall_s > result.clean_wall_s
        assert result.wire_bytes >= result.size_bytes

    def test_retry_budget_exhaustion(self):
        # guaranteed fault every ~0.36 s on an 80 s transfer, 2 attempts
        svc = ReliableTransferService(
            FaultModel(faults_per_hour=10_000.0), max_attempts=2
        )
        result = svc.execute(10e9, 1e9, rng=np.random.default_rng(0))
        assert not result.succeeded
        assert result.overhead_factor == math.inf

    def test_markers_beat_full_restart(self):
        """The reason GridFTP has restart markers (Section II)."""
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        fault = FaultModel(faults_per_hour=60.0)
        with_markers = ReliableTransferService(
            fault, RestartPolicy(marker_interval_bytes=64e6), max_attempts=1000
        )
        without = ReliableTransferService(
            fault, RestartPolicy(marker_interval_bytes=None), max_attempts=1000
        )
        sizes = np.full(30, 8e9)
        t_marked = sum(with_markers.execute(s, 1e9, rng_a).total_wall_s for s in sizes)
        t_naive = sum(without.execute(s, 1e9, rng_b).total_wall_s for s in sizes)
        assert t_naive > 1.3 * t_marked

    def test_validation(self):
        svc = ReliableTransferService(FaultModel(0.0))
        with pytest.raises(ValueError):
            svc.execute(0.0, 1e9)
        with pytest.raises(ValueError):
            svc.execute(1e9, 0.0)
        with pytest.raises(ValueError):
            ReliableTransferService(FaultModel(0.0), max_attempts=0)

    @given(
        st.floats(min_value=1e6, max_value=1e11),
        st.floats(min_value=0.0, max_value=120.0),
    )
    @settings(max_examples=40)
    def test_useful_bytes_property(self, size, fault_rate):
        """When a task succeeds, wire bytes >= size and wall >= clean time."""
        svc = ReliableTransferService(
            FaultModel(fault_rate),
            RestartPolicy(marker_interval_bytes=32e6, reconnect_s=1.0),
            max_attempts=500,
        )
        result = svc.execute(size, 2e9, rng=np.random.default_rng(11))
        if result.succeeded:
            assert result.wire_bytes >= size - 1e-6
            assert result.total_wall_s >= result.clean_wall_s - 1e-9
        assert len(result.attempts) <= 500


class TestExpectedOverhead:
    def test_fault_free_is_one(self):
        assert expected_overhead_factor(
            1e9, 1e9, FaultModel(0.0), RestartPolicy()
        ) == 1.0

    def test_matches_monte_carlo(self):
        fault = FaultModel(faults_per_hour=40.0)
        policy = RestartPolicy(marker_interval_bytes=64e6, reconnect_s=2.0)
        svc = ReliableTransferService(fault, policy, max_attempts=10_000)
        rng = np.random.default_rng(5)
        sims = [svc.execute(16e9, 1e9, rng).overhead_factor for _ in range(300)]
        predicted = expected_overhead_factor(16e9, 1e9, fault, policy)
        assert np.mean(sims) == pytest.approx(predicted, rel=0.15)

    def test_no_markers_overhead_grows_with_size(self):
        fault = FaultModel(faults_per_hour=60.0)
        naive = RestartPolicy(marker_interval_bytes=None)
        small = expected_overhead_factor(1e9, 1e9, fault, naive)
        large = expected_overhead_factor(64e9, 1e9, fault, naive)
        assert large > 2 * small

    def test_markers_bound_overhead(self):
        fault = FaultModel(faults_per_hour=60.0)
        marked = RestartPolicy(marker_interval_bytes=64e6)
        small = expected_overhead_factor(1e9, 1e9, fault, marked)
        large = expected_overhead_factor(64e9, 1e9, fault, marked)
        # per-segment overhead is size-independent: the factor is flat
        assert large == pytest.approx(small, rel=0.05)

    def test_matches_monte_carlo_at_high_fault_rate(self):
        """λd ≈ 1.7 per segment: deep in the retry-heavy regime."""
        fault = FaultModel(faults_per_hour=1200.0)  # one fault per 3 s
        policy = RestartPolicy(marker_interval_bytes=64e6, reconnect_s=0.0)
        # segment duration d = 64e6*8/1e8 = 5.12 s -> λd ≈ 1.71
        svc = ReliableTransferService(fault, policy, max_attempts=100_000)
        rng = np.random.default_rng(17)
        sims = [svc.execute(1e9, 1e8, rng).overhead_factor for _ in range(400)]
        predicted = expected_overhead_factor(1e9, 1e8, fault, policy)
        lam_d = (1200.0 / 3600.0) * (64e6 * 8.0 / 1e8)
        assert lam_d > 1.0
        assert predicted > 2.0  # (e^{λd}-1)/(λd) blows past linear growth
        assert np.mean(sims) == pytest.approx(predicted, rel=0.15)

    def test_no_marker_restart_from_zero_matches_closed_form(self):
        """Whole file = one segment: E[T] = (e^{λT0} − 1)/λ."""
        fault = FaultModel(faults_per_hour=180.0)  # λT0 = 0.8 on a 16 s file
        policy = RestartPolicy(marker_interval_bytes=None, reconnect_s=0.0)
        svc = ReliableTransferService(fault, policy, max_attempts=100_000)
        rng = np.random.default_rng(23)
        sims = [svc.execute(2e9, 1e9, rng).overhead_factor for _ in range(400)]
        predicted = expected_overhead_factor(2e9, 1e9, fault, policy)
        assert predicted > 1.3
        assert np.mean(sims) == pytest.approx(predicted, rel=0.15)

    def test_no_marker_never_finishes_regime(self):
        """λT0 >> 1 without markers: success within any retry budget ~ 0.

        Per attempt P(success) = e^{-λT0}; at λT0 = 20 even 50 attempts
        leave overall success probability below 1e-7 — the "may *never*
        finish" bound restart markers exist to break.
        """
        rate = 1e9
        size = 10e9  # T0 = 80 s
        lam_T0 = 20.0
        fault = FaultModel(faults_per_hour=lam_T0 / 80.0 * 3600.0)
        svc = ReliableTransferService(
            fault, RestartPolicy(marker_interval_bytes=None), max_attempts=50
        )
        result = svc.execute(size, rate, rng=np.random.default_rng(1))
        assert not result.succeeded
        assert len(result.attempts) == 50
        assert all(a.faulted for a in result.attempts)
        # the same environment WITH markers finishes fine: per-segment
        # λd = 20 * 64e6/10e9 = 0.128
        marked = ReliableTransferService(
            fault, RestartPolicy(marker_interval_bytes=64e6), max_attempts=10_000
        )
        assert marked.execute(size, rate, rng=np.random.default_rng(1)).succeeded


class TestExecuteWithOutages:
    def test_no_outages_equals_plain_execute(self):
        svc = ReliableTransferService(FaultModel(0.0))
        a = svc.execute(1e9, 1e9, outages=[])
        assert a.succeeded
        assert a.total_wall_s == pytest.approx(8.0)
        assert a.n_faults == 0

    def test_outage_interrupts_and_resumes_from_marker(self):
        svc = ReliableTransferService(
            FaultModel(0.0),
            RestartPolicy(marker_interval_bytes=100e6, reconnect_s=2.0),
        )
        # 1 GB at 1 Gbps: 8 s clean; outage hits at t=3 (375 MB done,
        # marker at 300 MB), path dark until t=10
        r = svc.execute(1e9, 1e9, outages=[(3.0, 10.0)])
        assert r.succeeded
        assert r.n_faults == 1
        # wall: 3 (until fault) + wait to 10 + 2 reconnect + 5.6 (700 MB)
        assert r.total_wall_s == pytest.approx(10.0 + 2.0 + 0.7 * 8.0)
        assert r.wire_bytes == pytest.approx(1e9 + 75e6)

    def test_back_to_back_outages_consume_attempts(self):
        svc = ReliableTransferService(
            FaultModel(0.0),
            RestartPolicy(marker_interval_bytes=100e6, reconnect_s=1.0),
            max_attempts=3,
        )
        # three outages, only three attempts: third outage kills it
        r = svc.execute(
            10e9, 1e9, outages=[(2.0, 4.0), (8.0, 9.0), (14.0, 15.0)]
        )
        assert not r.succeeded
        assert len(r.attempts) == 3

    def test_outage_validation(self):
        svc = ReliableTransferService(FaultModel(0.0))
        with pytest.raises(ValueError):
            svc.execute(1e9, 1e9, outages=[(5.0, 5.0)])
        with pytest.raises(ValueError):
            svc.execute(0.0, 1e9, outages=[])

    def test_zero_length_window_rejected_even_among_valid_ones(self):
        svc = ReliableTransferService(FaultModel(0.0))
        with pytest.raises(ValueError, match="positive duration"):
            svc.execute(
                1e9, 1e9, outages=[(1.0, 2.0), (5.0, 5.0), (7.0, 9.0)]
            )
        with pytest.raises(ValueError, match="positive duration"):
            svc.execute(1e9, 1e9, outages=[(6.0, 4.0)])  # inverted

    def test_outage_starting_exactly_at_transfer_start(self):
        svc = ReliableTransferService(
            FaultModel(0.0),
            RestartPolicy(marker_interval_bytes=100e6, reconnect_s=2.0),
        )
        # the path is already dark at t=0: the first attempt must move
        # zero bytes, the transfer stalls to t_up, pays the reconnect,
        # and then runs clean — it must NOT sail through the outage
        r = svc.execute(1e9, 1e9, outages=[(0.0, 10.0)])
        assert r.succeeded
        assert r.n_faults == 1
        assert r.attempts[0].bytes_moved == 0.0
        assert r.attempts[0].wall_s == 0.0
        assert r.total_wall_s == pytest.approx(10.0 + 2.0 + 8.0)
        assert r.wire_bytes == pytest.approx(1e9)

    def test_outage_starting_exactly_at_resume_point(self):
        svc = ReliableTransferService(
            FaultModel(0.0),
            RestartPolicy(marker_interval_bytes=100e6, reconnect_s=2.0),
        )
        # first outage ends at t=6, reconnect lands the resume at t=8,
        # and a second outage begins exactly there: the resumed attempt
        # is interrupted immediately, not granted a free ride
        r = svc.execute(1e9, 1e9, outages=[(3.0, 6.0), (8.0, 11.0)])
        assert r.succeeded
        assert r.n_faults == 2
        assert r.attempts[1].bytes_moved == 0.0
        # 3 dark-until-6 +2 reconnect = 8; dark-until-11 +2 = 13; then
        # the 700 MB past the 300 MB marker run clean
        assert r.total_wall_s == pytest.approx(11.0 + 2.0 + 0.7 * 8.0)

    def test_overlapping_windows_behave_like_their_merge(self):
        # ScheduledOutages merges the flap schedules producers bind (the
        # chaos runner merges its own); the executor must treat the raw
        # overlapping schedule and its merge identically, so an unmerged
        # schedule slipping through changes nothing
        svc = ReliableTransferService(
            FaultModel(0.0),
            RestartPolicy(marker_interval_bytes=100e6, reconnect_s=2.0),
        )
        raw = [(3.0, 10.0), (5.0, 12.0), (12.0, 14.0), (25.0, 26.0)]
        merged = merge_intervals(raw)
        assert merged == [(3.0, 14.0), (25.0, 26.0)]
        a = svc.execute(1e9, 1e9, outages=raw)
        b = svc.execute(1e9, 1e9, outages=merged)
        assert a.succeeded and b.succeeded
        assert a.total_wall_s == pytest.approx(b.total_wall_s)
        assert a.n_faults == b.n_faults == 1
        assert a.wire_bytes == pytest.approx(b.wire_bytes)
        # one coalesced outage: dark until 14, reconnect, clean finish
        # (the 25 s window opens after the transfer already ended)
        assert a.total_wall_s == pytest.approx(14.0 + 2.0 + 0.7 * 8.0)

    def test_contained_window_is_absorbed_by_its_container(self):
        svc = ReliableTransferService(
            FaultModel(0.0),
            RestartPolicy(marker_interval_bytes=100e6, reconnect_s=2.0),
        )
        inner = svc.execute(1e9, 1e9, outages=[(3.0, 10.0), (4.0, 5.0)])
        plain = svc.execute(1e9, 1e9, outages=[(3.0, 10.0)])
        assert inner.n_faults == plain.n_faults == 1
        assert inner.total_wall_s == pytest.approx(plain.total_wall_s)


class TestRideFile:
    """The per-file step the managed service and the daemon share."""

    @staticmethod
    def _svc(max_attempts=10):
        return ReliableTransferService(
            FaultModel(0.0),
            RestartPolicy(marker_interval_bytes=100e6, reconnect_s=2.0),
            max_attempts=max_attempts,
        )

    def test_outage_inside_a_successful_file_counts(self):
        # the ride's clock is 100: the 103-110 outage lands 3 s into
        # the 8 s file, which resumes from its 300 MB marker
        history = ScheduledOutages([(103.0, 110.0)])
        result, n = self._svc().ride_file(1e9, 1e9, history, 100.0)
        assert result.succeeded and result.n_faults == 1
        assert n == 1
        assert result.total_wall_s == pytest.approx(10.0 + 2.0 + 0.7 * 8.0)

    def test_outage_after_the_file_ends_does_not_count(self):
        history = ScheduledOutages([(103.0, 110.0), (500.0, 510.0)])
        result, n = self._svc().ride_file(1e9, 1e9, history, 100.0)
        assert result.succeeded and n == 1
        clear = ScheduledOutages([(500.0, 510.0)])
        result, n = self._svc().ride_file(1e9, 1e9, clear, 100.0)
        assert result.succeeded and result.n_faults == 0
        assert n == 0

    def test_failed_file_counts_nothing(self):
        # three outages, three attempts: the third outage kills the file
        history = ScheduledOutages([(2.0, 4.0), (8.0, 9.0), (14.0, 15.0)])
        result, n = self._svc(max_attempts=3).ride_file(10e9, 1e9, history, 0.0)
        assert not result.succeeded and result.n_faults == 3
        assert n == 0

    def test_no_history_is_a_plain_execute(self):
        svc = ReliableTransferService(FaultModel(60.0))
        a, n = svc.ride_file(8e9, 1e9, None, 50.0, np.random.default_rng(3))
        assert a == svc.execute(8e9, 1e9, np.random.default_rng(3))
        assert n == 0


class TestRngHygiene:
    def test_unseeded_runs_are_not_replays(self):
        """rng=None must draw fresh entropy, not silently seed 0."""
        svc = ReliableTransferService(
            FaultModel(faults_per_hour=600.0),
            RestartPolicy(marker_interval_bytes=64e6),
            max_attempts=10_000,
        )
        walls = {round(svc.execute(8e9, 1e9).total_wall_s, 6) for _ in range(5)}
        assert len(walls) > 1

    def test_seeded_runs_replay(self):
        svc = ReliableTransferService(
            FaultModel(faults_per_hour=600.0),
            RestartPolicy(marker_interval_bytes=64e6),
        )
        a = svc.execute(8e9, 1e9, rng=np.random.default_rng(5))
        b = svc.execute(8e9, 1e9, rng=np.random.default_rng(5))
        assert a.total_wall_s == b.total_wall_s

    def test_ensure_rng_contract(self):
        from repro.core.rng import ensure_rng

        g = np.random.default_rng(3)
        assert ensure_rng(g) is g
        assert ensure_rng(7).random() == np.random.default_rng(7).random()
        assert isinstance(ensure_rng(None), np.random.Generator)
