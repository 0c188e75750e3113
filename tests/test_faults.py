"""Tests for the fault-injection subsystem: specs, injector, recovery."""

import math

import numpy as np
import pytest

from repro.faults.injector import FaultInjector, storm_injector
from repro.faults.recovery import BackoffPolicy, RecoveryStats, reserve_with_retry
from repro.faults.spec import FaultKind, FaultSpec
from repro.gridftp.reliability import CircuitOutageTracker
from repro.net.topology import esnet_like
from repro.vc.circuits import CircuitState, VirtualCircuit
from repro.vc.oscars import OscarsIDC, ReservationRejected, ReservationRequest
from repro.vc.policy import FallbackMode, FallbackPolicy


def _vc(**kw):
    defaults = dict(
        circuit_id=1, path=("A", "B"), rate_bps=1e9,
        start_time=0.0, end_time=100.0,
    )
    defaults.update(kw)
    return VirtualCircuit(**defaults)


class TestFaultSpec:
    def test_per_request_needs_valid_probability(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.IDC_REJECTION, probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.VC_SETUP_TIMEOUT, probability=-0.1)

    def test_time_driven_needs_valid_rate_and_duration(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.CIRCUIT_FLAP, rate_per_hour=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.LINK_OUTAGE, rate_per_hour=1.0, duration_s=0.0)

    # construction only: a NaN rate or duration that reached the
    # injector's draw loop would never end it
    @pytest.mark.parametrize("kind", [FaultKind.IDC_REJECTION, FaultKind.CIRCUIT_FLAP])
    @pytest.mark.parametrize(
        "field", ["probability", "rate_per_hour", "duration_s", "extra_delay_s"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_intensity_is_refused(self, kind, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            FaultSpec(kind, **{field: value})

    def test_window_bounds_liveness(self):
        spec = FaultSpec(
            FaultKind.IDC_REJECTION, probability=0.5, window=(100.0, 200.0)
        )
        assert not spec.active_at(99.9)
        assert spec.active_at(100.0)
        assert not spec.active_at(200.0)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.IDC_REJECTION, window=(5.0, 5.0))

    def test_target_matching(self):
        anywhere = FaultSpec(FaultKind.CIRCUIT_FLAP, rate_per_hour=1.0)
        scoped = FaultSpec(
            FaultKind.ENDPOINT_OUTAGE, rate_per_hour=1.0, target="NERSC"
        )
        assert anywhere.matches("anything")
        assert scoped.matches("NERSC")
        assert not scoped.matches("ORNL")


class TestStormInjector:
    @pytest.mark.parametrize(
        "knob",
        ["rejection_prob", "setup_timeout_prob", "flaps_per_hour",
         "endpoint_outages_per_hour"],
    )
    @pytest.mark.parametrize("value", [math.nan, -5.0, math.inf])
    def test_knob_outside_zero_to_inf_is_refused(self, knob, value):
        # never read as "off" the way a knob at zero is
        with pytest.raises(ValueError, match=rf"^{knob} must be in \[0, inf\)"):
            storm_injector(0, **{knob: value})

    def test_every_knob_at_zero_is_no_injector(self):
        assert storm_injector(0) is None


class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        specs = [
            FaultSpec(FaultKind.IDC_REJECTION, probability=0.5),
            FaultSpec(FaultKind.CIRCUIT_FLAP, rate_per_hour=20.0, duration_s=10.0),
        ]
        a = FaultInjector(specs, seed=9)
        b = FaultInjector(specs, seed=9)
        assert [a.reservation_fault(t) for t in range(50)] == [
            b.reservation_fault(t) for t in range(50)
        ]
        assert a.flap_intervals(0.0, 7200.0) == b.flap_intervals(0.0, 7200.0)

    def test_adding_a_spec_does_not_reshuffle_others(self):
        """Per-spec child generators: fault families are independent."""
        flap = FaultSpec(FaultKind.CIRCUIT_FLAP, rate_per_hour=20.0)
        alone = FaultInjector([flap], seed=4).flap_intervals(0.0, 3600.0)
        with_rejections = FaultInjector(
            [flap, FaultSpec(FaultKind.IDC_REJECTION, probability=0.9)], seed=4
        )
        for t in range(10):
            with_rejections.reservation_fault(float(t))
        assert with_rejections.flap_intervals(0.0, 3600.0) == alone

    def test_probability_extremes(self):
        always = FaultInjector(
            [FaultSpec(FaultKind.IDC_REJECTION, probability=1.0)], seed=0
        )
        never = FaultInjector(
            [FaultSpec(FaultKind.IDC_REJECTION, probability=0.0)], seed=0
        )
        assert all(always.reservation_fault(t) for t in range(20))
        assert not any(never.reservation_fault(t) for t in range(20))

    def test_flap_rate_scales_hit_count(self):
        def n_flaps(rate):
            inj = FaultInjector(
                [FaultSpec(FaultKind.CIRCUIT_FLAP, rate_per_hour=rate,
                           duration_s=1.0)],
                seed=2,
            )
            return len(inj.flap_intervals(0.0, 100 * 3600.0))

        assert n_flaps(10.0) == pytest.approx(1000, rel=0.2)
        assert n_flaps(1.0) == pytest.approx(100, rel=0.3)

    def test_setup_fault_returns_firing_spec(self):
        inj = FaultInjector(
            [FaultSpec(FaultKind.VC_SETUP_TIMEOUT, probability=1.0,
                       extra_delay_s=300.0)],
            seed=0,
        )
        spec = inj.setup_fault(10.0)
        assert spec is not None
        assert spec.kind is FaultKind.VC_SETUP_TIMEOUT
        assert spec.extra_delay_s == 300.0

    def test_events_audit_log_and_count(self):
        inj = FaultInjector(
            [FaultSpec(FaultKind.IDC_REJECTION, probability=1.0)], seed=0
        )
        inj.reservation_fault(1.0)
        inj.reservation_fault(2.0)
        assert inj.count(FaultKind.IDC_REJECTION) == 2
        assert inj.count(FaultKind.CIRCUIT_FLAP) == 0
        assert [f.time for f in inj.events] == [1.0, 2.0]

    def test_window_gates_time_driven_faults(self):
        inj = FaultInjector(
            [FaultSpec(FaultKind.CIRCUIT_FLAP, rate_per_hour=3600.0,
                       duration_s=0.5, window=(100.0, 200.0))],
            seed=1,
        )
        hits = inj.flap_intervals(0.0, 1000.0)
        assert hits  # ~1/s over a 100 s window
        assert all(100.0 <= a and b <= 200.0 for a, b in hits)


class TestBackoffPolicy:
    def test_exponential_growth_and_cap(self):
        p = BackoffPolicy(base_s=2.0, multiplier=2.0, max_backoff_s=30.0,
                          jitter=0.0)
        assert [p.delay_s(k) for k in range(6)] == [2.0, 4.0, 8.0, 16.0, 30.0, 30.0]

    def test_jitter_brackets_the_delay(self):
        p = BackoffPolicy(base_s=10.0, jitter=0.25)
        rng = np.random.default_rng(0)
        draws = [p.delay_s(0, rng) for _ in range(200)]
        assert all(7.5 <= d <= 12.5 for d in draws)
        assert max(draws) > 11.0 and min(draws) < 9.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_s=0.0)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(max_backoff_s=1.0, base_s=2.0)
        with pytest.raises(ValueError):
            BackoffPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            BackoffPolicy().delay_s(-1)


class TestRecoveryStats:
    def test_merge_sums_elementwise(self):
        a = RecoveryStats(n_retries=1, n_fallbacks=2, n_flaps=3)
        b = RecoveryStats(n_retries=10, n_failures=4, n_migrations=5)
        m = a.merge(b)
        assert m == RecoveryStats(
            n_retries=11, n_fallbacks=2, n_failures=4, n_flaps=3, n_migrations=5
        )

    def test_as_dict_round_trip(self):
        s = RecoveryStats(n_retries=7)
        assert s.as_dict()["n_retries"] == 7
        assert set(s.as_dict()) == {
            "n_retries", "n_fallbacks", "n_failures", "n_flaps", "n_migrations",
            "n_gave_up", "n_torn_down",
        }


class TestReserveWithRetry:
    def _request(self, start=100.0):
        return ReservationRequest(
            src="NERSC", dst="ORNL", bandwidth_bps=1e9,
            start_time=start, end_time=start + 3600.0,
        )

    def test_succeeds_after_injected_rejections(self):
        # seed 8 rejects the first three attempts at probability 0.6
        inj = FaultInjector(
            [FaultSpec(FaultKind.IDC_REJECTION, probability=0.6)], seed=8
        )
        idc = OscarsIDC(esnet_like(), fault_injector=inj)
        stats = RecoveryStats()
        vc, waited = reserve_with_retry(
            idc, self._request(), backoff=BackoffPolicy(max_retries=8, jitter=0.0),
            rng=1, request_time=100.0, stats=stats,
        )
        assert inj.count(FaultKind.IDC_REJECTION) >= 1
        assert stats.n_retries == inj.count(FaultKind.IDC_REJECTION)
        assert waited > 0.0
        assert vc.state is CircuitState.RESERVED
        # the accepted attempt was re-stamped: no reservation in the past
        assert vc.start_time >= 100.0 + waited

    def test_exhaustion_reraises_and_counts_failure(self):
        inj = FaultInjector(
            [FaultSpec(FaultKind.IDC_REJECTION, probability=1.0)], seed=0
        )
        idc = OscarsIDC(esnet_like(), fault_injector=inj)
        stats = RecoveryStats()
        backoff = BackoffPolicy(base_s=1.0, max_backoff_s=2.0, max_retries=3,
                                jitter=0.0)
        with pytest.raises(ReservationRejected):
            reserve_with_retry(
                idc, self._request(), backoff=backoff, rng=1,
                request_time=100.0, stats=stats,
            )
        assert stats.n_failures == 1
        assert stats.n_retries == 3

    def test_clean_idc_is_single_attempt(self):
        idc = OscarsIDC(esnet_like())
        vc, waited = reserve_with_retry(idc, self._request(), rng=1,
                                        request_time=100.0)
        assert waited == 0.0
        assert vc.rate_bps == 1e9

    def test_setup_timeout_inflates_ready_time(self):
        inj = FaultInjector(
            [FaultSpec(FaultKind.VC_SETUP_TIMEOUT, probability=1.0,
                       extra_delay_s=500.0)],
            seed=0,
        )
        idc = OscarsIDC(esnet_like(), fault_injector=inj)
        clean = OscarsIDC(esnet_like())
        slow = idc.create_reservation(self._request(), request_time=100.0)
        fast = clean.create_reservation(self._request(), request_time=100.0)
        assert slow.start_time == pytest.approx(fast.start_time + 500.0)

    def test_setup_failure_is_retryable_rejection(self):
        inj = FaultInjector(
            [FaultSpec(FaultKind.VC_SETUP_FAILURE, probability=1.0)], seed=0
        )
        idc = OscarsIDC(esnet_like(), fault_injector=inj)
        with pytest.raises(ReservationRejected):
            idc.create_reservation(self._request(), request_time=100.0)


class TestCircuitFailureLifecycle:
    def test_fail_and_restore(self):
        vc = _vc()
        vc.activate()
        vc.fail()
        assert vc.state is CircuitState.FAILED
        vc.restore()
        assert vc.state is CircuitState.ACTIVE

    def test_listeners_see_transitions_in_order(self):
        vc = _vc()
        seen = []
        vc.subscribe(lambda c, old, new: seen.append((old, new)))
        vc.activate()
        vc.fail()
        vc.restore()
        vc.release()
        assert seen == [
            (CircuitState.RESERVED, CircuitState.ACTIVE),
            (CircuitState.ACTIVE, CircuitState.FAILED),
            (CircuitState.FAILED, CircuitState.ACTIVE),
            (CircuitState.ACTIVE, CircuitState.RELEASED),
        ]

    def test_invalid_transitions(self):
        vc = _vc()
        with pytest.raises(RuntimeError):
            vc.restore()  # not failed
        vc.activate()
        vc.release()
        with pytest.raises(RuntimeError):
            vc.fail()  # released circuits stay dead


class TestCircuitOutageTracker:
    def test_records_failed_episodes(self):
        t = [0.0]
        tracker = CircuitOutageTracker(lambda: t[0])
        vc = _vc()
        tracker.watch(vc)
        vc.activate()
        t[0] = 10.0
        vc.fail()
        t[0] = 14.0
        vc.restore()
        assert tracker.intervals == [(10.0, 14.0)]
        assert tracker.n_flaps == 1

    def test_open_episode_and_clipping(self):
        t = [0.0]
        tracker = CircuitOutageTracker(lambda: t[0])
        vc = _vc()
        tracker.watch(vc)
        t[0] = 5.0
        vc.fail()  # still down
        assert tracker.n_flaps == 1
        out = tracker.outages_after(2.0, horizon=20.0)
        assert out == [(3.0, 18.0)]
        assert tracker.outages_after(50.0) == [(0.0, math.inf)]


class TestFallbackPolicy:
    def test_within_deadline_waits_for_circuit(self):
        d = FallbackPolicy(setup_deadline_s=120.0).decide(100.0, 161.0)
        assert d.mode is FallbackMode.VC
        assert d.start_time == 161.0
        assert d.wait_s == 61.0
        assert not d.fell_back

    def test_past_deadline_migrates(self):
        d = FallbackPolicy(setup_deadline_s=120.0).decide(100.0, 400.0)
        assert d.mode is FallbackMode.IP_THEN_MIGRATE
        assert d.start_time == 100.0
        assert d.migrate_at == 400.0
        assert d.fell_back

    def test_past_deadline_without_migration_stays_ip(self):
        policy = FallbackPolicy(setup_deadline_s=120.0, migrate_on_activation=False)
        d = policy.decide(100.0, 400.0)
        assert d.mode is FallbackMode.IP
        assert d.migrate_at is None

    def test_ready_in_the_past_starts_now(self):
        d = FallbackPolicy().decide(100.0, 50.0)
        assert d.mode is FallbackMode.VC
        assert d.start_time == 100.0
        assert d.wait_s == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FallbackPolicy(setup_deadline_s=-1.0)


class TestInjectorArm:
    def test_endpoint_outage_downs_incident_links(self):
        from repro.sim.experiment import FluidSimulator, default_dtns

        topo = esnet_like()
        sim = FluidSimulator(topo, default_dtns(topo))
        inj = FaultInjector(
            [FaultSpec(FaultKind.ENDPOINT_OUTAGE, rate_per_hour=30.0,
                       duration_s=20.0, target="ORNL")],
            seed=3,
        )
        installed = inj.arm(sim, 0.0, 3600.0)
        assert installed
        assert all(f.kind is FaultKind.ENDPOINT_OUTAGE for f in installed)
        ornl_links = [k for k in sim._outages if "ORNL" in k]
        assert ornl_links
        assert all("ORNL" in k for k in sim._outages)


class TestScenarioHelpers:
    def test_merge_intervals(self):
        from repro.faults.injector import merge_intervals

        assert merge_intervals([(5.0, 9.0), (1.0, 3.0), (2.0, 4.0)]) == [
            (1.0, 4.0), (5.0, 9.0)
        ]
        assert merge_intervals([]) == []

    def test_scheduler_admission_counters(self):
        from repro.vc.scheduler import AdmissionError, BandwidthScheduler

        topo = esnet_like()
        sched = BandwidthScheduler(topo, reservable_fraction=0.5)
        path = topo.path("NERSC", "ORNL")
        sched.reserve(path, 4e9, 0.0, 100.0)
        with pytest.raises(AdmissionError):
            sched.reserve(path, 4e9, 0.0, 100.0)
        assert sched.n_admitted == 1
        assert sched.n_rejected == 1
