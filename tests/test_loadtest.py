"""The open-loop load-test harness: generators, SLO report, both drivers.

Bottom-up over :mod:`repro.service.loadtest` — the arrival-process
generators (Poisson, interrupted-Poisson bursts, the Fig. 6 diurnal
shape), the request mix, the latency recorder, and the
:class:`LoadTestReport` contract checks — then the two drivers:

* the **deterministic twin** (:func:`run_loadtest_sim`): two runs with
  one seed produce byte-identical censuses and quantiles, overload
  sheds against the admission bound, underload settles everything;
* the **live driver** (:func:`run_loadtest`): a real in-process daemon
  under a genuinely open-loop storm — the ledger balances against the
  daemon's own counters and the report validates — including the fault
  storm: injected faults plus crash ops, with loops restarting,
  ``/health`` ok at every sample and a clean drain; and an external
  daemon driven over its socket.
"""

import asyncio
import contextlib
import dataclasses
import json
import math
import threading

import numpy as np
import pytest

from repro.service.admission import SHED_REASONS
from repro.service.daemon import EXIT_DRAINED, DaemonConfig, TransferDaemon
from repro.service.loadtest import (
    FIG6_HOURLY,
    LatencyRecorder,
    RequestMix,
    _classify,
    build_schedule,
    diurnal_schedule,
    fig6_profile,
    onoff_schedule,
    poisson_schedule,
    run_loadtest,
    run_loadtest_sim,
)
from repro.workload.diurnal import hourly_histogram


# ---------------------------------------------------------------------------
# arrival-process generators


class TestPoissonSchedule:
    def test_shape_and_order(self):
        times = poisson_schedule(200, 0.5, np.random.default_rng(1))
        assert times.shape == (200,)
        assert np.all(times > 0)
        assert np.all(np.diff(times) >= 0)

    def test_seeded_replay(self):
        a = poisson_schedule(100, 0.2, np.random.default_rng(7))
        b = poisson_schedule(100, 0.2, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_mean_gap_tracks_the_rate(self):
        times = poisson_schedule(5000, 0.25, np.random.default_rng(3))
        mean_gap = float(times[-1]) / 5000
        assert 3.5 < mean_gap < 4.5  # 1/rate = 4 s

    @pytest.mark.parametrize("kwargs", [
        {"n": 0, "rate_per_s": 1.0},
        {"n": 10, "rate_per_s": 0.0},
        {"n": 10, "rate_per_s": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            poisson_schedule(**kwargs)


class TestOnOffSchedule:
    def test_shape_and_order(self):
        times = onoff_schedule(
            300, on_rate_per_s=2.0, mean_on_s=30.0, mean_off_s=120.0,
            rng=np.random.default_rng(5),
        )
        assert times.shape == (300,)
        assert np.all(np.diff(times) >= 0)

    def test_seeded_replay(self):
        kw = dict(on_rate_per_s=1.0, mean_on_s=50.0, mean_off_s=150.0)
        a = onoff_schedule(80, rng=np.random.default_rng(2), **kw)
        b = onoff_schedule(80, rng=np.random.default_rng(2), **kw)
        np.testing.assert_array_equal(a, b)

    def test_burstier_than_poisson(self):
        # the interrupted-Poisson process packs the same count into ON
        # bursts: its inter-arrival gaps have a higher coefficient of
        # variation than the memoryless stream (CV 1 for exponential)
        rng = np.random.default_rng(9)
        bursty = onoff_schedule(
            2000, on_rate_per_s=2.0, mean_on_s=60.0, mean_off_s=240.0,
            rng=rng,
        )
        steady = poisson_schedule(2000, 0.4, np.random.default_rng(9))
        def cv(times):
            gaps = np.diff(times)
            return float(np.std(gaps) / np.mean(gaps))
        assert cv(bursty) > 1.5 > 1.2 > cv(steady)

    def test_validation(self):
        with pytest.raises(ValueError):
            onoff_schedule(10, on_rate_per_s=0.0, mean_on_s=1.0,
                           mean_off_s=1.0)
        with pytest.raises(ValueError):
            onoff_schedule(10, on_rate_per_s=1.0, mean_on_s=0.0,
                           mean_off_s=1.0)
        with pytest.raises(ValueError):
            onoff_schedule(10, on_rate_per_s=1.0, mean_on_s=1.0,
                           mean_off_s=1.0, off_rate_per_s=-0.1)


class TestDiurnalSchedule:
    def test_fig6_shape_is_normalizable(self):
        assert len(FIG6_HOURLY) == 24
        profile = fig6_profile()
        # the cron spikes dominate the curve
        assert FIG6_HOURLY[2] == max(FIG6_HOURLY)
        assert profile.intensity_at(2.5 * 3600.0) > profile.intensity_at(
            22.5 * 3600.0
        )

    def test_arrivals_concentrate_at_the_cron_spikes(self):
        # a full-day storm anchored at midnight: hour 2 (the nightly
        # test cron) must collect far more arrivals than a quiet hour
        times = diurnal_schedule(
            2000, 2000.0 / 86400.0, start_hour=0.0,
            rng=np.random.default_rng(11),
        )
        hist = hourly_histogram(times)
        assert hist[2] > 3 * max(hist[22], 1)
        assert hist[8] > 2 * max(hist[22], 1)

    def test_start_hour_offsets_are_relative(self):
        times = diurnal_schedule(
            50, 0.05, start_hour=1.5, rng=np.random.default_rng(4)
        )
        assert times[0] >= 0.0
        assert np.all(np.diff(times) >= 0)

    def test_seeded_replay(self):
        a = diurnal_schedule(60, 0.02, rng=np.random.default_rng(6))
        b = diurnal_schedule(60, 0.02, rng=np.random.default_rng(6))
        np.testing.assert_array_equal(a, b)


class TestBuildSchedule:
    @pytest.mark.parametrize("kind", ["poisson", "onoff", "diurnal"])
    def test_dispatch(self, kind):
        times = build_schedule(
            {"arrivals": kind, "n_requests": 40, "rate_per_s": 0.5},
            np.random.default_rng(1),
        )
        assert times.shape == (40,)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            build_schedule({"arrivals": "nope"}, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the request mix


class TestRequestMix:
    def test_seeded_replay(self):
        a = RequestMix(50, np.random.default_rng(3), invalid_frac=0.2)
        b = RequestMix(50, np.random.default_rng(3), invalid_frac=0.2)
        assert a.items == b.items

    def test_invalid_frac_marks_negative_sizes(self):
        mix = RequestMix(200, np.random.default_rng(1), invalid_frac=0.25)
        n_invalid = sum(1 for item in mix.items if item["invalid"])
        assert 20 < n_invalid < 80
        for item in mix.items:
            if item["invalid"]:
                assert item["file_sizes"][0] < 0
            else:
                assert all(s > 0 for s in item["file_sizes"])

    def test_extremes(self):
        none = RequestMix(30, np.random.default_rng(2), invalid_frac=0.0)
        assert not any(item["invalid"] for item in none.items)
        every = RequestMix(30, np.random.default_rng(2), invalid_frac=1.0)
        assert all(item["invalid"] for item in every.items)

    def test_validation(self):
        with pytest.raises(ValueError):
            RequestMix(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            RequestMix(5, np.random.default_rng(0), invalid_frac=1.5)


# ---------------------------------------------------------------------------
# the latency recorder


class TestLatencyRecorder:
    def test_quantiles_on_known_data(self):
        rec = LatencyRecorder()
        for v in np.random.default_rng(0).permutation(1000):
            rec.record(float(v))
        s = rec.summary()
        assert rec.count == 1000
        assert abs(s["p50"] - 500) < 25
        assert abs(s["p99"] - 990) < 25
        assert s["p50"] <= s["p95"] <= s["p99"] <= s["max"] == 999
        assert abs(s["mean"] - 499.5) < 1e-6

    def test_empty_summary_is_all_none(self):
        assert all(v is None for v in LatencyRecorder().summary().values())

    def test_rejects_bad_values(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            rec.record(-1.0)
        with pytest.raises(ValueError):
            rec.record(float("nan"))
        with pytest.raises(ValueError):
            rec.record(float("inf"))


# ---------------------------------------------------------------------------
# the deterministic twin


def _sim(params=None, seed=11):
    base = {
        "arrivals": "poisson",
        "n_requests": 300,
        "rate_per_s": 0.5,
        "queue_limit": 12,
        "tenant_quota": 6,
        "workers": 4,
        "invalid_frac": 0.05,
    }
    base.update(params or {})
    return run_loadtest_sim(base, seed)


class TestSimLoadtest:
    def test_same_seed_same_census(self):
        a, b = _sim(), _sim()
        a.validate(), b.validate()
        assert a.census() == b.census()
        # not just the censuses: every latency quantile is bit-identical
        da, db = a.as_dict(), b.as_dict()
        for key in da:
            if key in ("wall_s", "harness_rps"):
                continue  # the only wall-clock-dependent fields
            assert da[key] == db[key], key
        json.dumps(da)  # strict-JSON cacheable

    def test_different_seeds_differ(self):
        assert _sim(seed=11).census() != _sim(seed=12).census()

    def test_overload_sheds_against_the_bound(self):
        # offered far above service capacity: the open-loop stream keeps
        # arriving, the admission bound holds, the excess sheds loudly
        report = _sim({"rate_per_s": 5.0, "n_requests": 400})
        report.validate()
        assert report.n_shed > 50
        assert report.shed_fraction > 0.1
        assert report.outstanding_max <= report.outstanding_bound
        assert sum(report.shed.values()) == report.n_shed
        assert report.retry_after_max_s is not None
        # the hint is in wall seconds: bounded by queue rounds of the
        # wall-domain EWMA, never hundreds of virtual seconds
        assert report.retry_after_max_s < 60.0

    def test_underload_settles_everything(self):
        report = _sim({
            "rate_per_s": 0.005, "n_requests": 40, "invalid_frac": 0.0,
            "tight_deadline_frac": 0.0,
        })
        report.validate()
        assert report.n_shed == 0
        assert report.n_accepted == report.n_succeeded == 40
        assert report.latency_p99_s is not None
        assert report.paths.get("vc", 0) == 40  # nothing forced off the VC

    def test_tight_deadlines_degrade_to_ip(self):
        report = _sim({
            "rate_per_s": 0.005, "n_requests": 60, "invalid_frac": 0.0,
            "tight_deadline_frac": 1.0, "tight_deadline_s": 45.0,
        })
        report.validate()
        # a 45 s budget usually cannot absorb the batch-signalling wait
        # (up to 61 s) — most requests leave the VC rung; the few that
        # arrive just before a batch boundary still squeeze onto it
        assert report.paths.get("ip-degraded", 0) > report.paths.get("vc", 0)
        assert sum(report.paths.values()) == report.n_accepted

    def test_invalid_submissions_enter_the_ledger(self):
        report = _sim({"invalid_frac": 0.3, "rate_per_s": 0.01,
                       "n_requests": 100})
        report.validate()
        assert report.n_invalid > 10
        assert (
            report.n_offered
            == report.n_accepted + report.n_shed + report.n_invalid
        )

    def test_latency_domain_is_virtual(self):
        report = _sim()
        assert report.mode == "sim"
        assert report.latency_domain == "virtual"
        assert report.duration_s > 0
        assert report.n_outstanding_samples > 0


# ---------------------------------------------------------------------------
# the live open-loop driver


#: the fault storm: injected faults plus one crash op, at a mean offered
#: rate of one request per virtual minute.  The bounds admit all 16
#: requests, so no submission is shed and the invalid census is exactly
#: the mix's
_STORM = {
    "n_requests": 16,
    "n_tenants": 2,
    "rate_per_s": 1 / 60,
    "invalid_frac": 0.1,
    "queue_limit": 16,
    "tenant_quota": 16,
    "time_scale": 3000.0,
    "n_crashes": 1,
    "reject_prob": 0.3,
    "setup_timeout_prob": 0.2,
    "flaps_per_hour": 12.0,
}


@contextlib.contextmanager
def _external_daemon(tmp_path, **fields):
    """A daemon serving on its own thread and event loop, drained on exit.

    Yields its socket path; the storm's client runs in the test's
    thread, as it would against a separately started daemon.
    """
    daemon = TransferDaemon(DaemonConfig(
        socket_path=str(tmp_path / "ext.sock"), time_scale=3000.0, **fields
    ))
    serving = threading.Event()
    loops, exit_codes = [], []

    async def serve():
        loops.append(asyncio.get_running_loop())
        ready = asyncio.Event()
        task = asyncio.create_task(
            daemon.serve(ready=ready, install_signals=False)
        )
        await ready.wait()
        serving.set()
        exit_codes.append(await task)

    thread = threading.Thread(target=asyncio.run, args=(serve(),))
    thread.start()
    assert serving.wait(10), "the external daemon never started serving"
    try:
        yield daemon.config.socket_path
    finally:
        loops[0].call_soon_threadsafe(daemon.request_drain)
        thread.join(60)
    assert exit_codes == [EXIT_DRAINED]
    assert daemon.drain_report["metrics"]["n_lost"] == 0


class TestLiveLoadtest:
    def test_in_process_storm_validates(self):
        report = run_loadtest(
            {
                "arrivals": "poisson",
                "n_requests": 30,
                "rate_per_s": 0.08,
                "queue_limit": 8,
                "tenant_quota": 4,
                "workers": 2,
                "time_scale": 3000.0,
                "invalid_frac": 0.1,
            },
            seed=7,
        )
        report.validate()  # ledger, bound, monotone quantiles
        assert report.mode == "live"
        assert report.latency_domain == "wall"
        assert report.n_offered == 30
        # run_loadtest itself cross-checks the client censuses against
        # the daemon's counters; spot-check the interesting slices here
        assert report.n_accepted > 0
        assert report.n_settled == report.n_accepted
        assert report.latency_p99_s is not None
        assert math.isfinite(report.latency_p99_s)
        assert report.n_outstanding_samples > 0
        assert report.outstanding_max <= report.outstanding_bound
        if report.retry_after_max_s is not None:
            # the headline fix: hints come back in *wall* seconds even
            # at time_scale=3000 — never minutes of virtual backoff
            assert report.retry_after_max_s < 30.0
        json.dumps(report.as_dict())

    def test_live_driver_honours_the_params_the_twin_honours(
        self, monkeypatch
    ):
        from repro.service import loadtest

        configs = []

        class _SpyDaemon(loadtest.TransferDaemon):
            def __init__(self, config):
                configs.append(config)
                super().__init__(config)

        monkeypatch.setattr(loadtest, "TransferDaemon", _SpyDaemon)
        run_loadtest(
            {"n_requests": 2, "rate_per_s": 1.0, "time_scale": 3000.0,
             "vc_safety_factor": 2.0, "batch_window_s": 30.0},
            seed=1,
        )
        (config,) = configs
        assert config.vc_safety_factor == 2.0
        assert config.batch_window_s == 30.0

    def test_fault_storm_keeps_the_daemon_contracts(self):
        seed = 5
        report = run_loadtest(_STORM, seed)
        report.validate()  # ledger, bound, shed reasons, health samples
        # the crash op fired, and supervision restarted the loop it hit
        assert report.loop_restarts >= 1
        assert report.n_unhealthy_samples == 0
        assert report.n_outstanding_samples > 0
        # every seeded invalid submission was refused, no more, no less
        rng = np.random.default_rng(seed)
        build_schedule(_STORM, rng)
        mix = RequestMix.from_params(_STORM, rng)
        assert report.n_invalid == sum(item["invalid"] for item in mix.items)
        json.dumps(report.as_dict())

    def test_overload_storm_with_crashes_sheds_for_known_reasons(self):
        report = run_loadtest(
            {**_STORM, "n_requests": 60, "rate_per_s": 2.0, "n_crashes": 3},
            seed=2,
        )
        report.validate()
        assert report.n_shed > 0
        assert set(report.shed) <= set(SHED_REASONS)
        assert report.loop_restarts >= 1

    def test_twin_refuses_crash_ops(self):
        with pytest.raises(ValueError, match="n_crashes"):
            run_loadtest_sim({**_STORM, "n_crashes": 1}, seed=0)

    def test_negative_crash_count_refused(self):
        with pytest.raises(ValueError, match="n_crashes"):
            run_loadtest({**_STORM, "n_crashes": -1}, seed=0)

    def test_external_daemon_without_chaos_ops_refuses_crashes(
        self, tmp_path
    ):
        params = {**_STORM, "reject_prob": 0.0, "setup_timeout_prob": 0.0}
        with _external_daemon(tmp_path) as socket_path:
            # two storms on one daemon: the census checks read deltas
            for seed in (1, 2):
                run_loadtest(
                    {**params, "n_crashes": 0}, seed, socket_path
                ).validate()
            with pytest.raises(ValueError, match="--chaos-ops"):
                run_loadtest(params, 3, socket_path)

    def test_unhealthy_samples_are_counted_and_refused(self, tmp_path):
        # a heartbeat older than its timeout at every sample: /health
        # is never ok, so every status sample counts against the run
        with _external_daemon(
            tmp_path, status_interval_s=5.0, heartbeat_timeout_s=1e-6
        ) as socket_path:
            report = run_loadtest({**_STORM, "n_crashes": 0}, 4, socket_path)
        assert report.n_unhealthy_samples == report.n_outstanding_samples > 0
        with pytest.raises(AssertionError, match="/health"):
            report.validate()

    @pytest.mark.parametrize("hint", [None, 0.0])
    def test_shed_without_a_positive_retry_after_is_refused(self, hint):
        shed = {"ok": False, "status": "rejected", "reason": "queue-full",
                "retry_after_s": hint}
        with pytest.raises(AssertionError, match="retry-after"):
            _classify([shed], [None], LatencyRecorder())

    @pytest.mark.parametrize("broken", [
        lambda r: {"n_accepted": r.n_accepted + 1},
        lambda r: {"outstanding_max": r.outstanding_bound + 1},
        lambda r: {"shed": {**r.shed, "mystery": 0}},
        lambda r: {"n_unhealthy_samples": 1},
    ], ids=["ledger", "bound", "shed-reason", "unhealthy"])
    def test_validate_refuses_a_broken_report(self, broken):
        report = _sim({"n_requests": 60})
        report.validate()
        with pytest.raises(AssertionError):
            dataclasses.replace(report, **broken(report)).validate()

    def test_cli_reports_a_broken_contract_as_fail(
        self, monkeypatch, capsys
    ):
        from repro import cli
        from repro.service import loadtest

        def lost_one(params, seed, socket_path=None):
            raise AssertionError("the drain lost 1 accepted request(s)")

        monkeypatch.setattr(loadtest, "run_loadtest", lost_one)
        assert cli.main(["loadtest", "--n", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "FAIL: the drain lost 1 accepted request(s)\n"
        )

    def test_registered_as_a_scenario(self):
        from repro.experiments.registry import get_scenario

        fn = get_scenario("service_loadtest")
        assert callable(fn)
        result = fn(
            {"mode": "sim", "n_requests": 20, "rate_per_s": 0.02},
            seed=3,
        )
        json.dumps(result)
        assert result["mode"] == "sim"
        assert (
            result["n_offered"]
            == result["n_accepted"] + result["n_shed"] + result["n_invalid"]
        )
