"""Chaos-campaign acceptance tests: retry, fallback, flap recovery.

Each test pins a seed and asserts on the exact recovery behaviour the
fault-injection subsystem must produce — the three demonstrations the
subsystem exists for:

(a) reservation retries with backoff succeeding after injected IDC
    rejections;
(b) fallback-to-IP engaging when VC setup exceeds the deadline (and
    migrating onto the circuit once it activates);
(c) a mid-transfer circuit flap recovered via restart markers.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments.campaigns import ChaosConfig, chaos_sweep, run_chaos
from repro.gridftp.client import TransferJob
from repro.gridftp.reliability import RestartPolicy
from repro.net.topology import esnet_like
from repro.sim.experiment import FluidSimulator, default_dtns
from repro.vc.circuits import VirtualCircuit


class TestRetryAcceptance:
    """(a) rejections are retried with backoff and the session completes."""

    def test_rejections_retried_to_success(self):
        report = run_chaos(ChaosConfig(n_jobs=8, rejection_prob=0.4), seed=7)
        assert report.n_idc_rejections > 0
        assert report.stats.n_retries == report.n_idc_rejections
        assert report.stats.n_failures == 0
        # backoff kept every retry within the setup deadline: no fallbacks
        assert report.modes == ("vc",) * 8
        assert report.n_completed == 8
        assert report.availability == 1.0
        # control-plane noise alone does not hurt goodput
        assert report.goodput_degradation == pytest.approx(0.0, abs=0.02)
        assert report.p99_inflation == pytest.approx(1.0, abs=0.05)

    def test_deterministic_under_seed(self):
        cfg = ChaosConfig(n_jobs=6, rejection_prob=0.4, flaps_per_hour=20.0)
        a = run_chaos(cfg, seed=13)
        b = run_chaos(cfg, seed=13)
        assert a == b
        c = run_chaos(cfg, seed=14)
        assert (a.n_idc_rejections, a.flaps_per_job) != (
            c.n_idc_rejections, c.flaps_per_job
        )


class TestFallbackAcceptance:
    """(b) setup past the deadline falls back to IP, then migrates."""

    def test_timeouts_trigger_fallback_and_migration(self):
        report = run_chaos(ChaosConfig(n_jobs=8, setup_timeout_prob=0.5), seed=3)
        assert report.n_setup_timeouts > 0
        # every timed-out setup (240 s extra > 120 s deadline) fell back
        assert report.stats.n_fallbacks == report.n_setup_timeouts
        assert report.stats.n_migrations == report.n_setup_timeouts
        assert report.modes.count("migrate") == report.n_setup_timeouts
        # fallback means the transfer still completes
        assert report.n_completed == 8

    def test_fallback_without_migration(self):
        from repro.vc.policy import FallbackPolicy

        cfg = ChaosConfig(
            n_jobs=8, setup_timeout_prob=0.5,
            fallback=FallbackPolicy(migrate_on_activation=False),
        )
        report = run_chaos(cfg, seed=3)
        assert report.stats.n_migrations == 0
        assert report.modes.count("ip") == report.n_setup_timeouts
        assert report.n_completed == 8


class TestFlapAcceptance:
    """(c) mid-transfer flaps are survived through restart markers."""

    def test_flaps_recovered_with_bounded_rollback(self):
        cfg = ChaosConfig(n_jobs=8, flaps_per_hour=40.0)
        report = run_chaos(cfg, seed=5)
        assert report.n_flaps_injected > 0
        assert report.n_circuit_flaps_seen == report.n_flaps_injected
        # markers lost something, but far less than one whole transfer
        assert report.marker_rollback_bytes > 0
        assert report.marker_rollback_bytes < cfg.job_bytes
        # every flapped job still finished
        assert report.n_completed == 8
        assert report.availability < 1.0
        # flaps cost real time: the tail inflates, goodput degrades
        assert report.p99_inflation > 1.0
        assert 0.0 < report.goodput_degradation < 0.5

    def test_rollback_bounded_by_marker_interval(self):
        """Each flap re-sends at most one marker interval of bytes."""
        cfg = ChaosConfig(n_jobs=6, flaps_per_hour=40.0)
        report = run_chaos(cfg, seed=5)
        per_flap = cfg.restart.marker_interval_bytes
        assert report.marker_rollback_bytes <= report.n_circuit_flaps_seen * per_flap


class TestChaosSweep:
    def test_sweep_reports_per_rate(self):
        reports = chaos_sweep([0.0, 30.0], seed=11)
        assert [r.flaps_per_hour for r in reports] == [0.0, 30.0]
        calm, stormy = reports
        assert calm.n_flaps_injected == 0
        assert calm.marker_rollback_bytes == 0.0
        assert stormy.n_flaps_injected > 0
        # instability costs availability and tail latency
        assert stormy.availability < calm.availability
        assert stormy.p99_inflation > calm.p99_inflation

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(n_jobs=0)
        with pytest.raises(ValueError):
            ChaosConfig(job_bytes=-1.0)

    def test_sweep_grid_over_control_plane_axes(self):
        """rejection x timeout x flap: a full cross-product, labelled."""
        reports = chaos_sweep(
            [0.0, 30.0],
            seed=11,
            config=ChaosConfig(n_jobs=4),
            rejection_probs=[0.0, 0.4],
            timeout_probs=[0.0, 0.5],
        )
        assert len(reports) == 8
        # grid order: rejection outermost, then timeout, flap innermost
        grid = [(r.rejection_prob, r.setup_timeout_prob, r.flaps_per_hour)
                for r in reports]
        assert grid == [
            (rj, to, fl)
            for rj in (0.0, 0.4)
            for to in (0.0, 0.5)
            for fl in (0.0, 30.0)
        ]
        calm = reports[0]
        assert calm.n_idc_rejections == 0 and calm.n_setup_timeouts == 0
        noisy = [r for r in reports if r.rejection_prob > 0]
        assert any(r.n_idc_rejections > 0 for r in noisy)
        timed = [r for r in reports if r.setup_timeout_prob > 0]
        assert any(r.n_setup_timeouts > 0 for r in timed)
        # probe counters ride along on every report
        assert all(r.n_events > 0 for r in reports)
        assert all(r.n_alloc_passes > 0 for r in reports)
        assert all(r.mean_flows_per_pass > 0 for r in reports)

    def test_single_axis_sweep_unchanged_by_default_grid(self):
        """Legacy calls (flap axis only) see identical reports.

        Omitting the control-plane axes pins them at the config defaults
        (0.3 rejection, 0.2 timeout); spelling those out as one-point
        axes must reproduce the same campaigns bit for bit.
        """
        legacy = chaos_sweep([0.0, 30.0], seed=11)
        gridded = chaos_sweep([0.0, 30.0], seed=11,
                              rejection_probs=[0.3], timeout_probs=[0.2])
        assert legacy == gridded


class TestSimulatorFlapMechanics:
    """The FluidSimulator-level wiring the campaigns are built on."""

    def _sim(self, restart=None):
        topo = esnet_like()
        return topo, FluidSimulator(topo, default_dtns(topo),
                                    restart_policy=restart)

    def _circuit(self, topo, rate=2e9):
        return VirtualCircuit(
            circuit_id=901, path=tuple(topo.path("NERSC", "ORNL")),
            rate_bps=rate, start_time=0.0, end_time=10_000.0,
        )

    def _clean_duration(self, job):
        topo, sim = self._sim()
        sim.submit(job, vc=self._circuit(topo))
        return float(sim.run().log.duration[0])

    def test_flap_stalls_flow_without_restart_policy(self):
        topo, sim = self._sim(restart=None)
        vc = self._circuit(topo)
        job = TransferJob(submit_time=0.0, src="NERSC", dst="ORNL",
                          size_bytes=2e9, streams=8)
        sim.submit(job, vc=vc)
        sim.inject_circuit_flap(vc, 6.0, 16.0)
        result = sim.run()
        assert sim.n_circuit_flaps == 1
        assert sim.marker_rollback_bytes == 0.0
        # a pure stall adds exactly the outage length
        dur = float(result.log.duration[0])
        assert dur == pytest.approx(self._clean_duration(job) + 10.0, rel=0.05)

    def test_flap_with_markers_adds_rollback_and_reconnect(self):
        policy = RestartPolicy(marker_interval_bytes=64e6, reconnect_s=5.0)
        topo, sim = self._sim(restart=policy)
        vc = self._circuit(topo)
        job = TransferJob(submit_time=0.0, src="NERSC", dst="ORNL",
                          size_bytes=2e9, streams=8)
        sim.submit(job, vc=vc)
        sim.inject_circuit_flap(vc, 6.0, 16.0)
        result = sim.run()
        assert sim.n_circuit_flaps == 1
        # the partial marker segment in flight at t=6 is lost
        assert 0.0 < sim.marker_rollback_bytes < 64e6
        extra = float(result.log.duration[0]) - self._clean_duration(job)
        rollback_s = sim.marker_rollback_bytes * 8.0 / 2e9
        assert extra == pytest.approx(10.0 + 5.0 + rollback_s, rel=0.05)

    def test_migration_gains_circuit_guarantee(self):
        topo, sim = self._sim()
        vc = self._circuit(topo, rate=3e9)
        # congestion: two fat best-effort contenders on the same path
        for t in (0.0, 0.5):
            sim.submit(TransferJob(submit_time=t, src="NERSC", dst="ORNL",
                                   size_bytes=40e9, streams=8))
        job = TransferJob(submit_time=1.0, src="NERSC", dst="ORNL",
                          size_bytes=10e9, streams=8)
        fid = sim.submit(job)
        sim.migrate_flow(fid, vc, at_time=30.0)
        migrated = sim.run()

        topo2, sim2 = self._sim()
        for t in (0.0, 0.5):
            sim2.submit(TransferJob(submit_time=t, src="NERSC", dst="ORNL",
                                    size_bytes=40e9, streams=8))
        sim2.submit(job)
        squeezed = sim2.run()

        def dur_of(log, size):
            idx = int(np.argmin(np.abs(log.size - size)))
            return float(log.duration[idx])

        assert dur_of(migrated.log, 10e9) < dur_of(squeezed.log, 10e9)

    def test_migrating_a_finished_flow_is_a_noop(self):
        topo, sim = self._sim()
        vc = self._circuit(topo)
        fid = sim.submit(TransferJob(submit_time=0.0, src="NERSC", dst="ORNL",
                                     size_bytes=1e8, streams=8))
        sim.migrate_flow(fid, vc, at_time=5_000.0)
        result = sim.run()
        assert len(result.log) == 1

    def test_fresh_ramp_migration_costs_a_slow_start(self):
        """fresh_ramp=True re-enters slow start; channel reuse does not.

        A client that opens new data channels onto the circuit pays the
        TCP startup penalty again at migration time, so its transfer
        takes strictly longer than one that rebinds its warmed channels
        — and both must still complete on the circuit.
        """
        job = TransferJob(submit_time=0.0, src="NERSC", dst="ORNL",
                          size_bytes=20e9, streams=8)
        durations = {}
        for fresh in (False, True):
            topo, sim = self._sim()
            vc = self._circuit(topo, rate=3e9)
            fid = sim.submit(job)
            sim.migrate_flow(fid, vc, at_time=10.0, fresh_ramp=fresh)
            result = sim.run()
            assert len(result.log) == 1
            durations[fresh] = float(result.log.duration[0])
        assert durations[True] > durations[False]
        # the gap is a startup-scale pause, not a stall for the ages
        assert durations[True] - durations[False] < 60.0

    def test_flap_validation(self):
        topo, sim = self._sim()
        vc = self._circuit(topo)
        with pytest.raises(ValueError):
            sim.inject_circuit_flap(vc, 10.0, 10.0)
        with pytest.raises(ValueError):
            sim.migrate_flow(0, vc, at_time=-1.0)


class TestManagedServiceFlapWiring:
    def test_bound_task_resumes_through_flap(self):
        from repro.gridftp.reliability import CircuitOutageTracker
        from repro.gridftp.transfer_service import ManagedTransferService, TaskState

        t = [0.0]
        tracker = CircuitOutageTracker(lambda: t[0])
        vc = VirtualCircuit(circuit_id=1, path=("a", "b"), rate_bps=1e9,
                            start_time=0.0, end_time=1e6)
        tracker.watch(vc)
        vc.activate()
        t[0] = 4.0
        vc.fail()
        t[0] = 10.0
        vc.restore()

        svc = ManagedTransferService(
            rate_for=lambda s, d: 1e9,
            restart_policy=RestartPolicy(marker_interval_bytes=64e6,
                                         reconnect_s=2.0),
        )
        tid = svc.submit(0, 1, [2e9])
        svc.bind_outages(tid, tracker)
        svc.run(rng=np.random.default_rng(0))
        task = svc.task(tid)
        assert task.state is TaskState.SUCCEEDED
        assert svc.n_flaps_recovered == 1
        kinds = [e.event for e in svc.events_for(tid)]
        assert "circuit-flap" in kinds
        # the flap cost wall time: outage + reconnect + marker rollback
        rec = svc.log()
        assert float(rec.duration[0]) > 2e9 * 8.0 / 1e9

    def test_bind_unknown_task_rejected(self):
        from repro.gridftp.reliability import CircuitOutageTracker
        from repro.gridftp.transfer_service import ManagedTransferService

        svc = ManagedTransferService(rate_for=lambda s, d: 1e9)
        with pytest.raises(KeyError):
            svc.bind_outages(99, CircuitOutageTracker(lambda: 0.0))


class TestChaosCli:
    def test_chaos_subcommand_runs(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--jobs", "4", "--seed", "5",
                     "--flaps-per-hour", "40", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "flaps/h" in out
        assert "job  0" in out

    def test_chaos_sweep_flag(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--jobs", "4", "--sweep", "0,30"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 3

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["chaos", "--jobs", "0"], "need at least one job"),
            (["chaos", "--sweep", "x,1"], "could not convert string to float: 'x'"),
            (["chaos", "--reject-prob", "nan"], "rejection_prob must be finite, got nan"),
            (["chaos", "--flaps-per-hour", "nan"], "flaps_per_hour must be finite, got nan"),
            (["chaos", "--flaps-per-hour", "inf"], "flaps_per_hour must be finite, got inf"),
            (["chaos", "--flaps-per-hour", "-5"],
             "flaps_per_hour must be in [0, inf), got -5.0"),
            (["chaos", "--sweep", "0,-5"], "flaps_per_hour must be in [0, inf), got -5.0"),
        ],
        ids=["zero-jobs", "non-numeric-sweep", "nan-reject-prob", "nan-flap-rate",
             "infinite-flap-rate", "negative-flap-rate", "negative-sweep-rate"],
    )
    def test_bad_values_refused_before_simulating(self, capsys, argv, message):
        from repro.cli import main

        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestLambdaStationRecoveryStats:
    def test_stats_replace_ad_hoc_counter(self):
        from repro.vc.lambdastation import LambdaStation
        from repro.vc.oscars import OscarsIDC

        topo = esnet_like()
        ls = LambdaStation(topo, OscarsIDC(topo))
        assert ls.stats == dataclasses.replace(ls.stats)
        assert ls.n_vc_fallbacks == ls.stats.n_fallbacks == 0
