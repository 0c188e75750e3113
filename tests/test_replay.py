"""Tests for circuit planning and the IP-vs-VC replay."""

import pytest

from repro.gridftp.client import TransferJob
from repro.net.topology import esnet_like
from repro.sim.experiment import default_dtns
from repro.sim.replay import compare_ip_vs_vc, plan_circuits, replay_jobs
from repro.sim.scenarios import vc_replay_scenario
from repro.vc.circuits import HardwareSignalling
from repro.vc.oscars import OscarsIDC


def jobs_session(starts, src="NERSC", dst="ORNL", size=10e9):
    return [
        TransferJob(submit_time=t, src=src, dst=dst, size_bytes=size, streams=8)
        for t in starts
    ]


class TestPlanCircuits:
    def test_back_to_back_jobs_share_one_circuit(self):
        topo = esnet_like()
        idc = OscarsIDC(topo, setup_delay=HardwareSignalling())
        # at 2 Gbps a 10 GB job takes 40 s; 50 s spacing leaves 10 s gaps
        jobs = jobs_session([0.0, 50.0, 100.0])
        plan = plan_circuits(jobs, idc, rate_bps=2e9, g_seconds=60.0)
        assert plan.n_circuits == 1
        assert all(vc is plan.assignments[0] or vc.circuit_id ==
                   plan.assignments[0].circuit_id for vc in plan.assignments)

    def test_long_gap_opens_new_circuit(self):
        topo = esnet_like()
        idc = OscarsIDC(topo, setup_delay=HardwareSignalling())
        jobs = jobs_session([0.0, 10_000.0])
        plan = plan_circuits(jobs, idc, rate_bps=2e9, g_seconds=60.0)
        assert plan.n_circuits == 2

    def test_setup_wait_accounted(self):
        topo = esnet_like()
        idc = OscarsIDC(topo)  # batch signalling, ~1 min
        jobs = jobs_session([100.0])
        plan = plan_circuits(jobs, idc, rate_bps=2e9)
        assert plan.total_setup_wait_s > 0

    def test_distinct_pairs_distinct_circuits(self):
        topo = esnet_like()
        idc = OscarsIDC(topo, setup_delay=HardwareSignalling())
        jobs = sorted(
            jobs_session([0.0], dst="ORNL") + jobs_session([1.0], dst="ANL"),
            key=lambda j: j.submit_time,
        )
        plan = plan_circuits(jobs, idc, rate_bps=2e9)
        assert plan.n_circuits == 2

    def test_unsorted_jobs_rejected(self):
        topo = esnet_like()
        idc = OscarsIDC(topo)
        jobs = jobs_session([100.0, 0.0])
        with pytest.raises(ValueError):
            plan_circuits(jobs, idc, rate_bps=1e9)

    def test_rejection_falls_back_to_best_effort(self):
        topo = esnet_like()
        idc = OscarsIDC(topo, reservable_fraction=0.01)
        jobs = jobs_session([0.0])
        plan = plan_circuits(jobs, idc, rate_bps=5e9)
        assert plan.n_rejections == 1
        assert plan.assignments[0] is None


class TestReplay:
    def test_replay_runs_all_jobs(self):
        topo = esnet_like()
        dtns = default_dtns(topo)
        jobs = jobs_session([0.0, 200.0, 400.0])
        result = replay_jobs(topo, dtns, jobs)
        assert len(result.log) == 3

    def test_vc_assignment_delays_submit(self):
        topo = esnet_like()
        dtns = default_dtns(topo)
        idc = OscarsIDC(topo)  # 60 s batch window
        jobs = jobs_session([100.0])
        plan = plan_circuits(jobs, idc, rate_bps=2e9)
        result = replay_jobs(topo, dtns, jobs, circuits=plan.assignments)
        assert result.log.start[0] > 100.0  # pushed to circuit-ready time

    def test_full_comparison_reduces_variance(self):
        sc = vc_replay_scenario(seed=11, n_jobs=25)
        cmp = compare_ip_vs_vc(
            sc.topology, sc.dtns, sc.jobs, OscarsIDC(sc.topology),
            sc.vc_rate_bps, contenders=sc.contenders,
        )
        assert cmp.vc.iqr < cmp.ip.iqr
        assert cmp.iqr_reduction > 0
        assert cmp.plan.n_circuits >= 1
