"""Integration-grade tests of the fluid transfer simulator."""

import numpy as np
import pytest

from repro.gridftp.client import TransferJob
from repro.gridftp.records import TransferLog
from repro.gridftp.server import DtnCluster, DtnSpec, EndpointKind
from repro.net.topology import esnet_like
from repro.sim.experiment import FluidSimulator
from repro.vc.oscars import OscarsIDC, ReservationRequest


def make_sim(**kw):
    topo = esnet_like()
    dtns = DtnCluster()
    for site in topo.sites:
        dtns.add(DtnSpec(site, nic_bps=6e9, disk_read_bps=5e9, disk_write_bps=4e9))
    defaults = dict(ssthresh_bytes=None)
    defaults.update(kw)
    return topo, dtns, FluidSimulator(topo, dtns, **defaults)


def job(t=0.0, src="NERSC", dst="ORNL", size=10e9, streams=8, **kw):
    return TransferJob(
        submit_time=t, src=src, dst=dst, size_bytes=size, streams=streams, **kw
    )


class TestSingleTransfer:
    def test_duration_matches_analytic_cap(self):
        topo, dtns, sim = make_sim()
        sim.submit(job(size=10e9))
        result = sim.run()
        assert len(result.log) == 1
        rec = result.log.record(0)
        # cap: min(dtn read 5G, write 4G, nic 6G) = 4 Gbps + slow-start penalty
        assert rec.throughput_bps == pytest.approx(4e9, rel=0.05)

    def test_bytes_conserved_into_snmp(self):
        topo, dtns, sim = make_sim()
        sim.submit(job(size=10e9))
        result = sim.run()
        path = topo.path("NERSC", "ORNL")
        for key in topo.path_links(path):
            assert result.snmp.counter(key).total_bytes() == pytest.approx(
                10e9, rel=1e-6
            )

    def test_log_fields(self):
        topo, dtns, sim = make_sim()
        sim.submit(job(t=50.0, streams=4, stripes=2))
        result = sim.run()
        rec = result.log.record(0)
        assert rec.start == 50.0
        assert rec.streams == 4 and rec.stripes == 2
        assert rec.local_host == topo.host_id("NERSC")
        assert rec.remote_host == topo.host_id("ORNL")

    def test_submit_in_past_rejected(self):
        topo, dtns, sim = make_sim()
        sim.submit(job(t=100.0))
        sim.run()
        with pytest.raises(ValueError):
            sim.submit(job(t=50.0))


class TestContention:
    def test_two_flows_share_server(self):
        """Two simultaneous transfers from one DTN each get about half.

        The binding pool is the NERSC disk-read budget (5 Gbps shared),
        tighter per flow than the 6 Gbps host pool.
        """
        topo, dtns, sim = make_sim()
        sim.submit(job(size=10e9, dst="ORNL"))
        sim.submit(job(size=10e9, dst="ANL"))
        result = sim.run()
        tput = result.log.throughput_bps
        assert np.allclose(tput, 2.5e9, rtol=0.08)

    def test_lone_flow_faster_than_contended(self):
        topo, dtns, sim = make_sim()
        sim.submit(job(t=0.0, size=5e9))
        sim.submit(job(t=500.0, size=5e9))  # after the first finishes
        lone = sim.run().log.throughput_bps
        topo2, dtns2, sim2 = make_sim()
        sim2.submit(job(t=0.0, size=5e9))
        sim2.submit(job(t=0.0, size=5e9))
        shared = sim2.run().log.throughput_bps
        assert lone.min() > shared.max()

    def test_memory_endpoints_skip_disk_pools(self):
        topo, dtns, sim = make_sim()
        sim.submit(
            job(
                size=10e9,
                src_endpoint=EndpointKind.MEMORY,
                dst_endpoint=EndpointKind.MEMORY,
            )
        )
        tput = sim.run().log.throughput_bps[0]
        # mem-mem cap is the 6G NIC, not the 4G disk write pool
        assert tput == pytest.approx(6e9, rel=0.05)

    def test_weighted_sharing_by_streams(self):
        """On a saturated server pool, 8 streams out-compete 1 stream.

        The 1-stream transfer is sized to finish while contention lasts,
        so its logged average reflects the weighted share (8:1), not the
        uncontended tail after the big transfer completes.
        """
        topo, dtns, sim = make_sim()
        sim.submit(job(size=20e9, streams=8,
                       src_endpoint=EndpointKind.MEMORY,
                       dst_endpoint=EndpointKind.MEMORY))
        sim.submit(job(size=1e9, streams=1,
                       src_endpoint=EndpointKind.MEMORY,
                       dst_endpoint=EndpointKind.MEMORY))
        result = sim.run()
        log = result.log
        heavy = log.throughput_bps[log.streams == 8][0]
        light = log.throughput_bps[log.streams == 1][0]
        assert heavy > 3 * light


class TestSlowStart:
    def test_penalty_lowers_small_file_throughput(self):
        topo, dtns, sim = make_sim(ssthresh_bytes=1.2e6)
        sim.submit(job(size=20e6, streams=1))
        small = sim.run().log.throughput_bps[0]
        topo2, dtns2, sim2 = make_sim(ssthresh_bytes=1.2e6)
        sim2.submit(job(size=50e9, streams=1))
        large = sim2.run().log.throughput_bps[0]
        assert small < 0.5 * large

    def test_more_streams_help_small_files(self):
        results = {}
        for streams in (1, 8):
            topo, dtns, sim = make_sim(ssthresh_bytes=1.2e6)
            sim.submit(job(size=50e6, streams=streams))
            results[streams] = sim.run().log.throughput_bps[0]
        assert results[8] > 1.3 * results[1]


class TestVcFlows:
    def test_vc_flow_capped_at_circuit_rate(self):
        topo, dtns, sim = make_sim()
        idc = OscarsIDC(topo)
        vc = idc.create_reservation(
            ReservationRequest("NERSC", "ORNL", 1e9, 1000.0, 10_000.0),
            request_time=0.0,
        )
        sim.submit(job(t=vc.start_time, size=5e9), vc=vc)
        tput = sim.run().log.throughput_bps[0]
        assert tput <= 1e9 * 1.01
        assert tput == pytest.approx(1e9, rel=0.05)

    def test_vc_flow_protected_from_best_effort(self):
        """A circuit keeps its rate while a best-effort burst shares the path."""
        topo, dtns, sim = make_sim()
        idc = OscarsIDC(topo)
        vc = idc.create_reservation(
            ReservationRequest("NERSC", "ORNL", 3e9, 1000.0, 100_000.0),
            request_time=0.0,
        )
        sim.submit(job(t=vc.start_time, size=30e9), vc=vc)
        for k in range(3):
            sim.submit(job(t=vc.start_time, src="SLAC", dst="NICS", size=30e9,
                           src_endpoint=EndpointKind.MEMORY,
                           dst_endpoint=EndpointKind.MEMORY))
        result = sim.run()
        log = result.log
        vc_tput = log.throughput_bps[log.local_host == topo.host_id("NERSC")][0]
        assert vc_tput == pytest.approx(3e9, rel=0.05)

    def test_vc_and_explicit_path_conflict(self):
        topo, dtns, sim = make_sim()
        idc = OscarsIDC(topo)
        vc = idc.create_reservation(
            ReservationRequest("NERSC", "ORNL", 1e9, 1000.0, 10_000.0),
            request_time=0.0,
        )
        with pytest.raises(ValueError):
            sim.submit(job(t=2000.0), vc=vc, explicit_path=["NERSC", "ORNL"])


class TestExplicitPath:
    def test_explicit_path_routes_off_default(self):
        topo, dtns, sim = make_sim()
        northern = [
            "NERSC", "rt-sunn", "rt-sacr", "rt-denv", "rt-kans", "rt-chic",
            "rt-nash", "ORNL",
        ]
        sim.submit(job(size=5e9), explicit_path=northern)
        result = sim.run()
        key = ("rt-denv", "rt-kans")
        assert result.snmp.counter(tuple(sorted(key))).total_bytes() > 0

    def test_missing_hop_is_refused_at_submit(self):
        # used to be accepted, then kill run() with a networkx KeyError
        topo, dtns, sim = make_sim()
        skips_a_hop = ["ANL", "rt-chic", "rt-denv", "rt-sacr", "rt-sunn", "NERSC"]
        for path in (skips_a_hop, ["ANL", "NERSC"]):
            with pytest.raises(ValueError, match="is not a link"):
                sim.submit(job(src="ANL", dst="NERSC"), explicit_path=path)
        assert len(sim.run().log) == 0

    def test_path_between_other_sites_is_refused_at_submit(self):
        # used to run silently, depositing bytes on links it never crossed
        topo, dtns, sim = make_sim()
        ornl_to_bnl = topo.path("ORNL", "BNL")
        for path in (ornl_to_bnl, topo.path("NERSC", "ANL"), ["ANL"], []):
            with pytest.raises(ValueError, match="does not run from ANL to NERSC"):
                sim.submit(job(src="ANL", dst="NERSC"), explicit_path=path)
        assert len(sim.run().log) == 0

    def test_valid_path_is_used_as_given(self):
        topo, dtns, sim = make_sim()
        route = topo.path("NERSC", "ORNL")
        sim.submit(job(size=5e9), explicit_path=tuple(route))
        result = sim.run()
        assert len(result.log) == 1
        assert result.snmp.keys() == topo.path_links(route)


class TestRunControls:
    def test_run_until(self):
        topo, dtns, sim = make_sim()
        sim.submit(job(t=0.0, size=10e9))
        sim.submit(job(t=1e6, size=10e9))
        result = sim.run(until=1000.0)
        assert len(result.log) == 1
        assert sim.now == 1000.0

    def test_empty_run(self):
        topo, dtns, sim = make_sim()
        result = sim.run()
        assert len(result.log) == 0
        assert isinstance(result.log, TransferLog)

    def test_event_budget(self):
        topo, dtns, sim = make_sim()
        for k in range(20):
            sim.submit(job(t=float(k), size=1e9))
        with pytest.raises(RuntimeError):
            sim.run(max_events=3)


class TestLinkOutages:
    def test_outage_stalls_flow(self):
        """A mid-transfer outage adds exactly the stall to the duration."""
        topo, dtns, sim = make_sim()
        sim.submit(job(size=10e9))  # ~20 s at the 4 Gbps cap
        path = topo.path("NERSC", "ORNL")
        key = topo.path_links(path)[1]
        sim.schedule_link_outage(key, 5.0, 25.0)
        rec = sim.run().log.record(0)
        clean = 10e9 * 8 / 4e9
        assert rec.duration == pytest.approx(clean + 20.0, rel=0.05)

    def test_outage_on_unused_link_no_effect(self):
        topo, dtns, sim = make_sim()
        sim.submit(job(size=10e9))
        sim.schedule_link_outage(("BNL", "rt-aofa"), 5.0, 25.0)
        rec = sim.run().log.record(0)
        assert rec.duration == pytest.approx(10e9 * 8 / 4e9, rel=0.05)

    def test_other_flows_keep_running_through_outage(self):
        topo, dtns, sim = make_sim()
        sim.submit(job(size=10e9, dst="ORNL"))
        sim.submit(job(size=10e9, src="SLAC", dst="BNL"))
        # kill only the southern segment the NERSC->ORNL flow uses
        key = tuple(sorted(("rt-memp", "rt-nash")))
        sim.schedule_link_outage(key, 2.0, 60.0)
        log = sim.run().log
        slac = log.throughput_bps[log.local_host == topo.host_id("SLAC")][0]
        nersc = log.throughput_bps[log.local_host == topo.host_id("NERSC")][0]
        assert slac > 2 * nersc

    def test_vc_flow_stalls_when_path_down(self):
        from repro.vc.oscars import OscarsIDC, ReservationRequest

        topo, dtns, sim = make_sim()
        idc = OscarsIDC(topo)
        vc = idc.create_reservation(
            ReservationRequest("NERSC", "ORNL", 2e9, 1000.0, 100_000.0),
            request_time=0.0,
        )
        sim.submit(job(t=vc.start_time, size=10e9), vc=vc)
        key = topo.path_links(list(vc.path))[1]
        sim.schedule_link_outage(key, vc.start_time + 2.0, vc.start_time + 30.0)
        rec = sim.run().log.record(0)
        assert rec.duration > 10e9 * 8 / 2e9 + 25.0

    def test_outage_validation(self):
        topo, dtns, sim = make_sim()
        with pytest.raises(ValueError):
            sim.schedule_link_outage(("NERSC", "rt-sunn"), 10.0, 10.0)
        with pytest.raises(KeyError):
            sim.schedule_link_outage(("x", "y"), 0.0, 1.0)


def _mixed_scenario(sim, topo):
    """Staggered best-effort + VC + outage churn, same under either allocator."""
    idc = OscarsIDC(topo)
    vc = idc.create_reservation(
        ReservationRequest("NERSC", "ORNL", 2e9, 50.0, 100_000.0),
        request_time=0.0,
    )
    sim.submit(job(t=vc.start_time, size=20e9), vc=vc)
    rng = np.random.default_rng(7)
    sites = ["NERSC", "ORNL", "ANL", "BNL", "SLAC", "NICS"]
    for k in range(12):
        src, dst = rng.choice(sites, size=2, replace=False)
        sim.submit(
            job(
                t=float(rng.uniform(0.0, 120.0)),
                src=str(src),
                dst=str(dst),
                size=float(rng.uniform(1e9, 8e9)),
                streams=int(rng.choice([1, 4, 8])),
            )
        )
    key = tuple(sorted(("rt-memp", "rt-nash")))
    sim.schedule_link_outage(key, 30.0, 80.0)


class TestAllocatorModes:
    def test_incremental_matches_oracle_log(self):
        """Same scenario, both engines: the TransferLogs agree."""
        logs = {}
        for mode in ("incremental", "oracle"):
            topo, dtns, sim = make_sim(allocator=mode)
            _mixed_scenario(sim, topo)
            logs[mode] = sim.run().log
        inc, ora = logs["incremental"], logs["oracle"]
        assert len(inc) == len(ora)
        for col in ("start", "duration", "size", "streams",
                    "local_host", "remote_host"):
            assert np.allclose(inc.column(col), ora.column(col),
                               rtol=1e-9, atol=1e-6), col

    def test_probe_and_flow_ids_populated(self):
        from repro.sim.probe import SimProbe

        probe = SimProbe()
        topo, dtns, sim = make_sim(probe=probe)
        _mixed_scenario(sim, topo)
        result = sim.run()
        assert result.probe is probe
        assert probe.n_events > 0
        assert probe.n_flushes > 0
        assert probe.n_alloc_passes > 0
        assert probe.n_flows_touched >= probe.n_alloc_passes
        assert set(probe.wall_s) >= {"advance", "allocate"}
        # flow_ids aligns with the log rows, one fid per record
        assert result.flow_ids.shape == (len(result.log),)
        assert len(set(result.flow_ids.tolist())) == len(result.log)

    def test_coalescing_batches_same_instant_arrivals(self):
        """A burst of arrivals at one instant costs one flush, not k."""
        from repro.sim.probe import SimProbe

        probe = SimProbe()
        topo, dtns, sim = make_sim(probe=probe)
        for _ in range(6):
            sim.submit(job(t=10.0, size=1e9, dst="ANL"))
        sim.run(until=10.0)
        burst_flushes = probe.n_flushes
        assert probe.n_events >= 6
        assert burst_flushes <= 2  # the t=10 batch settles once

    def test_unknown_allocator_rejected(self):
        with pytest.raises(ValueError):
            make_sim(allocator="magic")
