"""Tests for the prebuilt mechanistic scenarios (small-scale runs)."""

import numpy as np
import pytest

from repro.core.concurrency import concurrency_analysis
from repro.core.snmp_correlation import correlation_tables, link_load_table
from repro.core.throughput import categorized_throughput
from repro.net.crosstraffic import CrossTrafficConfig, generate_cross_traffic
from repro.net.snmp import SnmpCollector
from repro.net.topology import esnet_like
from repro.sim.experiment import default_dtns
from repro.sim.scenarios import (
    anl_nersc_mechanistic,
    nersc_ornl_snmp_experiment,
    vc_replay_scenario,
)


@pytest.fixture(scope="module")
def snmp_exp():
    # 10 days, 50 tests: enough structure, fast enough for CI
    return nersc_ornl_snmp_experiment(seed=5, n_tests=50, days=10)


class TestSnmpExperiment:
    def test_all_tests_complete(self, snmp_exp):
        assert len(snmp_exp.test_log) == 50

    def test_five_monitored_links(self, snmp_exp):
        assert set(snmp_exp.links) == {"rt1", "rt2", "rt3", "rt4", "rt5"}

    def test_throughput_variance_present(self, snmp_exp):
        tput = snmp_exp.test_log.throughput_bps
        assert tput.max() > 1.2 * tput.min()

    def test_alpha_flows_dominate_clean_links(self, snmp_exp):
        total, other = correlation_tables(snmp_exp.test_log, snmp_exp.links)
        # upstream links (rt1/rt2) carry only the tests plus light noise
        assert total.per_quartile[4]["rt1"] > 0.5
        assert abs(other.overall["rt1"]) < 0.5

    def test_link_loads_below_capacity(self, snmp_exp):
        loads = link_load_table(snmp_exp.test_log, snmp_exp.links)
        for summary in loads.values():
            assert summary.maximum < 10e9
            assert summary.mean > 0.5e9  # the transfers themselves

    def test_cross_traffic_optional(self):
        exp = nersc_ornl_snmp_experiment(
            seed=1, n_tests=6, days=2, cross_traffic=False
        )
        assert len(exp.test_log) == 6


class TestMechanisticAnl:
    @pytest.fixture(scope="class")
    def mech(self):
        return anl_nersc_mechanistic(seed=7, n_batches=60)

    def test_counts(self, mech):
        assert len(mech.log) == 334
        assert sum(int(m.sum()) for m in mech.masks.values()) == 334

    def test_disk_bottleneck_emerges(self, mech):
        cats = {c.category: c for c in categorized_throughput(
            {k: mech.category(k) for k in mech.masks}
        )}
        assert cats["mem-mem"].summary.median > cats["disk-disk"].summary.median

    def test_eq2_correlation_positive(self, mech):
        a = concurrency_analysis(
            mech.log, subset=mech.mm_indices(), capacity_bps=3.5e9
        )
        assert a.correlation > 0.2


class TestCrossTraffic:
    def test_flows_deposit_bytes(self):
        topo = esnet_like()
        col = SnmpCollector()
        flows = generate_cross_traffic(
            topo, 0.0, 3600.0,
            config=CrossTrafficConfig(arrival_rate_per_s=0.05),
            rng=np.random.default_rng(0), collector=col,
        )
        assert len(flows) > 50
        total_link_bytes = sum(
            col.counter(k).total_bytes() for k in col.keys()
        )
        offered = sum(f.nbytes for f in flows)
        assert total_link_bytes >= offered  # each flow hits >= 1 link

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            generate_cross_traffic(esnet_like(), 10.0, 10.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CrossTrafficConfig(arrival_rate_per_s=0.0)
        with pytest.raises(ValueError):
            CrossTrafficConfig(min_rate_bps=0.0)


class TestReplayScenario:
    def test_scenario_shape(self):
        sc = vc_replay_scenario(seed=1, n_jobs=10)
        assert len(sc.jobs) == 10
        assert len(sc.contenders) == 60
        assert sc.vc_rate_bps > 0
        assert all(j.src == "NERSC" for j in sc.jobs)


class TestDiurnalCrossTraffic:
    def test_profile_modulates_arrivals(self):
        from repro.workload.diurnal import DiurnalProfile, hourly_histogram

        topo = esnet_like()
        flows = generate_cross_traffic(
            topo, 0.0, 7 * 86_400.0,
            config=CrossTrafficConfig(arrival_rate_per_s=0.02),
            rng=np.random.default_rng(5),
            diurnal_profile=DiurnalProfile.business_hours(),
        )
        hist = hourly_histogram(np.array([f.start for f in flows]))
        assert hist[10] > 2 * hist[4]  # business-hours pulse survives
