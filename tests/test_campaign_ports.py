"""The ported campaigns must report exactly what they did pre-refactor.

The chaos, profile, mechanistic, SNMP, and managed-service campaigns now
run through the experiment framework (spec -> Runner -> scenario).  These
tests pin the contract of that port: for fixed seeds, going through the
framework produces results identical to calling the underlying campaign
functions directly, and reports survive the JSON round-trip losslessly.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.campaigns import (
    ChaosConfig,
    ManagedChaosConfig,
    chaos_config_from_params,
    chaos_params_from_config,
    chaos_sweep,
    report_from_dict,
    report_to_dict,
    run_chaos,
    run_managed_chaos,
)
from repro.experiments.registry import get_scenario
from repro.experiments.runner import Runner
from repro.faults.recovery import BackoffPolicy
from repro.gridftp.reliability import RestartPolicy
from repro.vc.policy import FallbackPolicy

SMALL = ChaosConfig(
    n_jobs=3,
    job_bytes=4e9,
    rejection_prob=0.3,
    setup_timeout_prob=0.2,
    flaps_per_hour=20.0,
)


class TestChaosConfigParams:
    def test_params_round_trip_exact(self):
        config = ChaosConfig(
            n_jobs=4,
            rejection_prob=0.5,
            fallback=FallbackPolicy(setup_deadline_s=60.0),
            backoff=BackoffPolicy(max_retries=2),
            restart=RestartPolicy(marker_interval_bytes=32e6, reconnect_s=2.0),
        )
        params = chaos_params_from_config(config)
        assert chaos_config_from_params(params) == config
        # and the flattening is JSON-safe (what the spec/cache require)
        assert json.loads(json.dumps(params)) == params

    def test_report_json_round_trip_lossless(self):
        report = run_chaos(SMALL, seed=2)
        wire = json.loads(json.dumps(report_to_dict(report)))
        assert report_from_dict(wire) == report

    def test_report_round_trip_with_incomplete_jobs(self):
        # a hostile-enough config leaves inf walls; Infinity must survive
        config = ChaosConfig(
            n_jobs=2, job_bytes=4e9, flaps_per_hour=0.0, rejection_prob=1.0,
            backoff=BackoffPolicy(max_retries=1),
        )
        report = run_chaos(config, seed=0)
        wire = json.loads(json.dumps(report_to_dict(report)))
        assert report_from_dict(wire) == report


class TestNonFiniteConfigsRefused:
    """Construction only: at the commit before these refusals a NaN flap
    duration reached the injector's draw loop, which never ended."""

    @pytest.mark.parametrize(
        "field",
        ["flap_duration_s", "flaps_per_hour", "endpoint_outage_s",
         "rejection_prob", "setup_extra_delay_s", "job_bytes"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_chaos_config(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ChaosConfig(**{field: value})

    @pytest.mark.parametrize(
        "field", ["flap_duration_s", "flaps_per_hour", "file_bytes", "rate_bps"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_managed_chaos_config(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ManagedChaosConfig(**{"n_tasks": 2, "file_bytes": 1e9, field: value})


class TestChaosSweepPort:
    def test_sweep_equals_direct_product_loop(self):
        rejections = [0.0, 0.3]
        timeouts = [0.2]
        rates = [0.0, 30.0]
        via_runner = chaos_sweep(
            rates,
            config=SMALL,
            seed=11,
            rejection_probs=rejections,
            timeout_probs=timeouts,
        )
        import dataclasses

        direct = []
        for rej in rejections:
            for to in timeouts:
                for rate in rates:
                    cfg = dataclasses.replace(
                        SMALL,
                        rejection_prob=rej,
                        setup_timeout_prob=to,
                        flaps_per_hour=rate,
                    )
                    direct.append(run_chaos(cfg, seed=11))
        assert via_runner == direct

    def test_single_axis_keeps_historical_order(self):
        reports = chaos_sweep([0.0, 30.0], config=SMALL, seed=4)
        assert [r.flaps_per_hour for r in reports] == [0.0, 30.0]
        # omitted axes stay pinned at the config's values
        assert all(r.rejection_prob == SMALL.rejection_prob for r in reports)
        assert all(r.setup_timeout_prob == SMALL.setup_timeout_prob for r in reports)

    def test_sweep_through_cache_is_stable(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        first = chaos_sweep(
            [0.0, 30.0], config=SMALL, seed=11, runner=Runner(cache=cache)
        )
        n_artifacts = len(cache)
        assert n_artifacts == 2
        second = chaos_sweep(
            [0.0, 30.0], config=SMALL, seed=11, runner=Runner(cache=cache)
        )
        assert second == first
        assert len(cache) == n_artifacts  # nothing recomputed or re-keyed


class TestScenarioRegistryPorts:
    def test_chaos_scenario_matches_run_chaos(self):
        params = chaos_params_from_config(SMALL)
        via_registry = get_scenario("chaos")(params, 7)
        assert report_from_dict(via_registry) == run_chaos(SMALL, seed=7)

    def test_mechanistic_scenario_matches_direct(self):
        from repro.sim.scenarios import anl_nersc_mechanistic

        summary = get_scenario("mechanistic")({"n_batches": 12}, 3)
        mech = anl_nersc_mechanistic(seed=3, n_batches=12)
        assert summary["n_transfers"] == len(mech.log)
        assert sorted(summary["categories"]) == sorted(mech.masks)
        for name, cat_summary in summary["categories"].items():
            assert cat_summary["n"] == len(mech.category(name))

    def test_snmp_scenario_matches_direct(self):
        import numpy as np

        from repro.sim.scenarios import nersc_ornl_snmp_experiment

        params = {"n_tests": 20, "days": 3, "cross_traffic": False}
        summary = get_scenario("snmp")(params, 5)
        exp = nersc_ornl_snmp_experiment(
            seed=5, n_tests=20, days=3, cross_traffic=False
        )
        assert summary["n_tests"] == len(exp.test_log)
        assert summary["n_transfers"] == len(exp.full_log)
        assert summary["median_test_tput_bps"] == pytest.approx(
            float(np.median(exp.test_log.throughput_bps))
        )

    def test_managed_scenario_matches_direct(self):
        config = ManagedChaosConfig(
            n_tasks=2,
            files_per_task=3,
            file_bytes=2e9,
            flaps_per_hour=40.0,
        )
        import dataclasses

        params = dataclasses.asdict(config)
        via_registry = get_scenario("managed_service")(params, 9)
        assert via_registry == run_managed_chaos(config, seed=9).as_dict()

    def test_synth_scenario_runs(self):
        summary = get_scenario("synth")(
            {"dataset": "ncar-nics", "n_transfers": 600}, 3
        )
        assert summary["dataset"] == "ncar-nics"
        assert summary["n_transfers"] > 0
        assert summary["p95_tput_mbps"] >= summary["p50_tput_mbps"]


class TestManagedChaosDeterminism:
    def test_same_seed_same_report(self):
        config = ManagedChaosConfig(
            n_tasks=2, files_per_task=3, file_bytes=2e9, flaps_per_hour=60.0
        )
        assert run_managed_chaos(config, seed=4) == run_managed_chaos(config, seed=4)

    def test_clean_run_has_unit_inflation(self):
        config = ManagedChaosConfig(
            n_tasks=2, files_per_task=3, file_bytes=2e9, flaps_per_hour=0.0
        )
        report = run_managed_chaos(config, seed=0)
        assert report.n_succeeded == 2
        assert report.n_files_moved == 6
        assert report.n_flaps_injected == 0
        assert report.inflation == pytest.approx(1.0)
