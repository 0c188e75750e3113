"""Each correctness check passes on good output and fires on doctored output."""

import dataclasses
import types

import pytest

from bench import analysis, daemon, sim, sweep

# -- daemon_openloop ---------------------------------------------------------


def _rung(outcome, state, metrics=None):
    accepted = sum(1 for o in outcome if o == "accepted")
    base = {
        "n_submitted": len(outcome),
        "n_accepted": accepted,
        "n_shed": sum(1 for o in outcome if o == "shed"),
        "n_invalid": sum(1 for o in outcome if o == "invalid"),
        "n_settled": sum(1 for o, s in zip(outcome, state) if o == "accepted" and s),
    }
    base.update(metrics or {})
    return {"outcome": outcome, "state": state, "final": {"metrics": base}}


DRAINED = {"metrics": {"n_lost": 0}}


class TestDaemonChecks:
    def test_balanced_rung_passes(self):
        d = _rung(["accepted"] * 3, ["succeeded"] * 3)
        assert daemon.check_rung(d, 75, DRAINED, gated=True) == []

    def test_unbalanced_ledger_fires(self):
        # the daemon counted a submission the client never saw answered
        d = _rung(["accepted"] * 3, ["succeeded"] * 3, {"n_submitted": 4})
        problems = daemon.check_rung(d, 75, DRAINED, gated=True)
        assert any("n_submitted" in p for p in problems)

    def test_unsettled_request_fires(self):
        d = _rung(["accepted"] * 3, ["succeeded", None, "succeeded"])
        problems = daemon.check_rung(d, 75, DRAINED, gated=False)
        assert any("never settled" in p for p in problems)

    def test_failed_transfer_below_capacity_fires_only_when_gated(self):
        d = _rung(["accepted", "accepted"], ["succeeded", "failed"])
        assert daemon.check_rung(d, 75, DRAINED, gated=False) == []
        assert daemon.check_rung(d, 75, DRAINED, gated=True)

    def test_lost_request_or_bad_exit_fires(self):
        d = _rung(["accepted"], ["succeeded"])
        assert daemon.check_rung(d, 75, {"metrics": {"n_lost": 1}}, gated=True)
        assert daemon.check_rung(d, 0, DRAINED, gated=True)
        assert daemon.check_rung(d, 75, None, gated=True)


class TestMaxRate:
    RATES = {"low": 400.0, "high": 800.0, "ladder-0.90": 900.0, "over": 3000.0}

    def _rungs(self, lats, shed=None):
        shed = shed or {}
        key = f"settle_p{daemon.SETTLE_LIMIT_PCT}_ms"
        return {name: {key: lat, "shed": shed.get(name, 0), "growing": False}
                for name, lat in zip(daemon.LADDER, lats)}

    def test_interpolates_at_the_limit(self):
        rungs = self._rungs([10.0, 30.0, 40.0, 70.0])
        # 40 ms at 900, 70 ms at 3000: the 50 ms limit falls a third of the way
        assert daemon.max_rate(rungs, self.RATES) == pytest.approx(900.0 + 2100.0 / 3)

    def test_shed_counts_as_missing_the_limit(self):
        rungs = self._rungs([10.0, 30.0, 40.0, 45.0], shed={"over": 3})
        assert daemon.max_rate(rungs, self.RATES) == pytest.approx(
            900.0 + 2100.0 * (50.0 - 40.0) / (100.0 - 40.0))

    def test_all_rungs_pass(self):
        rungs = self._rungs([1.0, 2.0, 3.0, 4.0])
        assert daemon.max_rate(rungs, self.RATES) == 3000.0


# -- sweep_campaign -----------------------------------------------------------


def _campaign(results, executed, cached):
    cells = [types.SimpleNamespace(key=f"k{i}", result=r) for i, r in enumerate(results)]
    return types.SimpleNamespace(
        n_cells=len(results), n_executed=executed, n_cached=cached,
        stages={"grid": types.SimpleNamespace(cells=cells)},
    )


class TestSweepChecks:
    def test_identical_all_hit_warm_pass_passes(self):
        cold = _campaign([{"a": 1}, {"a": 2}], executed=2, cached=0)
        warm = _campaign([{"a": 1}, {"a": 2}], executed=0, cached=2)
        assert sweep.check_warm(cold, warm) == []

    def test_warm_pass_that_executes_a_cell_fires(self):
        cold = _campaign([{"a": 1}, {"a": 2}], executed=2, cached=0)
        warm = _campaign([{"a": 1}, {"a": 2}], executed=1, cached=1)
        problems = sweep.check_warm(cold, warm)
        assert any("executed 1" in p for p in problems)

    def test_warm_result_drift_fires(self):
        cold = _campaign([{"a": 1}], executed=1, cached=0)
        warm = _campaign([{"a": 9}], executed=0, cached=1)
        assert sweep.check_warm(cold, warm) == ["warm results differ from the cold pass"]

    def test_twin_report_that_breaks_its_ledger_fires(self):
        from repro.service.loadtest import run_loadtest_sim

        report = run_loadtest_sim({"n_requests": 40, "rate_per_s": 0.1}, 3).as_dict()
        bad = dict(report, n_shed=report["n_shed"] + 1)
        cells = [types.SimpleNamespace(index=i, result=r) for i, r in enumerate((report, bad))]
        cold = types.SimpleNamespace(
            n_failed=0, n_executed=2, n_cells=2,
            stage=lambda name: types.SimpleNamespace(cells=cells),
        )
        problems = sweep.check_cold(cold)
        assert len(problems) == 1 and problems[0].startswith("grid cell 1")


# -- sim_contention -----------------------------------------------------------


@pytest.fixture(scope="module")
def small_sim():
    ctx = sim.Context(5, ".")
    jobs = sim.make_jobs(11, n=12, rate=0.05)
    result = sim.run_once(ctx, jobs)[0]
    return ctx, jobs, result


class TestSimChecks:
    def test_complete_run_passes(self, small_sim):
        ctx, jobs, result = small_sim
        expected = sim.expected_link_bytes(ctx.topology, jobs)
        assert sim.check_run(jobs, expected, result) == []

    def test_flow_that_never_completes_fires(self, small_sim):
        ctx, jobs, result = small_sim
        extra = dataclasses.replace(jobs[0], submit_time=jobs[-1].submit_time + 1.0)
        doctored = jobs + [extra]
        expected = sim.expected_link_bytes(ctx.topology, doctored)
        problems = sim.check_run(doctored, expected, result)
        assert any("never completed" in p for p in problems)
        assert any("SNMP" in p for p in problems)

    def test_oracle_agreement(self):
        ctx = sim.Context(5, ".")
        ctx.instances[0] = ctx.instances[0][:20]
        assert sim.check_oracle(ctx) == []


# -- analysis_slac -------------------------------------------------------------


class TestAnalysisChecks:
    def _report(self, **over):
        base = dict(n_transfers=analysis.N_STREAM, n_single=3, n_multi=4,
                    n_sessions=7, total_bytes=1e12)
        base.update(over)
        return types.SimpleNamespace(**base)

    def test_balanced_stream_ledger_passes(self):
        assert analysis.check_stream(self._report(), 1e12) == []

    def test_unbalanced_stream_ledger_fires(self):
        assert analysis.check_stream(self._report(n_sessions=8), 1e12)
        assert analysis.check_stream(self._report(), 1.01e12)
        assert analysis.check_stream(self._report(n_transfers=1), 1e12)

    def test_parsed_log_must_match_generated(self, tmp_path):
        from repro.gridftp.logfmt import read_usage_log, write_usage_log
        from repro.workload.synth import slac_bnl

        ctx = types.SimpleNamespace(generated=slac_bnl(seed=3, n_transfers=3000))
        path = tmp_path / "u.log"
        write_usage_log(ctx.generated, path)
        log = read_usage_log(path)
        from repro.core.sessions import session_gap_report

        gap = session_gap_report(log, analysis.G_VALUES)
        assert analysis.check_tables(ctx, log, gap) == []
        shifted = log.shift_time(1.0)
        assert any("column start" in p for p in analysis.check_tables(ctx, shifted, gap))
        wrong = [dataclasses.replace(gap[0], n_single=gap[0].n_single + 1)] + gap[1:]
        assert any("gap report" in p for p in analysis.check_tables(ctx, log, wrong))
