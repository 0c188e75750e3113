"""Unit tests for the circuit-rate advisor and variance decomposition."""

import numpy as np
import pytest

from repro.core.rate_advisor import RateAdvisor
from repro.core.variance import decompose_throughput_variance, eta_squared
from repro.gridftp.records import TransferLog
from repro.workload.synth import ncar_nics


def history_log(seed=0, n=2000):
    """Synthetic history: stripes strongly determine throughput."""
    rng = np.random.default_rng(seed)
    stripes = rng.integers(1, 4, n)
    sizes = rng.uniform(1e9, 20e9, n)  # large: past the ramp regime
    tput = stripes * 400e6 * rng.lognormal(0.0, 0.2, n)
    return TransferLog(
        {
            "start": np.arange(n) * 100.0,
            "duration": sizes * 8 / tput,
            "size": sizes,
            "stripes": stripes,
            "streams": np.full(n, 8),
            "local_host": rng.integers(0, 2, n),
            "remote_host": rng.integers(10, 12, n),
        }
    )


class TestRateAdvisor:
    def test_conditional_quantile_tracks_stripes(self):
        advisor = RateAdvisor(history_log())
        q1, n1, _ = advisor.conditional_quantile(0.5, stripes=1, size=5e9)
        q3, n3, _ = advisor.conditional_quantile(0.5, stripes=3, size=5e9)
        assert n1 >= advisor.MIN_SUPPORT and n3 >= advisor.MIN_SUPPORT
        assert q3 == pytest.approx(3 * q1, rel=0.15)

    def test_fallback_when_cell_thin(self):
        advisor = RateAdvisor(history_log())
        # an unseen pair: the pair condition must be dropped, not fail
        value, support, cell = advisor.conditional_quantile(
            0.75, local=999, remote=888, stripes=2, size=5e9
        )
        assert support >= advisor.MIN_SUPPORT
        assert cell[0] is None  # pair was dropped

    def test_advise_duration_consistent(self):
        advisor = RateAdvisor(history_log())
        advice = advisor.advise(100e9, stripes=2, streams=8,
                                rate_quantile=0.75, safety_factor=1.25)
        assert advice.duration_s == pytest.approx(
            100e9 * 8 / advice.rate_bps * 1.25
        )
        assert advice.support >= advisor.MIN_SUPPORT
        assert advice.reservation_bytes > 100e9  # padding reserves extra

    def test_higher_quantile_higher_rate(self):
        advisor = RateAdvisor(history_log())
        lo = advisor.advise(10e9, stripes=2, rate_quantile=0.25)
        hi = advisor.advise(10e9, stripes=2, rate_quantile=0.9)
        assert hi.rate_bps > lo.rate_bps
        assert hi.duration_s < lo.duration_s

    def test_outcome_scoring(self):
        advisor = RateAdvisor(history_log())
        advice = advisor.advise(10e9, stripes=2)
        fast = advisor.outcome_against(advice, advice.rate_bps * 2)
        slow = advisor.outcome_against(advice, advice.rate_bps * 0.5)
        assert fast["throttled"] and not slow["throttled"]
        assert fast["waste_fraction"] == pytest.approx(0.0)
        assert slow["waste_fraction"] == pytest.approx(0.5)

    def test_works_on_realistic_history(self):
        advisor = RateAdvisor(ncar_nics(seed=2, n_transfers=5000))
        advice = advisor.advise(200e9, stripes=2, streams=4)
        assert 1e8 < advice.rate_bps < 5e9

    def test_validation(self):
        advisor = RateAdvisor(history_log())
        with pytest.raises(ValueError):
            advisor.advise(0.0)
        with pytest.raises(ValueError):
            advisor.advise(1e9, safety_factor=0.5)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="session size"):
                advisor.advise(bad)
            with pytest.raises(ValueError, match="safety factor"):
                advisor.advise(1e9, safety_factor=bad)
        with pytest.raises(ValueError, match="stripes"):
            advisor.advise(1e9, stripes=0)
        with pytest.raises(ValueError, match="streams"):
            advisor.advise(1e9, streams=0)
        with pytest.raises(ValueError, match="stripes"):
            advisor.conditional_quantile(0.5, stripes=-1)
        with pytest.raises(ValueError, match="size"):
            advisor.conditional_quantile(0.5, size=float("nan"))
        with pytest.raises(ValueError):
            advisor.conditional_quantile(1.5)
        with pytest.raises(ValueError):
            RateAdvisor(TransferLog())


class TestEtaSquared:
    def test_fully_explained(self):
        values = np.array([1.0, 1.0, 5.0, 5.0])
        groups = np.array([0, 0, 1, 1])
        assert eta_squared(values, groups) == pytest.approx(1.0)

    def test_unexplained(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=400)
        groups = rng.integers(0, 2, 400)
        assert eta_squared(values, groups) < 0.05

    def test_single_group_nan(self):
        assert np.isnan(eta_squared(np.array([1.0, 2.0]), np.array([0, 0])))

    def test_zero_variance_nan(self):
        assert np.isnan(eta_squared(np.array([3.0, 3.0]), np.array([0, 1])))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            eta_squared(np.zeros(3), np.zeros(2))


class TestDecomposition:
    def test_stripes_dominate_when_constructed_to(self):
        effects = decompose_throughput_variance(
            history_log(), include_concurrency=False
        )
        assert effects[0].factor == "stripes"
        assert effects[0].eta_squared > 0.5

    def test_ncar_ranking_matches_paper_narrative(self):
        """On NCAR-like data: stripes matter, time-of-day does not."""
        log = ncar_nics(seed=2, n_transfers=6000)
        effects = {
            e.factor: e.eta_squared
            for e in decompose_throughput_variance(log, include_concurrency=False)
        }
        assert effects["stripes"] > 3 * effects.get("hour", 0.0)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            decompose_throughput_variance(history_log(n=3))
