"""Calibration tests for the synthetic dataset generators.

These assert the *paper regimes* (Section 5 of DESIGN.md), not exact
numbers: skewed session sizes, Table IV percentages in the right bands,
the Fig. 3 stream effect, the planted outliers.  SLAC--BNL is exercised
at reduced scale to keep the suite fast.
"""

import numpy as np
import pytest

from repro.core.concurrency import concurrency_analysis
from repro.core.sessions import group_sessions, session_gap_report
from repro.core.streams import GB, MB, stream_comparison
from repro.core.stripes import by_stripes, size_range_slice
from repro.core.throughput import categorized_throughput
from repro.core.vc_suitability import suitability_table
from repro.workload.synth import (
    ncar_nics,
    nersc_anl_tests,
    nersc_ornl_32gb,
    slac_bnl,
)


@pytest.fixture(scope="module")
def ncar():
    return ncar_nics(seed=1)


@pytest.fixture(scope="module")
def slac():
    # 1/10 scale keeps the suite fast; structure is scale-invariant
    return slac_bnl(seed=1, n_transfers=100_000)


@pytest.fixture(scope="module")
def ornl():
    return nersc_ornl_32gb(seed=3)


@pytest.fixture(scope="module")
def anl():
    return nersc_anl_tests(seed=3)


class TestNcarNics:
    def test_transfer_count_exact(self, ncar):
        assert len(ncar) == 52_454

    def test_session_count_regime(self, ncar):
        s = group_sessions(ncar, 60.0)
        assert 180 <= len(s) <= 240  # paper: 211

    def test_monster_session(self, ncar):
        s = group_sessions(ncar, 60.0)
        assert 18_000 <= s.max_transfers() <= 21_000  # paper: ~19,450

    def test_session_sizes_skewed_right(self, ncar):
        s = group_sessions(ncar, 60.0)
        assert s.total_size.mean() > 2 * np.median(s.total_size)

    def test_throughput_regime(self, ncar):
        tput = ncar.throughput_bps
        tput = tput[tput > 0]
        q3 = np.percentile(tput, 75)
        assert 550e6 <= q3 <= 850e6  # paper: 682.2 Mbps
        assert 3.4e9 <= tput.max() <= 4.6e9  # paper: 4.23 Gbps

    def test_table4_regime(self, ncar):
        grid = suitability_table(ncar)
        r = grid[(60.0, 60.0)]
        assert 40 <= r.percent_sessions <= 70  # paper: 56.87
        assert 85 <= r.percent_transfers <= 97  # paper: 90.54
        r50 = grid[(60.0, 0.05)]
        assert r50.percent_sessions >= 88  # paper: 92.89

    def test_gap_report_monotone(self, ncar):
        rows = session_gap_report(ncar, [0.0, 60.0, 120.0])
        counts = [r.n_sessions for r in rows]
        assert counts[0] > 50 * counts[1]  # g=0 fragments massively
        assert counts[1] > counts[2]

    def test_stripes_median_increases(self, ncar):
        sixteen = size_range_slice(ncar, 16 * GB, 17 * GB)
        groups = by_stripes(sixteen)
        medians = [g.throughput.median for g in groups if g.n_transfers >= 10]
        assert len(medians) >= 2
        assert medians == sorted(medians)

    def test_size_slices_populated(self, ncar):
        assert len(size_range_slice(ncar, 16 * GB, 17 * GB)) > 300
        assert len(size_range_slice(ncar, 4 * GB, 5 * GB)) > 800

    def test_years_span(self, ncar):
        years = ncar.start.astype("datetime64[s]").astype("datetime64[Y]")
        assert set(years.astype(int) + 1970) == {2009, 2010, 2011}

    def test_deterministic(self):
        assert ncar_nics(seed=5, n_transfers=2000) == ncar_nics(
            seed=5, n_transfers=2000
        )


class TestSlacBnl:
    def test_transfer_count_exact(self, slac):
        assert len(slac) == 100_000

    def test_single_stripe(self, slac):
        assert np.all(slac.stripes == 1)

    def test_stream_mix(self, slac):
        frac8 = (slac.streams == 8).mean()
        assert 0.80 <= frac8 <= 0.90  # paper: 84.6% multi-stream

    def test_session_sizes_regime(self, slac):
        s = group_sessions(slac, 60.0)
        med = np.median(s.total_size)
        assert 0.3e9 <= med <= 3e9  # paper: ~1.1 GB
        assert s.total_size.mean() > 5 * med  # paper: mean ~24 GB

    def test_table4_structure(self, slac):
        grid = suitability_table(slac)
        r = grid[(60.0, 60.0)]
        # paper: 12.5% of sessions hold 78.4% of transfers
        assert 5 <= r.percent_sessions <= 25
        assert 60 <= r.percent_transfers <= 92
        assert grid[(60.0, 0.05)].percent_sessions >= 88

    def test_fig3_stream_effect(self, slac):
        cmp = stream_comparison(slac, 20 * MB, 0, 1 * GB)
        left, m1, m8 = cmp.common_bins()
        small = (left >= 20e6) & (left <= 120e6)
        # 8-stream medians beat 1-stream medians for small files
        assert np.mean(m8[small] / m1[small]) > 1.2

    def test_fig4_dip_planted(self, slac):
        cmp = stream_comparison(slac, 100 * MB, 0, 4 * GB)
        m8 = cmp.multi_stream
        dip = (m8.bin_left >= 2.3e9) & (m8.bin_left < 3.0e9)
        flat = (m8.bin_left >= 1.2e9) & (m8.bin_left < 2.1e9)
        if dip.any() and flat.any():
            assert np.median(m8.median[dip]) < 0.75 * np.median(m8.median[flat])

    def test_fast_burst_planted(self, slac):
        tput = slac.throughput_bps
        fast = tput > 1.5e9
        assert fast.sum() > 50
        sizes = slac.size[fast]
        assert ((sizes >= 398e6) & (sizes < 399e6)).mean() > 0.8

    def test_throughput_cap(self, slac):
        assert slac.throughput_bps.max() < 2.8e9  # paper max: 2.56 Gbps

    def test_sessions_scale_with_n(self):
        small = slac_bnl(seed=2, n_transfers=30_000)
        s = group_sessions(small, 60.0)
        assert 200 <= len(s) <= 400  # ~10,199 * 30k/1.02M

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 2012])
    def test_smallest_log_generates(self, seed):
        # four one-transfer sessions, two burst and two spike transfers
        assert len(slac_bnl(seed=seed, n_transfers=8)) == 8

    @pytest.mark.parametrize("n", [0, 1, 5, 7])
    def test_too_small_a_log_is_refused(self, n):
        with pytest.raises(ValueError, match="n_transfers >= 8"):
            slac_bnl(seed=1, n_transfers=n)


class TestNerscOrnl:
    def test_count_and_shape(self, ornl):
        assert len(ornl) == 145
        assert np.all(ornl.streams == 8)
        assert np.all(ornl.stripes == 1)
        assert np.all((ornl.size >= 32e9) & (ornl.size < 33e9))

    def test_throughput_range(self, ornl):
        tput = ornl.throughput_bps
        assert tput.min() >= 0.75e9
        assert tput.max() <= 3.65e9
        iqr = np.percentile(tput, 75) - np.percentile(tput, 25)
        assert 450e6 <= iqr <= 950e6  # paper: 695 Mbps

    def test_start_hours(self, ornl):
        hours = (ornl.start % 86_400) // 3600
        assert set(np.unique(hours)) == {2.0, 8.0}

    def test_both_directions(self, ornl):
        assert len(np.unique(ornl.transfer_type)) == 2


class TestNerscAnl:
    def test_category_counts(self, anl):
        assert {k: int(v.sum()) for k, v in anl.masks.items()} == {
            "mem-mem": 84, "mem-disk": 78, "disk-mem": 87, "disk-disk": 85,
        }

    def test_masks_partition(self, anl):
        total = sum(int(v.sum()) for v in anl.masks.values())
        assert total == len(anl.log) == 334

    def test_disk_write_bottleneck_ordering(self, anl):
        cats = {c.category: c for c in categorized_throughput(
            {k: anl.category(k) for k in anl.masks}
        )}
        # Fig. 1: *-disk categories have lower medians than *-mem
        assert cats["mem-mem"].summary.median > cats["mem-disk"].summary.median
        assert cats["disk-mem"].summary.median > cats["disk-disk"].summary.median

    def test_cv_regime(self, anl):
        for c in categorized_throughput({k: anl.category(k) for k in anl.masks}):
            assert 0.15 <= c.cv <= 0.60  # paper: 30.8% - 35.7%

    def test_eq2_weak_positive_correlation(self, anl):
        a = concurrency_analysis(anl.log, subset=anl.mm_indices())
        assert 0.2 <= a.correlation <= 0.7  # paper: 0.458

    def test_mm_indices_match_mask(self, anl):
        idx = anl.mm_indices()
        assert np.all(anl.masks["mem-mem"][idx])
