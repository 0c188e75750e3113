"""Unit and property tests for repro.core.sessions (the gap-g grouper)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sessions import (
    GapReportRow,
    group_sessions,
    group_sessions_at,
    session_gap_report,
)
from repro.core.vc_suitability import (
    HARDWARE_SETUP_DELAY_S,
    OSCARS_SETUP_DELAY_S,
    suitability_table,
    vc_suitability,
)
from repro.gridftp.records import TransferLog


def log_from(rows, local=0, remote=5):
    """rows: list of (start, duration[, size])."""
    return TransferLog(
        {
            "start": [r[0] for r in rows],
            "duration": [r[1] for r in rows],
            "size": [r[2] if len(r) > 2 else 1e6 for r in rows],
            "local_host": [local] * len(rows),
            "remote_host": [remote] * len(rows),
        }
    )


class TestBasicGrouping:
    def test_single_transfer_single_session(self):
        s = group_sessions(log_from([(0, 10)]), g=60)
        assert len(s) == 1
        assert s.n_transfers[0] == 1
        assert s.duration[0] == 10

    def test_back_to_back_within_gap(self):
        s = group_sessions(log_from([(0, 10), (30, 10)]), g=60)
        assert len(s) == 1
        assert s.n_transfers[0] == 2

    def test_gap_exceeding_g_breaks(self):
        s = group_sessions(log_from([(0, 10), (80, 10)]), g=60)
        assert len(s) == 2

    def test_gap_exactly_g_does_not_break(self):
        # the rule is gap > g breaks, so gap == g stays together
        s = group_sessions(log_from([(0, 10), (70, 10)]), g=60)
        assert len(s) == 1

    def test_g_zero_breaks_on_any_positive_gap(self):
        s = group_sessions(log_from([(0, 10), (10.5, 10)]), g=0)
        assert len(s) == 2

    def test_g_zero_keeps_contiguous(self):
        s = group_sessions(log_from([(0, 10), (10.0, 10)]), g=0)
        assert len(s) == 1

    def test_negative_gap_same_session(self):
        # overlapping (concurrent) transfers always share a session
        s = group_sessions(log_from([(0, 100), (50, 10)]), g=0)
        assert len(s) == 1

    def test_long_transfer_bridges_later_short_ones(self):
        # transfer 0 runs [0, 1000]; transfer 1 [10, 20]; transfer 2 at 500
        # is within the *running max end*, so all one session even at g=0
        s = group_sessions(log_from([(0, 1000), (10, 10), (500, 10)]), g=0)
        assert len(s) == 1

    def test_session_duration_spans_max_end(self):
        s = group_sessions(log_from([(0, 100), (10, 10)]), g=60)
        assert s.duration[0] == 100

    def test_total_size_sums(self):
        s = group_sessions(log_from([(0, 1, 5.0), (2, 1, 7.0)]), g=60)
        assert s.total_size[0] == 12.0

    def test_unsorted_input_handled(self):
        rows = [(80, 10), (0, 10)]
        s = group_sessions(log_from(rows), g=60)
        assert len(s) == 2

    def test_empty_log(self):
        s = group_sessions(TransferLog(), g=60)
        assert len(s) == 0
        assert s.n_single == 0

    def test_negative_g_rejected(self):
        with pytest.raises(ValueError):
            group_sessions(log_from([(0, 1)]), g=-1)

    def test_nan_g_rejected(self):
        log = log_from([(0, 1), (100, 1)])
        with pytest.raises(ValueError, match="nan"):
            group_sessions(log, g=float("nan"))
        with pytest.raises(ValueError, match="nan"):
            group_sessions_at(log, [0.0, float("nan")])

    def test_infinite_g_is_one_session_per_pair(self):
        a = log_from([(0, 1), (1e6, 1)], remote=5)
        b = log_from([(10, 1), (2e6, 1), (3e6, 1)], remote=6)
        s = group_sessions(TransferLog.concatenate([a, b]), g=math.inf)
        assert s.n_transfers.tolist() == [2, 3]
        assert s.start.tolist() == [0.0, 10.0]
        assert s.duration.tolist() == [1e6 + 1, 3e6 + 1 - 10]


class TestPairSeparation:
    def test_different_pairs_never_merge(self):
        a = log_from([(0, 10), (20, 10)], local=0, remote=5)
        b = log_from([(5, 10), (25, 10)], local=0, remote=6)
        merged = TransferLog.concatenate([a, b])
        s = group_sessions(merged, g=60)
        assert len(s) == 2
        assert set(zip(s.local_host, s.remote_host)) == {(0, 5), (0, 6)}

    def test_interleaved_pairs(self):
        a = log_from([(0, 1), (100, 1), (200, 1)], remote=5)
        b = log_from([(50, 1), (150, 1)], remote=6)
        s = group_sessions(TransferLog.concatenate([a, b]), g=120)
        # within each pair, gaps are ~99s <= 120 -> one session per pair
        assert len(s) == 2

    def test_anonymized_log_rejected(self):
        log = log_from([(0, 1)]).anonymize_remote()
        with pytest.raises(ValueError, match="anonymized"):
            group_sessions(log, g=60)


class TestSessionSetStats:
    def test_single_multi_counts(self):
        log = log_from([(0, 1), (200, 1), (201, 1)])
        s = group_sessions(log, g=60)
        assert s.n_single == 1
        assert s.n_multi == 1

    def test_effective_throughput(self):
        s = group_sessions(log_from([(0, 10, 10e6), (5, 5, 10e6)]), g=60)
        assert s.effective_throughput_bps[0] == pytest.approx(20e6 * 8 / 10)

    def test_percent_with_at_most(self):
        log = log_from([(0, 1), (200, 1), (201, 1), (400, 1), (401, 1), (402, 1)])
        s = group_sessions(log, g=60)  # sessions of 1, 2 and 3 transfers
        assert s.percent_with_at_most_transfers(2) == pytest.approx(100 * 2 / 3)

    def test_max_transfers(self):
        log = log_from([(0, 1), (1, 1), (2, 1), (500, 1)])
        s = group_sessions(log, g=60)
        assert s.max_transfers() == 3

    def test_count_at_least(self):
        log = log_from([(i * 2.0, 1.0) for i in range(120)])
        s = group_sessions(log, g=60)
        assert s.count_with_at_least_transfers(100) == 1

    def test_summaries(self):
        log = log_from([(0, 10, 1e9), (300, 10, 2e9)])
        s = group_sessions(log, g=60)
        assert s.size_summary().n == 2
        assert s.duration_summary().maximum == 10

    def test_transfer_session_mapping(self):
        log = log_from([(0, 1), (2, 1), (500, 1)])
        s = group_sessions(log, g=60)
        assert s.transfer_session.shape == (3,)
        counts = np.bincount(s.transfer_session)
        assert np.array_equal(np.sort(counts), [1, 2])


class TestGapReport:
    def test_report_rows(self):
        log = log_from([(0, 1), (30, 1), (120, 1)])
        rows = session_gap_report(log, [0.0, 60.0, 120.0])
        assert [r.g for r in rows] == [0.0, 60.0, 120.0]
        # g=0: three singles; g=60: {0,30} merge; g=120: all merge
        assert rows[0].n_single == 3
        assert rows[1].n_sessions == 2
        assert rows[2].n_sessions == 1

    def test_monotone_session_count_in_g(self):
        rng = np.random.default_rng(7)
        starts = np.cumsum(rng.uniform(0, 100, 60))
        log = log_from([(float(t), 1.0) for t in starts])
        rows = session_gap_report(log, [0.0, 30.0, 60.0, 120.0])
        counts = [r.n_sessions for r in rows]
        assert counts == sorted(counts, reverse=True)


@st.composite
def transfer_stream(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    gaps = draw(
        st.lists(
            st.floats(min_value=0, max_value=200, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    durs = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=50, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    starts = np.cumsum(gaps)
    return [(float(s), float(d)) for s, d in zip(starts, durs)]


class TestGroupingProperties:
    @given(transfer_stream(), st.floats(min_value=0, max_value=300))
    @settings(max_examples=60)
    def test_partition_is_complete(self, rows, g):
        s = group_sessions(log_from(rows), g=g)
        assert int(s.n_transfers.sum()) == len(rows)
        assert s.total_size.sum() == pytest.approx(len(rows) * 1e6)

    @given(transfer_stream())
    @settings(max_examples=40)
    def test_larger_g_coarsens(self, rows):
        log = log_from(rows)
        s_small = group_sessions(log, g=10.0)
        s_large = group_sessions(log, g=100.0)
        assert len(s_large) <= len(s_small)

    @given(transfer_stream(), st.floats(min_value=0, max_value=300))
    @settings(max_examples=40)
    def test_sessions_are_time_separated(self, rows, g):
        """Consecutive sessions of one pair are separated by more than g."""
        log = log_from(rows)
        s = group_sessions(log, g=g)
        order = np.argsort(s.start)
        starts = s.start[order]
        ends = starts + s.duration[order]
        for k in range(len(s) - 1):
            assert starts[k + 1] - ends[k] > g


#: gaps the differential test groups at: 0, sub-second, Table III's
#: three, and infinity (one session per pair)
G_CHOICES = (0.0, 0.5, 1.0, 10.0, 60.0, 120.0, math.inf)


@st.composite
def grouping_logs(draw):
    """Logs built to expose a fold-order or sort-stability slip.

    Several interleaved host pairs; unsorted starts on a coarse grid, so
    many tie; zero durations; sizes from 1 B to 1e15 B, so a different
    addition order changes the rounding; and enough transfers per pair
    that wide gaps make sessions longer than 8 transfers (where a
    pairwise sum stops being sequential).
    """
    n = draw(st.integers(min_value=1, max_value=200))
    n_pairs = draw(st.integers(min_value=1, max_value=5))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    pair = np.array(column(st.integers(0, n_pairs - 1)))
    durations = column(st.one_of(st.just(0.0), st.floats(0.001, 120.0)))
    # _reference_throughput needs one transfer with a positive duration
    durations[0] = draw(st.floats(0.001, 120.0))
    return TransferLog(
        {
            "start": np.array(column(st.integers(0, 400)), dtype=np.float64),
            "duration": durations,
            "size": column(st.floats(1.0, 1e15)),
            "local_host": pair % 2,
            "remote_host": 10 + pair,
        }
    )


@st.composite
def gap_lists(draw):
    """A g list that always holds 0 and a repeated value."""
    gs = draw(st.lists(st.sampled_from(G_CHOICES), min_size=1, max_size=4))
    return draw(st.permutations([0.0, *gs, gs[-1]]))


class TestVectorizedMatchesReference:
    """The vectorized grouping against the per-pair loop oracle."""

    def _assert_identical(self, a, b):
        assert a.g == b.g
        for f in ("start", "duration", "total_size", "n_transfers",
                  "local_host", "remote_host", "transfer_session"):
            va, vb = getattr(a, f), getattr(b, f)
            assert va.dtype == vb.dtype, f
            assert va.tobytes() == vb.tobytes(), f
        assert a.source == b.source

    def test_single_pair(self):
        from tests.oracles import group_sessions_reference

        log = log_from([(0, 5), (10, 5), (100, 5), (101, 2), (500, 1)])
        for g in (0.0, 10.0, 60.0, 1000.0):
            self._assert_identical(
                group_sessions(log, g), group_sessions_reference(log, g)
            )

    def test_many_pairs_interleaved(self):
        from tests.oracles import group_sessions_reference

        rng = np.random.default_rng(42)
        n = 3_000
        log = TransferLog(
            {
                "start": np.sort(rng.uniform(0, 5_000, n)),
                "duration": rng.uniform(0, 120, n),
                "size": rng.uniform(1, 1e9, n),
                "local_host": rng.integers(0, 20, n),
                "remote_host": rng.integers(30, 50, n),
            }
        )
        for g in (0.0, 5.0, 60.0):
            self._assert_identical(
                group_sessions(log, g), group_sessions_reference(log, g)
            )

    @given(transfer_stream(), st.floats(min_value=0, max_value=300))
    @settings(max_examples=40)
    def test_property_oracle_agreement(self, rows, g):
        from tests.oracles import group_sessions_reference

        log = log_from(rows)
        self._assert_identical(
            group_sessions(log, g), group_sessions_reference(log, g)
        )

    @given(grouping_logs(), gap_lists())
    @settings(max_examples=60, deadline=None)
    def test_reports_match_per_g_reference(self, log, g_values):
        """One shared scan per call equals the oracle run once per g.

        Covers every entry point that groups: ``group_sessions_at``,
        ``group_sessions``, Table III (``session_gap_report``) and
        Table IV (``suitability_table``).
        """
        from tests.oracles import group_sessions_reference

        expect = [group_sessions_reference(log, g) for g in g_values]
        got = group_sessions_at(log, g_values)
        assert len(got) == len(expect)
        for a, b in zip(got, expect):
            self._assert_identical(a, b)
        for g, b in zip(g_values, expect):
            self._assert_identical(group_sessions(log, g), b)

        assert session_gap_report(log, g_values) == [
            GapReportRow(
                g=g,
                n_single=b.n_single,
                n_multi=b.n_multi,
                percent_1_or_2=b.percent_with_at_most_transfers(2),
                max_transfers_in_session=b.max_transfers(),
                n_sessions_100_plus=b.count_with_at_least_transfers(100),
            )
            for g, b in zip(g_values, expect)
        ]
        delays = (OSCARS_SETUP_DELAY_S, HARDWARE_SETUP_DELAY_S, 0.0)
        assert suitability_table(log, g_values, delays) == {
            (g, d): vc_suitability(b, d)
            for g, b in zip(g_values, expect)
            for d in delays
        }
