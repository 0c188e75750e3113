"""Tests for the streaming data plane (repro.core.streaming).

The load-bearing guarantee: the chunked pipeline is byte-identical to
the one-shot pipeline for ANY chunk split — sessions spanning chunk
boundaries, negative/overlapping gaps, and ragged final chunks included.
Plus the memory contract: accumulator/state footprint is O(chunk), not
O(n).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sessions import group_sessions, sessionize_chunks
from repro.core.streaming import (
    QuantileSketch,
    StreamAnalysis,
    StreamingMoments,
    StreamingSessionizer,
    StreamSummary,
    pair_key_of,
    segmented_cummax,
)
from repro.core.throughput import PathStream, path_report
from repro.gridftp.records import TransferLog
from repro.workload.synth import generate, generate_stream
from tests.oracles import group_sessions_reference

SESSION_FIELDS = (
    "start", "duration", "total_size", "n_transfers",
    "local_host", "remote_host", "transfer_session",
)


def split_log(log, cuts):
    """Slice a sorted log into chunks at the given row offsets."""
    names = ("start", "duration", "size", "transfer_type", "streams",
             "stripes", "tcp_buffer", "block_size", "local_host", "remote_host")
    chunks = []
    prev = 0
    for c in list(cuts) + [len(log)]:
        chunks.append(TransferLog({n: log.column(n)[prev:c] for n in names}))
        prev = c
    return chunks


def assert_sessions_identical(a, b):
    assert len(a) == len(b)
    for f in SESSION_FIELDS:
        va, vb = getattr(a, f), getattr(b, f)
        assert va.dtype == vb.dtype, f
        assert np.array_equal(va, vb), f
    assert a.source == b.source


class TestSegmentedCummax:
    def test_single_segment_is_plain_cummax(self):
        v = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        head = np.array([True, False, False, False, False])
        assert np.array_equal(
            segmented_cummax(v, head), np.maximum.accumulate(v)
        )

    def test_restarts_at_segment_heads(self):
        v = np.array([5.0, 1.0, 2.0, 9.0, 1.0])
        head = np.array([True, False, True, False, True])
        assert np.array_equal(
            segmented_cummax(v, head), np.array([5.0, 5.0, 2.0, 9.0, 1.0])
        )

    @given(
        st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=200),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_segment_loop(self, values, rnd):
        v = np.asarray(values)
        head = np.array([True] + [rnd.random() < 0.3 for _ in values[1:]])
        out = segmented_cummax(v, head)
        expect = v.copy()
        for i in range(1, v.size):
            if not head[i]:
                expect[i] = max(expect[i], expect[i - 1])
        assert np.array_equal(out, expect)

    def test_rejects_unheaded_first_element(self):
        with pytest.raises(ValueError):
            segmented_cummax(np.ones(3), np.zeros(3, dtype=bool))


class TestStreamingSessionizerEquivalence:
    """Streaming == one-shot, byte for byte, for any chunk split."""

    @pytest.fixture(scope="class")
    def slac(self):
        return generate("slac-bnl", seed=9, n_transfers=12_000).sorted_by_start()

    @pytest.mark.parametrize("g", [0.0, 1.0, 60.0, 3600.0])
    def test_wrapper_matches_reference_slac(self, slac, g):
        assert_sessions_identical(
            group_sessions(slac, g), group_sessions_reference(slac, g)
        )

    def test_wrapper_matches_reference_ncar(self):
        log = generate("ncar-nics", seed=3, n_transfers=4_000)
        for g in (0.0, 60.0, 120.0):
            assert_sessions_identical(
                group_sessions(log, g), group_sessions_reference(log, g)
            )

    @pytest.mark.parametrize("n_cuts", [1, 3, 17])
    def test_chunked_matches_oneshot(self, slac, n_cuts):
        oracle = group_sessions_reference(slac, 60.0)
        rng = np.random.default_rng(n_cuts)
        cuts = np.sort(rng.choice(np.arange(1, len(slac)), n_cuts, replace=False))
        got = sessionize_chunks(split_log(slac, cuts), 60.0)
        assert_sessions_identical(got, oracle)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_random_splits(self, data):
        """Randomized logs and splits: overlapping transfers, multiple
        pairs, sessions spanning chunk boundaries, ragged final chunk."""
        n = data.draw(st.integers(min_value=1, max_value=120))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        # clustered starts make sessions span cut points often
        starts = np.sort(rng.uniform(0, 40, n) ** 2)
        log = TransferLog(
            {
                "start": starts,
                # long durations => negative gaps / deep overlap
                "duration": rng.uniform(0, 300, n),
                "size": rng.uniform(1, 1e9, n),
                "local_host": rng.integers(0, 3, n),
                "remote_host": rng.integers(5, 8, n),
            }
        ).sorted_by_start()
        g = data.draw(st.sampled_from([0.0, 5.0, 60.0]))
        n_cuts = data.draw(st.integers(min_value=0, max_value=min(6, n - 1)))
        cuts = np.sort(
            rng.choice(np.arange(1, n), size=n_cuts, replace=False)
        ) if n_cuts else []
        oracle = group_sessions_reference(log, g)
        got = sessionize_chunks(split_log(log, cuts), g)
        assert_sessions_identical(got, oracle)

    def test_empty_chunks_are_harmless(self, slac):
        oracle = group_sessions_reference(slac, 60.0)
        empty = split_log(slac, [])[0].select(np.zeros(0, dtype=np.int64))
        chunks = [empty, *split_log(slac, [5_000]), empty]
        assert_sessions_identical(sessionize_chunks(chunks, 60.0), oracle)

    def test_emission_order_is_split_invariant(self, slac):
        def closed_stream(cuts):
            szr = StreamingSessionizer(60.0)
            fields = []
            for chunk in split_log(slac, cuts):
                c = szr.update(chunk).closed
                fields.append((c.pair_key, c.seq))
            f = szr.finalize()
            fields.append((f.pair_key, f.seq))
            return (
                np.concatenate([p for p, _ in fields]),
                np.concatenate([s for _, s in fields]),
            )

        a = closed_stream([4_000, 8_000])
        b = closed_stream([1_000, 2_000, 3_000, 9_000, 11_999])
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_rejects_unsorted_chunk(self):
        szr = StreamingSessionizer(60.0)
        bad = TransferLog(
            {"start": [5.0, 1.0], "duration": [1, 1], "size": [1, 1],
             "remote_host": [3, 3]}
        )
        with pytest.raises(ValueError, match="not sorted"):
            szr.update(bad)

    def test_rejects_time_travel_between_chunks(self):
        szr = StreamingSessionizer(60.0)
        def mk(t):
            return TransferLog(
                {"start": [t], "duration": [1.0], "size": [1.0],
                 "remote_host": [3]}
            )
        szr.update(mk(100.0))
        with pytest.raises(ValueError, match="time-ordered"):
            szr.update(mk(50.0))

    def test_rejects_anonymized(self):
        szr = StreamingSessionizer(60.0)
        anon = TransferLog(
            {"start": [0.0], "duration": [1.0], "size": [1.0],
             "remote_host": [-1]}
        )
        with pytest.raises(ValueError, match="anonymized"):
            szr.update(anon)

    def test_negative_g_rejected(self):
        with pytest.raises(ValueError):
            StreamingSessionizer(-1.0)

    def test_nan_g_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            StreamingSessionizer(float("nan"))

    def test_infinite_g_is_one_session_per_pair(self):
        log = TransferLog(
            {"start": [0.0, 10.0, 1e6, 2e6, 3e6], "duration": [1.0] * 5,
             "size": [1.0] * 5, "remote_host": [5, 6, 5, 6, 6]}
        )
        got = sessionize_chunks(split_log(log, [1, 3]), math.inf)
        assert got.n_transfers.tolist() == [2, 3]
        assert_sessions_identical(got, group_sessions_reference(log, math.inf))

    def test_pair_key_round_trip(self):
        local = np.array([0, 7, 2**31 - 1], dtype=np.int64)
        remote = np.array([-1, 3, 2**31 - 1], dtype=np.int64)
        pk = pair_key_of(local, remote)
        assert np.unique(pk).size == 3


class TestStreamingMoments:
    def test_split_invariance_is_bitwise(self):
        rng = np.random.default_rng(1)
        vals = rng.lognormal(3, 2, 50_000)
        m1 = StreamingMoments()
        m1.update(vals)
        m2 = StreamingMoments()
        for part in np.array_split(vals, 13):
            m2.update(part)
        assert m1.total == m2.total
        assert m1.total_sq == m2.total_sq
        assert (m1.count, m1.minimum, m1.maximum) == (m2.count, m2.minimum, m2.maximum)

    def test_matches_numpy(self):
        rng = np.random.default_rng(2)
        vals = rng.lognormal(1, 1.5, 10_000)
        m = StreamingMoments()
        m.update(vals)
        assert math.isclose(m.total, float(vals.sum()), rel_tol=1e-12)
        assert math.isclose(m.mean, float(vals.mean()), rel_tol=1e-12)
        assert math.isclose(m.std, float(vals.std(ddof=1)), rel_tol=1e-9)
        assert math.isclose(
            m.cv, float(vals.std(ddof=1) / vals.mean()), rel_tol=1e-9
        )

    def test_merge_is_exact_at_block_boundaries(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0, 1e6, 20_480)  # 5 blocks of 4096
        m1 = StreamingMoments()
        m1.update(vals)
        a, b = StreamingMoments(), StreamingMoments()
        a.update(vals[:8192])
        b.update(vals[8192:])
        a.merge(b)
        assert a.total == m1.total and a.total_sq == m1.total_sq
        assert a.count == m1.count

    def test_degenerate_cv_is_nan(self):
        m = StreamingMoments()
        assert math.isnan(m.cv)
        m.update(np.array([5.0]))
        assert math.isnan(m.cv)

    def test_rejects_non_finite(self):
        m = StreamingMoments()
        with pytest.raises(ValueError):
            m.update(np.array([1.0, np.inf]))

    def test_memory_is_bounded(self):
        m = StreamingMoments()
        rng = np.random.default_rng(4)
        for _ in range(50):
            m.update(rng.uniform(0, 1, 10_000))
        assert m.nbytes < 64 * 1024


class TestQuantileSketch:
    def test_small_sample_is_exact(self):
        vals = np.arange(100.0)
        s = QuantileSketch()
        s.update(vals)
        qs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.array_equal(s.quantiles(qs), np.percentile(vals, qs * 100))

    def test_split_invariance_is_bitwise(self):
        rng = np.random.default_rng(5)
        vals = rng.lognormal(2, 1, 40_000)
        s1 = QuantileSketch()
        s1.update(vals)
        s2 = QuantileSketch()
        for part in np.array_split(vals, 11):
            s2.update(part)
        qs = np.linspace(0, 1, 31)
        assert np.array_equal(s1.quantiles(qs), s2.quantiles(qs))

    def test_rank_error_within_tolerance(self):
        """The pinned tolerance: < 2% rank error at the default k."""
        rng = np.random.default_rng(6)
        vals = rng.lognormal(3, 2.5, 500_000)
        s = QuantileSketch()
        for part in np.array_split(vals, 37):
            s.update(part)
        qs = np.linspace(0.01, 0.99, 25)
        sv = np.sort(vals)
        got_rank = np.searchsorted(sv, s.quantiles(qs))
        true_rank = qs * vals.size
        assert np.max(np.abs(got_rank - true_rank)) / vals.size < 0.02

    def test_merge_obeys_tolerance(self):
        rng = np.random.default_rng(7)
        vals = rng.lognormal(3, 2, 200_000)
        a, b = QuantileSketch(), QuantileSketch()
        a.update(vals[:70_000])
        b.update(vals[70_000:])
        a.merge(b)
        assert a.count == vals.size
        qs = np.linspace(0.05, 0.95, 10)
        sv = np.sort(vals)
        err = np.abs(np.searchsorted(sv, a.quantiles(qs)) - qs * vals.size)
        assert err.max() / vals.size < 0.02

    def test_memory_is_bounded_logarithmically(self):
        s = QuantileSketch()
        rng = np.random.default_rng(8)
        for _ in range(100):
            s.update(rng.uniform(0, 1, 50_000))  # 5M total
        assert s.count == 5_000_000
        assert s.nbytes < 1_000_000  # ~dozens of kB expected, 1 MB hard cap

    def test_empty_query_raises(self):
        with pytest.raises(ValueError):
            QuantileSketch().quantile(0.5)


class TestStreamSummaryAndPathStream:
    def test_summary_matches_one_shot_exact_fields(self):
        rng = np.random.default_rng(9)
        vals = rng.lognormal(2, 1.2, 30_000)
        from repro.core.stats import six_number_summary

        exact = six_number_summary(vals)
        s = StreamSummary()
        for part in np.array_split(vals, 7):
            s.update(part)
        got = s.summary()
        assert got.n == exact.n
        assert got.minimum == exact.minimum
        assert got.maximum == exact.maximum
        assert math.isclose(got.mean, exact.mean, rel_tol=1e-12)
        assert math.isclose(got.std, exact.std, rel_tol=1e-9)
        # quartiles are sketched: value tolerance on a smooth sample
        assert math.isclose(got.median, exact.median, rel_tol=0.05)
        assert math.isclose(got.q1, exact.q1, rel_tol=0.05)
        assert math.isclose(got.q3, exact.q3, rel_tol=0.05)

    def test_path_stream_matches_path_report(self):
        log = generate("slac-bnl", seed=11, n_transfers=8_000)
        slog = log.sorted_by_start()
        one_shot = path_report(slog)
        ps = PathStream()
        for chunk in split_log(slog, [2_000, 5_000]):
            ps.update(chunk)
        got = ps.report()
        assert got.n_transfers == one_shot.n_transfers
        for field in ("throughput", "duration", "size"):
            a, b = getattr(got, field), getattr(one_shot, field)
            assert a.n == b.n
            assert a.minimum == b.minimum and a.maximum == b.maximum
            assert math.isclose(a.mean, b.mean, rel_tol=1e-12)
            assert math.isclose(a.median, b.median, rel_tol=0.05)
        assert math.isclose(
            got.max_throughput_gbps, one_shot.max_throughput_gbps, rel_tol=1e-12
        )


class TestStreamAnalysis:
    def test_census_matches_one_shot(self):
        chunks = list(
            generate_stream("slac-bnl", 40_000, 7_000, seed=5,
                            block_transfers=20_000)
        )
        sa = StreamAnalysis(g=60.0)
        for c in chunks:
            sa.update(c)
        rep = sa.finalize()
        full = TransferLog.concatenate(chunks)
        ses = group_sessions_reference(full, 60.0)
        assert rep.n_transfers == len(full)
        assert rep.n_sessions == len(ses)
        assert rep.n_single == ses.n_single
        assert rep.n_multi == ses.n_multi
        assert rep.max_transfers_in_session == ses.max_transfers()
        assert rep.n_sessions_100_plus == ses.count_with_at_least_transfers(100)
        assert math.isclose(rep.total_bytes, float(full.size.sum()), rel_tol=1e-12)
        exact_dur = ses.duration_summary()
        assert rep.session_duration.n == exact_dur.n
        assert rep.session_duration.minimum == exact_dur.minimum
        assert rep.session_duration.maximum == exact_dur.maximum
        assert math.isclose(rep.session_duration.mean, exact_dur.mean, rel_tol=1e-12)

    def test_report_is_chunk_split_invariant(self):
        def run(chunk_size):
            sa = StreamAnalysis(g=60.0)
            for c in generate_stream("slac-bnl", 30_000, chunk_size, seed=2,
                                     block_transfers=15_000):
                sa.update(c)
            return sa.finalize()

        a, b = run(9_000), run(1_111)
        assert a.n_sessions == b.n_sessions
        assert a.session_duration == b.session_duration
        assert a.session_size == b.session_size
        assert a.transfer_throughput == b.transfer_throughput
        assert a.total_bytes == b.total_bytes

    def test_as_dict_is_json_clean(self):
        import json

        sa = StreamAnalysis(g=60.0)
        for c in generate_stream("nersc-ornl-32gb", 400, 100, seed=1,
                                 block_transfers=1_000):
            sa.update(c)
        d = sa.finalize().as_dict()
        json.dumps(d)
        assert d["n_transfers"] == 400

    def test_memory_bound_state_o_chunk_not_o_n(self):
        """Carried state must not scale with the transfer count."""

        def peak_state(n):
            sa = StreamAnalysis(g=60.0)
            for c in generate_stream("slac-bnl", n, 5_000, seed=1,
                                     block_transfers=10_000):
                sa.update(c)
            return sa.finalize().peak_state_nbytes

        small, large = peak_state(10_000), peak_state(60_000)
        # 6x the transfers must not even double the carried state
        assert large < 2 * small
        assert large < 2_000_000  # absolute sanity: well under the chunk size

    def test_builder_footprint_stays_o_chunk(self):
        """generate_stream's internal builder never holds more than one
        generation block + one chunk."""
        from repro.gridftp.records import TransferLogBuilder

        b = TransferLogBuilder()
        peak = 0
        for c in generate_stream("slac-bnl", 40_000, 2_000, seed=3,
                                 block_transfers=10_000):
            b.append_log(c)
            peak = max(peak, c.nbytes)
            while len(b) >= 2_000:
                b.split_off(2_000)
        # each yielded chunk is O(chunk_size) rows
        assert peak <= 2_000 * 64 * 2  # 10 columns * 8B with slack
