"""Unit and property tests for repro.core.stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import (
    BinnedMedians,
    binned_medians,
    box_stats,
    coefficient_of_variation,
    interquartile_range,
    pearson_correlation,
    quartile_labels,
    six_number_summary,
    split_by_quartile,
)

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


class TestSixNumberSummary:
    def test_known_values(self):
        s = six_number_summary([1, 2, 3, 4, 5])
        assert s.minimum == 1 and s.maximum == 5
        assert s.median == 3 and s.mean == 3
        assert s.q1 == 2 and s.q3 == 4
        assert s.n == 5

    def test_iqr(self):
        s = six_number_summary([1, 2, 3, 4, 5])
        assert s.iqr == 2

    def test_single_element(self):
        s = six_number_summary([7.0])
        assert s.minimum == s.maximum == s.median == 7.0
        assert s.std == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            six_number_summary([])

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            six_number_summary([1.0, float("nan")])

    def test_scaled(self):
        s = six_number_summary([10, 20, 30]).scaled(0.1)
        assert s.median == pytest.approx(2.0)
        assert s.n == 3

    def test_as_row_order(self):
        s = six_number_summary([1, 2, 3, 4])
        row = s.as_row()
        assert row == (s.minimum, s.q1, s.median, s.mean, s.q3, s.maximum)

    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_ordering_invariant(self, xs):
        s = six_number_summary(xs)
        assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum
        # the mean accumulates rounding error; allow a few ulps of slack
        slack = 1e-9 * max(abs(s.minimum), abs(s.maximum), 1.0)
        assert s.minimum - slack <= s.mean <= s.maximum + slack

    @given(st.lists(finite_floats, min_size=2, max_size=50), finite_floats)
    def test_shift_invariance_of_iqr(self, xs, c):
        base = interquartile_range(xs)
        shifted = interquartile_range([x + c for x in xs])
        assert shifted == pytest.approx(base, rel=1e-6, abs=1e-3)


class TestCoefficientOfVariation:
    def test_constant_sample(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_known_value(self):
        xs = np.array([1.0, 2.0, 3.0])
        assert coefficient_of_variation(xs) == pytest.approx(
            xs.std(ddof=1) / xs.mean()
        )

    def test_single_value_nan(self):
        assert np.isnan(coefficient_of_variation([1.0]))

    def test_zero_mean_nan(self):
        assert np.isnan(coefficient_of_variation([-1.0, 1.0]))

    def test_scale_invariance(self):
        xs = [1.0, 4.0, 9.0]
        assert coefficient_of_variation(xs) == pytest.approx(
            coefficient_of_variation([10 * x for x in xs])
        )


class TestQuartileLabels:
    def test_even_split(self):
        labels = quartile_labels(np.arange(8.0))
        assert np.array_equal(labels, [1, 1, 2, 2, 3, 3, 4, 4])

    def test_rank_based_not_value_based(self):
        # extreme outlier still lands in one quartile, not distorting others
        labels = quartile_labels([1, 2, 3, 1e12])
        assert np.array_equal(labels, [1, 2, 3, 4])

    def test_empty(self):
        assert quartile_labels([]).size == 0

    def test_split_by_quartile_partition(self):
        values = np.random.default_rng(0).normal(size=103)
        parts = split_by_quartile(values)
        combined = np.sort(np.concatenate(parts))
        assert np.array_equal(combined, np.arange(103))
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    @given(st.lists(finite_floats, min_size=4, max_size=100))
    def test_quartiles_ordered_by_value(self, xs):
        parts = split_by_quartile(xs)
        arr = np.asarray(xs)
        # every value in quartile q is <= every value in quartile q+1
        for lo, hi in zip(parts[:-1], parts[1:]):
            if lo.size and hi.size:
                assert arr[lo].max() <= arr[hi].min() + 1e-9


class TestBinnedMedians:
    def test_basic_binning(self):
        x = np.array([0.5, 1.5, 1.7, 2.5])
        y = np.array([10.0, 20.0, 30.0, 40.0])
        bm = binned_medians(x, y, bin_width=1.0, x_min=0.0, x_max=3.0)
        assert np.array_equal(bm.bin_left, [0.0, 1.0, 2.0])
        assert np.array_equal(bm.median, [10.0, 25.0, 40.0])
        assert np.array_equal(bm.count, [1, 2, 1])

    def test_empty_bins_omitted(self):
        bm = binned_medians([0.5, 5.5], [1.0, 2.0], 1.0, 0.0, 10.0)
        assert len(bm) == 2
        assert np.array_equal(bm.bin_left, [0.0, 5.0])

    def test_out_of_range_ignored(self):
        bm = binned_medians([-1.0, 0.5, 99.0], [5, 6, 7], 1.0, 0.0, 1.0)
        assert len(bm) == 1
        assert bm.median[0] == 6

    def test_x_max_boundary_in_last_bin(self):
        bm = binned_medians([2.0], [3.0], 1.0, 0.0, 2.0)
        assert bm.bin_left[0] == 1.0  # last bin is [1, 2]

    def test_where_count_at_least(self):
        bm = BinnedMedians(
            bin_left=np.array([0.0, 1.0]),
            median=np.array([1.0, 2.0]),
            count=np.array([5, 500]),
        )
        filtered = bm.where_count_at_least(300)
        assert len(filtered) == 1
        assert filtered.median[0] == 2.0

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            binned_medians([1.0], [1.0], 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            binned_medians([1.0, 2.0], [1.0], 1.0)

    def test_empty_input(self):
        bm = binned_medians([], [], 1.0, 0.0, 10.0)
        assert len(bm) == 0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                finite_floats,
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=50)
    def test_counts_sum_to_inrange_samples(self, pairs):
        x = np.array([p[0] for p in pairs])
        y = np.array([p[1] for p in pairs])
        bm = binned_medians(x, y, 7.0, 0.0, 100.0)
        assert bm.count.sum() == len(pairs)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_gives_nan(self):
        assert np.isnan(pearson_correlation([1, 1, 1], [1, 2, 3]))

    def test_short_input_nan(self):
        assert np.isnan(pearson_correlation([1.0], [2.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1, 2, 3])

    def test_matches_numpy(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=50), rng.normal(size=50)
        assert pearson_correlation(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    @given(st.lists(finite_floats, min_size=3, max_size=50))
    @settings(max_examples=50)
    def test_bounded(self, xs):
        ys = list(reversed(xs))
        r = pearson_correlation(xs, ys)
        assert np.isnan(r) or -1.0 - 1e-9 <= r <= 1.0 + 1e-9


class TestBoxStats:
    def test_no_outliers(self):
        b = box_stats([1, 2, 3, 4, 5])
        assert b.whisker_low == 1 and b.whisker_high == 5
        assert b.outliers == ()

    def test_outlier_detection(self):
        b = box_stats([1, 2, 3, 4, 5, 100])
        assert 100.0 in b.outliers
        assert b.whisker_high <= 5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            box_stats([])

    def test_iqr_property(self):
        b = box_stats([1, 2, 3, 4, 5, 6, 7, 8])
        assert b.iqr == pytest.approx(b.q3 - b.q1)

    @given(st.lists(finite_floats, min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_whiskers_within_data(self, xs):
        b = box_stats(xs)
        assert min(xs) <= b.whisker_low <= b.whisker_high <= max(xs)
        assert b.n == len(xs)


class TestBinnedMediansVectorized:
    """The vectorized binned_medians against the per-bin loop oracle."""

    def test_matches_reference_on_random_data(self):
        from tests.oracles import binned_medians_reference

        rng = np.random.default_rng(10)
        x = rng.uniform(0, 100, 5_000)
        y = rng.lognormal(2, 1, 5_000)
        for width in (1.0, 7.5, 33.0):
            a = binned_medians(x, y, bin_width=width)
            b = binned_medians_reference(x, y, bin_width=width)
            assert np.array_equal(a.bin_left, b.bin_left)
            assert np.array_equal(a.median, b.median, equal_nan=True)
            assert np.array_equal(a.count, b.count)

    def test_matches_reference_with_empty_bins(self):
        from tests.oracles import binned_medians_reference

        x = np.array([0.5, 0.6, 10.5, 10.6, 10.7])
        y = np.array([1.0, 3.0, 2.0, 4.0, 6.0])
        a = binned_medians(x, y, bin_width=1.0)
        b = binned_medians_reference(x, y, bin_width=1.0)
        assert np.array_equal(a.median, b.median, equal_nan=True)
        assert np.array_equal(a.count, b.count)

    def test_nan_y_falls_back_to_reference(self):
        from tests.oracles import binned_medians_reference

        x = np.array([0.0, 0.5, 1.5])
        y = np.array([1.0, np.nan, 2.0])
        a = binned_medians(x, y, bin_width=1.0)
        b = binned_medians_reference(x, y, bin_width=1.0)
        assert np.array_equal(a.median, b.median, equal_nan=True)

    @given(
        st.lists(finite_floats, min_size=1, max_size=80),
        st.floats(min_value=0.5, max_value=20),
    )
    @settings(max_examples=50)
    def test_property_oracle_agreement(self, xs, width):
        from tests.oracles import binned_medians_reference

        ys = [x * 2 + 1 for x in reversed(xs)]
        a = binned_medians(xs, ys, bin_width=width)
        b = binned_medians_reference(xs, ys, bin_width=width)
        assert np.array_equal(a.bin_left, b.bin_left)
        assert np.array_equal(a.median, b.median, equal_nan=True)
        assert np.array_equal(a.count, b.count)
