"""Statistical primitives shared by all paper analyses.

Every table in the paper reports R-style six-number summaries
(Min / 1st Qu. / Median / Mean / 3rd Qu. / Max); this module implements
them, together with the coefficient of variation used in Table VI,
quartile partitioning used by the SNMP-correlation analysis (Table XI),
and the binned-median machinery behind Figures 3--5.

Quantiles use linear interpolation (NumPy default, R type 7), matching R's
``summary()`` which the paper's numbers visibly come from.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

__all__ = [
    "SixNumberSummary",
    "six_number_summary",
    "coefficient_of_variation",
    "quartile_labels",
    "split_by_quartile",
    "BinnedMedians",
    "binned_medians",
    "pearson_correlation",
    "interquartile_range",
    "box_stats",
    "BoxStats",
]


@dataclasses.dataclass(frozen=True, slots=True)
class SixNumberSummary:
    """R-style ``summary()`` output: the paper's standard table row."""

    minimum: float
    q1: float
    median: float
    mean: float
    q3: float
    maximum: float
    n: int = 0
    std: float = float("nan")

    @property
    def iqr(self) -> float:
        """Inter-quartile range (used in the abstract: 695 Mbps on NERSC-ORNL)."""
        return self.q3 - self.q1

    def scaled(self, factor: float) -> "SixNumberSummary":
        """Return the summary with every location statistic multiplied by ``factor``.

        Useful for unit changes (bytes -> MB, bps -> Mbps); ``n`` is kept and
        ``std`` scales linearly.
        """
        return SixNumberSummary(
            minimum=self.minimum * factor,
            q1=self.q1 * factor,
            median=self.median * factor,
            mean=self.mean * factor,
            q3=self.q3 * factor,
            maximum=self.maximum * factor,
            n=self.n,
            std=self.std * factor,
        )

    def as_row(self) -> tuple[float, float, float, float, float, float]:
        """The (Min, 1stQu, Median, Mean, 3rdQu, Max) tuple, in table order."""
        return (self.minimum, self.q1, self.median, self.mean, self.q3, self.maximum)


def six_number_summary(values: Sequence[float] | np.ndarray) -> SixNumberSummary:
    """Compute Min/1stQu/Median/Mean/3rdQu/Max (+ n, std) of ``values``.

    Raises ``ValueError`` on an empty input: every paper table summarizes a
    non-empty slice, and an empty slice upstream indicates a filtering bug.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    if np.any(~np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    return SixNumberSummary(
        minimum=float(arr.min()),
        q1=float(q1),
        median=float(med),
        mean=float(arr.mean()),
        q3=float(q3),
        maximum=float(arr.max()),
        n=int(arr.size),
        # ddof=1: sample standard deviation, as R's sd() reports.
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
    )


def coefficient_of_variation(values: Sequence[float] | np.ndarray) -> float:
    """Coefficient of variation (sample std / mean), as in Table VI.

    Returns NaN for a zero mean rather than raising, because CV is reported
    per category and a degenerate category should not abort the whole table.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        return float("nan")
    mean = arr.mean()
    if mean == 0.0:
        return float("nan")
    return float(arr.std(ddof=1) / mean)


def interquartile_range(values: Sequence[float] | np.ndarray) -> float:
    """Q3 - Q1 of ``values`` (linear-interpolation quantiles)."""
    q1, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25.0, 75.0])
    return float(q3 - q1)


def quartile_labels(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Label each element with its quartile (1..4) by value rank.

    The paper divides the 145 NERSC--ORNL transfers "into four quartiles
    based on throughput" (Section VII-C); this implements that split.  Ties
    on the quartile boundaries go to the lower quartile.  The quartile
    populations differ by at most one element.
    """
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    if n == 0:
        return np.zeros(0, dtype=np.int8)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    # rank r (0-based) -> quartile 1 + floor(4r/n), clamped to 4
    labels = 1 + (4 * ranks) // max(n, 1)
    return np.minimum(labels, 4).astype(np.int8)


def split_by_quartile(
    values: Sequence[float] | np.ndarray,
) -> list[np.ndarray]:
    """Index arrays of the four value-rank quartiles of ``values``."""
    labels = quartile_labels(values)
    return [np.flatnonzero(labels == q) for q in (1, 2, 3, 4)]


@dataclasses.dataclass(frozen=True, slots=True)
class BinnedMedians:
    """Result of :func:`binned_medians`: one median per populated bin.

    ``bin_left`` holds the left edge of each populated bin, ``median`` the
    per-bin median, ``count`` the per-bin sample size.  Bins with no
    observations are omitted (the paper's Figures 3--5 simply have no point
    there).
    """

    bin_left: np.ndarray
    median: np.ndarray
    count: np.ndarray

    def __len__(self) -> int:
        return int(self.bin_left.size)

    def where_count_at_least(self, min_count: int) -> "BinnedMedians":
        """Drop bins with fewer than ``min_count`` observations.

        Section VII-B discounts 1-stream bins with fewer than 300 samples
        as unrepresentative; this is that filter.
        """
        keep = self.count >= min_count
        return BinnedMedians(self.bin_left[keep], self.median[keep], self.count[keep])


def binned_medians(
    x: Sequence[float] | np.ndarray,
    y: Sequence[float] | np.ndarray,
    bin_width: float,
    x_min: float = 0.0,
    x_max: float | None = None,
) -> BinnedMedians:
    """Median of ``y`` within fixed-width bins of ``x`` (vectorized).

    This is the kernel behind Figures 3--5: x is file size, y is transfer
    throughput, bin width is 1 MB below 1 GB and 100 MB above.  Samples at
    ``x == x_max`` fall in the last bin; samples outside [x_min, x_max] are
    ignored.

    Implementation: one ``np.lexsort`` by (bin id, value) and the
    per-group median read off by index arithmetic — no Python loop over
    bins.  Bit-equal to per-group ``np.median`` (the even-count case is
    the same mean of the two middle elements); with NaNs in ``y`` it
    falls back to the per-bin ``np.median`` loop, which propagates them
    the way ``np.median`` does.
    """
    ids, y, x_min, empty = _bin_ids(x, y, bin_width, x_min, x_max)
    if empty is not None:
        return empty
    if np.isnan(y).any():
        return _medians_by_group_loop(ids, y, x_min, bin_width)
    order = np.lexsort((y, ids))
    ids_sorted = ids[order]
    y_sorted = y[order]
    uniq, starts, counts = np.unique(ids_sorted, return_index=True, return_counts=True)
    mid = starts + counts // 2
    odd = (counts % 2).astype(bool)
    # the even case indexes mid-1; for odd groups that may underflow into
    # the previous group (or to -1), but np.where discards those lanes
    medians = np.where(
        odd, y_sorted[mid], 0.5 * (y_sorted[mid - 1] + y_sorted[mid])
    )
    return BinnedMedians(
        bin_left=x_min + uniq.astype(np.float64) * bin_width,
        median=medians,
        count=counts.astype(np.int64),
    )


def _bin_ids(x, y, bin_width, x_min, x_max):
    """Shared binning preamble: in-range filter + clamped integer bin ids."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same shape")
    if x_max is None:
        x_max = float(x.max()) if x.size else x_min
    in_range = (x >= x_min) & (x <= x_max)
    x = x[in_range]
    y = y[in_range]
    if x.size == 0:
        z = np.zeros(0)
        return None, None, x_min, BinnedMedians(z, z.copy(), np.zeros(0, dtype=np.int64))
    ids = np.floor((x - x_min) / bin_width).astype(np.int64)
    # the final bin is closed on the right: x == x_max belongs to it, and a
    # boundary-aligned x_max does not open an empty extra bin
    last_bin = max(int(math.ceil((x_max - x_min) / bin_width)) - 1, 0)
    ids[ids > last_bin] = last_bin
    return ids, y, x_min, None


def _medians_by_group_loop(ids, y, x_min, bin_width):
    order = np.argsort(ids, kind="stable")
    ids_sorted = ids[order]
    y_sorted = y[order]
    uniq, starts, counts = np.unique(ids_sorted, return_index=True, return_counts=True)
    medians = np.empty(uniq.size, dtype=np.float64)
    for k in range(uniq.size):
        seg = y_sorted[starts[k] : starts[k] + counts[k]]
        medians[k] = np.median(seg)
    return BinnedMedians(
        bin_left=x_min + uniq.astype(np.float64) * bin_width,
        median=medians,
        count=counts.astype(np.int64),
    )


def pearson_correlation(
    x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray
) -> float:
    """Pearson correlation coefficient, NaN-safe for degenerate inputs.

    Returns NaN when either side has zero variance (e.g. a router whose
    SNMP counter never moved), matching how the paper's tables would show
    an undefined cell rather than crashing the whole analysis.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same shape")
    if x.size < 2:
        return float("nan")
    xd = x - x.mean()
    yd = y - y.mean()
    denom = math.sqrt(float(xd @ xd) * float(yd @ yd))
    if denom == 0.0:
        return float("nan")
    return float(xd @ yd) / denom


@dataclasses.dataclass(frozen=True, slots=True)
class BoxStats:
    """Tukey box-plot statistics for one category (Figure 1).

    Whiskers extend to the most extreme data point within 1.5 IQR of the
    box; points beyond are outliers.
    """

    q1: float
    median: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]
    n: int

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def box_stats(values: Sequence[float] | np.ndarray) -> BoxStats:
    """Compute Tukey box-plot statistics of ``values``."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot compute box stats of an empty sample")
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    outliers = arr[(arr < lo_fence) | (arr > hi_fence)]
    return BoxStats(
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
        outliers=tuple(sorted(float(v) for v in outliers)),
        n=int(arr.size),
    )
