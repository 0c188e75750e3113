"""Distribution fitting: validating the heavy-tail structure statistically.

The paper reads its session-size skew off summary statistics ("the median
is significantly smaller than its mean").  This module makes that
quantitative, and doubles as the calibration check for the synthetic
generators:

* :func:`fit_lognormal` — maximum-likelihood lognormal fit with the
  goodness-of-fit KS statistic (via scipy);
* :func:`tail_index` — a Hill estimator of the upper-tail exponent, the
  standard heavy-tail diagnostic;
* :func:`skew_report` — the paper's mean/median skew framing plus the
  fitted parameters, per dataset.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = ["LognormalFit", "fit_lognormal", "tail_index", "SkewReport", "skew_report"]


@dataclasses.dataclass(frozen=True, slots=True)
class LognormalFit:
    """MLE lognormal fit and its KS goodness-of-fit."""

    median: float
    sigma: float
    ks_statistic: float
    ks_pvalue: float
    n: int

    @property
    def mean(self) -> float:
        return self.median * math.exp(self.sigma**2 / 2.0)


def fit_lognormal(values: np.ndarray) -> LognormalFit:
    """Fit a lognormal by MLE in log space; KS test against the fit.

    Positive values only; raises on fewer than 8 samples (the KS statistic
    is meaningless below that).
    """
    arr = np.asarray(values, dtype=np.float64)
    arr = arr[arr > 0]
    if arr.size < 8:
        raise ValueError("need at least 8 positive samples to fit")
    logs = np.log(arr)
    mu = float(logs.mean())
    sigma = float(logs.std(ddof=1))
    if sigma == 0.0:
        raise ValueError("degenerate sample: zero variance in log space")
    # function-local: importing scipy.stats costs every process ~1 s
    # and ~60 MB, and nothing else in a CLI verb or a daemon needs it
    from scipy import stats

    ks = stats.kstest(logs, "norm", args=(mu, sigma))
    return LognormalFit(
        median=math.exp(mu),
        sigma=sigma,
        ks_statistic=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        n=int(arr.size),
    )


def tail_index(values: np.ndarray, tail_fraction: float = 0.1) -> float:
    """Hill estimator of the upper-tail exponent α.

    Small α (≲ 2) marks a heavy tail whose variance is dominated by
    extremes — the session-size regime.  ``tail_fraction`` selects the
    order statistics used (the classic k/n choice).
    """
    if not 0.0 < tail_fraction <= 0.5:
        raise ValueError("tail_fraction must be in (0, 0.5]")
    arr = np.sort(np.asarray(values, dtype=np.float64))
    arr = arr[arr > 0]
    k = max(int(arr.size * tail_fraction), 2)
    if arr.size < k + 1:
        raise ValueError("too few samples for the requested tail fraction")
    tail = arr[-k:]
    x_k = arr[-k - 1]
    return float(k / np.sum(np.log(tail / x_k)))


@dataclasses.dataclass(frozen=True, slots=True)
class SkewReport:
    """The paper's skew framing for one quantity, plus the fitted tail."""

    mean: float
    median: float
    fit: LognormalFit
    hill_alpha: float

    @property
    def mean_over_median(self) -> float:
        return self.mean / self.median if self.median else float("inf")

    @property
    def is_skewed_right(self) -> bool:
        """The Tables I/II observation: mean well above median."""
        return self.mean_over_median > 2.0


def skew_report(values: np.ndarray) -> SkewReport:
    """Characterize one sample's right skew (sizes, durations, ...)."""
    arr = np.asarray(values, dtype=np.float64)
    arr = arr[arr > 0]
    if arr.size < 8:
        raise ValueError("need at least 8 positive samples")
    return SkewReport(
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        fit=fit_lognormal(arr),
        hill_alpha=tail_index(arr),
    )
