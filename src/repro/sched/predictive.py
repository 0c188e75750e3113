"""Predictor-informed scheduling (Vazhkudai & Schopf).

Vazhkudai & Schopf showed that GridFTP throughput is predictable from
the transfer log itself — regression over past transfers beats static
capacity numbers because the *achieved* rate folds in signalling waits,
TCP dynamics, and flap recovery that the nominal circuit bandwidth
never sees.  :class:`OnlineThroughputPredictor` is that idea as an
incremental least-squares fit of achieved throughput against
``log10(size)`` (their size-dependent regressor: small transfers never
amortize startup), and :class:`PredictiveScheduler` feeds the
prediction into the two decisions the ladder makes from a rate:

* **degrade** — :meth:`PredictiveScheduler.plan` runs the same
  :func:`~repro.service.budget.plan_path` ladder but with the
  *predicted* circuit-path rate, so a deadline that nominal capacity
  claims to meet — but history says it will not — degrades to IP up
  front instead of expiring on the circuit;
* **rate-advise** — the requested reservation bandwidth is the
  predicted rate plus headroom (capped at nominal), releasing circuit
  capacity the transfer could never fill.

:func:`prediction_error_cost_curve` measures what prediction *error*
costs: it sweeps a fixed multiplicative bias against an oracle
predictor (bias 1.0) over the deterministic load-test twin and reports
the blocking/goodput/expiry deltas per bias — the methodology DESIGN.md
§16 documents.
"""

from __future__ import annotations

import math
from typing import Any

from ..service.budget import DeadlineBudget, TransferPlan, plan_path
from .base import SchedulerConfig, TransferScheduler, register_scheduler

__all__ = [
    "OnlineThroughputPredictor",
    "FixedRatePredictor",
    "PredictiveScheduler",
    "prediction_error_cost_curve",
]


class OnlineThroughputPredictor:
    """Incremental least squares: achieved bps against ``log10(bytes)``.

    O(1) state (running sums), so it rides inside the discrete-event
    twin at millions of observations.  Until ``min_samples``
    observations arrive, :meth:`predict` returns ``None`` and callers
    fall back to their nominal rate; after that it returns the fitted
    rate clamped to ``[floor_bps, cap_bps]`` (an extrapolated regression
    must never advise a negative or super-nominal circuit).
    """

    def __init__(
        self,
        min_samples: int = 8,
        floor_bps: float = 1e6,
        cap_bps: float | None = None,
    ) -> None:
        if min_samples < 2:
            raise ValueError("min_samples must be >= 2 to fit a line")
        if floor_bps <= 0:
            raise ValueError("floor_bps must be positive")
        self.min_samples = min_samples
        self.floor_bps = floor_bps
        self.cap_bps = cap_bps
        self.n = 0
        self._sx = 0.0
        self._sy = 0.0
        self._sxx = 0.0
        self._sxy = 0.0

    def observe(self, size_bytes: float, achieved_bps: float) -> None:
        """Fold one finished transfer into the fit."""
        if size_bytes <= 0 or achieved_bps <= 0:
            return
        x = math.log10(size_bytes)
        y = achieved_bps
        self.n += 1
        self._sx += x
        self._sy += y
        self._sxx += x * x
        self._sxy += x * y

    def predict(self, size_bytes: float) -> float | None:
        """Predicted throughput (bps) for a transfer this size."""
        if self.n < self.min_samples or size_bytes <= 0:
            return None
        denom = self.n * self._sxx - self._sx * self._sx
        if abs(denom) < 1e-12:
            # every observation at one size: the mean is the whole model
            rate = self._sy / self.n
        else:
            slope = (self.n * self._sxy - self._sx * self._sy) / denom
            intercept = (self._sy - slope * self._sx) / self.n
            rate = intercept + slope * math.log10(size_bytes)
        rate = max(rate, self.floor_bps)
        if self.cap_bps is not None:
            rate = min(rate, self.cap_bps)
        return rate


class FixedRatePredictor:
    """A predictor that always answers ``rate_bps`` and never learns.

    ``FixedRatePredictor(true_rate)`` is the *oracle* of the cost-curve
    methodology; ``FixedRatePredictor(true_rate * bias)`` is an oracle
    with a known, fixed prediction error.
    """

    def __init__(self, rate_bps: float) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.rate_bps = rate_bps
        self.n = 0

    def observe(self, size_bytes: float, achieved_bps: float) -> None:
        self.n += 1

    def predict(self, size_bytes: float) -> float:
        return self.rate_bps


@register_scheduler
class PredictiveScheduler(TransferScheduler):
    """The ladder driven by predicted, not nominal, circuit throughput."""

    name = "predictive"

    def __init__(
        self,
        config: SchedulerConfig | None = None,
        fallback: Any = None,
        predictor: Any = None,
        headroom: float = 1.1,
    ) -> None:
        super().__init__(config=config, fallback=fallback)
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1")
        # a learning predictor is capped at nominal: history can prove
        # the circuit path *slower* than nominal, never faster
        self.predictor = predictor or OnlineThroughputPredictor(
            cap_bps=self.config.vc_rate_bps
        )
        self.headroom = headroom

    def predicted_vc_rate(self, total_bytes: float) -> float:
        """History's answer for the circuit path, nominal until warm."""
        rate = self.predictor.predict(total_bytes)
        return self.config.vc_rate_bps if rate is None else rate

    def plan(
        self,
        budget: DeadlineBudget,
        total_bytes: float,
        setup_estimate_s: float,
    ) -> TransferPlan:
        c = self.config
        return plan_path(
            budget,
            total_bytes,
            self.predicted_vc_rate(total_bytes),
            c.ip_rate_bps,
            setup_estimate_s,
            safety_factor=c.vc_safety_factor,
        )

    def rate_advice(self, total_bytes: float) -> float:
        return min(
            self.predicted_vc_rate(total_bytes) * self.headroom,
            self.config.vc_rate_bps,
        )

    def observe(
        self, total_bytes: float, elapsed_s: float, path: str
    ) -> None:
        # train on circuit rides only: the regression models the VC
        # path (setup + ride + recovery); IP rides would teach it the
        # fallback rate and poison the degrade decision
        if path == "vc" and elapsed_s > 0:
            self.predictor.observe(total_bytes, total_bytes * 8.0 / elapsed_s)


def prediction_error_cost_curve(
    params: dict[str, Any],
    seed: int,
    biases: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
) -> dict[str, Any]:
    """Measure what multiplicative prediction error costs vs an oracle.

    Runs the deterministic load-test twin once per bias with a
    :class:`FixedRatePredictor` answering ``nominal_rate * bias``
    (bias 1.0 *is* the oracle: zero prediction error).  Every run replays
    the identical seeded workload, so the per-bias deltas in blocking
    rate, goodput, and deadline expiry are attributable to the
    prediction error alone.
    """
    from ..service.daemon import config_from_params
    from ..service.loadtest import run_loadtest_sim

    if 1.0 not in biases:
        raise ValueError("biases must include the oracle point 1.0")
    config = config_from_params(params, seed).scheduler_config()
    rows: list[dict[str, Any]] = []
    for bias in biases:
        scheduler = PredictiveScheduler(
            config=config,
            predictor=FixedRatePredictor(config.vc_rate_bps * bias),
        )
        report = run_loadtest_sim(params, seed, scheduler=scheduler)
        report.validate()
        rows.append(
            {
                "bias": bias,
                "blocking_rate": report.shed_fraction,
                "availability": report.availability,
                "goodput_bps": report.goodput_bps,
                "expired_frac": (
                    report.n_expired / report.n_accepted
                    if report.n_accepted
                    else 0.0
                ),
                "paths": dict(report.paths),
                "latency_p99_s": report.latency_p99_s,
            }
        )
    oracle = next(r for r in rows if r["bias"] == 1.0)
    for row in rows:
        row["blocking_cost"] = row["blocking_rate"] - oracle["blocking_rate"]
        row["goodput_cost_bps"] = oracle["goodput_bps"] - row["goodput_bps"]
        row["expired_cost"] = row["expired_frac"] - oracle["expired_frac"]
    return {"seed": seed, "oracle_bias": 1.0, "curve": rows}
