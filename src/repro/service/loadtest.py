"""Open-loop load testing of the daemon: latency SLOs and fault storms.

The one harness that storms the daemon.  Arrivals are *open-loop*: a
closed-loop storm, which awaits every ``submit`` before sleeping the
next gap, lets an overloaded daemon slow its own arrival process and
hides queueing collapse inside a gentler offered load.  A real arrival
process does not care how the service is doing — the paper's Fig. 6
time-of-day pulse keeps coming whether the circuits signal in one
second or one minute.  This module drives the daemon the way
``fdtcp``'s ``loadtest/`` drives fdtd:

* **arrival generators** — schedules in *virtual* service seconds:
  :func:`poisson_schedule` (memoryless), :func:`onoff_schedule`
  (bursty, alternating exponential ON/OFF phases), and
  :func:`diurnal_schedule` (a non-homogeneous process thinned against a
  24-hour shape sampled from the paper's Fig. 6 curve — activity
  spiking at the 2 AM and 8 AM cron hours);
* **an open-loop driver** — :func:`run_loadtest` fires every submission
  at its *scheduled* time on the daemon's compressed clock, as an
  independent asyncio task that is never awaited before the next
  arrival; latency is measured from the scheduled arrival to the settle
  response, so driver lateness and queue wait both count against the
  SLO.  ``n_crashes`` crash ops fire the same way at seeded arrival
  indices, so one storm also checks the daemon-side contracts: crashed
  loops restart, ``/health`` stays ok at every status sample, and an
  embedded daemon drains to exit 75 with no accepted request lost;
* **a deterministic twin** — :func:`run_loadtest_sim` replays the same
  arrival schedule and request mix as the *discrete-event driver* of the
  daemon's own :class:`~repro.service.core.ServiceCore`: the same
  submit/start/plan/settle lifecycle the asyncio daemon drives, on an
  event heap with a hand-cranked clock and a seeded service-time model,
  so two runs with one seed produce byte-identical censuses — the Ext-U
  bench's regression anchor;
* **an SLO report** — :class:`LoadTestReport` pins p50/p95/p99 request
  latency (via :class:`~repro.core.streaming.QuantileSketch`),
  scheduler throughput, the shed census by reason, the degradation mix
  (VC vs routed-IP rungs), the admission bound and the daemon's health
  sampled throughout the storm, and the work-loop restarts.
"""

from __future__ import annotations

import asyncio
import dataclasses
import heapq
import math
import os
import tempfile
import time
from collections.abc import Mapping
from typing import Any

import numpy as np

from ..core.rng import ensure_rng
from ..core.streaming import QuantileSketch
from ..sched.base import TransferScheduler, make_scheduler
from ..vc.circuits import BatchSignalling
from ..workload.diurnal import DiurnalProfile, sample_arrivals
from .admission import SHED_REASONS
from .api import AsyncServiceClient
from .budget import PathChoice, TransferPlan
from .core import InvalidSubmission, ServiceCore, ServiceRequest
from .daemon import EXIT_DRAINED, TransferDaemon, config_from_params
from .health import SETTLED_STATES, ServiceMetrics

__all__ = [
    "FIG6_HOURLY",
    "fig6_profile",
    "poisson_schedule",
    "onoff_schedule",
    "diurnal_schedule",
    "build_schedule",
    "RequestMix",
    "LatencyRecorder",
    "LoadTestReport",
    "run_loadtest",
    "run_loadtest_sim",
    "latency_sweep_table",
]

#: relative arrival intensity by hour of day, sampled from the paper's
#: Fig. 6 time-of-day shape: activity concentrates at the 2 AM and 8 AM
#: test-cron hours, with a modest working-day shoulder and quiet nights
FIG6_HOURLY: tuple[float, ...] = (
    0.2, 0.2, 4.0, 1.0, 0.3, 0.2,   # 00-05, the 2 AM cron spike
    0.3, 0.6, 3.2, 1.2, 0.8, 0.8,   # 06-11, the 8 AM cron spike
    0.9, 0.9, 0.8, 0.8, 0.7, 0.6,   # 12-17
    0.5, 0.4, 0.3, 0.3, 0.2, 0.2,   # 18-23
)


def fig6_profile() -> DiurnalProfile:
    """The Fig. 6 load shape as a :class:`DiurnalProfile` (mean 1)."""
    return DiurnalProfile(hourly=FIG6_HOURLY, weekend_factor=0.7)


# ---------------------------------------------------------------------------
# arrival-process generators (virtual seconds, relative to storm start)


def poisson_schedule(
    n: int, rate_per_s: float, rng: np.random.Generator | None = None
) -> np.ndarray:
    """``n`` Poisson arrival offsets at ``rate_per_s`` (virtual seconds)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_positive_finite("rate_per_s", rate_per_s)
    rng = ensure_rng(rng)
    return np.cumsum(rng.exponential(1.0 / rate_per_s, size=n))


def onoff_schedule(
    n: int,
    on_rate_per_s: float,
    mean_on_s: float,
    mean_off_s: float,
    off_rate_per_s: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Bursty arrivals: exponential ON/OFF phases, Poisson within each.

    The classic interrupted-Poisson process — the same offered count as
    a plain Poisson stream but packed into bursts, so the daemon's
    admission bound is probed by clumps instead of a steady trickle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # a NaN rate or duration passes a `<= 0` check and then never
    # yields an arrival: the phase loop below would spin forever
    _require_positive_finite("on_rate_per_s", on_rate_per_s)
    _require_non_negative_finite("off_rate_per_s", off_rate_per_s)
    _require_positive_finite("mean_on_s", mean_on_s)
    _require_positive_finite("mean_off_s", mean_off_s)
    rng = ensure_rng(rng)
    times: list[float] = []
    t = 0.0
    on = True
    while len(times) < n:
        duration = rng.exponential(mean_on_s if on else mean_off_s)
        rate = on_rate_per_s if on else off_rate_per_s
        if rate > 0 and duration > 0:
            k = rng.poisson(rate * duration)
            if k:
                times.extend(
                    np.sort(rng.uniform(t, t + duration, size=k)).tolist()
                )
        t += duration
        on = not on
    return np.asarray(times[:n], dtype=np.float64)


def diurnal_schedule(
    n: int,
    base_rate_per_s: float,
    profile: DiurnalProfile | None = None,
    start_hour: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """``n`` arrivals from a rate-modulated process over the Fig. 6 shape.

    Thinning-based non-homogeneous Poisson sampling
    (:func:`~repro.workload.diurnal.sample_arrivals`) over an expanding
    horizon until ``n`` arrivals land; ``start_hour`` anchors the storm
    inside the daily curve (start at 1.5 to catch the 2 AM spike).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_positive_finite("base_rate_per_s", base_rate_per_s)
    if not math.isfinite(start_hour):
        raise ValueError(f"start_hour must be finite, got {start_hour!r}")
    profile = fig6_profile() if profile is None else profile
    rng = ensure_rng(rng)
    t0 = float(start_hour) * 3600.0
    window = max(n / base_rate_per_s, 3600.0)
    out: list[float] = []
    t = t0
    while len(out) < n:
        arrivals = sample_arrivals(profile, base_rate_per_s, t, t + window, rng)
        out.extend(arrivals.tolist())
        t += window
    return np.asarray(out[:n], dtype=np.float64) - t0


def _require_positive_finite(name: str, value: float) -> None:
    """Refuse ``value`` unless it is a positive finite number."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_non_negative_finite(name: str, value: float) -> None:
    """Refuse ``value`` unless it is a non-negative finite number."""
    if not (value >= 0 and math.isfinite(value)):
        raise ValueError(
            f"{name} must be non-negative and finite, got {value!r}"
        )


def build_schedule(
    params: Mapping[str, Any], rng: np.random.Generator
) -> np.ndarray:
    """Dispatch the ``arrivals`` param onto a generator (shared by modes)."""
    kind = str(params.get("arrivals", "poisson"))
    n = int(params.get("n_requests", 50))
    rate = float(params.get("rate_per_s", 0.1))
    if kind == "poisson":
        return poisson_schedule(n, rate, rng)
    if kind == "onoff":
        return onoff_schedule(
            n,
            on_rate_per_s=float(params.get("on_rate_per_s", 4.0 * rate)),
            mean_on_s=float(params.get("mean_on_s", 60.0)),
            mean_off_s=float(params.get("mean_off_s", 180.0)),
            off_rate_per_s=float(params.get("off_rate_per_s", 0.0)),
            rng=rng,
        )
    if kind == "diurnal":
        return diurnal_schedule(
            n,
            rate,
            start_hour=float(params.get("start_hour", 1.5)),
            rng=rng,
        )
    raise ValueError(f"unknown arrival process {kind!r}")


# ---------------------------------------------------------------------------
# the request mix (one deterministic draw per column, shared by modes)


class RequestMix:
    """Per-arrival request properties, drawn once and replayed verbatim.

    Both drivers build the mix from the same seed, so the live daemon
    and the deterministic twin see identical tenants, file lists,
    deadlines, and injected-invalid submissions in the same order.
    ``invalid_frac`` submissions carry a negative file size — the
    daemon must refuse them (``n_invalid``), never execute them.

    Each field is one vectorized draw over all ``n`` arrivals, in this
    order: file counts, invalid flags, tight-deadline flags, tenants
    (DESIGN.md §15).  A new field must append its own draw after these,
    so the fields already drawn replay unchanged.
    """

    def __init__(
        self,
        n: int,
        rng: np.random.Generator,
        n_tenants: int = 3,
        max_files: int = 3,
        file_size_bytes: float = 4e9,
        tight_deadline_frac: float = 0.25,
        tight_deadline_s: float = 45.0,
        invalid_frac: float = 0.0,
    ) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        if max_files < 1:
            raise ValueError("max_files must be >= 1")
        if not 0.0 <= invalid_frac <= 1.0:
            raise ValueError("invalid_frac must be in [0, 1]")
        if not 0.0 <= tight_deadline_frac <= 1.0:
            raise ValueError(
                f"tight_deadline_frac must be in [0, 1], "
                f"got {tight_deadline_frac!r}"
            )
        # a size or deadline the daemon refuses would turn every
        # submission into an invalid one, and the mix into no load
        _require_positive_finite("file_size_bytes", file_size_bytes)
        _require_positive_finite("tight_deadline_s", tight_deadline_s)
        n_files = rng.integers(1, max_files + 1, size=n).tolist()
        invalid = (rng.random(n) < invalid_frac).tolist()
        tight = (rng.random(n) < tight_deadline_frac).tolist()
        tenants = rng.integers(0, n_tenants, size=n).tolist()
        size = float(file_size_bytes)
        deadline = float(tight_deadline_s)
        self.items: list[dict[str, Any]] = [
            {
                "tenant": f"tenant-{tenant}",
                "file_sizes": (
                    [-size] + [size] * (k - 1) if bad else [size] * k
                ),
                "deadline_s": deadline if short else None,
                "invalid": bad,
            }
            for k, bad, short, tenant in zip(n_files, invalid, tight, tenants)
        ]

    @classmethod
    def from_params(
        cls, params: Mapping[str, Any], rng: np.random.Generator
    ) -> "RequestMix":
        return cls(
            n=int(params.get("n_requests", 50)),
            rng=rng,
            n_tenants=int(params.get("n_tenants", 3)),
            max_files=int(params.get("max_files", 3)),
            file_size_bytes=float(params.get("file_size_bytes", 4e9)),
            tight_deadline_frac=float(params.get("tight_deadline_frac", 0.25)),
            tight_deadline_s=float(params.get("tight_deadline_s", 45.0)),
            invalid_frac=float(params.get("invalid_frac", 0.0)),
        )

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i: int) -> dict[str, Any]:
        return self.items[i]


# ---------------------------------------------------------------------------
# the latency recorder


class LatencyRecorder:
    """Per-request latency accumulator with bounded-memory quantiles.

    A thin SLO-shaped wrapper over
    :class:`~repro.core.streaming.QuantileSketch`: record one latency
    per settled request, read p50/p95/p99 at the end.  Values buffer in
    a small batch so sketch updates stay vectorized.
    """

    _FLUSH = 256

    def __init__(self, k: int = 512) -> None:
        self.sketch = QuantileSketch(k=k)
        self._pending: list[float] = []
        self._sum = 0.0

    def record(self, latency_s: float) -> None:
        if not math.isfinite(latency_s) or latency_s < 0:
            raise ValueError("latency must be finite and non-negative")
        self._pending.append(float(latency_s))
        self._sum += float(latency_s)
        if len(self._pending) >= self._FLUSH:
            self._flush()

    def _flush(self) -> None:
        if self._pending:
            self.sketch.update(np.asarray(self._pending))
            self._pending = []

    @property
    def count(self) -> int:
        return self.sketch.count + len(self._pending)

    def summary(self) -> dict[str, float | None]:
        """``p50/p95/p99/mean/max`` seconds, or all-``None`` when empty."""
        self._flush()
        if self.sketch.count == 0:
            return {"p50": None, "p95": None, "p99": None,
                    "mean": None, "max": None}
        p50, p95, p99 = (
            float(v) for v in self.sketch.quantiles(np.array([0.5, 0.95, 0.99]))
        )
        return {
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "mean": self._sum / self.sketch.count,
            "max": float(self.sketch.maximum),
        }


# ---------------------------------------------------------------------------
# the SLO report


@dataclasses.dataclass
class LoadTestReport:
    """What one load-test run promises: censuses, SLOs, and the bound."""

    mode: str                  # "live" | "sim"
    arrivals: str
    time_scale: float
    #: full submission ledger: offered == accepted + shed + invalid
    n_offered: int
    n_accepted: int
    n_shed: int
    n_invalid: int
    shed: dict[str, int]
    #: accepted-request outcomes (they must sum to n_accepted)
    n_succeeded: int
    n_failed: int
    n_expired: int
    n_checkpointed: int
    #: degradation mix over accepted requests that were planned
    paths: dict[str, int]
    #: latency domain: "wall" (live driver) or "virtual" (sim twin)
    latency_domain: str
    latency_p50_s: float | None
    latency_p95_s: float | None
    latency_p99_s: float | None
    latency_mean_s: float | None
    latency_max_s: float | None
    #: storm duration in the latency domain
    duration_s: float
    #: offered and settled request rates in the latency domain
    offered_rps: float
    throughput_rps: float
    #: real wall seconds the whole run took (harness speed, both modes)
    wall_s: float
    harness_rps: float
    #: admission bound, sampled at every observation point
    outstanding_max: int
    outstanding_bound: int
    n_outstanding_samples: int
    #: largest retry-after hint seen on a shed response (wall seconds)
    retry_after_max_s: float | None
    #: the scheduling policy the run served under (DESIGN.md §16)
    scheduler: str = "fcfs"
    #: fraction of *offered* submissions that fully succeeded — with
    #: goodput_bps, the pair the pareto_front analysis consumes
    availability: float = 0.0
    #: bytes fully moved by succeeded requests (sim twin; 0 when untracked)
    bytes_moved: float = 0.0
    #: succeeded-bytes goodput over the storm duration, bits/s
    goodput_bps: float = 0.0
    #: Jain fairness index over per-tenant success counts (None untracked)
    fairness_jain: float | None = None
    #: work-loop restarts during the storm (live driver; the twin has none)
    loop_restarts: int = 0
    #: ``/status`` samples whose ``/health`` verdict was not ok
    n_unhealthy_samples: int = 0

    @property
    def n_settled(self) -> int:
        return (
            self.n_succeeded + self.n_failed + self.n_expired
            + self.n_checkpointed
        )

    @property
    def shed_fraction(self) -> float:
        return self.n_shed / self.n_offered if self.n_offered else 0.0

    def census(self) -> dict[str, Any]:
        """The deterministic accept/shed/degrade slice (no wall clocks)."""
        return {
            "n_offered": self.n_offered,
            "n_accepted": self.n_accepted,
            "n_shed": self.n_shed,
            "n_invalid": self.n_invalid,
            "shed": dict(self.shed),
            "n_succeeded": self.n_succeeded,
            "n_failed": self.n_failed,
            "n_expired": self.n_expired,
            "n_checkpointed": self.n_checkpointed,
            "paths": dict(self.paths),
        }

    def validate(self) -> None:
        """Raise ``AssertionError`` on any violated service contract."""
        if self.n_offered != self.n_accepted + self.n_shed + self.n_invalid:
            raise AssertionError(
                f"submission ledger broken: offered {self.n_offered} != "
                f"accepted {self.n_accepted} + shed {self.n_shed} + "
                f"invalid {self.n_invalid}"
            )
        if sum(self.shed.values()) != self.n_shed:
            raise AssertionError("shed census disagrees with n_shed")
        unknown = sorted(set(self.shed) - set(SHED_REASONS))
        if unknown:
            raise AssertionError(f"unknown shed reason(s) {unknown}")
        if self.n_settled != self.n_accepted:
            raise AssertionError(
                f"{self.n_accepted - self.n_settled} accepted request(s) "
                f"unaccounted for"
            )
        if sum(self.paths.values()) > self.n_accepted:
            raise AssertionError("more planned paths than accepted requests")
        if self.outstanding_max > self.outstanding_bound:
            raise AssertionError(
                f"admission bound violated: outstanding reached "
                f"{self.outstanding_max} > limit {self.outstanding_bound}"
            )
        if self.n_unhealthy_samples:
            raise AssertionError(
                f"/health was not ok at {self.n_unhealthy_samples} "
                f"status sample(s)"
            )
        lats = (self.latency_p50_s, self.latency_p95_s, self.latency_p99_s)
        if any(v is not None for v in lats):
            if not all(v is not None and math.isfinite(v) for v in lats):
                raise AssertionError("latency quantiles must all be finite")
            if not (lats[0] <= lats[1] <= lats[2]):
                raise AssertionError("latency quantiles must be monotone")

    def as_dict(self) -> dict[str, Any]:
        """Strict-JSON-safe view (cacheable under the campaign runner)."""
        out = dataclasses.asdict(self)
        out["n_settled"] = self.n_settled
        out["shed_fraction"] = self.shed_fraction
        return out


def _report_from_counts(
    *,
    mode: str,
    params: Mapping[str, Any],
    counts: ServiceMetrics,
    shed: Mapping[str, int],
    paths: Mapping[str, int],
    recorder: LatencyRecorder,
    latency_domain: str,
    duration_s: float,
    wall_s: float,
    outstanding_samples: list[int],
    outstanding_bound: int,
    retry_after_max_s: float | None,
    time_scale: float,
    scheduler: str = "fcfs",
    bytes_moved: float = 0.0,
    tenant_succeeded: Mapping[str, int] | None = None,
    loop_restarts: int = 0,
    n_unhealthy_samples: int = 0,
) -> LoadTestReport:
    lat = recorder.summary()
    n_offered = counts.n_submitted
    n_settled_ok = counts.n_settled
    return LoadTestReport(
        mode=mode,
        arrivals=str(params.get("arrivals", "poisson")),
        time_scale=time_scale,
        n_offered=n_offered,
        n_accepted=counts.n_accepted,
        n_shed=counts.n_shed,
        n_invalid=counts.n_invalid,
        shed={k: int(v) for k, v in sorted(shed.items())},
        n_succeeded=counts.n_completed,
        n_failed=counts.n_failed,
        n_expired=counts.n_expired,
        n_checkpointed=counts.n_checkpointed,
        paths={k: int(v) for k, v in sorted(paths.items())},
        latency_domain=latency_domain,
        latency_p50_s=lat["p50"],
        latency_p95_s=lat["p95"],
        latency_p99_s=lat["p99"],
        latency_mean_s=lat["mean"],
        latency_max_s=lat["max"],
        duration_s=float(duration_s),
        offered_rps=n_offered / duration_s if duration_s > 0 else 0.0,
        throughput_rps=n_settled_ok / duration_s if duration_s > 0 else 0.0,
        wall_s=float(wall_s),
        harness_rps=n_offered / wall_s if wall_s > 0 else 0.0,
        outstanding_max=max(outstanding_samples, default=0),
        outstanding_bound=int(outstanding_bound),
        n_outstanding_samples=len(outstanding_samples),
        retry_after_max_s=retry_after_max_s,
        scheduler=scheduler,
        availability=counts.n_completed / n_offered if n_offered else 0.0,
        bytes_moved=float(bytes_moved),
        goodput_bps=(
            bytes_moved * 8.0 / duration_s if duration_s > 0 else 0.0
        ),
        fairness_jain=_jain_index(tenant_succeeded),
        loop_restarts=loop_restarts,
        n_unhealthy_samples=n_unhealthy_samples,
    )


def _jain_index(counts: Mapping[str, int] | None) -> float | None:
    """Jain's fairness index over per-tenant success counts.

    1.0 when every tenant succeeded equally, → 1/n when one tenant took
    everything.  ``None`` when the run did not track tenants (live
    driver) or no tenant succeeded at all.
    """
    if not counts:
        return None
    values = list(counts.values())
    square_sum = sum(v * v for v in values)
    if square_sum == 0:
        return None
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


# ---------------------------------------------------------------------------
# the open-loop live driver


async def _request_once(
    socket_path: str, body: dict[str, Any]
) -> dict[str, Any]:
    """One control op over its own connection."""
    client = await AsyncServiceClient.connect(socket_path)
    try:
        return await client.request(body)
    finally:
        await client.close()


async def _drive_open_loop(
    socket_path: str,
    schedule_virtual: np.ndarray,
    mix: RequestMix,
    crash_at: set[int],
    time_scale: float,
    sample_interval_s: float,
    request_timeout_s: float,
) -> dict[str, Any]:
    """Fire every submission and crash op on schedule, never awaiting one."""
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    responses: list[dict[str, Any] | None] = [None] * len(mix)
    latencies: list[float | None] = [None] * len(mix)
    outstanding_samples: list[int] = []
    n_unhealthy = 0
    storm_over = asyncio.Event()

    async def fire(i: int) -> None:
        t_sched = t0 + float(schedule_virtual[i]) / time_scale
        item = mix[i]
        client = await AsyncServiceClient.connect(socket_path)
        try:
            resp = await asyncio.wait_for(
                client.submit(
                    item["file_sizes"],
                    tenant=item["tenant"],
                    deadline_s=item["deadline_s"],
                    wait=True,
                ),
                timeout=request_timeout_s,
            )
        finally:
            await client.close()
        responses[i] = resp
        latencies[i] = loop.time() - t_sched

    async def crash() -> None:
        resp = await _request_once(socket_path, {"op": "crash"})
        if not resp.get("ok"):
            raise ValueError(
                f"the daemon refused the crash op ({resp.get('error')}); "
                f"n_crashes needs a daemon started with --chaos-ops"
            )

    async def sample() -> None:
        nonlocal n_unhealthy
        client = await AsyncServiceClient.connect(socket_path)
        try:
            while not storm_over.is_set():
                st = (await client.request({"op": "status"}))["status"]
                outstanding_samples.append(int(st["outstanding"]))
                if not st["health"]["ok"]:
                    n_unhealthy += 1
                try:
                    await asyncio.wait_for(
                        storm_over.wait(), timeout=sample_interval_s
                    )
                except asyncio.TimeoutError:
                    pass
        finally:
            await client.close()

    sampler = asyncio.create_task(sample())
    tasks: list[asyncio.Task] = []
    try:
        for i in range(len(mix)):
            delay = t0 + float(schedule_virtual[i]) / time_scale - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            # open loop: the task is NOT awaited before the next arrival
            tasks.append(asyncio.create_task(fire(i)))
            if i in crash_at:
                tasks.append(asyncio.create_task(crash()))
        await asyncio.gather(*tasks)
    finally:
        for t in tasks:
            if not t.done():
                t.cancel()
        storm_over.set()
        await sampler
    return {
        "responses": responses,
        "latencies": latencies,
        "outstanding_samples": outstanding_samples,
        "n_unhealthy_samples": n_unhealthy,
        "duration_s": loop.time() - t0,
    }


def _classify(
    responses: list[dict[str, Any] | None],
    latencies: list[float | None],
    recorder: LatencyRecorder,
) -> tuple[ServiceMetrics, dict[str, int], dict[str, int], float | None]:
    """Client-side censuses from the per-request responses."""
    counts = ServiceMetrics(n_submitted=len(responses))
    shed: dict[str, int] = {}
    paths: dict[str, int] = {}
    retry_after_max: float | None = None
    for resp, lat in zip(responses, latencies):
        if resp is None:
            raise AssertionError("a submission never got a response")
        if resp.get("ok"):
            counts.n_accepted += 1
            state = resp.get("state")
            if state not in SETTLED_STATES:
                raise AssertionError(f"non-terminal settle state {state!r}")
            counts.count_settled(state)
            if resp.get("path") is not None:
                paths[resp["path"]] = paths.get(resp["path"], 0) + 1
            if state != "checkpointed" and lat is not None:
                # checkpointed requests settle at drain, not by service
                recorder.record(lat)
        elif resp.get("status") == "rejected":
            counts.n_shed += 1
            reason = str(resp.get("reason"))
            shed[reason] = shed.get(reason, 0) + 1
            hint = resp.get("retry_after_s")
            if hint is None or hint <= 0:
                raise AssertionError(f"shed without a retry-after: {resp!r}")
            retry_after_max = max(retry_after_max or 0.0, float(hint))
        elif str(resp.get("error", "")).startswith("invalid submission"):
            counts.n_invalid += 1
        else:
            raise AssertionError(f"unexpected response {resp!r}")
    return counts, shed, paths, retry_after_max


def run_loadtest(
    params: Mapping[str, Any],
    seed: int,
    socket_path: str | None = None,
) -> LoadTestReport:
    """Open-loop load test against a *live* daemon.

    With ``socket_path=None`` a daemon is booted in-process from
    ``params`` (real asyncio loops, real Unix control socket) and
    drained afterwards; the drain must exit 75 with no accepted request
    lost.  Otherwise the storm drives an already-running daemon at
    ``socket_path`` and the daemon is left serving.  Either way the
    daemon's counters are read as ``/status`` deltas across the storm
    and must agree with the client-side censuses.  ``n_crashes`` crash
    ops fire at seeded arrival indices; an external daemon honours them
    only when started with ``--chaos-ops``.  The arrival schedule,
    request mix and crash indices are seeded, so the *offered* load
    replays exactly; the live censuses depend on real scheduling (use
    :func:`run_loadtest_sim` for the deterministic twin).
    """
    rng = np.random.default_rng(seed)
    schedule = build_schedule(params, rng)
    mix = RequestMix.from_params(params, rng)
    n_crashes = int(params.get("n_crashes", 0))
    if n_crashes < 0:
        raise ValueError("n_crashes must be >= 0")
    # drawn after the schedule and the mix, so those replay unchanged
    crash_at = set(
        rng.choice(len(mix), size=min(n_crashes, len(mix)), replace=False)
        .tolist()
    )
    time_scale = float(params.get("time_scale", 3000.0))
    sample_interval_s = float(params.get("sample_interval_s", 0.01))
    request_timeout_s = float(params.get("request_timeout_s", 120.0))
    t_start = time.perf_counter()

    async def storm(sock: str) -> tuple[dict[str, Any], ...]:
        """The storm bracketed by two ``/status`` reads."""
        before = await _request_once(sock, {"op": "status"})
        raw = await _drive_open_loop(
            sock, schedule, mix, crash_at, time_scale,
            sample_interval_s, request_timeout_s,
        )
        after = await _request_once(sock, {"op": "status"})
        return raw, before["status"], after["status"]

    if socket_path is None:
        with tempfile.TemporaryDirectory(prefix="repro-loadtest-") as tmp:
            config = config_from_params(
                params, seed, os.path.join(tmp, "svc.sock"),
                chaos_ops=n_crashes > 0,
            )

            async def embedded() -> tuple[dict[str, Any], ...]:
                daemon = TransferDaemon(config)
                ready = asyncio.Event()
                serve = asyncio.create_task(
                    daemon.serve(ready=ready, install_signals=False)
                )
                await asyncio.wait_for(ready.wait(), timeout=10)
                try:
                    out = await storm(config.socket_path)
                finally:
                    daemon.request_drain()
                    exit_code = await asyncio.wait_for(serve, timeout=60)
                if exit_code != EXIT_DRAINED:
                    raise AssertionError(
                        f"the drain exited {exit_code}, not {EXIT_DRAINED}"
                    )
                n_lost = daemon.drain_report["metrics"]["n_lost"]
                if n_lost:
                    raise AssertionError(
                        f"the drain lost {n_lost} accepted request(s)"
                    )
                return out

            raw, before, after = asyncio.run(embedded())
    else:
        raw, before, after = asyncio.run(storm(socket_path))

    wall_s = time.perf_counter() - t_start
    recorder = LatencyRecorder()
    counts, shed, paths, retry_after_max = _classify(
        raw["responses"], raw["latencies"], recorder
    )
    # the daemon's own ledger, as deltas across the storm, must agree
    # with the client-side censuses
    for key in ("n_submitted", "n_accepted", "n_shed", "n_invalid"):
        delta = after["metrics"][key] - before["metrics"][key]
        if getattr(counts, key) != delta:
            raise AssertionError(
                f"client-side {key}={getattr(counts, key)} disagrees with "
                f"the daemon's {key}={delta}"
            )
    return _report_from_counts(
        mode="live",
        params=params,
        counts=counts,
        shed=shed,
        paths=paths,
        recorder=recorder,
        latency_domain="wall",
        duration_s=raw["duration_s"],
        wall_s=wall_s,
        outstanding_samples=raw["outstanding_samples"],
        outstanding_bound=after["queue_limit"],
        retry_after_max_s=retry_after_max,
        time_scale=time_scale,
        loop_restarts=(
            after["health"]["n_restarts"] - before["health"]["n_restarts"]
        ),
        n_unhealthy_samples=raw["n_unhealthy_samples"],
    )


# ---------------------------------------------------------------------------
# the deterministic twin (the core's discrete-event driver)


def run_loadtest_sim(
    params: Mapping[str, Any],
    seed: int,
    scheduler: "TransferScheduler | None" = None,
) -> LoadTestReport:
    """The load test as a deterministic discrete-event model.

    Replays the same seeded arrival schedule and request mix as
    :func:`run_loadtest` through the daemon's own request lifecycle — a
    :class:`~repro.service.core.ServiceCore` over a real
    :class:`~repro.sched.base.TransferScheduler`, so admission, dispatch
    order, the degradation ladder and settlement are the code the
    daemon runs — driven by an event heap on a hand-cranked virtual
    clock, with service times from the batch-signalling cadence plus
    seeded jitter.  Free of real concurrency, so two runs with one seed
    and one policy produce *identical* reports (modulo ``wall_s``) —
    the regression anchor the Ext-U bench pins.

    One model choice differs from the daemon: a ride completing after
    its deadline settles ``expired`` here, where the daemon checks the
    deadline only before each file.

    Pass ``scheduler`` to drive a pre-built policy object (the
    prediction-error cost curve injects biased predictors this way);
    otherwise ``params["scheduler"]`` names the policy.  The twin has
    no work loops to crash, so it refuses ``n_crashes``.
    """
    if int(params.get("n_crashes", 0)):
        raise ValueError("the twin has no loops to crash: n_crashes "
                         "needs the live driver")
    rng = np.random.default_rng(seed)
    schedule = build_schedule(params, rng)
    mix = RequestMix.from_params(params, rng)
    service_rng = np.random.default_rng(seed + 1)

    config = config_from_params(params, seed)
    # model-only params: the daemon has no counterpart for these
    jitter_sigma = float(params.get("service_jitter_sigma", 0.1))
    reject_penalty_s = float(params.get("reject_penalty_s", 30.0))
    _require_non_negative_finite("service_jitter_sigma", jitter_sigma)
    _require_non_negative_finite("reject_penalty_s", reject_penalty_s)

    if scheduler is None:
        scheduler = make_scheduler(config.scheduler, config.scheduler_config())
    clock = [0.0]
    core = ServiceCore(
        scheduler,
        lambda: clock[0],
        config.time_scale,
        BatchSignalling(batch_window_s=config.batch_window_s),
    )
    admission = scheduler.admission
    paths: dict[str, int] = {}
    recorder = LatencyRecorder()
    outstanding_samples: list[int] = []
    retry_after_max: float | None = None
    free_workers = config.workers
    bytes_moved = 0.0
    tenant_succeeded: dict[str, int] = {}

    t_start = time.perf_counter()
    events: list[tuple[float, int, str, Any]] = [
        (float(t), i, "arrival", i) for i, t in enumerate(schedule)
    ]
    seq = len(events)
    heapq.heapify(events)

    def service_time(
        req: ServiceRequest, plan: TransferPlan
    ) -> tuple[float, str]:
        """One request's service seconds and the path it rides.

        The *path* is the scheduler's call (its degradation ladder at
        whatever rate model it keeps); the *service seconds* are the
        sim's ground truth — actual configured rates, signalling
        cadence, seeded jitter and flaps — so a policy that mispredicts
        pays for it in outcomes rather than bending physics.
        """
        jitter = float(np.exp(service_rng.normal(0.0, jitter_sigma)))
        ip_s = req.total_bytes * 8.0 / config.ip_rate_bps
        if plan.choice is not PathChoice.VC:
            return ip_s * jitter, PathChoice.IP_DEGRADED.value
        if config.reject_prob > 0 and service_rng.random() < config.reject_prob:
            # reservation retries exhausted: routed-IP recovery
            return (reject_penalty_s + ip_s * jitter,
                    PathChoice.IP_FALLBACK.value)
        vc_s = req.total_bytes * 8.0 / config.vc_rate_bps
        if config.flaps_per_hour > 0:
            n_flaps = int(service_rng.poisson(
                config.flaps_per_hour * vc_s / 3600.0
            ))
            vc_s += n_flaps * config.flap_duration_s
        # the plan charged the signalling wait it saw
        return plan.setup_estimate_s + vc_s * jitter, PathChoice.VC.value

    def dispatch() -> None:
        nonlocal free_workers, seq
        while free_workers > 0 and scheduler.n_pending:
            req = core.start()
            free_workers -= 1
            svc, req.path = service_time(req, core.plan(req))
            paths[req.path] = paths.get(req.path, 0) + 1
            heapq.heappush(events, (clock[0] + svc, seq, "done", req))
            seq += 1

    while events:
        t, _, kind, payload = heapq.heappop(events)
        clock[0] = t
        if kind == "arrival":
            item = mix[payload]
            try:
                outcome = core.submit(
                    item["tenant"], item["file_sizes"], item["deadline_s"]
                )
            except InvalidSubmission:
                pass
            else:
                if isinstance(outcome, ServiceRequest):
                    dispatch()
                elif outcome.retry_after_s is not None:
                    retry_after_max = max(
                        retry_after_max or 0.0, outcome.retry_after_s
                    )
        else:
            req = payload
            free_workers += 1
            # the ride moved every file; late completions are expired
            req.files_done = len(req.file_sizes)
            expired = req.budget.expired
            core.settle(req, "expired" if expired else "succeeded")
            if not expired:
                bytes_moved += req.total_bytes
                tenant_succeeded[req.tenant] = (
                    tenant_succeeded.get(req.tenant, 0) + 1
                )
            recorder.record(t - req.budget.started_at)
            dispatch()
        outstanding_samples.append(admission.outstanding)

    wall_s = time.perf_counter() - t_start
    shed = {k: v for k, v in admission.shed.items() if v}
    duration = float(clock[0])
    return _report_from_counts(
        mode="sim",
        params=params,
        counts=core.metrics,
        shed=shed,
        paths=paths,
        recorder=recorder,
        latency_domain="virtual",
        duration_s=duration,
        wall_s=wall_s,
        outstanding_samples=outstanding_samples,
        outstanding_bound=admission.queue_limit,
        retry_after_max_s=retry_after_max,
        time_scale=config.time_scale,
        scheduler=scheduler.name,
        bytes_moved=bytes_moved,
        tenant_succeeded=tenant_succeeded,
    )


# ---------------------------------------------------------------------------
# cross-cell analysis: latency vs offered rate


def latency_sweep_table(artifacts: Mapping[str, Any]) -> dict[str, Any]:
    """Per-offered-rate latency quantile table over load-test grids.

    ``artifacts`` maps dependency names to resolved ``ArtifactSet``
    objects — what the Runner hands the ``latency_sweep`` analysis
    scenario.  Every upstream cell that carries latency quantiles (any
    ``service_loadtest`` result) contributes one row keyed by its
    offered rate (the ``rate_per_s`` axis value) and scheduler, so a
    scheduler comparison reads its tail-latency curves straight from
    the report JSON instead of re-deriving them from raw cells.
    """
    rows: list[dict[str, Any]] = []
    for dep in sorted(artifacts):
        for artifact in artifacts[dep]:
            result = artifact.result
            if not isinstance(result, Mapping) or "latency_p50_s" not in result:
                continue
            rate = artifact.coords.get(
                "rate_per_s", artifact.params.get("rate_per_s")
            )
            if rate is None:
                continue
            rows.append(
                {
                    "source": dep,
                    "index": artifact.index,
                    "coords": dict(artifact.coords),
                    "rate_per_s": float(rate),
                    "scheduler": str(result.get("scheduler", "fcfs")),
                    "offered_rps": result.get("offered_rps"),
                    "shed_fraction": result.get("shed_fraction"),
                    "latency_p50_s": result.get("latency_p50_s"),
                    "latency_p95_s": result.get("latency_p95_s"),
                    "latency_p99_s": result.get("latency_p99_s"),
                }
            )
    if not rows:
        raise ValueError(
            "no upstream cell carries latency quantiles; point the "
            f"latency_sweep stage at service_loadtest grids "
            f"(needs resolved: {sorted(artifacts)})"
        )
    rows.sort(key=lambda r: (r["scheduler"], r["rate_per_s"], r["index"]))
    return {
        "n_cells": len(rows),
        "rates_per_s": sorted({r["rate_per_s"] for r in rows}),
        "schedulers": sorted({r["scheduler"] for r in rows}),
        "table": rows,
    }
