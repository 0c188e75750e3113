"""Reliable transfers: fault recovery and restart markers (Section II).

Among the GridFTP features the paper lists — streaming, striping,
third-party transfers — is "recovery from failures during transfers".
Globus GridFTP implements it with *restart markers*: the receiver
periodically acknowledges the byte ranges safely on disk, and after a
fault the sender resumes from the last marker instead of byte zero.
Globus Online (the paper's suggested future data source) wraps this in a
managed service with bounded retries.

This module models that machinery:

* :class:`FaultModel` — Poisson faults over transfer wall time (server
  restarts, connection resets, filesystem hiccups);
* :class:`RestartPolicy` — resume-from-marker vs restart-from-zero, with
  a configurable marker interval and per-retry reconnect cost;
* :class:`ReliableTransferService` — executes tasks against a transport
  rate, retrying through faults up to a bound, and accounts the goodput
  overhead that failures add;
* :func:`expected_overhead_factor` — the closed-form mean wall-time
  inflation, used to sanity-check the Monte Carlo in tests.

The Ext bench sweeps fault rates to show why restart markers matter for
exactly the long α transfers the paper studies: without them, a 32 GB
transfer on a flaky path may *never* finish.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from ..core.rng import ensure_rng
from ..faults.injector import merge_intervals

__all__ = [
    "FaultModel",
    "RestartPolicy",
    "TransferAttempt",
    "TaskResult",
    "ReliableTransferService",
    "CircuitOutageTracker",
    "ScheduledOutages",
    "expected_overhead_factor",
]


@dataclasses.dataclass(frozen=True, slots=True)
class FaultModel:
    """Memoryless faults: rate per hour of transfer wall time."""

    faults_per_hour: float = 0.0

    def __post_init__(self) -> None:
        if self.faults_per_hour < 0:
            raise ValueError("fault rate must be non-negative")

    def time_to_fault_s(self, rng: np.random.Generator) -> float:
        """Draw the next fault time; inf on a fault-free model."""
        if self.faults_per_hour == 0:
            return math.inf
        return float(rng.exponential(3600.0 / self.faults_per_hour))


@dataclasses.dataclass(frozen=True, slots=True)
class RestartPolicy:
    """How a failed transfer resumes.

    ``marker_interval_bytes`` is the granularity of restart markers
    (None = no markers: restart from zero, losing all progress).
    ``reconnect_s`` is the fixed cost of re-establishing control and data
    channels after a fault.
    """

    marker_interval_bytes: float | None = 64e6
    reconnect_s: float = 5.0

    def __post_init__(self) -> None:
        if self.marker_interval_bytes is not None and self.marker_interval_bytes <= 0:
            raise ValueError("marker interval must be positive")
        if self.reconnect_s < 0:
            raise ValueError("reconnect cost must be non-negative")

    def resume_point(self, bytes_done: float) -> float:
        """Bytes safely on disk after a fault at ``bytes_done``."""
        if self.marker_interval_bytes is None:
            return 0.0
        return math.floor(bytes_done / self.marker_interval_bytes) * (
            self.marker_interval_bytes
        )


@dataclasses.dataclass(frozen=True, slots=True)
class TransferAttempt:
    """One attempt within a task: how far it got and why it ended."""

    started_at_byte: float
    bytes_moved: float
    wall_s: float
    faulted: bool


@dataclasses.dataclass(frozen=True)
class TaskResult:
    """Outcome of one managed transfer task."""

    size_bytes: float
    succeeded: bool
    attempts: tuple[TransferAttempt, ...]
    total_wall_s: float
    #: bytes sent over the wire, including re-sent ranges
    wire_bytes: float

    #: wall time the transfer would have taken fault-free, seconds
    clean_wall_s: float = 0.0

    @property
    def n_faults(self) -> int:
        return sum(1 for a in self.attempts if a.faulted)

    @property
    def overhead_factor(self) -> float:
        """Wall time relative to the fault-free transfer time."""
        if not self.succeeded or self.clean_wall_s <= 0:
            return math.inf
        return self.total_wall_s / self.clean_wall_s

    @property
    def wire_overhead_factor(self) -> float:
        """Bytes on the wire relative to the file size (re-sent ranges)."""
        if self.size_bytes == 0:
            return math.inf
        return self.wire_bytes / self.size_bytes


class ReliableTransferService:
    """Execute transfers through faults with bounded retries.

    Parameters
    ----------
    fault_model, restart_policy:
        The failure environment and the recovery mechanism.
    max_attempts:
        Total attempts (first try plus retries) before giving up —
        Globus-Online-style bounded retry.
    """

    def __init__(
        self,
        fault_model: FaultModel,
        restart_policy: RestartPolicy | None = None,
        max_attempts: int = 10,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("need at least one attempt")
        self.fault_model = fault_model
        self.restart_policy = restart_policy or RestartPolicy()
        self.max_attempts = max_attempts

    def execute(
        self,
        size_bytes: float,
        rate_bps: float,
        rng: np.random.Generator | None = None,
        outages: Sequence[tuple[float, float]] = (),
    ) -> TaskResult:
        """Run one transfer of ``size_bytes`` at transport rate ``rate_bps``.

        ``outages`` are scheduled path outages, ``(t_down, t_up)``
        intervals in wall time relative to the transfer's start —
        typically a circuit's flap history as answered by
        ``outages_after`` (see :meth:`ride_file`).  An outage interrupts
        the attempt (bytes roll back to the last restart marker), the
        transfer stalls until the path returns, pays the reconnect cost,
        and resumes.  Random :class:`FaultModel` faults are layered on
        top; both consume the same retry budget.

        Returns the full attempt history; ``succeeded=False`` means the
        retry budget ran out with bytes still missing.
        """
        if size_bytes <= 0 or rate_bps <= 0:
            raise ValueError("size and rate must be positive")
        if outages:
            outages = sorted((float(a), float(b)) for a, b in outages)
            if any(b <= a for a, b in outages):
                raise ValueError("outages must have positive duration")
        rng = ensure_rng(rng)
        rate_Bps = rate_bps / 8.0
        attempts: list[TransferAttempt] = []
        done = 0.0
        wall = 0.0
        wire = 0.0
        for attempt_no in range(self.max_attempts):
            if attempt_no > 0:
                # a dark path must return before reconnection can start
                for t_down, t_up in outages:
                    if t_down <= wall < t_up:
                        wall = t_up
                wall += self.restart_policy.reconnect_s
            remaining = size_bytes - done
            horizon = self.fault_model.time_to_fault_s(rng)
            t_finish = remaining / rate_Bps
            # >= so an outage landing exactly at the attempt's start (or at
            # the transfer's t=0) interrupts immediately instead of letting
            # the attempt run through a dark path
            for t_down, _ in outages:
                if t_down >= wall:
                    horizon = min(horizon, t_down - wall)
                    break
            if t_finish <= horizon:
                attempts.append(
                    TransferAttempt(done, remaining, t_finish, faulted=False)
                )
                wall += t_finish
                wire += remaining
                done = size_bytes
                break
            moved = horizon * rate_Bps
            attempts.append(TransferAttempt(done, moved, horizon, faulted=True))
            wall += horizon
            wire += moved
            done = self.restart_policy.resume_point(done + moved)
        return TaskResult(
            size_bytes=size_bytes,
            succeeded=done >= size_bytes,
            attempts=tuple(attempts),
            total_wall_s=wall,
            wire_bytes=wire,
            clean_wall_s=size_bytes / rate_Bps,
        )

    def ride_file(
        self,
        size_bytes: float,
        rate_bps: float,
        history: CircuitOutageTracker | ScheduledOutages | None,
        now: float,
        rng: np.random.Generator | None = None,
    ) -> tuple[TaskResult, int]:
        """One file of a ride over a path with an outage ``history``.

        The per-file step the managed service and the daemon share:
        query ``history`` (None for a path that never goes dark) at the
        ride's clock ``now``, run the file through :meth:`execute`, and
        count the outages the file absorbed — those starting before it
        ended, and only when it succeeded.  Returns ``(result, count)``.
        """
        outages = history.outages_after(now) if history is not None else ()
        result = self.execute(size_bytes, rate_bps, rng, outages)
        if not (outages and result.succeeded):
            return result, 0
        return result, sum(1 for a, _ in outages if a < result.total_wall_s)


def _outages_after(
    intervals: Sequence[tuple[float, float]], t: float, horizon: float
) -> list[tuple[float, float]]:
    """Down intervals overlapping ``[t, horizon)``, clipped and t-relative."""
    out = []
    for a, b in intervals:
        if b <= t or a >= horizon:
            continue
        out.append((max(a - t, 0.0), min(b, horizon) - t))
    return out


class CircuitOutageTracker:
    """Record a circuit's down intervals from its state-change events.

    Subscribe it to a :class:`~repro.vc.circuits.VirtualCircuit` with
    :meth:`watch`; every FAILED episode becomes a ``(t_down, t_up)``
    interval stamped by ``clock`` (typically an event loop's ``now``).
    The intervals are what :meth:`ReliableTransferService.ride_file` (the
    managed transfer service's per-file step) replays to resume flapped
    transfers from their restart markers.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.intervals: list[tuple[float, float]] = []
        self._down_since: float | None = None

    def watch(self, circuit) -> None:
        """Start recording ``circuit``'s state changes."""
        circuit.subscribe(self._on_state_change)

    def _on_state_change(self, _circuit, old, new) -> None:
        # import here: gridftp must stay importable without the vc layer
        from ..vc.circuits import CircuitState

        now = float(self.clock())
        if new is CircuitState.FAILED:
            self._down_since = now
        elif old is CircuitState.FAILED and self._down_since is not None:
            self.intervals.append((self._down_since, now))
            self._down_since = None

    def outages_after(self, t: float, horizon: float = math.inf) -> list[tuple[float, float]]:
        """Down intervals overlapping ``[t, horizon)``, clipped and t-relative."""
        intervals = list(self.intervals)
        if self._down_since is not None:
            intervals.append((self._down_since, math.inf))
        return sorted(_outages_after(intervals, t, horizon))

    @property
    def n_flaps(self) -> int:
        return len(self.intervals) + (1 if self._down_since is not None else 0)


class ScheduledOutages:
    """A precomputed outage schedule with the tracker's query interface.

    :class:`CircuitOutageTracker` records down intervals live from a
    circuit's state changes; this class is its offline twin for fault
    *schedules* drawn ahead of time by a
    :class:`~repro.faults.injector.FaultInjector` — the managed transfer
    service binds either interchangeably (both answer
    :meth:`outages_after`).  Intervals are absolute times, coalesced by
    :func:`~repro.faults.injector.merge_intervals` on construction, so
    producers hand over a raw draw.
    """

    def __init__(self, intervals: Iterable[tuple[float, float]]) -> None:
        intervals = [(float(a), float(b)) for a, b in intervals]
        for a, b in intervals:
            if b <= a:
                raise ValueError(f"outage ({a}, {b}) must have positive duration")
        self.intervals: list[tuple[float, float]] = merge_intervals(intervals)

    def outages_after(self, t: float, horizon: float = math.inf) -> list[tuple[float, float]]:
        """Down intervals overlapping ``[t, horizon)``, clipped and t-relative."""
        return _outages_after(self.intervals, t, horizon)

    @property
    def n_flaps(self) -> int:
        return len(self.intervals)


def expected_overhead_factor(
    size_bytes: float,
    rate_bps: float,
    fault_model: FaultModel,
    restart_policy: RestartPolicy,
) -> float:
    """Approximate mean wall-time inflation from faults, marker-resumed.

    With fault rate λ and marker interval M, each marker segment of
    duration ``d = M·8/rate`` is retried independently; a segment's
    expected completion time for exponential faults is
    ``(e^{λd} − 1)/λ`` (classic restart-from-checkpoint result), plus the
    reconnect cost per expected fault.  Returns the ratio to the clean
    time.  Infinite marker interval (no markers) treats the whole file as
    one segment — which is why the no-marker overhead explodes with size.
    """
    if fault_model.faults_per_hour == 0:
        return 1.0
    lam = fault_model.faults_per_hour / 3600.0
    seg_bytes = restart_policy.marker_interval_bytes or size_bytes
    seg_bytes = min(seg_bytes, size_bytes)
    n_seg = size_bytes / seg_bytes
    d = seg_bytes * 8.0 / rate_bps
    mean_seg = (math.exp(lam * d) - 1.0) / lam
    # expected faults per segment = e^{λd} − 1; each costs a reconnect
    mean_seg += (math.exp(lam * d) - 1.0) * restart_policy.reconnect_s
    clean = size_bytes * 8.0 / rate_bps
    return (n_seg * mean_seg) / clean
