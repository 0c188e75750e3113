"""VC usage policies: session-holding, α-flow redirection, IP fallback.

Two deployment policies from the paper, plus the recovery policy the
paper's setup-delay tradeoff implies:

* **Session hold policy** (Section VI-A): request a circuit when a session
  begins, keep it open while transfer gaps stay within ``g``, release it
  once the gap exceeds ``g``.  The policy consumes a time-ordered stream
  of transfer intervals and emits circuit *episodes* — each the circuit
  lifetime that would have served one analysis-level session.

* **HNTES-style α-flow redirection** (Section IV): identify α flows from
  their observed rate/size and redirect subsequent packets of matching
  flows onto pre-configured intra-domain VCs, isolating them from
  general-purpose traffic.

* **Deadline-bounded fallback to routed IP** (:class:`FallbackPolicy`):
  a transfer waits for its circuit only up to a setup budget; past it,
  the bytes start moving on the default IP path immediately — circuits
  are an optimization, never a blocker — and optionally *migrate* onto
  the circuit once signalling completes.

:class:`FallbackPolicy` is consumed through the pluggable scheduling
seam: every :class:`~repro.sched.base.TransferScheduler` owns one and
exposes it as
:meth:`~repro.sched.base.TransferScheduler.decide_fallback`, so the
daemon, the load-test twin, and the chaos campaigns all take the
VC-vs-IP decision from the same policy object the scheduler was built
with.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from ..core.alpha_flows import AlphaFlowCriteria, classify_alpha_flows
from ..gridftp.records import TransferLog

__all__ = [
    "CircuitEpisode",
    "SessionHoldPolicy",
    "RedirectionDecision",
    "AlphaRedirector",
    "FallbackMode",
    "FallbackPolicy",
    "FallbackDecision",
]


@dataclasses.dataclass(frozen=True, slots=True)
class CircuitEpisode:
    """One circuit lifetime produced by the hold policy.

    ``hold_s`` is the idle time paid at the tail (the circuit stays up
    ``g`` seconds past the last transfer before the release fires, unless
    released explicitly at stream end).
    """

    start: float
    end: float
    n_transfers: int
    busy_s: float  # union of transfer activity inside the episode

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def idle_fraction(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return 1.0 - min(self.busy_s / self.duration_s, 1.0)


class SessionHoldPolicy:
    """Stateful gap-``g`` circuit holder over a time-ordered transfer stream.

    Feed transfers with :meth:`on_transfer`; call :meth:`finish` to flush
    the last episode.  Episode boundaries coincide with the session
    boundaries :func:`repro.core.sessions.group_sessions` would compute for
    the same ``g`` — a property the test suite checks — because both use
    the same "gap from the running max end" rule.
    """

    def __init__(self, g_seconds: float, hold_tail: bool = True) -> None:
        if not g_seconds >= 0:  # refuses NaN too
            raise ValueError(f"g must be non-negative, got {g_seconds}")
        self.g = g_seconds
        #: when True, the release timer expires g after the last end
        self.hold_tail = hold_tail
        self._episodes: list[CircuitEpisode] = []
        self._cur_start: float | None = None
        self._cur_max_end: float | None = None
        self._cur_count = 0
        self._busy_intervals: list[tuple[float, float]] = []
        self._last_start = -np.inf

    def on_transfer(self, start: float, duration: float) -> bool:
        """Register a transfer; returns True when a new circuit was opened.

        Transfers must arrive in non-decreasing start order.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        if start < self._last_start:
            raise ValueError("transfers must be fed in start-time order")
        self._last_start = start
        end = start + duration
        opened = False
        if self._cur_start is None:
            opened = True
        elif start - self._cur_max_end > self.g:
            self._close()
            opened = True
        if opened:
            self._cur_start = start
            self._cur_max_end = end
            self._cur_count = 0
            self._busy_intervals = []
        self._cur_max_end = max(self._cur_max_end, end)
        self._cur_count += 1
        self._busy_intervals.append((start, end))
        return opened

    def _close(self) -> None:
        assert self._cur_start is not None and self._cur_max_end is not None
        tail = self.g if self.hold_tail else 0.0
        busy = _union_length(self._busy_intervals)
        self._episodes.append(
            CircuitEpisode(
                start=self._cur_start,
                end=self._cur_max_end + tail,
                n_transfers=self._cur_count,
                busy_s=busy,
            )
        )
        self._cur_start = None
        self._cur_max_end = None
        self._cur_count = 0
        self._busy_intervals = []

    def finish(self) -> list[CircuitEpisode]:
        """Flush the open episode (released immediately, no tail) and return all."""
        if self._cur_start is not None:
            hold = self.hold_tail
            self.hold_tail = False
            self._close()
            self.hold_tail = hold
        return list(self._episodes)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of (possibly overlapping) intervals."""
    if not intervals:
        return 0.0
    intervals = sorted(intervals)
    total = 0.0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    total += cur_hi - cur_lo
    return total


class FallbackMode(enum.Enum):
    """How a transfer proceeds relative to its requested circuit."""

    #: circuit ready within budget: wait for it and ride it end to end
    VC = "vc"
    #: circuit late: start on the IP path, never look back
    IP = "ip"
    #: circuit late: start on the IP path, migrate when it activates
    IP_THEN_MIGRATE = "ip-then-migrate"


@dataclasses.dataclass(frozen=True, slots=True)
class FallbackPolicy:
    """Deadline-bounded wait-for-circuit with fallback to routed IP.

    ``setup_deadline_s`` is the longest a transfer will sit idle waiting
    on signalling (the paper's ~1-min setup delay is the baseline cost;
    injected rejections and timeouts can stretch it arbitrarily).
    ``migrate_on_activation`` moves an already-running fallback transfer
    onto the circuit when it finally comes up, recovering the rate
    guarantee for the remaining bytes.
    """

    setup_deadline_s: float = 120.0
    migrate_on_activation: bool = True

    def __post_init__(self) -> None:
        if self.setup_deadline_s < 0:
            raise ValueError("setup deadline must be non-negative")

    def decide(self, submit_time: float, circuit_ready_time: float) -> "FallbackDecision":
        """Resolve when and how a transfer submitted now starts moving bytes."""
        wait = max(circuit_ready_time - submit_time, 0.0)
        if wait <= self.setup_deadline_s:
            return FallbackDecision(
                mode=FallbackMode.VC,
                start_time=submit_time + wait,
                wait_s=wait,
                migrate_at=None,
            )
        if self.migrate_on_activation:
            return FallbackDecision(
                mode=FallbackMode.IP_THEN_MIGRATE,
                start_time=submit_time,
                wait_s=0.0,
                migrate_at=circuit_ready_time,
            )
        return FallbackDecision(
            mode=FallbackMode.IP, start_time=submit_time, wait_s=0.0, migrate_at=None
        )


@dataclasses.dataclass(frozen=True, slots=True)
class FallbackDecision:
    """Outcome of :meth:`FallbackPolicy.decide` for one transfer."""

    mode: FallbackMode
    #: when the transfer starts moving bytes
    start_time: float
    #: idle seconds spent waiting on signalling before the start
    wait_s: float
    #: when to migrate onto the circuit (IP_THEN_MIGRATE only)
    migrate_at: float | None

    @property
    def fell_back(self) -> bool:
        return self.mode is not FallbackMode.VC


@dataclasses.dataclass(frozen=True, slots=True)
class RedirectionDecision:
    """Outcome of the redirector over one log: which transfers move to VCs."""

    redirected: np.ndarray  # boolean mask over the log
    n_redirected: int
    bytes_redirected: float
    bytes_total: float

    @property
    def byte_fraction(self) -> float:
        if self.bytes_total == 0:
            return 0.0
        return self.bytes_redirected / self.bytes_total


class AlphaRedirector:
    """HNTES-style α-flow identification and VC redirection.

    The first transfer of a new (local, remote) pair always rides the
    IP-routed path (nothing is known about it); once a pair has produced
    an α transfer, later transfers of the pair are redirected to the
    pre-configured VC.  This mirrors HNTES's offline identification of
    α-flow *prefixes* followed by router-filter redirection.
    """

    def __init__(self, criteria: AlphaFlowCriteria | None = None) -> None:
        self.criteria = criteria or AlphaFlowCriteria()

    def decide(self, log: TransferLog) -> RedirectionDecision:
        """Replay ``log`` in time order and mark redirected transfers."""
        slog = log.sorted_by_start()
        alpha = classify_alpha_flows(slog, self.criteria)
        flagged_pairs: set[tuple[int, int]] = set()
        redirected = np.zeros(len(slog), dtype=bool)
        lh = slog.local_host
        rh = slog.remote_host
        for i in range(len(slog)):
            pair = (int(lh[i]), int(rh[i]))
            if pair in flagged_pairs:
                redirected[i] = True
            if alpha[i]:
                flagged_pairs.add(pair)
        total = float(slog.size.sum())
        return RedirectionDecision(
            redirected=redirected,
            n_redirected=int(redirected.sum()),
            bytes_redirected=float(slog.size[redirected].sum()),
            bytes_total=total,
        )
