"""Health and status reporting: the daemon's observable surface.

Two views, both served over the control socket:

* ``/health`` — a cheap liveness verdict: ``ok`` while every supervised
  loop is alive (restarting under backoff still counts as alive; only a
  loop declared *dead* after a crash storm degrades health) and the
  status loop's heartbeat is fresh;
* ``/status`` — the full dashboard: queue depth, in-flight count,
  per-tenant usage, shed census, settled-state counts, recovery stats,
  loop supervision records, uptime.

:class:`ServiceMetrics` is the single mutable counter record the daemon
threads through its request lifecycle, mirroring how
:class:`~repro.faults.recovery.RecoveryStats` unifies the VC
controllers' counters.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any

from ..faults.recovery import RecoveryStats
from .admission import AdmissionController
from .supervisor import Supervisor

__all__ = ["SETTLED_STATES", "ServiceMetrics", "HealthMonitor"]

#: terminal request state -> the :class:`ServiceMetrics` counter it bumps
_SETTLED_COUNTERS = {
    "succeeded": "n_completed",
    "failed": "n_failed",
    "expired": "n_expired",
    "checkpointed": "n_checkpointed",
}

#: the terminal request states
SETTLED_STATES = frozenset(_SETTLED_COUNTERS)


@dataclasses.dataclass
class ServiceMetrics:
    """Request-lifecycle counters the daemon maintains."""

    #: every submission seen, accepted or not
    n_submitted: int = 0
    n_accepted: int = 0
    #: explicit admission rejections (the controller's shed census has
    #: the per-reason split)
    n_shed: int = 0
    #: submissions refused at validation (bad file sizes/deadline) —
    #: admitted for a moment, never accepted, never executed
    n_invalid: int = 0
    #: requests that planned or fell back onto the routed-IP path
    n_degraded: int = 0
    n_completed: int = 0
    n_failed: int = 0
    n_expired: int = 0
    #: accepted requests persisted at drain instead of finishing
    n_checkpointed: int = 0
    #: files moved across all requests
    n_files_moved: int = 0
    #: circuit flaps survived via restart markers
    n_flaps_recovered: int = 0

    @property
    def n_settled(self) -> int:
        """Accepted requests in a terminal state (checkpointed included)."""
        return (
            self.n_completed + self.n_failed + self.n_expired
            + self.n_checkpointed
        )

    def count_settled(self, state: str) -> None:
        """Count one accepted request reaching terminal ``state``."""
        name = _SETTLED_COUNTERS[state]
        setattr(self, name, getattr(self, name) + 1)

    @property
    def n_lost(self) -> int:
        """Accepted requests unaccounted for — must be 0 at drain."""
        return self.n_accepted - self.n_settled

    def as_dict(self) -> dict[str, int]:
        out = dataclasses.asdict(self)
        out["n_settled"] = self.n_settled
        out["n_lost"] = self.n_lost
        return out


class HealthMonitor:
    """Compose admission, supervision, and metrics into health/status."""

    def __init__(
        self,
        admission: AdmissionController,
        supervisor: Supervisor,
        metrics: ServiceMetrics,
        stats: RecoveryStats,
        heartbeat_timeout_s: float = 10.0,
    ) -> None:
        if heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat timeout must be positive")
        self.admission = admission
        self.supervisor = supervisor
        self.metrics = metrics
        self.stats = stats
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.started_at = time.monotonic()
        self._last_heartbeat = time.monotonic()

    def beat(self) -> None:
        """Status-loop heartbeat — proves the daemon's loops are turning."""
        self._last_heartbeat = time.monotonic()

    @property
    def heartbeat_age_s(self) -> float:
        return time.monotonic() - self._last_heartbeat

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self.started_at

    def health(self) -> dict[str, Any]:
        """The ``/health`` verdict: cheap, boolean, reason-bearing."""
        dead = self.supervisor.dead_loops()
        stale = self.heartbeat_age_s > self.heartbeat_timeout_s
        problems = []
        if dead:
            problems.append(f"dead loops: {', '.join(sorted(dead))}")
        if stale:
            problems.append(
                f"stale heartbeat ({self.heartbeat_age_s:.1f} s old)"
            )
        return {
            "ok": not problems,
            "draining": self.admission.draining,
            "problems": problems,
            "uptime_s": self.uptime_s,
            "n_restarts": self.supervisor.n_restarts,
        }

    def status(self) -> dict[str, Any]:
        """The ``/status`` dashboard (JSON-safe)."""
        return {
            "health": self.health(),
            "queue_depth": self.admission.queued,
            "in_flight": self.admission.in_flight,
            "outstanding": self.admission.outstanding,
            "queue_limit": self.admission.queue_limit,
            "tenant_quota": self.admission.tenant_quota,
            "tenants": self.admission.usage(),
            "shed": dict(self.admission.shed),
            "retry_after_s": self.admission.retry_after_s(),
            "metrics": self.metrics.as_dict(),
            "recovery": self.stats.as_dict(),
            "loops": self.supervisor.status(),
        }
