"""Global batch scheduling over the known request set (Carpen-Amarie).

Carpen-Amarie et al. schedule grid file transfers *globally*: instead
of serving requests in arrival order, the scheduler looks at the whole
known request set each time capacity frees up and picks the transfer
that best serves a global objective (deadline satisfaction first,
overall makespan second).  :class:`GlobalScheduler` is that policy at
the dispatch seam the daemon and the sim twin share:

* requests carrying a deadline are served **earliest-remaining-runway
  first** — the classical EDF rule that maximizes the number of met
  deadlines on a single resource pool;
* unbounded requests are served **longest-processing-time first** —
  the LPT list-scheduling rule whose makespan on ``m`` identical
  workers is within 4/3 − 1/(3m) of optimal, against FIFO's unbounded
  adversarial gap;
* deadline-bearing work always precedes unbounded work (a deadline
  can be lost to waiting; a makespan only grows).

Everything else — admission, the degradation ladder, rate advice — is
inherited from :class:`~repro.sched.fcfs.FcfsScheduler`, so comparisons
against ``fcfs`` isolate the *ordering* decision.
"""

from __future__ import annotations

import math
from typing import Any

from .base import register_scheduler
from .fcfs import FcfsScheduler

__all__ = ["GlobalScheduler", "dispatch_priority"]


def dispatch_priority(request: Any) -> tuple[int, float, float]:
    """Global dispatch key for one pending request (lower serves first).

    Reads ``total_bytes`` and ``budget`` — the shape of the service
    core's :class:`~repro.service.core.ServiceRequest`, which both the
    daemon and the sim twin enqueue; a budget with no deadline is
    unbounded.
    """
    total_bytes = request.total_bytes
    remaining = request.budget.remaining()
    if math.isfinite(remaining):
        return (0, remaining, -total_bytes)
    return (1, -total_bytes, 0.0)


@register_scheduler
class GlobalScheduler(FcfsScheduler):
    """Batch scheduling over the pending set: EDF, then LPT."""

    name = "global"

    def next_request(self) -> Any | None:
        if not self._pending:
            return None
        best_index = 0
        best_key = dispatch_priority(self._pending[0])
        for i in range(1, len(self._pending)):
            key = dispatch_priority(self._pending[i])
            if key < best_key:
                best_index, best_key = i, key
        chosen = self._pending[best_index]
        del self._pending[best_index]
        return chosen
