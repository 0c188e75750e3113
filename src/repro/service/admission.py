"""Online admission control: bounded queue, per-tenant quotas, retry-after.

The daemon never lets load turn into unbounded queue growth.  Every
submission passes through :meth:`AdmissionController.try_admit`, which
answers with an explicit decision:

* **admitted** — the request owns one unit of its tenant's quota and one
  slot of the global queue bound until it settles;
* **rejected** — a 429-style refusal carrying a ``retry_after_s`` hint
  derived from the current backlog and an EWMA of observed service
  times, so well-behaved clients back off proportionally to the overload
  instead of hammering the socket.

Everything here is in **wall seconds** — clients sleep their
``retry_after_s`` on real clocks, so the service core
(:meth:`~repro.service.core.ServiceCore.settle`) converts virtual
execution times through ``time_scale`` *before* calling
:meth:`AdmissionController.note_service_s`.  Feeding virtual seconds in
would tell a client to back off ``time_scale`` times too long (at the
load test's ``time_scale=3000``, a 60-virtual-second service would read
as a one-minute-plus *real* backoff — fifty virtual hours).

Rejection reasons are counted per cause (queue-full, tenant-quota,
draining) — the shed census the status endpoint reports.

Since the pluggable-scheduling refactor, every
:class:`~repro.sched.base.TransferScheduler` *owns* one controller
(``scheduler.admission``) and forwards its admit/settle/retry-after
calls to it — the service core, and so both the daemon and the
load-test twin, reach admission only through that seam, so a policy
can veto or re-order work without re-implementing the queue/quota/
ledger bookkeeping here.
"""

from __future__ import annotations

import dataclasses

__all__ = ["SHED_REASONS", "AdmissionDecision", "AdmissionController"]

#: floor for the retry-after hint, seconds of service time
_MIN_RETRY_AFTER_S = 1.0

#: every reason a submission is shed for: the shed census's keys
SHED_REASONS = ("queue-full", "tenant-quota", "draining")


@dataclasses.dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """Outcome of one :meth:`AdmissionController.try_admit` call."""

    admitted: bool
    #: one of SHED_REASONS, or None when admitted
    reason: str | None = None
    #: suggested client backoff, seconds (rejections only)
    retry_after_s: float | None = None


class AdmissionController:
    """Bounded-queue, per-tenant-quota gatekeeper for the daemon.

    Parameters
    ----------
    queue_limit:
        Maximum requests admitted but not yet settled (queued plus
        in-flight).  The hard bound that makes overload shed instead of
        accumulate.
    tenant_quota:
        Maximum outstanding requests any single tenant may hold — one
        noisy tenant cannot consume the whole queue.
    workers:
        Service parallelism, used to scale the retry-after estimate.
    """

    def __init__(
        self,
        queue_limit: int = 64,
        tenant_quota: int = 8,
        workers: int = 4,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if tenant_quota < 1:
            raise ValueError("tenant_quota must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.queue_limit = queue_limit
        self.tenant_quota = tenant_quota
        self.workers = workers
        self.draining = False
        #: outstanding (queued + in-flight) per tenant
        self._usage: dict[str, int] = {}
        self._queued = 0
        self._in_flight = 0
        #: EWMA of settled-request service time, seconds
        self._ewma_service_s: float | None = None
        #: rejections by reason — the shed census
        self.shed: dict[str, int] = dict.fromkeys(SHED_REASONS, 0)

    # -- the admission decision -------------------------------------------

    def try_admit(self, tenant: str) -> AdmissionDecision:
        """Admit or reject one submission from ``tenant``."""
        if self.draining:
            return self._reject("draining")
        if self.outstanding >= self.queue_limit:
            return self._reject("queue-full")
        if self._usage.get(tenant, 0) >= self.tenant_quota:
            return self._reject("tenant-quota")
        self._usage[tenant] = self._usage.get(tenant, 0) + 1
        self._queued += 1
        return AdmissionDecision(admitted=True)

    def _reject(self, reason: str) -> AdmissionDecision:
        self.shed[reason] += 1
        return AdmissionDecision(
            admitted=False, reason=reason, retry_after_s=self.retry_after_s()
        )

    def retry_after_s(self) -> float:
        """Backlog-proportional backoff hint for a rejected client."""
        service = self._ewma_service_s or _MIN_RETRY_AFTER_S
        backlog_rounds = (self.outstanding / self.workers) + 1.0
        return max(backlog_rounds * service, _MIN_RETRY_AFTER_S)

    # -- lifecycle bookkeeping --------------------------------------------

    def on_start(self, tenant: str) -> None:
        """An admitted request left the queue and started executing."""
        if self._queued < 1:
            raise RuntimeError("on_start without a queued request")
        self._queued -= 1
        self._in_flight += 1

    def on_requeue(self, tenant: str) -> None:
        """An in-flight request went back to the queue (loop crash)."""
        if self._in_flight < 1:
            raise RuntimeError("on_requeue without an in-flight request")
        self._in_flight -= 1
        self._queued += 1

    def on_settle(self, tenant: str, started: bool = True) -> None:
        """An admitted request reached a terminal state.

        ``started=False`` settles a request straight out of the queue
        (e.g. checkpointed at drain before any worker picked it up).
        """
        if started:
            if self._in_flight < 1:
                raise RuntimeError("on_settle without an in-flight request")
            self._in_flight -= 1
        else:
            if self._queued < 1:
                raise RuntimeError("on_settle without a queued request")
            self._queued -= 1
        count = self._usage.get(tenant, 0)
        if count < 1:
            raise RuntimeError(f"tenant {tenant!r} has no outstanding requests")
        if count == 1:
            del self._usage[tenant]
        else:
            self._usage[tenant] = count - 1

    def note_service_s(self, wall_s: float, alpha: float = 0.3) -> None:
        """Fold one observed service time into the retry-after EWMA.

        ``wall_s`` is *wall* seconds of execution (pick-up to settle),
        in the same clock domain clients sleep ``retry_after_s`` in —
        never the virtual-clock elapsed time, and never including queue
        wait (queue wait already shows up in the backlog factor of
        :meth:`retry_after_s`; folding it in here too would compound
        every rejection's backoff under backlog).
        """
        if wall_s < 0:
            raise ValueError("service time must be non-negative")
        if self._ewma_service_s is None:
            self._ewma_service_s = wall_s
        else:
            self._ewma_service_s += alpha * (wall_s - self._ewma_service_s)

    # -- status views ------------------------------------------------------

    @property
    def queued(self) -> int:
        return self._queued

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def outstanding(self) -> int:
        """Admitted but unsettled requests (the bounded quantity)."""
        return self._queued + self._in_flight

    @property
    def n_shed(self) -> int:
        return sum(self.shed.values())

    def usage(self) -> dict[str, int]:
        """Outstanding requests per tenant (the quota ledger)."""
        return dict(self._usage)
