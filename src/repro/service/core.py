"""The sans-I/O service core: one request lifecycle, two drivers.

Every transfer request lives through the same steps, whoever drives it:

* **submit** — count the submission, let the scheduler admit or shed
  it, validate its inputs (an invalid one hands its admission slot
  straight back), and enqueue it, so the ledger ``n_submitted ==
  n_accepted + n_shed + n_invalid`` balances by construction;
* **start** — a free worker takes the scheduler's next request;
* **plan** — the setup estimate from the batch-signalling cadence, then
  the scheduler's degradation ladder;
* **requeue** — a crashed worker's request goes back to the queue, a
  bounded number of times;
* **settle** — the terminal counters, the admission slot, the
  retry-after EWMA, and the scheduler's feedback.

:class:`ServiceCore` owns those steps and nothing else: no sockets, no
tasks, no sleeps, no event loop.  It reads time from an explicit
virtual clock, and :meth:`ServiceCore.settle` converts virtual execution
seconds into the wall seconds the retry-after EWMA expects through
``time_scale`` — the only code that does (DESIGN.md §15).  Two drivers
run it: :class:`~repro.service.daemon.TransferDaemon` (asyncio: the
socket, supervised loops, drain, the reserve/ride ladder) and
:func:`~repro.service.loadtest.run_loadtest_sim` (discrete events: a
heap, a free-worker count, a seeded service-time model).

The core reaches the scheduler through ``self.sched`` at every call,
never through bound methods cached at construction, so wrapping the
scheduler object's methods after the fact (tracing) sees every call.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from .admission import AdmissionDecision
from .budget import DeadlineBudget, TransferPlan
from .health import SETTLED_STATES, ServiceMetrics

if TYPE_CHECKING:  # the sched package imports this package; stay lazy
    from ..sched.base import TransferScheduler
    from ..vc.circuits import SetupDelayModel

__all__ = ["InvalidSubmission", "ServiceRequest", "ServiceCore"]


class InvalidSubmission(ValueError):
    """A submission refused at validation (already counted as invalid)."""


@dataclasses.dataclass(eq=False, slots=True)
class ServiceRequest:
    """One accepted submission and its full lifecycle record."""

    request_id: int
    tenant: str
    file_sizes: tuple[float, ...]
    #: summed once at submit: global dispatch reads it on every scan
    total_bytes: float
    budget: DeadlineBudget
    #: "vc" | "ip-degraded" | "ip-fallback" once planned
    path: str | None = None
    #: queued -> active -> succeeded | failed | expired | checkpointed
    state: str = "queued"
    error: str | None = None
    files_done: int = 0
    crash_requeues: int = 0
    #: virtual time a worker last picked this request up (None while
    #: still queued) — the service-time EWMA measures from here, not
    #: from submit, so queue wait never inflates retry-after hints
    exec_started_vt: float | None = None
    #: the driver's settle signal (anything with ``set()``), set once
    #: the request settles; None when the driver needs none
    settled: Any = None

    @property
    def admission_stage(self) -> str:
        """Where admission counts this request: queued, in_flight, done."""
        if self.state == "queued":
            return "queued"
        return "in_flight" if self.state == "active" else "done"


class ServiceCore:
    """The request lifecycle both service drivers share (module docstring).

    ``clock`` returns the service's virtual seconds; ``time_scale``
    virtual seconds pass per wall second; ``signalling`` is the
    batch-signalling cadence setup estimates are read from.
    """

    def __init__(
        self,
        sched: "TransferScheduler",
        clock: Callable[[], float],
        time_scale: float,
        signalling: "SetupDelayModel",
        max_crash_requeues: int = 2,
    ) -> None:
        self.sched = sched
        self.clock = clock
        self.time_scale = time_scale
        self.signalling = signalling
        self.max_crash_requeues = max_crash_requeues
        self.metrics = ServiceMetrics()
        #: every accepted request by id
        self.requests: dict[int, ServiceRequest] = {}
        self._ids = itertools.count(1)

    def submit(
        self, tenant: Any, file_sizes: Any, deadline_s: Any
    ) -> ServiceRequest | AdmissionDecision:
        """Admit, validate and enqueue one submission.

        Returns the enqueued request, or the scheduler's rejection (a
        shed).  Raises :class:`InvalidSubmission` for a malformed one.
        Either way the submission is counted exactly once.
        """
        metrics = self.metrics
        metrics.n_submitted += 1
        if not isinstance(tenant, str) or not tenant:
            # refused before admission — still a submission, so it must
            # land in the invalid census for the ledger to balance
            metrics.n_invalid += 1
            raise InvalidSubmission("tenant must be a non-empty string")
        decision = self.sched.admit(tenant)
        if not decision.admitted:
            metrics.n_shed += 1
            return decision
        try:
            sizes = _byte_counts(file_sizes)
            # bool is an int subclass: JSON `true` is not one second
            if isinstance(deadline_s, bool):
                raise ValueError("deadline_s must be a number of seconds")
            budget = DeadlineBudget(
                None if deadline_s is None else float(deadline_s), self.clock
            )
        except (TypeError, ValueError) as exc:
            # hand the admission slot straight back
            self.sched.on_settle(tenant, started=False)
            metrics.n_invalid += 1
            raise InvalidSubmission(str(exc)) from None
        req = ServiceRequest(next(self._ids), tenant, sizes, sum(sizes), budget)
        self.requests[req.request_id] = req
        metrics.n_accepted += 1
        self.sched.enqueue(req)
        return req

    def start(self) -> ServiceRequest | None:
        """Hand a free worker the scheduler's next request (None: none)."""
        req = self.sched.next_request()
        if req is None or req.state != "queued":
            # another worker raced us to the pending set, or the request
            # settled while queued (the drain checkpoint race)
            return None
        self.sched.on_start(req.tenant)
        req.state = "active"
        req.exec_started_vt = self.clock()
        return req

    def plan(self, req: ServiceRequest) -> TransferPlan:
        """The scheduler's path for ``req`` at the current signalling wait."""
        now = self.clock()
        setup_estimate = max(self.signalling.ready_time(now) - now, 0.0)
        return self.sched.plan(req.budget, req.total_bytes, setup_estimate)

    def requeue(self, req: ServiceRequest) -> bool:
        """A crashed worker held ``req``: queue it again, or fail it.

        Returns True when the request went back to the queue.
        """
        if req.state != "active":
            return False
        req.crash_requeues += 1
        if req.crash_requeues > self.max_crash_requeues:
            self.settle(
                req, "failed",
                error=f"work loop crashed {req.crash_requeues} times "
                      f"holding this request",
            )
            return False
        req.state = "queued"
        self.sched.on_requeue(req.tenant)
        self.sched.enqueue(req)
        return True

    def settle(
        self, req: ServiceRequest, state: str, error: str | None = None
    ) -> None:
        """Move ``req`` to terminal ``state`` (a no-op once terminal)."""
        if req.state in SETTLED_STATES:
            return  # already terminal (drain/crash races)
        started = req.state == "active"
        req.state = state
        req.error = error
        self.metrics.count_settled(state)
        self.sched.on_settle(req.tenant, started=started)
        if req.exec_started_vt is not None:
            # clock-domain boundary: budgets run in *virtual* seconds but
            # clients sleep retry-after hints in *wall* seconds, so
            # convert through time_scale here; and measure from
            # execution start, not submit, so backlog queue wait does
            # not compound the backoff
            exec_virtual_s = max(self.clock() - req.exec_started_vt, 0.0)
            self.sched.note_service_s(exec_virtual_s / self.time_scale)
            if req.path is not None and req.files_done == len(req.file_sizes):
                # the policy learns from rides that moved every file
                self.sched.observe(req.total_bytes, exec_virtual_s, req.path)
        if req.settled is not None:
            req.settled.set()


def _byte_counts(file_sizes: Any) -> tuple[float, ...]:
    """A submission's file sizes as positive finite floats."""
    if not isinstance(file_sizes, list):
        raise ValueError("file_sizes must be a list of byte counts")
    sizes = []
    for size in file_sizes:
        if isinstance(size, bool):
            raise ValueError("file sizes must be byte counts, not booleans")
        size = float(size)
        if not 0.0 < size < math.inf:
            raise ValueError("file sizes must be positive and finite")
        sizes.append(size)
    if not sizes:
        raise ValueError("a task needs at least one file")
    return tuple(sizes)
