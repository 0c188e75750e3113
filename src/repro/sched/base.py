"""The :class:`TransferScheduler` decision interface and its factory.

A scheduler owns every policy decision a transfer service makes between
"a request arrived" and "bytes are moving":

* **admit** — accept the submission or shed it with a retry-after hint
  (delegated to the same :class:`~repro.service.admission.AdmissionController`
  the daemon has always used, so shed censuses stay comparable);
* **order** — which pending request a freed worker serves next;
* **degrade** — the VC → IP ladder (:meth:`TransferScheduler.plan`);
* **rate-advise** — the circuit bandwidth to request;
* **window** — how long a reservation should be held for;
* **defer** — whether a reserved circuit should be provisioned now
  (:meth:`TransferScheduler.approve_provision`) and whether a late
  circuit is worth waiting for (:meth:`TransferScheduler.decide_fallback`);
* **observe** — fold the finished transfer back into whatever model the
  policy keeps (the predictive scheduler's regression trains here).

Every method has the first-come default, so the base class *is* the
seed behaviour except for :meth:`plan`, which each policy must state
explicitly.
"""

from __future__ import annotations

import abc
import dataclasses
from collections import deque
from typing import Any, ClassVar

from ..service.admission import AdmissionController, AdmissionDecision
from ..service.budget import DeadlineBudget, TransferPlan
from ..vc.policy import FallbackDecision, FallbackPolicy

__all__ = [
    "SchedulerConfig",
    "TransferScheduler",
    "SCHEDULER_NAMES",
    "register_scheduler",
    "make_scheduler",
]


@dataclasses.dataclass(frozen=True)
class SchedulerConfig:
    """The service parameters every scheduling policy decides against."""

    workers: int = 4
    queue_limit: int = 64
    tenant_quota: int = 8
    #: nominal circuit bandwidth (what OSCARS would grant)
    vc_rate_bps: float = 1.6e9
    #: routed-IP fallback rate (the degraded path)
    ip_rate_bps: float = 4e8
    #: VC chosen only when budget >= setup + transfer * safety
    vc_safety_factor: float = 1.25

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.vc_rate_bps <= 0 or self.ip_rate_bps <= 0:
            raise ValueError("rates must be positive")
        if self.vc_safety_factor < 1.0:
            raise ValueError("vc_safety_factor must be >= 1")


class TransferScheduler(abc.ABC):
    """One transfer-scheduling policy (see module docstring).

    Subclasses set :attr:`name` (the CLI / spec-axis identity) and
    implement :meth:`plan`; everything else defaults to the seed
    first-come behaviour so a policy overrides only the decisions it
    actually changes.
    """

    name: ClassVar[str] = "?"

    def __init__(
        self,
        config: SchedulerConfig | None = None,
        fallback: FallbackPolicy | None = None,
    ) -> None:
        self.config = config or SchedulerConfig()
        self.fallback = fallback or FallbackPolicy()
        self.admission = AdmissionController(
            queue_limit=self.config.queue_limit,
            tenant_quota=self.config.tenant_quota,
            workers=self.config.workers,
        )
        self._pending: deque[Any] = deque()

    # -- admission decisions (delegated to the shared controller) ----------

    def admit(self, tenant: str) -> AdmissionDecision:
        """Admit or shed one submission from ``tenant``."""
        return self.admission.try_admit(tenant)

    def on_start(self, tenant: str) -> None:
        self.admission.on_start(tenant)

    def on_requeue(self, tenant: str) -> None:
        self.admission.on_requeue(tenant)

    def on_settle(self, tenant: str, started: bool = True) -> None:
        self.admission.on_settle(tenant, started=started)

    def note_service_s(self, wall_s: float, alpha: float = 0.3) -> None:
        self.admission.note_service_s(wall_s, alpha=alpha)

    # -- queue-order decisions ---------------------------------------------

    def enqueue(self, request: Any) -> None:
        """An admitted request joins the pending set (tail, like FIFO)."""
        self._pending.append(request)

    def next_request(self) -> Any | None:
        """Hand a freed worker its next request (``None`` when idle).

        The base policy is strict FIFO — submission order is service
        order.  Batch policies override this with a global choice over
        the whole pending set.
        """
        if not self._pending:
            return None
        return self._pending.popleft()

    @property
    def n_pending(self) -> int:
        return len(self._pending)

    # -- the degradation ladder --------------------------------------------

    @abc.abstractmethod
    def plan(
        self,
        budget: DeadlineBudget,
        total_bytes: float,
        setup_estimate_s: float,
    ) -> TransferPlan:
        """Choose the data path for one request (VC or degraded IP)."""

    # -- circuit decisions --------------------------------------------------

    def rate_advice(self, total_bytes: float) -> float:
        """Circuit bandwidth (bps) to request for a transfer this size."""
        return self.config.vc_rate_bps

    def reservation_window(
        self,
        now: float,
        transfer_estimate_s: float,
        worst_case_setup_s: float = 0.0,
        horizon_factor: float = 3.0,
        slack_s: float = 600.0,
    ) -> tuple[float, float]:
        """The ``(start, end)`` window one reservation should cover.

        Call sites keep their historical slack shape (the daemon holds
        ``worst_case_setup + 3x estimate + 600``, the chaos campaign
        ``2x estimate + 600``) by passing their own factors; a policy
        that sizes windows differently overrides the whole method.
        """
        return (
            now,
            now
            + worst_case_setup_s
            + horizon_factor * transfer_estimate_s
            + slack_s,
        )

    def decide_fallback(
        self, submit_time: float, circuit_ready_time: float
    ) -> FallbackDecision:
        """Wait for a late circuit, start on IP, or migrate mid-flight."""
        return self.fallback.decide(submit_time, circuit_ready_time)

    def approve_provision(self, circuit: Any, now: float) -> bool:
        """May a RESERVED circuit whose window opened be provisioned now?

        The provisioner consults this each tick; returning ``False``
        defers the circuit to a later tick (it stays RESERVED).  The
        default policy never defers.
        """
        return True

    # -- feedback ------------------------------------------------------------

    def observe(
        self, total_bytes: float, elapsed_s: float, path: str
    ) -> None:
        """Fold one finished transfer back into the policy's model.

        ``path`` is the :class:`~repro.service.budget.PathChoice` value
        the request actually rode.  Stateless policies ignore this; it
        must never draw from any RNG (the sim twins interleave it with
        seeded draws).
        """


#: registered policies, name -> class (filled by ``register_scheduler``)
_REGISTRY: dict[str, type[TransferScheduler]] = {}


def register_scheduler(cls: type[TransferScheduler]) -> type[TransferScheduler]:
    """Class decorator: make ``cls`` reachable through its :attr:`name`."""
    if not cls.name or cls.name == "?":
        raise ValueError(f"{cls.__name__} must set a scheduler name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate scheduler name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def SCHEDULER_NAMES() -> tuple[str, ...]:
    """The valid ``--scheduler`` / spec-axis names, sorted."""
    _ensure_registered()
    return tuple(sorted(_REGISTRY))


def _ensure_registered() -> None:
    # the concrete policies live in sibling modules; importing them is
    # what populates the registry (idempotent)
    from . import fcfs, globalsched, predictive  # noqa: F401


def make_scheduler(
    name: str,
    config: SchedulerConfig | None = None,
    fallback: FallbackPolicy | None = None,
    **kwargs: Any,
) -> TransferScheduler:
    """Build the named scheduling policy, or raise listing the choices."""
    _ensure_registered()
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown scheduler {name!r}: choose one of "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return cls(config=config, fallback=fallback, **kwargs)
