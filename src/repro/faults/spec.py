"""Fault taxonomy: what can break, where, and how often.

The paper's central tradeoff — a ~1-min circuit setup delay weighed
against rate guarantees — only matters in a world where the setup can
*fail*: the IDC can refuse a reservation, signalling can stall or die,
an active circuit can flap mid-transfer, and endpoints or backbone links
can go dark.  A :class:`FaultSpec` names one such failure mode with its
intensity; a set of specs is compiled by
:class:`~repro.faults.injector.FaultInjector` into a deterministic,
seeded schedule that any :class:`~repro.sim.engine.EventLoop`-driven
simulation can replay.

Two families of fault, distinguished by how they are triggered:

* **per-request** faults fire when a control-plane operation is
  attempted (``IDC_REJECTION``, ``VC_SETUP_TIMEOUT``,
  ``VC_SETUP_FAILURE``) — each attempt is an independent Bernoulli draw
  at ``probability``;
* **time-driven** faults fire on the clock (``CIRCUIT_FLAP``,
  ``ENDPOINT_OUTAGE``, ``LINK_OUTAGE``) — a Poisson process at
  ``rate_per_hour`` whose hits last an exponential ``duration_s`` mean.
"""

from __future__ import annotations

import dataclasses
import enum
import math

__all__ = [
    "FaultKind",
    "FaultSpec",
    "InjectedFault",
    "PER_REQUEST_KINDS",
    "TIME_DRIVEN_KINDS",
]


class FaultKind(enum.Enum):
    """One failure mode of the VC + transfer stack."""

    #: createReservation refused by the IDC (admission or policy)
    IDC_REJECTION = "idc-rejection"
    #: signalling stalls: the circuit comes up ``extra_delay_s`` late
    VC_SETUP_TIMEOUT = "vc-setup-timeout"
    #: signalling dies: the reservation is lost and must be re-requested
    VC_SETUP_FAILURE = "vc-setup-failure"
    #: an active circuit drops and is later restored (control-plane flap)
    CIRCUIT_FLAP = "circuit-flap"
    #: a site's DTN/access goes dark (server crash, maintenance window)
    ENDPOINT_OUTAGE = "endpoint-outage"
    #: a backbone link goes down (fiber cut, line-card reset)
    LINK_OUTAGE = "link-outage"


PER_REQUEST_KINDS = frozenset(
    {FaultKind.IDC_REJECTION, FaultKind.VC_SETUP_TIMEOUT, FaultKind.VC_SETUP_FAILURE}
)
TIME_DRIVEN_KINDS = frozenset(
    {FaultKind.CIRCUIT_FLAP, FaultKind.ENDPOINT_OUTAGE, FaultKind.LINK_OUTAGE}
)


@dataclasses.dataclass(frozen=True, slots=True)
class FaultSpec:
    """One injectable failure mode with its intensity and scope.

    ``target`` narrows the blast radius: a site name for endpoint
    outages, a link key for link outages, ``None`` for "anywhere".
    ``window`` bounds the interval of simulated time the spec is live.
    """

    kind: FaultKind
    #: per-request kinds: chance each attempt faults
    probability: float = 0.0
    #: time-driven kinds: Poisson intensity of fault onsets
    rate_per_hour: float = 0.0
    #: time-driven kinds: mean outage length (exponentially distributed)
    duration_s: float = 30.0
    #: VC_SETUP_TIMEOUT: extra signalling delay added to the ready time
    extra_delay_s: float = 120.0
    target: str | tuple[str, str] | None = None
    window: tuple[float, float] = (0.0, math.inf)

    def __post_init__(self) -> None:
        # a NaN passes every range rule below, and the injector's Poisson
        # draw loop never ends on a NaN rate or duration
        for name in ("probability", "rate_per_hour", "duration_s", "extra_delay_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.kind in PER_REQUEST_KINDS:
            if not 0.0 <= self.probability <= 1.0:
                raise ValueError("probability must be in [0, 1]")
        else:
            if self.rate_per_hour < 0:
                raise ValueError("rate_per_hour must be non-negative")
            if self.duration_s <= 0:
                raise ValueError("duration_s must be positive")
        if self.extra_delay_s < 0:
            raise ValueError("extra_delay_s must be non-negative")
        if self.window[1] <= self.window[0]:
            raise ValueError("window must have positive length")

    def active_at(self, t: float) -> bool:
        """Whether the spec is live at simulated time ``t``."""
        return self.window[0] <= t < self.window[1]

    def matches(self, target: str | tuple[str, str] | None) -> bool:
        """Whether the spec applies to ``target`` (None spec = anywhere)."""
        return self.target is None or self.target == target


@dataclasses.dataclass(frozen=True, slots=True)
class InjectedFault:
    """One fault the injector actually fired — the injection audit log."""

    time: float
    kind: FaultKind
    target: str | tuple[str, str] | None = None
    duration_s: float = 0.0
    detail: str = ""
