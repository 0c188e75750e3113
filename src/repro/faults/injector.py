"""The fault injector: seeded, deterministic, composable.

A :class:`FaultInjector` holds a set of :class:`~repro.faults.spec.FaultSpec`
and answers two kinds of question:

* *per-request hooks* — "this createReservation at t=480: does it
  fault?" (:meth:`reservation_fault`, :meth:`setup_fault`), consulted by
  :class:`~repro.vc.oscars.OscarsIDC` and
  :class:`~repro.vc.provisioner.AutoProvisioner`;
* *time-driven schedules* — "give me the flap intervals for this
  circuit" (:meth:`flap_intervals`) or "install the endpoint/link
  outages of [t0, t1) into this simulator" (:meth:`arm`).

Determinism: every spec gets its own child generator spawned from one
:class:`numpy.random.SeedSequence`, so the draws of one fault family
never perturb another's — adding a flap spec does not reshuffle the
rejection sequence.  The same seed and the same call sequence replay the
same faults, which is what makes chaos experiments assertable in tests.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .spec import FaultKind, FaultSpec, InjectedFault

__all__ = ["FaultInjector", "merge_intervals", "storm_injector"]


def merge_intervals(
    intervals: Iterable[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Coalesce overlapping down intervals into a sorted disjoint set.

    Injected fault windows can overlap (independent specs, long
    exponential tails); consumers that replay them — the chaos runner's
    circuit flaps, the managed service's outage schedules — need each
    element failed at most once at a time.
    """
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


class FaultInjector:
    """Deterministic seeded fault source shared by a whole experiment."""

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0) -> None:
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        children = np.random.SeedSequence(seed).spawn(max(len(self.specs), 1))
        self._rngs = [np.random.default_rng(c) for c in children]
        #: audit log of every fault actually fired
        self.events: list[InjectedFault] = []

    def _live(self, kind: FaultKind, now: float) -> list[tuple[FaultSpec, np.random.Generator]]:
        return [
            (spec, self._rngs[i])
            for i, spec in enumerate(self.specs)
            if spec.kind is kind and spec.active_at(now)
        ]

    # -- per-request hooks -------------------------------------------------

    def reservation_fault(self, now: float) -> bool:
        """Bernoulli draw: does a createReservation at ``now`` get refused?"""
        for spec, rng in self._live(FaultKind.IDC_REJECTION, now):
            if rng.random() < spec.probability:
                self.events.append(
                    InjectedFault(now, FaultKind.IDC_REJECTION, detail="refused")
                )
                return True
        return False

    def setup_fault(self, now: float) -> FaultSpec | None:
        """Does circuit signalling at ``now`` stall or die?

        Returns the firing spec — the caller reads ``kind`` (TIMEOUT vs
        FAILURE) and ``extra_delay_s`` — or None for a clean setup.
        """
        for kind in (FaultKind.VC_SETUP_FAILURE, FaultKind.VC_SETUP_TIMEOUT):
            for spec, rng in self._live(kind, now):
                if rng.random() < spec.probability:
                    self.events.append(InjectedFault(now, kind))
                    return spec
        return None

    # -- time-driven schedules --------------------------------------------

    def _poisson_hits(
        self,
        spec: FaultSpec,
        rng: np.random.Generator,
        start: float,
        end: float,
    ) -> list[tuple[float, float]]:
        """Draw (onset, recovery) pairs of one spec over [start, end)."""
        if spec.rate_per_hour <= 0 or end <= start:
            return []
        lo = max(start, spec.window[0])
        hi = min(end, spec.window[1])
        hits: list[tuple[float, float]] = []
        t = lo
        while True:
            t += float(rng.exponential(3600.0 / spec.rate_per_hour))
            if t >= hi:
                break
            dur = float(rng.exponential(spec.duration_s))
            hits.append((t, min(t + dur, hi)))
            t += dur  # the element cannot fail again while already down
        return hits

    def flap_intervals(
        self, start: float, end: float, target: str | None = None
    ) -> list[tuple[float, float]]:
        """Down intervals for one circuit live over [start, end).

        Each call consumes fresh draws, so successive circuits get
        independent (but seed-reproducible) flap histories.
        """
        intervals: list[tuple[float, float]] = []
        for i, spec in enumerate(self.specs):
            if spec.kind is not FaultKind.CIRCUIT_FLAP or not spec.matches(target):
                continue
            for t_down, t_up in self._poisson_hits(spec, self._rngs[i], start, end):
                intervals.append((t_down, t_up))
                self.events.append(
                    InjectedFault(
                        t_down, FaultKind.CIRCUIT_FLAP, target, t_up - t_down
                    )
                )
        intervals.sort()
        return intervals

    def outage_schedule(self, start: float, end: float) -> list[InjectedFault]:
        """Draw every endpoint/link outage of [start, end) as audit entries."""
        out: list[InjectedFault] = []
        for i, spec in enumerate(self.specs):
            if spec.kind not in (FaultKind.ENDPOINT_OUTAGE, FaultKind.LINK_OUTAGE):
                continue
            for t_down, t_up in self._poisson_hits(spec, self._rngs[i], start, end):
                out.append(
                    InjectedFault(t_down, spec.kind, spec.target, t_up - t_down)
                )
        out.sort(key=lambda f: f.time)
        self.events.extend(out)
        return out

    def arm(self, sim, start: float, end: float) -> list[InjectedFault]:
        """Install this injector's endpoint/link outages into a simulator.

        ``sim`` is a :class:`~repro.sim.experiment.FluidSimulator`; an
        endpoint outage takes down every link incident to the target
        site, a link outage just its link.  Returns what was installed.
        """
        installed = self.outage_schedule(start, end)
        link_keys = {link.key for link in sim.topology.links()}
        for fault in installed:
            if fault.kind is FaultKind.LINK_OUTAGE:
                keys = [fault.target] if fault.target in link_keys else []
            else:
                keys = [
                    key
                    for key in link_keys
                    if fault.target in key
                ]
            for key in keys:
                sim.schedule_link_outage(
                    key, fault.time, fault.time + fault.duration_s
                )
        return installed

    # -- reporting ---------------------------------------------------------

    def count(self, kind: FaultKind) -> int:
        """Faults of one kind fired so far."""
        return sum(1 for f in self.events if f.kind is kind)


def storm_injector(
    seed: int,
    *,
    rejection_prob: float = 0.0,
    setup_timeout_prob: float = 0.0,
    setup_extra_delay_s: float = 120.0,
    flaps_per_hour: float = 0.0,
    flap_duration_s: float = 30.0,
    endpoint_outages_per_hour: float = 0.0,
    endpoint_outage_s: float = 30.0,
    endpoint: str | None = None,
) -> FaultInjector | None:
    """The injector of one fault storm; None when every knob is off.

    The one mapping from the storm knobs that the chaos campaign, the
    managed-service campaign and the daemon expose to fault specs.  A
    knob at zero adds no spec, and the specs added keep one order —
    IDC rejection, setup timeout, circuit flap, endpoint outage (at
    ``endpoint``) — so the child generator each spec draws from, its
    index in the injector's ``SeedSequence`` spawn, depends only on
    which knobs are on.
    """
    specs: list[FaultSpec] = []
    if rejection_prob > 0:
        specs.append(FaultSpec(FaultKind.IDC_REJECTION, probability=rejection_prob))
    if setup_timeout_prob > 0:
        specs.append(
            FaultSpec(
                FaultKind.VC_SETUP_TIMEOUT,
                probability=setup_timeout_prob,
                extra_delay_s=setup_extra_delay_s,
            )
        )
    if flaps_per_hour > 0:
        specs.append(
            FaultSpec(
                FaultKind.CIRCUIT_FLAP,
                rate_per_hour=flaps_per_hour,
                duration_s=flap_duration_s,
            )
        )
    if endpoint_outages_per_hour > 0:
        specs.append(
            FaultSpec(
                FaultKind.ENDPOINT_OUTAGE,
                rate_per_hour=endpoint_outages_per_hour,
                duration_s=endpoint_outage_s,
                target=endpoint,
            )
        )
    return FaultInjector(specs, seed=seed) if specs else None
