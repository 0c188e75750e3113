"""Inter-domain circuit setup: a minimal IDCP daisy chain.

ESnet and Internet2 stitch multi-domain circuits with the Inter-Domain
Controller Protocol: the request daisy-chains through each domain's IDC,
each reserving its own segment (Section II).  The paper's scalability
argument — static circuits don't scale across domains, so *dynamic*
inter-domain service is required — motivates this substrate, and the
DYNES-style deployment it models.

Domains are expressed as consecutive site-path segments over a shared
topology; each segment is administered by its own :class:`OscarsIDC`
instance with its own setup-delay model.  End-to-end setup completes when
the slowest domain is ready if signalling is parallel, or after the sum of
delays when the chain is sequential (the IDCP default modeled here).
"""

from __future__ import annotations

import dataclasses

from .circuits import VirtualCircuit
from .oscars import OscarsIDC, ReservationRejected, ReservationRequest

__all__ = ["DomainSegment", "InterDomainCircuit", "IdcpChain"]


@dataclasses.dataclass(frozen=True, slots=True)
class DomainSegment:
    """One administrative domain along an inter-domain path."""

    name: str
    idc: OscarsIDC
    ingress: str  # site/node where the circuit enters this domain
    egress: str  # site/node where it leaves


@dataclasses.dataclass(frozen=True)
class InterDomainCircuit:
    """The stitched result: one VC per domain, plus end-to-end bookkeeping."""

    segments: tuple[tuple[str, VirtualCircuit], ...]  # (domain name, circuit)
    rate_bps: float
    usable_start: float
    end_time: float


class IdcpChain:
    """Sequential IDCP signalling across an ordered list of domains."""

    def __init__(self, segments: list[DomainSegment]) -> None:
        if not segments:
            raise ValueError("need at least one domain segment")
        for a, b in zip(segments[:-1], segments[1:]):
            if a.egress != b.ingress:
                raise ValueError(
                    f"domain {a.name} egresses at {a.egress!r} but domain "
                    f"{b.name} ingresses at {b.ingress!r}"
                )
        self.segments = list(segments)

    def worst_case_setup_s(self) -> float:
        """Sum of per-domain worst-case setup delays (sequential chaining)."""
        return sum(seg.idc.setup_delay.worst_case_s() for seg in self.segments)

    def create_circuit(
        self,
        bandwidth_bps: float,
        request_time: float,
        end_time: float,
    ) -> InterDomainCircuit:
        """Reserve every segment in order; roll back all on any rejection.

        The request daisy-chains: domain *k+1* is asked only once domain
        *k* has answered, so each later domain's effective request time is
        the previous domain's ready time.  The circuit is usable when the
        final domain is ready.
        """
        built: list[tuple[DomainSegment, VirtualCircuit]] = []
        t = request_time
        try:
            for seg in self.segments:
                req = ReservationRequest(
                    src=seg.ingress,
                    dst=seg.egress,
                    bandwidth_bps=bandwidth_bps,
                    start_time=t,
                    end_time=end_time,
                )
                vc = seg.idc.create_reservation(req, request_time=t)
                built.append((seg, vc))
                t = vc.start_time  # next domain is signalled once this one is ready
        except ReservationRejected:
            for seg, vc in built:
                seg.idc.teardown(vc.circuit_id)
            raise
        usable = built[-1][1].start_time
        return InterDomainCircuit(
            segments=tuple((seg.name, vc) for seg, vc in built),
            rate_bps=bandwidth_bps,
            usable_start=usable,
            end_time=end_time,
        )

    def teardown(self, circuit: InterDomainCircuit, now: float | None = None) -> None:
        """Release every domain's segment."""
        by_name = {seg.name: seg for seg in self.segments}
        for name, vc in circuit.segments:
            by_name[name].idc.teardown(vc.circuit_id, now=now)
