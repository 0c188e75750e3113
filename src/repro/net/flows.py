"""Flow-level bandwidth sharing: weighted max-min fairness.

The mechanistic simulator treats TCP flows as fluids and asks, at each
event, "what rate does each active flow get?"  The classical answer for
TCP-like sharing is (weighted) max-min fairness computed by progressive
filling: raise every unfrozen flow's rate together until some link
saturates, freeze the flows crossing it, repeat.

Flows carry a *demand* cap (the flow may be limited elsewhere — by its
server share, VC rate, or TCP window — and cannot use more even if the
network offers it) and a *weight* (a transfer with 8 parallel TCP streams
competes like 8 flows, which is precisely why users open parallel
streams).

The filling loop itself is :func:`_progressive_fill`, which works on
integer link ids.  :func:`max_min_fair` (the reference oracle) maps its
link keys to ids and calls it; so does
:class:`~repro.net.allocator.MaxMinAllocator` for every frontier it
re-solves.  The one loop is checked against an independent NumPy
transcription in ``tests/oracles.py``.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping, Sequence

__all__ = ["FlowSpec", "max_min_fair"]

_EPS = 1e-9  # relative freeze tolerance on demands and link capacities


def _check_demand(demand_bps: float) -> None:
    # ``inf`` is a greedy flow; NaN would pass a plain ``< 0`` test
    if not demand_bps >= 0:
        raise ValueError(f"demand must be non-negative, got {demand_bps!r}")


def _check_weight(weight: float) -> None:
    if not 0 < weight < math.inf:
        raise ValueError(f"weight must be positive and finite, got {weight!r}")


def _check_capacity(capacity_bps: float) -> None:
    # zero is a link outage; an infinite link would never saturate
    if not 0 <= capacity_bps < math.inf:
        raise ValueError(
            f"capacity must be finite and non-negative, got {capacity_bps!r}"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class FlowSpec:
    """One fluid flow for the allocator.

    ``links`` is the sequence of canonical link keys the flow traverses;
    ``demand_bps`` caps the allocation (``inf`` for greedy flows);
    ``weight`` scales the flow's share under contention.
    """

    flow_id: int
    links: tuple[tuple[str, str], ...]
    demand_bps: float = math.inf
    weight: float = 1.0

    def __post_init__(self) -> None:
        _check_demand(self.demand_bps)
        _check_weight(self.weight)


def _progressive_fill(
    flow_links: Sequence[Sequence[int]],
    demands: Sequence[float],
    weights: Sequence[float],
    caps: Sequence[float],
) -> tuple[list[float], list[float]]:
    """Weighted progressive filling over integer link ids.

    Flow *i* crosses the links ``flow_links[i]`` (indexes into ``caps``)
    and is capped at ``demands[i]``; a flow with no links gets its demand
    (``inf`` when greedy).  Returns ``(rates, remaining)``: each flow's
    rate and each link's capacity left over.  Inputs must be validated:
    finite non-negative capacities, positive finite weights, non-NaN
    demands.

    Each pass sums the active weight per link flow by flow, raises every
    active flow by the tightest per-unit-weight headroom, then freezes
    flows at their demand or on a saturated link.  Both slacks are
    *relative*: demands sit at ~1e9 bps, where one ulp is ~5e-7, so an
    absolute 1e-9 would let a flow land one rounding error short of its
    demand and never freeze.
    """
    n_links = len(caps)
    remaining = [float(c) for c in caps]
    sat = [_EPS * max(c, 1.0) for c in remaining]
    rate = [0.0] * len(flow_links)
    floor = [d - _EPS * max(d, 1.0) if d < math.inf else d for d in demands]
    active = []
    for i, links in enumerate(flow_links):
        if links:
            active.append(i)
        else:  # a flow with no links is only demand-capped
            rate[i] = demands[i]

    while active:
        load = [0.0] * n_links
        for i in active:
            w = weights[i]
            for k in flow_links[i]:
                load[k] += w
        # per-unit-weight headroom of each link the active flows use
        share = [r / w if w else math.inf for r, w in zip(remaining, load)]
        inc = math.inf
        for i in active:
            room = (demands[i] - rate[i]) / weights[i]
            for k in flow_links[i]:
                if share[k] < room:
                    room = share[k]
            if room < inc:
                inc = room
        if inc == math.inf:
            raise RuntimeError("unbounded allocation: flow without binding constraint")
        inc = max(inc, 0.0)

        for i in active:
            delta = inc * weights[i]
            rate[i] += delta
            for k in flow_links[i]:
                remaining[k] -= delta
        # numerical dust from the subtraction above
        remaining = [r if r >= 0.0 else 0.0 for r in remaining]

        still_active = []
        for i in active:
            if rate[i] >= floor[i]:
                rate[i] = min(rate[i], demands[i])
                continue
            for k in flow_links[i]:
                if remaining[k] <= sat[k]:
                    break  # saturated link: frozen
            else:
                still_active.append(i)
        if len(still_active) == len(active):
            # No progress is only possible when inc == 0 yet nothing froze;
            # guard against an infinite loop from pathological inputs.
            raise RuntimeError("progressive filling made no progress")
        active = still_active
    return rate, remaining


def max_min_fair(
    flows: Sequence[FlowSpec],
    capacities: Mapping[tuple[str, str], float],
) -> dict[int, float]:
    """Weighted max-min fair rates for ``flows`` over ``capacities``.

    Returns ``{flow_id: rate_bps}``.  Flows whose demand cap binds first
    are frozen at their demand; links are removed from consideration once
    saturated.  Runs in O(iterations * flows * path length); iterations
    are bounded by the number of links plus flows, which is tiny at the
    scale of concurrent wide-area science flows.

    Raises ``KeyError`` if a flow references a link with no capacity
    entry, and ``ValueError`` on a negative, NaN or infinite capacity.
    """
    for cap in capacities.values():
        _check_capacity(cap)
    ids: dict[tuple[str, str], int] = {}
    caps: list[float] = []
    flow_links = []
    for f in flows:
        row = []
        for key in f.links:
            k = ids.get(key)
            if k is None:
                if key not in capacities:
                    raise KeyError(f"flow {f.flow_id} uses unknown link {key}")
                k = ids[key] = len(caps)
                caps.append(capacities[key])
            row.append(k)
        flow_links.append(row)
    rates, _ = _progressive_fill(
        flow_links,
        [f.demand_bps for f in flows],
        [f.weight for f in flows],
        caps,
    )
    return {f.flow_id: r for f, r in zip(flows, rates)}
