"""Incremental weighted max-min fairness.

:func:`repro.net.flows.max_min_fair` recomputes every flow's rate from
scratch, which makes a fluid campaign cost O(events x flows x links) —
the full-recompute trap.  At the scale the paper works at (the SLAC--BNL
dataset alone holds 1,021,999 transfers) almost every event touches a
handful of flows, so :class:`MaxMinAllocator` exploits the locality of
change instead:

* it is **stateful** — flows are added, removed and edited through an
  API (`add_flow` / `remove_flow` / `update_capacity` / `update_flow`)
  and the allocator remembers rates between events;
* it keeps a **link -> flow incidence index**, so a change can be
  propagated: the only flows whose max-min rate can differ are those in
  the *connected component* (flows joined transitively by shared links)
  of the touched flows — progressive filling decomposes exactly across
  components, because flows in different components never compete for a
  link;
* it re-solves with the oracle's own filling loop,
  :func:`repro.net.flows._progressive_fill`, over the frontier's links
  mapped to integer ids, so the oracle and the allocator are one
  implementation of progressive filling.

The dirty-set invariant: between calls to :meth:`recompute`, the set of
flows whose stored rate may disagree with the weighted max-min optimum
is a subset of the connected-component closure of ``_dirty_flows`` and
the flows incident to ``_dirty_links``.  :meth:`recompute` restores the
invariant to the empty set and reports exactly the flows it re-solved.

**Level-frontier bound**: the connected component is still an
over-estimate — on a busy backbone one shared link joins everything
into a single component, yet most flows froze long before the
perturbation can matter.  Progressive filling is a water level rising
from zero; flow *f* freezes at level ``t_f = rate_f / weight_f`` (at
its demand or on a saturating link), and every freeze event below a
level ``t*`` is oblivious to a perturbation that provably cannot alter
link consumption below ``t*``.  Each mutation therefore records an
**entry level** — a safe lower bound on where its effect can first
bite:

* ``remove_flow(f)``: ``t_f`` — every link of *f* saturates at or
  above *f*'s own freeze level, so dynamics below it are untouched;
* ``add_flow(f)``: ``min_k cap_k / (W_k + w_f)`` over *f*'s links
  (total consumption at level *t* is at most ``t * W``), sharpened to
  ``headroom_k / w_f`` on links the last solve left unsaturated.  ``W_k``
  is a running per-link total, kept by every add, remove and edit and
  dropped when a link empties, so the bound costs O(links of f), not
  O(flows on each link).  Each update rounds toward +inf, so ``W_k``
  never under-counts (the bound stays a lower bound) and is exact for
  integer-valued weights such as stream counts;
* capacity decrease: ``new_cap / W_k``; capacity increase: the link's
  recorded saturation level (``inf`` if it never saturated — the
  frontier is then *empty* and no re-solve happens at all);
* ``update_flow``: demand-only edits bound at
  ``min(t_f, d_new / w)``; path or weight edits fall back to 0.

:meth:`recompute` takes ``t* = min`` entry over the pending mutations,
walks the dirty closure **restricted to flows with freeze level >=
t*`` (with a relative slack of 1e-6 — over-inclusion only costs work,
under-inclusion would be a correctness bug), and re-solves that
*frontier* against residual capacities ``cap_k - sum(rates of frozen
non-frontier flows on k)``.  Max-min uniqueness with the complement
held fixed makes the restricted solve equal the global solution
restricted to the frontier.

Since the oracle shares the filling loop, the independent check on it
is a NumPy transcription of the same loop, kept with the test oracles:
``tests/test_allocator.py::TestSolveArms`` re-solves Hypothesis-drawn
frontiers (frozen peers outside them, zero-capacity links, greedy and
link-less flows) through both and requires ``==`` on the rates,
``_levels``, ``_link_sat`` and ``_link_headroom``.  Randomized
incremental-vs-oracle property tests in the same file pin the dirty-set
and frontier logic.

Inputs are refused at the mutation API, with ``ValueError``, before
they can reach a solve: a NaN demand, a NaN or infinite weight, and a
negative, NaN or infinite capacity.  An infinite demand (a greedy flow)
and a zero capacity (an outage) are legal.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Mapping

from .flows import (
    _EPS,
    _check_capacity,
    _check_demand,
    _check_weight,
    _progressive_fill,
)

__all__ = ["MaxMinAllocator"]

#: relative slack on level comparisons when building the frontier —
#: generous on purpose: including a flow that could not move is wasted
#: work, excluding one that can move is a wrong answer.
_LEVEL_SLACK = 1e-6


def _add_up(total: float, w: float) -> float:
    """``total + w`` rounded toward +inf, so a running total never
    falls below the exact sum (the rounding error is TwoSum's)."""
    s = total + w
    b = s - total
    if (total - (s - b)) + (w - b) > 0:
        return math.nextafter(s, math.inf)
    return s


@dataclasses.dataclass(slots=True)
class _FlowEntry:
    links: tuple[tuple[str, str], ...]
    demand_bps: float
    weight: float


class MaxMinAllocator:
    """Stateful weighted max-min allocator with dirty-set recomputation.

    Parameters
    ----------
    capacities:
        Initial ``{link_key: capacity_bps}``; more links can be added (or
        capacities changed) later with :meth:`update_capacity`.
    probe:
        Optional instrumentation sink (e.g. a
        :class:`~repro.sim.probe.SimProbe`); must expose
        ``on_alloc_pass(n_flows_touched)``.  Duck-typed so the network
        layer does not import the simulation layer.
    """

    def __init__(
        self,
        capacities: Mapping[tuple[str, str], float] | None = None,
        probe=None,
    ) -> None:
        self._cap: dict[tuple[str, str], float] = {}
        self._link_flows: dict[tuple[str, str], set[int]] = {}
        #: link -> total weight of the flows on it (see :func:`_add_up`);
        #: present exactly when the link carries a flow
        self._link_w: dict[tuple[str, str], float] = {}
        self._flows: dict[int, _FlowEntry] = {}
        self._rates: dict[int, float] = {}
        self._dirty_flows: set[int] = set()
        self._dirty_links: set[tuple[str, str]] = set()
        self.probe = probe
        #: freeze level (rate / weight) of each flow as of its last solve
        self._levels: dict[int, float] = {}
        #: link -> saturation level from its last solve (inf = unsaturated)
        self._link_sat: dict[tuple[str, str], float] = {}
        #: link -> remaining headroom from its last solve
        self._link_headroom: dict[tuple[str, str], float] = {}
        #: min entry level over mutations since the last recompute
        self._entry: float = math.inf
        #: link -> weight added since that link's last solve; the
        #: headroom sharpening must divide by the *cumulative* pending
        #: weight, or two adds on one link would each claim the whole
        #: headroom for themselves
        self._link_pending_w: dict[tuple[str, str], float] = {}
        if capacities:
            for key, cap in capacities.items():
                self.update_capacity(key, cap)

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, flow_id: int) -> bool:
        return flow_id in self._flows

    @property
    def dirty(self) -> bool:
        """True when stored rates may be stale (recompute pending)."""
        return bool(self._dirty_flows or self._dirty_links)

    def capacity(self, key: tuple[str, str]) -> float:
        return self._cap[key]

    def rate(self, flow_id: int) -> float:
        """Last computed rate of ``flow_id`` (0.0 before any recompute)."""
        if flow_id not in self._flows:
            raise KeyError(f"unknown flow {flow_id}")
        return self._rates[flow_id]

    def rates(self) -> dict[int, float]:
        """``{flow_id: rate_bps}`` for every registered flow."""
        return dict(self._rates)

    def flow_links(self, flow_id: int) -> tuple[tuple[str, str], ...]:
        return self._flows[flow_id].links

    # -- mutation ----------------------------------------------------------

    def _note_entry(self, level: float) -> None:
        """Fold one mutation's entry-level bound into the pending minimum."""
        if level < self._entry:
            self._entry = max(level, 0.0)

    def _join(self, flow_id: int, links: tuple, weight: float) -> None:
        """Route ``flow_id`` over ``links``: incidence and weight totals."""
        link_flows, link_w = self._link_flows, self._link_w
        for key in links:
            peers = link_flows.get(key)
            if peers is None:
                link_flows[key] = {flow_id}
                link_w[key] = weight
            elif flow_id not in peers:
                peers.add(flow_id)
                link_w[key] = _add_up(link_w[key], weight)

    def _leave(self, flow_id: int, links: tuple, weight: float) -> None:
        """Undo :meth:`_join`; a link left empty drops both entries."""
        link_flows, link_w = self._link_flows, self._link_w
        for key in links:
            peers = link_flows.get(key)
            if peers is None or flow_id not in peers:
                continue
            peers.discard(flow_id)
            if peers:
                link_w[key] = _add_up(link_w[key], -weight)
            else:
                del link_flows[key]
                del link_w[key]

    def update_capacity(self, key: tuple[str, str], capacity_bps: float) -> None:
        """Set (or create) link ``key``'s capacity; dirties flows on it."""
        _check_capacity(capacity_bps)
        old = self._cap.get(key)
        if old == capacity_bps:
            return
        self._cap[key] = float(capacity_bps)
        if old is not None and self._link_flows.get(key):
            self._dirty_links.add(key)
            if capacity_bps < old:
                # consumption at level t is at most t * W, so the link
                # cannot saturate before new_cap / W
                weight = self._link_w[key]
                self._note_entry(capacity_bps / weight if weight > 0 else math.inf)
            else:
                # extra headroom only matters at and above the level the
                # link used to saturate; an unsaturated link (inf) never
                # constrained anyone and the frontier may end up empty
                self._note_entry(self._link_sat.get(key, 0.0))
        if old is not None:
            # the last solve's records were taken against the old
            # capacity; later mutations must not sharpen against them
            self._link_sat.pop(key, None)
            self._link_headroom.pop(key, None)

    def add_flow(
        self,
        flow_id: int,
        links: Iterable[tuple[str, str]],
        demand_bps: float = math.inf,
        weight: float = 1.0,
    ) -> None:
        """Register a flow; its component is re-solved on next recompute."""
        if flow_id in self._flows:
            raise ValueError(f"flow {flow_id} already present")
        _check_demand(demand_bps)
        _check_weight(weight)
        links = tuple(links)
        for key in links:
            if key not in self._cap:
                raise KeyError(f"flow {flow_id} uses unknown link {key}")
        self._flows[flow_id] = _FlowEntry(links, float(demand_bps), float(weight))
        # entry bound BEFORE the new flow joins the incidence: on each of
        # its links, total consumption at level t is at most t * (W + w),
        # so the newcomer cannot tip link k before cap_k / (W_k + w); a
        # link the last solve left unsaturated sharpens to headroom over
        # the cumulative weight added since that solve.
        weight = float(weight)
        entry = math.inf
        link_w = self._link_w
        for key in links:
            bound = self._cap[key] / (link_w.get(key, 0.0) + weight)
            pending = self._link_pending_w.get(key, 0.0) + weight
            self._link_pending_w[key] = pending
            headroom = self._link_headroom.get(key)
            if headroom is not None and math.isinf(self._link_sat.get(key, math.inf)):
                bound = max(bound, headroom / pending)
            entry = min(entry, bound)
        self._note_entry(entry)
        self._join(flow_id, links, weight)
        self._rates[flow_id] = 0.0
        self._dirty_flows.add(flow_id)

    def remove_flow(self, flow_id: int) -> None:
        """Deregister a flow; its former neighbours are re-solved next."""
        entry = self._flows.pop(flow_id, None)
        if entry is None:
            raise KeyError(f"unknown flow {flow_id}")
        # every link of the flow saturates at or above the flow's own
        # freeze level, so dynamics below it cannot notice the absence
        self._note_entry(self._levels.pop(flow_id, 0.0))
        self._leave(flow_id, entry.links, entry.weight)
        for key in entry.links:
            if key in self._link_flows:
                self._dirty_links.add(key)
        self._rates.pop(flow_id, None)
        self._dirty_flows.discard(flow_id)

    def update_flow(
        self,
        flow_id: int,
        links: Iterable[tuple[str, str]] | None = None,
        demand_bps: float | None = None,
        weight: float | None = None,
    ) -> None:
        """Edit a flow in place (path change, demand cap, weight)."""
        entry = self._flows.get(flow_id)
        if entry is None:
            raise KeyError(f"unknown flow {flow_id}")
        if demand_bps is not None:
            _check_demand(demand_bps)
        if weight is not None:
            _check_weight(weight)
        if links is None and weight is None and demand_bps is not None:
            # demand-only edit: the flow's consumption curve is w*t up to
            # min(old freeze level, new demand level) either way
            self._note_entry(
                min(
                    self._levels.get(flow_id, 0.0),
                    float(demand_bps) / entry.weight,
                )
            )
        else:
            # path or weight edits shift consumption from level zero;
            # no cheap bound, fall back to the component closure
            self._note_entry(0.0)
        if links is not None or weight is not None:
            new_links = entry.links if links is None else tuple(links)
            for key in new_links:
                if key not in self._cap:
                    raise KeyError(f"flow {flow_id} uses unknown link {key}")
            self._leave(flow_id, entry.links, entry.weight)
            if links is not None:
                # old neighbours must redistribute what this flow releases
                self._dirty_links.update(entry.links)
                entry.links = new_links
            if weight is not None:
                entry.weight = float(weight)
            self._join(flow_id, entry.links, entry.weight)
        if demand_bps is not None:
            entry.demand_bps = float(demand_bps)
        self._dirty_flows.add(flow_id)

    # -- recomputation -----------------------------------------------------

    def _frontier(self, cutoff: float) -> list[int]:
        """Dirty closure restricted to flows that can still move.

        A flow whose recorded freeze level sits below ``cutoff`` (with
        relative slack) kept its rate by the entry-level argument; it
        neither joins the frontier nor conducts change to its peers.
        Explicitly dirtied flows and flows without a recorded level
        (never solved) are always included.
        """
        cut = cutoff * (1.0 - _LEVEL_SLACK)
        levels = self._levels
        link_flows = self._link_flows
        seeds: set[int] = {fid for fid in self._dirty_flows if fid in self._flows}
        for key in self._dirty_links:
            for fid in link_flows.get(key, ()):
                if levels.get(fid, math.inf) >= cut:
                    seeds.add(fid)
        # a link's movable flows are pushed the first time any frontier
        # flow reaches it; a dirty link's are already among the seeds
        expanded = set(self._dirty_links)
        frontier: set[int] = set()
        stack = list(seeds)
        while stack:
            fid = stack.pop()
            if fid in frontier:
                continue
            frontier.add(fid)
            for key in self._flows[fid].links:
                if key in expanded:
                    continue
                expanded.add(key)
                for peer in link_flows[key]:
                    if peer not in frontier and levels.get(peer, math.inf) >= cut:
                        stack.append(peer)
        return sorted(frontier)

    def recompute(self) -> dict[int, float]:
        """Re-solve the dirty frontier; returns ``{flow_id: rate}`` for it.

        Flows outside the returned set kept their previous (still
        optimal) rates.  A no-op returning ``{}`` when nothing is dirty
        — including when every pending mutation's entry level proves
        the perturbation cannot move any frozen flow.
        """
        if not self.dirty:
            return {}
        fids = self._frontier(self._entry)
        self._dirty_flows.clear()
        self._dirty_links.clear()
        self._entry = math.inf
        changed = self._solve(fids) if fids else {}
        if self.probe is not None:
            self.probe.on_alloc_pass(len(fids))
        return changed

    def full_recompute(self) -> dict[int, float]:
        """Mark every flow dirty and recompute (consistency escape hatch)."""
        self._dirty_flows |= self._flows.keys()
        self._note_entry(0.0)
        return self.recompute()

    def _solve(self, fids: list[int]) -> dict[int, float]:
        """Progressive filling over one frontier, against residual capacity.

        The frontier's links get ids in first-seen (flow-major) order
        and the oracle's loop :func:`~repro.net.flows._progressive_fill`
        solves them, so a solve of every flow replays
        :func:`~repro.net.flows.max_min_fair` bit for bit.
        """
        link_flows = self._link_flows
        entries = [self._flows[fid] for fid in fids]
        # link universe of the frontier, in first-seen (flow-major) order
        link_ids: dict[tuple[str, str], int] = {}
        flow_links = [
            [link_ids.setdefault(key, len(link_ids)) for key in e.links]
            for e in entries
        ]
        solving = set(fids)
        caps = []
        for key in link_ids:
            cap = self._cap[key]
            # frozen non-frontier flows keep their rates; they show up
            # here as pre-committed capacity, subtracted in sorted-id
            # order so reruns are bit-for-bit reproducible
            frozen = link_flows[key] - solving
            if frozen:
                for peer in sorted(frozen):
                    cap -= self._rates[peer]
                cap = max(cap, 0.0)
            caps.append(cap)
        demands = [e.demand_bps for e in entries]
        weights = [e.weight for e in entries]
        rates, remaining = _progressive_fill(flow_links, demands, weights, caps)

        changed = dict(zip(fids, rates))
        self._rates.update(changed)
        # refresh the level records the frontier bound reasons from
        levels = self._levels
        for fid, r, w in zip(fids, rates, weights):
            levels[fid] = r / w
        for key, head, cap in zip(link_ids, remaining, caps):
            if head <= _EPS * max(cap, 1.0):
                # a link saturates exactly when its last active flows
                # freeze, so its saturation level is the max freeze
                # level over its flows (0.0 default errs conservative)
                self._link_sat[key] = max(
                    [levels.get(g, 0.0) for g in link_flows[key]], default=0.0
                )
            else:
                self._link_sat[key] = math.inf
            self._link_headroom[key] = head
            self._link_pending_w.pop(key, None)
        return changed

