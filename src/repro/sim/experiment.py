"""The fluid transfer simulator: jobs -> logs + SNMP counters.

This is the mechanistic substrate standing in for the paper's production
measurement environment.  Transfers are fluid flows whose instantaneous
rates are recomputed at every event (arrival, slow-start completion, flow
completion) by a two-pass weighted max-min allocation:

1. **VC pass** — circuit-backed flows are allocated first, each against
   its guaranteed rate and its endpoints' host/disk pools (a circuit
   guarantees the *network*, not the servers — the paper's finding (v)).
2. **best-effort pass** — remaining flows share the network links left
   after subtracting the circuit allocations, plus the residual host/disk
   pools.

Two allocation strategies implement those passes:

* ``allocator="incremental"`` (the default) routes every change through
  a pair of stateful :class:`~repro.net.allocator.MaxMinAllocator`\\ s
  (one per pass).  Arrivals, completions, capacity changes and circuit
  events dirty only the flows they touch; each timestamp batch then
  triggers ONE reallocation of the flows whose rate can move (the
  allocator's level frontier, a few flows on average), solved by a
  scalar loop when small and by a NumPy kernel when large.  Campaign
  cost scales with *change*, not with the number of concurrent flows.
* ``allocator="oracle"`` re-runs the pure-Python
  :func:`~repro.net.flows.max_min_fair` oracle over all active flows at
  every settle point — the reference the incremental path is tested
  against.

TCP slow start appears as a per-flow startup penalty during which the flow
moves no fluid (the analytic penalty from
:meth:`repro.net.tcp.TcpPathModel.startup_penalty_s`), so short transfers
see exactly the stream-count effect of Figures 3--4.

Every completed transfer is logged as a
:class:`~repro.gridftp.records.TransferRecord`; every byte moved is
deposited into the per-link SNMP counters, Table X style.  A
:class:`~repro.sim.probe.SimProbe` can be plugged in to count events,
allocation passes and flows touched per pass.
"""

from __future__ import annotations

import dataclasses
import heapq
import math

import numpy as np

from ..gridftp.client import TransferJob
from ..gridftp.records import TransferLog, TransferRecord, TransferType
from ..gridftp.reliability import RestartPolicy
from ..gridftp.server import DtnCluster, DtnSpec
from ..net.allocator import MaxMinAllocator
from ..net.flows import FlowSpec, max_min_fair
from ..net.snmp import SnmpCollector
from ..net.tcp import TcpPathModel
from ..net.topology import Topology
from ..vc.circuits import CircuitState, VirtualCircuit
from .engine import EventLoop
from .probe import SimProbe

__all__ = ["FluidSimulator", "SimResult", "default_dtns"]

_EPS_BYTES = 1.0  # remaining-byte tolerance for completion


def default_dtns(topology: Topology) -> DtnCluster:
    """DTN budgets for every site, tuned to the paper's observed regimes.

    NERSC's disk-write pool is the tightest (Fig. 1's bottleneck); NCAR's
    cluster width is 3 (the 2009 ``frost`` configuration).  Every
    campaign family defaults to these budgets, so it lives next to the
    simulator rather than any one scenario module.
    """
    cluster = DtnCluster()
    cluster.add(DtnSpec("NERSC", nic_bps=7e9, disk_read_bps=4.5e9, disk_write_bps=2.3e9))
    cluster.add(DtnSpec("ANL", nic_bps=6e9, disk_read_bps=4.5e9, disk_write_bps=4e9))
    cluster.add(DtnSpec("ORNL", nic_bps=6e9, disk_read_bps=4.5e9, disk_write_bps=3.5e9))
    cluster.add(DtnSpec("NCAR", nic_bps=2.2e9, disk_read_bps=1.8e9, disk_write_bps=1.5e9, n_servers=3))
    cluster.add(DtnSpec("NICS", nic_bps=6e9, disk_read_bps=4.5e9, disk_write_bps=4e9))
    cluster.add(DtnSpec("SLAC", nic_bps=5e9, disk_read_bps=4e9, disk_write_bps=3e9))
    cluster.add(DtnSpec("BNL", nic_bps=5e9, disk_read_bps=4e9, disk_write_bps=3e9))
    cluster.add(DtnSpec("LANL", nic_bps=5e9, disk_read_bps=4e9, disk_write_bps=3e9))
    return cluster


@dataclasses.dataclass
class _Flow:
    """Internal per-transfer simulation state."""

    flow_id: int
    job: TransferJob
    path: list[str]
    net_links: list[tuple[str, str]]
    pseudo_links: list[tuple[str, str]]
    demand_cap_bps: float
    submit_time: float
    active_time: float  # submit + slow-start penalty
    remaining_bytes: float
    rate_bps: float = 0.0
    vc: VirtualCircuit | None = None
    done: bool = False
    #: interned allocator ids of ``net_links + pseudo_links``, set on admission
    link_ids: tuple[int, ...] = ()


@dataclasses.dataclass(frozen=True)
class SimResult:
    """Output of one simulator run."""

    log: TransferLog
    snmp: SnmpCollector
    n_events: int
    #: flow id of each log row (same time-sorted order as ``log``)
    flow_ids: np.ndarray | None = None
    #: the instrumentation probe the run counted into
    probe: SimProbe | None = None


class FluidSimulator:
    """Event-driven fluid simulation of GridFTP transfers over a topology.

    Parameters
    ----------
    topology:
        The network (sites, routers, links).
    dtns:
        Per-site server resource budgets.
    loss_rate:
        Random loss probability used by the per-path TCP model (paper
        finding (iii): effectively zero on these paths).
    max_window_bytes:
        Per-stream TCP window limit; ``None`` models autotuned buffers.
    ssthresh_bytes:
        Per-stream slow-start threshold for the window ramp; DTNs with
        tuned stacks and reused data channels warrant a high value.
    snmp_t0, snmp_bin_seconds:
        SNMP counter epoch and cadence.
    restart_policy:
        GridFTP restart-marker model applied when a circuit carrying a
        flow FAILs mid-transfer: bytes past the last marker are re-sent
        and the flow pays the reconnect cost after restoration.  ``None``
        keeps the pre-fault-injection behaviour (a stall loses nothing).
    allocator:
        ``"incremental"`` (default) for the dirty-set allocator;
        ``"oracle"`` for the full-recompute reference path.
    probe:
        A :class:`~repro.sim.probe.SimProbe` to count into; one is
        created (and exposed as :attr:`probe`) when omitted.
    """

    def __init__(
        self,
        topology: Topology,
        dtns: DtnCluster,
        loss_rate: float = 0.0,
        max_window_bytes: float | None = None,
        ssthresh_bytes: float | None = 1.2e6,
        snmp_t0: float = 0.0,
        snmp_bin_seconds: float = 30.0,
        restart_policy: RestartPolicy | None = None,
        allocator: str = "incremental",
        probe: SimProbe | None = None,
    ) -> None:
        if allocator not in ("incremental", "oracle"):
            raise ValueError(f"unknown allocator strategy {allocator!r}")
        self.topology = topology
        self.dtns = dtns
        self.loss_rate = loss_rate
        self.max_window_bytes = max_window_bytes
        self.ssthresh_bytes = ssthresh_bytes
        self.restart_policy = restart_policy
        self.allocator = allocator
        self.probe = probe if probe is not None else SimProbe()
        self.snmp = SnmpCollector(snmp_t0, snmp_bin_seconds)
        self._flows: dict[int, _Flow] = {}
        self._next_flow_id = 0
        self._records: list[TransferRecord] = []
        self._record_fids: list[int] = []
        #: flow id -> (submit time, finish time) of completed transfers
        self.flow_completions: dict[int, tuple[float, float]] = {}
        self._loop = EventLoop(snmp_t0, probe=self.probe)
        self._loop.add_flush_hook(self._flush)
        self._completion_event = None
        self._last_advance = snmp_t0
        #: scheduled outages: link key -> list of (t_down, t_up)
        self._outages: dict[tuple[str, str], list[tuple[float, float]]] = {}
        self._watched_circuits: set[int] = set()
        #: flap bookkeeping: flaps observed and bytes re-sent to markers
        self.n_circuit_flaps = 0
        self.marker_rollback_bytes = 0.0
        # -- shared settle state ------------------------------------------
        self._needs_realloc = False
        #: route -> its TCP model (the route's links and the TCP knobs fix it)
        self._tcp_models: dict[tuple[str, ...], TcpPathModel] = {}
        # -- incremental-allocator state ----------------------------------
        self._vc_alloc: MaxMinAllocator | None = None
        self._be_alloc: MaxMinAllocator | None = None
        self._raw_caps: dict[tuple[str, str], float] = {}
        #: allocator link ids: the allocators see net, pseudo and guard
        #: links as small ints (hashed for free), interned once
        self._link_ids: dict[tuple[str, str], int] = {}
        self._link_keys: list[tuple[str, str]] = []
        #: flows awaiting activation: heap of (active_time, flow_id)
        self._pending: list[tuple[float, int]] = []
        self._members: set[int] = set()
        self._member_side: dict[int, str] = {}
        #: physical net/pseudo link ids -> vc member flows consuming them
        self._vc_link_flows: dict[int, set[int]] = {}
        #: circuit id -> vc member flows riding it
        self._circuit_flows: dict[int, set[int]] = {}
        #: link ids whose best-effort residual capacity must be recomputed
        self._stale_res_links: set[int] = set()
        #: lazy completion heap: (finish_time, token, flow_id)
        self._completion_heap: list[tuple[float, int, int]] = []
        self._proj_token: dict[int, int] = {}
        self._token_seq = 0
        self._needs_projection: set[int] = set()

    # -- failure injection ---------------------------------------------------

    def schedule_link_outage(
        self, key: tuple[str, str], t_down: float, t_up: float
    ) -> None:
        """Take link ``key`` down over [t_down, t_up).

        Flows crossing the link stall at zero rate for the outage (their
        logged durations absorb the stall) and resume when it returns —
        the failure mode GridFTP's fault recovery exists for.  Must be
        called before the affected interval is simulated.
        """
        if t_up <= t_down:
            raise ValueError("outage must have positive duration")
        if t_down < self._loop.now:
            raise ValueError("cannot schedule an outage in the past")
        if key not in {link.key for link in self.topology.links()}:
            raise KeyError(f"unknown link {key}")
        self._outages.setdefault(key, []).append((t_down, t_up))
        # capacity changes at both edges: settle the fluid and dirty the link
        self._loop.schedule(t_down, lambda: self._on_outage_edge(key))
        self._loop.schedule(t_up, lambda: self._on_outage_edge(key))

    def _link_capacity_now(self, key: tuple[str, str], capacity: float) -> float:
        now = self._loop.now
        for t_down, t_up in self._outages.get(key, ()):
            if t_down <= now < t_up:
                return 0.0
        return capacity

    def _on_outage_edge(self, key: tuple[str, str]) -> None:
        self._recompute()
        if self._vc_alloc is None:
            return
        # best-effort residual on this link changes with the raw capacity
        lid = self._link_ids[key]
        self._stale_res_links.add(lid)
        # a circuit is only as alive as its physical path: refresh the
        # guard capacity of every circuit flow traversing the link
        for fid in self._vc_link_flows.get(lid, set()):
            flow = self._flows.get(fid)
            if flow is not None and flow.vc is not None:
                self._refresh_guard(flow)

    def inject_circuit_flap(
        self, vc: VirtualCircuit, t_down: float, t_up: float
    ) -> None:
        """Drop circuit ``vc`` over [t_down, t_up) and restore it after.

        Flows riding the circuit stall while it is FAILED; with a
        ``restart_policy`` they also roll back to their last restart
        marker and pay the reconnect cost after restoration — the
        mechanistic version of a GridFTP transfer surviving a circuit
        flap.  Must be scheduled before the interval is simulated.
        """
        if t_up <= t_down:
            raise ValueError("flap must have positive duration")
        if t_down < self._loop.now:
            raise ValueError("cannot schedule a flap in the past")
        self._watch_circuit(vc)
        self._loop.schedule(t_down, vc.fail)
        self._loop.schedule(t_up, vc.restore)

    def migrate_flow(
        self,
        flow_id: int,
        vc: VirtualCircuit,
        at_time: float,
        fresh_ramp: bool = False,
    ) -> None:
        """Move a running best-effort flow onto circuit ``vc`` at ``at_time``.

        The fallback-to-IP policy's second half: a transfer that started
        on the routed path migrates to its circuit once signalling
        completes, recovering the rate guarantee for the remaining
        bytes.  A no-op if the flow already finished.

        ``fresh_ramp=True`` models a GridFTP client that opens *new* data
        channels onto the circuit instead of rebinding the established
        ones: the migrated flow re-enters TCP slow start on the circuit
        path and moves no fluid until the startup penalty elapses.  The
        default keeps the warmed windows (channel reuse), migrating at
        full rate immediately.
        """
        if at_time < self._loop.now:
            raise ValueError("cannot schedule a migration in the past")

        def _do_migrate() -> None:
            flow = self._flows.get(flow_id)
            if flow is None or flow.done:
                return
            self._recompute()
            self._evict(flow)
            path = list(vc.path)
            tcp = self._tcp_model(path)
            job = flow.job
            n_conn = job.streams * job.stripes
            dtn_cap = self.dtns.transfer_demand_cap_bps(
                job.src, job.dst, job.src_endpoint, job.dst_endpoint, job.stripes
            )
            flow.vc = vc
            flow.path = path
            flow.net_links = self.topology.path_links(path)
            flow.demand_cap_bps = min(
                tcp.steady_rate_bps(n_conn), dtn_cap, vc.rate_bps
            )
            if fresh_ramp:
                # new data channels: slow start all over again on the
                # circuit path, held in the pending pool meanwhile
                penalty = tcp.startup_penalty_s(flow.demand_cap_bps, n_conn)
                if penalty > 0:
                    flow.active_time = max(
                        flow.active_time, self._loop.now + penalty
                    )
                    self._loop.schedule(flow.active_time, self._recompute)
            self._watch_circuit(vc)
            # re-enter through the pending pool; the flush re-admits it
            # on the circuit side this same instant if it is active
            heapq.heappush(self._pending, (flow.active_time, flow_id))

        self._loop.schedule(at_time, _do_migrate)

    def _watch_circuit(self, vc: VirtualCircuit) -> None:
        if vc.circuit_id in self._watched_circuits:
            return
        self._watched_circuits.add(vc.circuit_id)
        vc.subscribe(self._on_circuit_event)

    def _flows_on(self, vc: VirtualCircuit) -> list[_Flow]:
        return [
            f
            for f in self._flows.values()
            if not f.done and f.vc is not None and f.vc.circuit_id == vc.circuit_id
        ]

    def _on_circuit_event(self, vc: VirtualCircuit, old, new) -> None:
        now = self._loop.now
        if new is CircuitState.FAILED:
            self.n_circuit_flaps += 1
            # settle fluid at pre-fault rates, then lose unmarked bytes
            self._recompute()
            if self.restart_policy is not None:
                for f in self._flows_on(vc):
                    done = f.job.size_bytes - f.remaining_bytes
                    resume = self.restart_policy.resume_point(done)
                    self.marker_rollback_bytes += done - resume
                    f.remaining_bytes = f.job.size_bytes - resume
                    self._needs_projection.add(f.flow_id)
        elif old is CircuitState.FAILED and new is CircuitState.ACTIVE:
            reconnect = (
                self.restart_policy.reconnect_s
                if self.restart_policy is not None
                else 0.0
            )
            for f in self._flows_on(vc):
                if reconnect > 0:
                    f.active_time = max(f.active_time, now + reconnect)
                    # back into the pending pool until the reconnect ends
                    self._evict(f)
                    heapq.heappush(self._pending, (f.active_time, f.flow_id))
                    self._loop.schedule(f.active_time, self._recompute)
            self._recompute()
        else:
            # activation / release mid-run still changes allocations
            self._recompute()
        self._refresh_circuit_guards(vc)

    # -- job intake --------------------------------------------------------

    def submit(
        self,
        job: TransferJob,
        vc: VirtualCircuit | None = None,
        explicit_path: list[str] | None = None,
    ) -> int:
        """Queue one job; returns its flow id.

        ``vc`` pins the transfer to a provisioned circuit (rate guarantee
        along ``vc.path``); ``explicit_path`` routes a best-effort flow off
        the IP default (used by the α-redirection experiments); it must
        run from ``job.src`` to ``job.dst`` over existing links.
        """
        if job.submit_time < self._loop.now:
            raise ValueError("job submitted in the simulator's past")
        if vc is not None and explicit_path is not None:
            raise ValueError("give either a circuit or an explicit path, not both")
        if explicit_path is not None:
            explicit_path = list(explicit_path)
            ends = (explicit_path[0], explicit_path[-1]) if explicit_path else None
            if ends != (job.src, job.dst):
                raise ValueError(
                    f"explicit path {explicit_path} does not run from "
                    f"{job.src} to {job.dst}"
                )
            for u, v in zip(explicit_path, explicit_path[1:]):
                if not self.topology.has_link(u, v):
                    raise ValueError(f"explicit path hop {u}-{v} is not a link")
        if vc is not None:
            self._watch_circuit(vc)
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        self._loop.schedule(
            job.submit_time, lambda: self._on_arrival(flow_id, job, vc, explicit_path)
        )
        return flow_id

    # -- event handlers -------------------------------------------------------

    def _tcp_model(self, path: list[str]) -> TcpPathModel:
        route = tuple(path)
        tcp = self._tcp_models.get(route)
        if tcp is None:
            tcp = self._tcp_models[route] = TcpPathModel(
                rtt_s=self.topology.path_rtt_s(path),
                bottleneck_bps=self.topology.path_bottleneck_bps(path),
                loss_rate=self.loss_rate,
                max_window_bytes=self.max_window_bytes,
                ssthresh_bytes=self.ssthresh_bytes,
            )
        return tcp

    def _on_arrival(
        self,
        flow_id: int,
        job: TransferJob,
        vc: VirtualCircuit | None,
        explicit_path: list[str] | None,
    ) -> None:
        now = self._loop.now
        self._advance(now)
        if vc is not None:
            path = list(vc.path)
        elif explicit_path is not None:
            path = explicit_path
        else:
            path = self.topology.path(job.src, job.dst)
        tcp = self._tcp_model(path)
        dtn_cap = self.dtns.transfer_demand_cap_bps(
            job.src, job.dst, job.src_endpoint, job.dst_endpoint, job.stripes
        )
        # total parallel connections: streams per stripe
        n_conn = job.streams * job.stripes
        demand = min(tcp.steady_rate_bps(n_conn), dtn_cap)
        if vc is not None:
            demand = min(demand, vc.rate_bps)
        penalty = tcp.startup_penalty_s(demand, n_conn)
        flow = _Flow(
            flow_id=flow_id,
            job=job,
            path=path,
            net_links=self.topology.path_links(path),
            pseudo_links=self.dtns.transfer_pseudo_links(
                job.src, job.dst, job.src_endpoint, job.dst_endpoint
            ),
            demand_cap_bps=demand,
            submit_time=now,
            active_time=now + penalty,
            remaining_bytes=job.size_bytes,
            vc=vc,
        )
        self._flows[flow_id] = flow
        heapq.heappush(self._pending, (flow.active_time, flow_id))
        if penalty > 0:
            # held in slow start, the flow moves no fluid and changes no
            # rate: its activation, not its arrival, is the settle point
            self._loop.schedule(flow.active_time, self._recompute)
        if penalty <= 0 or self.allocator == "oracle":
            # the oracle re-projects every completion from the bytes left
            # at each settle point, so one fewer would move its completion
            # instants by rounding: it keeps settling at every arrival
            self._needs_realloc = True

    def _active_flows(self) -> list[_Flow]:
        now = self._loop.now
        return [
            f
            for f in self._flows.values()
            if not f.done and f.active_time <= now and f.remaining_bytes > 0
        ]

    def _advance(self, to_time: float) -> None:
        """Move fluid at current rates from the last advance point to ``to_time``.

        One pass deposits every moving flow's bytes and collects the
        flows that drained; those then complete in ``_flows`` order.
        """
        t_from = self._last_advance
        dt = to_time - t_from
        if dt < 0:
            raise RuntimeError("advance moved backwards")
        drained = []
        if dt > 0:
            add_bytes = self.snmp.add_bytes
            for f in self._flows.values():
                rate = f.rate_bps
                if rate > 0:
                    moved = min(rate * dt / 8.0, f.remaining_bytes)
                    if moved > 0:
                        add_bytes(f.net_links, t_from, to_time, moved)
                        f.remaining_bytes -= moved
                if f.remaining_bytes <= _EPS_BYTES:
                    drained.append(f)
        else:
            drained = [
                f for f in self._flows.values() if f.remaining_bytes <= _EPS_BYTES
            ]
        self._last_advance = to_time
        for f in drained:
            self._complete(f, to_time)

    def _complete(self, flow: _Flow, now: float) -> None:
        self._evict(flow)
        flow.done = True
        flow.remaining_bytes = 0.0
        flow.rate_bps = 0.0
        job = flow.job
        self._records.append(
            TransferRecord(
                start=flow.submit_time,
                duration=max(now - flow.submit_time, 1e-9),
                size=job.size_bytes,
                transfer_type=TransferType.RETR,
                streams=job.streams,
                stripes=job.stripes,
                local_host=self.topology.host_id(job.src),
                remote_host=self.topology.host_id(job.dst),
            )
        )
        self._record_fids.append(flow.flow_id)
        self.flow_completions[flow.flow_id] = (flow.submit_time, now)
        del self._flows[flow.flow_id]
        self._needs_realloc = True

    def _recompute(self) -> None:
        """Settle fluid to now and request a reallocation at the next flush."""
        now = self._loop.now
        if self._last_advance < now:
            with self.probe.phase("advance"):
                self._advance(now)
        self._needs_realloc = True

    # -- incremental allocation path ----------------------------------------

    def _link_id(self, key: tuple[str, str]) -> int:
        """The allocator id of link ``key``, interned on first use."""
        lid = self._link_ids.get(key)
        if lid is None:
            lid = self._link_ids[key] = len(self._link_keys)
            self._link_keys.append(key)
        return lid

    def _guard_id(self, vc: VirtualCircuit) -> int:
        return self._link_id((f"vc:{vc.circuit_id}", f"vc:{vc.circuit_id}"))

    def _guard_cap(self, flow: _Flow) -> float:
        """A circuit carries traffic only while it and its path are up."""
        vc = flow.vc
        path_up = all(
            self._link_capacity_now(key, self._raw_caps[key]) > 0.0
            for key in flow.net_links
        )
        circuit_up = vc.state not in (CircuitState.FAILED, CircuitState.RELEASED)
        return vc.rate_bps if (path_up and circuit_up) else 0.0

    def _refresh_guard(self, flow: _Flow) -> None:
        self._vc_alloc.update_capacity(self._guard_id(flow.vc), self._guard_cap(flow))

    def _refresh_circuit_guards(self, vc: VirtualCircuit) -> None:
        if self._vc_alloc is None:
            return
        for fid in self._circuit_flows.get(vc.circuit_id, set()):
            flow = self._flows.get(fid)
            if flow is not None and flow.vc is not None:
                self._refresh_guard(flow)

    def _ensure_allocators(self) -> None:
        if self._vc_alloc is not None:
            return
        self._raw_caps = {
            link.key: link.capacity_bps for link in self.topology.links()
        }
        pseudo = self.dtns.pseudo_capacities()
        self._raw_caps.update(pseudo)
        now_caps = {
            self._link_id(key): self._link_capacity_now(key, raw)
            for key, raw in self._raw_caps.items()
        }
        self._be_alloc = MaxMinAllocator(now_caps, probe=self.probe)
        self._vc_alloc = MaxMinAllocator(
            {self._link_id(key): cap for key, cap in pseudo.items()},
            probe=self.probe,
        )

    def _admit(self, flow: _Flow) -> None:
        """Enter an activated flow into its allocator pass."""
        fid = flow.flow_id
        if fid in self._members:
            return
        weight = float(flow.job.streams * flow.job.stripes)
        ids = self._link_ids
        net_ids = tuple([ids[key] for key in flow.net_links])
        pseudo_ids = tuple([ids[key] for key in flow.pseudo_links])
        flow.link_ids = net_ids + pseudo_ids
        if flow.vc is not None:
            guard = self._guard_id(flow.vc)
            self._vc_alloc.update_capacity(guard, self._guard_cap(flow))
            self._vc_alloc.add_flow(
                fid,
                pseudo_ids + (guard,),
                demand_bps=flow.demand_cap_bps,
                weight=weight,
            )
            for lid in flow.link_ids:
                self._vc_link_flows.setdefault(lid, set()).add(fid)
            self._circuit_flows.setdefault(flow.vc.circuit_id, set()).add(fid)
            self._member_side[fid] = "vc"
        else:
            self._be_alloc.add_flow(
                fid, flow.link_ids, demand_bps=flow.demand_cap_bps, weight=weight
            )
            self._member_side[fid] = "be"
        self._members.add(fid)
        self._needs_realloc = True

    def _evict(self, flow: _Flow) -> None:
        """Drop a flow from its allocator (completion, hold, migration)."""
        fid = flow.flow_id
        side = self._member_side.pop(fid, None)
        if side is None:
            return
        self._members.discard(fid)
        if side == "vc":
            self._vc_alloc.remove_flow(fid)
            for lid in flow.link_ids:
                peers = self._vc_link_flows.get(lid)
                if peers is not None:
                    peers.discard(fid)
                    if not peers:
                        del self._vc_link_flows[lid]
                self._stale_res_links.add(lid)
            for fids in self._circuit_flows.values():
                fids.discard(fid)
        else:
            self._be_alloc.remove_flow(fid)
        flow.rate_bps = 0.0
        self._proj_token.pop(fid, None)
        self._needs_realloc = True

    def _residual_cap(self, lid: int) -> float:
        """Best-effort capacity left on link ``lid`` after the VC pass.

        Mirrors the oracle's sequential clamped subtraction over circuit
        flows in flow-id order, so the arithmetic is identical.
        """
        key = self._link_keys[lid]
        cap = self._link_capacity_now(key, self._raw_caps[key])
        for fid in sorted(self._vc_link_flows.get(lid, ())):
            flow = self._flows.get(fid)
            if flow is not None:
                cap = max(cap - flow.rate_bps, 0.0)
        return cap

    def _project(self, flow: _Flow) -> None:
        """Push a fresh completion projection for ``flow`` (lazy heap)."""
        self._token_seq += 1
        self._proj_token[flow.flow_id] = self._token_seq
        if flow.rate_bps > 0:
            finish = self._loop.now + flow.remaining_bytes * 8.0 / flow.rate_bps
            heapq.heappush(
                self._completion_heap, (finish, self._token_seq, flow.flow_id)
            )

    def _flush(self) -> None:
        """Settle point: one reallocation per drained timestamp batch."""
        now = self._loop.now
        due = (
            self.allocator == "incremental"
            and bool(self._pending)
            and self._pending[0][0] <= now
        )
        if not self._needs_realloc and not due:
            return
        self.probe.on_flush()
        if self._last_advance < now:
            with self.probe.phase("advance"):
                self._advance(now)
        if self.allocator == "oracle":
            self._flush_oracle()
        else:
            self._flush_incremental()
        self._needs_realloc = False

    def _flush_incremental(self) -> None:
        now = self._loop.now
        self._ensure_allocators()
        # 1. admit flows whose slow-start (or reconnect) hold has ended
        while self._pending and self._pending[0][0] <= now:
            _t, fid = heapq.heappop(self._pending)
            flow = self._flows.get(fid)
            if flow is None or flow.done:
                continue
            if flow.active_time > now:  # hold was extended; come back later
                heapq.heappush(self._pending, (flow.active_time, fid))
                continue
            self._admit(flow)
        # 2. VC pass: re-solve the dirty component of circuit flows
        with self.probe.phase("allocate"):
            vc_changed = self._vc_alloc.recompute()
            reproject = set(self._needs_projection)
            self._needs_projection.clear()
            stale = self._stale_res_links
            self._stale_res_links = set()
            for fid, rate in vc_changed.items():
                flow = self._flows.get(fid)
                if flow is None:
                    continue
                flow.rate_bps = rate
                reproject.add(fid)
                stale.update(flow.link_ids)
            # circuits consume their guarantee on the physical links
            for lid in stale:
                self._be_alloc.update_capacity(lid, self._residual_cap(lid))
            # 3. best-effort pass over the residual capacities
            be_changed = self._be_alloc.recompute()
            for fid, rate in be_changed.items():
                flow = self._flows.get(fid)
                if flow is None:
                    continue
                flow.rate_bps = rate
                reproject.add(fid)
        # 4. reschedule the next completion from the lazy projection heap
        for fid in reproject:
            flow = self._flows.get(fid)
            if flow is not None and not flow.done:
                self._project(flow)
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        heap = self._completion_heap
        while heap:
            finish, token, fid = heap[0]
            flow = self._flows.get(fid)
            if (
                flow is None
                or flow.done
                or token != self._proj_token.get(fid)
                or flow.rate_bps <= 0
            ):
                heapq.heappop(heap)
                continue
            self._completion_event = self._loop.schedule(
                max(finish, now), self._recompute
            )
            break

    # -- oracle (full-recompute) allocation path ------------------------------

    def _flush_oracle(self) -> None:
        now = self._loop.now
        active = self._active_flows()
        active_ids = {f.flow_id for f in active}
        # zero rates for flows still in slow-start hold
        for f in self._flows.values():
            if not f.done and f.flow_id not in active_ids:
                f.rate_bps = 0.0
        if active:
            with self.probe.phase("allocate"):
                self._allocate(active)
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        next_t = math.inf
        for f in active:
            if f.rate_bps > 0:
                t = now + f.remaining_bytes * 8.0 / f.rate_bps
                next_t = min(next_t, t)
        if math.isfinite(next_t):
            self._completion_event = self._loop.schedule(
                max(next_t, now), self._recompute
            )

    def _allocate(self, active: list[_Flow]) -> None:
        caps: dict[tuple[str, str], float] = {}
        for link in self.topology.links():
            caps[link.key] = self._link_capacity_now(link.key, link.capacity_bps)
        caps.update(self.dtns.pseudo_capacities())

        vc_flows = [f for f in active if f.vc is not None]
        be_flows = [f for f in active if f.vc is None]

        # Pass 1: circuit flows — guaranteed network rate, shared servers.
        if vc_flows:
            specs = []
            for f in vc_flows:
                guard = (f"vc:{f.vc.circuit_id}", f"vc:{f.vc.circuit_id}")
                # a circuit is only as alive as its physical path: an
                # outage on any traversed link stalls the flow too, and a
                # FAILED/RELEASED circuit carries nothing until restored
                path_up = all(caps.get(key, 0.0) > 0.0 for key in f.net_links)
                circuit_up = f.vc.state not in (
                    CircuitState.FAILED,
                    CircuitState.RELEASED,
                )
                caps[guard] = f.vc.rate_bps if (path_up and circuit_up) else 0.0
                specs.append(
                    FlowSpec(
                        flow_id=f.flow_id,
                        links=tuple(f.pseudo_links) + (guard,),
                        demand_bps=f.demand_cap_bps,
                        weight=float(f.job.streams * f.job.stripes),
                    )
                )
            rates = max_min_fair(specs, caps)
            self.probe.on_alloc_pass(len(vc_flows))
            for f in vc_flows:
                f.rate_bps = rates[f.flow_id]
                # circuits consume their guarantee on the physical links
                for key in f.net_links:
                    caps[key] = max(caps[key] - f.rate_bps, 0.0)
                for key in f.pseudo_links:
                    caps[key] = max(caps[key] - f.rate_bps, 0.0)

        # Pass 2: best-effort flows over the residual capacities.
        if be_flows:
            specs = [
                FlowSpec(
                    flow_id=f.flow_id,
                    links=tuple(f.net_links) + tuple(f.pseudo_links),
                    demand_bps=f.demand_cap_bps,
                    weight=float(f.job.streams * f.job.stripes),
                )
                for f in be_flows
            ]
            rates = max_min_fair(specs, caps)
            self.probe.on_alloc_pass(len(be_flows))
            for f in be_flows:
                f.rate_bps = rates[f.flow_id]

    # -- run -----------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> SimResult:
        """Drain all events (or stop at ``until``) and return logs + counters."""
        with self.probe.phase("run"):
            self._loop.run(until=until, max_events=max_events)
            self._advance(self._loop.now)
        order = sorted(
            range(len(self._records)), key=lambda i: self._records[i].start
        )
        log = TransferLog.from_records([self._records[i] for i in order])
        flow_ids = np.array([self._record_fids[i] for i in order], dtype=np.int64)
        return SimResult(
            log=log,
            snmp=self.snmp,
            n_events=self._loop.n_processed,
            flow_ids=flow_ids,
            probe=self.probe,
        )

    @property
    def now(self) -> float:
        return self._loop.now
