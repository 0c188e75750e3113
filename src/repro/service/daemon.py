"""The long-lived transfer daemon: the managed layer as a service.

This is the service-ification of
:class:`~repro.gridftp.transfer_service.ManagedTransferService`: instead
of a batch object drained by :meth:`run`, a long-lived asyncio process
accepts a continuous stream of transfer requests over a local JSON-lines
control socket and keeps its promises while the VC stack misbehaves.
The request lifecycle itself — submit, start, plan, requeue, settle —
is the sans-I/O :class:`~repro.service.core.ServiceCore`; this module is
its asyncio driver, in the component/work-loop/status-loop shape of
LTA-style replicators:

* **admission** (:mod:`repro.service.admission`) — bounded queue,
  per-tenant quotas, explicit 429-style rejection with retry-after;
* **deadline budgets** (:mod:`repro.service.budget`) — every request's
  runway is threaded through VC reservation, signalling waits, and the
  transfer; a budget that can no longer fit a VC setup degrades the
  request to the routed-IP path instead of failing it;
* **supervision** (:mod:`repro.service.supervisor`) — work and status
  loops panic-restart under exponential backoff; a crashing loop
  re-enqueues the request it held (bounded) and never takes the daemon
  down;
* **graceful drain** — SIGTERM stops admission, lets in-flight work
  finish within a grace window, checkpoints the remainder to a JSONL
  journal, and exits 75 (EX_TEMPFAIL) — the same contract as the
  campaign runner, so ``accepted == settled`` always holds.

Time is *virtual*: ``time_scale`` virtual seconds pass per real second,
so the paper's minute-scale VC setup delays and multi-minute transfers
exercise in milliseconds while the daemon itself stays a real concurrent
asyncio process.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging
import math
import os
import signal
import sys
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

import numpy as np

from ..faults.injector import storm_injector
from ..faults.recovery import BackoffPolicy, RecoveryStats
from ..gridftp.reliability import (
    FaultModel,
    ReliableTransferService,
    RestartPolicy,
    ScheduledOutages,
)
from ..net.topology import SITES, esnet_like
from ..vc.circuits import BatchSignalling
from ..vc.oscars import OscarsIDC, ReservationRejected, ReservationRequest
from .admission import AdmissionDecision
from .api import MAX_LINE_BYTES, decode_line, encode_line, error_response
from .budget import PathChoice
from .core import InvalidSubmission, ServiceCore, ServiceRequest
from .health import HealthMonitor
from .supervisor import Supervisor

if TYPE_CHECKING:  # the sched package imports this package; stay lazy
    from ..sched.base import SchedulerConfig

__all__ = [
    "DaemonConfig",
    "config_from_params",
    "InjectedCrash",
    "TransferDaemon",
    "run_daemon",
    "EXIT_DRAINED",
]

logger = logging.getLogger("repro.service")

#: exit code after a graceful drain (EX_TEMPFAIL, the campaign contract)
EXIT_DRAINED = 75


class InjectedCrash(RuntimeError):
    """The chaos op's panic: deliberately escapes the work loop."""


#: queue sentinel carried by the ``crash`` chaos op
_CRASH = object()

#: work-queue token: "the scheduler holds a request for you" — workers
#: block on the asyncio queue for wakeups, but the *order* requests are
#: served in is the scheduler's decision, not the queue's
_WAKE = object()


@dataclasses.dataclass(frozen=True)
class DaemonConfig:
    """Everything the daemon needs, JSON-round-trippable for the CLI."""

    socket_path: str
    workers: int = 4
    #: virtual seconds per real second (sim time compression)
    time_scale: float = 60.0
    queue_limit: int = 64
    tenant_quota: int = 8
    #: endpoint pair every request moves between (the paper's DTN sites)
    src: str = "ANL"
    dst: str = "NERSC"
    #: circuit bandwidth requested per VC ride
    vc_rate_bps: float = 1.6e9
    #: routed-IP fallback rate (the degraded path)
    ip_rate_bps: float = 4e8
    #: budget applied when a submission names none (None = unbounded)
    default_deadline_s: float | None = None
    #: VC chosen only when budget >= setup + transfer * safety
    vc_safety_factor: float = 1.25
    #: scheduling policy: "fcfs" | "predictive" | "global" (DESIGN.md §16)
    scheduler: str = "fcfs"
    # -- fault storm knobs (virtual time) ---------------------------------
    reject_prob: float = 0.0
    setup_timeout_prob: float = 0.0
    setup_extra_delay_s: float = 120.0
    flaps_per_hour: float = 0.0
    flap_duration_s: float = 25.0
    # -- transfer reliability ---------------------------------------------
    marker_interval_bytes: float = 64e6
    reconnect_s: float = 4.0
    max_attempts_per_file: int = 50
    # -- control-plane retry pacing (virtual seconds) ---------------------
    backoff_base_s: float = 2.0
    backoff_max_retries: int = 4
    #: OSCARS batch-signalling cadence
    batch_window_s: float = 60.0
    # -- daemon operation (real seconds) ----------------------------------
    drain_grace_s: float = 5.0
    status_interval_s: float = 0.2
    heartbeat_timeout_s: float = 10.0
    checkpoint_path: str | None = None
    #: honour the ``crash`` chaos op (tests and fault-storm load tests)
    chaos_ops: bool = False
    #: times a request survives its work loop crashing before it fails
    max_crash_requeues: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.socket_path:
            raise ValueError("socket_path is required")
        # the live daemon and the twin read one config: a NaN would pass
        # every rule below, and a fault knob out of range was refused by
        # the daemon's FaultSpec (or read as "off") but ridden by the twin
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        rules = (
            ("positive", lambda v: v > 0, (
                "time_scale", "vc_rate_bps", "ip_rate_bps", "batch_window_s",
                "flap_duration_s", "status_interval_s")),
            ("non-negative", lambda v: v >= 0, (
                "flaps_per_hour", "setup_extra_delay_s", "drain_grace_s",
                "max_crash_requeues")),
            ("in [0, 1]", lambda v: 0 <= v <= 1, ("reject_prob", "setup_timeout_prob")),
            (">= 1", lambda v: v >= 1, ("workers", "vc_safety_factor")),
        )
        for rule, holds, names in rules:
            for name in names:
                if not holds(getattr(self, name)):
                    raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be positive")
        # requests ride esnet_like(), whose transfer endpoints are SITES
        if self.src not in SITES or self.dst not in SITES or self.src == self.dst:
            raise ValueError(
                f"src and dst must be two distinct sites of {', '.join(SITES)}; "
                f"got {self.src!r} -> {self.dst!r}"
            )
        from ..sched.base import SCHEDULER_NAMES

        if self.scheduler not in SCHEDULER_NAMES():
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}: choose one of "
                f"{', '.join(SCHEDULER_NAMES())}"
            )

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @property
    def effective_checkpoint_path(self) -> str:
        return self.checkpoint_path or self.socket_path + ".ckpt.jsonl"

    def scheduler_config(self) -> "SchedulerConfig":
        """The service parameters the scheduling policy decides against."""
        from ..sched.base import SchedulerConfig

        return SchedulerConfig(
            workers=self.workers,
            queue_limit=self.queue_limit,
            tenant_quota=self.tenant_quota,
            vc_rate_bps=self.vc_rate_bps,
            ip_rate_bps=self.ip_rate_bps,
            vc_safety_factor=self.vc_safety_factor,
        )


#: the params keys a spec cell's service drivers read, with the default
#: each takes when the cell names none
_PARAM_DEFAULTS: dict[str, Any] = {
    "workers": 4,
    "time_scale": 3000.0,
    "queue_limit": 16,
    "tenant_quota": 8,
    "vc_rate_bps": 1.6e9,
    "ip_rate_bps": 4e8,
    "vc_safety_factor": 1.25,
    "batch_window_s": 60.0,
    "reject_prob": 0.0,
    "setup_timeout_prob": 0.0,
    "flaps_per_hour": 0.0,
    "flap_duration_s": 25.0,
    "drain_grace_s": 15.0,
    "scheduler": "fcfs",
}


def config_from_params(
    params: Mapping[str, Any],
    seed: int,
    socket_path: str = "(no socket)",
    **fixed: Any,
) -> DaemonConfig:
    """The one params-to-config parser of every service driver.

    The live load test and the twin both read a cell's params here, so
    a key one driver honours the other honours.  Drivers that open no
    socket (the twin) leave ``socket_path`` unset; ``fixed`` sets config
    fields that are not params.
    """
    return DaemonConfig(
        socket_path=socket_path,
        seed=seed,
        **{"status_interval_s": 0.05, **fixed},
        **{k: type(v)(params.get(k, v)) for k, v in _PARAM_DEFAULTS.items()},
    )


def _settle_response(req: ServiceRequest) -> dict[str, Any]:
    """The settle/status body returned to clients."""
    return {
        "ok": True,
        "request_id": req.request_id,
        "tenant": req.tenant,
        "state": req.state,
        "path": req.path,
        "files_done": req.files_done,
        "n_files": len(req.file_sizes),
        "error": req.error,
        "budget": req.budget.snapshot(),
    }


class TransferDaemon:
    """The long-lived managed-transfer service (see module docstring)."""

    def __init__(self, config: DaemonConfig) -> None:
        self.config = config
        self.injector = storm_injector(
            config.seed,
            rejection_prob=config.reject_prob,
            setup_timeout_prob=config.setup_timeout_prob,
            setup_extra_delay_s=config.setup_extra_delay_s,
            flaps_per_hour=config.flaps_per_hour,
            flap_duration_s=config.flap_duration_s,
        )
        self.idc = OscarsIDC(
            esnet_like(),
            setup_delay=BatchSignalling(batch_window_s=config.batch_window_s),
            fault_injector=self.injector,
        )
        self.reliable = ReliableTransferService(
            FaultModel(0.0),
            RestartPolicy(
                marker_interval_bytes=config.marker_interval_bytes,
                reconnect_s=config.reconnect_s,
            ),
            max_attempts=config.max_attempts_per_file,
        )
        self.rng = np.random.default_rng(config.seed)
        self.backoff = BackoffPolicy(
            base_s=config.backoff_base_s,
            max_retries=config.backoff_max_retries,
        )
        self.stats = RecoveryStats()
        # every scheduling decision — admit/shed, dispatch order, the
        # degradation ladder, circuit rate, reservation windows — is the
        # policy object's (DESIGN.md §16); the daemon just asks it.
        # Imported lazily: repro.sched imports this package's modules.
        from ..sched.base import make_scheduler

        self.sched = make_scheduler(config.scheduler, config.scheduler_config())
        #: the policy's admission controller (status/health/drain views)
        self.admission = self.sched.admission
        #: the request lifecycle; this class drives it from asyncio
        self.core = ServiceCore(
            self.sched,
            self.vnow,
            config.time_scale,
            self.idc.setup_delay,
            max_crash_requeues=config.max_crash_requeues,
        )
        self.metrics = self.core.metrics
        self.supervisor = Supervisor()
        self.supervisor.on_crash = self._on_loop_crash
        self.monitor = HealthMonitor(
            self.admission,
            self.supervisor,
            self.metrics,
            self.stats,
            heartbeat_timeout_s=config.heartbeat_timeout_s,
        )
        #: the request each work loop currently holds (crash re-enqueue)
        self._current: dict[str, ServiceRequest | None] = {}
        self._queue: asyncio.Queue[Any] | None = None
        self._stop: asyncio.Event | None = None
        self._server: asyncio.AbstractServer | None = None
        self._t0: float | None = None
        self._emit_report = False
        self.drain_report: dict[str, Any] | None = None

    # -- virtual time ------------------------------------------------------

    def vnow(self) -> float:
        """The service clock, virtual seconds since startup."""
        if self._t0 is None:
            return 0.0
        return (
            asyncio.get_running_loop().time() - self._t0
        ) * self.config.time_scale

    async def vsleep(self, virtual_s: float) -> None:
        """Let ``virtual_s`` service seconds pass."""
        if virtual_s > 0:
            await asyncio.sleep(virtual_s / self.config.time_scale)

    # -- lifecycle ---------------------------------------------------------

    async def serve(
        self,
        ready: asyncio.Event | None = None,
        install_signals: bool = True,
    ) -> int:
        """Run until drained; returns the process exit code (75).

        ``install_signals`` also decides whether the drain report is
        printed to stdout: a real daemon process emits it for its
        caller, an embedded daemon (the live load test, tests) only
        records it on :attr:`drain_report`.
        """
        self._emit_report = install_signals
        loop = asyncio.get_running_loop()
        self._t0 = loop.time()
        self._queue = asyncio.Queue()
        self._stop = asyncio.Event()
        if os.path.exists(self.config.socket_path):
            os.unlink(self.config.socket_path)
        self._server = await asyncio.start_unix_server(
            self._handle_conn, path=self.config.socket_path,
            limit=MAX_LINE_BYTES,
        )
        for i in range(self.config.workers):
            name = f"worker-{i}"
            self._current[name] = None
            self.supervisor.supervise(name, self._work_loop_factory(name))
        self.supervisor.supervise("status", self._status_loop)
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self.request_drain)
        logger.info("serving on %s", self.config.socket_path)
        if ready is not None:
            ready.set()
        try:
            await self._stop.wait()
            await self._drain()
        finally:
            if install_signals:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    loop.remove_signal_handler(signum)
            self._server.close()
            await self._server.wait_closed()
            if os.path.exists(self.config.socket_path):
                os.unlink(self.config.socket_path)
        return EXIT_DRAINED

    def request_drain(self) -> None:
        """Begin the graceful shutdown (signal handler / embedder hook)."""
        if self._stop is not None and not self._stop.is_set():
            logger.info("drain requested: admission closes now")
            self.admission.draining = True
            self._stop.set()

    async def _drain(self) -> None:
        """Stop admitting, finish or checkpoint in-flight, account for all."""
        self.admission.draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_grace_s
        while self.admission.outstanding > 0 and loop.time() < deadline:
            await asyncio.sleep(0.02)
        # freeze the workers before checkpointing what they still hold
        await self.supervisor.stop()
        checkpointed = [
            r for r in self.core.requests.values()
            if r.state in ("queued", "active")
        ]
        if checkpointed:
            self._write_checkpoint(checkpointed)
        for req in checkpointed:
            self.core.settle(req, "checkpointed")
        # let waiters on just-settled requests receive their responses
        await asyncio.sleep(0.05)
        self.drain_report = {
            "event": "drain-report",
            "metrics": self.metrics.as_dict(),
            "shed": dict(self.admission.shed),
            "recovery": self.stats.as_dict(),
            "loops": self.supervisor.status(),
            "n_checkpointed": len(checkpointed),
            "checkpoint_path": (
                self.config.effective_checkpoint_path if checkpointed else None
            ),
            "exit_code": EXIT_DRAINED,
        }
        if self._emit_report:
            print(json.dumps(self.drain_report, sort_keys=True), flush=True)

    def _write_checkpoint(self, requests: list[ServiceRequest]) -> None:
        """Persist unfinished requests so a restart can resubmit them."""
        path = self.config.effective_checkpoint_path
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "v": 1,
                "kind": "service-checkpoint",
                "drained_at_virtual_s": self.vnow(),
            }, sort_keys=True) + "\n")
            for req in sorted(requests, key=lambda r: r.request_id):
                fh.write(json.dumps({
                    "request_id": req.request_id,
                    "tenant": req.tenant,
                    "file_sizes": list(req.file_sizes),
                    "files_done": req.files_done,
                    "deadline_s": req.budget.deadline_s,
                    "remaining_s": (
                        None if req.budget.deadline_s is None
                        else req.budget.remaining()
                    ),
                    "path": req.path,
                    "state": req.state,
                }, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        logger.info("checkpointed %d request(s) to %s", len(requests), path)

    # -- the control socket ------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode_line(error_response("line too long")))
                    await writer.drain()
                    break
                if not raw:
                    break
                try:
                    msg = decode_line(raw.rstrip(b"\n"))
                except ValueError as exc:
                    writer.write(encode_line(error_response(str(exc))))
                    await writer.drain()
                    continue
                try:
                    resp = await self._dispatch(msg)
                except Exception as exc:  # never let a request kill the conn
                    logger.exception("dispatch failed")
                    resp = error_response(f"internal error: {exc!r}")
                writer.write(encode_line(resp))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, msg: dict[str, Any]) -> dict[str, Any]:
        op = msg.get("op")
        if op == "submit":
            return await self._op_submit(msg)
        if op == "wait":
            return await self._op_wait(msg)
        if op == "status":
            return {"ok": True, "status": self.monitor.status()}
        if op == "health":
            return {"ok": True, "health": self.monitor.health()}
        if op == "crash":
            return self._op_crash(msg)
        return error_response(f"unknown op {op!r}")

    async def _op_submit(self, msg: dict[str, Any]) -> dict[str, Any]:
        try:
            req = self.core.submit(
                msg.get("tenant", "default"),
                msg.get("file_sizes"),
                msg.get("deadline_s", self.config.default_deadline_s),
            )
        except InvalidSubmission as exc:
            return error_response(f"invalid submission: {exc}")
        if isinstance(req, AdmissionDecision):
            # shed: the core hands back the scheduler's own decision
            return error_response(
                "rejected",
                status="rejected",
                reason=req.reason,
                retry_after_s=req.retry_after_s,
            )
        req.settled = asyncio.Event()
        assert self._queue is not None
        self._queue.put_nowait(_WAKE)
        if msg.get("wait"):
            await req.settled.wait()
            return _settle_response(req)
        return {
            "ok": True,
            "status": "accepted",
            "request_id": req.request_id,
            "tenant": req.tenant,
        }

    async def _op_wait(self, msg: dict[str, Any]) -> dict[str, Any]:
        rid = msg.get("request_id")
        # ``type`` check, not isinstance: JSON ``true`` is no request id
        req = self.core.requests.get(rid) if type(rid) is int else None
        if req is None:
            return error_response(f"unknown request_id {rid!r}")
        await req.settled.wait()
        return _settle_response(req)

    def _op_crash(self, msg: dict[str, Any]) -> dict[str, Any]:
        if not self.config.chaos_ops:
            return error_response("crash op disabled (start with chaos_ops)")
        assert self._queue is not None
        self._queue.put_nowait(_CRASH)
        return {"ok": True, "status": "crash-queued"}

    # -- the work loops ----------------------------------------------------

    def _work_loop_factory(self, name: str):
        async def loop() -> None:
            await self._work_loop(name)

        return loop

    async def _work_loop(self, name: str) -> None:
        assert self._queue is not None
        while True:
            item = await self._queue.get()
            if item is _CRASH:
                raise InjectedCrash(f"chaos crash op consumed by {name}")
            # the token says work exists; *which* request runs next is
            # the scheduler's global choice over everything pending
            req = self.core.start()
            if req is None:
                continue
            self._current[name] = req
            try:
                await self._execute(req)
            except asyncio.CancelledError:
                raise
            except InjectedCrash:
                raise
            except Exception as exc:
                # a request-level bug fails the request, not the loop
                logger.exception("request %d failed", req.request_id)
                self.core.settle(req, "failed", error=repr(exc))
            finally:
                self._current[name] = None

    def _on_loop_crash(self, name: str, exc: BaseException) -> None:
        """Supervisor hook: never lose the request a crashed loop held."""
        req = self._current.get(name)
        self._current[name] = None
        if req is not None and self.core.requeue(req):
            assert self._queue is not None
            self._queue.put_nowait(_WAKE)
            logger.warning(
                "request %d re-enqueued after %r crash", req.request_id, name
            )

    async def _status_loop(self) -> None:
        while True:
            self.monitor.beat()
            await asyncio.sleep(self.config.status_interval_s)

    # -- request execution (the degradation ladder) ------------------------

    async def _execute(self, req: ServiceRequest) -> None:
        c = self.config
        plan = self.core.plan(req)
        if plan.choice is PathChoice.VC:
            # the circuit rate to *request* is the policy's advice (fcfs:
            # the nominal rate; predictive: history's achievable rate)
            vc_rate = self.sched.rate_advice(req.total_bytes)
            try:
                vc = await self._reserve(
                    req, plan.transfer_estimate_s, vc_rate
                )
            except ReservationRejected:
                # retries exhausted: recover on the routed path
                req.path = PathChoice.IP_FALLBACK.value
                self.metrics.n_degraded += 1
                self.stats.n_fallbacks += 1
                await self._ride(req, c.ip_rate_bps, outages=None)
                return
            # signalling landed, but the waits may have eaten the budget:
            # re-check before committing the bytes to the circuit
            vc_transfer = req.total_bytes * 8.0 / vc_rate
            if not req.budget.can_afford(vc_transfer):
                self._teardown(vc)
                req.path = PathChoice.IP_DEGRADED.value
                self.metrics.n_degraded += 1
                self.stats.n_fallbacks += 1
                await self._ride(req, c.ip_rate_bps, outages=None)
                return
            req.path = PathChoice.VC.value
            try:
                await self._ride(req, vc.rate_bps, outages=self._flap_schedule(req))
            finally:
                self._teardown(vc)
        else:
            req.path = PathChoice.IP_DEGRADED.value
            self.metrics.n_degraded += 1
            self.stats.n_fallbacks += 1
            await self._ride(req, c.ip_rate_bps, outages=None)

    async def _reserve(
        self,
        req: ServiceRequest,
        transfer_estimate_s: float,
        rate_bps: float,
    ):
        """Reserve + provision a circuit, living through injected faults."""
        c = self.config
        now = self.vnow()
        window_start, window_end = self.sched.reservation_window(
            now,
            transfer_estimate_s,
            worst_case_setup_s=self.idc.setup_delay.worst_case_s(),
        )
        request = ReservationRequest(
            src=c.src,
            dst=c.dst,
            bandwidth_bps=rate_bps,
            start_time=window_start,
            end_time=window_end,
        )
        vc, waited = self.idc.create_reservation_with_retry(
            request,
            request_time=now,
            backoff=self.backoff,
            rng=self.rng,
            stats=self.stats,
        )
        # the reservation retries happened in zero real time; let the
        # backoff the controller *would* have waited actually pass
        await self.vsleep(waited)
        await self.vsleep(vc.start_time - self.vnow())
        self.idc.provision(
            vc.circuit_id, now=max(self.vnow(), vc.start_time)
        )
        return vc

    def _teardown(self, vc) -> None:
        try:
            self.idc.teardown(vc.circuit_id, now=self.vnow())
        except KeyError:
            pass  # already torn down

    def _flap_schedule(self, req: ServiceRequest) -> ScheduledOutages | None:
        """Draw this ride's circuit-flap history from the injector."""
        if self.injector is None:
            return None
        ride_start = self.vnow()
        est = req.total_bytes * 8.0 / self.config.vc_rate_bps
        return ScheduledOutages(
            self.injector.flap_intervals(ride_start, ride_start + 3.0 * est + 600.0)
        )

    async def _ride(
        self,
        req: ServiceRequest,
        rate_bps: float,
        outages: ScheduledOutages | None,
    ) -> None:
        """Move the request's remaining files at ``rate_bps``; settle it."""
        n_files = len(req.file_sizes)
        while req.files_done < n_files:
            # the daemon's expiry rule: the deadline is checked before
            # each file, so a last file that lands late still succeeds
            if req.budget.expired:
                self.core.settle(
                    req, "expired",
                    error=f"deadline exhausted at "
                          f"{req.files_done}/{n_files} files",
                )
                return
            result, n_hit = self.reliable.ride_file(
                req.file_sizes[req.files_done], rate_bps, outages,
                self.vnow(), self.rng,
            )
            self.metrics.n_flaps_recovered += n_hit
            self.stats.n_flaps += n_hit
            await self.vsleep(result.total_wall_s)
            if not result.succeeded:
                self.core.settle(
                    req, "failed",
                    error=f"file {req.files_done} exhausted its "
                          f"retry budget",
                )
                return
            req.files_done += 1
            self.metrics.n_files_moved += 1
        self.core.settle(req, "succeeded")


def run_daemon(config: DaemonConfig) -> int:
    """Blocking entry point: serve until signalled, return the exit code."""
    daemon = TransferDaemon(config)
    return asyncio.run(daemon.serve())


def main(argv: list[str] | None = None) -> int:  # pragma: no cover
    """``python -m repro.service.daemon <config.json>`` (CI plumbing)."""
    args = argv if argv is not None else sys.argv[1:]
    if len(args) != 1:
        print("usage: python -m repro.service.daemon <config.json>",
              file=sys.stderr)
        return 2
    with open(args[0], encoding="utf-8") as fh:
        config = DaemonConfig(**json.load(fh))
    logging.basicConfig(level=logging.INFO, stream=sys.stderr)
    return run_daemon(config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
