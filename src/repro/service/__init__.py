"""The long-lived transfer service: the managed layer as a daemon.

This package hosts :class:`~repro.service.daemon.TransferDaemon`, a
supervised asyncio process that serves a continuous stream of transfer
requests over a local JSON-lines control socket while the virtual-circuit
stack misbehaves underneath it.  The pieces:

* :mod:`~repro.service.admission` — bounded queue, per-tenant quotas,
  429-style shedding with retry-after;
* :mod:`~repro.service.budget` — per-request deadline budgets and the
  VC → IP degradation ladder;
* :mod:`~repro.service.supervisor` — panic-restart of work/status loops
  under exponential backoff;
* :mod:`~repro.service.health` — ``/health`` and ``/status`` views;
* :mod:`~repro.service.api` — the control-socket protocol and the
  blocking client;
* :mod:`~repro.service.core` — the sans-I/O request lifecycle
  (submit, start, plan, requeue, settle) both drivers below share;
* :mod:`~repro.service.daemon` — the core's asyncio driver: the daemon
  itself (control socket, supervised loops, the reserve/ride ladder,
  drain, checkpoint, exit 75) and the one params-to-config parser;
* :mod:`~repro.service.soak` — the ``service_soak`` fault-storm
  scenario (closed-loop correctness);
* :mod:`~repro.service.loadtest` — the ``service_loadtest`` open-loop
  harness: arrival generators, latency SLOs, and the deterministic
  twin, the core's discrete-event driver.
"""

from .admission import AdmissionController, AdmissionDecision
from .api import AsyncServiceClient, ServiceClient, decode_line, encode_line
from .budget import DeadlineBudget, PathChoice, TransferPlan, plan_path
from .core import InvalidSubmission, ServiceCore, ServiceRequest
from .daemon import (
    EXIT_DRAINED,
    DaemonConfig,
    InjectedCrash,
    TransferDaemon,
    config_from_params,
    run_daemon,
)
from .health import HealthMonitor, ServiceMetrics
from .loadtest import (
    LatencyRecorder,
    LoadTestReport,
    RequestMix,
    run_loadtest,
    run_loadtest_sim,
)
from .supervisor import LoopStatus, Supervisor

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ServiceClient",
    "AsyncServiceClient",
    "LatencyRecorder",
    "LoadTestReport",
    "RequestMix",
    "run_loadtest",
    "run_loadtest_sim",
    "encode_line",
    "decode_line",
    "DeadlineBudget",
    "PathChoice",
    "TransferPlan",
    "plan_path",
    "ServiceCore",
    "ServiceRequest",
    "InvalidSubmission",
    "DaemonConfig",
    "config_from_params",
    "TransferDaemon",
    "InjectedCrash",
    "run_daemon",
    "EXIT_DRAINED",
    "HealthMonitor",
    "ServiceMetrics",
    "Supervisor",
    "LoopStatus",
]
