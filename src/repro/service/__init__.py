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
* :mod:`~repro.service.loadtest` — the ``service_loadtest`` open-loop
  harness, the one that storms the daemon: arrival generators, crash
  ops, latency SLOs and daemon-side contracts, and the deterministic
  twin, the core's discrete-event driver.
"""
