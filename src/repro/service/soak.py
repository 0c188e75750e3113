"""The ``service_soak`` scenario: a fault-storm soak of the daemon.

Runs a real :class:`~repro.service.daemon.TransferDaemon` in-process (an
asyncio event loop, a real Unix control socket in a temp dir) under an
open-loop Poisson arrival stream from several tenants while the fault
injector rejects reservations, stretches signalling, and flaps circuits.
Optionally panics work loops mid-storm via the chaos op.  After the
configured number of arrivals the daemon drains and the scenario pins
the service-level contracts:

* every accepted request settled (``n_lost == 0``);
* the full submission ledger balances: every submission lands in
  exactly one of accepted / shed / invalid (a few deliberately
  malformed submissions ride the storm to prove it);
* overload was shed with explicit rejections, not queue growth —
  ``outstanding <= queue_limit`` at *every* sampled observation;
* deadline-starved requests degraded to the routed-IP path;
* crashed loops restarted under supervision and health recovered.

The storm here is **closed-loop** (each submit is awaited before the
next gap is slept), which is right for a correctness soak but hides
queueing collapse under overload; :mod:`repro.service.loadtest` is the
open-loop harness that measures latency SLOs.

Registered in the experiments registry, so it runs under the campaign
runner, caches like any other cell, and can sit in a sweep over storm
intensities.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from typing import Any

import numpy as np

from .api import ServiceClient
from .daemon import DaemonConfig, TransferDaemon, config_from_params

__all__ = ["run_service_soak"]


#: the soak's fault storm: defaults for the params a cell leaves unset
_SOAK_DEFAULTS = {
    "tenant_quota": 6,
    "reject_prob": 0.3,
    "setup_timeout_prob": 0.2,
    "flaps_per_hour": 12.0,
    "drain_grace_s": 10.0,
}


async def _storm(
    daemon: TransferDaemon,
    config: DaemonConfig,
    params: dict[str, Any],
    seed: int,
) -> dict[str, Any]:
    """Drive arrivals against a served daemon, then drain it."""
    rng = np.random.default_rng(seed + 1)
    n_requests = int(params.get("n_requests", 40))
    n_tenants = int(params.get("n_tenants", 3))
    mean_gap_s = float(params.get("mean_interarrival_s", 0.02))
    n_crashes = int(params.get("n_crashes", 2))
    n_invalid = int(params.get("n_invalid_submissions", 2))
    file_size = float(params.get("file_size_bytes", 4e9))
    tight_deadline_frac = float(params.get("tight_deadline_frac", 0.25))
    # a deadline that cannot fit batch signalling forces the IP rung
    tight_deadline_s = float(params.get("tight_deadline_s", 45.0))

    ready = asyncio.Event()
    serve = asyncio.create_task(daemon.serve(ready=ready, install_signals=False))
    await ready.wait()
    loop = asyncio.get_running_loop()

    def _client() -> ServiceClient:
        return ServiceClient(config.socket_path, timeout=60.0)

    accepted_ids: list[int] = []
    n_rejected = 0
    n_invalid_refused = 0
    crash_at = set(
        rng.choice(n_requests, size=min(n_crashes, n_requests), replace=False)
        .tolist()
    ) if n_crashes else set()
    invalid_at = set(
        rng.choice(n_requests, size=min(n_invalid, n_requests), replace=False)
        .tolist()
    ) if n_invalid else set()

    # sample the admission bound throughout the storm, not just once:
    # every observation must respect outstanding <= queue_limit
    outstanding_samples: list[int] = []
    storm_over = asyncio.Event()

    async def _sample_outstanding() -> None:
        while not storm_over.is_set():
            outstanding_samples.append(daemon.admission.outstanding)
            try:
                await asyncio.wait_for(storm_over.wait(), timeout=0.005)
            except asyncio.TimeoutError:
                pass

    sampler = asyncio.create_task(_sample_outstanding())
    client = await loop.run_in_executor(None, _client)
    try:
        for i in range(n_requests):
            n_files = int(rng.integers(1, 4))
            deadline = (
                tight_deadline_s
                if rng.random() < tight_deadline_frac
                else None
            )
            tenant = f"tenant-{int(rng.integers(0, n_tenants))}"
            # an invalid submission carries a negative file size — the
            # daemon must refuse it at validation, not execute it
            sizes = [file_size] * n_files
            if i in invalid_at:
                sizes[0] = -file_size
            resp = await loop.run_in_executor(
                None,
                lambda t=tenant, s=sizes, d=deadline: client.submit(
                    s, tenant=t, deadline_s=d
                ),
            )
            if resp.get("ok"):
                accepted_ids.append(resp["request_id"])
            elif resp.get("status") == "rejected":
                n_rejected += 1
                assert resp.get("reason") in (
                    "queue-full", "tenant-quota", "draining"
                ), resp
                assert resp.get("retry_after_s", 0) > 0, resp
            else:
                assert str(resp.get("error", "")).startswith(
                    "invalid submission"
                ), resp
                n_invalid_refused += 1
            if i in crash_at:
                await loop.run_in_executor(None, client.crash)
            await asyncio.sleep(rng.exponential(mean_gap_s))
        # let the storm play out a little, then sample health mid-flight
        await asyncio.sleep(0.2)
        mid_health = (await loop.run_in_executor(None, client.health))["health"]
        mid_status = (await loop.run_in_executor(None, client.status))["status"]
    finally:
        await loop.run_in_executor(None, client.close)
        storm_over.set()
        await sampler

    daemon.request_drain()
    exit_code = await serve

    m = daemon.metrics
    return {
        "n_requests": n_requests,
        "n_submitted": m.n_submitted,
        "n_accepted": m.n_accepted,
        "n_rejected_client_side": n_rejected,
        "n_invalid_client_side": n_invalid_refused,
        "n_shed": m.n_shed,
        "n_invalid": m.n_invalid,
        "shed": dict(daemon.admission.shed),
        "n_completed": m.n_completed,
        "n_failed": m.n_failed,
        "n_expired": m.n_expired,
        "n_checkpointed": m.n_checkpointed,
        "n_degraded": m.n_degraded,
        "n_flaps_recovered": m.n_flaps_recovered,
        "n_lost": m.n_lost,
        "loop_restarts": daemon.supervisor.n_restarts,
        "dead_loops": daemon.supervisor.dead_loops(),
        "mid_health_ok": bool(mid_health["ok"]),
        "mid_outstanding": int(mid_status["outstanding"]),
        "recovery": daemon.stats.as_dict(),
        "exit_code": exit_code,
        "max_outstanding_bound": config.queue_limit,
        "outstanding_max": max(outstanding_samples, default=0),
        "n_outstanding_samples": len(outstanding_samples),
    }


def run_service_soak(params: dict[str, Any], seed: int) -> dict[str, Any]:
    """Scenario entry point (see the experiments registry)."""
    with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
        socket_path = os.path.join(tmp, "svc.sock")
        config = config_from_params(
            params, seed, socket_path, _SOAK_DEFAULTS, chaos_ops=True
        )
        daemon = TransferDaemon(config)
        result = asyncio.run(_storm(daemon, config, params, seed))
    # contract pins — a violated service invariant fails the cell loudly
    if result["n_lost"] != 0:
        raise AssertionError(f"lost {result['n_lost']} accepted request(s)")
    if result["n_shed"] != result["n_rejected_client_side"]:
        raise AssertionError("shed census disagrees with client rejections")
    if result["n_invalid"] != result["n_invalid_client_side"]:
        raise AssertionError("invalid census disagrees with client refusals")
    # the full submission ledger: every submission lands in exactly one
    # of accepted / shed / invalid — nothing vanishes between censuses
    if result["n_submitted"] != result["n_requests"]:
        raise AssertionError("daemon saw a different submission count")
    if (
        result["n_accepted"] + result["n_shed"] + result["n_invalid"]
        != result["n_submitted"]
    ):
        raise AssertionError("admission must decide every submission")
    # the admission bound, pinned at every observation of the storm
    if result["outstanding_max"] > result["max_outstanding_bound"]:
        raise AssertionError(
            f"outstanding reached {result['outstanding_max']}, above the "
            f"queue limit {result['max_outstanding_bound']}"
        )
    return result
