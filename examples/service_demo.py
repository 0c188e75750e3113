#!/usr/bin/env python3
"""The transfer daemon end to end: admit, budget, degrade, crash, drain.

The batch campaigns elsewhere in `examples/` construct a managed
transfer service, drain it, and report.  This walkthrough runs the same
stack as a *daemon* (DESIGN.md §12): a supervised asyncio process with a
JSON-lines control socket, exercised here in-process through the
blocking client the CLI uses.  Four acts:

  1. a request rides a virtual circuit to completion while the fault
     injector flaps it (restart markers recover the bytes);
  2. a deadline too tight for OSCARS signalling degrades to the routed
     IP path instead of failing ("ip-degraded");
  3. overload is shed with explicit 429-style rejections carrying
     retry-after hints — the queue is bounded, load never accumulates;
  4. a chaos op panics a work loop: supervision restarts it, the
     request it held is re-enqueued, and the drain ledger still
     balances (accepted == settled, nothing lost) at exit code 75.

Everything is seeded and virtual-time (1 real second = 3000 service
seconds), so the whole storm runs in a few real seconds.

Run:  python examples/service_demo.py
"""

import asyncio
import json
import os
import tempfile

from repro.service.api import ServiceClient
from repro.service.daemon import DaemonConfig, TransferDaemon


async def demo() -> None:
    tmp = tempfile.mkdtemp(prefix="repro-service-demo-")
    config = DaemonConfig(
        socket_path=os.path.join(tmp, "svc.sock"),
        workers=2,
        time_scale=3000.0,
        queue_limit=4,
        tenant_quota=3,
        # a routed path fast enough that a signalling-starved budget can
        # still make its deadline there (the degradation story of act 2)
        ip_rate_bps=1.4e9,
        flaps_per_hour=20.0,
        chaos_ops=True,
        drain_grace_s=15.0,
        seed=42,
    )
    daemon = TransferDaemon(config)
    ready = asyncio.Event()
    serve = asyncio.create_task(daemon.serve(ready=ready, install_signals=False))
    await ready.wait()
    loop = asyncio.get_running_loop()

    def call(fn, *args, **kwargs):
        return loop.run_in_executor(None, lambda: fn(*args, **kwargs))

    client = await call(ServiceClient, config.socket_path)

    print("=== 1. a VC ride through injected circuit flaps ===")
    resp = await call(client.submit, [4e9, 2e9], tenant="astro", wait=True)
    print(f"  state={resp['state']} path={resp['path']} "
          f"files={resp['files_done']}/{resp['n_files']}")

    print("\n=== 2. a deadline too tight for signalling degrades to IP ===")
    # 80 GB at circuit rate is 400 s + >=1 s signalling, inflated by the
    # 1.25 safety factor past any 490 s budget — but the routed path
    # (457 s) still makes the deadline, so the request degrades and lives
    resp = await call(
        client.submit, [80e9], tenant="astro", deadline_s=490.0, wait=True
    )
    print(f"  state={resp['state']} path={resp['path']} "
          f"budget={json.dumps(resp['budget'])}")

    print("\n=== 3. overload sheds with explicit rejections ===")
    sent, shed = 0, 0
    for _ in range(10):
        resp = await call(client.submit, [8e9], tenant="noisy")
        sent += 1
        if not resp["ok"]:
            shed += 1
            print(f"  rejected: reason={resp['reason']} "
                  f"retry_after_s={resp['retry_after_s']:.1f}")
    print(f"  {sent} submissions -> {sent - shed} admitted, {shed} shed")

    print("\n=== 4. panic a work loop; supervision keeps the ledger ===")
    await call(client.crash)
    await asyncio.sleep(0.3)
    health = (await call(client.health))["health"]
    status = (await call(client.status))["status"]
    print(f"  health ok={health['ok']} restarts={health['n_restarts']}")
    print(f"  outstanding={status['outstanding']} "
          f"(bound {status['queue_limit']})")

    await call(client.close)
    daemon.request_drain()
    code = await serve
    m = daemon.metrics
    print(f"\ndrained with exit code {code}: accepted={m.n_accepted} "
          f"completed={m.n_completed} expired={m.n_expired} "
          f"failed={m.n_failed} checkpointed={m.n_checkpointed} "
          f"lost={m.n_lost}")
    assert m.n_lost == 0, "an accepted request went missing"


if __name__ == "__main__":
    asyncio.run(demo())
