"""The sans-I/O service core and its two drivers.

Both the asyncio daemon and the discrete-event load-test twin drive the
one :class:`~repro.service.core.ServiceCore` lifecycle.  The
differential test here runs one seeded request mix through each and
demands identical censuses wherever both drivers decide from the same
state: every arrival is decided before the first ride completes, and
every deadline is either absent or too tight for any circuit plan, so
neither the admission census nor the path census can depend on timing.
"""

import asyncio

import numpy as np
import pytest

from repro.service.api import AsyncServiceClient
from repro.service.daemon import TransferDaemon, config_from_params
from repro.service.loadtest import RequestMix, build_schedule, run_loadtest_sim

_MIX = {
    "arrivals": "poisson",
    "n_requests": 30,
    "n_tenants": 3,
    "invalid_frac": 0.1,
    # a 10 s deadline never affords a 4 GB circuit ride (25 s at the
    # 1.25 safety factor, plus signalling): tight requests always
    # degrade to routed IP, unbounded ones always ride the circuit
    "tight_deadline_frac": 0.3,
    "tight_deadline_s": 10.0,
    "workers": 4,
    "queue_limit": 12,
    "tenant_quota": 5,
    "time_scale": 300.0,
    # the twin's arrivals all land before its first completion
    "rate_per_s": 1000.0,
}


def _daemon_run(params, seed, socket_path):
    """Submit the twin's mix, in order, on one connection, without wait."""
    rng = np.random.default_rng(seed)
    schedule = build_schedule(params, rng)  # drawn first, as the twin does
    mix = RequestMix.from_params(params, rng)
    assert schedule[-1] < 1.0  # the twin's precondition: < 1 virtual s
    config = config_from_params(params, seed, socket_path)

    async def body():
        daemon = TransferDaemon(config)
        ready = asyncio.Event()
        serve = asyncio.create_task(
            daemon.serve(ready=ready, install_signals=False)
        )
        await asyncio.wait_for(ready.wait(), timeout=10)
        client = await AsyncServiceClient.connect(socket_path)
        try:
            responses = [
                await client.submit(
                    item["file_sizes"],
                    tenant=item["tenant"],
                    deadline_s=item["deadline_s"],
                )
                for item in mix.items
            ]
            settled_at_last_answer = daemon.metrics.n_settled
            # let every accepted request ride, so each one has a path
            for resp in responses:
                if resp["ok"]:
                    await client.request(
                        {"op": "wait", "request_id": resp["request_id"]}
                    )
        finally:
            await client.close()
            daemon.request_drain()
            await asyncio.wait_for(serve, timeout=60)
        return daemon, settled_at_last_answer

    return asyncio.run(body())


@pytest.mark.parametrize("scheduler", ["fcfs", "global"])
def test_daemon_and_twin_agree_on_one_mix(tmp_path, scheduler):
    params = dict(_MIX, scheduler=scheduler)
    # a seed whose mix holds an invalid submission, sheds for both
    # reasons and plans both rungs under each policy (checked below)
    seed = 2
    twin = run_loadtest_sim(params, seed)
    daemon, settled_at_last_answer = _daemon_run(
        params, seed, str(tmp_path / "svc.sock")
    )
    # the daemon's precondition: no ride finished before the last
    # submission was decided
    assert settled_at_last_answer == 0

    m = daemon.metrics
    assert m.n_submitted == twin.n_offered == _MIX["n_requests"]
    assert m.n_accepted == twin.n_accepted
    assert m.n_shed == twin.n_shed
    assert m.n_invalid == twin.n_invalid > 0
    assert {k: v for k, v in daemon.admission.shed.items() if v} == twin.shed
    paths: dict[str, int] = {}
    for req in daemon.core.requests.values():
        paths[req.path] = paths.get(req.path, 0) + 1
    assert paths == twin.paths
    # both rungs and both shed reasons exercised
    assert set(paths) == {"vc", "ip-degraded"}
    assert set(twin.shed) == {"queue-full", "tenant-quota"}
