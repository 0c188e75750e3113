"""Traced ``repro-gridftp serve`` for the daemon workload.

    python3 perfbench/launcher.py --trace-out <spans.jsonl> <serve arguments...>

Runs ``repro.cli serve`` itself, with its own parser and defaults, after
hooking :meth:`TransferDaemon.serve`: when the daemon ``serve`` built
starts, the hook wraps the public methods of its collaborators
(scheduler, admission, OSCARS IDC and its bandwidth books, path
computation, the reliable-transfer service, the line codec) with the
benchmark's span recorder and starts a ticker task that samples event
loop lag.  On exit (after the usual SIGTERM drain, exit 75) the spans
and the launcher's own numbers are written to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from bench.common import percentile  # noqa: E402
from bench.tracer import Tracer  # noqa: E402

#: loop-lag ticker period
TICK_S = 0.005


def install(tracer: Tracer, daemon) -> dict:
    """Wrap the daemon's collaborators; return the modeled-wait tally."""
    for owner, attrs in (
        (daemon.sched, ("admit", "enqueue", "next_request", "on_start", "plan",
                        "rate_advice", "reservation_window", "on_settle",
                        "note_service_s", "observe")),
        (daemon.admission, ("try_admit", "on_start", "on_settle", "note_service_s")),
        (daemon.idc, ("create_reservation_with_retry", "create_reservation",
                      "provision", "teardown")),
        (daemon.idc.scheduler, ("committed_now", "reserve", "release")),
        (daemon.reliable, ("execute",)),
        (daemon.monitor, ("status", "health")),
    ):
        for attr in attrs:
            tracer.patch_method(owner, attr)
    tracer.patch_function("repro.net.routing", "least_congested_path")
    tracer.patch_function("repro.service.budget", "plan_path")
    tracer.patch_function("repro.service.api", "decode_line")
    tracer.patch_function("repro.service.api", "encode_line")

    tally = {"vsleep_s": 0.0}
    vsleep = daemon.vsleep
    scale = daemon.config.time_scale

    async def counted_vsleep(virtual_s: float) -> None:
        if virtual_s > 0:
            tally["vsleep_s"] += virtual_s / scale
        await vsleep(virtual_s)

    daemon.vsleep = counted_vsleep
    return tally


def hook_serve(tracer: Tracer, lags: list[float], tallies: list[dict]) -> None:
    """Trace every :class:`TransferDaemon` when its ``serve`` starts."""
    from repro.service.daemon import TransferDaemon

    serve = TransferDaemon.serve

    async def traced_serve(daemon, *args, **kwargs):
        tallies.append(install(tracer, daemon))

        async def ticker() -> None:
            loop = asyncio.get_running_loop()
            while True:
                due = loop.time() + TICK_S
                await asyncio.sleep(TICK_S)
                lags.append(loop.time() - due)

        tick = asyncio.ensure_future(ticker())
        try:
            return await serve(daemon, *args, **kwargs)
        finally:
            tick.cancel()
            await asyncio.gather(tick, return_exceptions=True)

    TransferDaemon.serve = traced_serve


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trace-out", required=True)
    args, serve_args = ap.parse_known_args(argv)
    from repro import cli

    tracer = Tracer()
    lags: list[float] = []
    tallies: list[dict] = []
    hook_serve(tracer, lags, tallies)
    t0 = time.perf_counter()
    try:
        code = cli.main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        tracer.dump(args.trace_out, {
            "vsleep_s": sum(t["vsleep_s"] for t in tallies),
            "loop_lag_p99_ms": percentile(lags, 99) * 1e3 if lags else 0.0,
            "n_lag_samples": len(lags),
            "wall_s": time.perf_counter() - t0,
        })
    return code


if __name__ == "__main__":
    sys.exit(main())
