"""Workload ``daemon_openloop``: the VC transfer daemon, driven open-loop.

Every rung boots a fresh daemon (``repro.cli serve``; under tracing the
benchmark's own ``launcher.py``, which runs the same ``serve`` and wraps
the daemon's collaborators) at a time scale high enough that the
daemon's CPU, not modeled sleep, bounds its capacity.  One
single-threaded asyncio generator offers Poisson arrivals over two
connections: connection one pipelines ``submit`` (no wait) on schedule
plus periodic ``status``; connection two pipelines ``wait`` in
submission order.  Latency runs from each request's *scheduled* send
time, so a stall is charged to every request behind it.

The request mix is three tenants with 1-3 x 4 GB files, no deadlines and
no injected faults: every accepted request rides a circuit, and no
outcome depends on wall-clock jitter.  A fresh daemon per rung matters:
reservation cost grows with the requests a daemon has served, because a
circuit torn down inside its reservation window keeps its consumed head
in the per-link books, and ``committed_now``/``peak_commitment`` scan
every entry.  The time scale is chosen so that this happens: a window
(worst-case setup + 3x the transfer estimate + 600 virtual s) lasts
about 7 ms of real time, while a request's modeled waits take about
0.3 ms, so teardown lands inside the window even with the event loop
a few milliseconds behind.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import json
import math
import os
import signal
import socket
import subprocess
import sys
import time

import numpy as np

from .common import (
    ROOT,
    SRC,
    cpus,
    derive,
    median,
    percentile,
    pin,
    proc_cpu_s,
    proc_peak_rss_mb,
    steal_s,
)
from .tracer import Span, Tracer, load_spans

NAME = "daemon_openloop"
#: virtual seconds per real second.  Four workers at ~0.3 ms of modeled
#: wait per request could serve ~10k req/s, far above what the daemon's
#: CPU allows; and teardown falls inside the reservation window, so the
#: books grow as they do in service (at 1e6 the window closes first and
#: the books stay nearly empty)
TIME_SCALE = 1e5
WORKERS = 4
#: large enough that only sustained overload sheds, not a short stall of
#: the host (3 tenants share it; the per-tenant quota is the same)
QUEUE_LIMIT = 512
TENANTS = ("alpha", "beta", "gamma")
FILE_BYTES = 4e9
#: requests/s the rung rates are fixed fractions of: about what a fresh
#: daemon sustained over the ``over`` rung (6.75 s at --seconds 15) when
#: this benchmark was defined (2-vCPU Xeon; the recorded baseline, with
#: stolen time taken off, reads ~496).  Its cost per request grows as it
#: serves (see above), so this is an average: a fresh daemon starts near
#: twice it.  A faster daemon shows up as lower latency, a higher max
#: rate and higher goodput under overload
REFERENCE_CAPACITY_RPS = 440.0
#: (rung, fraction of reference capacity, share of --seconds offered).
#: ``over`` offers 3x, so its goodput stays bound by the daemon's
#: capacity, not by the offered rate, for a daemon up to ~2.5x faster
#: over the rung; the generator keeps its p99 lateness under the limit
#: up to at least 2400 req/s on the reference host
RUNGS = (
    ("low", 0.40, 0.20),
    ("high", 0.80, 0.20),
    ("ladder-0.90", 0.90, 0.15),
    ("over", 3.00, 0.45),
)
#: rungs, in rate order, that decide max_rate_rps
LADDER = ("low", "high", "ladder-0.90", "over")
#: rungs below capacity, whose served requests per daemon CPU-second are
#: the daemon's second rate
SUB_CAPACITY = ("low", "high", "ladder-0.90")
#: fail_frac counts requests on these rungs only (over is meant to shed)
GATED = ("low", "high")
#: settle-latency limit a rung must meet to count toward max_rate, on
#: the 90th percentile: on a shared host one stall of a few hundred ms
#: moves a rung's p99 but rarely its p90, so the limit tracks capacity
SETTLE_LIMIT_PCT = 90
SETTLE_LIMIT_MS = 50.0
STATUS_EVERY_S = 0.05
#: outstanding requests a rung may add across its window (trend, not
#: noise) before its backlog counts as growing
GROWTH_LIMIT = 0.25 * QUEUE_LIMIT
#: closed-loop requests each fresh daemon serves before its rung, so
#: one-off lazy initialisation is not charged to the rung's tail
WARMUP_REQUESTS = 50
#: generator p99 lateness beyond which a rung is invalid (the generator,
#: not the daemon, fell behind)
LATE_LIMIT_MS = 20.0
BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0
SOCKET = "daemon.sock"
#: span ids of each rung's daemon are shifted by this, so rungs never collide
_SID_STRIDE = 1 << 40


class Context:
    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = os.path.abspath(workdir)
        # sockets are addressed relative to the work directory: a Unix
        # socket path is limited to ~100 bytes, the checkout path is not
        os.chdir(self.workdir)
        self.rung_seeds = {name: derive(seed, 10 + i) for i, (name, _, _) in enumerate(RUNGS)}


def schedule(seed: int, rate: float, n: int):
    """Offsets (s), tenant index and file count of ``n`` Poisson arrivals."""
    rng = np.random.default_rng(seed)
    offsets = np.cumsum(rng.exponential(1.0 / rate, n))
    tenants = rng.integers(0, len(TENANTS), n)
    nfiles = rng.integers(1, 4, n)
    return offsets, tenants, nfiles


# -- daemon process ------------------------------------------------------


def daemon_command(seed: int, traced: bool, trace_out: str | None) -> list[str]:
    args = [
        "--socket", SOCKET,
        "--workers", str(WORKERS),
        "--time-scale", repr(TIME_SCALE),
        "--queue-limit", str(QUEUE_LIMIT),
        "--tenant-quota", str(QUEUE_LIMIT),
        "--seed", str(seed),
    ]
    if traced:
        launcher = os.path.join(ROOT, "perfbench", "launcher.py")
        return [sys.executable, launcher, "--trace-out", trace_out, *args]
    return [sys.executable, "-m", "repro.cli", "serve", *args]


def _request(sock_path: str, body: dict, timeout: float = 5.0) -> dict:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        s.sendall((json.dumps(body) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            buf += chunk
    return json.loads(buf)


def boot(ctx: Context, rung: str, traced: bool, cpu: int):
    """Start a daemon pinned to ``cpu``; return (process, seconds until
    ``health`` is ok, its span file)."""
    if os.path.exists(SOCKET):
        os.unlink(SOCKET)
    trace_out = os.path.join(ctx.workdir, f"spans-{rung}.jsonl") if traced else None
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    with open(os.path.join(ctx.workdir, f"daemon-{rung}.log"), "wb") as log:
        proc = subprocess.Popen(
            daemon_command(ctx.rung_seeds[rung], traced, trace_out),
            cwd=ctx.workdir, env=env, stdout=subprocess.PIPE, stderr=log,
        )
    os.sched_setaffinity(proc.pid, {cpu})
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon for rung {rung} exited {proc.returncode} at boot")
        try:
            if _request(SOCKET, {"op": "health"})["health"]["ok"]:
                return proc, time.perf_counter() - t0, trace_out
        except (OSError, ValueError, KeyError):
            pass
        if time.perf_counter() - t0 > BOOT_TIMEOUT_S:
            stop(proc)
            raise RuntimeError(f"daemon for rung {rung} never answered health")
        time.sleep(0.005)


def warm_up() -> dict:
    """Serve a few requests closed-loop; return the status baseline."""
    for i in range(WARMUP_REQUESTS):
        resp = _request(SOCKET, {"op": "submit", "tenant": TENANTS[i % len(TENANTS)],
                                 "file_sizes": [FILE_BYTES], "wait": True})
        if resp.get("state") != "succeeded":
            raise RuntimeError(f"warm-up request failed: {resp}")
    return _request(SOCKET, {"op": "status"})["status"]


def stop(proc: subprocess.Popen) -> tuple[int, dict | None]:
    """SIGTERM (graceful drain); return (exit code, drain report)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=DRAIN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    report = None
    for line in reversed(out.decode(errors="replace").splitlines()):
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and obj.get("event") == "drain-report":
            report = obj
            break
    return proc.returncode, report


# -- the open-loop generator ----------------------------------------------


async def drive(sock_path: str, offsets, tenants, nfiles, timeout_s: float) -> dict:
    """Offer one rung; return per-request timings and the status samples.

    Responses on one connection come back in request order, so each
    connection keeps a FIFO of what it is owed.  Once every submit is
    answered, a ``status`` queued behind the last ``wait`` on connection
    two yields the daemon's counters after everything accepted settled.
    """
    loop = asyncio.get_running_loop()
    r1, w1 = await asyncio.open_unix_connection(sock_path, limit=1 << 20)
    r2, w2 = await asyncio.open_unix_connection(sock_path, limit=1 << 20)
    n = len(offsets)
    late = np.full(n, np.nan)
    ack = np.full(n, np.nan)
    settle = np.full(n, np.nan)
    outcome: list[str | None] = [None] * n
    state: list[str | None] = [None] * n
    samples: list[tuple[float, int, int]] = []
    conn1: collections.deque = collections.deque()
    conn2: collections.deque = collections.deque()
    lines = [
        (json.dumps({"op": "submit", "tenant": TENANTS[t],
                     "file_sizes": [FILE_BYTES] * int(k), "wait": False}) + "\n").encode()
        for t, k in zip(tenants, nfiles)
    ]
    status_line = b'{"op": "status"}\n'
    t0 = loop.time() + 0.05
    final: dict = {}

    async def sender() -> None:
        next_status = t0
        for i in range(n):
            due = t0 + float(offsets[i])
            while next_status <= due:
                d = next_status - loop.time()
                if d > 0:
                    await asyncio.sleep(d)
                w1.write(status_line)
                conn1.append(("status", next_status - t0))
                next_status += STATUS_EVERY_S
            d = due - loop.time()
            if d > 0:
                await asyncio.sleep(d)
            late[i] = loop.time() - due
            w1.write(lines[i])
            conn1.append(("submit", i))
            if w1.transport.get_write_buffer_size() > 1 << 16:
                await w1.drain()
        await w1.drain()

    async def reader1() -> None:
        acked = 0
        while acked < n or conn1:
            raw = await r1.readline()
            if not raw:
                raise ConnectionError("daemon closed connection one")
            now = loop.time()
            kind, x = conn1.popleft()
            msg = json.loads(raw)
            if kind == "status":
                st = msg["status"]
                samples.append((x, int(st["queue_depth"]), int(st["outstanding"])))
                continue
            ack[x] = now - (t0 + float(offsets[x]))
            if msg.get("ok"):
                outcome[x] = "accepted"
                w2.write((json.dumps({"op": "wait", "request_id": msg["request_id"]})
                          + "\n").encode())
                conn2.append(x)
            elif msg.get("status") == "rejected":
                outcome[x] = "shed"
            else:
                outcome[x] = "invalid"
            acked += 1
        w2.write(status_line)
        conn2.append(None)

    async def reader2() -> None:
        while True:
            raw = await r2.readline()
            if not raw:
                raise ConnectionError("daemon closed connection two")
            now = loop.time()
            i = conn2.popleft()
            msg = json.loads(raw)
            if i is None:
                final.update(msg["status"])
                return
            settle[i] = now - (t0 + float(offsets[i]))
            state[i] = msg.get("state")

    tasks = [asyncio.ensure_future(c) for c in (sender(), reader1(), reader2())]
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=timeout_s)
    finally:
        for t in tasks:
            t.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for w in (w1, w2):
            w.close()
            try:
                await w.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
    return {
        "late": late, "ack": ack, "settle": settle, "outcome": outcome,
        "state": state, "samples": samples, "final": final,
        "offsets": np.asarray(offsets, dtype=float), "duration": float(offsets[-1]),
    }


# -- checks and per-rung numbers -------------------------------------------


def check_rung(d: dict, exit_code: int | None, report: dict | None, gated: bool,
               base: dict | None = None) -> list[str]:
    """Ledger, settlement and drain checks for one rung.

    Daemon counters are compared as their change since ``base`` (the
    status after warm-up) against what the client counted.
    """
    problems = []
    n = len(d["outcome"])
    accepted = sum(1 for o in d["outcome"] if o == "accepted")
    shed = sum(1 for o in d["outcome"] if o == "shed")
    invalid = sum(1 for o in d["outcome"] if o == "invalid")
    if accepted + shed + invalid != n:
        problems.append(f"offered {n} != accepted {accepted} + shed {shed} + invalid {invalid}")
    before = (base or {}).get("metrics", {})
    m = {k: v - before.get(k, 0) for k, v in d["final"]["metrics"].items()}
    for key, want in (("n_submitted", n), ("n_accepted", accepted),
                      ("n_shed", shed), ("n_invalid", invalid)):
        if m.get(key) != want:
            problems.append(f"daemon {key}={m.get(key)} but the client counted {want}")
    unsettled = sum(1 for o, s in zip(d["outcome"], d["state"])
                    if o == "accepted" and s is None)
    if unsettled:
        problems.append(f"{unsettled} accepted request(s) never settled")
    if m.get("n_settled") != accepted:
        problems.append(f"daemon settled {m.get('n_settled')} of {accepted} accepted")
    if gated:
        # below capacity every request must succeed; a shed one is a
        # failure (fail_frac), a failed transfer is wrong output
        bad = sum(1 for o, s in zip(d["outcome"], d["state"])
                  if o == "accepted" and s != "succeeded")
        if bad:
            problems.append(f"{bad} accepted request(s) did not succeed below capacity")
    if exit_code != 75:
        problems.append(f"daemon exited {exit_code}, expected 75 after drain")
    if report is None:
        problems.append("no drain report on the daemon's stdout")
    elif report["metrics"].get("n_lost") != 0:
        problems.append(f"drain report lost {report['metrics'].get('n_lost')} request(s)")
    return problems


def rung_numbers(d: dict, stolen_s: float = 0.0) -> dict:
    """One rung's numbers; ``stolen_s`` is CPU time the hypervisor took
    from the daemon's core during the rung, taken off goodput's window."""
    outcome, state = d["outcome"], d["state"]
    ok = np.array([o == "accepted" and s == "succeeded" for o, s in zip(outcome, state)])
    n = len(outcome)
    settle_ms = d["settle"] * 1e3
    # a request that fails or is refused misses any latency limit
    settle_all = np.where(ok, settle_ms, np.inf)
    window = [(t, q, o) for t, q, o in d["samples"] if t <= d["duration"]]
    depth = [q for _, q, _ in window] or [0]
    # backlog growth: the least-squares trend of outstanding requests
    # over the offering window, extrapolated across the whole window
    growth = 0.0
    if len(window) >= 3:
        ts = np.array([t for t, _, _ in window])
        slope = np.polyfit(ts, np.array([o for _, _, o in window], dtype=float), 1)[0]
        growth = float(slope * d["duration"])
    # goodput: succeeded requests over the time from the rung's start to
    # the last settle observed, less the time the daemon's core was stolen
    # (at most half of it).  Over capacity the daemon never idles, so
    # that is the time it could serve in
    last_settle = float(np.nanmax(d["offsets"] + d["settle"])) if ok.any() else math.nan
    served_s = max(last_settle - stolen_s, 0.5 * last_settle)
    return {
        "n": n,
        "succeeded": int(ok.sum()),
        "shed": sum(1 for o in outcome if o == "shed"),
        "settle_p50_ms": percentile(settle_all, 50),
        "settle_p90_ms": percentile(settle_all, 90),
        "settle_p99_ms": percentile(settle_all, 99),
        "ack_p50_ms": percentile(d["ack"] * 1e3, 50),
        "ack_p99_ms": percentile(d["ack"] * 1e3, 99),
        "gen_late_p99_ms": percentile(d["late"] * 1e3, 99),
        "goodput_rps": float(ok.sum()) / served_s if ok.any() else 0.0,
        "raw_goodput_rps": float(ok.sum()) / last_settle if ok.any() else 0.0,
        "stolen_s": stolen_s,
        "queue_depth_max": max(depth),
        "queue_depth_mean": float(np.mean(depth)),
        "backlog_growth": growth,
        "growing": growth > GROWTH_LIMIT,
    }


def max_rate(rungs: dict[str, dict], rates: dict[str, float]) -> float:
    """Highest rate whose settle latency stays under the limit, with zero
    shed and no backlog growth: the ladder's latency curve interpolated
    at the limit.

    A rung failing on shed or growth counts as at least 2x the limit, so
    the crossing stays continuous in the measured latencies.
    """
    limit = SETTLE_LIMIT_MS
    key = f"settle_p{SETTLE_LIMIT_PCT}_ms"

    def score(name: str) -> float:
        r = rungs[name]
        lat = r[key]
        if r["shed"] or r["growing"]:
            lat = max(2.0 * limit, lat)
        # beyond a few times the limit the curve says nothing about where
        # it crossed; capping keeps an infinite latency from pinning it
        return min(lat, 4.0 * limit)

    prev = None
    for name in LADDER:
        s = score(name)
        if s > limit:
            if prev is None:
                return rates[name] * limit / s
            p_name, p_s = prev
            frac = (limit - p_s) / (s - p_s)
            return rates[p_name] + frac * (rates[name] - rates[p_name])
        prev = (name, s)
    return rates[LADDER[-1]]


def measure(ctx: Context, seconds: float, tracer: Tracer | None = None) -> dict:
    traced = tracer is not None
    rungs: dict[str, dict] = {}
    rates: dict[str, float] = {}
    boots, rss, cpu_s, problems = [], [], {}, []
    rung_spans: dict[str, list[Span]] = {}
    launcher_extra: dict[str, dict] = {}
    attempted = failed = 0
    # the daemon gets one core to itself and the generator another.  Its
    # rates are not probe-normalized: on the reference host a probe of the
    # daemon's core between rungs widened their spread over ten seeds
    # (goodput 16 % -> 19 %, served per CPU-second 2 % -> 6 %).  Goodput
    # is corrected for stolen time instead (see rung_numbers)
    cores = cpus()
    daemon_cpu = cores[0]
    pin(cores[-1:])
    for name, frac, share in RUNGS:
        rate = frac * REFERENCE_CAPACITY_RPS
        n = max(int(round(rate * seconds * share)), 50)
        offsets, tenants, nfiles = schedule(ctx.rung_seeds[name], rate, n)
        proc, boot_s, trace_out = boot(ctx, name, traced, daemon_cpu)
        boots.append(boot_s)
        try:
            base = warm_up()
            cpu0 = proc_cpu_s(proc.pid)
            stolen = steal_s({daemon_cpu})
            d = asyncio.run(drive(SOCKET, offsets, tenants, nfiles,
                                  timeout_s=60.0 + 10.0 * float(offsets[-1])))
            stolen = steal_s({daemon_cpu}) - stolen
            cpu_s[name] = proc_cpu_s(proc.pid) - cpu0
            rss.append(proc_peak_rss_mb(proc.pid))
        finally:
            code, report = stop(proc)
        rungs[name] = rung_numbers(d, stolen)
        rungs[name]["cpu_ms_per_req"] = cpu_s[name] * 1e3 / n
        rungs[name]["valid"] = rungs[name]["gen_late_p99_ms"] <= LATE_LIMIT_MS
        rates[name] = rate
        bad = check_rung(d, code, report, gated=name in GATED, base=base)
        problems.extend(f"{name}: {p}" for p in bad)
        if name in GATED:
            attempted += n
            failed += n - rungs[name]["succeeded"]
        elif bad:
            # shedding over capacity is the design; broken output is not
            attempted += n
            failed += n
        if traced:
            header, spans = load_spans(trace_out)
            shift = len(launcher_extra) * _SID_STRIDE
            spans = [dataclasses.replace(s, sid=s.sid + shift,
                                         parent=None if s.parent is None else s.parent + shift)
                     for s in spans]
            rung_spans[name] = spans
            launcher_extra[name] = header
    high, over = rungs["high"], rungs["over"]
    served_per_cpu_s = (sum(rungs[r]["succeeded"] for r in SUB_CAPACITY)
                        / sum(cpu_s[r] for r in SUB_CAPACITY))
    detail = {
        "over.goodput_rps": over["goodput_rps"],
        "raw.over.goodput_rps": over["raw_goodput_rps"],
        "served_per_cpu_s": served_per_cpu_s,
        "max_rate_rps": max_rate(rungs, rates),
        "low.settle_p50_ms": rungs["low"]["settle_p50_ms"],
        "low.settle_p99_ms": rungs["low"]["settle_p99_ms"],
        "high.settle_p50_ms": high["settle_p50_ms"],
        "high.settle_p99_ms": high["settle_p99_ms"],
        "high.ack_p99_ms": high["ack_p99_ms"],
        "rungs": rungs,
        "rates_rps": rates,
        "settle_limit": {"percentile": SETTLE_LIMIT_PCT, "ms": SETTLE_LIMIT_MS},
    }
    result = {
        "primary": detail["over.goodput_rps"],
        "secondary": served_per_cpu_s,
        "setup_s": median(boots),
        "setup_samples_s": boots,
        "peak_rss_mb": max(rss),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "detail": detail,
        "layer_untraced": {
            "service.daemon.cpu_ms_per_req": high["cpu_ms_per_req"],
            "service.admission.queue_depth_max": high["queue_depth_max"],
            "service.admission.queue_depth_mean": high["queue_depth_mean"],
            "service.admission.shed": sum(r["shed"] for r in rungs.values()),
        },
    }
    if traced:
        result["extra_spans"] = [s for spans in rung_spans.values() for s in spans]
        result["launcher"] = launcher_extra
        result["reserve_per_request_s"] = scheduler_time_per_request(rung_spans["over"])
    return result


def scheduler_time_per_request(spans: list[Span]) -> list[float]:
    """Bandwidth-book time (``committed_now`` + ``reserve``) of each
    reservation, in the order the daemon made them."""
    calls = {"vc.scheduler.BandwidthScheduler.committed_now": [],
             "vc.scheduler.BandwidthScheduler.reserve": []}
    for s in sorted(spans, key=lambda s: s.start):
        if s.name in calls:
            calls[s.name].append(s.duration)
    return [a + b for a, b in zip(*calls.values())]


def install_tracing(tracer: Tracer) -> None:
    """Nothing to wrap in the generator: the launcher traces the daemon."""


def _per_call(spans: list[Span], names: set[str], scale: float) -> float:
    durs = [s.duration for s in spans if s.name in names]
    return scale * float(np.mean(durs)) if durs else 0.0


def layer_metrics(spans: list[Span], result: dict) -> dict[str, float]:
    """Span-derived numbers from the traced daemons, mean per call (or per
    request).  Reservation-cost growth comes from the ``over`` rung (the
    most requests on one daemon), loop lag from the ``high`` rung."""
    ms, us = 1e3, 1e6
    extra = result["launcher"]
    rungs = result["detail"]["rungs"]
    # the launcher's tally also covers each daemon's warm-up requests
    n_req = sum(r["n"] for r in rungs.values()) + WARMUP_REQUESTS * len(rungs)
    per_req = result["reserve_per_request_s"]
    tenth = max(len(per_req) // 10, 1)
    growth = (float(np.mean(per_req[-tenth:])) / float(np.mean(per_req[:tenth]))
              if per_req else 0.0)
    settle_names = {"sched.base.TransferScheduler.on_settle",
                    "sched.base.TransferScheduler.note_service_s",
                    "sched.base.TransferScheduler.observe"}
    return {
        "vc.oscars.reserve_ms": _per_call(
            spans, {"vc.oscars.OscarsIDC.create_reservation_with_retry"}, ms),
        "net.routing.path_ms": _per_call(spans, {"net.routing.least_congested_path"}, ms),
        "vc.scheduler.committed_now_ms": _per_call(
            spans, {"vc.scheduler.BandwidthScheduler.committed_now"}, ms),
        "vc.scheduler.reserve_ms": _per_call(
            spans, {"vc.scheduler.BandwidthScheduler.reserve"}, ms),
        "vc.scheduler.reserve_growth": growth,
        "gridftp.reliability.execute_us": _per_call(
            spans, {"gridftp.reliability.ReliableTransferService.execute"}, us),
        "service.api.codec_us": _per_call(
            spans, {"service.api.decode_line", "service.api.encode_line"}, us),
        "sched.admit_us": _per_call(spans, {"sched.base.TransferScheduler.admit"}, us),
        "service.daemon.loop_lag_p99_ms": extra["high"]["loop_lag_p99_ms"],
        "sched.plan_us": _per_call(spans, {"sched.fcfs.FcfsScheduler.plan"}, us),
        "sched.dispatch_us": _per_call(
            spans, {"sched.base.TransferScheduler.next_request"}, us),
        "sched.settle_us": sum(
            _per_call(spans, {name}, us) for name in sorted(settle_names)),
        "service.daemon.vsleep_ms_per_req":
            sum(h["vsleep_s"] for h in extra.values()) * ms / n_req,
    }
