"""Workload ``sim_contention``: the fluid simulator under contention.

All-to-all seven-site job lists in the ``profile_campaign`` shape
(2-20 GB, 1/2/4/8 streams) with Poisson arrivals at a fixed rate, sized
so tens of flows share the ESnet-like backbone at once.  Every measured
repetition is one :class:`FluidSimulator` run of one of the seed's job
lists with a fresh :class:`SimProbe`.  Besides flows completed per wall second
it reports simulated flow-seconds (summed transfer durations) per wall
second: the simulator's cost per event grows with the flows in flight,
so this second rate varies less with how contended a seeded instance
happens to be.
"""

from __future__ import annotations

import time

import numpy as np

from .common import PROBE_REFERENCE_S, cpus, derive, median, pin, probe_s
from .tracer import Span, Tracer, group_busy_s, group_calls, self_times

NAME = "sim_contention"
SITES = ("NERSC", "ANL", "ORNL", "SLAC", "BNL", "LANL", "NICS")
#: jobs per instance and their Poisson arrival rate (per simulated
#: second): about 13 flows in flight on average, peaks near 30
N_JOBS = 300
ARRIVAL_RATE = 0.10
#: independent instances per seed, run in turn: how contended one seeded
#: instance happens to be moves its cost by tens of percent, the median
#: over twelve by well under a tenth (quartile spread over seeds)
N_INSTANCES = 12
#: jobs in the reduced instance replayed through the oracle allocator
N_ORACLE = 60


def make_jobs(seed: int, n: int = N_JOBS, rate: float = ARRIVAL_RATE) -> list:
    from repro.gridftp.client import TransferJob

    rng = np.random.default_rng(seed)
    t = 0.0
    jobs = []
    for _ in range(n):
        t += float(rng.exponential(1.0 / rate))
        src, dst = rng.choice(len(SITES), size=2, replace=False)
        jobs.append(
            TransferJob(
                submit_time=t,
                src=SITES[int(src)],
                dst=SITES[int(dst)],
                size_bytes=float(rng.uniform(2e9, 20e9)),
                streams=int(rng.choice([1, 2, 4, 8])),
            )
        )
    return jobs


class Context:
    def __init__(self, seed: int, workdir: str) -> None:
        from repro.net.topology import esnet_like
        from repro.sim.experiment import default_dtns

        self.topology = esnet_like()
        self.dtns = default_dtns(self.topology)
        self.instances = [make_jobs(derive(seed, 3, k)) for k in range(N_INSTANCES)]
        self.expected_bytes = [expected_link_bytes(self.topology, jobs)
                               for jobs in self.instances]


def run_once(ctx: Context, jobs: list, allocator: str = "incremental"):
    from repro.sim.experiment import FluidSimulator
    from repro.sim.probe import SimProbe

    probe = SimProbe()
    sim = FluidSimulator(ctx.topology, ctx.dtns, allocator=allocator, probe=probe)
    for job in jobs:
        sim.submit(job)
    t0 = time.perf_counter()
    result = sim.run()
    return result, probe, time.perf_counter() - t0


def expected_link_bytes(topology, jobs) -> dict:
    """Bytes each link must carry: every best-effort job on its IP route."""
    out: dict = {}
    for job in jobs:
        for key in topology.path_links(topology.path(job.src, job.dst)):
            out[key] = out.get(key, 0.0) + job.size_bytes
    return out


def check_run(jobs: list, expected: dict, result) -> list[str]:
    """Every flow completes; SNMP bytes per link equal ``expected``."""
    problems = []
    if len(result.log) != len(jobs):
        problems.append(f"{len(jobs) - len(result.log)} of {len(jobs)} flows never completed")
    elif not np.allclose(np.sort(result.log.size), np.sort([j.size_bytes for j in jobs]),
                         rtol=1e-12, atol=0.0):
        problems.append("completed sizes differ from the submitted jobs")
    seen = {key: result.snmp.counter(key).total_bytes() for key in result.snmp.keys()}
    for key in set(expected) | set(seen):
        want, got = expected.get(key, 0.0), seen.get(key, 0.0)
        if not np.isclose(got, want, rtol=1e-9, atol=1.0):
            problems.append(f"link {key}: SNMP saw {got:.6g} bytes, routed {want:.6g}")
    return problems


def check_oracle(ctx: Context) -> list[str]:
    """A reduced instance gives the same TransferLog under the oracle."""
    jobs = ctx.instances[0][:N_ORACLE]
    inc = run_once(ctx, jobs)[0].log
    ora = run_once(ctx, jobs, allocator="oracle")[0].log
    if len(inc) != len(ora):
        return [f"oracle completed {len(ora)} flows, incremental {len(inc)}"]
    return [
        f"oracle disagrees on column {col}"
        for col in ("start", "duration", "size", "streams", "local_host", "remote_host")
        if not np.allclose(inc.column(col), ora.column(col), rtol=1e-9, atol=1e-6)
    ]


def measure(ctx: Context, seconds: float, tracer: Tracer | None = None) -> dict:
    # one core for the work and the host-speed probes beside it
    pin(cpus()[:1])
    flow_rates, flow_time_rates, raw_flow_rates = [], [], []
    problems: list[str] = []
    runs = failed = 0
    host = probe_s()
    deadline = time.perf_counter() + seconds
    attempted = 0
    counts = {"sim.engine.events": 0, "sim.engine.flushes": 0,
              "net.allocator.passes": 0, "flows_touched": 0}
    while runs < N_INSTANCES or time.perf_counter() < deadline:
        k = runs % N_INSTANCES
        jobs = ctx.instances[k]
        result, sim_probe, wall = run_once(ctx, jobs)
        after = probe_s()
        speed = (host + after) / (2.0 * PROBE_REFERENCE_S)
        host = after
        raw_flow_rates.append(len(result.log) / wall)
        flow_rates.append(raw_flow_rates[-1] * speed)
        flow_time_rates.append(float(np.sum(result.log.duration)) / wall * speed)
        bad = check_run(jobs, ctx.expected_bytes[k], result)
        runs += 1
        for key, n in (("sim.engine.events", sim_probe.n_events),
                       ("sim.engine.flushes", sim_probe.n_flushes),
                       ("net.allocator.passes", sim_probe.n_alloc_passes),
                       ("flows_touched", sim_probe.n_flows_touched)):
            counts[key] += n
        attempted += len(jobs)
        if bad:
            failed += len(jobs) - len(result.log) or len(jobs)
            problems.extend(bad)
    return {
        "primary": median(flow_rates),
        "secondary": median(flow_time_rates),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "detail": {
            "sim_flows_per_s": median(flow_rates),
            "sim_flow_seconds_per_s": median(flow_time_rates),
            "raw.sim_flows_per_s": median(raw_flow_rates),
            "runs": runs,
            "jobs_per_run": N_JOBS,
            "instances": N_INSTANCES,
        },
        "runs": runs,
        # the probe is passed in, so these exist untraced too (per run)
        "layer_untraced": {
            "sim.engine.events": counts["sim.engine.events"] / runs,
            "sim.engine.flushes": counts["sim.engine.flushes"] / runs,
            "net.allocator.passes": counts["net.allocator.passes"] / runs,
            "net.allocator.flows_per_pass":
                counts["flows_touched"] / counts["net.allocator.passes"],
        },
    }


def final_checks(ctx: Context) -> list[str]:
    return check_oracle(ctx)


def install_tracing(tracer: Tracer) -> None:
    from repro.net.allocator import MaxMinAllocator
    from repro.net.snmp import SnmpCollector
    from repro.net.topology import Topology
    from repro.sim.experiment import FluidSimulator

    tracer.patch_method(FluidSimulator, "run")
    tracer.patch_method(FluidSimulator, "_advance")
    tracer.patch_method(SnmpCollector, "add_bytes")
    tracer.patch_method(MaxMinAllocator, "recompute")
    tracer.patch_method(Topology, "path")


def layer_metrics(spans: list[Span], result: dict) -> dict[str, float]:
    """Span-derived layer numbers, per simulator run."""
    n = result["runs"]
    selfs = self_times(spans)
    run_self = sum(selfs[s.sid] for s in spans
                   if s.name == "sim.experiment.FluidSimulator.run")
    out = {
        "sim.experiment.advance_s": group_busy_s(
            spans, ["sim.experiment.FluidSimulator._advance"]),
        "net.snmp.add_bytes_s": group_busy_s(
            spans, ["net.snmp.SnmpCollector.add_bytes"]),
        "net.snmp.deposits": group_calls(spans, ["net.snmp.SnmpCollector.add_bytes"]),
        "net.allocator.recompute_s": group_busy_s(
            spans, ["net.allocator.MaxMinAllocator.recompute"]),
        "net.topology.path_s": group_busy_s(spans, ["net.topology.Topology.path"]),
        "net.topology.path_calls": group_calls(spans, ["net.topology.Topology.path"]),
        "sim.experiment.self_s": run_self,
    }
    return {k: v / n for k, v in out.items()}
