"""Workload ``sweep_campaign``: the research loop, cold and warm.

``Runner(jobs=nproc)`` with the result cache and checkpoint journal on
runs a pipeline shaped like ``examples/specs/sched_compare.toml``: a
``service_loadtest`` sim-twin grid over scheduler x rate x replicate,
then ``latency_sweep`` and ``pareto_front`` over it.  A cold pass (fresh
cache: execute, cache writes, journal) is followed by warm passes over
the same cache (all hits), so one layer is measured writing and reading.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time

from .common import PROBE_REFERENCE_S, cpus, derive, median, pin, probe_s, steal_s
from .tracer import Span, Tracer, group_busy_s, self_times

NAME = "sweep_campaign"
#: the grid of ``examples/specs/sched_compare.toml``: its schedulers, its
#: rates (1.0 is the overload point, where the twin sheds and defers)
#: and its 240 requests per cell
SCHEDULERS = ("fcfs", "predictive", "global")
RATES = (0.25, 0.5, 1.0)
N_REQUESTS = 240
#: the replicate axis sizes a cold pass.  On the reference host (2-vCPU
#: Xeon) one replicate (9 grid cells) gives a 0.12 s pass, about two
#: thirds of it fixed cost (pool start-up, journal); eight (72 cells) a
#: 0.3-0.5 s pass in which the workers are busy two thirds of the time
REPLICATES = 8
#: warm passes after each cold pass (a warm pass is ~100x cheaper)
WARM_PER_COLD = 20

_GRID_PARAMS = {
    "mode": "sim",
    "arrivals": "poisson",
    "n_requests": N_REQUESTS,
    "workers": 4,
    "queue_limit": 12,
    "tenant_quota": 6,
    "invalid_frac": 0.05,
    "tight_deadline_frac": 0.25,
}


def pipeline_dict(seed: int) -> dict:
    return {
        "name": "perfbench-sweep",
        "seed": seed,
        "stages": [
            {
                "name": "grid",
                "scenario": "service_loadtest",
                "params": dict(_GRID_PARAMS),
                "axes": {
                    "scheduler": list(SCHEDULERS),
                    "rate_per_s": list(RATES),
                    "replicate": list(range(REPLICATES)),
                },
            },
            {"name": "latency", "scenario": "latency_sweep", "needs": ["grid"]},
            {"name": "front", "scenario": "pareto_front", "needs": ["grid"]},
        ],
    }


class Context:
    def __init__(self, seed: int, workdir: str) -> None:
        from repro.experiments.registry import get_scenario
        from repro.experiments.runner import Runner  # noqa: F401
        from repro.experiments.spec import PipelineSpec

        # resolve the scenarios now, so their imports count as set-up
        for stage in ("service_loadtest", "latency_sweep", "pareto_front"):
            get_scenario(stage)
        from repro.service import loadtest  # noqa: F401

        self.pipeline = PipelineSpec.from_dict(pipeline_dict(derive(seed, 4)))
        self.cache_dir = os.path.join(workdir, "cache")
        self.jobs = os.cpu_count() or 1


def _runner(ctx: Context):
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import Runner

    return Runner(
        jobs=ctx.jobs,
        cache=ResultCache(ctx.cache_dir),
        checkpoint_dir=os.path.join(ctx.cache_dir, ".checkpoints"),
    )


def results_of(result) -> dict:
    """stage -> [(key, result)] in cell order: what cold and warm must share."""
    return {
        name: [(c.key, c.result) for c in campaign.cells]
        for name, campaign in result.stages.items()
    }


def check_cold(result) -> list[str]:
    """Every cell ran and every twin report still validates."""
    from repro.service.loadtest import LoadTestReport

    problems = []
    if result.n_failed:
        problems.append(f"{result.n_failed} quarantined cell(s) in the cold pass")
    if result.n_executed != result.n_cells:
        problems.append(
            f"cold pass executed {result.n_executed} of {result.n_cells} cells"
        )
    for cell in result.stage("grid").cells:
        if cell.result is None:
            continue
        fields = {k: v for k, v in cell.result.items()
                  if k not in ("n_settled", "shed_fraction")}
        try:
            LoadTestReport(**fields).validate()
        except (AssertionError, TypeError) as exc:
            problems.append(f"grid cell {cell.index}: {exc}")
    return problems


def check_warm(cold, warm) -> list[str]:
    """The warm pass is all hits and reproduces the cold pass exactly."""
    problems = []
    if warm.n_executed:
        problems.append(f"warm pass executed {warm.n_executed} cell(s)")
    if warm.n_cached != warm.n_cells:
        problems.append(f"warm pass hit {warm.n_cached} of {warm.n_cells} cells")
    if results_of(warm) != results_of(cold):
        problems.append("warm results differ from the cold pass")
    return problems


def measure(ctx: Context, seconds: float, tracer: Tracer | None = None) -> dict:
    span = tracer.span if tracer is not None else (lambda *a: contextlib.nullcontext())
    cores = cpus()
    cold_rates, warm_rates, exec_s, busy = [], [], [], []
    raw_cold, raw_warm = [], []
    cell_ms: dict[str, list[float]] = {s: [] for s in SCHEDULERS}
    problems: list[str] = []
    attempted = failed = quarantined = 0
    cold_passes = warm_passes = 0
    hits = lookups = worker_cells = 0
    worker_s = 0.0
    deadline = time.perf_counter() + seconds
    while cold_passes < 2 or time.perf_counter() < deadline:
        shutil.rmtree(ctx.cache_dir, ignore_errors=True)
        runner = _runner(ctx)
        stolen = steal_s(cores)
        t0 = time.perf_counter()
        with span("bench.sweep.cold", "bench"):
            cold = runner.run_pipeline(ctx.pipeline)
        wall = time.perf_counter() - t0
        # a cold pass keeps every core busy: the time the hypervisor took
        # from them, on average, is time the pass could not run (counted
        # in 10 ms ticks; at most half the pass is taken off)
        stolen = (steal_s(cores) - stolen) / len(cores)
        cold_passes += 1
        raw_cold.append(cold.n_cells / wall)
        cold_rates.append(cold.n_cells / max(wall - stolen, 0.5 * wall))
        ran = [c for stage in cold.stages.values() for c in stage.cells
               if not c.cached and c.ok]
        exec_s.append(sum(c.wall_s for c in ran))
        busy.append(exec_s[-1] / (ctx.jobs * wall))
        for c in cold.stage("grid").cells:
            cell_ms[c.coords["scheduler"]].append(c.wall_s * 1e3)
        worker_s += exec_s[-1]
        worker_cells += len(ran)
        quarantined += cold.n_failed
        attempted += cold.n_cells
        bad = check_cold(cold)
        failed += cold.n_failed or (cold.n_cells if bad else 0)
        problems.extend(bad)
        # warm passes never start a worker: run them and their probes on
        # one core, then give the next cold pass every core again
        pin(cores[:1])
        before = probe_s()
        batch = []
        for _ in range(WARM_PER_COLD):
            t0 = time.perf_counter()
            with span("bench.sweep.warm", "bench"):
                warm = _runner(ctx).run_pipeline(ctx.pipeline)
            wall = time.perf_counter() - t0
            warm_passes += 1
            batch.append(warm.n_cells / wall)
            hits += warm.n_cached
            lookups += warm.n_cells
            quarantined += warm.n_failed
            attempted += warm.n_cells
            bad = check_warm(cold, warm)
            failed += warm.n_cells if bad else 0
            problems.extend(bad)
        speed = (before + probe_s()) / (2.0 * PROBE_REFERENCE_S)
        pin(cores)
        raw_warm.extend(batch)
        warm_rates.extend(rate * speed for rate in batch)
    shutil.rmtree(ctx.cache_dir, ignore_errors=True)
    n_cells = cold.n_cells
    return {
        "primary": median(cold_rates),
        "secondary": median(warm_rates),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "detail": {
            "cold_cells_per_s": median(cold_rates),
            "warm_cells_per_s": median(warm_rates),
            "raw.cold_cells_per_s": median(raw_cold),
            "raw.warm_cells_per_s": median(raw_warm),
            "cells_per_pass": n_cells,
            "cold_passes": cold_passes,
            "warm_passes": warm_passes,
            "jobs": ctx.jobs,
        },
        "cold_passes": cold_passes,
        "warm_passes": warm_passes,
        # cells run in worker processes, out of the parent's spans: the
        # share table carries them as one row beside the traced layers
        "extra_layers": {
            "cells in workers (twin: sched, service.*)": {
                "calls": worker_cells, "busy_s": worker_s, "self_s": worker_s,
            },
        },
        "layer_untraced": {
            "experiments.runner.cell_exec_s": median(exec_s),
            "experiments.runner.worker_busy_frac": median(busy),
            "service.loadtest.sim_cell_ms.fcfs": median(cell_ms["fcfs"]),
            "service.loadtest.sim_cell_ms.predictive": median(cell_ms["predictive"]),
            "service.loadtest.sim_cell_ms.global": median(cell_ms["global"]),
            "experiments.cache.hit_ratio": hits / lookups,
            "experiments.runner.quarantined": quarantined,
        },
    }


def install_tracing(tracer: Tracer) -> None:
    from repro.experiments.cache import ResultCache
    from repro.experiments.checkpoint import CampaignCheckpoint
    from repro.experiments.runner import Runner
    from repro.experiments.spec import ExperimentSpec

    tracer.patch_method(ResultCache, "get")
    tracer.patch_method(ResultCache, "put")
    tracer.patch_method(CampaignCheckpoint, "record")
    tracer.patch_method(CampaignCheckpoint, "flush")
    tracer.patch_method(ExperimentSpec, "cells")
    tracer.patch_method(Runner, "run_pipeline")
    tracer.patch_function("repro.experiments.cache", "cell_key")
    tracer.patch_function("repro.experiments.checkpoint", "spec_fingerprint")


def _pass_of(spans: list[Span]) -> dict[int, str]:
    """Span id -> the bench pass ("cold" / "warm") it ran under."""
    by_id = {s.sid: s for s in spans}
    out = {}
    for s in spans:
        p = s
        while p.parent is not None and p.parent in by_id:
            p = by_id[p.parent]
        out[s.sid] = p.name.rsplit(".", 1)[-1]
    return out


def layer_metrics(spans: list[Span], result: dict) -> dict[str, float]:
    """Span-derived layer numbers: cold-only ones per cold pass, warm-only
    ones per warm pass, the rest per pass of either kind."""
    n_cold, n_warm = result["cold_passes"], result["warm_passes"]
    phase = _pass_of(spans)
    cold = [s for s in spans if phase[s.sid] == "cold"]
    warm = [s for s in spans if phase[s.sid] == "warm"]
    selfs = self_times(spans)
    runner_self = sum(selfs[s.sid] for s in spans
                      if s.name == "experiments.runner.Runner.run_pipeline")
    return {
        "experiments.cache.put_s": group_busy_s(
            cold, ["experiments.cache.ResultCache.put"]) / n_cold,
        "experiments.checkpoint.record_s": group_busy_s(
            cold, ["experiments.checkpoint.CampaignCheckpoint.record"]) / n_cold,
        "experiments.checkpoint.flush_s": group_busy_s(
            cold, ["experiments.checkpoint.CampaignCheckpoint.flush"]) / n_cold,
        "experiments.cache.get_s": group_busy_s(
            warm, ["experiments.cache.ResultCache.get"]) / n_warm,
        "experiments.spec.expand_s": group_busy_s(
            spans, ["experiments.spec.ExperimentSpec.cells"]) / (n_cold + n_warm),
        "experiments.runner.self_s": runner_self / (n_cold + n_warm),
    }
