"""The scenario registry: names the computations a spec can declare.

A *scenario* is a plain callable ``(params: Mapping, seed: int) -> result``
where ``result`` must be JSON-serializable (it is what the artifact
cache stores and what crosses the process boundary under ``--jobs N``).
Register one with::

    @register_scenario("my-study")
    def my_study(params, seed):
        ...
        return {"metric": value}

An **analysis scenario** consumes upstream artifacts instead of (only)
computing from scratch: register it with ``needs_artifacts=True`` and a
three-argument signature — the Runner resolves the stage's ``needs``
into :class:`~repro.experiments.artifacts.ArtifactSet` objects and
passes them as the third argument::

    @register_scenario("my-analysis", needs_artifacts=True)
    def my_analysis(params, seed, artifacts):
        upstream = artifacts["workload"]          # an ArtifactSet
        sizes = [a.result["total_gbytes"] for a in upstream]
        ...

The built-in scenarios cover every campaign family the repo runs — the
chaos stack, the allocator profiler, the two mechanistic paper setups,
the managed-service (Globus-Online-style) chaos campaign, synthetic
workload generation, and the cross-grid analyses (``pareto_front``,
``managed_from_workload``) — so all of them ride the same Runner,
cache, and seeding machinery.  Their bodies import lazily, so a campaign
parent and its forked pool load only the layers their cells run: the
``pareto_front`` reader (:func:`pareto_front_points`) is defined here
and the artifact codec in :mod:`~repro.experiments.cache`, never in
:mod:`~repro.experiments.campaigns`, which loads the fluid simulator.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from typing import Any

import numpy as np

from .cache import decode_nonfinite, encode_nonfinite

__all__ = [
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "scenario_needs_artifacts",
    "pareto_front_points",
    "MANAGED_RATE_BPS",
]

#: the ``managed_service`` scenario's endpoint-pair rate when its params
#: name none (:class:`~repro.experiments.campaigns.ManagedChaosConfig`'s
#: default, which the Pareto reader needs to price such a cell)
MANAGED_RATE_BPS = 1.6e9

ScenarioFn = Callable[..., Any]

_SCENARIOS: dict[str, ScenarioFn] = {}
#: names registered with needs_artifacts=True (analysis scenarios)
_ARTIFACT_SCENARIOS: set[str] = set()


def register_scenario(
    name: str, needs_artifacts: bool = False
) -> Callable[[ScenarioFn], ScenarioFn]:
    """Decorator: expose ``fn`` to specs under ``scenario = name``.

    ``needs_artifacts=True`` marks an analysis scenario: its signature
    is ``(params, seed, artifacts)`` and the Runner only accepts it as
    a pipeline stage with resolved ``needs``.
    """

    def deco(fn: ScenarioFn) -> ScenarioFn:
        existing = _SCENARIOS.get(name)
        if existing is not None and existing is not fn:
            raise ValueError(f"scenario {name!r} is already registered")
        _SCENARIOS[name] = fn
        if needs_artifacts:
            _ARTIFACT_SCENARIOS.add(name)
        elif name in _ARTIFACT_SCENARIOS:
            raise ValueError(
                f"scenario {name!r} was registered with needs_artifacts=True"
            )
        return fn

    return deco


def get_scenario(name: str) -> ScenarioFn:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {scenario_names()}"
        ) from None


def scenario_needs_artifacts(name: str) -> bool:
    """True when ``name`` is an analysis scenario (3-arg signature)."""
    return name in _ARTIFACT_SCENARIOS


def scenario_names() -> list[str]:
    return sorted(_SCENARIOS)


# -- built-in scenarios ------------------------------------------------------


@register_scenario("chaos")
def _scenario_chaos(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """One fault-injection campaign over the VC stack (Ext-O cell).

    ``scheduler`` is a spec axis, not a :class:`ChaosConfig` field: it
    names the :mod:`repro.sched` policy steering the campaign (default
    ``"fcfs"``).  Specs without it keep their historical cache keys.
    """
    from .campaigns import chaos_config_from_params, report_to_dict, run_chaos

    kwargs = dict(params)
    scheduler = kwargs.pop("scheduler", None)
    config = chaos_config_from_params(kwargs)
    return report_to_dict(run_chaos(config, seed=seed, scheduler=scheduler))


@register_scenario("profile")
def _scenario_profile(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """Instrumented allocator campaign; probe counters in the result."""
    from .campaigns import profile_campaign

    report = profile_campaign(
        n_jobs=int(params.get("n_jobs", 300)),
        seed=seed,
        allocator=str(params.get("allocator", "incremental")),
        compare_oracle=bool(params.get("compare_oracle", False)),
    )
    return {
        "n_jobs": report.n_jobs,
        "n_completed": report.n_completed,
        "allocator": report.allocator,
        "wall_s": report.wall_s,
        "probe": report.probe.as_dict(),
        "oracle_wall_s": report.oracle_wall_s,
        "speedup": report.speedup,
    }


@register_scenario("mechanistic")
def _scenario_mechanistic(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """The Section VII-D ANL->NERSC four-category setup, summarized."""
    from ..sim.scenarios import anl_nersc_mechanistic

    mech = anl_nersc_mechanistic(
        seed=seed, n_batches=int(params.get("n_batches", 110))
    )
    categories = {}
    for name in sorted(mech.masks):
        cat = mech.category(name)
        tput = cat.throughput_bps
        categories[name] = {
            "n": len(cat),
            "median_tput_bps": float(np.median(tput)) if len(cat) else 0.0,
            "mean_duration_s": float(cat.duration.mean()) if len(cat) else 0.0,
        }
    return {"n_transfers": len(mech.log), "categories": categories}


@register_scenario("snmp")
def _scenario_snmp(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """The Section VII-C NERSC--ORNL SNMP campaign, summarized."""
    from ..sim.scenarios import nersc_ornl_snmp_experiment

    exp = nersc_ornl_snmp_experiment(
        seed=seed,
        n_tests=int(params.get("n_tests", 145)),
        days=int(params.get("days", 30)),
        cross_traffic=bool(params.get("cross_traffic", True)),
    )
    link_gbytes = {
        name: float(counts.sum()) / 1e9 for name, (_, counts) in exp.links.items()
    }
    return {
        "n_tests": len(exp.test_log),
        "n_transfers": len(exp.full_log),
        "median_test_tput_bps": float(np.median(exp.test_log.throughput_bps)),
        "link_gbytes": link_gbytes,
        "probe": exp.probe.as_dict() if exp.probe is not None else None,
    }


@register_scenario("managed_service")
def _scenario_managed(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """Globus-Online-style managed transfers under injected circuit chaos."""
    from .campaigns import managed_config_from_params, run_managed_chaos

    kwargs = dict(params)
    scheduler = kwargs.pop("scheduler", None)
    config = managed_config_from_params(kwargs)
    # inflation is math.inf when no file moved; sentinel-encode so the
    # result stays strict-JSON cacheable
    return encode_nonfinite(
        run_managed_chaos(config, seed=seed, scheduler=scheduler).as_dict()
    )


@register_scenario("sleep")
def _scenario_sleep(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """Sleep for ``sleep_s`` seconds and echo the cell identity.

    A deliberately trivial scenario for harness smoke tests — timeout
    budgets, kill/resume drills, scheduler latency — where the cell's
    *duration* is the experiment and any real computation would be
    noise.  The result is deterministic, so resumed runs compare equal.
    """
    import time as _time

    _time.sleep(float(params.get("sleep_s", 0.0)))
    return {
        "slept_s": float(params.get("sleep_s", 0.0)),
        "tag": params.get("tag"),
        "seed": int(seed),
    }


@register_scenario("pareto_front", needs_artifacts=True)
def _scenario_pareto_front(
    params: Mapping[str, Any], seed: int, artifacts: Mapping[str, Any]
) -> dict[str, Any]:
    """Availability-vs-goodput Pareto front over upstream campaign grids.

    Reads every resolved dependency (chaos grids, managed-service
    grids, ``managed_from_workload`` stages — anything whose cells
    expose an availability and a goodput), extracts one point per
    upstream cell, and reports the non-dominated set.  This is the
    cross-spec analysis ROADMAP asked for: the upstream grids are
    *read* from the artifact cache, never recomputed here.
    """
    return pareto_front_points(artifacts)


def _availability_goodput(artifact: Any) -> tuple[float, float] | None:
    """Extract an (availability, goodput_bps) point from one upstream cell.

    Understands the three grid families that expose the trade-off:
    ``chaos`` reports (availability + chaos goodput), ``managed_service``
    reports (task success rate + rate deflated by inflation), and
    ``managed_from_workload`` aggregates (which report the pair
    directly).  Anything else — a synth workload, a profile run —
    yields no point and is skipped.
    """
    result = decode_nonfinite(artifact.result)
    if not isinstance(result, Mapping):
        return None
    if "availability" in result and "goodput_chaos_bps" in result:
        availability = float(result["availability"])
        goodput = float(result["goodput_chaos_bps"])
    elif "availability" in result and "goodput_bps" in result:
        availability = float(result["availability"])
        goodput = float(result["goodput_bps"])
    elif "n_succeeded" in result and "inflation" in result:
        n_tasks = int(result.get("n_tasks", 0))
        if n_tasks < 1:
            return None
        availability = float(result["n_succeeded"]) / n_tasks
        # params only carry overrides; an omitted rate means the
        # ManagedChaosConfig default, not a zero-rate endpoint pair
        rate = float(artifact.params.get("rate_bps", MANAGED_RATE_BPS))
        inflation = float(result["inflation"])
        goodput = (
            rate / inflation
            if math.isfinite(inflation) and inflation > 0
            else 0.0
        )
    else:
        return None
    if not math.isfinite(availability):
        return None
    if not math.isfinite(goodput):
        goodput = 0.0
    return availability, goodput


def pareto_front_points(artifacts: Mapping[str, Any]) -> dict[str, Any]:
    """Availability-vs-goodput Pareto front over upstream artifact sets.

    ``artifacts`` maps dependency names to
    :class:`~repro.experiments.artifacts.ArtifactSet` objects — exactly
    what the Runner hands the ``pareto_front`` analysis scenario.  Every
    upstream cell that exposes the trade-off contributes one point
    (tagged with its source, cell index, and coords); the front is the
    non-dominated subset maximizing both axes, sorted by availability.
    The points are *read* from the upstream sets, never recomputed.
    """
    points: list[dict[str, Any]] = []
    for dep in sorted(artifacts):
        for artifact in artifacts[dep]:
            pair = _availability_goodput(artifact)
            if pair is None:
                continue
            availability, goodput = pair
            points.append(
                {
                    "source": dep,
                    "scenario": artifact.scenario,
                    "index": artifact.index,
                    "coords": dict(artifact.coords),
                    "availability": availability,
                    "goodput_bps": goodput,
                }
            )
    if not points:
        raise ValueError(
            "no upstream cell exposes an availability/goodput trade-off; "
            f"needs resolved: {sorted(artifacts)} — point them at chaos "
            "or managed-service grids"
        )
    front = [
        p
        for p in points
        if not any(
            (q["availability"] >= p["availability"])
            and (q["goodput_bps"] >= p["goodput_bps"])
            and (
                q["availability"] > p["availability"]
                or q["goodput_bps"] > p["goodput_bps"]
            )
            for q in points
        )
    ]
    front.sort(key=lambda p: (p["availability"], p["goodput_bps"]))
    return {
        "n_points": len(points),
        "n_front": len(front),
        "front": front,
        "points": points,
    }


@register_scenario("managed_from_workload", needs_artifacts=True)
def _scenario_managed_from_workload(
    params: Mapping[str, Any], seed: int, artifacts: Mapping[str, Any]
) -> dict[str, Any]:
    """Size a managed-service chaos campaign from synthesized workloads.

    The measurement -> model -> decision shape from the grid-scheduling
    literature: each upstream ``synth`` cell is a measured workload;
    its mean file size and median achieved throughput parameterize a
    :class:`~repro.experiments.campaigns.ManagedChaosConfig`, which
    then runs under this cell's fault knobs (``flaps_per_hour`` etc.).
    """
    from .campaigns import managed_campaign_from_workload

    return managed_campaign_from_workload(params, seed, artifacts)


@register_scenario("service_loadtest")
def _scenario_service_loadtest(
    params: Mapping[str, Any], seed: int
) -> dict[str, Any]:
    """Open-loop load test of the transfer daemon: latency SLOs, fault storms.

    Submissions fire on a seeded arrival schedule (Poisson, bursty
    on/off, or the paper's Fig. 6 diurnal shape) *regardless of response
    latency*, so overload shows up as shed fraction and latency-tail
    growth instead of silently slowing the arrivals the way a
    closed-loop storm does.  ``mode="live"`` (default) boots a real
    in-process daemon and measures wall-clock latency; its fault storm
    is the fault-injection params (``reject_prob``,
    ``setup_timeout_prob``, ``flaps_per_hour``) plus ``n_crashes`` crash
    ops that panic work loops at seeded arrivals, and the drain must
    exit 75 with nothing lost.  ``mode="sim"`` runs the deterministic
    discrete-event twin, whose censuses and latency quantiles are
    bit-identical across same-seed runs (it refuses ``n_crashes``).
    The report validates its own service contracts before being
    returned (submission ledger, settle census, admission bound, shed
    reasons, ``/health`` at every sample, monotone quantiles).
    """
    from ..service.loadtest import run_loadtest, run_loadtest_sim

    mode = str(params.get("mode", "live"))
    if mode == "sim":
        report = run_loadtest_sim(params, seed)
    elif mode == "live":
        report = run_loadtest(params, seed)
    else:
        raise ValueError(f"unknown loadtest mode {mode!r}")
    report.validate()
    return report.as_dict()


@register_scenario("sched_compare")
def _scenario_sched_compare(
    params: Mapping[str, Any], seed: int
) -> dict[str, Any]:
    """One seeded workload replayed through every scheduling policy.

    A cell of the scheduler-comparison campaign: the deterministic
    load-test twin runs once per policy in ``params["schedulers"]``
    (default: fcfs, predictive, global) on the *same* arrival schedule
    and request mix, so blocking-rate / goodput / makespan / fairness
    deltas are attributable to the policy alone.  Each per-scheduler
    entry carries ``availability`` + ``goodput_bps``, the pair the
    ``pareto_front`` analysis scenario consumes.
    """
    from ..sched.compare import run_sched_comparison

    return encode_nonfinite(run_sched_comparison(dict(params), seed))


@register_scenario("sched_cost_curve")
def _scenario_sched_cost_curve(
    params: Mapping[str, Any], seed: int
) -> dict[str, Any]:
    """Prediction-error cost curve for the predictive scheduler.

    Sweeps a fixed multiplicative bias around the oracle predictor
    (bias 1.0) over the deterministic load-test twin and reports what
    each level of prediction error costs in blocking rate, goodput, and
    deadline expiry — the DESIGN.md §16 methodology.
    """
    from ..sched.predictive import prediction_error_cost_curve

    kwargs = dict(params)
    biases = kwargs.pop("biases", None)
    if biases is not None:
        return encode_nonfinite(
            prediction_error_cost_curve(
                kwargs, seed, biases=tuple(float(b) for b in biases)
            )
        )
    return encode_nonfinite(prediction_error_cost_curve(kwargs, seed))


@register_scenario("latency_sweep", needs_artifacts=True)
def _scenario_latency_sweep(
    params: Mapping[str, Any], seed: int, artifacts: Mapping[str, Any]
) -> dict[str, Any]:
    """Per-offered-rate latency quantile table over load-test grids.

    Reads every resolved ``service_loadtest`` cell and tabulates its
    p50/p95/p99 latency against the cell's ``rate_per_s`` axis value
    (grouped by scheduler), so scheduler comparisons get their
    latency-vs-offered-rate curves straight from the report JSON.
    """
    from ..service.loadtest import latency_sweep_table

    return latency_sweep_table(artifacts)


@register_scenario("stream_analyze")
def _scenario_stream_analyze(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """Chunked generate -> sessionize -> summarize in bounded memory.

    The scale-out twin of ``synth``: the workload is produced as
    time-ordered chunks (:func:`~repro.workload.synth.generate_stream`)
    and folded through :class:`~repro.core.streaming.StreamAnalysis`, so
    the cell's working set stays O(chunk), independent of
    ``n_transfers``.  The result carries the full session census, the
    streamed six-number summaries, the peak accumulator footprint, and
    the pipeline's transfers/s.
    """
    import time as _time

    from ..core.streaming import StreamAnalysis
    from ..workload.synth import STREAM_BLOCK_TRANSFERS, generate_stream

    n = int(params.get("n_transfers", 100_000))
    chunk_size = int(params.get("chunk_size", 50_000))
    t0 = _time.perf_counter()
    analysis = StreamAnalysis(g=float(params.get("g", 60.0)))
    for chunk in generate_stream(
        str(params.get("dataset", "slac-bnl")),
        n,
        chunk_size,
        seed=seed,
        block_transfers=int(params.get("block_transfers", STREAM_BLOCK_TRANSFERS)),
    ):
        analysis.update(chunk)
    report = analysis.finalize()
    wall = _time.perf_counter() - t0
    return {
        **report.as_dict(),
        "chunk_size": chunk_size,
        "wall_s": wall,
        "transfers_per_s": n / wall if wall > 0 else 0.0,
    }


@register_scenario("synth")
def _scenario_synth(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """Generate a calibrated synthetic workload; report its shape."""
    from ..workload.synth import generate

    kwargs = {k: v for k, v in params.items() if k != "dataset"}
    log = generate(str(params["dataset"]), seed=seed, **kwargs)
    tput = log.throughput_bps
    return {
        "dataset": str(params["dataset"]),
        "n_transfers": len(log),
        "total_gbytes": float(log.size.sum()) / 1e9,
        "mean_duration_s": float(log.duration.mean()),
        "p50_tput_mbps": float(np.percentile(tput, 50)) / 1e6,
        "p95_tput_mbps": float(np.percentile(tput, 95)) / 1e6,
    }
