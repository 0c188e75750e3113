"""Campaign definitions: chaos, profiling, and managed-service chaos.

Everything here used to live inside ``sim/scenarios.py``; it is now a
layer of the experiment framework so every campaign family shares one
runner, one seeding rule, and one artifact cache:

* :class:`ChaosConfig` / :class:`ChaosReport` / :func:`run_chaos` — one
  fault-injection campaign over the full VC + transfer stack, against
  its fault-free twin (extension Ext-O);
* :func:`chaos_sweep` — the rejection x timeout x flap-rate grid,
  expressed as an :class:`~repro.experiments.spec.ExperimentSpec` and
  expanded through the shared :class:`~repro.experiments.runner.Runner`
  (``seed_mode="shared"``: every grid point replays the same seed, the
  historical contract that isolates the swept knob);
* :class:`ManagedChaosConfig` / :func:`run_managed_chaos` — the
  Globus-Online-style managed service under the *same*
  :class:`~repro.faults.injector.FaultInjector` schedules the fluid
  simulator uses (extension Ext-L);
* :class:`ProfileReport` / :func:`profile_campaign` — the instrumented
  allocator campaign behind ``repro-gridftp profile``;
* :func:`managed_campaign_from_workload`, which sizes a managed-service
  campaign from upstream synthesized workloads (measurement -> model ->
  decision).

Reports serialize losslessly to JSON (:func:`report_to_dict` /
:func:`report_from_dict`), which is what lets chaos cells cross process
boundaries under ``--jobs N`` and live in the artifact cache without
changing a single reported bit.  Non-finite floats go through the
artifact codec, :func:`~repro.experiments.cache.encode_nonfinite` /
:func:`~repro.experiments.cache.decode_nonfinite`, and the
availability-vs-goodput Pareto reader over cached grids is
:func:`~repro.experiments.registry.pareto_front_points`: both live
outside this module because pool cells that never run the simulator
call them, and importing this module loads the simulator.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.rng import ensure_rng
from ..faults.injector import FaultInjector, merge_intervals, storm_injector
from ..faults.recovery import BackoffPolicy, RecoveryStats
from ..faults.spec import FaultKind
from ..gridftp.client import TransferJob
from ..gridftp.reliability import RestartPolicy, ScheduledOutages
from ..gridftp.transfer_service import ManagedTransferService, TaskState
from ..net.topology import esnet_like
from ..sim.experiment import FluidSimulator, default_dtns
from ..sim.probe import SimProbe
from ..vc.oscars import OscarsIDC, ReservationRejected, ReservationRequest
from ..vc.policy import FallbackMode, FallbackPolicy
from .cache import decode_nonfinite, encode_nonfinite
from .registry import MANAGED_RATE_BPS
from .runner import Runner
from .spec import ExperimentSpec

if TYPE_CHECKING:
    from ..sched.base import TransferScheduler

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "run_chaos",
    "chaos_sweep",
    "chaos_params_from_config",
    "chaos_config_from_params",
    "report_to_dict",
    "report_from_dict",
    "ManagedChaosConfig",
    "ManagedChaosReport",
    "run_managed_chaos",
    "managed_config_from_params",
    "ProfileReport",
    "profile_campaign",
    "managed_campaign_from_workload",
]


def _require_finite(config: Any) -> None:
    """Refuse a NaN or infinite float field: a NaN fault knob passes every
    range rule downstream, and a NaN flap duration never ends the fault
    injector's draw loop."""
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


# -- chaos: fault-injection campaigns over the full VC + transfer stack ------


@dataclasses.dataclass(frozen=True)
class ChaosConfig:
    """One chaos campaign: a VC-backed session under injected faults.

    ``n_jobs`` transfers between ``src`` and ``dst`` each request a
    ``vc_rate_bps`` circuit; the fault knobs inject IDC rejections
    (retried with ``backoff``), signalling timeouts of
    ``setup_extra_delay_s`` (long enough to trip ``fallback``'s
    deadline), mid-transfer circuit flaps (recovered through ``restart``
    markers), and optional endpoint outages at the destination site.
    """

    n_jobs: int = 10
    job_bytes: float = 10e9
    job_spacing_s: float = 600.0
    first_submit_s: float = 200.0
    src: str = "NERSC"
    dst: str = "ORNL"
    vc_rate_bps: float = 3e9
    streams: int = 8
    #: per-request fault probabilities (Bernoulli per createReservation)
    rejection_prob: float = 0.0
    setup_timeout_prob: float = 0.0
    setup_extra_delay_s: float = 240.0
    #: time-driven faults while a job rides its circuit
    flaps_per_hour: float = 0.0
    flap_duration_s: float = 20.0
    endpoint_outages_per_hour: float = 0.0
    endpoint_outage_s: float = 30.0
    fallback: FallbackPolicy = FallbackPolicy()
    backoff: BackoffPolicy = BackoffPolicy()
    restart: RestartPolicy = RestartPolicy(marker_interval_bytes=64e6, reconnect_s=5.0)

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.n_jobs < 1:
            raise ValueError("need at least one job")
        if self.job_bytes <= 0 or self.vc_rate_bps <= 0:
            raise ValueError("job size and circuit rate must be positive")

    def job_size(self, i: int) -> float:
        """Per-job size, slightly perturbed so jobs are distinguishable."""
        return self.job_bytes * (1.0 + 1e-3 * i)

    def submit_time(self, i: int) -> float:
        return self.first_submit_s + i * self.job_spacing_s

    def est_duration_s(self, i: int) -> float:
        """Fault-free transfer time at the circuit rate."""
        return self.job_size(i) * 8.0 / self.vc_rate_bps


@dataclasses.dataclass(frozen=True)
class ChaosReport:
    """What one chaos campaign did to the session, vs its clean twin."""

    n_jobs: int
    n_completed: int
    #: per-job service mode: "vc", "migrate", or "ip"
    modes: tuple[str, ...]
    #: per-job injected flap counts (0 for jobs that never rode a circuit)
    flaps_per_job: tuple[int, ...]
    #: fraction of jobs that rode their circuit end to end, flap-free
    availability: float
    goodput_clean_bps: float
    goodput_chaos_bps: float
    #: 1 - chaos/clean goodput (0 = unharmed)
    goodput_degradation: float
    #: completion-time inflation quantiles (chaos wall / clean wall)
    p50_inflation: float
    p99_inflation: float
    #: end-to-end walls per job, submit -> last byte, seconds
    wall_clean_s: tuple[float, ...]
    wall_chaos_s: tuple[float, ...]
    stats: RecoveryStats
    n_flaps_injected: int
    n_circuit_flaps_seen: int
    marker_rollback_bytes: float
    n_idc_rejections: int
    n_setup_timeouts: int
    flaps_per_hour: float
    #: the control-plane fault knobs this campaign ran under (sweep axes)
    rejection_prob: float = 0.0
    setup_timeout_prob: float = 0.0
    #: engine instrumentation from the chaos run (defaults: pre-probe reports)
    n_events: int = 0
    n_alloc_passes: int = 0
    mean_flows_per_pass: float = 0.0
    max_flows_touched: int = 0


def _campaign_scheduler(
    vc_rate_bps: float,
    fallback: FallbackPolicy,
    scheduler: str | None,
) -> "TransferScheduler":
    """Resolve a campaign's ``scheduler`` name to a fresh policy object.

    Campaigns take the scheduler *by name* (never by instance) so each
    run — chaos and its clean twin alike — starts from a cold policy:
    a learning scheduler must not carry one campaign's transfer log
    into the next and silently break seed-determinism.
    """
    from ..sched.base import SchedulerConfig, make_scheduler

    return make_scheduler(
        scheduler or "fcfs",
        SchedulerConfig(vc_rate_bps=vc_rate_bps),
        fallback=fallback,
    )


def _run_campaign(
    config: ChaosConfig,
    injector: FaultInjector | None,
    seed: int,
    scheduler: "TransferScheduler | None" = None,
) -> tuple[dict[int, float], list[str], list[int], RecoveryStats, FluidSimulator]:
    """One full session: reserve (with retry), fall back, flap, transfer.

    Every per-transfer decision — requested circuit bandwidth,
    reservation window, VC-vs-IP fallback — routes through
    ``scheduler`` (default: the first-come baseline, which reproduces
    the historical campaign bit for bit).  Returns per-job end-to-end
    wall seconds (submit to last byte), the per-job service modes,
    per-job injected flap counts, the recovery counters, and the
    simulator (for its flap/rollback bookkeeping).
    """
    if scheduler is None:
        scheduler = _campaign_scheduler(config.vc_rate_bps, config.fallback, None)
    topology = esnet_like()
    dtns = default_dtns(topology)
    sim = FluidSimulator(topology, dtns, restart_policy=config.restart)
    idc = OscarsIDC(topology, fault_injector=injector)
    rng = np.random.default_rng(seed + 1)  # backoff jitter draws
    stats = RecoveryStats()
    modes: list[str] = []
    flap_counts: list[int] = []
    horizon = config.submit_time(config.n_jobs - 1) + config.job_spacing_s

    job_fids: dict[int, int] = {}  # flow id -> job index
    for i in range(config.n_jobs):
        submit = config.submit_time(i)
        size = config.job_size(i)
        est = config.est_duration_s(i)
        job = TransferJob(
            submit_time=submit,
            src=config.src,
            dst=config.dst,
            size_bytes=size,
            streams=config.streams,
        )
        window_start, window_end = scheduler.reservation_window(
            submit, est, horizon_factor=2.0
        )
        request = ReservationRequest(
            src=config.src,
            dst=config.dst,
            bandwidth_bps=scheduler.rate_advice(size),
            start_time=window_start,
            end_time=window_end,
        )
        try:
            vc, _waited = idc.create_reservation_with_retry(
                request,
                request_time=submit,
                backoff=config.backoff,
                rng=rng,
                stats=stats,
            )
        except ReservationRejected:
            vc = None
        if vc is None:
            # retry budget exhausted: the transfer still runs, routed IP
            stats.n_fallbacks += 1
            job_fids[sim.submit(job)] = i
            modes.append("ip")
            flap_counts.append(0)
            continue
        decision = scheduler.decide_fallback(submit, vc.start_time)
        if decision.mode is FallbackMode.VC:
            delayed = dataclasses.replace(job, submit_time=decision.start_time)
            job_fids[sim.submit(delayed, vc=vc)] = i
            modes.append("vc")
            ride_start = decision.start_time
        elif decision.mode is FallbackMode.IP_THEN_MIGRATE:
            fid = sim.submit(job)
            job_fids[fid] = i
            sim.migrate_flow(fid, vc, decision.migrate_at)
            stats.n_fallbacks += 1
            stats.n_migrations += 1
            modes.append("migrate")
            ride_start = decision.migrate_at
        else:
            stats.n_fallbacks += 1
            job_fids[sim.submit(job)] = i
            modes.append("ip")
            flap_counts.append(0)
            continue
        # flap the circuit over the window it may actually carry the job
        n_flaps = 0
        if injector is not None:
            window_end = ride_start + 3.0 * est + 300.0
            flaps = merge_intervals(
                injector.flap_intervals(ride_start, window_end)
            )
            for t_down, t_up in flaps:
                sim.inject_circuit_flap(vc, t_down, t_up)
            n_flaps = len(flaps)
            stats.n_flaps += n_flaps
        flap_counts.append(n_flaps)

    if injector is not None:
        injector.arm(sim, 0.0, horizon)
    sim.run()

    # walls come straight off the simulator's flow-completion map: end
    # to end from the *original* submit, even for delayed/migrated jobs
    walls: dict[int, float] = {}
    for fid, i in job_fids.items():
        completion = sim.flow_completions.get(fid)
        if completion is not None:
            walls[i] = completion[1] - config.submit_time(i)
    # close the loop: the transfer log feeds the scheduler, so a
    # learning policy (predictive) trains on what the session achieved
    for i in sorted(walls):
        scheduler.observe(config.job_size(i), walls[i], modes[i])
    return walls, modes, flap_counts, stats, sim


def run_chaos(
    config: ChaosConfig, seed: int = 0, scheduler: str | None = None
) -> ChaosReport:
    """Run one chaos campaign and its fault-free twin; report the damage.

    Deterministic under ``seed``: the injector's fault schedule, the
    backoff jitter, and the simulator are all seeded, so the same call
    returns the same report — which is what lets tests assert on
    recovery behaviour rather than eyeball it.  ``scheduler`` names the
    :mod:`repro.sched` policy steering rate/window/fallback decisions
    (default ``"fcfs"``, the bit-exact historical baseline); a fresh
    policy object is built for the chaos run and another for its clean
    twin, so learning policies never leak state between the pair.
    """
    injector = storm_injector(
        seed,
        rejection_prob=config.rejection_prob,
        setup_timeout_prob=config.setup_timeout_prob,
        setup_extra_delay_s=config.setup_extra_delay_s,
        flaps_per_hour=config.flaps_per_hour,
        flap_duration_s=config.flap_duration_s,
        endpoint_outages_per_hour=config.endpoint_outages_per_hour,
        endpoint_outage_s=config.endpoint_outage_s,
        endpoint=config.dst,
    )
    chaos_walls, modes, flap_counts, stats, sim = _run_campaign(
        config,
        injector,
        seed,
        scheduler=_campaign_scheduler(config.vc_rate_bps, config.fallback, scheduler),
    )
    clean_walls, _, _, _, _ = _run_campaign(
        config,
        None,
        seed,
        scheduler=_campaign_scheduler(config.vc_rate_bps, config.fallback, scheduler),
    )

    jobs = range(config.n_jobs)
    completed = [i for i in jobs if i in chaos_walls]
    total_bits = sum(config.job_size(i) * 8.0 for i in completed)
    chaos_time = sum(chaos_walls[i] for i in completed)
    clean_done = [i for i in jobs if i in clean_walls]
    clean_bits = sum(config.job_size(i) * 8.0 for i in clean_done)
    clean_time = sum(clean_walls[i] for i in clean_done)
    goodput_chaos = total_bits / chaos_time if chaos_time > 0 else 0.0
    goodput_clean = clean_bits / clean_time if clean_time > 0 else 0.0
    both = [i for i in completed if i in clean_walls]
    inflations = (
        np.array([chaos_walls[i] / clean_walls[i] for i in both])
        if both
        else np.array([np.inf])
    )
    flapless_vc = sum(
        1 for i in jobs if modes[i] == "vc" and flap_counts[i] == 0 and i in chaos_walls
    )
    return ChaosReport(
        n_jobs=config.n_jobs,
        n_completed=len(completed),
        modes=tuple(modes),
        flaps_per_job=tuple(flap_counts),
        availability=flapless_vc / config.n_jobs,
        goodput_clean_bps=goodput_clean,
        goodput_chaos_bps=goodput_chaos,
        goodput_degradation=(
            1.0 - goodput_chaos / goodput_clean if goodput_clean > 0 else 1.0
        ),
        p50_inflation=float(np.percentile(inflations, 50)),
        p99_inflation=float(np.percentile(inflations, 99)),
        wall_clean_s=tuple(clean_walls.get(i, math.inf) for i in jobs),
        wall_chaos_s=tuple(chaos_walls.get(i, math.inf) for i in jobs),
        stats=stats,
        n_flaps_injected=sum(flap_counts),
        n_circuit_flaps_seen=sim.n_circuit_flaps,
        marker_rollback_bytes=sim.marker_rollback_bytes,
        n_idc_rejections=injector.count(FaultKind.IDC_REJECTION) if injector else 0,
        n_setup_timeouts=injector.count(FaultKind.VC_SETUP_TIMEOUT) if injector else 0,
        flaps_per_hour=config.flaps_per_hour,
        rejection_prob=config.rejection_prob,
        setup_timeout_prob=config.setup_timeout_prob,
        n_events=sim.probe.n_events,
        n_alloc_passes=sim.probe.n_alloc_passes,
        mean_flows_per_pass=sim.probe.mean_flows_per_pass,
        max_flows_touched=sim.probe.max_flows_touched,
    )


# -- chaos <-> spec plumbing -------------------------------------------------

_POLICY_FIELDS: dict[str, type] = {
    "fallback": FallbackPolicy,
    "backoff": BackoffPolicy,
    "restart": RestartPolicy,
}


def chaos_params_from_config(config: ChaosConfig) -> dict[str, Any]:
    """Flatten a :class:`ChaosConfig` into a JSON-safe spec params dict."""
    out: dict[str, Any] = {}
    for f in dataclasses.fields(ChaosConfig):
        value = getattr(config, f.name)
        out[f.name] = (
            dataclasses.asdict(value) if f.name in _POLICY_FIELDS else value
        )
    return out


def chaos_config_from_params(params: Mapping[str, Any]) -> ChaosConfig:
    """Rebuild the exact :class:`ChaosConfig` a params dict describes."""
    kwargs = dict(params)
    for name, cls in _POLICY_FIELDS.items():
        if isinstance(kwargs.get(name), Mapping):
            kwargs[name] = cls(**kwargs[name])
    return ChaosConfig(**kwargs)


_TUPLE_FIELDS = ("modes", "flaps_per_job", "wall_clean_s", "wall_chaos_s")


def report_to_dict(report: ChaosReport) -> dict[str, Any]:
    """Lossless JSON-safe encoding of a :class:`ChaosReport`.

    Tuple fields are emitted as lists and non-finite walls as string
    sentinels, so the encoding is already in JSON's strict value model —
    a fresh in-process result and one read back from the artifact cache
    compare equal.
    """
    out = dataclasses.asdict(report)
    for name in _TUPLE_FIELDS:
        out[name] = list(out[name])
    return encode_nonfinite(out)


def report_from_dict(data: Mapping[str, Any]) -> ChaosReport:
    """Inverse of :func:`report_to_dict` (tuples, stats, infinities)."""
    kwargs = decode_nonfinite(dict(data))
    kwargs["stats"] = RecoveryStats(**kwargs["stats"])
    for name in _TUPLE_FIELDS:
        kwargs[name] = tuple(kwargs[name])
    return ChaosReport(**kwargs)


def chaos_sweep(
    flap_rates_per_hour: Sequence[float],
    config: ChaosConfig | None = None,
    seed: int = 0,
    rejection_probs: Sequence[float] | None = None,
    timeout_probs: Sequence[float] | None = None,
    runner: Runner | None = None,
) -> list[ChaosReport]:
    """Sweep fault knobs; one deterministic campaign per grid point.

    ``flap_rates_per_hour`` is always swept.  ``rejection_probs`` and
    ``timeout_probs`` optionally add IDC control-plane axes; omitted axes
    stay pinned at ``config``'s value (default: a moderately hostile IDC —
    30% rejections, 20% setup timeouts), so the single-axis call isolates
    how goodput and completion-time inflation scale with data-plane
    instability while the control-plane noise stays fixed.

    Reports come back in ``itertools.product`` order — rejection outermost,
    then timeout, then flap rate — so a pure flap sweep keeps its
    historical ordering and a full grid reshapes to
    ``(len(rejection_probs), len(timeout_probs), len(flap_rates))``.

    The grid is expanded through the shared experiment Runner (pass your
    own ``runner`` for parallel execution or an artifact cache); every
    grid point replays the same ``seed`` — the historical contract that
    makes points differ only by the swept knob.
    """
    base = config or ChaosConfig(rejection_prob=0.3, setup_timeout_prob=0.2)
    rejections = (
        [base.rejection_prob] if rejection_probs is None else list(rejection_probs)
    )
    timeouts = (
        [base.setup_timeout_prob] if timeout_probs is None else list(timeout_probs)
    )
    params = chaos_params_from_config(base)
    axes = {
        "rejection_prob": [float(r) for r in rejections],
        "setup_timeout_prob": [float(t) for t in timeouts],
        "flaps_per_hour": [float(r) for r in flap_rates_per_hour],
    }
    for axis, values in axes.items():
        params.pop(axis, None)
        for value in values:  # refused here, not as a quarantined cell
            storm_injector(seed, **{axis: value})
    spec = ExperimentSpec(
        name="chaos-sweep",
        scenario="chaos",
        params=params,
        axes=axes,
        seed=seed,
        seed_mode="shared",
    )
    campaign = (runner or Runner()).run(spec)
    return [report_from_dict(cell) for cell in campaign.results()]


# -- managed service under chaos (extension Ext-L) ---------------------------


@dataclasses.dataclass(frozen=True)
class ManagedChaosConfig:
    """A Globus-Online-style session under injected circuit flaps.

    ``n_tasks`` tasks of ``files_per_task`` x ``file_bytes`` move at the
    endpoint pair's ``rate_bps`` with bounded ``concurrency``; a
    :class:`~repro.faults.injector.FaultInjector` draws CIRCUIT_FLAP
    schedules per task (the same spec family the fluid simulator's chaos
    campaigns use), and each flap interrupts the in-flight file, which
    resumes from its last restart marker.
    """

    n_tasks: int = 15
    files_per_task: int = 10
    file_bytes: float = 32e9
    rate_bps: float = MANAGED_RATE_BPS
    concurrency: int = 3
    submit_spacing_s: float = 240.0
    flaps_per_hour: float = 0.0
    flap_duration_s: float = 25.0
    marker_interval_bytes: float = 64e6
    reconnect_s: float = 4.0
    max_attempts_per_file: int = 200
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.n_tasks < 1 or self.files_per_task < 1:
            raise ValueError("need at least one task and one file")
        if self.file_bytes <= 0 or self.rate_bps <= 0:
            raise ValueError("file size and rate must be positive")

    def clean_task_wall_s(self) -> float:
        """Fault-free wall clock of one task's file batch."""
        return self.files_per_task * self.file_bytes * 8.0 / self.rate_bps


@dataclasses.dataclass(frozen=True)
class ManagedChaosReport:
    """Dashboard numbers for one managed-service chaos campaign."""

    n_tasks: int
    n_succeeded: int
    n_failed: int
    n_expired: int
    n_files_moved: int
    n_flaps_injected: int
    n_flaps_recovered: int
    #: total wall over total clean wall for the files actually moved
    inflation: float
    flaps_per_hour: float
    n_events: int

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def managed_config_from_params(params: Mapping[str, Any]) -> ManagedChaosConfig:
    return ManagedChaosConfig(**dict(params))


def run_managed_chaos(
    config: ManagedChaosConfig, seed: int = 0, scheduler: str | None = None
) -> ManagedChaosReport:
    """Run the managed service under ``config``'s injected flap schedules.

    Deterministic under ``seed``: the injector draws each task's flap
    intervals over its possible ride window before the service runs, and
    the schedules are bound to the tasks exactly the way the fluid
    simulator's chaos campaigns flap their circuits.  ``scheduler``
    names the :mod:`repro.sched` policy whose rate advice sizes the
    endpoint-pair rate (default ``"fcfs"``: the nominal ``rate_bps``,
    bit-exact with the historical campaign).
    """
    injector = storm_injector(
        seed,
        flaps_per_hour=config.flaps_per_hour,
        flap_duration_s=config.flap_duration_s,
    )
    sched = _campaign_scheduler(config.rate_bps, FallbackPolicy(), scheduler)
    service = ManagedTransferService(
        rate_for=lambda _s, _d: sched.rate_advice(config.file_bytes),
        concurrency=config.concurrency,
        restart_policy=RestartPolicy(
            marker_interval_bytes=config.marker_interval_bytes,
            reconnect_s=config.reconnect_s,
        ),
        max_attempts_per_file=config.max_attempts_per_file,
    )
    clean_wall = config.clean_task_wall_s()
    n_flaps = 0
    for k in range(config.n_tasks):
        submitted = k * config.submit_spacing_s
        tid = service.submit(
            src_host=0,
            dst_host=1,
            file_sizes=[config.file_bytes] * config.files_per_task,
            submitted_at=submitted,
            deadline_s=config.deadline_s,
        )
        if injector is not None:
            # the window the task could plausibly occupy, chaos included
            window_end = submitted + 3.0 * clean_wall + 600.0
            schedule = ScheduledOutages(
                injector.flap_intervals(submitted, window_end)
            )
            service.bind_outages(tid, schedule)
            n_flaps += schedule.n_flaps
    probe = SimProbe()
    log = service.run(rng=ensure_rng(seed), probe=probe)
    states = service.states()
    clean_file_wall = config.file_bytes * 8.0 / config.rate_bps
    inflation = (
        float(log.duration.sum()) / (len(log) * clean_file_wall)
        if len(log)
        else math.inf
    )
    return ManagedChaosReport(
        n_tasks=config.n_tasks,
        n_succeeded=states[TaskState.SUCCEEDED],
        n_failed=states[TaskState.FAILED],
        n_expired=states[TaskState.EXPIRED],
        n_files_moved=len(log),
        n_flaps_injected=n_flaps,
        n_flaps_recovered=service.n_flaps_recovered,
        inflation=inflation,
        flaps_per_hour=config.flaps_per_hour,
        n_events=probe.n_events,
    )


# -- profiling: observe what the incremental engine actually does ------------


@dataclasses.dataclass(frozen=True)
class ProfileReport:
    """Instrumented campaign run, optionally raced against the oracle."""

    n_jobs: int
    n_completed: int
    allocator: str
    wall_s: float
    probe: SimProbe
    #: wall-clock of the identical campaign on the oracle path (if raced)
    oracle_wall_s: float | None = None

    @property
    def speedup(self) -> float | None:
        if self.oracle_wall_s is None or self.wall_s <= 0:
            return None
        return self.oracle_wall_s / self.wall_s

    def format(self) -> str:
        lines = [
            f"profile: {self.n_jobs} jobs, {self.n_completed} completed"
            f" ({self.allocator} allocator)",
            f"  wall clock          {self.wall_s:>12.3f} s",
            self.probe.format_table(),
        ]
        if self.oracle_wall_s is not None:
            lines.append(f"  oracle wall         {self.oracle_wall_s:>12.3f} s")
            lines.append(f"  speedup             {self.speedup:>12.2f}x")
        return "\n".join(lines)


def _profile_jobs(n_jobs: int, seed: int) -> list[TransferJob]:
    """A heavily concurrent all-to-all campaign for profiling runs."""
    rng = np.random.default_rng(seed)
    sites = ["NERSC", "ANL", "ORNL", "SLAC", "BNL", "LANL", "NICS"]
    jobs = []
    for _ in range(n_jobs):
        src, dst = rng.choice(len(sites), size=2, replace=False)
        jobs.append(
            TransferJob(
                submit_time=float(rng.uniform(0.0, n_jobs * 2.0)),
                src=sites[int(src)],
                dst=sites[int(dst)],
                size_bytes=float(rng.uniform(2e9, 20e9)),
                streams=int(rng.choice([1, 2, 4, 8])),
            )
        )
    jobs.sort(key=lambda j: j.submit_time)
    return jobs


def profile_campaign(
    n_jobs: int = 300,
    seed: int = 0,
    allocator: str = "incremental",
    compare_oracle: bool = False,
) -> ProfileReport:
    """Run an instrumented synthetic campaign; report counters and wall time.

    The workload is an all-to-all mix of best-effort science transfers with
    heavy overlap, so the dirty-set machinery has real components to chew
    on.  ``compare_oracle=True`` re-runs the identical campaign through the
    full-recompute oracle and reports the speedup; it is refused when
    ``allocator="oracle"``, which would race the oracle against itself.
    """
    import time as _time

    if n_jobs < 1:
        raise ValueError("need at least one job")
    if compare_oracle and allocator == "oracle":
        raise ValueError(
            "compare_oracle races the oracle against itself; "
            "profile the incremental allocator instead"
        )

    def _run(mode: str) -> tuple[float, SimProbe, int]:
        topology = esnet_like()
        dtns = default_dtns(topology)
        sim = FluidSimulator(topology, dtns, allocator=mode)
        for job in _profile_jobs(n_jobs, seed):
            sim.submit(job)
        t0 = _time.perf_counter()
        result = sim.run()
        return _time.perf_counter() - t0, result.probe, len(result.log)

    wall, probe, n_done = _run(allocator)
    oracle_wall = None
    if compare_oracle:
        oracle_wall, _, _ = _run("oracle")
    return ProfileReport(
        n_jobs=n_jobs,
        n_completed=n_done,
        allocator=allocator,
        wall_s=wall,
        probe=probe,
        oracle_wall_s=oracle_wall,
    )


# -- measurement -> model -> decision: managed campaigns from workloads -----


def managed_campaign_from_workload(
    params: Mapping[str, Any], seed: int, artifacts: Mapping[str, Any]
) -> dict[str, Any]:
    """Run managed-service chaos campaigns sized from measured workloads.

    Each upstream ``synth`` cell is treated as a measured workload: its
    mean file size (``total_gbytes / n_transfers``) and median achieved
    throughput (``p50_tput_mbps``) parameterize one
    :class:`ManagedChaosConfig`, which runs under this cell's fault
    knobs (``flaps_per_hour`` and friends from ``params``).  The result
    aggregates availability (tasks succeeded over tasks submitted) and
    goodput (mean per-source rate deflated by completion-time
    inflation) so a downstream ``pareto_front`` stage can consume it
    directly.
    """
    sources: list[dict[str, Any]] = []
    total_tasks = 0
    total_succeeded = 0
    for dep in sorted(artifacts):
        for artifact in artifacts[dep]:
            result = artifact.result
            if (
                not isinstance(result, Mapping)
                or "n_transfers" not in result
                or "total_gbytes" not in result
            ):
                continue  # not a workload cell (skip, don't fail the mix)
            n_transfers = max(int(result["n_transfers"]), 1)
            file_bytes = max(
                float(result["total_gbytes"]) * 1e9 / n_transfers, 1e6
            )
            rate_bps = max(
                float(result.get("p50_tput_mbps", 100.0)) * 1e6, 1e6
            )
            config = ManagedChaosConfig(
                n_tasks=int(params.get("n_tasks", 4)),
                files_per_task=int(params.get("files_per_task", 3)),
                file_bytes=file_bytes,
                rate_bps=rate_bps,
                concurrency=int(params.get("concurrency", 2)),
                submit_spacing_s=float(params.get("submit_spacing_s", 240.0)),
                flaps_per_hour=float(params.get("flaps_per_hour", 0.0)),
                flap_duration_s=float(params.get("flap_duration_s", 25.0)),
            )
            report = run_managed_chaos(config, seed=seed)
            goodput = (
                rate_bps / report.inflation
                if math.isfinite(report.inflation) and report.inflation > 0
                else 0.0
            )
            total_tasks += report.n_tasks
            total_succeeded += report.n_succeeded
            sources.append(
                {
                    "source": dep,
                    "index": artifact.index,
                    "coords": dict(artifact.coords),
                    "dataset": result.get("dataset"),
                    "file_bytes": file_bytes,
                    "rate_bps": rate_bps,
                    "availability": report.n_succeeded / report.n_tasks,
                    "goodput_bps": goodput,
                    "inflation": report.inflation,
                    "n_files_moved": report.n_files_moved,
                    "n_flaps_injected": report.n_flaps_injected,
                }
            )
    if not sources:
        raise ValueError(
            "no upstream workload cells (need synth results with "
            f"n_transfers/total_gbytes); needs resolved: {sorted(artifacts)}"
        )
    return encode_nonfinite(
        {
            "availability": total_succeeded / total_tasks,
            "goodput_bps": float(
                np.mean([s["goodput_bps"] for s in sources])
            ),
            "flaps_per_hour": float(params.get("flaps_per_hour", 0.0)),
            "n_sources": len(sources),
            "sources": sources,
        }
    )
