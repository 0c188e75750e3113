"""The campaign runner: expand a spec, execute cells, collect results.

One :class:`Runner` drives every campaign family (chaos, profile,
mechanistic, SNMP, managed-service, synth) through the same pipeline:

1. expand the :class:`~repro.experiments.spec.ExperimentSpec` into cells
   with deterministic per-cell seeds;
2. satisfy what it can from the content-addressed
   :class:`~repro.experiments.cache.ResultCache` and, on a resumed run,
   from the :class:`~repro.experiments.checkpoint.CampaignCheckpoint`
   journal (which restores quarantined cells the cache never stores);
3. execute the rest: one **ready-set scheduler** cuts batches of cells
   and hands each to one of two executors, picked by ``jobs``:

   * ``jobs == 1`` — *in-process*: each cell runs in the parent, one at
     a time; nothing supervises it, so no per-cell timeout applies;
   * ``jobs > 1`` — a *process pool* with chunked submission and a
     per-cell wall-clock timeout measured from *observed execution
     start* (workers stamp a shared start-time map), so a cell that
     merely queued behind a slow batch never burns its budget waiting;

4. quarantine failed cells (exception or timeout) as
   :class:`CellResult` errors instead of aborting the campaign, so one
   pathological grid point cannot cost you the other 99.  A timed-out
   cell's worker cannot be cancelled (``Future.cancel`` is a no-op once
   running), so the pool is recycled — its workers are killed and
   replaced — rather than letting one wedged cell serialize the
   remaining batches.  Cells a batch could not execute at all (the pool
   broke under them, or every worker slot wedged past budget before the
   queued cells could start) are resubmitted on the recycled pool, with
   a retry cap so a cell that keeps killing its workers is eventually
   quarantined instead of looping forever — every cell always settles.

A flat spec is a one-stage plan; :meth:`Runner.run_pipeline` runs a
:class:`~repro.experiments.spec.PipelineSpec` as a plan with one row per
stage.  Each stage's ``needs`` resolve to the upstream stages' (or
external specs') :class:`~repro.experiments.artifacts.ArtifactSet`
objects, whose digests fold into the stage's cell keys and checkpoint
fingerprint — so a warm re-run short-circuits entire stages through the
cache, an upstream edit re-keys (and therefore re-runs) exactly the
stages downstream of it, and a kill mid-stage resumes from that stage's
own journal.  A stage becomes runnable the moment the artifact digests
of everything it ``needs`` settle, and a batch mixes cells from every
runnable stage, so on a pool the two middle stages of a diamond execute
side by side.  Scheduling order never leaks into results: cell keys,
fingerprints, and artifacts are pure functions of the specs and
upstream digests, so any legal interleaving, on either executor,
produces byte-identical artifacts.  A stage that settles with
quarantined cells *cancels* its artifact-consuming dependents
(transitively) — their cells settle with a one-line ``cancelled:``
reason instead of the scheduler raising mid-flight, and stages that
never needed the broken grid still run to completion.

SIGINT/SIGTERM are handled gracefully while a campaign runs: the first
signal stops new dispatches (the in-process executor checks before
every cell; the pool cancels not-yet-started futures and drains the
in-flight ones), flushes every open stage's checkpoint, and raises
:class:`CampaignInterrupted` (the CLI maps it to exit code 75,
``EX_TEMPFAIL`` — "try again").  A second signal aborts immediately.
Pool workers ignore both signals: the parent owns draining.

Every cell result uniformly carries its wall-clock seconds; scenarios
that run the fluid simulator embed their
:class:`~repro.sim.probe.SimProbe` counters in the result payload, so
engine instrumentation flows into campaign reports for free.

:meth:`Runner.dry_run` walks the same plan without executing anything;
:func:`plan_dag_summary` reduces a dry-run plan to the stage DAG's
critical path, width, and a predicted serial-vs-parallel cell schedule.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import multiprocessing
import os
import signal
import threading
import time
import traceback
import warnings
from collections.abc import Callable
from concurrent.futures.process import BrokenProcessPool
from typing import Any, NamedTuple

from .artifacts import Artifact, ArtifactSet, keys_digest
from .cache import _CACHE_VERSION, ResultCache, cell_key
from .checkpoint import CampaignCheckpoint, spec_fingerprint
from .registry import get_scenario, scenario_needs_artifacts
from .spec import Cell, ExperimentSpec, PipelineSpec, load_spec

__all__ = [
    "CellResult",
    "CampaignResult",
    "CampaignInterrupted",
    "StagePlan",
    "PipelineResult",
    "PlanSummary",
    "plan_dag_summary",
    "Runner",
]

#: supervisor poll interval while watching a pool batch
_POLL_S = 0.05

#: times a cell is resubmitted after a broken pool before assuming the
#: cell itself is what keeps killing the workers and quarantining it
_MAX_POOL_RETRIES = 2


def _worker_init() -> None:
    """Pool workers ignore SIGINT and SIGTERM: the parent owns draining.

    A Ctrl-C or a ``timeout -s TERM`` reaches the whole process group;
    the workers finish their in-flight cells while the parent drains.
    They fork inside the parent's :class:`_SignalDrain`, so without this
    a SIGTERM would only set a flag in their copy of it — the runner
    stops workers with SIGKILL instead (:meth:`_PoolExecutor._kill_pool`).
    """
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass


def _quarantine_reason(exc: BaseException) -> str:
    """The one-line reason a failed cell is quarantined with."""
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _execute_cell(
    scenario: str,
    params: dict[str, Any],
    seed: int,
    start_times: Any = None,
    token: int | None = None,
    artifacts: dict[str, ArtifactSet] | None = None,
) -> tuple[Any, float]:
    """Run one cell; module-level so it pickles into worker processes.

    ``start_times`` is an optional shared mapping the worker stamps with
    ``time.monotonic()`` under the submission's ``token`` at execution
    start — the supervisor's timeout clock starts there, not at
    submission.  ``artifacts`` are the resolved upstream sets an
    analysis scenario receives as its third argument (plain frozen
    dataclasses, so they pickle into workers).
    """
    if start_times is not None and token is not None:
        try:
            start_times[token] = time.monotonic()
        except Exception:  # a dead manager must not fail the cell
            pass
    fn = get_scenario(scenario)
    t0 = time.perf_counter()
    if scenario_needs_artifacts(scenario):
        result = fn(params, seed, artifacts or {})
    else:
        result = fn(params, seed)
    return result, time.perf_counter() - t0


@dataclasses.dataclass(frozen=True)
class CellResult:
    """Outcome of one grid point."""

    index: int
    coords: dict[str, Any]
    params: dict[str, Any]
    seed: int
    #: the scenario's return value; ``None`` for quarantined cells
    result: Any
    #: wall-clock seconds the scenario took (cached: the *original* wall)
    wall_s: float
    cached: bool = False
    #: quarantine reason ("TimeoutError: ..." / "ValueError: ..."), or None
    error: str | None = None
    #: the cell's content-addressed cache key (None when uncomputable)
    key: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclasses.dataclass(frozen=True)
class CampaignResult:
    """All cells of one campaign, in spec cell order."""

    spec: ExperimentSpec
    cells: tuple[CellResult, ...]
    #: end-to-end campaign wall clock, including cache traffic
    wall_s: float
    #: inputs-aware spec fingerprint (provenance identity of this run)
    fingerprint: str | None = None

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_cached(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.cells if not c.ok)

    @property
    def n_executed(self) -> int:
        return sum(1 for c in self.cells if not c.cached and c.ok)

    def results(self) -> list[Any]:
        """Cell results in grid order; raises if any cell is quarantined."""
        bad = [c for c in self.cells if not c.ok]
        if bad:
            raise RuntimeError(
                f"{len(bad)} quarantined cell(s); first: "
                f"cell {bad[0].index} {bad[0].coords}: {bad[0].error}"
            )
        return [c.result for c in self.cells]

    def artifact_set(self, name: str | None = None) -> ArtifactSet:
        """This campaign's cells as first-class artifacts, grid order.

        Raises if any cell is quarantined — a downstream consumer must
        never silently analyze a partial grid.
        """
        bad = [c for c in self.cells if not c.ok]
        if bad:
            raise RuntimeError(
                f"campaign '{self.spec.name}' has {len(bad)} quarantined "
                f"cell(s); first: cell {bad[0].index} {bad[0].coords}: "
                f"{bad[0].error}"
            )
        return ArtifactSet(
            name=name or self.spec.name,
            artifacts=tuple(
                Artifact(
                    scenario=self.spec.scenario,
                    params=c.params,
                    seed=c.seed,
                    key=c.key,
                    result=c.result,
                    wall_s=c.wall_s,
                    cache_version=_CACHE_VERSION,
                    spec_fingerprint=self.fingerprint,
                    spec_name=self.spec.name,
                    index=c.index,
                    coords=c.coords,
                    cached=c.cached,
                )
                for c in self.cells
            ),
        )

    def format(self) -> str:
        """Human-readable campaign summary (also what the CLI prints)."""
        axes = " x ".join(self.spec.axes) if self.spec.axes else "(no axes)"
        lines = [
            f"campaign '{self.spec.name}': scenario {self.spec.scenario}, "
            f"{self.n_cells} cell(s) over {axes}, seed {self.spec.seed} "
            f"({self.spec.seed_mode})"
        ]
        for c in self.cells:
            coords = " ".join(f"{k}={v}" for k, v in c.coords.items())
            status = "FAIL" if not c.ok else ("hit " if c.cached else "run ")
            tail = c.error if not c.ok else _summarize(c.result)
            lines.append(
                f"  [{c.index:>3}] {status} {c.wall_s:8.3f} s  {coords:<40} {tail}"
            )
        lines.append(
            f"cells: {self.n_cells} total, {self.n_executed} executed, "
            f"{self.n_cached} cached, {self.n_failed} failed; "
            f"wall {self.wall_s:.2f} s"
        )
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class StagePlan:
    """One stage of an expanded pipeline plan (:meth:`Runner.dry_run`).

    Everything here is computed without executing a single cell: keys
    and digests are pure functions of the specs, and the cache-hit
    census only checks artifact existence.
    """

    #: the key downstream stages resolve this stage under (a stage name,
    #: or an external spec reference exactly as written in ``needs``)
    name: str
    scenario: str
    needs: tuple[str, ...]
    #: inputs-aware fingerprint (checkpoint/provenance identity)
    fingerprint: str
    #: ordered cell keys (one per grid point)
    keys: tuple[str, ...]
    #: how many of those keys are already in the cache
    n_hits: int
    #: True for an external spec folded in as an implicit stage
    external: bool = False

    @property
    def n_cells(self) -> int:
        return len(self.keys)

    @property
    def n_to_execute(self) -> int:
        return self.n_cells - self.n_hits


@dataclasses.dataclass(frozen=True)
class PlanSummary:
    """The stage DAG's shape and predicted schedule, from a dry-run plan.

    Pure plan arithmetic — nothing executes.  ``depth`` assigns each
    stage its longest-path level (roots at 0); ``width`` is the largest
    set of stages sharing a level, i.e. how many stages the ready-set
    scheduler can have runnable at once.  The critical path maximizes
    *cells still to execute* along a dependency chain, so a fully
    cached branch never masquerades as the bottleneck.
    ``parallel_cells`` is the classic makespan lower bound
    ``max(critical_cells, ceil(serial_cells / jobs))`` under unit cell
    cost — what a perfect shared-pool schedule cannot beat.
    """

    #: stage name -> longest-path depth (roots at 0)
    depths: dict[str, int]
    #: max number of stages sharing one depth level
    width: int
    #: stage names along the heaviest to-execute chain, root first
    critical_path: tuple[str, ...]
    #: cells still to execute, summed over every stage (serial schedule)
    serial_cells: int
    #: cells still to execute along the critical path
    critical_cells: int
    #: makespan lower bound in cells for the given worker count
    parallel_cells: int
    #: worker count the parallel bound was computed for
    jobs: int

    @property
    def depth(self) -> int:
        return max(self.depths.values(), default=-1) + 1

    def format(self) -> str:
        path = " -> ".join(self.critical_path) if self.critical_path else "(empty)"
        lines = [
            f"stage DAG: depth {self.depth}, width {self.width} "
            f"(max concurrently-runnable stages)",
            f"critical path: {path}  ({self.critical_cells} cell(s) to execute)",
            f"schedule: serial {self.serial_cells} cell(s); "
            f"parallel >= {self.parallel_cells} cell-round(s) "
            f"at {self.jobs} job(s)",
        ]
        return "\n".join(lines)


def plan_dag_summary(plans: list[StagePlan], jobs: int = 1) -> PlanSummary:
    """Reduce a :meth:`Runner.dry_run` plan to its DAG schedule summary."""
    by_name = {p.name: p for p in plans}
    depths: dict[str, int] = {}
    best_chain: dict[str, tuple[int, tuple[str, ...]]] = {}

    def visit(name: str) -> tuple[int, tuple[int, tuple[str, ...]]]:
        if name in depths:
            return depths[name], best_chain[name]
        plan = by_name[name]
        depth = 0
        chain_cells, chain = plan.n_to_execute, (name,)
        for need in plan.needs:
            nd, (nc, npath) = visit(need)
            depth = max(depth, nd + 1)
            if nc + plan.n_to_execute > chain_cells:
                chain_cells = nc + plan.n_to_execute
                chain = npath + (name,)
        depths[name] = depth
        best_chain[name] = (chain_cells, chain)
        return depth, best_chain[name]

    for plan in plans:
        visit(plan.name)
    level_sizes: dict[int, int] = {}
    for depth in depths.values():
        level_sizes[depth] = level_sizes.get(depth, 0) + 1
    serial = sum(p.n_to_execute for p in plans)
    critical_cells, critical_path = max(
        best_chain.values(), default=(0, ())
    )
    jobs = max(int(jobs), 1)
    parallel = max(critical_cells, -(-serial // jobs))
    return PlanSummary(
        depths=depths,
        width=max(level_sizes.values(), default=0),
        critical_path=critical_path,
        serial_cells=serial,
        critical_cells=critical_cells,
        parallel_cells=parallel,
        jobs=jobs,
    )


@dataclasses.dataclass(frozen=True)
class PipelineResult:
    """Every stage of one pipeline run, in plan order.

    ``stages`` maps each stage's resolution key — a stage name, or an
    external spec reference as written in ``needs`` — to its
    :class:`CampaignResult`; insertion order is the deterministic plan
    order (externals first, then topological stage order), regardless
    of how the DAG scheduler interleaved execution.
    """

    pipeline: PipelineSpec
    stages: dict[str, CampaignResult]
    #: end-to-end pipeline wall clock, including cache traffic
    wall_s: float

    def stage(self, name: str) -> CampaignResult:
        try:
            return self.stages[name]
        except KeyError:
            raise KeyError(
                f"no stage {name!r} in pipeline {self.pipeline.name!r}; "
                f"ran: {list(self.stages)}"
            ) from None

    @property
    def n_cells(self) -> int:
        return sum(c.n_cells for c in self.stages.values())

    @property
    def n_cached(self) -> int:
        return sum(c.n_cached for c in self.stages.values())

    @property
    def n_failed(self) -> int:
        return sum(c.n_failed for c in self.stages.values())

    @property
    def n_executed(self) -> int:
        return sum(c.n_executed for c in self.stages.values())

    def format(self) -> str:
        """Per-stage summary (also what the CLI prints for pipelines)."""
        lines = [
            f"pipeline '{self.pipeline.name}': "
            f"{len(self.stages)} stage(s), {self.n_cells} cell(s)"
        ]
        for name, campaign in self.stages.items():
            lines.append(
                f"  stage '{name}' [{campaign.spec.scenario}]: "
                f"{campaign.n_cells} total, {campaign.n_executed} executed, "
                f"{campaign.n_cached} cached, {campaign.n_failed} failed; "
                f"wall {campaign.wall_s:.2f} s"
            )
        lines.append(
            f"pipeline cells: {self.n_cells} total, "
            f"{self.n_executed} executed, {self.n_cached} cached, "
            f"{self.n_failed} failed; wall {self.wall_s:.2f} s"
        )
        return "\n".join(lines)


class CampaignInterrupted(RuntimeError):
    """A campaign stopped on SIGINT/SIGTERM after draining in-flight cells.

    The run is *resumable*: settled cells live in the cache, quarantined
    cells and the batch frontier live in the checkpoint journal, and
    re-running the same spec against the same cache/checkpoint executes
    only what never finished.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        signum: int,
        n_cells: int,
        n_settled: int,
        n_executed: int,
        n_cached: int,
        n_failed: int,
        checkpoint_path: os.PathLike | str | None,
    ) -> None:
        self.spec = spec
        self.signum = signum
        self.n_cells = n_cells
        self.n_settled = n_settled
        self.n_executed = n_executed
        self.n_cached = n_cached
        self.n_failed = n_failed
        self.checkpoint_path = checkpoint_path
        try:
            signame = signal.Signals(signum).name
        except ValueError:  # pragma: no cover - exotic signum
            signame = str(signum)
        where = (
            f"; checkpoint at {checkpoint_path}" if checkpoint_path else ""
        )
        super().__init__(
            f"campaign '{spec.name}' interrupted by {signame}: "
            f"{n_settled}/{n_cells} cells settled "
            f"({n_executed} executed, {n_cached} cached, {n_failed} failed)"
            f"{where}; re-run with the same spec and cache to resume"
        )


class _SignalDrain:
    """Context manager that converts SIGINT/SIGTERM into a drain flag.

    First signal: remember it and let the runner drain gracefully.
    Second signal: the user really means it — raise ``KeyboardInterrupt``
    from the handler for an immediate (non-resumable-beyond-the-cache)
    exit.  Handlers only install from the main thread; elsewhere the
    drain flag simply never fires.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.signum: int | None = None
        self._previous: dict[int, Any] = {}

    @property
    def triggered(self) -> bool:
        return self.signum is not None

    def _handle(self, signum: int, frame: Any) -> None:
        if self.signum is not None:
            raise KeyboardInterrupt
        self.signum = signum

    def __enter__(self) -> "_SignalDrain":
        if threading.current_thread() is threading.main_thread():
            for sig in self.SIGNALS:
                try:
                    self._previous[sig] = signal.signal(sig, self._handle)
                except (ValueError, OSError):  # pragma: no cover
                    pass
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for sig, handler in self._previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass


def _summarize(result: Any, limit: int = 4) -> str:
    """First few scalar fields of a result dict, for the per-cell line."""
    if not isinstance(result, dict):
        return ""
    parts = []
    for key in sorted(result):
        value = result[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        parts.append(f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}")
        if len(parts) == limit:
            break
    return " ".join(parts)


@dataclasses.dataclass
class _Stage:
    """Mutable state of one plan row inside the scheduler.

    A flat campaign is a one-row plan; a pipeline has one row per stage,
    external specs first.  Everything below ``needs`` is fixed when the
    stage opens, i.e. once every stage it needs has settled.
    """

    key: str
    spec: ExperimentSpec
    needs: tuple[str, ...]
    #: dependency name -> resolved upstream set (analysis scenarios only)
    artifacts: dict[str, ArtifactSet] | None = None
    #: dependency name -> upstream set digest (participates in cell keys)
    digests: dict[str, str] | None = None
    #: inputs-aware fingerprint (checkpoint/provenance identity)
    fingerprint: str | None = None
    ckpt: CampaignCheckpoint | None = None
    cells: list[Cell] = dataclasses.field(default_factory=list)
    settled: dict[int, CellResult] = dataclasses.field(default_factory=dict)
    #: cell index -> resolved cell not yet dispatched, in dispatch order
    pending: dict[int, tuple[Cell, str | None]] = dataclasses.field(
        default_factory=dict
    )
    t0: float = 0.0
    opened: bool = False
    #: final result; also set (with all-cancelled cells) on cancellation
    campaign: CampaignResult | None = None

    @property
    def finished(self) -> bool:
        return self.campaign is not None

    @property
    def running(self) -> bool:
        return self.opened and self.campaign is None


class _Task(NamedTuple):
    """One dispatchable cell bound to its stage.

    A batch may mix cells from several stages; each settles into its own
    stage's result map and checkpoint journal.
    """

    stage: _Stage
    cell: Cell
    key: str | None


#: how an executor reports one cell: ``settle(task, result, wall_s, error)``
_Settle = Callable[[_Task, Any, float, "str | None"], None]


class _InProcessExecutor:
    """``jobs == 1``: each cell runs in the parent, one at a time.

    The executor seam is ``batch_size``, ``run(tasks, drain)`` — which
    settles what it executes and returns the tasks to dispatch again —
    and ``close()``.  Nothing supervises an in-process cell, so no
    timeout applies.  The drain flag is checked before every cell; cells
    left unrun stay unsettled, journaled for a resume.
    """

    batch_size = 1

    def __init__(self, settle: _Settle) -> None:
        self._settle = settle

    def run(self, tasks: list[_Task], drain: _SignalDrain) -> list[_Task]:
        for task in tasks:
            if drain.triggered:
                break
            t0 = time.perf_counter()
            try:
                result, wall = _execute_cell(
                    task.stage.spec.scenario,
                    task.cell.params,
                    task.cell.seed,
                    artifacts=task.stage.artifacts,
                )
                error = None
            except Exception as exc:  # quarantine, keep the campaign alive
                result, wall = None, time.perf_counter() - t0
                error = _quarantine_reason(exc)
            self._settle(task, result, wall, error)
        return []

    def close(self) -> None:
        pass


class _PoolExecutor:
    """``jobs > 1``: cells run on a recyclable ``ProcessPoolExecutor``.

    The pool (and, with a timeout, the start-time manager) starts with
    the first batch.  After a batch that left a hung worker or broke the
    pool, the pool is killed; the next batch starts a fresh one.
    """

    def __init__(
        self,
        settle: _Settle,
        workers: int,
        chunk_size: int,
        cell_timeout_s: float | None,
    ) -> None:
        self._settle = settle
        self.workers = workers
        self.batch_size = workers * chunk_size
        self.cell_timeout_s = cell_timeout_s
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._manager: Any = None
        #: submission token -> the worker's ``time.monotonic()`` at start
        self._start_times: Any = None
        self._next_token = 0
        #: (stage key, cell index) -> times the pool broke under it
        self._retries: dict[tuple[str, int], int] = {}

    def run(self, tasks: list[_Task], drain: _SignalDrain) -> list[_Task]:
        """Execute one batch; return the cells to resubmit."""
        if self._pool is None:
            self._pool = self._new_pool()
        if self.cell_timeout_s is not None and self._manager is None:
            # workers stamp execution start here; the supervisor's
            # timeout clock starts at the stamp, not at submission
            self._manager = multiprocessing.Manager()
            self._start_times = self._manager.dict()
        hung, broken, unfinished = self._drain_batch(tasks, drain)
        if drain.triggered:
            return []  # unfinished cells stay journaled for resume
        if hung or broken:
            # Future.cancel() is a no-op once running: a hung cell would
            # silently hold its pool slot for the rest of the campaign
            self._kill_pool(self._pool)
            self._pool = None
        return self._requeue(unfinished, broken)

    def close(self) -> None:
        if self._pool is not None:
            self._kill_pool(self._pool)
            self._pool = None
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None

    def _new_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers, initializer=_worker_init
        )

    @staticmethod
    def _kill_pool(pool: concurrent.futures.ProcessPoolExecutor) -> None:
        """Shut the pool down without waiting for wedged workers.

        ``shutdown(wait=True)`` would block until a hung cell returns —
        exactly the leak this avoids.  Workers ignore SIGTERM, so they
        are SIGKILLed outright: every settled result has already been
        fetched, and abandoned cells are quarantined or journaled for
        resume.
        """
        procs = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            try:
                proc.kill()
            except Exception:  # pragma: no cover - already gone
                pass
        for proc in procs:
            try:
                proc.join(timeout=5.0)
            except Exception:  # pragma: no cover - already gone
                pass

    def _started(self, token: int) -> float | None:
        """When the worker stamped this submission's execution start."""
        if self._start_times is None:
            return None
        try:
            return self._start_times.get(token)
        except Exception:  # pragma: no cover - dead manager
            return None

    def _requeue(self, unfinished: list[_Task], broken: bool) -> list[_Task]:
        """Decide each unexecuted task's fate: retry or quarantine.

        Cells the batch could not execute (pool broke under them, or
        every worker slot was wedged) go back for the recycled pool —
        capped per cell, so one that keeps killing its workers is
        quarantined instead of looping forever.
        """
        retry: list[_Task] = []
        for task in unfinished:
            rid = (task.stage.key, task.cell.index)
            if broken:
                self._retries[rid] = self._retries.get(rid, 0) + 1
            if self._retries.get(rid, 0) > _MAX_POOL_RETRIES:
                self._settle(
                    task,
                    None,
                    0.0,
                    "BrokenProcessPool: worker pool broke "
                    f"{self._retries[rid]} times with this "
                    "cell in flight (does the scenario kill or "
                    "exit its worker process?)",
                )
            else:
                retry.append(task)
        return retry

    def _drain_batch(
        self, tasks: list[_Task], drain: _SignalDrain
    ) -> tuple[list[concurrent.futures.Future], bool, list[_Task]]:
        """Submit one batch of tasks and settle every future.

        Returns ``(hung, broken, unfinished)``: futures abandoned past
        their budget with the worker still running; whether the pool
        itself broke; and tasks this batch could not execute — the pool
        broke before/under them, or every worker slot was wedged past
        budget so a queued cell could never start.  A drain signal
        mid-batch cancels not-yet-started futures (they stay unfinished,
        for resume) and waits out the running ones.
        """
        futmap: dict[concurrent.futures.Future, tuple[_Task, int, float]] = {}
        unfinished: list[_Task] = []
        try:
            for task in tasks:
                # a fresh token per submission: a resubmitted cell's
                # start stamp can never be mistaken for its broken first
                # attempt's
                self._next_token += 1
                fut = self._pool.submit(
                    _execute_cell,
                    task.stage.spec.scenario,
                    task.cell.params,
                    task.cell.seed,
                    self._start_times,
                    self._next_token,
                    task.stage.artifacts,
                )
                futmap[fut] = (task, self._next_token, time.perf_counter())
        except BrokenProcessPool:
            # the pool died mid-submission: salvage futures that still
            # settled, hand everything else back for resubmission
            unfinished.extend(tasks[len(futmap):])
            self._salvage(futmap, unfinished)
            return [], True, unfinished

        pending_futs = set(futmap)
        hung: list[concurrent.futures.Future] = []
        broken = False
        drained = False
        while pending_futs:
            if drain.triggered and not drained:
                drained = True
                for fut in list(pending_futs):
                    if fut.cancel():  # never started: leave unfinished
                        pending_futs.discard(fut)
            done, pending_futs = concurrent.futures.wait(
                pending_futs,
                timeout=_POLL_S,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            for fut in done:
                task, _, submitted = futmap[fut]
                try:
                    result, wall = fut.result()
                    error = None
                except concurrent.futures.CancelledError:
                    continue
                except BrokenProcessPool:
                    broken = True
                    if drain.triggered:
                        # the signal (e.g. group-delivered SIGINT) took
                        # the workers down; the cell never finished —
                        # leave it unsettled so a resume re-runs it
                        continue
                    # the cell may be innocent (a batch-mate killed the
                    # pool): resubmit on the recycled pool rather than
                    # quarantining it outright; the retry cap catches
                    # the actual worker-killer
                    unfinished.append(task)
                    continue
                except Exception as exc:
                    result, wall = None, time.perf_counter() - submitted
                    error = _quarantine_reason(exc)
                self._settle(task, result, wall, error)
            if self.cell_timeout_s is not None and pending_futs:
                now = time.monotonic()
                for fut in list(pending_futs):
                    task, token, _ = futmap[fut]
                    begun = self._started(token)
                    if begun is not None and now - begun > self.cell_timeout_s:
                        pending_futs.discard(fut)
                        hung.append(fut)
                        self._settle(
                            task,
                            None,
                            self.cell_timeout_s,
                            f"TimeoutError: cell exceeded "
                            f"{self.cell_timeout_s:.1f} s budget",
                        )
                if pending_futs and sum(
                    1 for f in hung if f.running()
                ) >= self.workers:
                    # every worker slot is wedged past budget: a queued
                    # future can never start, never stamp, and never
                    # time out — this drain would spin forever (or wait
                    # out the hung sleeps).  Pull every cell that has
                    # not stamped an execution start back for the
                    # recycled pool; cancel() alone is not enough, the
                    # pool marks call-queue-buffered futures RUNNING
                    # even though no worker will ever pick them up.
                    for fut in list(pending_futs):
                        task, token, _ = futmap[fut]
                        if self._started(token) is None:
                            fut.cancel()  # best effort; pool dies anyway
                            pending_futs.discard(fut)
                            unfinished.append(task)
        return [f for f in hung if f.running()], broken, unfinished

    def _salvage(
        self,
        futmap: dict[concurrent.futures.Future, tuple[_Task, int, float]],
        unfinished: list[_Task],
    ) -> None:
        """After a pool break, settle what finished; queue the rest.

        A future that completed before the break still holds its result
        (or its genuine scenario exception, which quarantines as usual);
        anything cancelled, failed-by-the-break, or still nominally
        pending is appended to ``unfinished`` for resubmission.
        """
        for fut, (task, _, submitted) in futmap.items():
            if not fut.done():
                unfinished.append(task)
                continue
            try:
                result, wall = fut.result(timeout=0)
                error = None
            except (
                concurrent.futures.CancelledError,
                concurrent.futures.TimeoutError,
                BrokenProcessPool,
            ):
                unfinished.append(task)
                continue
            except Exception as exc:
                result, wall = None, time.perf_counter() - submitted
                error = _quarantine_reason(exc)
            self._settle(task, result, wall, error)


#: one plan row: (resolution key, spec, needs, external)
_PlanRow = tuple[str, ExperimentSpec, tuple[str, ...], bool]


class Runner:
    """Execute campaigns: cached, resumable, in-process or on a pool.

    Flat specs and pipelines run on one ready-set scheduler; ``jobs``
    alone picks the executor it hands batches of cells to.

    Parameters
    ----------
    jobs:
        ``1`` (default) runs every cell in-process, one at a time.
        ``> 1`` runs cells on a pool of that many worker processes; for
        pipelines the pool is *pipeline-wide*: cells from every runnable
        stage share it, so sibling stages of a diamond run side by side.
    cache:
        A :class:`ResultCache` to consult before and fill after each
        cell; ``None`` disables caching.
    cell_timeout_s:
        Per-cell wall-clock budget (pool only — nothing supervises an
        in-process cell), measured from the cell's observed execution
        start, not its submission; overruns quarantine the cell and the
        wedged worker is killed when the pool recycles.
    chunk_size:
        Cells submitted per worker per batch on the pool.  Batches
        bound how much work is in flight, so a campaign killed mid-run
        has cached everything completed rather than nothing.
    checkpoint_dir:
        Directory for :class:`CampaignCheckpoint` journals; ``None``
        disables checkpointing.  With a journal, a killed run restarted
        with the same spec (and cache) resumes mid-batch: cached cells
        come back as hits, quarantined cells are restored verbatim, and
        only genuinely unfinished cells execute.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        cell_timeout_s: float | None = None,
        chunk_size: int = 4,
        checkpoint_dir: str | os.PathLike | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.cell_timeout_s = cell_timeout_s
        self.chunk_size = chunk_size
        self.checkpoint_dir = checkpoint_dir
        #: optional scheduling-order hook: called with the candidate
        #: list of ``(stage_key, cell_index)`` pairs (plan order) before
        #: each batch is cut; returns the pairs in the order to
        #: dispatch.  Exists so tests can force arbitrary legal
        #: interleavings and pin that results never depend on one.
        self.schedule_hook = None

    def run(self, spec: ExperimentSpec, force: bool = False) -> CampaignResult:
        """Expand ``spec`` and settle every cell; never raises per-cell.

        The spec runs as a one-stage plan on the pipeline scheduler.
        ``force=True`` skips cache lookups and checkpoint restore
        (results still get stored).  Raises :class:`CampaignInterrupted`
        if a SIGINT/SIGTERM arrived; everything settled up to that point
        is journaled/cached for resume.
        """
        return self._schedule([(spec.name, spec, (), False)], force)[spec.name]

    def run_pipeline(
        self, pipeline: PipelineSpec, force: bool = False
    ) -> PipelineResult:
        """Execute every stage of ``pipeline``, respecting the stage DAG.

        External spec references in ``needs`` are loaded and folded in
        as implicit stages ahead of the pipeline's own — their cells are
        content-addressed exactly like a direct run of that spec, so a
        grid another spec already computed resolves entirely from the
        cache with zero recomputation.  Each stage short-circuits
        through the cache independently; a stage whose upstream is
        unchanged and whose own cells are cached executes nothing.

        A stage opens the moment the artifact digests it needs settle,
        and every batch draws cells from *every* open stage — with
        ``jobs > 1`` sibling stages execute side by side on one shared
        pool.  Either executor produces byte-identical cell keys,
        fingerprints, and artifacts.

        A stage that settles with quarantined cells *cancels* its
        artifact-consuming dependents (transitively): their cells settle
        with a ``cancelled: needed stage ...`` reason instead of the
        pipeline raising — an analysis never silently reads a partial
        grid, and unrelated branches still run to completion.  Stages
        whose ``needs`` only order execution are not cancelled.  A
        SIGINT/SIGTERM surfaces as :class:`CampaignInterrupted` from an
        in-flight stage; re-running the pipeline resumes there (earlier
        stages come back as hits).
        """
        t0 = time.perf_counter()
        stages = self._schedule(self._pipeline_plan(pipeline), force)
        return PipelineResult(
            pipeline=pipeline,
            stages=stages,
            wall_s=time.perf_counter() - t0,
        )

    # -- the scheduler -----------------------------------------------------

    def _executor(self) -> _InProcessExecutor | _PoolExecutor:
        if self.jobs == 1:
            return _InProcessExecutor(self._settle)
        return _PoolExecutor(
            self._settle, self.jobs, self.chunk_size, self.cell_timeout_s
        )

    def _schedule(
        self, plan: list[_PlanRow], force: bool
    ) -> dict[str, CampaignResult]:
        """Run a plan to completion: the Runner's one scheduling loop.

        Every iteration seals settled stages and opens runnable ones,
        cuts one batch from the pending cells of every open stage, and
        hands it to the executor.  Stage completion, cancellation, and
        requeueing all happen between batches, so the scheduler state is
        single-threaded and easy to reason about.  Returns each row's
        campaign in plan order.
        """
        stages = {
            key: _Stage(key=key, spec=spec, needs=needs)
            for key, spec, needs, _external in plan
        }
        #: stages whose artifacts an artifact-consuming stage reads
        needed = {
            need
            for stage in stages.values()
            if scenario_needs_artifacts(stage.spec.scenario)
            for need in stage.needs
        }
        sets: dict[str, ArtifactSet] = {}
        #: stage key -> why consumers of it must cancel
        failed: dict[str, str] = {}
        executor = self._executor()
        try:
            with _SignalDrain() as drain:
                while True:
                    self._advance(stages, needed, sets, failed, force)
                    if all(stage.finished for stage in stages.values()):
                        break
                    if drain.triggered:
                        raise self._interrupted(stages, drain.signum)
                    batch = self._next_batch(stages, executor.batch_size)
                    retry = executor.run(batch, drain)
                    if drain.triggered:
                        raise self._interrupted(stages, drain.signum)
                    for task in retry:  # back to the front of its queue
                        task.stage.pending = {
                            task.cell.index: (task.cell, task.key),
                            **task.stage.pending,
                        }
        finally:
            executor.close()
        return {key: stage.campaign for key, stage in stages.items()}

    def _advance(
        self,
        stages: dict[str, _Stage],
        needed: set[str],
        sets: dict[str, ArtifactSet],
        failed: dict[str, str],
        force: bool,
    ) -> None:
        """Seal settled stages, cancel doomed ones, open runnable ones.

        Runs to a fixpoint: sealing a stage (or opening a fully cached
        one) may unblock or doom further stages in the same pass.  A
        consumer cancels as soon as *any* needed stage is in ``failed``
        — it never waits for its other needs, so a broken grid
        propagates promptly instead of starving dependents.
        """
        progressed = True
        while progressed:
            progressed = False
            for stage in stages.values():
                if stage.finished:
                    continue
                if stage.opened:
                    if len(stage.settled) == len(stage.cells):
                        self._seal(stage, needed, sets, failed)
                        progressed = True
                    continue
                # needs on a plain scenario only order the stage; the
                # sets (and the digest folding) are for artifact consumers
                consumes = scenario_needs_artifacts(stage.spec.scenario)
                blocker = (
                    next((n for n in stage.needs if n in failed), None)
                    if consumes
                    else None
                )
                if blocker is not None:
                    stage.campaign = self._cancelled_campaign(
                        stage.spec, blocker, failed[blocker]
                    )
                    failed[stage.key] = "was cancelled"
                    progressed = True
                elif all(stages[n].finished for n in stage.needs):
                    inputs = (
                        {n: sets[n] for n in stage.needs}
                        if stage.needs and consumes
                        else None
                    )
                    self._open(stage, force, inputs)
                    progressed = True

    def _next_batch(self, stages: dict[str, _Stage], size: int) -> list[_Task]:
        """Cut the next batch from the pending cells of every open stage.

        Candidates come in plan order; ``schedule_hook`` may permute the
        whole candidate list first.  Taken cells leave their stage's
        queue and enter its journal frontier.
        """
        candidates = (
            (stage.key, index)
            for stage in stages.values()
            if stage.running
            for index in stage.pending
        )
        if self.schedule_hook is None:
            order = list(itertools.islice(candidates, size))
        else:
            hooked = self.schedule_hook(list(candidates))
            order = [tuple(pair) for pair in hooked][:size]
        if not order:
            raise RuntimeError(
                "internal error: scheduler stalled with unfinished "
                "stages and no dispatchable cells"
            )
        batch: list[_Task] = []
        taken: dict[str, list[int]] = {}
        for key, index in order:
            stage = stages[key]
            cell, cell_key = stage.pending.pop(index)
            batch.append(_Task(stage, cell, cell_key))
            taken.setdefault(key, []).append(index)
        for key, indices in taken.items():
            if stages[key].ckpt is not None:
                stages[key].ckpt.begin_batch(sorted(indices))
        return batch

    def _open(
        self,
        stage: _Stage,
        force: bool,
        inputs: dict[str, ArtifactSet] | None,
    ) -> None:
        """Resolve a stage up to (but not into) execution.

        Validates the scenario signature, folds upstream digests into
        the stage's keys and fingerprint, loads/restores the checkpoint
        journal, satisfies cache hits, and queues the rest.
        """
        spec = stage.spec
        get_scenario(spec.scenario)  # fail fast on unknown scenarios
        if scenario_needs_artifacts(spec.scenario) and inputs is None:
            raise ValueError(
                f"scenario {spec.scenario!r} consumes upstream artifacts; "
                "run it as a pipeline stage with needs=[...]"
            )
        stage.t0 = time.perf_counter()
        stage.opened = True
        if inputs:
            stage.artifacts = dict(inputs)
            stage.digests = {
                name: aset.digest for name, aset in sorted(inputs.items())
            }
        stage.fingerprint = spec_fingerprint(spec, inputs=stage.digests)
        stage.cells = spec.cells()
        restored = {}
        if self.checkpoint_dir is not None:
            stage.ckpt = CampaignCheckpoint.for_spec(
                self.checkpoint_dir, spec, inputs=stage.digests
            )
            if not force:
                stage.ckpt.load()
                restored = stage.ckpt.settled
        for cell in stage.cells:
            key = self._key_for(stage, cell)
            entry = restored.get(cell.index)
            if entry is not None and entry.error is not None:
                # quarantined cells are never cached; restore them
                # verbatim so the resumed campaign reports exactly
                # what the uninterrupted one would
                stage.settled[cell.index] = CellResult(
                    index=cell.index,
                    coords=cell.coords,
                    params=cell.params,
                    seed=cell.seed,
                    result=None,
                    wall_s=entry.wall_s,
                    error=entry.error,
                    key=key,
                )
                continue
            hit = (
                self.cache.get(key)
                if (self.cache is not None and key is not None and not force)
                else None
            )
            if hit is not None:
                stage.settled[cell.index] = CellResult(
                    index=cell.index,
                    coords=cell.coords,
                    params=cell.params,
                    seed=cell.seed,
                    result=hit["result"],
                    wall_s=float(hit["wall_s"]),
                    cached=True,
                    key=key,
                )
            else:
                stage.pending[cell.index] = (cell, key)

    def _key_for(self, stage: _Stage, cell: Cell) -> str | None:
        """The cell's content address, or None when it has no identity.

        With a cache attached the key *must* compute — a spec whose
        params cannot be content-addressed cannot be cached, and the
        historical behaviour is to raise.  Without a cache the key is
        still computed when possible (downstream digests need it), but a
        programmatic spec with non-JSON-safe params degrades to None
        instead of failing a run that never asked for caching.
        """
        try:
            return cell_key(
                stage.spec.scenario, cell.params, cell.seed, inputs=stage.digests
            )
        except (TypeError, ValueError):
            if self.cache is not None:
                raise
            return None

    def _settle(
        self, task: _Task, result: Any, wall_s: float, error: str | None
    ) -> None:
        """Record one cell's outcome: cache (if ok), result map, journal."""
        stage, cell, key = task
        if error is None and key is not None and self.cache is not None:
            try:
                self.cache.put(
                    key,
                    stage.spec.scenario,
                    cell.params,
                    cell.seed,
                    result,
                    wall_s,
                    inputs=stage.digests,
                    provenance={
                        "spec_fingerprint": stage.fingerprint,
                        "spec_name": stage.spec.name,
                        "index": cell.index,
                        "coords": cell.coords,
                    },
                )
            except (ValueError, OSError) as exc:
                # an uncacheable result (non-finite floats, or the tmp
                # file lost to a concurrent prune/full disk) is still a
                # valid in-memory result; warn and carry on uncached
                warnings.warn(
                    f"cell {cell.index} not cached: {exc}",
                    RuntimeWarning,
                    stacklevel=4,
                )
        stage.settled[cell.index] = CellResult(
            index=cell.index,
            coords=cell.coords,
            params=cell.params,
            seed=cell.seed,
            result=result,
            wall_s=wall_s,
            error=error,
            key=key,
        )
        if stage.ckpt is not None:
            stage.ckpt.record(cell.index, key, error, wall_s)

    @staticmethod
    def _seal(
        stage: _Stage,
        needed: set[str],
        sets: dict[str, ArtifactSet],
        failed: dict[str, str],
    ) -> None:
        """Seal a fully settled stage and publish its artifacts/verdict."""
        if stage.ckpt is not None:
            stage.ckpt.complete()
        stage.campaign = CampaignResult(
            spec=stage.spec,
            cells=tuple(stage.settled[c.index] for c in stage.cells),
            wall_s=time.perf_counter() - stage.t0,
            fingerprint=stage.fingerprint,
        )
        if stage.campaign.n_failed:
            failed[stage.key] = (
                f"settled with {stage.campaign.n_failed} quarantined cell(s)"
            )
        elif stage.key in needed:
            sets[stage.key] = stage.campaign.artifact_set(name=stage.key)

    @staticmethod
    def _cancelled_campaign(
        spec: ExperimentSpec, blocker: str, reason: str
    ) -> CampaignResult:
        """Settle every cell of a stage as cancelled, executing nothing.

        Cancelled cells carry ``key=None`` and the campaign no
        fingerprint: the stage's inputs never materialized, so it has no
        provenance identity — nothing lands in cache or checkpoint, and
        a re-run after fixing the upstream executes it from scratch.
        """
        error = f"cancelled: needed stage '{blocker}' {reason}"
        cells = tuple(
            CellResult(
                index=c.index,
                coords=c.coords,
                params=c.params,
                seed=c.seed,
                result=None,
                wall_s=0.0,
                error=error,
                key=None,
            )
            for c in spec.cells()
        )
        return CampaignResult(
            spec=spec, cells=cells, wall_s=0.0, fingerprint=None
        )

    @staticmethod
    def _interrupted(
        stages: dict[str, _Stage], signum: int
    ) -> CampaignInterrupted:
        """Flush every open journal; report the first in-flight stage.

        The scheduler checks the drain flag only while some stage is
        open and unsettled, so there always is one to report.
        """
        running = [stage for stage in stages.values() if stage.running]
        for stage in running:
            if stage.ckpt is not None:
                stage.ckpt.flush()
        stage = running[0]
        settled = stage.settled.values()
        return CampaignInterrupted(
            stage.spec,
            signum,
            n_cells=len(stage.cells),
            n_settled=len(stage.settled),
            n_executed=sum(1 for c in settled if c.ok and not c.cached),
            n_cached=sum(1 for c in settled if c.cached),
            n_failed=sum(1 for c in settled if not c.ok),
            checkpoint_path=stage.ckpt.path if stage.ckpt is not None else None,
        )

    # -- planning ----------------------------------------------------------

    def dry_run(
        self, target: ExperimentSpec | PipelineSpec
    ) -> list[StagePlan]:
        """Expand a spec or pipeline without executing a single cell.

        Returns one :class:`StagePlan` per stage in execution order,
        with the stage's cell keys, inputs-aware fingerprint, and a
        cache-hit census.  Downstream keys are computed from upstream
        *digests*, which are pure functions of the upstream keys — so
        the plan is exact, not an estimate: a subsequent real run
        executes precisely the cells reported missing here.  A flat
        spec plans as the one-row plan :meth:`run` executes.
        """
        if isinstance(target, ExperimentSpec):
            rows = _validate_plan(
                target.name, [(target.name, target, (), False)]
            )
        else:
            rows = self._pipeline_plan(target)
        out: list[StagePlan] = []
        digests: dict[str, str] = {}
        for key, spec, needs, external in rows:
            stage_inputs = (
                {need: digests[need] for need in sorted(needs)}
                if needs and scenario_needs_artifacts(spec.scenario)
                else None
            )
            keys = tuple(
                cell_key(spec.scenario, c.params, c.seed, inputs=stage_inputs)
                for c in spec.cells()
            )
            digests[key] = keys_digest(keys)
            n_hits = (
                sum(1 for k in keys if self.cache.path_for(k).is_file())
                if self.cache is not None
                else 0
            )
            out.append(
                StagePlan(
                    name=key,
                    scenario=spec.scenario,
                    needs=needs,
                    fingerprint=spec_fingerprint(spec, inputs=stage_inputs),
                    keys=keys,
                    n_hits=n_hits,
                    external=external,
                )
            )
        return out

    def _pipeline_plan(self, pipeline: PipelineSpec) -> list[_PlanRow]:
        """Resolve a pipeline into ``(key, spec, needs, external)`` rows.

        External spec references load from disk (anchored at the
        pipeline's ``base_dir``) and come first, keyed by the reference
        string exactly as written in ``needs`` — that string is how the
        consuming stage's scenario will look the set up.  Validation is
        all up front: unknown scenarios, pipeline-shaped external refs,
        and needs/scenario signature mismatches fail before any cell
        runs.
        """
        rows: list[_PlanRow] = []
        for need in pipeline.external_needs():
            path = pipeline.resolve_path(need)
            try:
                loaded = load_spec(path)
            except OSError as exc:
                raise ValueError(
                    f"pipeline '{pipeline.name}': cannot load external "
                    f"spec {need!r}: {exc}"
                ) from None
            if isinstance(loaded, PipelineSpec):
                raise ValueError(
                    f"pipeline '{pipeline.name}': external need {need!r} "
                    "is itself a pipeline; point needs at flat specs "
                    "(run the other pipeline separately — its cached "
                    "stages resolve here for free)"
                )
            rows.append((need, loaded, (), True))
        for stage in pipeline.stage_order():
            rows.append((stage.name, stage.spec, stage.needs, False))
        return _validate_plan(pipeline.name, rows)


def _validate_plan(name: str, rows: list[_PlanRow]) -> list[_PlanRow]:
    """Fail fast, before any stage runs: unknown scenarios, and analysis
    scenarios with no needs to analyze."""
    for key, spec, needs, _external in rows:
        get_scenario(spec.scenario)
        if scenario_needs_artifacts(spec.scenario) and not needs:
            raise ValueError(
                f"pipeline '{name}': stage '{key}' runs analysis scenario "
                f"{spec.scenario!r} but declares no needs — it would have "
                "nothing to analyze"
            )
    return rows
