"""The campaign runner: expand a spec, execute cells, collect results.

One :class:`Runner` drives every campaign family (chaos, profile,
mechanistic, SNMP, managed-service, synth) through the same pipeline:

1. expand the :class:`~repro.experiments.spec.ExperimentSpec` into cells
   with deterministic per-cell seeds;
2. satisfy what it can from the content-addressed
   :class:`~repro.experiments.cache.ResultCache` and, on a resumed run,
   from the :class:`~repro.experiments.checkpoint.CampaignCheckpoint`
   journal (which restores quarantined cells the cache never stores);
3. execute the rest: one **ready-set scheduler** dispatches cells to
   one of two executors, picked by ``jobs``:

   * ``jobs == 1`` — *in-process*: each cell runs in the parent, one at
     a time; nothing supervises it, so no per-cell timeout applies;
   * ``jobs > 1`` — up to ``jobs`` *forked workers*, each on its own
     duplex pipe: the parent sends ``(scenario, params, seed,
     artifacts)``, the worker replies ``(result, wall_s, error)``.  A
     worker holds two cells, the running one and one queued behind it,
     so it never idles while the parent settles its last reply; the
     price is a bounded head-of-line wait, as a queued cell waits out
     the one cell ahead of it (or that cell's budget) while the other
     workers move on.  The parent starts no thread: it blocks in
     :func:`multiprocessing.connection.wait` on the pipes and the
     process sentinels;

4. quarantine failed cells (exception, unpicklable result, timeout) as
   :class:`CellResult` errors instead of aborting the campaign, so one
   pathological grid point cannot cost you the other 99.  A cell's
   budget runs from its execution start (its dispatch to an idle
   worker, or the reply before it).  A timeout or a death kills and
   replaces that worker alone; its queued cell goes back, uncharged, to
   the front of the ready queue, and a cell whose workers died more
   than ``_MAX_POOL_RETRIES`` times is quarantined.

Workers fork from an explicit ``"fork"`` context, on first dispatch (a
fully cached run forks none): scenarios registered at run time live
only in the parent's registry, ``spawn`` would re-import numpy and
``repro`` in every worker of every pass, and Python 3.14 makes
``forkserver`` the Linux default.

A flat spec is a one-stage plan; :meth:`Runner.run_pipeline` runs a
:class:`~repro.experiments.spec.PipelineSpec` as a plan with one row per
stage.  Each stage's ``needs`` resolve to the upstream stages' (or
external specs') :class:`~repro.experiments.artifacts.ArtifactSet`
objects, whose digests fold into the stage's cell keys and checkpoint
fingerprint — so a warm re-run short-circuits entire stages through the
cache, an upstream edit re-keys (and therefore re-runs) exactly the
stages downstream of it, and a kill mid-stage resumes from that stage's
own journal.  A stage becomes runnable the moment the artifact digests
of everything it ``needs`` settle, and each dispatch round draws cells
from every runnable stage, so on a pool the two middle stages of a
diamond execute side by side.  Scheduling order never leaks into
results: cell keys, fingerprints, and artifacts are pure functions of
the specs and upstream digests, so any legal interleaving, on either
executor, produces byte-identical artifacts.  A stage that settles with
quarantined cells *cancels* its artifact-consuming dependents
(transitively) — their cells settle with a one-line ``cancelled:``
reason instead of the scheduler raising mid-flight, and stages that
never needed the broken grid still run to completion.

SIGINT/SIGTERM are handled gracefully while a campaign runs: the first
signal stops dispatching (the in-process executor checks before every
cell), waits out each worker's running cell and kills a worker holding
a queued one (that cell stays in flight in the journal), so a drain
settles at most one cell per worker; it then flushes every open
stage's checkpoint and raises :class:`CampaignInterrupted` (the CLI
maps it to exit code 75, ``EX_TEMPFAIL``).  A second signal aborts
immediately.  Workers ignore both signals: the parent owns draining.

Every cell result uniformly carries its wall-clock seconds; scenarios
that run the fluid simulator embed their
:class:`~repro.sim.probe.SimProbe` counters in the result payload, so
engine instrumentation flows into campaign reports for free.

:meth:`Runner.dry_run` walks the same plan without executing anything;
:func:`plan_dag_summary` reduces a dry-run plan to the stage DAG's
critical path, width, and a predicted serial-vs-parallel cell schedule.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import multiprocessing
import os
import pickle
import queue
import signal
import threading
import time
import traceback
import warnings
from multiprocessing import connection
from multiprocessing.connection import Connection
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

#: cells one pool worker holds: the running one and one queued behind it
_WORKER_DEPTH = 2

#: deaths a cell may cost its workers before it is quarantined as the
#: cell that keeps killing them
_MAX_POOL_RETRIES = 2


def _quarantine_reason(exc: BaseException) -> str:
    """The one-line reason a failed cell is quarantined with."""
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _execute_cell(
    scenario: str,
    params: dict[str, Any],
    seed: int,
    artifacts: dict[str, ArtifactSet] | None = None,
) -> tuple[Any, float, str | None]:
    """Run one cell: ``(result, wall_s, error)``; an exception quarantines.

    ``artifacts`` are the resolved upstream sets an analysis scenario
    receives as its third argument.
    """
    t0 = time.perf_counter()
    try:
        fn = get_scenario(scenario)
        if scenario_needs_artifacts(scenario):
            result = fn(params, seed, artifacts or {})
        else:
            result = fn(params, seed)
    except Exception as exc:  # quarantine, keep the campaign alive
        return None, time.perf_counter() - t0, _quarantine_reason(exc)
    return result, time.perf_counter() - t0, None


def _worker_main(conn: Connection, parent_ends: list[Connection]) -> None:
    """A pool worker: run each cell the parent sends, reply its outcome.

    It ignores SIGINT and SIGTERM, which reach the whole process group:
    the parent owns draining, and stops workers with SIGKILL.  A reader
    thread empties the pipe as messages arrive: were a queued cell and
    the reply before it both larger than the pipe's buffer, each side
    would otherwise block in ``send`` for good.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    for end in parent_ends:  # EOF on ``conn`` must mean the parent is gone
        end.close()
    inbox: queue.SimpleQueue[bytes | None] = queue.SimpleQueue()

    def read() -> None:
        try:
            while True:
                inbox.put(conn.recv_bytes())
        except (EOFError, OSError):
            inbox.put(None)

    threading.Thread(target=read, daemon=True).start()
    while (payload := inbox.get()) is not None:
        reply = _execute_cell(*pickle.loads(payload))
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return
        except Exception as exc:  # the result does not pickle
            conn.send((None, reply[1], _quarantine_reason(exc)))


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
    cells and the in-flight frontier live in the checkpoint journal, and
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

    A dispatch round may mix cells from several stages; each settles
    into its own stage's result map and checkpoint journal.
    """

    stage: _Stage
    cell: Cell
    key: str | None

    @property
    def args(self) -> tuple[str, dict[str, Any], int, Any]:
        """:func:`_execute_cell`'s arguments: what a pool worker is sent."""
        stage, cell = self.stage, self.cell
        return stage.spec.scenario, cell.params, cell.seed, stage.artifacts


#: one cell's outcome, to settle: (task, result, wall_s, error)
_Outcome = tuple[_Task, Any, float, "str | None"]


class _InProcessExecutor:
    """``jobs == 1``: each cell runs in the parent, one at a time.

    The executor seam: ``free`` slots to ``dispatch(tasks)`` into,
    ``busy``, ``wait(drain)`` for outcomes to settle and cells to
    dispatch again, and ``close()``.  Nothing supervises an in-process
    cell, so no timeout applies; the drain flag is checked before every
    cell, and a cell left unrun stays journaled for a resume.
    """

    def __init__(self) -> None:
        self._task: _Task | None = None

    @property
    def free(self) -> int:
        return int(self._task is None)

    @property
    def busy(self) -> bool:
        return self._task is not None

    def dispatch(self, tasks: list[_Task]) -> None:
        (self._task,) = tasks

    def wait(self, drain: _SignalDrain) -> tuple[list[_Outcome], list[_Task]]:
        task, self._task = self._task, None
        if drain.triggered:
            return [], []
        return [(task, *_execute_cell(*task.args))], []

    def close(self) -> None:
        pass


@dataclasses.dataclass(eq=False)
class _Worker:
    """One pool slot, as the parent sees it."""

    #: the forked process and the parent's end of its duplex pipe; None
    #: until the slot's first dispatch, and again after a kill
    proc: Any = None
    conn: Connection | None = None
    #: cells sent and not yet replied to, the running one first
    tasks: collections.deque = dataclasses.field(default_factory=collections.deque)
    #: ``time.monotonic()`` when the running cell's budget started
    started: float = 0.0


class _PoolExecutor:
    """``jobs > 1``: ``jobs`` slots, each forking a worker when dispatched to."""

    def __init__(self, jobs: int, cell_timeout_s: float | None) -> None:
        self.cell_timeout_s = cell_timeout_s
        self._workers = [_Worker() for _ in range(jobs)]
        #: (stage key, cell index) -> workers that died running the cell
        self._deaths: dict[tuple[str, int], int] = {}

    @property
    def free(self) -> int:
        return sum(_WORKER_DEPTH - len(w.tasks) for w in self._workers)

    @property
    def busy(self) -> bool:
        return any(w.tasks for w in self._workers)

    def dispatch(self, tasks: list[_Task]) -> None:
        """Deal ``tasks`` round-robin: each idle worker gets one first."""
        todo = iter(tasks)
        for depth in range(_WORKER_DEPTH):
            for w in self._workers:
                if len(w.tasks) == depth and (task := next(todo, None)):
                    self._send(w, task)

    def wait(self, drain: _SignalDrain) -> tuple[list[_Outcome], list[_Task]]:
        """Block until a worker replies, dies, or overruns its budget.

        Returns the outcomes to settle and the cells to dispatch again.
        While draining, a worker that replies with a cell queued behind
        it has begun that cell: it is killed, and the cell stays in
        flight in the journal, for the resume.
        """
        done: list[_Outcome] = []
        retry: list[_Task] = []
        busy = [w for w in self._workers if w.tasks]
        budget = self.cell_timeout_s
        timeout = None
        if budget is not None:  # wake at the earliest end
            end = min(w.started for w in busy) + budget
            timeout = max(0.0, end - time.monotonic())
        handles = [h for w in busy for h in (w.conn, w.proc.sentinel)]
        ready = connection.wait(handles, timeout)
        now = time.monotonic()
        for w in busy:
            if w.conn in ready:
                try:
                    result, wall_s, error = w.conn.recv()
                except (EOFError, OSError):  # it died before replying
                    self._lost(w, done, retry)
                    continue
                done.append((w.tasks.popleft(), result, wall_s, error))
                w.started = now
                if drain.triggered and w.tasks:
                    self._kill(w)
            elif w.proc.sentinel in ready:
                self._lost(w, done, retry)
            elif budget is not None and now - w.started > budget:
                error = f"TimeoutError: cell exceeded {budget:.1f} s budget"
                done.append((w.tasks.popleft(), None, budget, error))
                retry.extend(w.tasks)
                self._kill(w)
        return done, retry

    def close(self) -> None:
        live = [w for w in self._workers if w.proc is not None]
        for w in live:  # signal every worker first: they die side by side
            w.proc.kill()
        for w in live:
            self._kill(w)

    def _send(self, w: _Worker, task: _Task) -> None:
        if w.proc is None:
            ctx = multiprocessing.get_context("fork")
            w.conn, child = ctx.Pipe()
            ends = [o.conn for o in self._workers if o.conn is not None]
            w.proc = ctx.Process(target=_worker_main, args=(child, ends))
            w.proc.start()
            child.close()
        if not w.tasks:  # an idle worker starts the cell at once
            w.started = time.monotonic()
        w.tasks.append(task)
        try:
            w.conn.send(task.args)
        except OSError:  # the worker died: its sentinel tells ``wait``
            pass

    def _lost(self, w: _Worker, done: list[_Outcome], retry: list[_Task]) -> None:
        """A worker died: charge its running cell, hand back its queued one."""
        running, *queued = w.tasks
        self._kill(w)
        rid = (running.stage.key, running.cell.index)
        deaths = self._deaths[rid] = self._deaths.get(rid, 0) + 1
        if deaths > _MAX_POOL_RETRIES:
            error = (
                f"BrokenProcessPool: {deaths} workers died running this "
                "cell (does the scenario kill or exit its worker process?)"
            )
            done.append((running, None, 0.0, error))
        else:
            retry.append(running)
        retry.extend(queued)

    @staticmethod
    def _kill(w: _Worker) -> None:
        """SIGKILL (workers ignore SIGTERM) and reap; the caller took its cells."""
        w.proc.kill()
        w.proc.join(5.0)
        w.conn.close()
        w.proc = w.conn = None
        w.tasks.clear()


_Executor = _InProcessExecutor | _PoolExecutor


#: one plan row: (resolution key, spec, needs, external)
_PlanRow = tuple[str, ExperimentSpec, tuple[str, ...], bool]


class Runner:
    """Execute campaigns: cached, resumable, in-process or on a pool.

    Flat specs and pipelines run on one ready-set scheduler; ``jobs``
    alone picks the executor it dispatches cells to.

    Parameters
    ----------
    jobs:
        ``1`` (default) runs every cell in-process, one at a time.
        ``> 1`` runs cells on that many forked workers; for pipelines
        the pool is *pipeline-wide*: cells from every runnable stage
        share it, so sibling stages of a diamond run side by side.
    cache:
        A :class:`ResultCache` to consult before and fill after each
        cell; ``None`` disables caching.
    cell_timeout_s:
        Per-cell wall-clock budget in seconds, finite and positive
        (pool only — nothing supervises an in-process cell), measured
        from the cell's execution start, not its dispatch; an overrun
        quarantines the cell and kills its worker.
    checkpoint_dir:
        Directory for :class:`CampaignCheckpoint` journals; ``None``
        disables checkpointing.  With a journal, a killed run restarted
        with the same spec (and cache) resumes where it stopped: cached
        cells come back as hits, quarantined cells are restored verbatim,
        and only genuinely unfinished cells execute.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        cell_timeout_s: float | None = None,
        checkpoint_dir: str | os.PathLike | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if cell_timeout_s is not None and not 0 < cell_timeout_s < float("inf"):
            raise ValueError(
                "cell_timeout_s must be a finite number of seconds > 0, "
                f"got {cell_timeout_s}"
            )
        self.jobs = jobs
        self.cache = cache
        self.cell_timeout_s = cell_timeout_s
        self.checkpoint_dir = checkpoint_dir
        #: optional scheduling-order hook: called with the candidate
        #: list of ``(stage_key, cell_index)`` pairs (plan order) before
        #: each dispatch round; returns the pairs in the order to
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
        and every dispatch round draws cells from *every* open stage —
        with ``jobs > 1`` sibling stages execute side by side on one
        shared pool.  Either executor produces byte-identical cell keys,
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

    def _executor(self) -> _Executor:
        if self.jobs == 1:
            return _InProcessExecutor()
        return _PoolExecutor(self.jobs, self.cell_timeout_s)

    def _schedule(
        self, plan: list[_PlanRow], force: bool
    ) -> dict[str, CampaignResult]:
        """Run a plan to completion: the Runner's one scheduling loop.

        Each iteration seals settled stages and opens runnable ones,
        dispatches pending cells of every open stage into free slots,
        waits for outcomes, refills the slots they freed, and only then
        settles them: no barrier, and no worker idles while the parent
        writes cache and journal.  All scheduler state lives in this one
        thread.  Returns each row's campaign in plan order.
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
                    self._dispatch(stages, executor, drain)
                    if not executor.busy:
                        if drain.triggered:
                            raise self._interrupted(stages, drain.signum)
                        raise RuntimeError(
                            "internal error: scheduler stalled with "
                            "unfinished stages and no dispatchable cells"
                        )
                    done, retry = executor.wait(drain)
                    for task in reversed(retry):  # to the front of its queue
                        task.stage.pending = {
                            task.cell.index: (task.cell, task.key),
                            **task.stage.pending,
                        }
                    self._dispatch(stages, executor, drain)  # refill first
                    for outcome in done:
                        self._settle(*outcome)
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

    def _dispatch(
        self, stages: dict[str, _Stage], executor: _Executor, drain: _SignalDrain
    ) -> None:
        """One dispatch round: fill the executor's free slots, unless draining.

        Candidates come in plan order, or as ``schedule_hook`` permutes
        them.  Each stage that gave cells journals its in-flight set once.
        """
        free = 0 if drain.triggered else executor.free
        if not free:
            return
        candidates = (
            (stage.key, index)
            for stage in stages.values()
            if stage.running
            for index in stage.pending
        )
        if self.schedule_hook is None:
            order = list(itertools.islice(candidates, free))
        else:
            hooked = self.schedule_hook(list(candidates))
            order = [tuple(pair) for pair in hooked][:free]
        if not order:
            return
        tasks: list[_Task] = []
        taken: dict[str, list[int]] = {}
        for key, index in order:
            stage = stages[key]
            cell, cell_key = stage.pending.pop(index)
            tasks.append(_Task(stage, cell, cell_key))
            taken.setdefault(key, []).append(index)
        for key, indices in taken.items():
            ckpt = stages[key].ckpt
            if ckpt is not None:
                ckpt.begin_batch(sorted({*ckpt.frontier, *indices}))
        executor.dispatch(tasks)

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
