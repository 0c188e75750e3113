"""A Globus-Online-style managed transfer service.

Section V: "Future data sets may be more easily obtained from Globus
Online" — the hosted service that wraps raw GridFTP in task management:
users submit *tasks* (move these files from A to B), the service runs
them with bounded concurrency, drives fault recovery, enforces
deadlines, and keeps an auditable event history.  This module implements
that layer on top of :mod:`repro.gridftp.reliability`:

* :class:`TransferTask` / :class:`TaskState` — the task lifecycle
  (QUEUED → ACTIVE → SUCCEEDED | FAILED | EXPIRED);
* :class:`ManagedTransferService` — the scheduler: FIFO queue, a
  concurrency cap (Globus's per-endpoint limit), per-task retry budgets,
  wall-clock deadlines, and a task event log;
* the service emits a consolidated :class:`~repro.gridftp.records.TransferLog`
  of the file movements it completed — the artifact the paper would have
  analyzed had it used Globus Online data.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math

import numpy as np

from ..core.rng import ensure_rng
from ..sim.engine import EventLoop
from ..sim.probe import SimProbe
from .records import TransferLog, TransferRecord, TransferType
from .reliability import (
    CircuitOutageTracker,
    FaultModel,
    ReliableTransferService,
    RestartPolicy,
    ScheduledOutages,
)

__all__ = [
    "TaskState",
    "TransferTask",
    "TaskEvent",
    "ManagedTransferService",
]


class TaskState(enum.Enum):
    QUEUED = "queued"
    ACTIVE = "active"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    EXPIRED = "expired"


@dataclasses.dataclass
class TransferTask:
    """One submitted task: a batch of files between two endpoints."""

    task_id: int
    src_host: int
    dst_host: int
    file_sizes: tuple[float, ...]
    submitted_at: float
    deadline_s: float | None = None  # wall-clock budget from activation
    state: TaskState = TaskState.QUEUED
    #: indices of files completed so far (tasks resume mid-batch)
    files_done: int = 0

    def __post_init__(self) -> None:
        if not self.file_sizes:
            raise ValueError("a task needs at least one file")
        if any(not math.isfinite(s) or s <= 0 for s in self.file_sizes):
            raise ValueError("file sizes must be positive and finite")
        if not math.isfinite(self.submitted_at) or self.submitted_at < 0:
            raise ValueError("submitted_at must be non-negative and finite")
        if self.deadline_s is not None and (
            not math.isfinite(self.deadline_s) or self.deadline_s <= 0
        ):
            raise ValueError("deadline must be positive")

    @property
    def total_bytes(self) -> float:
        return float(sum(self.file_sizes))


@dataclasses.dataclass(frozen=True, slots=True)
class TaskEvent:
    """One audit-log entry."""

    time: float
    task_id: int
    event: str
    detail: str = ""


class ManagedTransferService:
    """Run submitted tasks with bounded concurrency and fault recovery.

    The service is driven by :meth:`run`: it owns a simple virtual clock,
    activates queued tasks as concurrency slots free up, executes each
    file through the reliable-transfer layer at the endpoint pair's
    transport rate, and settles every task into a terminal state.

    Parameters
    ----------
    rate_for:
        Callable ``(src_host, dst_host) -> bps`` supplying the transport
        rate (in the full system: the TCP model or the fluid simulator).
    concurrency:
        Maximum simultaneously-active tasks (Globus's endpoint limit).
    fault_model, restart_policy, max_attempts_per_file:
        Passed through to the reliability layer.

    The queue is strict FIFO: a slot frees when the task holding it
    ends (its last file lands, or its last attempt gives up), and the
    head of the queue takes the earliest slot to free.  Global dispatch
    over the pending set (EDF, then LPT) is a policy of the daemon's
    scheduling layer, :class:`~repro.sched.globalsched.GlobalScheduler`,
    not of this batch service.
    """

    def __init__(
        self,
        rate_for,
        concurrency: int = 4,
        fault_model: FaultModel | None = None,
        restart_policy: RestartPolicy | None = None,
        max_attempts_per_file: int = 10,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.rate_for = rate_for
        self.concurrency = concurrency
        self._reliable = ReliableTransferService(
            fault_model or FaultModel(0.0),
            restart_policy,
            max_attempts=max_attempts_per_file,
        )
        self._ids = itertools.count()
        self._tasks: dict[int, TransferTask] = {}
        self._queue: list[int] = []
        self.events: list[TaskEvent] = []
        self._records: list[TransferRecord] = []
        #: per-task path outage history (set by :meth:`bind_outages`)
        self._histories: dict[int, CircuitOutageTracker | ScheduledOutages] = {}
        self.n_flaps_recovered = 0

    # -- submission -------------------------------------------------------

    def submit(
        self,
        src_host: int,
        dst_host: int,
        file_sizes: list[float],
        submitted_at: float = 0.0,
        deadline_s: float | None = None,
    ) -> int:
        """Queue a task; returns its id."""
        task = TransferTask(
            task_id=next(self._ids),
            src_host=src_host,
            dst_host=dst_host,
            file_sizes=tuple(float(s) for s in file_sizes),
            submitted_at=submitted_at,
            deadline_s=deadline_s,
        )
        self._tasks[task.task_id] = task
        self._queue.append(task.task_id)
        self.events.append(
            TaskEvent(submitted_at, task.task_id, "submitted",
                      f"{len(file_sizes)} files, {task.total_bytes / 1e9:.1f} GB")
        )
        return task.task_id

    def task(self, task_id: int) -> TransferTask:
        return self._tasks[task_id]

    def bind_outages(
        self, task_id: int, history: CircuitOutageTracker | ScheduledOutages
    ) -> None:
        """Tie a task's data path to an outage history.

        ``history`` answers ``outages_after``: a
        :class:`~repro.gridftp.reliability.CircuitOutageTracker` already
        watching the circuit the task rides (the wiring between circuit
        state-change events and GridFTP fault recovery), or a
        :class:`~repro.gridftp.reliability.ScheduledOutages` a
        :class:`~repro.faults.injector.FaultInjector` drew ahead of time
        (the chaos-campaign entry point: the managed service runs under
        the same fault schedules as the fluid simulator).  While the task
        runs, every down interval interrupts the in-flight file, which
        then resumes from its last restart marker.
        """
        if task_id not in self._tasks:
            raise KeyError(f"unknown task {task_id}")
        self._histories[task_id] = history
        self.events.append(
            TaskEvent(self._tasks[task_id].submitted_at, task_id, "outages-bound")
        )

    # -- execution ----------------------------------------------------------

    def run(
        self,
        rng: np.random.Generator | None = None,
        probe: SimProbe | None = None,
    ) -> TransferLog:
        """Drain the queue; returns the log of completed file movements.

        Driven by the shared :class:`~repro.sim.engine.EventLoop`: each
        active task is one recurring "execute next file" event, ordered
        by the task's own virtual clock, so file executions interleave by
        progress — a long task does not starve short ones submitted
        behind it (Globus's fairness behaviour, and the reason one user's
        monster session does not block the endpoint).  A finished task
        releases its slot from an event at its own end clock, so slots
        go to queued tasks in the order they free: a waiting task starts
        when its slot frees, or at its own submit time if that is later.
        A ``probe`` counts the scheduling events the run processed.
        """
        rng = ensure_rng(rng)
        loop = EventLoop(0.0, probe=probe)
        active: list[int] = []
        # per-task virtual clock: tasks run concurrently, each on its own
        # timeline starting when activated
        clock: dict[int, float] = {}
        elapsed: dict[int, float] = {}

        def schedule_next(tid: int) -> None:
            # no clock trails the loop: a task activates at or after the
            # clock of the task that freed its slot
            loop.schedule(clock[tid], lambda: run_file(tid))

        def activate(slot_free_at: float = 0.0) -> None:
            while self._queue and len(active) < self.concurrency:
                tid = self._queue.pop(0)
                t = self._tasks[tid]
                t.state = TaskState.ACTIVE
                active.append(tid)
                clock[tid] = max(t.submitted_at, slot_free_at)
                elapsed[tid] = 0.0
                self.events.append(TaskEvent(clock[tid], tid, "activated"))
                schedule_next(tid)

        def release(tid: int) -> None:
            active.remove(tid)
            activate(clock[tid])

        def finish(tid: int, state: TaskState, event: str, detail: str = "") -> None:
            self._tasks[tid].state = state
            self.events.append(TaskEvent(clock[tid], tid, event, detail))
            # the loop reaches a task's last file at its start; the slot
            # frees at its end, after files other tasks start before then
            loop.schedule(clock[tid], lambda: release(tid))

        def run_file(tid: int) -> None:
            t = self._tasks[tid]
            size = t.file_sizes[t.files_done]
            rate = float(self.rate_for(t.src_host, t.dst_host))
            result, n_hit = self._reliable.ride_file(
                size, rate, self._histories.get(tid), clock[tid], rng
            )
            if n_hit:
                self.n_flaps_recovered += n_hit
                self.events.append(
                    TaskEvent(clock[tid], tid, "circuit-flap",
                              f"{n_hit} outage(s), resumed from marker")
                )
            if not result.succeeded:
                # the attempts that exhausted the retry budget hold the
                # slot until they end
                clock[tid] += result.total_wall_s
                elapsed[tid] += result.total_wall_s
                finish(tid, TaskState.FAILED, "failed",
                       f"file {t.files_done} exhausted retries")
                return
            start = clock[tid]
            clock[tid] += result.total_wall_s
            elapsed[tid] += result.total_wall_s
            self._records.append(
                TransferRecord(
                    start=start,
                    duration=result.total_wall_s,
                    size=size,
                    transfer_type=TransferType.RETR,
                    local_host=t.src_host,
                    remote_host=t.dst_host,
                )
            )
            t.files_done += 1
            if t.deadline_s is not None and elapsed[tid] > t.deadline_s:
                finish(tid, TaskState.EXPIRED, "expired",
                       f"{t.files_done}/{len(t.file_sizes)} files done")
                return
            if t.files_done == len(t.file_sizes):
                finish(tid, TaskState.SUCCEEDED, "succeeded")
                return
            schedule_next(tid)

        activate()
        loop.run()
        return self.log()

    # -- results -----------------------------------------------------------

    def log(self) -> TransferLog:
        """Completed file movements, time-sorted."""
        return TransferLog.from_records(
            sorted(self._records, key=lambda r: r.start)
        )

    def states(self) -> dict[TaskState, int]:
        """Task count per state (the Globus dashboard numbers)."""
        out: dict[TaskState, int] = {s: 0 for s in TaskState}
        for t in self._tasks.values():
            out[t.state] += 1
        return out

    def events_for(self, task_id: int) -> list[TaskEvent]:
        return [e for e in self.events if e.task_id == task_id]
