"""A minimal discrete-event simulation core.

The mechanistic experiments are fluid simulations: rates change only at
*events* (job arrival, flow completion, circuit activation), and between
events every flow progresses linearly.  This module supplies the event
loop those simulations schedule against: a monotonic clock and a priority
queue of timestamped callbacks with deterministic FIFO tie-breaking.

Same-timestamp events are *coalesced*: :meth:`EventLoop.run` drains every
callback sharing a timestamp, then fires the registered flush hooks once.
Rates only matter when the clock moves (zero time moves zero fluid), so a
simulator that reallocates from its flush hook pays one allocation per
distinct instant instead of one per callback — an arrival burst of k jobs
at the same second costs one reallocation, not k.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable

__all__ = ["EventLoop", "Event"]


class Event:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; the loop will skip it when popped."""
        self.cancelled = True


class EventLoop:
    """Timestamped callback queue with a monotonic clock.

    Events at equal times run in scheduling order.  Scheduling in the past
    raises — a fluid simulator that back-dates an event has a bug, and
    catching it here beats silently reordering history.  The heap holds
    ``(time, seq, event)`` tuples: ``seq`` is unique, so heap comparisons
    are tuple comparisons of two numbers, done in C, and never reach the
    event.
    """

    def __init__(self, start_time: float = 0.0, probe=None) -> None:
        self._now = float(start_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._n_processed = 0
        self._flush_hooks: list[Callable[[], None]] = []
        self.probe = probe

    @property
    def now(self) -> float:
        return self._now

    @property
    def n_processed(self) -> int:
        """Number of callbacks executed so far (diagnostics)."""
        return self._n_processed

    def next_boundary(self, window_s: float) -> float:
        """First multiple of ``window_s`` strictly after the clock.

        The cadence helper batch daemons wake on: the provisioner arms
        its first tick here, and scheduling policies that defer a
        provision (:meth:`repro.sched.base.TransferScheduler.approve_provision`)
        get re-asked at exactly these instants.
        """
        if window_s <= 0:
            raise ValueError("window must be positive")
        return ((self._now // window_s) + 1) * window_s

    def schedule(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute ``time``; returns a cancellable handle."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} before now={self._now}")
        seq = next(self._seq)
        ev = Event(time, seq, callback)
        heapq.heappush(self._queue, (time, seq, ev))
        return ev

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self._now + delay, callback)

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or None when the queue is empty."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def add_flush_hook(self, hook: Callable[[], None]) -> None:
        """Register ``hook`` to run once per drained timestamp batch.

        Hooks fire (in registration order) from :meth:`run` after every
        group of same-timestamp events, including events the group itself
        scheduled at the same instant.  :meth:`step` never flushes —
        single-stepping callers own their own settle points.
        """
        self._flush_hooks.append(hook)

    def _fire_flush_hooks(self) -> None:
        for hook in self._flush_hooks:
            hook()

    def step(self) -> bool:
        """Run the next live event; returns False when the queue is drained."""
        while self._queue:
            ev = heapq.heappop(self._queue)[2]
            if ev.cancelled:
                continue
            self._now = ev.time
            ev.callback()
            self._n_processed += 1
            if self.probe is not None:
                self.probe.on_event()
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the queue, optionally stopping at time ``until``.

        Events scheduled exactly at ``until`` still run; later ones stay
        queued and the clock advances to ``until``.  ``max_events`` guards
        against runaway simulations in tests.  Flush hooks run once per
        same-timestamp batch.
        """
        processed = 0
        while True:
            if max_events is not None and processed >= max_events:
                raise RuntimeError(f"event budget of {max_events} exhausted")
            t = self.peek_time()
            if t is None:
                break
            if until is not None and t > until:
                self._now = until
                return
            self.step()
            processed += 1
            # drain the rest of this timestamp's batch, then settle once
            while True:
                nt = self.peek_time()
                if nt is None or nt != t:
                    break
                if max_events is not None and processed >= max_events:
                    raise RuntimeError(f"event budget of {max_events} exhausted")
                self.step()
                processed += 1
            self._fire_flush_hooks()
        if until is not None and until > self._now:
            self._now = until
