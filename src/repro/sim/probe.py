"""Pluggable instrumentation for the simulation engine.

Perf claims about the simulator should be observable, not guessed: a
:class:`SimProbe` threads through the event loop, the incremental
allocator and the fluid simulator, and counts what actually happened —
events processed, allocation passes, flows touched per pass, and
wall-clock time per phase.  Every hook is cheap (counter bumps and
``perf_counter`` pairs), so probes can stay on in production campaigns.

The hooks are duck-typed: any object exposing ``on_event()``,
``on_alloc_pass(n_flows)`` and ``phase(name)`` can stand in — which is
how custom probes (histograms, tracing, live dashboards) plug into the
same seams without the engine knowing about them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

__all__ = ["SimProbe"]


@dataclasses.dataclass
class SimProbe:
    """Counters and phase timers for one simulation run.

    Attributes
    ----------
    n_events:
        Event-loop callbacks executed.
    n_flushes:
        Timestamp batches that triggered a reallocation flush.
    n_alloc_passes:
        Allocation solves (per allocator pass: VC and best-effort count
        separately, exactly like the two-pass oracle).
    n_flows_touched:
        Total flows re-solved across all passes; divide by
        ``n_alloc_passes`` for the mean touched set — the number the
        dirty-set propagation exists to keep small.
    max_flows_touched:
        Largest single set re-solved in one pass.
    wall_s:
        Accumulated wall-clock seconds per named phase (``advance``,
        ``allocate``, ...).
    """

    n_events: int = 0
    n_flushes: int = 0
    n_alloc_passes: int = 0
    n_flows_touched: int = 0
    max_flows_touched: int = 0
    wall_s: dict[str, float] = dataclasses.field(default_factory=dict)

    # -- hooks -------------------------------------------------------------

    def on_event(self) -> None:
        self.n_events += 1

    def on_flush(self) -> None:
        self.n_flushes += 1

    def on_alloc_pass(self, n_flows: int) -> None:
        self.n_alloc_passes += 1
        self.n_flows_touched += n_flows
        if n_flows > self.max_flows_touched:
            self.max_flows_touched = n_flows

    @contextlib.contextmanager
    def phase(self, name: str):
        """Time a named phase; nests and accumulates across calls."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s[name] = self.wall_s.get(name, 0.0) + (
                time.perf_counter() - t0
            )

    # -- reporting ---------------------------------------------------------

    @property
    def mean_flows_per_pass(self) -> float:
        return self.n_flows_touched / self.n_alloc_passes if self.n_alloc_passes else 0.0

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["mean_flows_per_pass"] = self.mean_flows_per_pass
        return out

    def merge(self, other: "SimProbe") -> "SimProbe":
        """Elementwise sum — aggregate probes from twin runs or shards."""
        wall = dict(self.wall_s)
        for k, v in other.wall_s.items():
            wall[k] = wall.get(k, 0.0) + v
        return SimProbe(
            n_events=self.n_events + other.n_events,
            n_flushes=self.n_flushes + other.n_flushes,
            n_alloc_passes=self.n_alloc_passes + other.n_alloc_passes,
            n_flows_touched=self.n_flows_touched + other.n_flows_touched,
            max_flows_touched=max(self.max_flows_touched, other.max_flows_touched),
            wall_s=wall,
        )

    def format_table(self) -> str:
        """Human-readable counter block (the ``profile`` CLI's output)."""
        lines = [
            f"  events processed    {self.n_events:>12,}",
            f"  realloc flushes     {self.n_flushes:>12,}",
            f"  allocation passes   {self.n_alloc_passes:>12,}",
            f"  flows touched       {self.n_flows_touched:>12,}"
            f"  (mean {self.mean_flows_per_pass:.1f}/pass,"
            f" max {self.max_flows_touched})",
        ]
        for name in sorted(self.wall_s):
            lines.append(f"  wall[{name:<9}]     {self.wall_s[name]:>12.3f} s")
        return "\n".join(lines)
