"""The benchmark's workloads, by name (``BENCHMARK.json`` lists the same)."""

from . import analysis, daemon, sim, sweep

WORKLOADS = {
    mod.NAME: mod for mod in (analysis, sim, sweep, daemon)
}
