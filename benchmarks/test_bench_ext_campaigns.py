"""Ext-P: the experiment framework on a real 4-axis chaos grid.

A 2x2x2x2 = 16-cell chaos campaign (rejection x timeout x flap rate x
flap duration) exercised three ways:

* serial through the Runner — the correctness reference;
* process-parallel (``jobs=4``) — must produce byte-identical cell
  results, and on a multicore box must beat serial by >= 2x;
* against a warm artifact cache — the re-run must execute **zero**
  cells and still return identical results.
"""

import os

from repro.experiments.cache import ResultCache
from repro.experiments.campaigns import ChaosConfig, chaos_params_from_config
from repro.experiments.runner import Runner
from repro.experiments.spec import ExperimentSpec

AXES = {
    "rejection_prob": [0.0, 0.3],
    "setup_timeout_prob": [0.0, 0.2],
    "flaps_per_hour": [0.0, 30.0],
    "flap_duration_s": [10.0, 25.0],
}


def _grid_spec() -> ExperimentSpec:
    params = chaos_params_from_config(ChaosConfig(n_jobs=3, job_bytes=4e9))
    for axis in AXES:
        params.pop(axis, None)
    return ExperimentSpec(
        name="ext-p-chaos-grid",
        scenario="chaos",
        params=params,
        axes=AXES,
        seed=11,
        seed_mode="shared",
    )


def test_ext_campaign_grid(benchmark, tmp_path):
    spec = _grid_spec()
    assert spec.n_cells == 16

    serial = benchmark.pedantic(
        lambda: Runner(jobs=1).run(spec), rounds=1, iterations=1
    )
    assert serial.n_executed == 16 and serial.n_failed == 0

    parallel = Runner(jobs=4).run(spec)
    assert parallel.n_executed == 16 and parallel.n_failed == 0
    assert parallel.results() == serial.results()

    cache = ResultCache(tmp_path / "artifacts")
    cold = Runner(jobs=1, cache=cache).run(spec)
    warm = Runner(jobs=1, cache=cache).run(spec)
    assert warm.n_executed == 0
    assert warm.n_cached == 16
    assert warm.results() == cold.results() == serial.results()

    print()
    print("Ext-P: 16-cell chaos grid through the campaign runner")
    print(f"  serial    {serial.wall_s:8.2f} s  ({serial.n_executed} executed)")
    print(f"  jobs=4    {parallel.wall_s:8.2f} s  ({parallel.n_executed} executed)")
    print(f"  cold+cache{cold.wall_s:8.2f} s  ({cold.n_executed} executed)")
    print(f"  warm cache{warm.wall_s:8.2f} s  ({warm.n_cached} cached, 0 executed)")

    n_cpus = os.cpu_count() or 1
    if n_cpus >= 4:
        speedup = serial.wall_s / parallel.wall_s
        print(f"  speedup   {speedup:8.2f}x on {n_cpus} cpus")
        assert speedup >= 2.0
    else:
        print(f"  speedup assertion skipped: only {n_cpus} cpu(s) visible")
    # the warm re-run must be dramatically cheaper than computing
    assert warm.wall_s < serial.wall_s / 5
