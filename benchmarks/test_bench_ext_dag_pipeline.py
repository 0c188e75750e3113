"""Ext-T: the diamond pipeline under the ready-set DAG scheduler.

The measurement -> model -> decision diamond from the campaign layer —
``workload -> {chaos, direct} -> pareto`` — run cold twice: serially
(``jobs=1``, the correctness reference) and through the DAG scheduler
(``jobs=4``, one shared pool, sibling stages in mixed batches).  The
scheduler must beat serial wall clock by >= 1.8x on a >= 4-CPU box
while producing a byte-identical artifact set (worker count and
interleaving must never leak into results), and a warm re-run must
execute zero cells.
"""

import json
import os

from repro.experiments.cache import ResultCache, canonical_json
from repro.experiments.runner import Runner, plan_dag_summary
from repro.experiments.spec import ExperimentSpec, PipelineSpec, StageSpec


def _diamond() -> PipelineSpec:
    return PipelineSpec(
        name="ext-t-diamond",
        seed=11,
        stages=(
            StageSpec(
                name="workload",
                spec=ExperimentSpec(
                    name="ext-t/workload",
                    scenario="synth",
                    params={"n_transfers": 300_000},
                    axes={
                        "dataset": (
                            "slac-bnl",
                            "nersc-ornl-32gb",
                            "ncar-nics",
                            "slac-bnl",
                        ),
                    },
                    seed=11,
                ),
            ),
            StageSpec(
                name="chaos",
                spec=ExperimentSpec(
                    name="ext-t/chaos",
                    scenario="managed_from_workload",
                    params={"n_tasks": 8, "files_per_task": 4},
                    axes={"flaps_per_hour": (15.0, 45.0)},
                    seed=11,
                ),
                needs=("workload",),
            ),
            StageSpec(
                name="direct",
                spec=ExperimentSpec(
                    name="ext-t/direct",
                    scenario="managed_from_workload",
                    params={
                        "n_tasks": 8,
                        "files_per_task": 4,
                        "flaps_per_hour": 0.0,
                    },
                    axes={"rejection_prob": (0.0, 0.3)},
                    seed=11,
                ),
                needs=("workload",),
            ),
            StageSpec(
                name="pareto",
                spec=ExperimentSpec(
                    name="ext-t/pareto", scenario="pareto_front", seed=11
                ),
                needs=("chaos", "direct"),
            ),
        ),
    )


def _artifact_payloads(root) -> dict[str, str]:
    """Every cached artifact, keyed by content address, wall_s scrubbed."""
    out = {}
    for path in ResultCache(root).iter_artifacts():
        payload = json.loads(path.read_text())
        payload.pop("wall_s", None)
        out[path.name] = canonical_json(payload)
    return out


def test_ext_dag_diamond(benchmark, tmp_path):
    pipe = _diamond()

    plans = Runner(cache=ResultCache(tmp_path / "plan")).dry_run(pipe)
    summary = plan_dag_summary(plans, jobs=4)
    assert summary.depth == 3 and summary.width == 2
    assert summary.serial_cells == 9

    serial = benchmark.pedantic(
        lambda: Runner(
            jobs=1, cache=ResultCache(tmp_path / "serial")
        ).run_pipeline(pipe),
        rounds=1,
        iterations=1,
    )
    assert serial.n_executed == 9 and serial.n_failed == 0

    dag_runner = Runner(jobs=4, cache=ResultCache(tmp_path / "dag"))
    dag = dag_runner.run_pipeline(pipe)
    assert dag.n_executed == 9 and dag.n_failed == 0

    # worker count and interleaving never leak into results: identical
    # keys, fingerprints, per-stage results, and artifact bytes
    for name in serial.stages:
        s, d = serial.stage(name), dag.stage(name)
        assert [c.key for c in s.cells] == [c.key for c in d.cells]
        assert s.fingerprint == d.fingerprint
        assert canonical_json(s.results()) == canonical_json(d.results())
    assert _artifact_payloads(tmp_path / "serial") == _artifact_payloads(
        tmp_path / "dag"
    )

    # a warm re-run executes nothing and changes nothing
    warm = dag_runner.run_pipeline(pipe)
    assert warm.n_executed == 0 and warm.n_cached == 9
    assert _artifact_payloads(tmp_path / "dag") == _artifact_payloads(
        tmp_path / "serial"
    )

    print()
    print("Ext-T: cold diamond (workload -> {chaos, direct} -> pareto)")
    print(summary.format())
    print(f"  serial (jobs=1)  {serial.wall_s:8.2f} s")
    print(f"  DAG    (jobs=4)  {dag.wall_s:8.2f} s")
    print(f"  warm   (jobs=4)  {warm.wall_s:8.2f} s  (0 executed)")
    n_cpus = os.cpu_count() or 1
    if n_cpus >= 4:
        speedup = serial.wall_s / dag.wall_s
        print(f"  speedup          {speedup:8.2f}x on {n_cpus} cpus")
        assert speedup >= 1.8
    else:
        print(f"  speedup assertion skipped: only {n_cpus} cpu(s) visible")
    assert warm.wall_s < serial.wall_s / 5
