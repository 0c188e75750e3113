"""Ext-Q: crash-safe resume and cache maintenance on a chaos grid.

An 8-cell chaos campaign run cold into a cache, then "killed": a subset
of artifacts is deleted to model a run that died partway (the checkpoint
journal restores quarantined cells; the cache restores completed ones —
here every cell completes, so the cache alone carries the state).  The
resumed run must execute exactly the missing cells and reproduce the
reference results bit-for-bit.  The maintenance pass then exercises
``stats``/``verify``/``gc``/``prune_tmp`` on the same store and reports
their walls — these run over every artifact, so they are the operations
that must stay cheap as campaign archives grow.
"""

import time

from repro.experiments.cache import ResultCache
from repro.experiments.campaigns import ChaosConfig, chaos_params_from_config
from repro.experiments.runner import Runner
from repro.experiments.spec import ExperimentSpec

AXES = {
    "rejection_prob": [0.0, 0.3],
    "flaps_per_hour": [0.0, 30.0],
    "flap_duration_s": [10.0, 25.0],
}


def _grid_spec() -> ExperimentSpec:
    params = chaos_params_from_config(ChaosConfig(n_jobs=3, job_bytes=4e9))
    for axis in AXES:
        params.pop(axis, None)
    return ExperimentSpec(
        name="ext-q-resume-grid",
        scenario="chaos",
        params=params,
        axes=AXES,
        seed=13,
        seed_mode="shared",
    )


def test_ext_resume_and_maintenance(benchmark, tmp_path):
    spec = _grid_spec()
    assert spec.n_cells == 8
    cache = ResultCache(tmp_path / "artifacts")
    ck_dir = tmp_path / "checkpoints"

    cold = Runner(jobs=2, cache=cache, checkpoint_dir=ck_dir).run(spec)
    assert cold.n_executed == 8 and cold.n_failed == 0
    assert list(ck_dir.glob("*.ckpt.jsonl")) == []  # consumed on success

    # model a mid-campaign death: 3 of 8 cells never settled
    artifacts = list(cache.iter_artifacts())
    assert len(artifacts) == 8
    for path in artifacts[:3]:
        path.unlink()

    resumed = benchmark.pedantic(
        lambda: Runner(jobs=2, cache=cache, checkpoint_dir=ck_dir).run(spec),
        rounds=1,
        iterations=1,
    )
    assert resumed.n_cached == 5
    assert resumed.n_executed == 3
    assert resumed.results() == cold.results()

    # a fully warm resume is pure cache traffic
    warm = Runner(jobs=2, cache=cache, checkpoint_dir=ck_dir).run(spec)
    assert warm.n_cached == 8 and warm.n_executed == 0
    assert warm.results() == cold.results()

    # -- maintenance over the same store ------------------------------------
    t0 = time.perf_counter()
    st = cache.stats()
    stats_wall = time.perf_counter() - t0
    assert st.n_artifacts == 8 and st.n_tmp == 0

    t0 = time.perf_counter()
    report = cache.verify()
    verify_wall = time.perf_counter() - t0
    assert report.ok and report.n_ok == 8

    t0 = time.perf_counter()
    pruned = cache.prune_tmp()
    removed = cache.gc(older_than_s=30 * 86400)  # nothing that old
    gc_wall = time.perf_counter() - t0
    assert pruned == [] and removed == []
    assert len(cache) == 8

    print()
    print("Ext-Q: 8-cell chaos grid, kill/resume + cache maintenance")
    print(f"  cold        {cold.wall_s:8.2f} s  (8 executed)")
    print(f"  resume 3/8  {resumed.wall_s:8.2f} s  "
          f"({resumed.n_executed} executed, {resumed.n_cached} cached)")
    print(f"  warm        {warm.wall_s:8.2f} s  (8 cached)")
    print(f"  stats       {stats_wall * 1e3:8.2f} ms")
    print(f"  verify      {verify_wall * 1e3:8.2f} ms")
    print(f"  gc+prune    {gc_wall * 1e3:8.2f} ms")

    # resuming 3 cells must be materially cheaper than the cold run, and
    # the warm pass cheaper still
    assert resumed.wall_s < cold.wall_s
    assert warm.wall_s < resumed.wall_s
