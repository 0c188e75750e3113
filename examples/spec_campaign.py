#!/usr/bin/env python3
"""Spec-driven campaigns: declare the grid, let the Runner do the rest.

Every campaign family in this repo (chaos, profile, mechanistic, SNMP,
managed-service, synthetic workloads) runs through one pipeline: an
``ExperimentSpec`` names a registered scenario and the sweep axes, a
``Runner`` expands the grid with deterministic per-cell seeds, and a
content-addressed ``ResultCache`` makes re-runs incremental — only
cells whose (scenario, params, seed) identity changed recompute.

This walkthrough:

  1. loads the example TOML spec and shows the expanded grid;
  2. runs it twice through a cached Runner — the second pass executes
     zero cells;
  3. grows an axis and re-runs: only the new cells compute;
  4. registers a custom scenario and sweeps it, to show the framework
     is not tied to the built-in campaign families;
  5. "kills" a campaign partway (drops artifacts), resumes it, and runs
     the cache-maintenance pass (stats / verify / gc) — the same
     machinery behind ``repro-gridftp cache`` and the exit-75
     resume flow;
  6. runs the cross-spec Pareto pipeline: the chaos grid from step 1 is
     *read* from the cache (zero recompute) while a managed-service
     sweep and the Pareto-front analysis stage execute on top of it.

Everything is seeded: rerunning prints identical numbers.

Run:  python examples/spec_campaign.py
"""

import pathlib
import tempfile

from repro.experiments.cache import ResultCache
from repro.experiments.registry import register_scenario, scenario_names
from repro.experiments.runner import Runner
from repro.experiments.spec import ExperimentSpec, load_spec

HERE = pathlib.Path(__file__).parent


def main() -> None:
    print("registered scenarios:", ", ".join(scenario_names()))
    print()

    # -- 1. a reviewable text artifact is the campaign -----------------------
    spec = ExperimentSpec.from_file(HERE / "specs" / "chaos_grid.toml")
    print(f"spec '{spec.name}': scenario={spec.scenario}, "
          f"{spec.n_cells} cells, seed_mode={spec.seed_mode}")
    for cell in spec.cells():
        print(f"  cell {cell.index}: {cell.coords}  seed={cell.seed}")
    print()

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        runner = Runner(cache=cache)

        # -- 2. cold run, then a warm re-run -------------------------------
        cold = runner.run(spec)
        print(cold.format())
        print()
        warm = runner.run(spec)
        print(f"warm re-run: {warm.n_executed} executed, "
              f"{warm.n_cached} cached (results identical: "
              f"{warm.results() == cold.results()})")
        print()

        # -- 3. growing an axis only computes the new cells -----------------
        grown = ExperimentSpec.from_dict(
            {
                **spec.to_dict(),
                "axes": {
                    **{k: list(v) for k, v in spec.axes.items()},
                    "rejection_prob": [0.0, 0.3, 0.6],
                },
            }
        )
        extended = runner.run(grown)
        print(f"grown grid ({grown.n_cells} cells): "
              f"{extended.n_cached} cached, {extended.n_executed} computed")
        print()

    # -- 4. any callable can be a scenario ----------------------------------
    @register_scenario("demo-quadratic")
    def quadratic(params, seed):
        x = params["x"]
        return {"x": x, "y": params["a"] * x * x, "seed": seed}

    sweep = ExperimentSpec(
        name="quadratic-sweep",
        scenario="demo-quadratic",
        params={"a": 2.0},
        axes={"x": tuple(range(5))},
        seed=7,
    )
    campaign = Runner().run(sweep)
    print("custom scenario sweep (per-cell seeds):")
    for cell in campaign.cells:
        print(f"  x={cell.result['x']}  y={cell.result['y']:4.1f}  "
              f"seed={cell.result['seed']}")
    print()

    # -- 5. crash-safe resume and cache maintenance --------------------------
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        ck_dir = pathlib.Path(tmp) / ".checkpoints"
        runner = Runner(cache=cache, checkpoint_dir=ck_dir)
        full = runner.run(sweep)

        # model a run that died partway: 2 of 5 cells never settled
        for path in list(cache.iter_artifacts())[:2]:
            path.unlink()
        resumed = runner.run(sweep)
        print(f"resume after simulated crash: {resumed.n_executed} executed, "
              f"{resumed.n_cached} cached (results identical: "
              f"{resumed.results() == full.results()})")
        # (a SIGINT/SIGTERM mid-run journals quarantined cells and the
        #  cells in flight too — `repro-gridftp run` exits 75 and the next
        #  invocation picks up exactly here)

        st = cache.stats()
        print(f"cache stats: {st.n_artifacts} artifacts, "
              f"{st.total_bytes} bytes, {st.n_tmp} orphaned tmp files")
        report = cache.verify()
        print(f"cache verify: {report.n_ok} ok, {len(report.bad)} bad")
        removed = cache.gc(older_than_s=7 * 86400)  # nothing that old yet
        print(f"cache gc --older-than 7d: removed {len(removed)}")
    print()

    # -- 6. pipelines: analysis stages over other specs' cached grids --------
    pipeline = load_spec(HERE / "specs" / "pareto_pipeline.toml")
    with tempfile.TemporaryDirectory() as tmp:
        runner = Runner(cache=ResultCache(tmp))
        # run the chaos grid on its own first, the way a colleague
        # (or a previous CI job) would have...
        runner.run(spec)
        # ...then the pipeline reads it straight from the cache: its
        # `needs = ["chaos_grid.toml"]` stage reports every cell cached,
        # and only the managed sweep + the Pareto front execute.
        result = runner.run_pipeline(pipeline)
        print(result.format())
        front = result.stage("front").results()[0]
        print(f"pareto front: {front['n_front']} non-dominated of "
              f"{front['n_points']} points")
        for pt in front["front"]:
            print(f"  avail={pt['availability']:.3f}  "
                  f"goodput={pt['goodput_bps'] / 1e9:6.2f} Gb/s  "
                  f"({pt['source']})")


if __name__ == "__main__":
    main()
