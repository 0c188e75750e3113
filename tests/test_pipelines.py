"""Tests for composable multi-stage pipelines and first-class artifacts.

Covers the pipeline spec layer (``[[stages]]`` loading, DAG validation,
topological ordering), the artifact layer (typed reads, provenance
headers, set digests), the DAG-aware Runner (stage scheduling, cache
short-circuits, cross-spec resolution, exact dry-run plans, mid-stage
SIGTERM resume), and the CLI surfaces (pipeline ``run``, ``--dry-run``,
``cache stats --json``).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.cli import main
from repro.experiments import (
    Artifact,
    ArtifactSet,
    ExperimentSpec,
    PipelineSpec,
    ResultCache,
    Runner,
    StageSpec,
    canonical_json,
    cell_key,
    keys_digest,
    load_spec,
    register_scenario,
    scenario_needs_artifacts,
    spec_fingerprint,
)

# -- cheap scenarios registered for these tests ------------------------------


@register_scenario("pp-val")
def _pp_val(params, seed):
    return {"value": params["x"] * 10 + seed}


@register_scenario("pp-sum", needs_artifacts=True)
def _pp_sum(params, seed, artifacts):
    total = sum(
        a.result["value"] for aset in artifacts.values() for a in aset
    )
    n = sum(len(aset) for aset in artifacts.values())
    return {"total": total * params.get("factor", 1), "n": n, "seed": seed}


@register_scenario("pp-bad")
def _pp_bad(params, seed):
    raise ValueError("always broken")


@register_scenario("pp-s2", needs_artifacts=True)
def _pp_s2(params, seed, artifacts):
    time.sleep(float(params.get("sleep_s", 0.0)))
    return {"n": len(artifacts["workload"]), "x": params["x"], "seed": seed}


def _two_stage(seed=5, factor=1, xs=(1, 2)):
    """A workload grid feeding a single-cell pp-sum analysis."""
    return PipelineSpec(
        name="pipe",
        seed=seed,
        stages=(
            StageSpec(
                name="workload",
                spec=ExperimentSpec(
                    name="pipe/workload",
                    scenario="pp-val",
                    axes={"x": tuple(xs)},
                    seed=seed,
                ),
            ),
            StageSpec(
                name="analysis",
                spec=ExperimentSpec(
                    name="pipe/analysis",
                    scenario="pp-sum",
                    params={"factor": factor},
                    seed=seed,
                ),
                needs=("workload",),
            ),
        ),
    )


# -- pipeline spec layer -----------------------------------------------------


class TestPipelineSpec:
    def test_load_spec_returns_pipeline_for_stages(self, tmp_path):
        path = tmp_path / "pipe.toml"
        path.write_text(
            'name = "p"\n'
            "seed = 9\n"
            "[[stages]]\n"
            'name = "a"\n'
            'scenario = "pp-val"\n'
            "[stages.axes]\n"
            "x = [1, 2]\n"
            "[[stages]]\n"
            'name = "b"\n'
            'scenario = "pp-sum"\n'
            'needs = ["a"]\n'
        )
        pipe = load_spec(path)
        assert isinstance(pipe, PipelineSpec)
        assert pipe.name == "p"
        assert [s.name for s in pipe.stages] == ["a", "b"]
        # stage specs are namespaced and inherit the pipeline seed
        assert pipe.stage("a").spec.name == "p/a"
        assert pipe.stage("a").spec.seed == 9
        assert pipe.stage("b").needs == ("a",)
        assert pipe.base_dir == str(tmp_path)

    def test_load_spec_returns_flat_spec_unchanged(self, tmp_path):
        path = tmp_path / "flat.toml"
        path.write_text(
            'name = "f"\nscenario = "pp-val"\n[axes]\nx = [1]\n'
        )
        spec = load_spec(path)
        assert isinstance(spec, ExperimentSpec)
        # byte-identical to the historical loader
        assert spec == ExperimentSpec.from_file(path)
        assert spec_fingerprint(spec) == spec_fingerprint(
            ExperimentSpec.from_file(path)
        )

    def test_stage_seed_override_beats_pipeline_seed(self, tmp_path):
        path = tmp_path / "pipe.toml"
        path.write_text(
            'name = "p"\nseed = 9\n'
            '[[stages]]\nname = "a"\nscenario = "pp-val"\nseed = 3\n'
        )
        pipe = load_spec(path)
        assert pipe.stage("a").spec.seed == 3

    def test_duplicate_stage_names_rejected(self):
        spec = ExperimentSpec(name="s", scenario="pp-val")
        with pytest.raises(ValueError, match="duplicate stage"):
            PipelineSpec(
                name="p",
                stages=(
                    StageSpec(name="a", spec=spec),
                    StageSpec(name="a", spec=spec),
                ),
            )

    def test_unknown_internal_need_rejected(self):
        spec = ExperimentSpec(name="s", scenario="pp-sum")
        with pytest.raises(ValueError, match="unknown stage"):
            PipelineSpec(
                name="p",
                stages=(StageSpec(name="a", spec=spec, needs=("ghost",)),),
            )

    def test_self_need_rejected(self):
        spec = ExperimentSpec(name="s", scenario="pp-sum")
        with pytest.raises(ValueError, match="needs itself"):
            PipelineSpec(
                name="p",
                stages=(StageSpec(name="a", spec=spec, needs=("a",)),),
            )

    def test_cycle_rejected(self):
        spec = ExperimentSpec(name="s", scenario="pp-sum")
        with pytest.raises(ValueError, match="cycle"):
            PipelineSpec(
                name="p",
                stages=(
                    StageSpec(name="a", spec=spec, needs=("b",)),
                    StageSpec(name="b", spec=spec, needs=("a",)),
                ),
            )

    def test_stage_name_must_not_look_like_a_path(self):
        spec = ExperimentSpec(name="s", scenario="pp-val")
        with pytest.raises(ValueError, match="spec file path"):
            StageSpec(name="a.toml", spec=spec)

    def test_topological_order_with_declaration_tiebreak(self):
        spec = ExperimentSpec(name="s", scenario="pp-val")
        ana = ExperimentSpec(name="s2", scenario="pp-sum")
        pipe = PipelineSpec(
            name="p",
            stages=(
                StageSpec(name="late", spec=ana, needs=("b", "a")),
                StageSpec(name="b", spec=spec),
                StageSpec(name="a", spec=spec),
            ),
        )
        assert [s.name for s in pipe.stage_order()] == ["b", "a", "late"]

    def test_unknown_pipeline_and_stage_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline keys"):
            PipelineSpec.from_dict({"name": "p", "stages": [], "bogus": 1})
        with pytest.raises(ValueError, match="unknown stage keys"):
            PipelineSpec.from_dict(
                {"name": "p", "stages": [{"name": "a", "scenarioo": "x"}]}
            )


# -- artifacts ---------------------------------------------------------------


def _mk_artifact(i, key="k"):
    return Artifact(
        scenario="pp-val",
        params={"x": i},
        seed=i,
        key=f"{key}{i}",
        result={"value": i},
        wall_s=0.0,
        cache_version=2,
        index=i,
    )


class TestArtifactSet:
    def test_query_filters_on_params(self):
        aset = ArtifactSet(name="w", artifacts=tuple(map(_mk_artifact, range(3))))
        assert [a.params["x"] for a in aset.query(x=1)] == [1]
        assert len(aset.query(x=99)) == 0
        assert aset.one(x=2).result == {"value": 2}
        with pytest.raises(LookupError):
            aset.one(x=99)
        with pytest.raises(LookupError):
            aset.one()  # three artifacts, not one

    def test_results_preserve_grid_order(self):
        aset = ArtifactSet(name="w", artifacts=tuple(map(_mk_artifact, range(3))))
        assert aset.results() == [{"value": 0}, {"value": 1}, {"value": 2}]

    def test_digest_is_the_ordered_key_hash(self):
        arts = tuple(map(_mk_artifact, range(2)))
        aset = ArtifactSet(name="w", artifacts=arts)
        assert aset.digest == keys_digest(["k0", "k1"])
        rev = ArtifactSet(name="w", artifacts=arts[::-1])
        assert rev.digest != aset.digest

    def test_digest_requires_keys(self):
        bad = Artifact(
            scenario="s", params={}, seed=0, key=None, result=None,
            wall_s=0.0, cache_version=2,
        )
        with pytest.raises(ValueError, match="without a content-addressed"):
            _ = ArtifactSet(name="w", artifacts=(bad,)).digest


class TestOpenArtifact:
    def test_provenance_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = Runner(cache=cache)
        res = runner.run_pipeline(_two_stage())
        cell = res.stage("analysis").cells[0]
        art = cache.open_artifact(cell.key)
        assert art is not None and art.cached
        assert art.scenario == "pp-sum"
        assert art.spec_name == "pipe/analysis"
        assert art.spec_fingerprint == res.stage("analysis").fingerprint
        assert art.index == 0
        assert art.inputs == {
            "workload": res.stage("workload").artifact_set().digest
        }
        assert art.result == cell.result

    def test_miss_and_legacy_payloads(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.open_artifact("0" * 64) is None
        # pre-provenance artifact: opens with provenance fields as None
        key = cell_key("pp-val", {"x": 1}, 0)
        cache.put(key, "pp-val", {"x": 1}, 0, {"value": 10}, 0.1)
        art = cache.open_artifact(key)
        assert art.spec_fingerprint is None and art.spec_name is None
        assert art.result == {"value": 10}


# -- the DAG-aware Runner ----------------------------------------------------


class TestRunPipeline:
    def test_two_stage_end_to_end_and_warm_rerun(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        runner = Runner(cache=cache, checkpoint_dir=tmp_path / "ck")
        pipe = _two_stage(seed=5)
        cold = runner.run_pipeline(pipe)
        assert cold.n_executed == 3 and cold.n_failed == 0
        # per-cell seeds: value = x*10 + derive-seeded seed; the analysis
        # read both workload cells
        summed = cold.stage("analysis").cells[0].result
        assert summed["n"] == 2
        assert summed["total"] == sum(
            c.result["value"] for c in cold.stage("workload").cells
        )
        # warm re-run executes nothing at all
        warm = runner.run_pipeline(pipe)
        assert warm.n_executed == 0
        assert warm.n_cached == 3
        assert canonical_json(
            warm.stage("analysis").results()
        ) == canonical_json(cold.stage("analysis").results())
        # no journals left behind
        assert list((tmp_path / "ck").glob("*.ckpt.jsonl")) == []

    def test_upstream_change_rekeys_downstream(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = Runner(cache=cache)
        runner.run_pipeline(_two_stage(xs=(1, 2)))
        grown = runner.run_pipeline(_two_stage(xs=(1, 2, 3)))
        # workload reuses the two old cells; analysis re-keys and re-runs
        assert grown.stage("workload").n_cached == 2
        assert grown.stage("workload").n_executed == 1
        assert grown.stage("analysis").n_executed == 1
        assert grown.stage("analysis").cells[0].result["n"] == 3

    def test_downstream_param_change_leaves_upstream_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = Runner(cache=cache)
        runner.run_pipeline(_two_stage(factor=1))
        changed = runner.run_pipeline(_two_stage(factor=2))
        assert changed.stage("workload").n_executed == 0
        assert changed.stage("analysis").n_executed == 1

    def test_analysis_scenario_refuses_flat_run(self):
        spec = ExperimentSpec(name="s", scenario="pp-sum")
        with pytest.raises(ValueError, match="consumes upstream artifacts"):
            Runner().run(spec)

    def test_analysis_stage_without_needs_fails_fast(self):
        pipe = PipelineSpec(
            name="p",
            stages=(
                StageSpec(
                    name="a",
                    spec=ExperimentSpec(name="p/a", scenario="pp-sum"),
                ),
            ),
        )
        with pytest.raises(ValueError, match="declares no needs"):
            Runner().run_pipeline(pipe)

    def test_quarantined_upstream_cancels_needing_stage(self, tmp_path):
        pipe = PipelineSpec(
            name="p",
            stages=(
                StageSpec(
                    name="bad",
                    spec=ExperimentSpec(name="p/bad", scenario="pp-bad"),
                ),
                StageSpec(
                    name="sum",
                    spec=ExperimentSpec(name="p/sum", scenario="pp-sum"),
                    needs=("bad",),
                ),
            ),
        )
        res = Runner(cache=ResultCache(tmp_path)).run_pipeline(pipe)
        # the broken stage quarantines; its consumer settles cancelled
        # (one-line reason, no execution) instead of the pipeline raising
        assert res.stage("bad").n_failed == 1
        cancelled = res.stage("sum")
        assert cancelled.n_failed == cancelled.n_cells == 1
        assert cancelled.n_executed == 0
        cell = cancelled.cells[0]
        assert cell.error == (
            "cancelled: needed stage 'bad' settled with 1 quarantined cell(s)"
        )
        assert cell.key is None and cancelled.fingerprint is None

    def test_cancellation_propagates_transitively(self, tmp_path):
        # bad -> sum -> s2: the grand-consumer reports the cancelled
        # middle stage, not the original culprit, so the chain is legible
        pipe = PipelineSpec(
            name="p",
            stages=(
                StageSpec(
                    name="bad",
                    spec=ExperimentSpec(name="p/bad", scenario="pp-bad"),
                ),
                StageSpec(
                    name="sum",
                    spec=ExperimentSpec(name="p/sum", scenario="pp-sum"),
                    needs=("bad",),
                ),
                StageSpec(
                    name="deep",
                    spec=ExperimentSpec(
                        name="p/deep", scenario="pp-s2", axes={"x": (1,)}
                    ),
                    needs=("sum",),
                ),
            ),
        )
        res = Runner(cache=ResultCache(tmp_path)).run_pipeline(pipe)
        assert res.stage("deep").cells[0].error == (
            "cancelled: needed stage 'sum' was cancelled"
        )

    def test_ordering_only_dependent_still_runs(self, tmp_path):
        # pp-val takes no artifacts: its needs only order execution, so
        # a broken upstream must not cancel it
        pipe = PipelineSpec(
            name="p",
            stages=(
                StageSpec(
                    name="bad",
                    spec=ExperimentSpec(name="p/bad", scenario="pp-bad"),
                ),
                StageSpec(
                    name="after",
                    spec=ExperimentSpec(
                        name="p/after", scenario="pp-val", axes={"x": (1, 2)}
                    ),
                    needs=("bad",),
                ),
            ),
        )
        res = Runner(cache=ResultCache(tmp_path)).run_pipeline(pipe)
        assert res.stage("after").n_failed == 0
        assert res.stage("after").n_executed == 2

    def test_cancellation_matches_between_serial_and_dag(self, tmp_path):
        pipe = PipelineSpec(
            name="p",
            stages=(
                StageSpec(
                    name="bad",
                    spec=ExperimentSpec(name="p/bad", scenario="pp-bad"),
                ),
                StageSpec(
                    name="ok",
                    spec=ExperimentSpec(
                        name="p/ok", scenario="pp-val", axes={"x": (1, 2)}
                    ),
                ),
                StageSpec(
                    name="sum",
                    spec=ExperimentSpec(name="p/sum", scenario="pp-sum"),
                    needs=("bad", "ok"),
                ),
            ),
        )
        serial = Runner(cache=ResultCache(tmp_path / "a")).run_pipeline(pipe)
        dag = Runner(jobs=2, cache=ResultCache(tmp_path / "b")).run_pipeline(
            pipe
        )
        for name in ("bad", "ok", "sum"):
            s, d = serial.stage(name), dag.stage(name)
            assert [c.error for c in s.cells] == [c.error for c in d.cells]
            assert [c.key for c in s.cells] == [c.key for c in d.cells]
        # the unrelated branch completed in both modes
        assert serial.stage("ok").n_failed == dag.stage("ok").n_failed == 0

    def test_pipeline_works_without_a_cache(self):
        # keys still compute (JSON-safe params), digests still fold
        res = Runner().run_pipeline(_two_stage())
        assert res.n_executed == 3 and res.n_failed == 0

    def test_parallel_pipeline_matches_serial(self, tmp_path):
        serial = Runner(cache=ResultCache(tmp_path / "a")).run_pipeline(
            _two_stage(xs=(1, 2, 3, 4))
        )
        parallel = Runner(
            jobs=2, cache=ResultCache(tmp_path / "b")
        ).run_pipeline(_two_stage(xs=(1, 2, 3, 4)))
        assert canonical_json(
            parallel.stage("analysis").results()
        ) == canonical_json(serial.stage("analysis").results())


class TestCrossSpecReads:
    def _write_flat(self, tmp_path, name="workload.toml"):
        path = tmp_path / name
        path.write_text(
            'name = "workload-grid"\n'
            'scenario = "pp-val"\n'
            "seed = 5\n"
            "[axes]\n"
            "x = [1, 2]\n"
        )
        return path

    def _write_pipeline(self, tmp_path, need="workload.toml"):
        path = tmp_path / "analysis.toml"
        path.write_text(
            'name = "cross"\n'
            "seed = 5\n"
            "[[stages]]\n"
            'name = "sum"\n'
            'scenario = "pp-sum"\n'
            f'needs = ["{need}"]\n'
        )
        return path

    def test_external_spec_resolves_with_zero_recompute(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        runner = Runner(cache=cache)
        flat_path = self._write_flat(tmp_path)
        flat = load_spec(flat_path)
        direct = runner.run(flat)
        assert direct.n_executed == 2

        pipe = load_spec(self._write_pipeline(tmp_path))
        res = runner.run_pipeline(pipe)
        upstream = res.stage("workload.toml")
        # the other spec's grid resolved entirely from the cache
        assert upstream.n_cached == 2 and upstream.n_executed == 0
        # and carries the *same* fingerprint as the direct run
        assert upstream.fingerprint == direct.fingerprint
        assert res.stage("sum").cells[0].result["n"] == 2

    def test_external_path_resolves_relative_to_pipeline_file(self, tmp_path):
        sub = tmp_path / "specs"
        sub.mkdir()
        self._write_flat(sub)
        pipe = load_spec(self._write_pipeline(sub))
        res = Runner(cache=ResultCache(tmp_path / "c")).run_pipeline(pipe)
        assert res.n_failed == 0

    def test_external_ref_to_a_pipeline_rejected(self, tmp_path):
        self._write_pipeline(tmp_path, need="other.toml")
        other = tmp_path / "other.toml"
        other.write_text(
            'name = "o"\n[[stages]]\nname = "a"\nscenario = "pp-val"\n'
        )
        pipe = load_spec(tmp_path / "analysis.toml")
        with pytest.raises(ValueError, match="itself a pipeline"):
            Runner().run_pipeline(pipe)

    def test_missing_external_spec_is_a_clear_error(self, tmp_path):
        pipe = load_spec(self._write_pipeline(tmp_path, need="ghost.toml"))
        with pytest.raises(ValueError, match="cannot load external"):
            Runner().run_pipeline(pipe)


class TestDryRun:
    def test_dry_run_executes_nothing_and_plans_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = Runner(cache=cache)
        pipe = _two_stage()
        plans = runner.dry_run(pipe)
        assert [p.name for p in plans] == ["workload", "analysis"]
        assert [p.n_cells for p in plans] == [2, 1]
        assert all(p.n_hits == 0 for p in plans)
        assert len(cache) == 0  # nothing executed, nothing written

        res = runner.run_pipeline(pipe)
        # the plan's keys are exactly the keys the real run produced
        ran_keys = {c.key for s in res.stages.values() for c in s.cells}
        assert {k for p in plans for k in p.keys} == ran_keys
        assert all(
            p.fingerprint == res.stage(p.name).fingerprint for p in plans
        )
        warm = runner.dry_run(pipe)
        assert all(p.n_hits == p.n_cells for p in warm)

    def test_dry_run_accepts_flat_specs(self, tmp_path):
        spec = ExperimentSpec(
            name="f", scenario="pp-val", axes={"x": (1, 2)}, seed=5
        )
        plans = Runner(cache=ResultCache(tmp_path)).dry_run(spec)
        assert len(plans) == 1 and plans[0].n_cells == 2
        # flat keys are the historical (inputs-free) keys
        assert plans[0].keys[0] == cell_key("pp-val", {"x": 1}, spec.cell_seed(0))

    def test_toml_named_flat_spec_plans_as_it_runs(self, tmp_path):
        # a flat spec named like a file is no external stage reference:
        # dry_run plans it as the one-row plan run() executes
        spec = ExperimentSpec(
            name="flat.toml", scenario="pp-val", axes={"x": (1, 2)}, seed=5
        )
        runner = Runner(cache=ResultCache(tmp_path))
        (plan,) = runner.dry_run(spec)
        result = runner.run(spec)
        assert plan.name == "flat.toml"
        assert plan.n_cells == result.n_cells == 2
        assert plan.keys == tuple(c.key for c in result.cells)

    def test_flat_analysis_spec_without_needs_is_refused(self, tmp_path):
        spec = ExperimentSpec(name="lonely", scenario="pp-sum", seed=5)
        with pytest.raises(ValueError, match="declares no needs"):
            Runner(cache=ResultCache(tmp_path)).dry_run(spec)


# -- CLI surfaces ------------------------------------------------------------


class TestPipelineCli:
    def _write_files(self, tmp_path):
        flat = tmp_path / "workload.toml"
        flat.write_text(
            'name = "w"\nscenario = "pp-val"\nseed = 5\n[axes]\nx = [1, 2]\n'
        )
        pipe = tmp_path / "pipe.toml"
        pipe.write_text(
            'name = "p"\nseed = 5\n'
            "[[stages]]\n"
            'name = "sum"\nscenario = "pp-sum"\nneeds = ["workload.toml"]\n'
        )
        return flat, pipe

    def test_run_pipeline_spec(self, tmp_path, capsys):
        _, pipe = self._write_files(tmp_path)
        rc = main(["run", str(pipe), "--cache-dir", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pipeline 'p'" in out
        assert "stage 'workload.toml' [pp-val]" in out
        assert "stage 'sum' [pp-sum]" in out
        assert "3 total, 3 executed" in out

    def test_dry_run_prints_census_and_executes_nothing(self, tmp_path, capsys):
        _, pipe = self._write_files(tmp_path)
        cache_dir = tmp_path / "c"
        rc = main(["run", str(pipe), "--cache-dir", str(cache_dir),
                   "--dry-run"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "nothing executed" in out
        assert "3 cell(s) total, 0 cached, 3 to execute" in out
        assert len(ResultCache(cache_dir)) == 0

        main(["run", str(pipe), "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        rc = main(["run", str(pipe), "--cache-dir", str(cache_dir),
                   "--dry-run"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3 cell(s) total, 3 cached, 0 to execute" in out

    def test_flat_specs_still_run_through_the_cli(self, tmp_path, capsys):
        flat, _ = self._write_files(tmp_path)
        rc = main(["run", str(flat), "--cache-dir", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "campaign 'w'" in out and "2 executed" in out

    def test_cache_stats_json(self, tmp_path, capsys):
        _, pipe = self._write_files(tmp_path)
        cache_dir = tmp_path / "c"
        main(["run", str(pipe), "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        rc = main(["cache", "--cache-dir", str(cache_dir), "stats", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        st = json.loads(out)
        assert st["n_artifacts"] == 3
        assert st["by_scenario"] == {"pp-val": 2, "pp-sum": 1}
        assert st["n_checkpoints"] == 0 and st["checkpoints"] == []
        assert st["n_tmp"] == 0
        assert st["root"] == str(cache_dir)


# -- SIGTERM mid-stage-2: resume executes exactly the remainder --------------

_PIPELINE_CHILD = textwrap.dedent(
    """
    import sys, time
    from repro.experiments import (
        ExperimentSpec, PipelineSpec, ResultCache, Runner, StageSpec,
        CampaignInterrupted, register_scenario,
    )

    @register_scenario("pp-val")
    def _val(params, seed):
        return {"value": params["x"] * 10 + seed}

    @register_scenario("pp-s2", needs_artifacts=True)
    def _s2(params, seed, artifacts):
        print("S2", params["x"], flush=True)
        time.sleep(float(params.get("sleep_s", 0.0)))
        return {"n": len(artifacts["workload"]), "x": params["x"], "seed": seed}

    pipeline = PipelineSpec(
        name="kpipe",
        seed=5,
        stages=(
            StageSpec(
                name="workload",
                spec=ExperimentSpec(
                    name="kpipe/workload", scenario="pp-val",
                    axes={"x": (1, 2)}, seed=5),
            ),
            StageSpec(
                name="analysis",
                spec=ExperimentSpec(
                    name="kpipe/analysis", scenario="pp-s2",
                    params={"sleep_s": 0.5}, axes={"x": (1, 2, 3, 4)},
                    seed=5),
                needs=("workload",),
            ),
        ),
    )
    runner = Runner(cache=ResultCache(sys.argv[1]), checkpoint_dir=sys.argv[2])
    print("READY", flush=True)
    try:
        runner.run_pipeline(pipeline)
    except CampaignInterrupted:
        sys.exit(75)
    print("DONE", flush=True)
    """
)


class TestSigtermMidStage2:
    def test_resume_executes_exactly_the_remainder(self, tmp_path):
        pipeline = PipelineSpec(
            name="kpipe",
            seed=5,
            stages=(
                StageSpec(
                    name="workload",
                    spec=ExperimentSpec(
                        name="kpipe/workload", scenario="pp-val",
                        axes={"x": (1, 2)}, seed=5),
                ),
                StageSpec(
                    name="analysis",
                    spec=ExperimentSpec(
                        name="kpipe/analysis", scenario="pp-s2",
                        params={"sleep_s": 0.5}, axes={"x": (1, 2, 3, 4)},
                        seed=5),
                    needs=("workload",),
                ),
            ),
        )
        reference = Runner(
            cache=ResultCache(tmp_path / "ref")
        ).run_pipeline(pipeline)

        script = tmp_path / "child.py"
        script.write_text(_PIPELINE_CHILD)
        cache_dir, ck_dir = tmp_path / "cache", tmp_path / "ck"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        child = subprocess.Popen(
            [sys.executable, str(script), str(cache_dir), str(ck_dir)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert child.stdout.readline().strip() == "READY"
            # wait for stage 2 to actually start, then land the SIGTERM
            # squarely inside it
            line = child.stdout.readline().strip()
            assert line.startswith("S2"), line
            time.sleep(0.2)
        finally:
            child.send_signal(signal.SIGTERM)
            rc = child.wait(timeout=30)
            child.stdout.close()
        assert rc == 75  # drained, journaled, resumable

        cache = ResultCache(cache_dir)
        settled_s2 = sum(
            1
            for p in cache.iter_artifacts()
            if '"scenario": "pp-s2"' in p.read_text()
        )
        assert 1 <= settled_s2 < 4  # the signal landed mid-stage-2

        resumed = Runner(
            cache=cache, checkpoint_dir=ck_dir
        ).run_pipeline(pipeline)
        # stage 1 comes back entirely from the cache; stage 2 executes
        # exactly the cells the kill left unfinished
        assert resumed.stage("workload").n_executed == 0
        assert resumed.stage("workload").n_cached == 2
        assert resumed.stage("analysis").n_cached == settled_s2
        assert resumed.stage("analysis").n_executed == 4 - settled_s2
        assert resumed.n_failed == 0
        assert canonical_json(
            resumed.stage("analysis").results()
        ) == canonical_json(reference.stage("analysis").results())
        # journals consumed
        assert list(ck_dir.glob("*.ckpt.jsonl")) == []


class TestRegistryFlags:
    def test_needs_artifacts_flag_is_queryable(self):
        assert scenario_needs_artifacts("pp-sum")
        assert not scenario_needs_artifacts("pp-val")
        assert scenario_needs_artifacts("pareto_front")
        assert scenario_needs_artifacts("managed_from_workload")
        assert not scenario_needs_artifacts("chaos")
