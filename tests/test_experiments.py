"""Tests for the declarative experiment framework.

Covers the spec layer (loading, validation, grid expansion, seeding),
the content-addressed artifact cache, the Runner's serial and parallel
executors with quarantine semantics, and the ``repro-gridftp run`` CLI.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import time

import pytest

from repro.core.rng import derive_seed
from repro.experiments.cache import ResultCache, canonical_json, cell_key
from repro.experiments.registry import get_scenario, register_scenario, scenario_names
from repro.experiments.runner import CampaignResult, Runner
from repro.experiments.spec import ExperimentSpec, load_spec

# -- cheap scenarios registered for these tests ------------------------------
# (the registry is process-global; fork-started workers inherit them)


@register_scenario("t-echo")
def _t_echo(params, seed):
    return {"x": params["x"], "y": params.get("y", 0), "seed": seed}


@register_scenario("t-boom")
def _t_boom(params, seed):
    if params["x"] == 2:
        raise ValueError("x=2 is cursed")
    return {"x": params["x"]}


@register_scenario("t-sleep")
def _t_sleep(params, seed):
    time.sleep(float(params["sleep_s"]))
    return {"slept": params["sleep_s"]}


# -- spec loading and validation ---------------------------------------------


class TestSpecLoading:
    def test_from_toml_file(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(
            'name = "grid"\n'
            'scenario = "t-echo"\n'
            "seed = 7\n"
            'seed_mode = "shared"\n'
            "[params]\n"
            "y = 5\n"
            "[axes]\n"
            "x = [1, 2, 3]\n"
        )
        spec = ExperimentSpec.from_file(path)
        assert spec.name == "grid"
        assert spec.scenario == "t-echo"
        assert spec.seed == 7
        assert spec.seed_mode == "shared"
        assert spec.params == {"y": 5}
        assert spec.axes == {"x": (1, 2, 3)}

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "name": "grid",
                    "scenario": "t-echo",
                    "axes": {"x": [1, 2]},
                }
            )
        )
        spec = ExperimentSpec.from_file(path)
        assert spec.n_cells == 2
        assert spec.seed == 0
        assert spec.seed_mode == "per-cell"

    def test_to_dict_round_trip(self):
        spec = ExperimentSpec(
            name="rt",
            scenario="t-echo",
            params={"y": 1},
            axes={"x": (1, 2)},
            seed=3,
            seed_mode="shared",
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown spec keys"):
            ExperimentSpec.from_dict(
                {"name": "a", "scenario": "t-echo", "bogus": 1}
            )

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"name": "", "scenario": "s"}, "needs a name"),
            ({"name": "a", "scenario": ""}, "needs a scenario"),
            (
                {"name": "a", "scenario": "s", "seed_mode": "wat"},
                "seed_mode",
            ),
            (
                {"name": "a", "scenario": "s", "axes": {"x": []}},
                "empty",
            ),
            (
                {"name": "a", "scenario": "s", "axes": {"x": "abc"}},
                "list of values",
            ),
            (
                {
                    "name": "a",
                    "scenario": "s",
                    "params": {"x": 1},
                    "axes": {"x": [1, 2]},
                },
                "shadow",
            ),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ExperimentSpec(**kwargs)


class TestSpecExpansion:
    def test_product_order_first_axis_outermost(self):
        spec = ExperimentSpec(
            name="g",
            scenario="t-echo",
            axes={"a": (1, 2), "b": (10, 20, 30)},
        )
        assert spec.n_cells == 6
        cells = spec.cells()
        assert [c.coords for c in cells] == [
            {"a": 1, "b": 10},
            {"a": 1, "b": 20},
            {"a": 1, "b": 30},
            {"a": 2, "b": 10},
            {"a": 2, "b": 20},
            {"a": 2, "b": 30},
        ]
        assert [c.index for c in cells] == list(range(6))

    def test_params_overlaid_with_coords(self):
        spec = ExperimentSpec(
            name="g", scenario="t-echo", params={"y": 9}, axes={"x": (1, 2)}
        )
        for cell in spec.cells():
            assert cell.params == {"y": 9, "x": cell.coords["x"]}

    def test_no_axes_single_cell(self):
        spec = ExperimentSpec(name="g", scenario="t-echo", params={"x": 1})
        cells = spec.cells()
        assert len(cells) == 1
        assert cells[0].coords == {}
        assert cells[0].params == {"x": 1}

    def test_per_cell_seeds_distinct_and_deterministic(self):
        spec = ExperimentSpec(
            name="g", scenario="t-echo", axes={"x": (1, 2, 3)}, seed=42
        )
        seeds = [c.seed for c in spec.cells()]
        assert len(set(seeds)) == 3
        assert seeds == [derive_seed(42, i) for i in range(3)]
        # stable across expansions
        assert seeds == [c.seed for c in spec.cells()]

    def test_shared_seed_mode(self):
        spec = ExperimentSpec(
            name="g",
            scenario="t-echo",
            axes={"x": (1, 2, 3)},
            seed=42,
            seed_mode="shared",
        )
        assert [c.seed for c in spec.cells()] == [42, 42, 42]


# -- the artifact cache ------------------------------------------------------


class TestResultCache:
    def test_key_independent_of_param_order(self):
        a = cell_key("s", {"x": 1, "y": 2}, 7)
        b = cell_key("s", {"y": 2, "x": 1}, 7)
        assert a == b
        assert cell_key("s", {"x": 1, "y": 3}, 7) != a
        assert cell_key("s", {"x": 1, "y": 2}, 8) != a
        assert cell_key("other", {"x": 1, "y": 2}, 7) != a

    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cell_key("s", {"x": 1}, 0)
        assert cache.get(key) is None
        cache.put(key, "s", {"x": 1}, 0, {"metric": 3.5}, wall_s=0.25)
        payload = cache.get(key)
        assert payload["result"] == {"metric": 3.5}
        assert payload["wall_s"] == 0.25
        assert payload["scenario"] == "s"
        assert len(cache) == 1

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cell_key("s", {"x": 1}, 0)
        cache.put(key, "s", {"x": 1}, 0, {"m": 1}, wall_s=0.1)
        cache.path_for(key).write_text("{ not json")
        assert cache.get(key) is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cell_key("s", {"x": 1}, 0)
        cache.put(key, "s", {"x": 1}, 0, {"m": 1}, wall_s=0.1)
        payload = json.loads(cache.path_for(key).read_text())
        payload["v"] = 999
        cache.path_for(key).write_text(json.dumps(payload))
        assert cache.get(key) is None


# -- the Runner --------------------------------------------------------------


def _echo_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="echo",
        scenario="t-echo",
        params={"y": 1},
        axes={"x": (1, 2, 3, 4)},
        seed=5,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRunnerSerial:
    def test_results_in_grid_order(self):
        campaign = Runner().run(_echo_spec())
        assert isinstance(campaign, CampaignResult)
        assert campaign.n_cells == 4
        assert campaign.n_executed == 4
        assert campaign.n_cached == 0
        assert campaign.n_failed == 0
        assert [r["x"] for r in campaign.results()] == [1, 2, 3, 4]
        seeds = {r["seed"] for r in campaign.results()}
        assert seeds == {derive_seed(5, i) for i in range(4)}
        assert all(c.wall_s >= 0 for c in campaign.cells)

    def test_unknown_scenario_fails_fast(self):
        spec = ExperimentSpec(name="x", scenario="no-such-scenario")
        with pytest.raises(KeyError, match="no-such-scenario"):
            Runner().run(spec)

    def test_warm_cache_executes_zero_cells(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = _echo_spec()
        first = Runner(cache=cache).run(spec)
        assert first.n_executed == 4
        second = Runner(cache=cache).run(spec)
        assert second.n_executed == 0
        assert second.n_cached == 4
        assert second.results() == first.results()

    def test_cache_invalidated_by_changed_inputs(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        Runner(cache=cache).run(_echo_spec())
        # new seed -> all four cells recompute
        campaign = Runner(cache=cache).run(_echo_spec(seed=6))
        assert campaign.n_executed == 4
        # growing an axis keeps the old cells' artifacts valid: indices
        # 0..3 have unchanged (params, seed) pairs, only cell 4 is new
        campaign = Runner(cache=cache).run(_echo_spec(axes={"x": (1, 2, 3, 4, 5)}))
        assert campaign.n_cached == 4
        assert campaign.n_executed == 1

    def test_force_recomputes_but_still_stores(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = _echo_spec()
        Runner(cache=cache).run(spec)
        forced = Runner(cache=cache).run(spec, force=True)
        assert forced.n_executed == 4
        assert forced.n_cached == 0
        again = Runner(cache=cache).run(spec)
        assert again.n_cached == 4

    def test_quarantine_keeps_campaign_alive(self):
        spec = ExperimentSpec(
            name="boom", scenario="t-boom", axes={"x": (1, 2, 3)}
        )
        campaign = Runner().run(spec)
        assert campaign.n_failed == 1
        assert campaign.n_executed == 2
        bad = campaign.cells[1]
        assert not bad.ok
        assert "ValueError" in bad.error and "cursed" in bad.error
        assert campaign.cells[0].ok and campaign.cells[2].ok
        with pytest.raises(RuntimeError, match="quarantined"):
            campaign.results()

    def test_failed_cells_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = ExperimentSpec(
            name="boom", scenario="t-boom", axes={"x": (1, 2, 3)}
        )
        Runner(cache=cache).run(spec)
        assert len(cache) == 2
        second = Runner(cache=cache).run(spec)
        assert second.n_cached == 2
        assert second.n_failed == 1  # retried, failed again

    def test_format_summary_line(self):
        campaign = Runner().run(_echo_spec())
        text = campaign.format()
        assert "cells: 4 total, 4 executed, 0 cached, 0 failed" in text
        assert "campaign 'echo'" in text
        assert "x=3" in text


class TestRunnerParallel:
    def test_parallel_matches_serial(self):
        spec = _echo_spec()
        serial = Runner(jobs=1).run(spec)
        parallel = Runner(jobs=2).run(spec)
        assert parallel.results() == serial.results()
        assert parallel.n_executed == 4

    def test_parallel_fills_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = _echo_spec()
        Runner(jobs=2, cache=cache).run(spec)
        warm = Runner(jobs=2, cache=cache).run(spec)
        assert warm.n_executed == 0
        assert warm.n_cached == 4

    def test_parallel_quarantines_exceptions(self):
        spec = ExperimentSpec(
            name="boom", scenario="t-boom", axes={"x": (1, 2, 3)}
        )
        campaign = Runner(jobs=2).run(spec)
        assert campaign.n_failed == 1
        assert "cursed" in campaign.cells[1].error
        assert campaign.cells[0].result == {"x": 1}

    def test_cell_timeout_quarantines(self):
        spec = ExperimentSpec(
            name="slow",
            scenario="t-sleep",
            axes={"sleep_s": (0.0, 1.5)},
        )
        campaign = Runner(jobs=2, cell_timeout_s=0.3).run(spec)
        assert campaign.cells[0].ok
        slow = campaign.cells[1]
        assert not slow.ok
        assert "TimeoutError" in slow.error
        assert "0.3 s budget" in slow.error

    def test_bad_runner_args(self):
        with pytest.raises(ValueError):
            Runner(jobs=0)
        for budget in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError, match="cell_timeout_s"):
                Runner(jobs=2, cell_timeout_s=budget)


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        names = scenario_names()
        for expected in (
            "chaos",
            "profile",
            "mechanistic",
            "snmp",
            "managed_service",
            "stream_analyze",
            "synth",
        ):
            assert expected in names

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_scenario("t-echo")
            def other(params, seed):  # pragma: no cover
                return {}

    def test_reregistering_same_fn_is_idempotent(self):
        assert register_scenario("t-echo")(_t_echo) is _t_echo
        assert get_scenario("t-echo") is _t_echo

    @pytest.mark.parametrize("n_jobs", [0, -5])
    def test_profile_scenario_refuses_no_jobs(self, n_jobs):
        with pytest.raises(ValueError, match="need at least one job"):
            get_scenario("profile")({"n_jobs": n_jobs}, 0)

    def test_profile_scenario_refuses_oracle_against_itself(self):
        params = {"n_jobs": 1, "allocator": "oracle", "compare_oracle": True}
        with pytest.raises(ValueError, match="oracle against itself"):
            get_scenario("profile")(params, 0)


# -- the CLI `run` subcommand ------------------------------------------------


def test_cli_profile_refuses_negative_jobs(capsys):
    from repro.cli import main

    assert main(["profile", "--jobs", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least one job\n"


def test_cli_profile_refuses_oracle_against_itself(capsys):
    from repro.cli import main

    assert main(["profile", "--allocator", "oracle", "--compare-oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: compare_oracle races the oracle against itself; "
        "profile the incremental allocator instead\n"
    )


#: one spec per place a seed is read, ``@`` standing for the seed
_SEED_SPECS = {
    "flat": {
        "toml": 'name = "s"\nscenario = "t-echo"\nseed = @\n[axes]\nx = [1, 2]\n',
        "json": '{"name": "s", "scenario": "t-echo", "seed": @, "axes": {"x": [1, 2]}}',
    },
    "pipeline": {
        "toml": 'name = "p"\nseed = @\n[[stages]]\nname = "a"\nscenario = "t-echo"\n'
                "[stages.axes]\nx = [1, 2]\n",
        "json": '{"name": "p", "seed": @, "stages": '
                '[{"name": "a", "scenario": "t-echo", "axes": {"x": [1, 2]}}]}',
    },
    "stage": {
        "toml": 'name = "p"\n[[stages]]\nname = "a"\nscenario = "t-echo"\nseed = @\n'
                "[stages.axes]\nx = [1, 2]\n",
        "json": '{"name": "p", "stages": '
                '[{"name": "a", "scenario": "t-echo", "seed": @, "axes": {"x": [1, 2]}}]}',
    },
}


class TestCliRun:
    def _write_spec(self, tmp_path):
        path = tmp_path / "campaign.toml"
        path.write_text(
            'name = "cli-grid"\n'
            'scenario = "t-echo"\n'
            "seed = 3\n"
            "[axes]\n"
            "x = [1, 2]\n"
            "y = [10, 20]\n"
        )
        return path

    def test_run_then_warm_rerun(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        cache_dir = tmp_path / "cache"
        rc = main(["run", str(spec), "--cache-dir", str(cache_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cells: 4 total, 4 executed, 0 cached, 0 failed" in out

        rc = main(["run", str(spec), "--cache-dir", str(cache_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cells: 4 total, 0 executed, 4 cached, 0 failed" in out

    def test_no_cache_flag(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        for _ in range(2):
            rc = main(["run", str(spec), "--no-cache"])
            assert rc == 0
            out = capsys.readouterr().out
            assert "4 executed, 0 cached" in out
        assert not (tmp_path / ".repro-cache").exists()

    def test_failed_cell_sets_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "boom.toml"
        path.write_text(
            'name = "boom"\nscenario = "t-boom"\n[axes]\nx = [1, 2]\n'
        )
        rc = main(["run", str(path), "--no-cache"])
        assert rc == 1
        assert "1 failed" in capsys.readouterr().out

    def test_failed_cells_get_one_line_summaries(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "boom.toml"
        path.write_text(
            'name = "boom"\nscenario = "t-boom"\nseed = 5\n'
            "[axes]\nx = [1, 2]\n"
        )
        rc = main(["run", str(path), "--no-cache"])
        assert rc == 1
        out = capsys.readouterr().out
        lines = out.splitlines()
        header = lines.index("1 quarantined cell(s):")
        line = lines[header + 1]
        # one line names the stage, scenario, coordinates, seed, and error
        assert "boom" in line and "t-boom" in line
        assert "x=2" in line and "seed=" in line and "cursed" in line

    def test_clean_run_prints_no_summary(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        rc = main(["run", str(spec), "--no-cache"])
        assert rc == 0
        assert "quarantined" not in capsys.readouterr().out

    def test_missing_spec_file_is_refused(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "nonexistent.toml"
        assert main(["run", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("budget", ["nan", "inf", "0", "-1"])
    def test_bad_timeout_is_refused(self, tmp_path, capsys, budget):
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        argv = ["run", str(spec), "--no-cache", "--jobs", "2", "--timeout", budget]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cell_timeout_s must be")
        assert captured.err.count("\n") == 1

    # seed = 1.5 and seed = true used to run the cells of seed = 1 under
    # another fingerprint, seed = 1e30 ran, and seed = nan failed in the
    # fingerprint's JSON encoding
    @pytest.mark.parametrize("where", sorted(_SEED_SPECS))
    @pytest.mark.parametrize(
        "fmt, seed",
        [("toml", s) for s in ("1.5", "true", "-1", "1e30", "nan")]
        + [("json", s) for s in ("1.5", "true", "-1", "1e30", "NaN")],
    )
    def test_a_seed_that_is_no_integer_is_refused(
        self, tmp_path, capsys, where, fmt, seed
    ):
        from repro.cli import main

        path = tmp_path / f"spec.{fmt}"
        path.write_text(_SEED_SPECS[where][fmt].replace("@", seed))
        assert main(["run", str(path), "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: seed must be a non-negative integer, got ")
        assert captured.err.count("\n") == 1

    def test_spec_naming_an_unregistered_scenario_is_refused(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        # e.g. an old spec naming a scenario since folded into another
        path = tmp_path / "old.toml"
        path.write_text('name = "old"\nscenario = "retired"\n')
        assert main(["run", str(path), "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {path}: unknown scenario 'retired'; registered: "
        )
        assert "service_loadtest" in captured.err


_EXAMPLE_SPECS = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples" / "specs")
    .glob("*.toml")
)


@pytest.mark.parametrize("path", _EXAMPLE_SPECS, ids=lambda p: p.name)
def test_example_spec_plans(path):
    """Every shipped example loads and plans, executing nothing."""
    plans = Runner().dry_run(load_spec(path))
    assert plans and all(plan.n_cells > 0 for plan in plans)


# -- registered here so the NaN-producing scenario exists for the Runner ----


@register_scenario("t-nan")
def _t_nan(params, seed):
    return {"x": params["x"], "bad": float("nan")}


# -- strict JSON: non-finite floats are rejected, not emitted ---------------


class TestNonFiniteRejection:
    def test_canonical_json_rejects_nan_and_inf(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                canonical_json({"v": value})

    def test_cell_key_error_names_the_scenario(self):
        with pytest.raises(ValueError, match="non-finite") as info:
            cell_key("my-study", {"rate": math.nan}, 0)
        assert "my-study" in str(info.value)

    def test_put_rejects_nonfinite_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cell_key("t-echo", {"x": 1}, 0)
        with pytest.raises(ValueError, match="non-finite"):
            cache.put(key, "t-echo", {"x": 1}, 0, {"bad": math.inf}, 0.1)
        # the rejected put leaves nothing behind, not even a tmp file
        assert len(cache) == 0
        assert cache.tmp_files() == []

    def test_runner_warns_and_continues_on_uncacheable_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ExperimentSpec(
            name="nan-grid", scenario="t-nan", axes={"x": (1, 2)}, seed=0
        )
        with pytest.warns(RuntimeWarning, match="not cached"):
            campaign = Runner(cache=cache).run(spec)
        # the in-memory campaign still has the results...
        assert campaign.n_executed == 2
        assert math.isnan(campaign.cells[0].result["bad"])
        # ...but nothing hit the disk
        assert len(cache) == 0

    def test_nonfinite_reports_round_trip_via_sentinels(self):
        from repro.experiments.cache import decode_nonfinite, encode_nonfinite

        original = {
            "inflation": math.inf,
            "walls": [1.0, -math.inf, 2.5],
            "nested": {"x": math.nan},
            "fine": 3.0,
        }
        encoded = encode_nonfinite(original)
        canonical_json(encoded)  # must be strict-JSON clean
        decoded = decode_nonfinite(encoded)
        assert decoded["inflation"] == math.inf
        assert decoded["walls"] == [1.0, -math.inf, 2.5]
        assert math.isnan(decoded["nested"]["x"])
        assert decoded["fine"] == 3.0

    def test_sentinel_lookalike_strings_round_trip_unchanged(self):
        # a field that *legitimately* holds "NaN"/"Infinity" as a string
        # (a tag, a message) must come back as that string, not a float
        from repro.experiments.cache import decode_nonfinite, encode_nonfinite

        original = {
            "tag": "NaN",
            "message": "Infinity",
            "notes": ["-Infinity", "fine"],
            "wall": math.inf,
        }
        decoded = decode_nonfinite(encode_nonfinite(original))
        assert decoded["tag"] == "NaN"
        assert decoded["message"] == "Infinity"
        assert decoded["notes"] == ["-Infinity", "fine"]
        assert decoded["wall"] == math.inf

    def test_encode_rejects_reserved_wrapper_key(self):
        from repro.experiments.cache import encode_nonfinite

        with pytest.raises(ValueError, match="reserved"):
            encode_nonfinite({"__nonfinite__": 1.0})


# -- cache maintenance: tmp hygiene, stats, verify, gc ----------------------


def _fill_cache(cache, n=3, scenario="t-echo"):
    keys = []
    for x in range(n):
        key = cell_key(scenario, {"x": x}, 0)
        cache.put(key, scenario, {"x": x}, 0, {"x": x}, 0.01)
        keys.append(key)
    return keys


class TestCacheMaintenance:
    def test_len_and_iter_exclude_tmp_and_foreign_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill_cache(cache, 3)
        shard = cache.path_for(keys[0]).parent
        # plant orphans in current and legacy naming, plus foreign noise
        (shard / f"{keys[0]}.12345.tmp").write_text("{")
        (shard / f"{keys[0]}.json.tmp.999").write_text("{")
        (shard / "README.json").write_text("{}")
        (tmp_path / "notashard").mkdir()
        (tmp_path / "notashard" / "x.json").write_text("{}")
        assert len(cache) == 3
        assert {p.stem for p in cache.iter_artifacts()} == set(keys)
        assert len(cache.tmp_files()) == 2

    def test_checkpoints_subdir_is_not_an_artifact(self, tmp_path):
        from repro.experiments.checkpoint import CampaignCheckpoint
        from repro.experiments.checkpoint import CHECKPOINT_SUBDIR

        cache = ResultCache(tmp_path)
        _fill_cache(cache, 2)
        spec = ExperimentSpec(
            name="g", scenario="t-echo", axes={"x": (1,)}, seed=0
        )
        ck = CampaignCheckpoint.for_spec(tmp_path / CHECKPOINT_SUBDIR, spec)
        ck.record(0, None, "err", 0.1)
        assert len(cache) == 2
        assert cache.verify().ok

    def test_prune_tmp_by_age(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill_cache(cache, 1)
        shard = cache.path_for(keys[0]).parent
        old = shard / f"{keys[0]}.111.tmp"
        new = shard / f"{keys[0]}.222.tmp"
        old.write_text("x")
        new.write_text("x")
        past = time.time() - 7200
        os.utime(old, (past, past))
        removed = cache.prune_tmp(older_than_s=3600)
        assert removed == [old]
        assert cache.tmp_files() == [new]
        # age 0 reaps everything
        assert cache.prune_tmp() == [new]
        assert len(cache) == 1  # artifacts untouched

    def test_stats_counts_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill_cache(cache, 2, scenario="t-echo")
        key3 = cell_key("t-boom", {"x": 9}, 1)
        cache.put(key3, "t-boom", {"x": 9}, 1, {"x": 9}, 0.01)
        shard = cache.path_for(keys[0]).parent
        (shard / f"{keys[0]}.5.tmp").write_text("orphan")
        st = cache.stats()
        assert st.n_artifacts == 3
        assert st.by_scenario == {"t-echo": 2, "t-boom": 1}
        assert st.n_tmp == 1
        assert st.tmp_bytes == len("orphan")
        assert st.total_bytes > 0
        assert st.oldest_age_s >= st.newest_age_s >= 0.0

    def test_verify_clean_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill_cache(cache, 3)
        report = cache.verify()
        assert report.ok
        assert report.n_ok == 3

    def test_verify_flags_corrupt_and_mismatched(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill_cache(cache, 3)
        # corrupt: truncate one artifact
        corrupt_path = cache.path_for(keys[0])
        corrupt_path.write_text('{"v": 1, "scen')
        # mismatched: rename a valid artifact to a different (valid) key
        bogus_key = cell_key("t-echo", {"x": 999}, 0)
        mismatched_path = cache.path_for(bogus_key)
        mismatched_path.parent.mkdir(parents=True, exist_ok=True)
        os.replace(cache.path_for(keys[1]), mismatched_path)
        report = cache.verify()
        assert not report.ok
        assert report.n_ok == 1
        assert report.corrupt == (corrupt_path,)
        assert report.mismatched == (mismatched_path,)

    def test_verify_delete_removes_bad(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill_cache(cache, 2)
        cache.path_for(keys[0]).write_text("garbage")
        report = cache.verify(delete=True)
        assert len(report.bad) == 1
        assert len(cache) == 1
        assert cache.verify().ok

    def test_gc_requires_a_filter(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill_cache(cache, 2)
        with pytest.raises(ValueError, match="refusing"):
            cache.gc()
        assert len(cache) == 2

    def test_gc_by_age(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill_cache(cache, 3)
        past = time.time() - 10 * 86400
        for key in keys[:2]:
            os.utime(cache.path_for(key), (past, past))
        removed = cache.gc(older_than_s=7 * 86400)
        assert sorted(p.stem for p in removed) == sorted(keys[:2])
        assert len(cache) == 1
        # emptied shards are cleaned up
        for path in removed:
            assert not path.parent.exists() or any(path.parent.iterdir())

    def test_gc_by_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill_cache(cache, 3)
        removed = cache.gc(keys=[keys[1]])
        assert [p.stem for p in removed] == [keys[1]]
        assert len(cache) == 2

    def test_gc_by_age_and_keys_is_an_intersection(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill_cache(cache, 2)
        past = time.time() - 7200
        os.utime(cache.path_for(keys[0]), (past, past))
        # keys[1] matches the keyset but is too young; keys[0] matches both
        removed = cache.gc(older_than_s=3600, keys=keys)
        assert [p.stem for p in removed] == [keys[0]]

    @pytest.mark.parametrize("age", [math.nan, math.inf, -1.0])
    def test_gc_and_prune_tmp_refuse_a_bad_age(self, tmp_path, age):
        # a NaN or negative age selects every file; neither call may run
        cache = ResultCache(tmp_path)
        keys = _fill_cache(cache, 2)
        inflight = cache.path_for(keys[0]).parent / f"{keys[0]}.1.tmp"
        inflight.write_text("{")
        with pytest.raises(ValueError, match="older_than_s must be a finite age"):
            cache.gc(older_than_s=age)
        with pytest.raises(ValueError, match="older_than_s must be a finite age"):
            cache.prune_tmp(older_than_s=age)
        assert len(cache) == 2
        assert inflight.exists()


# -- the CLI `cache` subcommand ---------------------------------------------


class TestCliCache:
    def _seed_cache(self, tmp_path, n=2):
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        keys = _fill_cache(cache, n)
        return cache_dir, cache, keys

    def test_stats_output(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir, cache, keys = self._seed_cache(tmp_path)
        shard = cache.path_for(keys[0]).parent
        (shard / f"{keys[0]}.7.tmp").write_text("x")
        rc = main(["cache", "--cache-dir", str(cache_dir), "stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 artifact(s)" in out
        assert "t-echo" in out
        assert "orphaned tmp files: 1" in out
        assert "pending checkpoints: 0" in out

    def test_verify_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir, cache, keys = self._seed_cache(tmp_path)
        rc = main(["cache", "--cache-dir", str(cache_dir), "verify"])
        assert rc == 0
        assert "2 ok, 0 corrupt" in capsys.readouterr().out

        cache.path_for(keys[0]).write_text("junk")
        rc = main(["cache", "--cache-dir", str(cache_dir), "verify"])
        assert rc == 1
        assert "1 corrupt" in capsys.readouterr().out

        rc = main(["cache", "--cache-dir", str(cache_dir), "verify", "--delete"])
        assert rc == 0
        capsys.readouterr()
        rc = main(["cache", "--cache-dir", str(cache_dir), "verify"])
        assert rc == 0
        assert "1 ok" in capsys.readouterr().out

    def test_gc_refuses_unfiltered(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir, cache, _ = self._seed_cache(tmp_path)
        rc = main(["cache", "--cache-dir", str(cache_dir), "gc"])
        assert rc == 2
        assert "refuses" in capsys.readouterr().out
        assert len(cache) == 2

    def test_gc_by_age_units(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir, cache, keys = self._seed_cache(tmp_path)
        past = time.time() - 3 * 86400
        os.utime(cache.path_for(keys[0]), (past, past))
        rc = main(["cache", "--cache-dir", str(cache_dir), "gc",
                   "--older-than", "2d"])
        assert rc == 0
        assert "removed 1 file(s)" in capsys.readouterr().out
        assert len(cache) == 1

    def test_gc_by_spec_removes_only_that_campaign(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        spec_path = tmp_path / "grid.toml"
        spec_path.write_text(
            'name = "g"\nscenario = "t-echo"\nseed = 3\n[axes]\nx = [1, 2]\n'
        )
        rc = main(["run", str(spec_path), "--cache-dir", str(cache_dir)])
        assert rc == 0
        cache = ResultCache(cache_dir)
        foreign = _fill_cache(cache, 1, scenario="t-boom")
        capsys.readouterr()
        rc = main(["cache", "--cache-dir", str(cache_dir), "gc",
                   "--spec", str(spec_path)])
        assert rc == 0
        assert "removed 2 file(s)" in capsys.readouterr().out
        assert [p.stem for p in cache.iter_artifacts()] == foreign

    def test_gc_by_spec_leaves_inflight_tmp_files_alone(self, tmp_path, capsys):
        # a fresh .tmp may belong to a campaign writing *right now*; a
        # spec-scoped gc (no --older-than) must not reap it — deleting
        # it would crash that campaign's os.replace
        from repro.cli import main

        cache_dir, cache, keys = self._seed_cache(tmp_path)
        spec_path = tmp_path / "grid.toml"
        spec_path.write_text(
            'name = "g"\nscenario = "t-echo"\nseed = 3\n[axes]\nx = [1, 2]\n'
        )
        shard = cache.path_for(keys[0]).parent
        inflight = shard / f"{keys[0]}.777.tmp"
        inflight.write_text("{")
        rc = main(["cache", "--cache-dir", str(cache_dir), "gc",
                   "--spec", str(spec_path)])
        assert rc == 0
        assert inflight.exists()
        # with an age filter the tmp file is fair game once old enough
        past = time.time() - 3600
        os.utime(inflight, (past, past))
        capsys.readouterr()
        rc = main(["cache", "--cache-dir", str(cache_dir), "gc",
                   "--older-than", "30m"])
        assert rc == 0
        assert not inflight.exists()

    def test_prune_tmp(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir, cache, keys = self._seed_cache(tmp_path, n=1)
        shard = cache.path_for(keys[0]).parent
        (shard / f"{keys[0]}.9.tmp").write_text("x")
        rc = main(["cache", "--cache-dir", str(cache_dir), "prune-tmp"])
        assert rc == 0
        assert "pruned 1" in capsys.readouterr().out
        assert cache.tmp_files() == []
        assert len(cache) == 1

    def test_bad_age_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["cache", "--cache-dir", str(tmp_path), "gc",
                   "--older-than", "fortnight"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid age 'fortnight'; use e.g. 45s, 30m, 12h, 7d, 2w"
        ]

    @pytest.mark.parametrize("verb", ["gc", "prune-tmp"])
    @pytest.mark.parametrize(
        "age, seconds", [("nan", "nan"), ("inf", "inf"), ("-1d", "-86400.0")],
        ids=["nan", "inf", "-1d"],
    )
    def test_non_finite_or_negative_age_deletes_nothing(self, tmp_path, capsys,
                                                        age, seconds, verb):
        # left unchecked, NaN and -1d match every file past the unfiltered
        # gc guard, the in-flight tmp file a campaign is writing included;
        # the CLI parses the text and ResultCache refuses the value
        from repro.cli import main

        cache_dir, cache, keys = self._seed_cache(tmp_path, n=3)
        inflight = cache.path_for(keys[0]).parent / f"{keys[0]}.777.tmp"
        inflight.write_text("{")
        rc = main(["cache", "--cache-dir", str(cache_dir), verb,
                   f"--older-than={age}"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: older_than_s must be a finite age >= 0 s, got {seconds}"
        ]
        assert len(cache) == 3
        assert inflight.exists()

    def test_run_interrupted_exits_resumable(self, tmp_path, capsys):
        import signal as _signal

        from repro.cli import EXIT_RESUMABLE, main

        spec_path = tmp_path / "kill.toml"
        spec_path.write_text(
            'name = "kill"\nscenario = "t-self-sigterm"\nseed = 0\n'
            "[axes]\nx = [0, 1, 2]\n"
        )

        @register_scenario("t-self-sigterm")
        def _t_self_sigterm(params, seed):
            if params["x"] == 0:
                os.kill(os.getpid(), _signal.SIGTERM)
                time.sleep(0.1)
            return {"x": params["x"]}

        cache_dir = tmp_path / "cache"
        rc = main(["run", str(spec_path), "--cache-dir", str(cache_dir)])
        assert rc == EXIT_RESUMABLE
        out = capsys.readouterr().out
        assert "interrupted by SIGTERM" in out
        assert "resume" in out
        # stats now shows the pending checkpoint
        rc = main(["cache", "--cache-dir", str(cache_dir), "stats"])
        assert rc == 0
        assert "pending checkpoints: 1" in capsys.readouterr().out
        # the resumed run completes and consumes the checkpoint
        rc = main(["run", str(spec_path), "--cache-dir", str(cache_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 executed, 1 cached, 0 failed" in out
        rc = main(["cache", "--cache-dir", str(cache_dir), "stats"])
        assert rc == 0
        assert "pending checkpoints: 0" in capsys.readouterr().out


class TestStreamAnalyzeScenario:
    def test_result_shape_and_census(self):
        fn = get_scenario("stream_analyze")
        result = fn(
            {"dataset": "slac-bnl", "n_transfers": 20_000,
             "chunk_size": 5_000, "block_transfers": 10_000},
            seed=4,
        )
        assert result["n_transfers"] == 20_000
        assert result["n_sessions"] == result["n_single"] + result["n_multi"]
        assert result["transfers_per_s"] > 0
        assert result["chunk_size"] == 5_000
        import json

        json.dumps(result)  # cacheable

    def test_chunk_size_does_not_change_census(self):
        fn = get_scenario("stream_analyze")
        base = {"dataset": "slac-bnl", "n_transfers": 12_000,
                "block_transfers": 6_000}
        a = fn({**base, "chunk_size": 4_000}, seed=2)
        b = fn({**base, "chunk_size": 1_111}, seed=2)
        for k in ("n_sessions", "n_single", "n_multi", "n_pairs",
                  "total_bytes", "max_transfers_in_session"):
            assert a[k] == b[k], k
