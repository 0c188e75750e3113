"""The declarative experiment framework: specs, runner, cache, campaigns.

The unit of work is an :class:`~repro.experiments.spec.ExperimentSpec` —
a scenario name, fixed parameters, and sweep axes, loadable from
TOML/JSON.  A :class:`~repro.experiments.runner.Runner` expands it into
deterministically seeded cells and runs them on one ready-set scheduler,
whose executor ``jobs`` picks: in-process for ``jobs=1`` (no per-cell
timeout), a worker-process pool above.  It quarantines failures and
(optionally) settles results through a content-addressed
:class:`~repro.experiments.cache.ResultCache` so re-running a sweep only
computes changed cells.  With a
:class:`~repro.experiments.checkpoint.CampaignCheckpoint` journal the
campaign is also crash-safe: a killed ``--jobs N`` run resumes mid-batch
and executes only cells that never finished.

Specs compose into multi-stage **pipelines**: a
:class:`~repro.experiments.spec.PipelineSpec` is a DAG of scenario grids
whose stages ``need`` earlier stages or external spec files, resolved as
first-class :class:`~repro.experiments.artifacts.Artifact` reads from
the cache (:meth:`Runner.run_pipeline`, :meth:`Runner.dry_run`).

* :mod:`~repro.experiments.spec` — specs, pipelines, :func:`load_spec`;
* :mod:`~repro.experiments.runner` — the Runner, its worker pool and
  campaign results;
* :mod:`~repro.experiments.cache` — the result cache, cell keys and the
  non-finite artifact codec;
* :mod:`~repro.experiments.artifacts` — artifacts and artifact sets;
* :mod:`~repro.experiments.checkpoint` — the crash-safe journal;
* :mod:`~repro.experiments.registry` — the scenario registry, the
  built-in scenarios and the cross-grid Pareto reader;
* :mod:`~repro.experiments.campaigns` — the simulator-driven campaign
  families (chaos, profiling, managed-service chaos) and their reports.
"""
