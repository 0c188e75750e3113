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

The campaign families the repo grew before this framework — chaos,
profiling, mechanistic, SNMP, managed-service, synth, and the
cross-spec Pareto analyses — are registered as scenarios
(:mod:`repro.experiments.registry`) and their report plumbing lives in
:mod:`repro.experiments.campaigns`.
"""

from .artifacts import Artifact, ArtifactSet, keys_digest
from .cache import (
    CacheStats,
    ResultCache,
    VerifyReport,
    canonical_json,
    cell_key,
)
from .checkpoint import CampaignCheckpoint, spec_fingerprint
from .campaigns import (
    ChaosConfig,
    ChaosReport,
    ManagedChaosConfig,
    ManagedChaosReport,
    ProfileReport,
    chaos_config_from_params,
    chaos_params_from_config,
    chaos_sweep,
    cross_spec_pareto,
    decode_nonfinite,
    encode_nonfinite,
    managed_campaign_from_workload,
    pareto_front_points,
    profile_campaign,
    report_from_dict,
    report_to_dict,
    run_chaos,
    run_managed_chaos,
)
from .registry import (
    get_scenario,
    register_scenario,
    scenario_names,
    scenario_needs_artifacts,
)
from .runner import (
    CampaignInterrupted,
    CampaignResult,
    CellResult,
    PipelineResult,
    Runner,
    StagePlan,
)
from .spec import Cell, ExperimentSpec, PipelineSpec, StageSpec, load_spec

__all__ = [
    "ExperimentSpec",
    "StageSpec",
    "PipelineSpec",
    "load_spec",
    "Cell",
    "Runner",
    "CampaignResult",
    "CellResult",
    "PipelineResult",
    "StagePlan",
    "CampaignInterrupted",
    "CampaignCheckpoint",
    "spec_fingerprint",
    "ResultCache",
    "CacheStats",
    "VerifyReport",
    "cell_key",
    "canonical_json",
    "Artifact",
    "ArtifactSet",
    "keys_digest",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "scenario_needs_artifacts",
    "ChaosConfig",
    "ChaosReport",
    "run_chaos",
    "chaos_sweep",
    "chaos_params_from_config",
    "chaos_config_from_params",
    "report_to_dict",
    "report_from_dict",
    "encode_nonfinite",
    "decode_nonfinite",
    "ManagedChaosConfig",
    "ManagedChaosReport",
    "run_managed_chaos",
    "ProfileReport",
    "profile_campaign",
    "pareto_front_points",
    "managed_campaign_from_workload",
    "cross_spec_pareto",
]
