"""Declarative experiment specs: what to run, over which grid, how seeded.

An :class:`ExperimentSpec` is the unit the campaign :class:`~repro.experiments.runner.Runner`
consumes: it names a registered scenario (see
:mod:`repro.experiments.registry`), fixes a base parameter set, and
declares the sweep axes whose cartesian product is the campaign grid.
Specs load from TOML or JSON files, so a campaign is a reviewable text
artifact rather than a for-loop::

    name = "chaos-grid"
    scenario = "chaos"
    seed = 11
    seed_mode = "shared"

    [params]
    n_jobs = 4

    [axes]
    rejection_prob = [0.0, 0.3]
    setup_timeout_prob = [0.0, 0.2]

Cell ordering is ``itertools.product`` over the axes in declaration
order (first axis outermost), matching the historical ordering of
:func:`repro.experiments.campaigns.chaos_sweep`.

A spec file may instead declare a multi-stage **pipeline** with a
``[[stages]]`` array — each stage is its own scenario grid plus a
``needs = [...]`` list naming upstream stages (or external spec files)
whose cached artifacts the stage consumes::

    name = "pareto"
    seed = 11

    [[stages]]
    name = "workload"
    scenario = "synth"
    [stages.axes]
    n_transfers = [60, 90]

    [[stages]]
    name = "analysis"
    scenario = "managed_from_workload"
    needs = ["workload"]

:func:`load_spec` returns an :class:`ExperimentSpec` or a
:class:`PipelineSpec` depending on the file's shape; a flat spec is the
degenerate single-stage pipeline and behaves byte-identically to how it
always has.

Seeding rule
------------
``seed_mode="per-cell"`` (the default) gives cell *i* the seed
``derive_seed(spec.seed, i)`` — independent streams per cell, so a
sweep is a proper Monte Carlo grid.  ``seed_mode="shared"`` hands every
cell the spec seed unchanged; the ported chaos sweeps use this because
their historical contract is "same seed at every grid point" (the fault
schedule is then identical across points, isolating the knob under
sweep).
"""

from __future__ import annotations

import dataclasses
import json
import os
import tomllib
from collections.abc import Mapping, Sequence
from typing import Any

from ..core.rng import derive_seed

__all__ = [
    "Cell",
    "ExperimentSpec",
    "StageSpec",
    "PipelineSpec",
    "load_spec",
]

_SEED_MODES = ("per-cell", "shared")

#: needs entries with these suffixes are external spec files, not stages
_SPEC_SUFFIXES = (".toml", ".json")


@dataclasses.dataclass(frozen=True)
class Cell:
    """One grid point of an expanded spec."""

    #: position in the campaign's cell ordering (product order)
    index: int
    #: axis name -> this cell's value, in axis declaration order
    coords: dict[str, Any]
    #: full scenario parameters: spec params overlaid with the coords
    params: dict[str, Any]
    #: the seed this cell's scenario call receives
    seed: int


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """A declarative campaign: scenario, fixed params, sweep axes, seeding."""

    name: str
    scenario: str
    params: dict[str, Any] = dataclasses.field(default_factory=dict)
    #: axis name -> tuple of values; declaration order is sweep order
    axes: dict[str, tuple[Any, ...]] = dataclasses.field(default_factory=dict)
    seed: int = 0
    seed_mode: str = "per-cell"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("spec needs a name")
        if not self.scenario:
            raise ValueError("spec needs a scenario")
        if self.seed_mode not in _SEED_MODES:
            raise ValueError(
                f"seed_mode must be one of {_SEED_MODES}, got {self.seed_mode!r}"
            )
        axes: dict[str, tuple[Any, ...]] = {}
        for axis, values in self.axes.items():
            if isinstance(values, (str, bytes)) or not isinstance(
                values, Sequence
            ):
                raise ValueError(f"axis {axis!r} must be a list of values")
            if len(values) == 0:
                raise ValueError(f"axis {axis!r} is empty")
            axes[axis] = tuple(values)
        overlap = set(axes) & set(self.params)
        if overlap:
            raise ValueError(
                f"axes shadow fixed params: {sorted(overlap)} — "
                "a knob is either swept or pinned, not both"
            )
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "params", dict(self.params))

    # -- loading -----------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown spec keys: {sorted(unknown)}")
        return cls(**dict(data))

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "ExperimentSpec":
        """Load a flat spec from ``path`` — TOML unless the suffix is .json."""
        return cls.from_dict(_load_spec_data(path))

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "params": dict(self.params),
            "axes": {axis: list(v) for axis, v in self.axes.items()},
            "seed": self.seed,
            "seed_mode": self.seed_mode,
        }

    # -- expansion ---------------------------------------------------------

    @property
    def n_cells(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def cell_seed(self, index: int) -> int:
        if self.seed_mode == "shared":
            return self.seed
        return derive_seed(self.seed, index)

    def cells(self) -> list[Cell]:
        """Expand the grid: product order, first declared axis outermost."""
        names = list(self.axes)
        grids: list[tuple[Any, ...]] = [()]
        for axis in names:
            grids = [g + (v,) for g in grids for v in self.axes[axis]]
        out = []
        for index, combo in enumerate(grids):
            coords = dict(zip(names, combo))
            out.append(
                Cell(
                    index=index,
                    coords=coords,
                    params={**self.params, **coords},
                    seed=self.cell_seed(index),
                )
            )
        return out


# -- pipelines ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: a scenario grid plus its upstream dependencies.

    ``needs`` entries are either the names of earlier stages in the same
    pipeline, or paths to external spec files (recognised by a ``.toml``
    / ``.json`` suffix, resolved relative to the pipeline's own file).
    A stage with ``needs`` must declare an artifact-consuming scenario
    (see :func:`~repro.experiments.registry.register_scenario`); the
    resolved upstream :class:`~repro.experiments.artifacts.ArtifactSet`
    objects are handed to every cell of the stage.
    """

    name: str
    spec: ExperimentSpec
    needs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stage needs a name")
        if self.name.endswith(_SPEC_SUFFIXES):
            raise ValueError(
                f"stage name {self.name!r} looks like a spec file path; "
                "stage names must not end in .toml/.json"
            )
        object.__setattr__(self, "needs", tuple(self.needs))
        if len(set(self.needs)) != len(self.needs):
            raise ValueError(f"stage {self.name!r} lists a need twice")

    @staticmethod
    def is_external(need: str) -> bool:
        return need.endswith(_SPEC_SUFFIXES)


@dataclasses.dataclass(frozen=True)
class PipelineSpec:
    """A multi-stage campaign: a DAG of scenario grids.

    Stages execute in topological order; each stage's cells resolve the
    artifact sets of the stages (or external specs) it ``needs``.  A
    flat :class:`ExperimentSpec` is the degenerate single-stage case —
    :func:`load_spec` returns whichever form a file declares, and the
    Runner accepts both.

    ``seed`` is the default seed for stages that do not pin their own;
    ``base_dir`` anchors relative external-spec paths (set by
    :meth:`from_file`, excluded from equality and from ``to_dict`` so a
    pipeline's identity does not depend on where its file happens to
    live).
    """

    name: str
    stages: tuple[StageSpec, ...]
    seed: int = 0
    base_dir: str | None = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("pipeline needs a name")
        if not self.stages:
            raise ValueError("pipeline needs at least one stage")
        object.__setattr__(self, "stages", tuple(self.stages))
        names = [s.name for s in self.stages]
        dup = {n for n in names if names.count(n) > 1}
        if dup:
            raise ValueError(f"duplicate stage name(s): {sorted(dup)}")
        known = set(names)
        for stage in self.stages:
            for need in stage.needs:
                if need == stage.name:
                    raise ValueError(f"stage {stage.name!r} needs itself")
                if not StageSpec.is_external(need) and need not in known:
                    raise ValueError(
                        f"stage {stage.name!r} needs unknown stage "
                        f"{need!r} (external refs must end in .toml/.json)"
                    )
        self.stage_order()  # raises on dependency cycles

    def stage(self, name: str) -> StageSpec:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no stage named {name!r} in pipeline {self.name!r}")

    def stage_order(self) -> list[StageSpec]:
        """Stages in topological order (declaration order breaks ties)."""
        remaining = list(self.stages)
        done: set[str] = set()
        ordered: list[StageSpec] = []
        while remaining:
            ready = [
                s
                for s in remaining
                if all(
                    StageSpec.is_external(n) or n in done for n in s.needs
                )
            ]
            if not ready:
                cycle = sorted(s.name for s in remaining)
                raise ValueError(f"dependency cycle among stages: {cycle}")
            for stage in ready:
                ordered.append(stage)
                done.add(stage.name)
                remaining.remove(stage)
        return ordered

    @property
    def n_cells(self) -> int:
        return sum(s.spec.n_cells for s in self.stages)

    def external_needs(self) -> list[str]:
        """Every distinct external spec reference, in first-use order."""
        out: list[str] = []
        for stage in self.stage_order():
            for need in stage.needs:
                if StageSpec.is_external(need) and need not in out:
                    out.append(need)
        return out

    def resolve_path(self, need: str) -> str:
        """An external need's path, anchored at the pipeline's base_dir."""
        if os.path.isabs(need) or self.base_dir is None:
            return need
        return os.path.join(self.base_dir, need)

    # -- loading -----------------------------------------------------------

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], base_dir: str | None = None
    ) -> "PipelineSpec":
        known = {"name", "seed", "stages"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown pipeline keys: {sorted(unknown)}")
        name = data.get("name", "")
        seed = int(data.get("seed", 0))
        raw_stages = data.get("stages")
        if not isinstance(raw_stages, Sequence) or isinstance(
            raw_stages, (str, bytes)
        ):
            raise ValueError("stages must be a list of stage tables")
        stages = []
        for raw in raw_stages:
            if not isinstance(raw, Mapping):
                raise ValueError("each stage must be a table/dict")
            stage_known = {
                "name",
                "scenario",
                "params",
                "axes",
                "seed",
                "seed_mode",
                "needs",
            }
            unknown = set(raw) - stage_known
            if unknown:
                raise ValueError(f"unknown stage keys: {sorted(unknown)}")
            stage_name = raw.get("name", "")
            spec = ExperimentSpec(
                name=f"{name}/{stage_name}",
                scenario=raw.get("scenario", ""),
                params=dict(raw.get("params", {})),
                axes=dict(raw.get("axes", {})),
                seed=int(raw.get("seed", seed)),
                seed_mode=raw.get("seed_mode", "per-cell"),
            )
            stages.append(
                StageSpec(
                    name=stage_name,
                    spec=spec,
                    needs=tuple(raw.get("needs", ())),
                )
            )
        return cls(
            name=name, stages=tuple(stages), seed=seed, base_dir=base_dir
        )

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "PipelineSpec":
        data = _load_spec_data(path)
        return cls.from_dict(data, base_dir=os.path.dirname(os.fspath(path)))

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "stages": [
                {
                    "name": s.name,
                    "scenario": s.spec.scenario,
                    "params": dict(s.spec.params),
                    "axes": {a: list(v) for a, v in s.spec.axes.items()},
                    "seed": s.spec.seed,
                    "seed_mode": s.spec.seed_mode,
                    "needs": list(s.needs),
                }
                for s in self.stages
            ],
        }


def _load_spec_data(path: str | os.PathLike) -> dict[str, Any]:
    path = os.fspath(path)
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def load_spec(path: str | os.PathLike) -> "ExperimentSpec | PipelineSpec":
    """Load a spec file as whichever form it declares.

    A file with a ``[[stages]]`` array is a :class:`PipelineSpec`;
    anything else is a flat :class:`ExperimentSpec` (the degenerate
    single-stage pipeline).  The CLI's ``run`` accepts both through
    this one entry point.
    """
    data = _load_spec_data(path)
    if isinstance(data, Mapping) and "stages" in data:
        return PipelineSpec.from_dict(
            data, base_dir=os.path.dirname(os.fspath(path))
        )
    return ExperimentSpec.from_dict(data)
