"""Declarative scenario layer: one validated contract from spec to run.

Every experiment this toolkit can run — a single mix, the full Figures 9–11
study, a many-node distributed sweep — is described by one frozen, content-
hashed :class:`~repro.scenario.model.Scenario` value: the simulated system
(:class:`~repro.scenario.system.SystemSpec`: scale preset + sparse
overrides), the workload (:class:`~repro.scenario.workload.WorkloadSpec`:
registered Table 8 mixes, explicit program lists, or seeded generated
draws), the scheme set, and the run sizing
(:class:`~repro.experiments.runner.RunPlan`).  Scenarios load from and dump
to YAML/JSON with upfront cross-field validation (pathed
:class:`~repro.common.errors.ConfigError`), and
:class:`~repro.scenario.grid.ScenarioGrid` expands parameter cross-products
into concrete scenario lists.

Entry points
------------
* ``repro scenario run|validate|expand FILE`` — the CLI front door.
* :func:`~repro.scenario.run.run_scenario` /
  :class:`~repro.scenario.run.ScenarioExecution` — the library API (in
  process by default, or on any execution backend; the scenario hash is
  stamped into the result store's manifest either way).
* :func:`~repro.scenario.run.scenario_from_flags` — the adapter that turns
  a flag-driven ``repro run``/``repro sweep`` invocation into the same
  contract (bit-identical results, pinned by the conformance suite).
* :mod:`repro.scenario.presets` — bundled, CI-validated scenario files
  covering the paper's sweeps and the fast/tiny test scales.

Schema reference and preset catalog: ``docs/scenarios.md``.
"""

from __future__ import annotations

import os

from ..common.errors import ConfigError
from .grid import GRID_SCHEMA_VERSION, ScenarioGrid
from .model import SCHEMA_VERSION, Scenario
from .presets import PRESET_DIR, preset_names, preset_path
from .run import (
    PLAN_SIZING,
    EngineOptions,
    ScenarioExecution,
    plan_for_scale,
    run_scenario,
    scenario_from_flags,
)
from .serde import detect_format, parse_text
from .system import SystemSpec
from .workload import GeneratedMixSpec, ProgramMixSpec, WorkloadSpec

__all__ = [
    "Scenario",
    "ScenarioGrid",
    "SystemSpec",
    "WorkloadSpec",
    "ProgramMixSpec",
    "GeneratedMixSpec",
    "EngineOptions",
    "ScenarioExecution",
    "run_scenario",
    "scenario_from_flags",
    "plan_for_scale",
    "PLAN_SIZING",
    "SCHEMA_VERSION",
    "GRID_SCHEMA_VERSION",
    "load_scenario_file",
    "expand_scenario_file",
    "PRESET_DIR",
    "preset_names",
    "preset_path",
]


def load_scenario_file(path: str | os.PathLike):
    """Load *path* as a :class:`Scenario` or :class:`ScenarioGrid`.

    The top-level version key picks the schema: ``scenario: 1`` or
    ``grid: 1``.  A bare preset name (no such file on disk, no path
    separator) resolves against the bundled presets.
    """
    text_path = os.fspath(path)
    if not os.path.exists(text_path) and os.sep not in text_path \
            and "/" not in text_path and not text_path.endswith((".yaml", ".yml", ".json")):
        text_path = os.fspath(preset_path(text_path))
    try:
        with open(text_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {text_path}: {exc}") from None
    data = parse_text(text, detect_format(text_path), label=os.path.basename(text_path))
    if "grid" in data:
        return ScenarioGrid.from_dict(data)
    if "scenario" in data:
        return Scenario.from_dict(data)
    raise ConfigError(
        f"{text_path}: not a scenario file — expected a top-level "
        "'scenario: 1' (single scenario) or 'grid: 1' (scenario grid) key"
    )


def expand_scenario_file(path: str | os.PathLike):
    """*path* as a flat scenario list: a grid expands, a scenario is [it]."""
    loaded = load_scenario_file(path)
    if isinstance(loaded, ScenarioGrid):
        return loaded.expand()
    return [loaded]
