"""Plumbing for the selectable stepping loop and the event-budget valve.

``RunPlan.sim_core`` / ``RunPlan.max_events`` ship the stepping-loop knobs
to every execution backend with the rest of the run sizing.  The invariants
this file pins:

* ``sim_core`` never changes results (the conformance contract), so it is
  excluded from the scenario content hash and the result-store manifest —
  stores written under different stepping loops stay interchangeable;
* ``max_events`` *is* part of the experiment contract (a tighter valve can
  abort runs the default would finish) and therefore hashes;
* scenario files written before either knob existed parse and re-serialize
  byte-identically (defaults are omitted from ``plan_to_dict``);
* the CLI flags ``--sim-core`` and ``--profile`` reach
  :class:`~repro.scenario.run.EngineOptions`;
* ``auto`` always builds the compiled system, which picks the kernel or
  the reference loop per run and names every fallback on stderr;
* the removed ``batch``, ``fast`` and ``compiled`` cores, whose one-round
  aliases of ``auto`` have expired, are rejected by ``RunPlan``, scenario
  files, ``make_system`` and the CLI.
"""

import dataclasses

import pytest

from repro.common.config import tiny_config
from repro.common.errors import ConfigError
from repro.core import _ckernel, compiled
from repro.core.cmp import CmpSystem
from repro.core.compiled import CompiledCmpSystem
from repro.experiments.runner import (
    SIM_CORES,
    RunPlan,
    make_system,
    run_traces,
)
from repro.scenario.model import plan_from_dict, plan_to_dict
from repro.scenario.run import scenario_from_flags
from repro.schemes.factory import make_scheme
from repro.schemes.snug import SnugCache
from repro.workloads.mixes import build_mix_traces, get_mix


class TestRunPlanFields:
    def test_defaults(self):
        plan = RunPlan()
        assert plan.sim_core == "auto"
        assert plan.max_events is None

    def test_sim_core_validated(self):
        for core in SIM_CORES:
            assert RunPlan(sim_core=core).sim_core == core
        with pytest.raises(ValueError, match="sim_core"):
            RunPlan(sim_core="warp")

    def test_max_events_validated(self):
        assert RunPlan(max_events=1).max_events == 1
        with pytest.raises(ValueError, match="max_events"):
            RunPlan(max_events=0)


class TestPlanSerde:
    def test_defaults_omitted(self):
        # Pre-knob scenario dumps must stay byte-identical.
        d = plan_to_dict(RunPlan())
        assert "sim_core" not in d and "max_events" not in d

    def test_round_trip(self):
        plan = RunPlan(sim_core="reference", max_events=5_000)
        d = plan_to_dict(plan)
        assert d["sim_core"] == "reference" and d["max_events"] == 5_000
        assert plan_from_dict(d) == plan

    def test_legacy_dict_parses(self):
        plan = plan_from_dict({"n_accesses": 100, "target_instructions": 1_000})
        assert plan.sim_core == "auto" and plan.max_events is None

    def test_bad_values_rejected_with_path(self):
        with pytest.raises(ConfigError, match="sim_core"):
            plan_from_dict({"sim_core": "warp"})
        with pytest.raises(ConfigError, match="max_events"):
            plan_from_dict({"max_events": -1})


class TestExperimentIdentity:
    def test_sim_core_excluded_from_content_hash(self):
        scenario = scenario_from_flags(scale="tiny", seed=7, mix="c4_0")
        rehomed = dataclasses.replace(
            scenario, plan=dataclasses.replace(scenario.plan, sim_core="reference")
        )
        assert scenario.content_hash() == rehomed.content_hash()

    def test_max_events_included_in_content_hash(self):
        scenario = scenario_from_flags(scale="tiny", seed=7, mix="c4_0")
        capped = dataclasses.replace(
            scenario, plan=dataclasses.replace(scenario.plan, max_events=123)
        )
        assert scenario.content_hash() != capped.content_hash()

    def test_sim_core_excluded_from_store_manifest(self):
        from repro.common.config import tiny_config
        from repro.engine.runner import ParallelRunner

        config = tiny_config(seed=7)
        manifests = [
            ParallelRunner(
                config, RunPlan(sim_core=core), jobs=0
            )._manifest()
            for core in ("auto", "reference")
        ]
        assert manifests[0] == manifests[1]
        assert "sim_core" not in manifests[0]["plan"]
        assert "max_events" in manifests[0]["plan"]


def _mix_traces(n=200):
    config = tiny_config(seed=7)
    return config, build_mix_traces(get_mix("c4_0"), config.l2.num_sets, n, 0)


def _notices(capsys):
    return [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("repro.compiled:")]


class _OutOfTreeSnug(SnugCache):
    """A SnugCache subclass the kernel has never seen."""

    name = "snug_out_of_tree"


class TestAutoSelectionTable:
    """``auto`` always builds the compiled system; each run picks the
    kernel or the reference loop, and names every fallback once on
    stderr."""

    @pytest.fixture(autouse=True)
    def _fresh_notices(self, monkeypatch):
        monkeypatch.setattr(compiled, "_NOTICED", set())

    def test_every_registered_scheme_resolves(self):
        from repro.schemes.factory import SCHEMES

        config, traces = _mix_traces()
        for name in SCHEMES:
            system = make_system(
                "auto", config, make_scheme(name, config), list(traces)
            )
            assert type(system) is CompiledCmpSystem, name

    def test_unknown_scheme_gets_default(self, capsys):
        # An out-of-tree subclass has no kernel (exact-type dispatch): it
        # runs on the reference loop, and the notice names it.
        config, traces = _mix_traces(1_000)
        results = [
            cls(config, _OutOfTreeSnug(config), list(traces))
            .run(10_000, warmup_instructions=1_000).to_dict()
            for cls in (CompiledCmpSystem, CmpSystem)
        ]
        assert results[0] == results[1]
        assert _notices(capsys) == [
            "repro.compiled: no kernel for scheme 'snug_out_of_tree'; "
            "using the reference loop (bit-identical)"
        ]

    @pytest.mark.skipif(not _ckernel.lib_available(),
                        reason="C kernel unavailable")
    def test_auto_dispatches_through_table(self, capsys):
        # snug_intra under auto: the kernel (kind 5), the reference's
        # result, and no fallback notice.
        config, traces = _mix_traces(1_000)
        results = [
            run_traces("snug_intra", config, traces, 10_000, 1_000,
                       sim_core=core).to_dict()
            for core in ("auto", "reference")
        ]
        assert results[0] == results[1]
        assert _notices(capsys) == []


class TestDispatch:
    def test_make_system_selects_core(self):
        from repro.schemes.l2p import PrivateL2

        config, traces = _mix_traces()
        expected = {"auto": CompiledCmpSystem, "reference": CmpSystem}
        assert set(expected) == set(SIM_CORES)
        for name, cls in expected.items():
            system = make_system(name, config, PrivateL2(config), list(traces))
            assert type(system) is cls
        with pytest.raises(ConfigError, match="sim_core"):
            make_system("warp", config, PrivateL2(config), list(traces))


class TestEngineOptions:
    def test_cli_flags_reach_options(self):
        from repro.cli import build_parser, _engine_options

        args = build_parser().parse_args(
            ["scenario", "run", "smoke-tiny",
             "--sim-core", "reference", "--profile", "out.pstats"]
        )
        options = _engine_options(args)
        assert options.sim_core == "reference"
        assert options.profile == "out.pstats"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "run", "smoke-tiny", "--sim-core", "warp"]
            )


REMOVED_CORES = ("batch", "fast", "compiled")


class TestRemovedCoreNamesRejected:
    """``batch``, ``fast`` and ``compiled`` ran as ``auto`` for one round;
    every entry point now refuses them like any unknown core."""

    @pytest.mark.parametrize("name", REMOVED_CORES)
    def test_run_plan_rejects(self, name):
        with pytest.raises(
            ValueError,
            match=f"sim_core must be one of auto, reference; got '{name}'",
        ):
            RunPlan(sim_core=name)

    @pytest.mark.parametrize("name", REMOVED_CORES)
    def test_scenario_file_rejects(self, name):
        with pytest.raises(ConfigError, match=f"^plan: sim_core .*'{name}'"):
            plan_from_dict({"sim_core": name})

    @pytest.mark.parametrize("name", REMOVED_CORES)
    def test_make_system_rejects(self, name):
        config, traces = _mix_traces()
        with pytest.raises(ConfigError, match=f"unknown sim_core '{name}'"):
            make_system(name, config, make_scheme("l2p", config), list(traces))

    @pytest.mark.parametrize("name", REMOVED_CORES)
    def test_cli_rejects(self, name, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "run", "smoke-tiny", "--sim-core", name]
            )
        assert f"invalid choice: '{name}'" in capsys.readouterr().err
