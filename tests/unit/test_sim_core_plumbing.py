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
* the CLI flags reach :class:`EngineOptions` without flipping a serial run
  onto the engine path;
* the removed ``batch`` core is, for one round, a deprecated alias of
  ``auto`` from CLI flags, scenario files and ``RunPlan`` (warning once);
* :meth:`SimResult.from_dict` still accepts pre-window-metrics payloads
  (stores migrated from old layouts lack the keys).
"""

import dataclasses

import pytest

from repro.common.errors import ConfigError
from repro.core.cmp import CmpSystem, SimResult
from repro.core.compiled import CompiledCmpSystem
from repro.core.reference import ReferenceCmpSystem
from repro.experiments import runner
from repro.experiments.runner import (
    AUTO_CORE_BY_SCHEME,
    AUTO_DEFAULT_CORE,
    SIM_CORES,
    RunPlan,
    make_system,
    resolve_auto_core,
)
from repro.scenario.model import plan_from_dict, plan_to_dict
from repro.scenario.run import EngineOptions, scenario_from_flags


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
            for core in ("compiled", "reference")
        ]
        assert manifests[0] == manifests[1]
        assert "sim_core" not in manifests[0]["plan"]
        assert "max_events" in manifests[0]["plan"]


class TestAutoSelectionTable:
    """``auto`` resolves per scheme from the measured table.

    Every scheme with a compiled kernel lands on it, everything else
    (``snug_intra``, unknown names) lands on the fast scalar loop; the
    removed batched core is never named.
    """

    def test_every_registered_scheme_resolves(self):
        from repro.schemes.factory import SCHEMES

        expected = {
            "l2p": "compiled",
            "l2s": "compiled",
            "cc": "compiled",
            "dsr": "compiled",
            "snug": "compiled",
            "snug_intra": "fast",
        }
        assert set(expected) == set(SCHEMES)
        for name, core in expected.items():
            assert resolve_auto_core(name) == core, name

    def test_unknown_scheme_gets_default(self):
        assert resolve_auto_core("out_of_tree") == AUTO_DEFAULT_CORE == "fast"

    def test_table_never_selects_batch(self):
        # The l2s regression guard: no scheme may auto-resolve to batch.
        assert "batch" not in AUTO_CORE_BY_SCHEME.values()
        assert AUTO_DEFAULT_CORE != "batch"

    def test_table_only_names_real_cores(self):
        for core in {*AUTO_CORE_BY_SCHEME.values(), AUTO_DEFAULT_CORE}:
            assert core in SIM_CORES and core != "auto"

    def test_auto_dispatches_through_table(self):
        from repro.common.config import tiny_config
        from repro.schemes.factory import make_scheme
        from repro.workloads.mixes import build_mix_traces, get_mix

        config = tiny_config(seed=7)
        traces = build_mix_traces(get_mix("c4_0"), config.l2.num_sets, 200, 0)
        by_core = {"compiled": CompiledCmpSystem, "fast": CmpSystem}
        for name in ("l2p", "l2s", "cc", "dsr", "snug", "snug_intra"):
            scheme = make_scheme(name, config)
            system = make_system("auto", config, scheme, list(traces))
            assert type(system) is by_core[resolve_auto_core(name)], name


class TestDispatch:
    def test_make_system_selects_core(self):
        from repro.common.config import tiny_config
        from repro.schemes.l2p import PrivateL2
        from repro.workloads.mixes import build_mix_traces, get_mix

        config = tiny_config(seed=7)
        traces = build_mix_traces(get_mix("c4_0"), config.l2.num_sets, 200, 0)
        expected = {
            "auto": CompiledCmpSystem,  # l2p sits in the selection table
            "fast": CmpSystem,
            "compiled": CompiledCmpSystem,
            "reference": ReferenceCmpSystem,
        }
        assert set(expected) == set(SIM_CORES)
        for name, cls in expected.items():
            system = make_system(name, config, PrivateL2(config), list(traces))
            assert type(system) is cls
        with pytest.raises(ConfigError, match="sim_core"):
            make_system("warp", config, PrivateL2(config), list(traces))


class TestEngineOptions:
    def test_sim_core_and_profile_do_not_request_engine(self):
        assert not EngineOptions(sim_core="reference", profile="x.pstats").engine_requested
        assert EngineOptions(jobs=2).engine_requested

    def test_cli_flags_reach_options(self):
        from repro.cli import build_parser, _engine_options

        args = build_parser().parse_args(
            ["scenario", "run", "smoke-tiny",
             "--sim-core", "compiled", "--profile", "out.pstats"]
        )
        options = _engine_options(args)
        assert options.sim_core == "compiled"
        assert options.profile == "out.pstats"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "run", "smoke-tiny", "--sim-core", "warp"]
            )


class TestDeprecatedBatchAlias:
    """``batch`` runs as ``auto`` for one round, warning once per process."""

    @pytest.fixture(autouse=True)
    def _rearm_warning(self, monkeypatch):
        monkeypatch.setattr(runner, "_deprecation_warned", False)

    def test_run_plan_maps_batch_to_auto_and_warns_once(self):
        with pytest.warns(FutureWarning, match="'batch' is deprecated"):
            assert RunPlan(sim_core="batch").sim_core == "auto"
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert RunPlan(sim_core="batch").sim_core == "auto"

    def test_scenario_file_and_cli_accept_batch(self):
        from repro.cli import build_parser, _engine_options

        with pytest.warns(FutureWarning):
            assert plan_from_dict({"sim_core": "batch"}).sim_core == "auto"
        args = build_parser().parse_args(
            ["scenario", "run", "smoke-tiny", "--sim-core", "batch"]
        )
        assert _engine_options(args).sim_core == "auto"

    def test_make_system_treats_batch_as_auto(self):
        from repro.common.config import tiny_config
        from repro.schemes.factory import make_scheme
        from repro.workloads.mixes import build_mix_traces, get_mix

        config = tiny_config(seed=7)
        traces = build_mix_traces(get_mix("c4_0"), config.l2.num_sets, 200, 0)
        with pytest.warns(FutureWarning):
            for name in ("l2p", "snug_intra"):
                system = make_system(
                    "batch", config, make_scheme(name, config), list(traces)
                )
                auto = make_system(
                    "auto", config, make_scheme(name, config), list(traces)
                )
                assert type(system) is type(auto)


class TestSimResultLegacyPayloads:
    def test_from_dict_tolerates_missing_window_metrics(self):
        payload = {
            "scheme": "l2p",
            "ipc": [0.5, 0.5],
            "instructions": [100, 100],
            "cycles": [200, 200],
            "accesses": [10, 10],
            "outcome_counts": {"local_hit": 20},
            "stats": {"slice_0.hits": 20},
        }
        result = SimResult.from_dict(payload)
        assert result.window_outcomes == []
        assert result.window_latency == []
        # Round-trips forward into the modern shape.
        assert SimResult.from_dict(result.to_dict()) == result
