"""Unit tests for the declarative scenario layer.

Covers the ISSUE-5 contract: YAML/JSON round-trip identity, upfront
cross-field validation with dotted field paths in every error, content-hash
semantics (resolved inputs, cosmetic fields excluded), seeded workload
generation, and the bundled preset catalog.
"""

import pytest

from repro.common.errors import ConfigError
from repro.experiments.runner import RunPlan
from repro.scenario import (
    GeneratedMixSpec,
    ProgramMixSpec,
    Scenario,
    ScenarioGrid,
    SystemSpec,
    WorkloadSpec,
    expand_scenario_file,
    load_scenario_file,
    plan_for_scale,
    preset_names,
    preset_path,
    scenario_from_flags,
)


def tiny_scenario(**kwargs) -> Scenario:
    defaults = dict(
        name="t",
        system=SystemSpec(scale="tiny", seed=7),
        workload=WorkloadSpec(mixes=("c1_0",)),
        schemes=("l2p", "snug"),
        plan=RunPlan(n_accesses=1_000, target_instructions=10_000,
                     warmup_instructions=0, seed=7),
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestRoundTrip:
    def full_scenario(self) -> Scenario:
        """A scenario exercising every workload selector and an override."""
        return Scenario(
            name="full",
            description="round-trip fixture",
            system=SystemSpec(
                scale="tiny", seed=3,
                overrides={"snug": {"identify_cycles": 20_000},
                           "dsr": {"leader_sets_per_policy": 4}},
            ),
            workload=WorkloadSpec(
                classes=("C5",),
                combos_per_class=1,
                mixes=("c1_0",),
                programs=(ProgramMixSpec("mine", ("gzip", "swim", "mesa", "art")),),
                generated=(GeneratedMixSpec(count=2, slots=("A", "C", "D", "any"),
                                            seed=5, id_prefix="g"),),
            ),
            schemes=("l2p", "cc_best", "snug"),
            plan=RunPlan(n_accesses=2_000, target_instructions=20_000,
                         warmup_instructions=1_000, seed=9,
                         cc_probs=(0.0, 1.0), snug_monitor=True),
        )

    def test_yaml_round_trip_identity(self):
        s = self.full_scenario()
        text = s.dumps()
        s2 = Scenario.loads(text)
        assert s2 == s
        assert s2.dumps() == text  # dump is stable, not just equal

    def test_json_round_trip_identity(self):
        s = self.full_scenario()
        s2 = Scenario.loads(s.dumps("json"), "json")
        assert s2 == s
        assert s2.content_hash() == s.content_hash()

    def test_file_round_trip(self, tmp_path):
        s = self.full_scenario()
        path = tmp_path / "s.yaml"
        s.dump(path)
        assert Scenario.load(path) == s
        jpath = tmp_path / "s.json"
        s.dump(jpath)
        assert Scenario.load(jpath) == s

    def test_to_dict_is_json_native(self):
        import json

        json.dumps(self.full_scenario().to_dict())  # must not raise


class TestValidationPaths:
    """Every rejection names the offending dotted field path."""

    def loads(self, text: str):
        return Scenario.loads(text)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            self.loads("scenario: 1\nname: x\nbogus: 1\nworkload: {mixes: [c1_0]}\n")

    def test_unknown_scheme_with_index(self):
        with pytest.raises(ConfigError, match=r"schemes\[1\].*lru"):
            tiny_scenario(schemes=("l2p", "lru"))

    def test_bad_mix_id_with_index(self):
        with pytest.raises(ConfigError, match=r"workload\.mixes\[0\]"):
            self.loads("scenario: 1\nname: x\nworkload: {mixes: [c9_9]}\n")

    def test_bad_benchmark_in_programs(self):
        with pytest.raises(ConfigError, match=r"workload\.programs\[0\]\.programs\[2\]"):
            self.loads(
                "scenario: 1\nname: x\n"
                "workload: {programs: [{id: m, programs: [gzip, swim, doom3, art]}]}\n"
            )

    def test_non_pow2_geometry_has_system_path(self):
        with pytest.raises(ConfigError, match=r"system\.l2.*power of two"):
            self.loads(
                "scenario: 1\nname: x\nworkload: {mixes: [c1_0]}\n"
                "system: {scale: tiny, overrides: {l2: {size_bytes: 5000}}}\n"
            )

    def test_unknown_override_field_rejected(self):
        with pytest.raises(ConfigError, match=r"system\.overrides\.l2.*ways"):
            self.loads(
                "scenario: 1\nname: x\nworkload: {mixes: [c1_0]}\n"
                "system: {overrides: {l2: {ways: 8}}}\n"
            )

    def test_epoch_ratio_cross_field(self):
        with pytest.raises(ConfigError, match=r"system\.snug.*identify_cycles"):
            self.loads(
                "scenario: 1\nname: x\nworkload: {mixes: [c1_0]}\n"
                "system: {scale: tiny, overrides: "
                "{snug: {identify_cycles: 500000, group_cycles: 400000}}}\n"
            )

    def test_cc_probs_out_of_range_with_index(self):
        with pytest.raises(ConfigError, match=r"plan\.cc_probs\[1\]"):
            self.loads(
                "scenario: 1\nname: x\nworkload: {mixes: [c1_0]}\n"
                "plan: {cc_probs: [0.0, 1.5]}\n"
            )

    def test_cc_probs_percent_collision(self):
        with pytest.raises(ConfigError, match=r"plan\.cc_probs.*1%"):
            self.loads(
                "scenario: 1\nname: x\nworkload: {mixes: [c1_0]}\n"
                "plan: {cc_probs: [0.501, 0.502]}\n"
            )

    def test_empty_workload_rejected(self):
        with pytest.raises(ConfigError, match="workload"):
            self.loads("scenario: 1\nname: x\nworkload: {}\n")

    def test_combos_per_class_requires_classes(self):
        with pytest.raises(ConfigError, match="combos_per_class"):
            self.loads(
                "scenario: 1\nname: x\nworkload: {mixes: [c1_0], combos_per_class: 2}\n"
            )

    def test_duplicate_resolved_mix_ids(self):
        with pytest.raises(ConfigError, match="duplicate mix id"):
            self.loads(
                "scenario: 1\nname: x\nworkload: {classes: [C1], mixes: [c1_0]}\n"
            )

    def test_schema_version_guard(self):
        with pytest.raises(ConfigError, match="version"):
            self.loads("scenario: 99\nname: x\nworkload: {mixes: [c1_0]}\n")

    def test_not_a_scenario_file(self, tmp_path):
        path = tmp_path / "nope.yaml"
        path.write_text("just: stuff\n")
        with pytest.raises(ConfigError, match="scenario: 1"):
            load_scenario_file(path)

    def test_program_count_vs_num_cores(self):
        with pytest.raises(ConfigError, match="num_cores"):
            self.loads(
                "scenario: 1\nname: x\n"
                "workload: {programs: [{id: m, programs: [gzip, swim]}]}\n"
            )

    def test_bool_rejected_where_int_expected(self):
        with pytest.raises(ConfigError, match=r"plan\.n_accesses"):
            self.loads(
                "scenario: 1\nname: x\nworkload: {mixes: [c1_0]}\n"
                "plan: {n_accesses: true}\n"
            )

    def test_unknown_scale(self):
        with pytest.raises(ConfigError, match=r"system\.scale"):
            self.loads(
                "scenario: 1\nname: x\nworkload: {mixes: [c1_0]}\n"
                "system: {scale: huge}\n"
            )

    def test_generated_unknown_pool(self):
        with pytest.raises(ConfigError, match=r"workload\.generated\[0\]\.slots\[1\]"):
            self.loads(
                "scenario: 1\nname: x\n"
                "workload: {generated: [{count: 1, slots: [A, Z, C, D]}]}\n"
            )


class TestContentHash:
    def test_name_and_description_are_cosmetic(self):
        a = tiny_scenario(name="a", description="one")
        b = tiny_scenario(name="b", description="two")
        assert a.content_hash() == b.content_hash()

    def test_plan_change_changes_hash(self):
        a = tiny_scenario()
        b = tiny_scenario(plan=RunPlan(n_accesses=1_000, target_instructions=10_000,
                                       warmup_instructions=0, seed=8))
        assert a.content_hash() != b.content_hash()

    def test_spelling_independence(self):
        """scale alias vs the equivalent explicit overrides hash identically."""
        import dataclasses

        from repro.common.config import tiny_config

        cfg = tiny_config(seed=7)
        explicit = SystemSpec(
            scale="small", seed=7,
            overrides={
                "l2": dataclasses.asdict(cfg.l2),
                "snug": dataclasses.asdict(cfg.snug),
                "dsr": dataclasses.asdict(cfg.dsr),
            },
        )
        assert explicit.build() == cfg
        assert (tiny_scenario(system=explicit).content_hash()
                == tiny_scenario().content_hash())

    def test_mix_alias_independence(self):
        """A registered mix id and its expanded program list hash equally."""
        from repro.workloads.mixes import get_mix

        mix = get_mix("c1_0")
        spelled = WorkloadSpec(programs=(
            ProgramMixSpec(mix.mix_id, mix.programs, mix.mix_class),
        ))
        assert (tiny_scenario(workload=spelled).content_hash()
                == tiny_scenario().content_hash())


class TestGeneratedMixes:
    def test_deterministic(self):
        spec = GeneratedMixSpec(count=4, slots=("A", "C", "D", "any"), seed=13)
        first = [(m.mix_id, m.programs) for m in spec.resolve()]
        again = [(m.mix_id, m.programs) for m in spec.resolve()]
        assert first == again

    def test_seed_changes_draws(self):
        base = GeneratedMixSpec(count=8, slots=("any",) * 4, seed=1)
        other = GeneratedMixSpec(count=8, slots=("any",) * 4, seed=2)
        assert ([m.programs for m in base.resolve()]
                != [m.programs for m in other.resolve()])

    def test_slots_draw_from_their_pools(self):
        from repro.scenario.workload import CLASS_POOLS

        spec = GeneratedMixSpec(count=6, slots=("A", "B", "C", "D"), seed=3)
        for mix in spec.resolve():
            for prog, slot in zip(mix.programs, ("A", "B", "C", "D")):
                assert prog in CLASS_POOLS[slot]


class TestFlagAdapter:
    def test_matches_smoke_preset(self):
        flag = scenario_from_flags(scale="tiny", seed=7,
                                   classes=["C5"], combos_per_class=1)
        preset = load_scenario_file(preset_path("smoke-tiny"))
        assert flag.content_hash() == preset.content_hash()

    def test_plan_for_scale_matches_sizing(self):
        plan = plan_for_scale("small", 7)
        assert (plan.n_accesses, plan.target_instructions,
                plan.warmup_instructions) == (25_000, 300_000, 300_000)
        with pytest.raises(ConfigError):
            plan_for_scale("huge", 7)

    def test_custom_programs(self):
        s = scenario_from_flags(scale="tiny", seed=7,
                                programs=["gzip", "swim", "mesa", "art"])
        [mix] = s.build_mixes()
        assert mix.mix_id == "custom"
        assert mix.programs == ("gzip", "swim", "mesa", "art")


class TestPresets:
    def test_catalog_non_empty(self):
        assert {"smoke-tiny", "fig9-11-small", "fig9-11-paper"} <= set(preset_names())

    @pytest.mark.parametrize("name", sorted(preset_names()))
    def test_every_preset_validates(self, name):
        scenarios = expand_scenario_file(preset_path(name))
        assert scenarios
        for scenario in scenarios:
            assert scenario.build_mixes()
            assert len(scenario.content_hash()) == 64

    def test_unknown_preset_listed(self):
        with pytest.raises(ConfigError, match="smoke-tiny"):
            preset_path("nope")


class TestGrid:
    GRID = """\
grid: 1
name: g
base:
  system: {scale: tiny, seed: 7}
  workload: {mixes: [c1_0]}
  schemes: [l2p]
  plan: {n_accesses: 1000, target_instructions: 10000, warmup_instructions: 0}
axes:
  plan.seed: [1, 2]
  system.overrides.snug.identify_cycles: [15000, 30000]
"""

    def test_expansion_applies_axes(self):
        grid = ScenarioGrid.loads(self.GRID)
        scenarios = grid.expand()
        assert len(scenarios) == 4
        assert [s.plan.seed for s in scenarios] == [1, 1, 2, 2]
        assert ([s.build_config().snug.identify_cycles for s in scenarios]
                == [15_000, 30_000, 15_000, 30_000])
        assert scenarios[0].name == "g__seed=1__identify_cycles=15000"

    def test_round_trip(self):
        grid = ScenarioGrid.loads(self.GRID)
        assert ScenarioGrid.loads(grid.dumps()) == grid

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            ScenarioGrid.loads(self.GRID.replace("[1, 2]", "[1, 1]"))

    def test_bad_grid_point_names_point_and_path(self):
        bad = self.GRID.replace("[15000, 30000]", "[15000, -5]")
        with pytest.raises(ConfigError, match=r"grid point .*system\.snug"):
            ScenarioGrid.loads(bad).expand()

    def test_float_axis_values_make_file_safe_names(self):
        grid = ScenarioGrid.loads(self.GRID.replace(
            "system.overrides.snug.identify_cycles: [15000, 30000]",
            "system.overrides.snug.group_cycles: [1.0e+7, 1.0e+8]",
        ))
        names = [s.name for s in grid.expand()]
        assert names[0] == "g__seed=1__group_cycles=1e07"
        assert len(set(names)) == 4

    def test_resolution_is_memoized(self):
        s = tiny_scenario()
        assert s.build_config() is s.build_config()
        first = s.build_mixes()
        assert first == s.build_mixes()
        first.append("mutant")  # callers get copies, not the memo
        assert s.build_mixes()[-1] != "mutant"

    def test_expand_scenario_file_flattens(self, tmp_path):
        path = tmp_path / "g.yaml"
        path.write_text(self.GRID)
        assert [s.name for s in expand_scenario_file(path)] == [
            "g__seed=1__identify_cycles=15000",
            "g__seed=1__identify_cycles=30000",
            "g__seed=2__identify_cycles=15000",
            "g__seed=2__identify_cycles=30000",
        ]
