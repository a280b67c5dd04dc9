"""Conformance: scenario-driven runs are bit-identical to flag-driven runs.

The acceptance contract of the scenario layer (ISSUE 5): running a bundled
preset via ``repro scenario run`` produces bit-identical ``SimResult`` s to
the equivalent flag-driven ``repro sweep`` invocation and to the engine
driven by hand without a scenario — on the inline and process execution
backends — and the two spellings
share one content hash, so either may resume the other's result store.
"""

import json

import pytest

from repro.engine import ParallelRunner
from repro.engine.execution import _trace_memo
from repro.experiments.performance import select_mixes
from repro.scenario import (
    EngineOptions,
    load_scenario_file,
    preset_path,
    run_scenario,
    scenario_from_flags,
)

#: The preset and the flag set it claims equivalence with (see the preset
#: file header): repro --scale tiny --seed 7 sweep --classes C5
#: --combos-per-class 1.
PRESET = "smoke-tiny"
FLAGS = dict(scale="tiny", seed=7, classes=["C5"], combos_per_class=1)


def result_bits(combos):
    """Every SimResult of a run as its exact serialized form."""
    return {
        combo.mix_id: {
            scheme: result.to_dict() for scheme, result in combo.results.items()
        }
        for combo in combos
    }


@pytest.fixture(scope="module")
def preset_scenario():
    return load_scenario_file(preset_path(PRESET))


@pytest.fixture(scope="module")
def legacy_combos(preset_scenario):
    """The pre-scenario path: the engine run by hand in process over
    scaled_config, plan_for_scale and select_mixes."""
    from repro.common.config import scaled_config
    from repro.scenario import plan_for_scale

    config = scaled_config(FLAGS["scale"], seed=FLAGS["seed"])
    plan = plan_for_scale(FLAGS["scale"], FLAGS["seed"])
    mixes = select_mixes(FLAGS["classes"], FLAGS["combos_per_class"])
    return ParallelRunner(config, plan, jobs=0).run(mixes)


class TestScenarioConformance:
    def test_hash_equivalence(self, preset_scenario):
        assert (preset_scenario.content_hash()
                == scenario_from_flags(**FLAGS).content_hash())

    def test_serial_scenario_matches_legacy_path(self, preset_scenario, legacy_combos):
        combos = run_scenario(preset_scenario)
        assert result_bits(combos) == result_bits(legacy_combos)

    @pytest.mark.parametrize("backend,jobs", [("inline", 0), ("process", 2)])
    def test_backends_match_legacy_path(self, preset_scenario, legacy_combos,
                                        backend, jobs):
        _trace_memo.clear()
        combos = run_scenario(
            preset_scenario, EngineOptions(backend=backend, jobs=jobs)
        )
        assert result_bits(combos) == result_bits(legacy_combos)

    def test_cli_store_conformance(self, tmp_path):
        """`repro scenario run` and the equivalent `repro sweep` persist
        byte-identical per-task results (CLI end to end)."""
        from repro.cli import main

        a, b = tmp_path / "scenario", tmp_path / "flags"
        assert main(["scenario", "run", str(preset_path(PRESET)),
                     "--jobs", "0", "--store", str(a)]) == 0
        assert main(["--scale", "tiny", "--seed", "7", "sweep",
                     "--classes", "C5", "--combos-per-class", "1",
                     "--jobs", "0", "--store", str(b)]) == 0
        from repro.engine.store import ResultStore

        with ResultStore(a) as store_a, ResultStore(b) as store_b:
            ids = store_a.completed_ids()
            assert ids == store_b.completed_ids() and ids
            for task_id in sorted(ids):
                # Canonical record bodies, compared byte for byte — the
                # store-level face of the bit-identical-merge contract.
                assert store_a.payload_bytes(task_id) == store_b.payload_bytes(
                    task_id
                )
        # Same contract, same hash: the manifests agree on the scenario
        # identity even though one run was flag-driven.
        hash_a = json.loads((a / "manifest.json").read_text())["scenario"]["hash"]
        hash_b = json.loads((b / "manifest.json").read_text())["scenario"]["hash"]
        assert hash_a == hash_b

    def test_flag_store_resumable_by_scenario(self, tmp_path):
        """A store written by the flag path resumes under the preset (and a
        different scenario is refused with an actionable error)."""
        from repro.cli import main
        from repro.common.errors import EngineError

        store = tmp_path / "store"
        assert main(["--scale", "tiny", "--seed", "7", "sweep",
                     "--classes", "C5", "--combos-per-class", "1",
                     "--jobs", "0", "--store", str(store)]) == 0
        assert main(["scenario", "run", str(preset_path(PRESET)),
                     "--jobs", "0", "--store", str(store), "--resume"]) == 0
        with pytest.raises(EngineError, match="scenario"):
            main(["--scale", "tiny", "--seed", "8", "sweep",
                  "--classes", "C5", "--combos-per-class", "1",
                  "--jobs", "0", "--store", str(store), "--resume"])
