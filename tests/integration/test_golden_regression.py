"""Golden regression: paper metrics must never drift silently.

``tests/data/golden_c4_0_tiny.json`` was captured from the *seed*
implementation (pre-fast-path, pre-engine) for one small fixed mix across
all five schemes.  Every future optimization must reproduce it
**bit-identically** — floats compare with ``==``, not ``approx`` — because
the whole fast-path/parallel-engine design rests on the promise that
results never change.  If a change legitimately alters simulation
semantics, regenerate the snapshot in the same commit and say why.
"""

import json
from pathlib import Path

from tests.helpers import run_mix

from repro.common.config import tiny_config
from repro.experiments.runner import RunPlan
from repro.workloads.mixes import get_mix

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_c4_0_tiny.json"

# Must match the parameters the snapshot was generated with.
GOLDEN_CONFIG_SEED = 7
GOLDEN_PLAN = dict(
    n_accesses=3_000,
    target_instructions=50_000,
    warmup_instructions=30_000,
    seed=11,
    cc_probs=(0.0, 0.5, 1.0),
)
GOLDEN_SCHEMES = ("l2p", "l2s", "cc_best", "dsr", "snug")


def run_golden_combo():
    config = tiny_config(seed=GOLDEN_CONFIG_SEED)
    plan = RunPlan(**GOLDEN_PLAN)
    return run_mix(get_mix("c4_0"), config, plan, schemes=GOLDEN_SCHEMES)


class TestGoldenMetrics:
    def test_snapshot_reproduced_bit_identically(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        combo = run_golden_combo()
        payload = {
            "mix_id": combo.mix_id,
            "cc_best_prob": combo.cc_best_prob,
            "metrics": combo.metrics,
            "ipc": {name: res.ipc for name, res in combo.results.items()},
        }
        # Canonical JSON catches any drift, including float-bit changes.
        assert json.dumps(payload, sort_keys=True) == json.dumps(golden, sort_keys=True)

    def test_snapshot_covers_all_five_schemes(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert set(golden["metrics"]) == set(GOLDEN_SCHEMES)
        assert set(golden["ipc"]) == set(GOLDEN_SCHEMES)
