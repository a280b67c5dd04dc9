"""Unit tests for repro.experiments.runner."""

import pytest

from tests.helpers import run_mix, tiny_system

from repro.experiments.runner import (
    CC_PROBS_FAST,
    CC_PROBS_FULL,
    RunPlan,
    run_traces,
)
from repro.workloads.mixes import build_mix_traces, get_mix


PLAN = RunPlan(n_accesses=2_500, target_instructions=30_000, warmup_instructions=20_000)


class TestRunPlan:
    def test_defaults_valid(self):
        RunPlan()

    def test_validation(self):
        with pytest.raises(ValueError):
            RunPlan(n_accesses=0)
        with pytest.raises(ValueError):
            RunPlan(warmup_instructions=-5)

    def test_cc_prob_constants(self):
        assert CC_PROBS_FULL == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert set(CC_PROBS_FAST) <= set(CC_PROBS_FULL)


class TestRunTraces:
    def test_runs_one_scheme(self):
        cfg = tiny_system()
        traces = build_mix_traces(get_mix("c5_0"), cfg.l2.num_sets, 2_000, 0)
        res = run_traces("l2p", cfg, traces, 20_000, 10_000)
        assert res.scheme == "l2p"
        assert len(res.ipc) == 4


class TestCcBest:
    def test_picks_best_throughput(self):
        cfg = tiny_system()
        plan = RunPlan(n_accesses=2_000, target_instructions=20_000,
                       warmup_instructions=0, cc_probs=(0.0, 1.0))
        combo = run_mix(get_mix("c5_0"), cfg, plan, schemes=("cc_best",))
        best, prob = combo.results["cc_best"], combo.cc_best_prob
        assert prob in (0.0, 1.0)
        assert best.scheme == "cc_best"
        # Verify it is indeed the max of the two.
        traces = build_mix_traces(get_mix("c5_0"), cfg.l2.num_sets, 2_000, 0)
        r0 = run_traces("cc", cfg, traces, 20_000, spill_probability=0.0)
        r1 = run_traces("cc", cfg, traces, 20_000, spill_probability=1.0)
        assert best.throughput == pytest.approx(max(r0.throughput, r1.throughput))


class TestRunCombo:
    def test_all_metrics_present(self):
        combo = run_mix(get_mix("c5_0"), tiny_system(), PLAN)
        assert set(combo.results) == {"l2p", "l2s", "cc_best", "dsr", "snug"}
        for scheme, metrics in combo.metrics.items():
            assert set(metrics) == {"throughput", "aws", "fs"}
        assert combo.metrics["l2p"]["throughput"] == pytest.approx(1.0)

    def test_baseline_always_included(self):
        combo = run_mix(get_mix("c5_0"), tiny_system(), PLAN, schemes=("snug",))
        assert "l2p" in combo.results
        assert "snug" in combo.results

    def test_cc_best_prob_recorded(self):
        combo = run_mix(get_mix("c5_0"), tiny_system(), PLAN, schemes=("cc_best",))
        assert combo.cc_best_prob in PLAN.cc_probs
