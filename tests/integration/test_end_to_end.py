"""End-to-end integration: full simulations through the public API."""

import pytest

from tests.helpers import run_mix

from repro import (
    RunPlan,
    fast_config,
    get_mix,
    run_traces,
    scheme_names,
    tiny_config,
)
from repro.workloads.mixes import build_mix_traces

PLAN = RunPlan(n_accesses=3_000, target_instructions=40_000, warmup_instructions=30_000)


class TestAllSchemesRun:
    @pytest.mark.parametrize("scheme", scheme_names())
    def test_scheme_completes(self, scheme):
        cfg = tiny_config()
        traces = build_mix_traces(get_mix("c4_0"), cfg.l2.num_sets, 2_000, 0)
        res = run_traces(scheme, cfg, traces, 25_000, 15_000)
        assert len(res.ipc) == 4
        assert all(x > 0 for x in res.ipc)
        assert sum(res.outcome_counts.values()) == sum(res.accesses)

    def test_determinism_across_runs(self):
        cfg = tiny_config()
        traces = build_mix_traces(get_mix("c3_0"), cfg.l2.num_sets, 2_000, 0)
        a = run_traces("snug", cfg, traces, 25_000, 10_000)
        b = run_traces("snug", cfg, traces, 25_000, 10_000)
        assert a.ipc == b.ipc
        assert a.stats == b.stats

    def test_seed_changes_results(self):
        cfg = tiny_config()
        t1 = build_mix_traces(get_mix("c3_0"), cfg.l2.num_sets, 2_000, 1)
        t2 = build_mix_traces(get_mix("c3_0"), cfg.l2.num_sets, 2_000, 2)
        a = run_traces("l2p", cfg, t1, 25_000)
        b = run_traces("l2p", cfg, t2, 25_000)
        assert a.ipc != b.ipc


class TestComboPipeline:
    def test_combo_metrics_sane(self):
        combo = run_mix(get_mix("c5_0"), tiny_config(), PLAN)
        for scheme, metrics in combo.metrics.items():
            for value in metrics.values():
                assert 0.3 < value < 3.0, (scheme, metrics)

    def test_every_mix_class_runs(self):
        from repro.workloads.mixes import mixes_in_class

        for cls in ("C1", "C2", "C3", "C4", "C5", "C6"):
            mix = mixes_in_class(cls)[0]
            combo = run_mix(mix, tiny_config(), PLAN, schemes=("snug",))
            assert "snug" in combo.metrics


class TestCrossSchemeSanity:
    def test_l2s_beats_l2p_for_single_hungry_program(self):
        """One capacity-hungry program + three idle-ish ones: the shared LLC
        gives the hungry one 4x capacity."""
        cfg = fast_config()
        mixes = build_mix_traces(get_mix("c5_0"), cfg.l2.num_sets, 6_000, 0)
        l2p = run_traces("l2p", cfg, mixes, 80_000, 60_000)
        l2s = run_traces("l2s", cfg, mixes, 80_000, 60_000)
        # ammp (core 0) must gain from the aggregate capacity.
        assert l2s.ipc[0] > l2p.ipc[0]

    def test_cc_spill_zero_equals_l2p(self):
        """CC with spill probability 0 degenerates to the private baseline."""
        cfg = tiny_config()
        traces = build_mix_traces(get_mix("c4_0"), cfg.l2.num_sets, 2_500, 0)
        l2p = run_traces("l2p", cfg, traces, 30_000, 10_000)
        cc0 = run_traces("cc", cfg, traces, 30_000, 10_000, spill_probability=0.0)
        assert l2p.ipc == cc0.ipc

    def test_snug_epochs_advance(self):
        cfg = tiny_config()
        traces = build_mix_traces(get_mix("c1_0"), cfg.l2.num_sets, 3_000, 0)
        res = run_traces("snug", cfg, traces, 60_000, 30_000)
        assert res.stats.get("epochs", 0) >= 1
