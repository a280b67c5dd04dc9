"""Qualitative reproduction checks: the paper's headline *shapes*.

These run at the ``fast`` scale (64-set slices) with warmup, so they are the
slowest tests in the suite (~1 min total).  Each asserts an ordering or
regime the paper's evaluation hinges on, with slack for the synthetic
workload substitution (see EXPERIMENTS.md for the quantitative record).
"""

import pytest

from tests.helpers import run_mix

from repro import RunPlan, fast_config, get_mix

PLAN = RunPlan(
    n_accesses=25_000,
    target_instructions=350_000,
    warmup_instructions=350_000,
    cc_probs=(0.0, 1.0),
)


@pytest.fixture(scope="module")
def c1_result():
    return run_mix(get_mix("c1_0"), fast_config(), PLAN)


@pytest.fixture(scope="module")
def c2_result():
    return run_mix(get_mix("c2_0"), fast_config(), PLAN)


@pytest.fixture(scope="module")
def c5_result():
    return run_mix(get_mix("c5_0"), fast_config(), PLAN)


class TestC1StressTest:
    """C1 (4 x ammp): only set-level grouping can share capacity."""

    def test_snug_gains_substantially(self, c1_result):
        assert c1_result.metrics["snug"]["throughput"] > 1.10

    def test_snug_beats_every_other_scheme(self, c1_result):
        snug = c1_result.metrics["snug"]["throughput"]
        for other in ("l2s", "cc_best", "dsr"):
            assert snug > c1_result.metrics[other]["throughput"], other

    def test_l2s_loses_in_stress(self, c1_result):
        """Identical hungry programs gain nothing from interleaving but pay
        the NUCA remote latency (paper Fig. 9, C1/C2 < 1)."""
        assert c1_result.metrics["l2s"]["throughput"] < 1.0


class TestC2StressTest:
    """C2 (4 x vpr, uniformly hungry): nothing to share — all schemes ~ L2P."""

    def test_all_schemes_near_baseline(self, c2_result):
        for scheme in ("cc_best", "dsr", "snug"):
            assert 0.95 < c2_result.metrics[scheme]["throughput"] < 1.05, scheme

    def test_snug_degrades_at_most_marginally(self, c2_result):
        assert c2_result.metrics["snug"]["throughput"] > 0.97


class TestC5Mix:
    """C5 (2 class A + 2 class D): classic takers + donors."""

    def test_cooperation_beats_baseline(self, c5_result):
        for scheme in ("cc_best", "dsr", "snug"):
            assert c5_result.metrics[scheme]["throughput"] > 1.03, scheme

    def test_snug_competitive_with_best(self, c5_result):
        snug = c5_result.metrics["snug"]["throughput"]
        best = max(
            c5_result.metrics[s]["throughput"] for s in ("l2s", "cc_best", "dsr")
        )
        assert snug > best - 0.02

    def test_givers_not_crushed(self, c5_result):
        """Fair speedup stays positive: donors keep acceptable performance."""
        assert c5_result.metrics["snug"]["fs"] > 1.0
