"""Integration tests for the experiment drivers (Figures 1-3, 9-11, survey)."""

from dataclasses import replace

import numpy as np
import pytest

from repro import RunPlan, scaled_config, tiny_config
from repro.analysis.metrics import geometric_mean, normalized_throughput
from repro.engine import ParallelRunner
from repro.experiments.ablation import ablate_flipping, render_ablation
from repro.experiments.characterization import (
    figure_distribution,
    non_uniform_names,
    render_figure as render_char,
    render_survey,
    survey_26,
)
from repro.experiments.performance import (
    FigureData,
    figure_series,
    render_figure,
    select_mixes,
)
from repro.experiments.runner import run_traces
from repro.experiments.sensitivity import sweep_remote_latency, toggle_bus_contention
from repro.workloads.mixes import build_mix_traces, get_mix, mixes_in_class

PLAN = RunPlan(n_accesses=2_500, target_instructions=30_000, warmup_instructions=20_000)


class TestCharacterization:
    def test_fig1_ammp_low_bucket_share(self):
        """Fig. 1: a large share of ammp's sets need only 1-4 blocks."""
        dist = figure_distribution("ammp", num_sets=64, intervals=6,
                                   interval_accesses=1500)
        mean = dist.mean_sizes()
        assert mean[0] > 0.25  # bucket [1,4]
        assert mean[4:].sum() > 0.30  # deep buckets populated too

    def test_fig3_applu_all_low(self):
        """Fig. 3: applu sits almost entirely in the 1-4 bucket."""
        dist = figure_distribution("applu", num_sets=64, intervals=6,
                                   interval_accesses=1500)
        assert dist.mean_sizes()[0] > 0.95

    def test_fig2_vortex_phase_shift(self):
        """Fig. 2: vortex's middle phase has a different bucket mix."""
        dist = figure_distribution("vortex", num_sets=64, intervals=15,
                                   interval_accesses=1200)
        head = dist.sizes[:4].mean(axis=0)
        mid = dist.sizes[7:11].mean(axis=0)
        assert np.abs(head - mid).sum() > 0.02

    def test_render_figure_text(self):
        dist = figure_distribution("gzip", num_sets=32, intervals=3,
                                   interval_accesses=800)
        text = render_char(dist)
        assert "gzip" in text and "%" in text


class TestSurvey26:
    @pytest.fixture(scope="class")
    def rows(self):
        return survey_26(num_sets=64, intervals=8, interval_accesses=1200)

    def test_all_26_characterized(self, rows):
        assert len(rows) == 26

    def test_exactly_the_papers_seven(self, rows):
        """Section 2.3: ammp, apsi, galgel, gcc, parser, twolf, vortex."""
        assert non_uniform_names(rows) == [
            "ammp", "apsi", "galgel", "gcc", "parser", "twolf", "vortex",
        ]

    def test_render_survey(self, rows):
        text = render_survey(rows)
        assert "NON-UNIFORM" in text and "applu" in text


class TestPerformanceDrivers:
    @pytest.fixture(scope="class")
    def data(self):
        runner = ParallelRunner(tiny_config(), PLAN, schemes=("l2p", "dsr", "snug"),
                                jobs=0)
        return FigureData(combos=runner.run(select_mixes(("C1", "C5"), 1)))

    def test_series_shapes(self, data):
        labels, series = figure_series(data, "throughput")
        assert labels == ["C1", "C5", "AVG"]
        assert set(series) == {"dsr", "snug"}
        assert all(len(v) == 3 for v in series.values())

    def test_render_all_three_figures(self, data):
        for metric in ("throughput", "aws", "fs"):
            text = render_figure(data, metric)
            assert "AVG" in text

    def test_class_metric_geomean(self, data):
        v = data.class_metric("C1", "snug", "throughput")
        assert 0.5 < v < 2.0
        with pytest.raises(KeyError):
            data.class_metric("C9", "snug", "throughput")


class TestAblation:
    def test_flipping_ablation_runs(self):
        points = ablate_flipping(tiny_config(), PLAN, mix_class="C1", combos=1)
        assert [p.label for p in points] == ["flip=on", "flip=off"]
        text = render_ablation(points, "flip ablation")
        assert "flip=on" in text


class TestDriverValues:
    """The ablation and sensitivity drivers equal their recipe run by hand:
    per mix, L2P and the scheme on the same traces, the scheme's IPC
    normalized to L2P's, and (ablations) the geometric mean over mixes."""

    def test_ablation_and_sensitivity_match_hand_built_runs(self):
        config = scaled_config("tiny", seed=7)
        plan = RunPlan(n_accesses=4_000, target_instructions=60_000,
                       warmup_instructions=40_000)

        def vs_l2p(cfg, mix, scheme):
            traces = build_mix_traces(mix, cfg.l2.num_sets, plan.n_accesses, plan.seed)
            base = run_traces("l2p", cfg, traces, plan.target_instructions,
                              plan.warmup_instructions)
            res = run_traces(scheme, cfg, traces, plan.target_instructions,
                             plan.warmup_instructions)
            return normalized_throughput(res.ipc, base.ipc)

        c1 = mixes_in_class("C1")[:1]
        flips = [
            geometric_mean([
                vs_l2p(config.with_(snug=replace(config.snug, flip_enabled=flip)),
                       mix, "snug")
                for mix in c1
            ])
            for flip in (True, False)
        ]
        assert [p.throughput_vs_l2p for p in
                ablate_flipping(config, plan, mix_class="C1", combos=1)] == flips

        c5 = get_mix("c5_0")
        remote = [
            vs_l2p(config.with_(latency=replace(config.latency, l2_remote_snug=lat)),
                   c5, "snug")
            for lat in (20, 100)
        ]
        assert [p.throughput_vs_l2p for p in
                sweep_remote_latency(config, plan, latencies=(20, 100))] == remote

        bus = {
            scheme: {
                contention: vs_l2p(
                    config.with_(bus=replace(config.bus, model_contention=contention)),
                    c5, scheme,
                )
                for contention in (False, True)
            }
            for scheme in ("cc", "dsr", "snug")
        }
        assert toggle_bus_contention(config, plan) == bus
