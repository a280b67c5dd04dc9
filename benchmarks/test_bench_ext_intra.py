"""Bench EXT-INTRA: the paper's future-work extension (Section 7).

Compares published SNUG (inter-cache only) against SNUG-Intra (local
flipped-set grouping first) on a C1 stress mix, where intra-cache
taker/giver adjacency is plentiful and every avoided bus round-trip saves
30 cycles per reuse (local 10 vs remote 40).
"""

import pytest

from repro.analysis.report import render_table
from repro.experiments.runner import run_traces
from repro.workloads.mixes import build_mix_traces, get_mix


@pytest.mark.benchmark(group="extensions")
def test_extension_intra_cache_grouping(benchmark, scale):
    cfg = scale.config
    plan = scale.plan
    traces = build_mix_traces(get_mix("c1_0"), cfg.l2.num_sets, plan.n_accesses,
                              plan.seed)

    def run_all():
        out = {}
        for name in ("l2p", "snug", "snug_intra"):
            out[name] = run_traces(name, cfg, traces, plan.target_instructions,
                                   plan.warmup_instructions)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    base = results["l2p"].throughput
    rows = [[name, results[name].throughput / base] for name in ("snug", "snug_intra")]
    intra = sum(v for k, v in results["snug_intra"].stats.items()
                if k.endswith("spills_intra"))
    print("\n" + render_table(
        ["scheme", "throughput vs L2P"],
        rows,
        title="Future-work extension: intra-cache grouping (C1 stress)",
    ))
    print(f"intra-cache spills (bus-free): {intra}")

    snug = results["snug"].throughput / base
    snug_intra = results["snug_intra"].throughput / base
    assert snug_intra >= snug - 0.01  # never materially worse
    assert intra > 0  # the extension actually fires
