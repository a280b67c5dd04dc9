#!/usr/bin/env python3
"""Author a custom workload model and see how SNUG reacts to it.

The synthetic workload substrate is not limited to the bundled SPEC2000
models: a :class:`~repro.workloads.synthetic.WorkloadSpec` lets you dial in
any set-level demand structure.  This example builds a deliberately
checkerboarded program — even sets starving, odd sets idle — which is the
*perfect* case for SNUG's index-bit flipping (every taker set's flip
neighbour is a giver) and a hopeless case for application-level DSR, then
co-schedules four copies of it (a C1-style stress test).

Run:  python examples/custom_workload.py
"""

import numpy as np

from repro import RunPlan, fast_config, run_traces
from repro.analysis.report import render_table
from repro.workloads.synthetic import Band, Phase, WorkloadSpec, generate_trace


def checkerboard_trace(num_sets: int, n_accesses: int, seed: int):
    """Even sets cycle 24 blocks (takers); odd sets cycle 2 (givers).

    Built from a generated uniform-taker trace by remapping odd sets' tags
    down to a 2-block working set — demonstrating trace post-processing as
    an alternative to authoring multi-band specs.
    """
    spec = WorkloadSpec(
        name="checker",
        phases=(Phase(bands=(Band(1.0, 24, 24),), random_frac=0.3),),
        write_fraction=0.2,
        mean_gap=20.0,
    )
    trace = generate_trace(spec, num_sets, n_accesses, seed=seed)
    addrs = trace.addrs.copy()
    sets = addrs % num_sets
    tags = addrs // num_sets
    odd = (sets % 2) == 1
    tags[odd] = tags[odd] % 2  # shrink odd sets' working set to 2 blocks
    return trace.__class__(trace.gaps, tags * num_sets + sets, trace.writes, name="checker")


def main() -> None:
    config = fast_config(seed=3)
    plan = RunPlan(n_accesses=25_000, target_instructions=300_000,
                   warmup_instructions=300_000)
    traces = [
        checkerboard_trace(config.l2.num_sets, plan.n_accesses, seed=s).rebase(s)
        for s in range(config.num_cores)
    ]

    rows = []
    baseline = None
    for name in ("l2p", "dsr", "snug"):
        res = run_traces(name, config, traces, plan.target_instructions,
                         plan.warmup_instructions)
        if baseline is None:
            baseline = res.throughput
        rows.append([name, res.throughput / baseline])
        if name == "snug":
            flipped = sum(v for k, v in res.stats.items()
                          if k.endswith("spills_hosted_flipped"))
            hosted = sum(v for k, v in res.stats.items()
                         if k.endswith("spills_hosted"))
            print(f"SNUG hosted {hosted} spills, {flipped} of them via the "
                  f"flipped index ({flipped / max(hosted, 1):.0%}).")

    print()
    print(render_table(
        ["scheme", "throughput vs L2P"],
        rows,
        title="Checkerboard stress test: 4 identical copies, alternating "
              "taker/giver sets",
    ))
    print("\nDSR sees four identical applications (nothing to trade at the")
    print("application level); SNUG pairs every starving even set with its")
    print("idle odd neighbour via the f bit.")


if __name__ == "__main__":
    main()
