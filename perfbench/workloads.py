"""The benchmark's workloads: which scenario each runs, and why it exists.

Each workload is one scenario run end to end through the production entry
point (``ScenarioExecution(scenario, EngineOptions(jobs=0, store=DIR))``),
the same path as ``repro scenario run ... --jobs 0 --store DIR``.  The three
are chosen so a different layer does most of the work in each, giving every
ROADMAP performance item one workload where its effect should show and one
where nothing should change (see ``README.md`` for the full map).

This module holds data only and imports nothing from ``repro`` at import
time, so the orchestrator can read it without paying for the package.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: The bundled presets' seed; the per-task digests in ``expected.json`` were
#: captured at this seed.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: A bundled preset name, loaded unchanged ...
    preset: Optional[str] = None
    #: ... or a scenario mapping in the ``repro scenario`` file schema.
    scenario: Optional[Dict[str, Any]] = None
    #: Serve traces from a disk trace cache filled before timing.
    trace_cache: bool = False
    #: Tasks re-simulated on the reference core at a non-default seed.
    check_sample: int = 1
    #: Schemes the reference sample is drawn from (``None``: any task).
    check_schemes: Optional[Tuple[str, ...]] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            # The ROADMAP's unit of performance, unchanged: Python marshaling,
            # trace generation and TraceCore build outweigh the kernel.
            name="fig9_small",
            preset="fig9-11-small",
            check_sample=3,
        ),
        Workload(
            # Paper geometry over wrapping traces served from a pre-filled
            # disk cache: the native kernel does about half the work and
            # trace generation none.
            name="kernel_paper",
            scenario={
                "scenario": 1,
                "name": "bench-kernel-paper",
                "system": {"scale": "paper", "seed": DEFAULT_SEED},
                # c1_0: four ammp copies with identical demand maps;
                # c4_0: a heterogeneous mix.
                "workload": {"mixes": ["c1_0", "c4_0"]},
                "schemes": ["l2p", "l2s", "cc_best", "dsr", "snug"],
                "plan": {
                    "n_accesses": 100_000,
                    "target_instructions": 10_000_000,
                    "warmup_instructions": 5_000_000,
                    "seed": DEFAULT_SEED,
                    "cc_probs": [0.0, 0.5, 1.0],
                    "snug_monitor": False,
                },
            },
            trace_cache=True,
            # A paper-scale task takes ~30 s on the reference core, so the
            # sample is one task of the cheapest scheme.  The other kernels
            # are reference-checked on fig9_small at every seed and digest-
            # checked here at the default seed.
            check_sample=1,
            check_schemes=("l2p",),
        ),
        Workload(
            # Monitored SNUG (interpreted SoA loop) and snug_intra (generic
            # CmpSystem loop) run the scheme code per access in Python, both
            # feeding the streaming profiler.
            name="python_loops",
            scenario={
                "scenario": 1,
                "name": "bench-python-loops",
                "system": {"scale": "small", "seed": DEFAULT_SEED},
                "workload": {"classes": ["C1"]},
                "schemes": ["l2p", "snug", "snug_intra"],
                "plan": {
                    "n_accesses": 25_000,
                    "target_instructions": 300_000,
                    "warmup_instructions": 300_000,
                    "seed": DEFAULT_SEED,
                    "snug_monitor": True,
                },
            },
            check_sample=2,
        ),
    )
}


def build_scenario(name: str, seed: int):
    """Load, validate and resolve workload *name*'s scenario at *seed*.

    The seed replaces ``system.seed`` and ``plan.seed`` and nothing else, so
    at :data:`DEFAULT_SEED` the preset-backed workload is the preset
    unchanged (same content hash).
    """
    from repro.scenario import Scenario, load_scenario_file

    workload = WORKLOADS[name]
    if workload.preset is not None:
        base = load_scenario_file(workload.preset)
    else:
        base = Scenario.from_dict(workload.scenario)
    # replace() re-runs the scenario's validation, which resolves (and
    # memoizes) the config and the mix list.
    return dataclasses.replace(
        base,
        system=dataclasses.replace(base.system, seed=seed),
        plan=dataclasses.replace(base.plan, seed=seed),
    )
