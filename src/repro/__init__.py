"""repro — a full reproduction of *"Exploiting Set-Level Non-Uniformity of
Capacity Demand to Enhance CMP Cooperative Caching"* (Zhan, Jiang, Seth).

The package provides:

* :mod:`repro.cache` / :mod:`repro.mem` / :mod:`repro.interconnect` — the
  CMP memory-hierarchy substrate (LRU caches, shadow tag arrays, saturating
  counters, write-back buffers, snoop bus, DRAM);
* :mod:`repro.schemes` — the five evaluated L2 organizations: L2P, L2S,
  CC, DSR and **SNUG** (the paper's contribution);
* :mod:`repro.core` — trace-driven timing cores and the CMP event loop;
* :mod:`repro.workloads` — synthetic SPEC CPU2000 workload models with
  controlled set-level capacity demand, and the Table 8 mixes;
* :mod:`repro.analysis` — Section 2's demand characterization, Table 5's
  metrics and the Section 3.4 overhead model;
* :mod:`repro.experiments` — drivers regenerating every figure and table;
* :mod:`repro.scenario` — the declarative front door: one validated,
  content-hashed :class:`~repro.scenario.model.Scenario` contract (YAML/
  JSON) describing system + workload + schemes + run plan, with bundled
  presets and grid expansion.

Quickstart::

    from repro import Scenario, SystemSpec, run_scenario
    from repro.scenario import WorkloadSpec

    scenario = Scenario(
        name="quick",
        system=SystemSpec(scale="small", seed=7),
        workload=WorkloadSpec(mixes=("c3_0",)),
    )
    [combo] = run_scenario(scenario)
    print(combo.metrics["snug"]["throughput"])   # vs the L2P baseline

or, equivalently, from a file: ``repro scenario run smoke-tiny``.
"""

from .analysis import (
    SnugOverheadModel,
    average_weighted_speedup,
    characterize_trace,
    fair_speedup,
    geometric_mean,
    normalized_throughput,
    throughput,
)
from .common import (
    CacheGeometry,
    ConfigError,
    ReproError,
    RngFactory,
    SnugConfig,
    SystemConfig,
    fast_config,
    paper_config,
    scaled_config,
    tiny_config,
)
from .core import CmpSystem, SimResult, TraceCore
from .scenario import (
    EngineOptions,
    Scenario,
    ScenarioGrid,
    SystemSpec,
    load_scenario_file,
    run_scenario,
    scenario_from_flags,
)
from .experiments import (
    ComboResult,
    RunPlan,
    figure_distribution,
    run_traces,
    survey_26,
)
from .schemes import (
    CooperativeCaching,
    DynamicSpillReceive,
    PrivateL2,
    SharedL2,
    SnugCache,
    make_scheme,
    scheme_names,
)
from .workloads import (
    MIXES,
    Trace,
    WorkloadMix,
    WorkloadSpec,
    benchmark_names,
    build_mix_traces,
    generate_trace,
    get_mix,
    get_profile,
    make_benchmark_trace,
)

__version__ = "1.0.0"

__all__ = [
    "SnugOverheadModel",
    "average_weighted_speedup",
    "characterize_trace",
    "fair_speedup",
    "geometric_mean",
    "normalized_throughput",
    "throughput",
    "CacheGeometry",
    "ConfigError",
    "ReproError",
    "RngFactory",
    "SnugConfig",
    "SystemConfig",
    "fast_config",
    "paper_config",
    "scaled_config",
    "tiny_config",
    "CmpSystem",
    "SimResult",
    "TraceCore",
    "EngineOptions",
    "Scenario",
    "ScenarioGrid",
    "SystemSpec",
    "load_scenario_file",
    "run_scenario",
    "scenario_from_flags",
    "ComboResult",
    "RunPlan",
    "figure_distribution",
    "run_traces",
    "survey_26",
    "CooperativeCaching",
    "DynamicSpillReceive",
    "PrivateL2",
    "SharedL2",
    "SnugCache",
    "make_scheme",
    "scheme_names",
    "MIXES",
    "Trace",
    "WorkloadMix",
    "WorkloadSpec",
    "benchmark_names",
    "build_mix_traces",
    "generate_trace",
    "get_mix",
    "get_profile",
    "make_benchmark_trace",
    "__version__",
]
