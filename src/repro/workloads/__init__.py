"""Workload substrate: traces, synthetic generators, SPEC2000 models, mixes."""

from .mixes import MIXES, WorkloadMix, build_mix_traces, get_mix, mix_classes, mixes_in_class
from .spec2000 import (
    CLASS_A,
    CLASS_B,
    CLASS_C,
    CLASS_D,
    NON_UNIFORM_BENCHMARKS,
    PROFILES,
    benchmark_names,
    get_profile,
    make_benchmark_trace,
)
from .synthetic import Band, Phase, WorkloadSpec, draw_demand_map, generate_trace
from .trace import Trace
from .trace_cache import (
    TraceCache,
    benchmark_key,
    cached_mix_traces,
    mix_key,
    resolve_cache_root,
)

__all__ = [
    "MIXES",
    "WorkloadMix",
    "build_mix_traces",
    "get_mix",
    "mix_classes",
    "mixes_in_class",
    "CLASS_A",
    "CLASS_B",
    "CLASS_C",
    "CLASS_D",
    "NON_UNIFORM_BENCHMARKS",
    "PROFILES",
    "benchmark_names",
    "get_profile",
    "make_benchmark_trace",
    "Band",
    "Phase",
    "WorkloadSpec",
    "draw_demand_map",
    "generate_trace",
    "Trace",
    "TraceCache",
    "benchmark_key",
    "cached_mix_traces",
    "mix_key",
    "resolve_cache_root",
]
