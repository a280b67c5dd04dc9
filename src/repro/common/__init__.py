"""Shared utilities: bit math, RNG streams, configuration, statistics."""

from .bitops import align_down, align_up, extract_bits, flip_bit, is_pow2, log2_exact, mask
from .config import (
    BusConfig,
    CacheGeometry,
    CcConfig,
    DramConfig,
    DsrConfig,
    LatencyConfig,
    SnugConfig,
    SystemConfig,
    WriteBufferConfig,
    fast_config,
    paper_config,
    scaled_config,
    tiny_config,
)
from .errors import ConfigError, ReproError, SimulationError, TraceError, WorkloadError
from .rng import RngFactory, derive_seed
from .stats import StatGroup

__all__ = [
    "align_down",
    "align_up",
    "extract_bits",
    "flip_bit",
    "is_pow2",
    "log2_exact",
    "mask",
    "BusConfig",
    "CacheGeometry",
    "CcConfig",
    "DramConfig",
    "DsrConfig",
    "LatencyConfig",
    "SnugConfig",
    "SystemConfig",
    "WriteBufferConfig",
    "fast_config",
    "paper_config",
    "scaled_config",
    "tiny_config",
    "ConfigError",
    "ReproError",
    "SimulationError",
    "TraceError",
    "WorkloadError",
    "RngFactory",
    "derive_seed",
    "StatGroup",
]
