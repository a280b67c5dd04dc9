"""Configuration dataclasses for the whole simulated system.

The classes here encode Table 4 of the paper (the PolyScalar configuration)
plus every knob the five L2 schemes need.  Two presets are provided:

* :func:`paper_config` — the exact published parameters (1 MB 16-way private
  L2 slices with 1024 sets, 5 M / 100 M-cycle SNUG epochs, 300-cycle DRAM).
* :func:`fast_config` — a proportionally scaled-down system for laptop-speed
  test/bench runs (fewer sets, shorter epochs).  Scaling preserves the
  *ratios* that drive the paper's behaviour: epoch lengths vs. program phase
  length, shadow associativity == real associativity, ``A_threshold ==
  2 * A_baseline``.

All dataclasses are frozen: a config is validated once in ``__post_init__``
and can then be shared freely between components and threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Mapping

from .bitops import is_pow2, log2_exact
from .errors import ConfigError

__all__ = [
    "CacheGeometry",
    "LatencyConfig",
    "BusConfig",
    "DramConfig",
    "WriteBufferConfig",
    "CcConfig",
    "DsrConfig",
    "SnugConfig",
    "SystemConfig",
    "paper_config",
    "fast_config",
    "tiny_config",
    "scaled_config",
    "config_from_env",
    "SCALE_NAMES",
]


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one L2 cache slice.

    Attributes
    ----------
    size_bytes:
        Total data capacity of the slice in bytes.
    assoc:
        Set associativity (``A_baseline`` in the paper).
    line_bytes:
        Cache-line size in bytes (64 in Table 4).
    """

    size_bytes: int = 1 << 20
    assoc: int = 16
    line_bytes: int = 64

    def __post_init__(self) -> None:
        for name in ("size_bytes", "assoc", "line_bytes"):
            value = getattr(self, name)
            if not is_pow2(value):
                raise ConfigError(f"CacheGeometry.{name} must be a power of two, got {value}")
        if self.size_bytes < self.assoc * self.line_bytes:
            raise ConfigError(
                "cache smaller than one set: "
                f"size={self.size_bytes} assoc={self.assoc} line={self.line_bytes}"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets (``N`` in the paper's notation)."""
        return self.size_bytes // (self.assoc * self.line_bytes)

    @property
    def index_bits(self) -> int:
        """Width of the set-index field of a block address."""
        return log2_exact(self.num_sets, what="num_sets")

    @property
    def offset_bits(self) -> int:
        """Width of the intra-line offset field of a byte address."""
        return log2_exact(self.line_bytes, what="line_bytes")

    @property
    def num_lines(self) -> int:
        """Total number of cache lines in the slice."""
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class LatencyConfig:
    """Fixed access latencies in core cycles (Table 4 / Section 4.1)."""

    l1_hit: int = 1
    l2_local: int = 10
    l2_remote: int = 30
    l2_remote_snug: int = 40  # +10 for the G/T vector lookup (Section 4.1)
    dram: int = 300

    def __post_init__(self) -> None:
        for name in ("l1_hit", "l2_local", "l2_remote", "l2_remote_snug", "dram"):
            if getattr(self, name) < 0:
                raise ConfigError(f"LatencyConfig.{name} must be non-negative")
        if self.l2_remote < self.l2_local:
            raise ConfigError("remote L2 latency must be >= local L2 latency")


@dataclass(frozen=True)
class BusConfig:
    """Split-transaction snoop bus (Table 4).

    ``width_bytes=16`` with ``speed_ratio=4`` means a 64-byte line transfer
    occupies ``64/16 * 4 = 16`` core cycles of bus bandwidth, plus one bus
    cycle (= ``speed_ratio`` core cycles) of arbitration.
    """

    width_bytes: int = 16
    speed_ratio: int = 4
    arbitration_cycles: int = 1  # in *bus* cycles
    model_contention: bool = False

    def __post_init__(self) -> None:
        if not is_pow2(self.width_bytes):
            raise ConfigError("bus width must be a power of two")
        if self.speed_ratio < 1:
            raise ConfigError("bus speed ratio must be >= 1")
        if self.arbitration_cycles < 0:
            raise ConfigError("arbitration cycles must be non-negative")

    def transfer_cycles(self, nbytes: int) -> int:
        """Core cycles of bus occupancy to move *nbytes* (plus arbitration)."""
        beats = -(-nbytes // self.width_bytes)  # ceil division
        return (beats + self.arbitration_cycles) * self.speed_ratio


@dataclass(frozen=True)
class DramConfig:
    """DRAM model: fixed latency with an optional bank-conflict extension."""

    latency: int = 300
    num_banks: int = 8
    bank_busy_cycles: int = 40
    model_banks: bool = False

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise ConfigError("DRAM latency must be positive")
        if not is_pow2(self.num_banks):
            raise ConfigError("DRAM bank count must be a power of two")
        if self.bank_busy_cycles < 0:
            raise ConfigError("bank busy time must be non-negative")


@dataclass(frozen=True)
class WriteBufferConfig:
    """L2 write-back buffer (Table 4): FIFO, mergeable, direct-read."""

    entries: int = 16
    entry_bytes: int = 64
    direct_read: bool = True
    drain_cycles: int = 300  # time for one entry to retire to DRAM

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ConfigError("write buffer needs at least one entry")
        if not is_pow2(self.entry_bytes):
            raise ConfigError("write buffer entry size must be a power of two")
        if self.drain_cycles < 1:
            raise ConfigError("drain time must be positive")


@dataclass(frozen=True)
class CcConfig:
    """Cooperative Caching (Chang & Sohi) parameters.

    ``spill_probability`` is the probability that a clean locally-owned
    victim is spilled to a peer; CC(Best) in the paper picks the best of
    {0, 0.25, 0.5, 0.75, 1.0} per workload.
    """

    spill_probability: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.spill_probability <= 1.0:
            raise ConfigError("spill probability must be in [0, 1]")


@dataclass(frozen=True)
class DsrConfig:
    """Dynamic Spill-Receive (Qureshi, HPCA'09) set-dueling parameters."""

    leader_sets_per_policy: int = 16
    psel_bits: int = 10

    def __post_init__(self) -> None:
        if self.leader_sets_per_policy < 1:
            raise ConfigError("need at least one leader set per policy")
        if not 1 <= self.psel_bits <= 31:
            raise ConfigError("psel_bits must be in [1, 31]")


@dataclass(frozen=True)
class SnugConfig:
    """SNUG parameters (Section 3).

    Attributes
    ----------
    counter_bits:
        ``k`` — width of the per-set saturating counter (4 in Table 2).
    p_threshold:
        ``p`` — the counter is decremented after every ``p`` hits on the
        real+shadow pair; MSB==1 then means doubling the set's capacity
        buys >= 1/p extra hit rate.
    identify_cycles:
        Stage I length (5 M cycles in the paper).
    group_cycles:
        Stage II length (100 M cycles in the paper).
    flip_enabled:
        Enables the index-bit flipping grouping scheme; disabling it
        restricts grouping to same-index peers (used by the ablation bench).
    flush_on_flip_to_taker:
        Invalidate hosted cooperative blocks when their set flips
        giver->taker at an epoch boundary (see "Epoch boundary hygiene" in
        :mod:`repro.schemes.snug`).
    monitor_during_group:
        Keep the demand monitors sampling during Stage II as well (G/T bits
        still latch only at Stage I boundaries).  The paper samples only in
        Stage I, but its 5 M-cycle Stage I gives every one of 1024 sets on
        the order of a hundred samples; scaled-down systems need Stage II
        samples to reach comparable per-set confidence.  Disable to model
        the paper's letter exactly (see the epoch ablation bench).
    """

    counter_bits: int = 4
    p_threshold: int = 8
    identify_cycles: int = 5_000_000
    group_cycles: int = 100_000_000
    flip_enabled: bool = True
    flush_on_flip_to_taker: bool = True
    monitor_during_group: bool = True

    def __post_init__(self) -> None:
        if not 2 <= self.counter_bits <= 16:
            raise ConfigError("counter_bits must be in [2, 16]")
        if not is_pow2(self.p_threshold):
            raise ConfigError("p_threshold must be a power of two")
        if self.identify_cycles < 1 or self.group_cycles < 1:
            raise ConfigError("epoch lengths must be positive")

    @property
    def counter_init(self) -> int:
        """Initial counter value ``2^(k-1) - 1`` (all bits below MSB set)."""
        return (1 << (self.counter_bits - 1)) - 1

    @property
    def counter_max(self) -> int:
        return (1 << self.counter_bits) - 1


@dataclass(frozen=True)
class SystemConfig:
    """Complete configuration of the simulated quad-core CMP."""

    num_cores: int = 4
    l2: CacheGeometry = field(default_factory=CacheGeometry)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    write_buffer: WriteBufferConfig = field(default_factory=WriteBufferConfig)
    cc: CcConfig = field(default_factory=CcConfig)
    dsr: DsrConfig = field(default_factory=DsrConfig)
    snug: SnugConfig = field(default_factory=SnugConfig)
    address_bits: int = 32
    base_cpi: float = 1.0
    seed: int = 12345

    def __post_init__(self) -> None:
        if not is_pow2(self.num_cores):
            raise ConfigError("core count must be a power of two (bank interleaving)")
        if self.num_cores < 1:
            raise ConfigError("need at least one core")
        if self.address_bits < self.l2.index_bits + self.l2.offset_bits + 1:
            raise ConfigError("address too narrow for the cache geometry")
        if self.base_cpi <= 0:
            raise ConfigError("base CPI must be positive")
        if self.dsr.leader_sets_per_policy * 2 > self.l2.num_sets:
            raise ConfigError("DSR leader sets exceed the number of cache sets")

    @property
    def a_threshold(self) -> int:
        """``A_threshold = 2 * A_baseline`` (Section 2.2)."""
        return 2 * self.l2.assoc

    def with_(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given top-level fields replaced."""
        return replace(self, **kwargs)


def paper_config(seed: int = 12345) -> SystemConfig:
    """The exact Table 4 configuration (quad-core, 1 MB 16-way slices)."""
    return SystemConfig(seed=seed)


def fast_config(seed: int = 12345) -> SystemConfig:
    """Laptop-scale system: 64 KB slices (64 sets) and ~50x shorter epochs.

    The scheme-relevant ratios of the paper are preserved:

    * shadow associativity == real associativity (16),
    * ``A_threshold == 2 * assoc == 32``,
    * Stage I short relative to Stage II (1:10 here vs the paper's 1:20 —
      scaled-down runs need at least one re-identification to occur), while
      still long enough to give each set's monitor tens of samples.
    """
    return SystemConfig(
        l2=CacheGeometry(size_bytes=64 << 10, assoc=16, line_bytes=64),
        snug=SnugConfig(identify_cycles=150_000, group_cycles=1_500_000),
        dsr=DsrConfig(leader_sets_per_policy=8),
        seed=seed,
    )


def tiny_config(seed: int = 12345) -> SystemConfig:
    """Minimal geometry for unit tests: 16 sets, 4-way, short epochs."""
    return SystemConfig(
        l2=CacheGeometry(size_bytes=4 << 10, assoc=4, line_bytes=64),
        snug=SnugConfig(identify_cycles=30_000, group_cycles=300_000),
        dsr=DsrConfig(leader_sets_per_policy=2),
        seed=seed,
    )


#: Named scales accepted by :func:`scaled_config` and the benches.
SCALE_NAMES = ("tiny", "small", "medium", "paper")


def scaled_config(scale: str = "small", seed: int = 12345) -> SystemConfig:
    """Return a preset by name: ``tiny`` | ``small`` | ``medium`` | ``paper``."""
    presets: Mapping[str, SystemConfig] = {
        "tiny": tiny_config(seed),
        "small": fast_config(seed),
        "medium": SystemConfig(
            l2=CacheGeometry(size_bytes=256 << 10, assoc=16, line_bytes=64),
            snug=SnugConfig(identify_cycles=500_000, group_cycles=5_000_000),
            dsr=DsrConfig(leader_sets_per_policy=16),
            seed=seed,
        ),
        "paper": paper_config(seed),
    }
    try:
        return presets[scale]
    except KeyError:
        raise ConfigError(f"unknown scale {scale!r}; expected one of {SCALE_NAMES}") from None


def config_from_env(default: str = "small", seed: int = 12345) -> SystemConfig:
    """Build a config from the ``REPRO_SCALE`` environment variable."""
    return scaled_config(os.environ.get("REPRO_SCALE", default), seed=seed)
