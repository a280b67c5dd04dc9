"""Synthetic workload generation with *controlled set-level capacity demand*.

This module is the substitution for SPEC CPU2000 reference traces (see the
workloads section of ``docs/architecture.md``).  A workload is described by
a :class:`WorkloadSpec`: one or more
:class:`Phase` s, each assigning every cache set a **working-set size**
``W_s`` drawn from weighted :class:`Band` s.  Within a set, accesses follow a
mixture of three per-set reference patterns whose LRU stack distances are
analytically known:

* **cyclic** over the ``W_s`` resident blocks — every reference has stack
  distance exactly ``W_s`` (the all-or-nothing LRU worst case, so a set with
  ``A < W_s <= 2A`` misses locally but hits in a doubled-capacity set: the
  sharp "taker" signature);
* **uniform-random** over the ``W_s`` blocks — stack distances spread over
  ``[1, W_s]``, giving smooth partial hit rates (capacity-hungry but not
  binary);
* **streaming** — a never-repeating tag sequence (compulsory misses only).

Because ``block_required(S, I)`` under LRU equals the deepest hit distance
(Section 2.1), the per-set demand measured by the paper's methodology is
``W_s`` for any mixture of the first two patterns — the generator dials in
set-level demand *by construction*, which is exactly the knob the paper's
observation is about.

The per-set demand map is drawn from a *profile-intrinsic* RNG (seeded by
the workload name), while the temporal interleaving uses the instance seed.
Co-scheduling four copies of one benchmark (the paper's C1/C2 stress tests)
therefore gives four caches with **identical set-level demand structure**
but independent access interleavings — the scenario in which only SNUG's
index-bit flipping can find complementary sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..common.errors import ConfigError
from ..common.rng import derive_seed
from .trace import Trace

__all__ = ["Band", "Phase", "WorkloadSpec", "draw_demand_map", "generate_trace"]

#: Base tag for streaming (never-reused) blocks; loop tags live in [0, W_s).
_STREAM_TAG_BASE = 1 << 20

#: Namespace seed for profile-intrinsic randomness (demand maps).
_PROFILE_SEED_NS = 0x534E5547  # "SNUG"


@dataclass(frozen=True)
class Band:
    """A weighted range of per-set working-set sizes (in blocks)."""

    weight: float
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ConfigError("band weight must be non-negative")
        if not 1 <= self.lo <= self.hi:
            raise ConfigError(f"invalid band range [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Phase:
    """One program phase: a demand map recipe plus pattern mixture knobs.

    Attributes
    ----------
    bands:
        Weighted working-set-size bands; weights are normalized.
    duration:
        Relative length of this phase within the workload.
    stream_frac:
        Fraction of accesses that stream (never reuse).
    random_frac:
        Fraction of accesses that touch a uniform-random block of the
        set's working set.  The remainder (``1 - stream - random``) walks
        the working set cyclically.
    """

    bands: Tuple[Band, ...]
    duration: float = 1.0
    stream_frac: float = 0.0
    random_frac: float = 0.5

    def __post_init__(self) -> None:
        if not self.bands:
            raise ConfigError("a phase needs at least one band")
        if self.duration <= 0:
            raise ConfigError("phase duration must be positive")
        if self.stream_frac < 0 or self.random_frac < 0:
            raise ConfigError("pattern fractions must be non-negative")
        if self.stream_frac + self.random_frac > 1.0 + 1e-9:
            raise ConfigError("stream_frac + random_frac must be <= 1")
        total = sum(b.weight for b in self.bands)
        if total <= 0:
            raise ConfigError("band weights must sum to a positive value")


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete synthetic benchmark model."""

    name: str
    phases: Tuple[Phase, ...]
    write_fraction: float = 0.25
    mean_gap: float = 30.0
    app_class: str = "?"
    #: Free-form notes (which SPEC2000 behaviour this models).
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigError("a workload needs at least one phase")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError("write fraction must be in [0, 1]")
        if self.mean_gap < 1.0:
            raise ConfigError("mean gap must be >= 1 instruction")

    def demand_seed(self) -> int:
        """Profile-intrinsic seed: identical across co-scheduled instances."""
        return derive_seed(_PROFILE_SEED_NS, self.name, "demand")

    def mean_demand(self, num_sets: int) -> float:
        """Expected per-set working-set size, duration-weighted over phases."""
        total_dur = sum(p.duration for p in self.phases)
        acc = 0.0
        for phase in self.phases:
            wsum = sum(b.weight for b in phase.bands)
            mean = sum(b.weight * (b.lo + b.hi) / 2.0 for b in phase.bands) / wsum
            acc += mean * (phase.duration / total_dur)
        return acc

    def footprint_bytes(self, num_sets: int, line_bytes: int = 64) -> float:
        """Approximate resident footprint (loop working sets only)."""
        return self.mean_demand(num_sets) * num_sets * line_bytes


def draw_demand_map(bands: Tuple[Band, ...], num_sets: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``W_s`` for every set from the weighted *bands*.

    Sets are assigned bands i.i.d., so adjacent sets (``s`` and ``s ^ 1``)
    get independent draws — the source of the flippable giver/taker
    complementarity SNUG exploits in stress tests.
    """
    weights = np.array([b.weight for b in bands], dtype=float)
    weights /= weights.sum()
    choice = rng.choice(len(bands), size=num_sets, p=weights)
    w = np.empty(num_sets, dtype=np.int64)
    for i, band in enumerate(bands):
        mask = choice == i
        w[mask] = rng.integers(band.lo, band.hi + 1, size=int(mask.sum()))
    return w


def _set_ranks(sets: np.ndarray, num_sets: int) -> np.ndarray:
    """Each access's rank among the earlier accesses to the same set.

    A stable sort groups the accesses by set while keeping trace order
    within each group, so an access's rank is its distance from the start
    of its group.
    """
    order = np.argsort(sets, kind="stable")
    counts = np.bincount(sets, minlength=num_sets)
    group_start = np.cumsum(counts) - counts
    ranks = np.empty_like(sets)
    ranks[order] = np.arange(len(sets)) - group_start[sets[order]]
    return ranks


def _trace_fill_numpy(
    sets: np.ndarray,
    kind: np.ndarray,
    pick: np.ndarray,
    wmap: np.ndarray,
    stream_cut: float,
    cyclic_cut: float,
    stream_base: int,
    out: np.ndarray,
) -> None:
    """The NumPy step: :func:`repro.core._ckernel.trace_fill`'s signature
    and effect, for when the kernel library is not loaded.

    Each access's tag is a closed form of the draws.  Random accesses scale
    their pick by ``W_s`` and truncate.  A set's stream count and cyclic
    pointer each advance by one per access of their pattern to that set, so
    the access of rank ``n`` among the earlier same-set accesses of its
    pattern reads ``stream_base + n`` (stream) or ``n mod W_s`` (the cyclic
    walk over the working set).
    """
    num_sets = wmap.size
    stream = kind < stream_cut
    cyclic = kind >= cyclic_cut
    tags = (pick * wmap[sets]).astype(np.int64)
    tags[stream] = stream_base + _set_ranks(sets[stream], num_sets)
    cyc_sets = sets[cyclic]
    tags[cyclic] = _set_ranks(cyc_sets, num_sets) % wmap[cyc_sets]
    np.multiply(tags, num_sets, out=out)
    out += sets


def _generate_phase(
    phase: Phase,
    num_sets: int,
    n_accesses: int,
    demand_rng: np.random.Generator,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate the block-address stream for one phase.

    The draws come first, always in this order.  One step then turns them
    into addresses: the C step (:func:`repro.core._ckernel.trace_fill`, one
    pass with per-set counters) when the kernel library is loaded, otherwise
    :func:`_trace_fill_numpy`.
    """
    wmap = draw_demand_map(phase.bands, num_sets, demand_rng)
    sets = rng.integers(0, num_sets, size=n_accesses)
    kind = rng.random(n_accesses)
    rand_pick = rng.random(n_accesses)
    # Imported here: repro.core imports this package (TraceCore's traces).
    from ..core import _ckernel

    if _ckernel.lib_available():
        step = _ckernel.trace_fill
    else:
        from ..core.compiled import fallback_notice

        fallback_notice(
            f"C kernel unavailable ({_ckernel.reason()})",
            source="repro.workloads",
            fallback="the NumPy step",
        )
        step = _trace_fill_numpy
    addrs = np.empty(n_accesses, dtype=np.int64)
    step(sets, kind, rand_pick, wmap, phase.stream_frac,
         phase.stream_frac + phase.random_frac, _STREAM_TAG_BASE, addrs)
    return addrs


def generate_trace(
    spec: WorkloadSpec,
    num_sets: int,
    n_accesses: int,
    seed: int = 0,
) -> Trace:
    """Generate an L2 access trace realizing *spec* on a *num_sets* cache.

    Parameters
    ----------
    spec:
        The workload model.
    num_sets:
        Number of L2 sets of the *baseline* cache the demand is calibrated
        against (the paper uses 1024).
    n_accesses:
        Trace length in L2 accesses.
    seed:
        Instance seed: controls interleaving, gaps and write placement but
        *not* the per-set demand structure (see module docstring).
    """
    if n_accesses < 1:
        raise ConfigError("n_accesses must be >= 1")
    demand_rng = np.random.default_rng(spec.demand_seed())
    rng = np.random.default_rng(derive_seed(seed, spec.name, "stream"))

    total_dur = sum(p.duration for p in spec.phases)
    chunks = []
    remaining = n_accesses
    for pi, phase in enumerate(spec.phases):
        if pi == len(spec.phases) - 1:
            n_phase = remaining
        else:
            n_phase = int(round(n_accesses * phase.duration / total_dur))
            n_phase = min(n_phase, remaining)
        if n_phase <= 0:
            continue
        remaining -= n_phase
        chunks.append(_generate_phase(phase, num_sets, n_phase, demand_rng, rng))
    addrs = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]

    gaps = 1 + rng.poisson(max(spec.mean_gap - 1.0, 0.0), size=len(addrs))
    writes = rng.random(len(addrs)) < spec.write_fraction
    return Trace(gaps=gaps, addrs=addrs, writes=writes, name=spec.name)
