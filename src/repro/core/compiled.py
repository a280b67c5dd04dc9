"""Compiled simulation core: the native kernel, with the spec as fallback.

:class:`CompiledCmpSystem` is the production system behind
``--sim-core auto``: a :class:`~repro.core.cmp.CmpSystem` whose ``run()``
hands the system itself — its scheme and its own
:class:`~repro.core.cpu.TraceCore` s — to the C kernel in
:mod:`repro.core._ckernel`: all mutable state (per-set LRU columns,
write-buffer rings, DRAM/bus occupancy, saturating counters, DSR duels,
SNUG stage/shadow/latch machinery, per-core cursors) is encoded into flat
arrays and stepped natively.  At the end everything but the cache lines
is merged back into the live objects at once; each cache builds its
lines from the kernel's arrays on the first read of its ``sets``
(:meth:`~repro.cache.cache.SetAssocCache.defer_sets`), so a run whose
lines nothing reads never builds them.  The kernel replicates the
spec's semantics term for term —
stat-counter *first-touch order* included, because ``SimResult.to_dict()``
round-trips through JSON where dict insertion order is part of
byte-identity.

This is the one place that decides which loop runs a system.  Each run
picks the kernel or :meth:`CmpSystem.run` (the executable spec itself,
on the same system) from what it can observe: the exact scheme type, the
core count, whether the library is available, and whether the caches
already hold state.  A system that has already run is refused before
that choice (:meth:`CmpSystem._refuse_second_run`), so a refused run
prints no notice.  Either way the run starts with
:meth:`CmpSystem._start_run` and ends with :meth:`CmpSystem._finish_run`.
Each distinct fallback reason is announced once per process on stderr
(by :func:`fallback_notice`, which also announces the streaming
profiler's fall to its Python step under ``repro.profiler:``)::

    repro.compiled: <reason>; using the reference loop (bit-identical)

The reasons are: no kernel library (``REPRO_NO_CKERNEL=1``, no C compiler,
or a failed build), more than 64 cores, a spill scheme on one core, trace
addresses that reach 2**54, caches that already hold state, and a scheme
without a kernel.  All six
registered schemes have a kernel.  Dispatch is keyed by *exact* scheme
type, so an out-of-tree subclass of a kernel scheme (whose ``access()``
the kernel has never seen) takes the reference loop.
"""

from __future__ import annotations

import sys

from ..schemes.cc import CooperativeCaching
from ..schemes.dsr import DynamicSpillReceive
from ..schemes.l2p import PrivateL2
from ..schemes.l2s import SharedL2
from ..schemes.snug import SnugCache
from ..schemes.snug_intra import SnugIntraCache
from . import _ckernel
from .cmp import CmpSystem, SimResult

__all__ = ["CompiledCmpSystem", "kernel_mode", "fallback_notice"]

#: Fallback notices already printed in this process.
_NOTICED: set = set()


def kernel_mode() -> str:
    """Which loop serves the kernel schemes: ``"compiled-c"`` when the
    native library is available, ``"reference"`` when it is not."""
    return "compiled-c" if _ckernel.lib_available() else "reference"


def fallback_notice(
    reason: str,
    *,
    source: str = "repro.compiled",
    fallback: str = "the reference loop",
) -> None:
    """One stderr line per distinct fallback per process:
    ``<source>: <reason>; using <fallback> (bit-identical)``."""
    line = f"{source}: {reason}; using {fallback} (bit-identical)"
    if line in _NOTICED:
        return
    _NOTICED.add(line)
    print(line, file=sys.stderr)


# -- dispatch ----------------------------------------------------------------

#: The schemes the kernel steps; a scheme's index here is the kernel's
#: ``kind``.  Dispatch compares exact types (not isinstance): a subclass
#: may change ``access()`` (SnugIntraCache does, over SnugCache, and has
#: its own kind), so an unlisted subclass falls through to the reference
#: loop.
_KERNEL_SCHEMES = (
    PrivateL2, SharedL2, CooperativeCaching, DynamicSpillReceive, SnugCache,
    SnugIntraCache,
)


def _named_entry(name, fn):
    """Wrap *fn* in a frame whose code object is named *name*.

    cProfile keys rows by code-object name; without the wrapper every
    scheme's kernel time shows up under one anonymous driver, so the
    execution-phase profile dump could not say which scheme's kernel the
    time went to.  The wrapper costs one Python call per *run*.
    """
    src = f"def {name}(*args, **kwargs):\n    return _fn(*args, **kwargs)\n"
    namespace = {"_fn": fn}
    code = compile(src, "<repro-compiled-core>", "exec")
    exec(code, namespace)
    return namespace[name]


def _make_impl(kind):
    def impl(system, target, warmup, max_events):
        return _ckernel.run_kernel(system, target, warmup, max_events, kind)
    return impl


_ENTRIES = tuple(
    _named_entry(f"compiled_kernel__{cls.name}", _make_impl(kind))
    for kind, cls in enumerate(_KERNEL_SCHEMES)
)


class CompiledCmpSystem(CmpSystem):
    """CMP system stepped by the native C kernel.

    Produces bit-identical :class:`SimResult`\\ s (the conformance suites
    assert term-for-term ``to_dict()`` equality against
    :meth:`CmpSystem.run`).  Systems the kernel declines run on that
    inherited loop, over the same cores, with a one-line notice naming the
    reason.
    """

    def run(
        self,
        target_instructions: int,
        *,
        warmup_instructions: int = 0,
        max_events: int | None = None,
    ) -> SimResult:
        # Before the dispatch: a warm scheme is a decline reason, and a
        # refused run must not print (or use up) its notice.
        self._refuse_second_run()
        scheme_type = type(self.scheme)
        if scheme_type in _KERNEL_SCHEMES:
            kind = _KERNEL_SCHEMES.index(scheme_type)
            reason = _ckernel.decline_reason(self, kind)
        else:
            reason = f"no kernel for scheme {self.scheme.name!r}"
        if reason is not None:
            fallback_notice(reason)
            return super().run(
                target_instructions,
                warmup_instructions=warmup_instructions,
                max_events=max_events,
            )
        return _ENTRIES[kind](
            self, target_instructions, warmup_instructions, max_events
        )
