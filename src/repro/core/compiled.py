"""Compiled simulation core: the native kernel, with the fast loop as fallback.

:class:`CompiledCmpSystem` is the production system behind
``--sim-core auto``: a drop-in :class:`~repro.core.cmp.CmpSystem` whose
``run()`` hands the whole run to the C kernel in
:mod:`repro.core._ckernel`: all mutable state (per-set LRU columns,
write-buffer rings, DRAM/bus occupancy, saturating counters, DSR duels,
SNUG stage/shadow/latch machinery, per-core cursors) is encoded into flat
arrays, stepped natively, and merged back into the live objects once at
the end.  The kernel replicates the reference semantics term for term —
stat-counter *first-touch order* included, because ``SimResult.to_dict()``
round-trips through JSON where dict insertion order is part of
byte-identity.

This is the one place that decides which loop runs a system.  Each run
picks the kernel or :meth:`CmpSystem.run` (the fast Python loop,
bit-identical by the same contract) from what it can observe: the exact
scheme type, the core count, whether the library is available, and
whether the caches already hold state.  Each distinct fallback reason is
announced once per process on stderr::

    repro.compiled: <reason>; using the fast loop (bit-identical)

The reasons are: no kernel library (``REPRO_NO_CKERNEL=1``, no C compiler,
or a failed build), more than 64 cores, a spill scheme on one core,
caches that already hold state, and a scheme without a kernel.  All six
registered schemes have a kernel.  Dispatch is keyed by *exact* scheme
type, so an out-of-tree subclass of a kernel scheme (whose ``access()``
the kernel has never seen) takes the fast loop.
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

__all__ = ["CompiledCmpSystem", "kernel_mode"]

#: Fallback reasons already announced in this process.
_NOTICED: set = set()


def kernel_mode() -> str:
    """Which loop serves the kernel schemes: ``"compiled-c"`` when the
    native library is available, ``"fast"`` when it is not."""
    return "compiled-c" if _ckernel.lib_available() else "fast"


def _fallback_notice(reason: str) -> None:
    """One stderr line per distinct fallback reason per process."""
    if reason in _NOTICED:
        return
    _NOTICED.add(reason)
    print(
        f"repro.compiled: {reason}; using the fast loop (bit-identical)",
        file=sys.stderr,
    )


# -- dispatch ----------------------------------------------------------------

#: The schemes the kernel steps; a scheme's index here is the kernel's
#: ``kind``.  Dispatch compares exact types (not isinstance): a subclass
#: may change ``access()`` (SnugIntraCache does, over SnugCache, and has
#: its own kind), so an unlisted subclass falls through to the fast loop.
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
    def impl(system, target, warmup, budget):
        return _ckernel.run_kernel(system, target, warmup, budget, kind)
    return impl


_ENTRIES = tuple(
    _named_entry(f"compiled_kernel__{cls.name}", _make_impl(kind))
    for kind, cls in enumerate(_KERNEL_SCHEMES)
)


class CompiledCmpSystem(CmpSystem):
    """CMP system stepped by the native C kernel.

    Produces bit-identical :class:`SimResult`\\ s (the conformance suites
    assert term-for-term ``to_dict()`` equality against
    ``core/reference.py``).  Systems the kernel declines run on the
    inherited fast loop, with a one-line notice naming the reason.
    """

    def run(
        self,
        target_instructions: int,
        *,
        warmup_instructions: int = 0,
        max_events: int | None = None,
    ) -> SimResult:
        scheme_type = type(self.scheme)
        if scheme_type in _KERNEL_SCHEMES:
            kind = _KERNEL_SCHEMES.index(scheme_type)
            reason = _ckernel.decline_reason(self, kind)
        else:
            reason = f"no kernel for scheme {self.scheme.name!r}"
        if reason is not None:
            _fallback_notice(reason)
            return super().run(
                target_instructions,
                warmup_instructions=warmup_instructions,
                max_events=max_events,
            )
        budget = self._start_run(
            target_instructions, warmup_instructions, max_events
        )
        return _ENTRIES[kind](
            self, target_instructions, warmup_instructions, budget
        )
