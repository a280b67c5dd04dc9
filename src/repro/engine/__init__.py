"""Parallel experiment engine: a backend-agnostic core over pluggable transports.

The paper's evaluation is a grid of *independent* simulations — every
(workload mix × L2 scheme × CC spill-probability point) can run on its own
CPU with no shared state.  This package turns that observation into three
layers:

1. a **backend-agnostic core** (:class:`~repro.engine.runner.ParallelRunner`)
   owning everything that defines a sweep's outcome — task expansion,
   resume, store persistence, request-order merging;
2. pluggable **execution backends**
   (:mod:`repro.engine.backends`) that only transport task chunks:
   ``inline`` (in the calling process), ``process`` (a local pool), and
   ``socket`` (a coordinator that remote ``repro worker`` processes pull
   chunks from);
3. a shared **on-disk trace cache**
   (:mod:`repro.workloads.trace_cache`) that every backend — and the
   Section 2 characterization — consults before regenerating workload
   traces.

Task model
----------
:class:`~repro.engine.tasks.SimTask` is the unit of work: one scheme
simulated over one mix's traces.  ``expand_mix_tasks`` explodes a requested
scheme list into tasks —

* ``"l2p"`` is always included (and first): the Table 5 metrics are
  normalized to it;
* ``"cc_best"`` expands into one ``"cc"`` task per spill probability in
  ``RunPlan.cc_probs``; the merge step re-applies the paper's selection rule
  (:func:`repro.experiments.runner.select_cc_best`) over the
  per-probability results.

The backend interface and determinism contract
----------------------------------------------
A backend implements one method::

    submit_chunks(config, plan, chunks) -> iterator of (task, result)

where ``chunks`` is a list of contiguous same-mix task lists built by the
runner.  The contract (:class:`~repro.engine.backends.base.ExecutionBackend`):

* report every task of every chunk exactly once, in any order — the runner
  merges in *request* order, so scheduling can never leak into results;
* run each task through :func:`~repro.engine.execution.execute_task_chunk`
  so per-task deterministic seeding and trace provisioning behave
  identically everywhere: traces come from ``derive_seed(plan.seed, mix_id,
  slot)`` and scheme-internal RNG streams from ``config.seed``, so a task's
  :class:`~repro.core.cmp.SimResult` is bit-identical no matter which
  worker (or machine) executes it;
* on a task failure, yield the chunk's completed siblings first, then raise
  (the runner persists them, preserving per-task resume granularity).

**Adding a backend** is: subclass ``ExecutionBackend``, implement
``submit_chunks``, register the class in
:data:`repro.engine.backends.BACKENDS`.  The backend-conformance suite
(``tests/engine/test_backends.py``) is the acceptance gate — every backend
must merge to :class:`~repro.experiments.runner.ComboResult` s byte-identical
to the inline backend's, including after a resume.

The socket backend adds a fault model on top: workers heartbeat while
simulating, a silent or disconnected worker's chunk is requeued, and
completions are deduplicated by chunk id — so a dropped worker can neither
lose nor duplicate a task (see :mod:`repro.engine.backends.socket`).

Trace provisioning
------------------
Workers obtain a mix's traces through two tiers keyed by
``(mix_id, programs, num_sets, n_accesses, seed)`` — everything generation
depends on: a per-process memo, then the optional shared on-disk
:class:`~repro.workloads.trace_cache.TraceCache` (atomic writes, SHA-256
content digests; corrupt entries are regenerated, never trusted).  Chunks
are contiguous same-mix task runs so the memo hits within a chunk; with
fewer mixes than workers the runner splits each mix's chunk into at most
``ceil(len/jobs)``-sized contiguous sub-chunks — parallelism and memo
locality coexist.  All tiers are pure optimizations: generation is
deterministic in the key and traces are immutable, so results stay
bit-identical (the determinism suite runs the chunked, memoized, cached
paths).

Beyond the simulation grid, :func:`~repro.engine.pool.parallel_map` packages
the same fan-out/merge-in-request-order discipline for any picklable work
list — the Section 2 characterization survey runs its 26 programs through
it.

Result store layout
-------------------
Passing ``store`` to :class:`~repro.engine.runner.ParallelRunner` persists
every finished task as a checksummed record in a sharded, append-only
segment store (:mod:`repro.engine.store`):

.. code-block:: text

    <store>/
        manifest.json           # config + plan + schemes fingerprint
        shards/<NN>/            # sha256(task_id) % shards
            seg-<N>.seg         # CRC32C-checksummed, commit-marked records
        quarantine/             # corrupt records set aside by `store repair`

``task_id`` is ``"<mix_id>__<scheme>"`` (``"...__cc__p050"`` for a CC
probability point); each record body is canonical JSON holding the task,
its scenario hash, and the result dict (floats round-trip exactly via
``repr``).  Every save is fsynced behind a write-ahead commit marker, so a
killed run loses at most the one record it never acknowledged — open
truncates the torn tail and continues.  The manifest is verified on
reopen: resuming with a different config/plan/scheme list raises
:class:`~repro.common.errors.EngineError` instead of mixing incomparable
results.  The store is what makes backends interchangeable mid-experiment —
any backend writing the same layout can finish a sweep another one started.
``repro store verify|repair|compact`` scrubs checksums, quarantines
corrupt records, and reclaims superseded ones.

Resume
------
With ``resume=True`` (CLI: ``--resume``) completed task ids are skipped and
their results loaded from disk; only the remainder is dispatched.  The JSON
round trip is exact, so a resumed sweep is byte-identical to an uninterrupted
one — on every backend.

CLI usage
---------
``python -m repro run``/``sweep`` accept ``--jobs N``, ``--backend
{inline,process,socket}``, ``--bind HOST:PORT`` (socket listen address),
``--trace-cache DIR``, ``--store DIR`` and ``--resume``::

    # local pool
    python -m repro sweep --scale medium --jobs 8 --store out/sweep
    # distributed: coordinator ...
    python -m repro sweep --scale medium --backend socket \\
        --bind 0.0.0.0:7009 --trace-cache /shared/traces --store out/sweep
    # ... plus any number of workers, started before or after, anywhere:
    python -m repro worker --connect coordinator-host:7009
    # interrupted?  finish the remainder on any backend:
    python -m repro sweep --scale medium --jobs 8 --store out/sweep --resume
"""

from __future__ import annotations

from .backends import (
    BACKENDS,
    ExecutionBackend,
    InlineBackend,
    ProcessPoolBackend,
    SocketBackend,
    make_backend,
    run_worker,
)
from .execution import consume_trace_stats, execute_task, execute_task_chunk
from .pool import parallel_map
from .runner import DEFAULT_SCHEMES, ParallelRunner
from .store import ResultStore
from .tasks import SimTask, expand_mix_tasks

__all__ = [
    "ParallelRunner",
    "ResultStore",
    "SimTask",
    "expand_mix_tasks",
    "execute_task",
    "execute_task_chunk",
    "consume_trace_stats",
    "parallel_map",
    "DEFAULT_SCHEMES",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessPoolBackend",
    "SocketBackend",
    "BACKENDS",
    "make_backend",
    "run_worker",
]
