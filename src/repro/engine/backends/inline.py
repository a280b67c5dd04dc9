"""In-process execution: the ``jobs=0`` path as a backend.

No pool, no transport — chunks run in the calling process, one task at a
time.  This is the reference backend: every run without engine options
(and every ``ParallelRunner(..., jobs=0)``) takes it, and the conformance
suite holds every other backend to its output.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from ...common.config import SystemConfig
from ...core.cmp import SimResult
from ...experiments.runner import RunPlan
from ..execution import execute_task_chunk
from ..tasks import SimTask
from .base import ExecutionBackend

__all__ = ["InlineBackend"]


class InlineBackend(ExecutionBackend):
    """Run every chunk in the calling process."""

    name = "inline"

    def submit_chunks(
        self,
        config: SystemConfig,
        plan: RunPlan,
        chunks: Sequence[List[SimTask]],
    ) -> Iterator[Tuple[SimTask, SimResult]]:
        for chunk in chunks:
            results, error, stats = execute_task_chunk(
                config, plan, chunk, self.cache_root
            )
            self.record_stats(stats)
            yield from zip(chunk, results)
            if error is not None:
                raise error

    def describe(self) -> str:
        return "inline (in-process)"
