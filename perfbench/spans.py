"""Outside-in layer tracing for the traced benchmark run.

:class:`Tracer` wraps each layer's public entry point from the benchmark's
own files — module attributes, methods, and the ``run_kernel`` symbol of
the loaded C library — so nothing under ``src/`` changes.  Every wrapped
call records a span (name, start, end, parent span, task id); spans stay in
memory and are written to a JSON-lines file when the run ends.

Span names, one per layer boundary (parent in brackets):

``engine.run``           ``ScenarioExecution.run`` (root)
``engine.task``          ``execute_task`` [engine.run]
``workloads.provision``  ``cached_mix_traces`` on a memo miss [engine.task];
                         ``source`` is ``generated`` or ``cache``
``schemes.build``        ``make_scheme`` [engine.task]
``core.build``           ``make_system``: ``TraceCore`` extraction [engine.task]
``core.compiled_run``    ``CompiledCmpSystem.run`` [engine.task]
``core.native``          the C library's ``run_kernel`` [core.compiled_run]
``core.fast_run``        ``CmpSystem.run``, the generic loop [engine.task]
``cache.profiler``       ``StreamingProfiler.feed``/``cut`` [a run span]
``engine.store_save``    ``ResultStore.save`` [engine.run]
``engine.store_close``   ``ResultStore.close`` [engine.run]

Every span of one task carries that task's id, including the trace
provisioning the task triggered.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Tracer", "layer_metrics", "layer_table"]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[Dict[str, Any]] = []
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, task: Optional[str] = None) -> Dict[str, Any]:
        parent = self._open[-1] if self._open else None
        if task is None and parent is not None:
            task = parent["task"]
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "task": task,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self._open.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        task_of: Optional[Callable[[tuple], str]] = None,
        annotate: Optional[Callable[[Any], Dict[str, Any]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self.begin(name, task_of(args) if task_of else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if annotate is not None:
                span.update(annotate(result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer entry point listed in the module docstring."""
        from repro.cache.stackdist_stream import StreamingProfiler
        from repro.core import _ckernel
        from repro.core.cmp import CmpSystem
        from repro.core.compiled import CompiledCmpSystem
        from repro.engine import execution
        from repro.engine.store.sharded import ResultStore
        from repro.experiments import runner

        def accesses(result) -> Dict[str, Any]:
            return {"accesses": sum(result.accesses)}

        self.wrap(execution, "execute_task", "engine.task",
                  task_of=lambda args: args[2].task_id)
        self.wrap(execution, "cached_mix_traces", "workloads.provision",
                  annotate=lambda result: {"source": result[1]})
        self.wrap(runner, "make_scheme", "schemes.build")
        self.wrap(runner, "make_system", "core.build")
        self.wrap(CompiledCmpSystem, "run", "core.compiled_run", annotate=accesses)
        self.wrap(CmpSystem, "run", "core.fast_run", annotate=accesses)
        self.wrap(StreamingProfiler, "feed", "cache.profiler")
        self.wrap(StreamingProfiler, "cut", "cache.profiler")
        self.wrap(ResultStore, "save", "engine.store_save",
                  task_of=lambda args: args[1])
        self.wrap(ResultStore, "close", "engine.store_close")
        # The loaded library object caches its exported symbol as an
        # instance attribute; the compiled core calls it through that.
        lib = _ckernel._get_lib()
        if lib is not None:
            self.wrap(lib, "run_kernel", "core.native")

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """One header line, then one JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# -- the report ----------------------------------------------------------------


def _durations(spans: List[Dict[str, Any]]) -> tuple:
    """Per-span duration and self time, in seconds (self = duration minus
    the time its child spans cover; children never overlap, one thread)."""
    dur = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["id"]]
    return dur, [d - c for d, c in zip(dur, child)]


def _p50_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def layer_table(spans: List[Dict[str, Any]], wall_s: float) -> List[str]:
    """Human-readable per-layer lines: calls, total, p50, self, share."""
    dur, self_t = _durations(spans)
    rows: Dict[str, list] = {}
    for s in spans:
        rows.setdefault(s["name"], []).append(s["id"])
    lines = [
        f"{'layer':<22}{'calls':>7}{'total s':>10}{'p50 ms':>10}"
        f"{'self s':>10}{'self %':>8}"
    ]
    for name, ids in sorted(rows.items(), key=lambda kv: -sum(self_t[i] for i in kv[1])):
        self_s = sum(self_t[i] for i in ids)
        lines.append(
            f"{name:<22}{len(ids):>7}{sum(dur[i] for i in ids):>10.3f}"
            f"{_p50_ms([dur[i] for i in ids]):>10.3f}{self_s:>10.3f}"
            f"{100 * self_s / wall_s:>8.1f}"
        )
    return lines


def layer_metrics(spans: List[Dict[str, Any]], wall_s: float) -> Dict[str, dict]:
    """The per-layer metrics derived from one traced run's spans.

    Time metrics cover layers every workload exercises; a layer only some
    workloads reach is reported as a call count plus its share of traced
    wall time, which reads 0 where the workload bypasses the layer.
    """
    dur, _ = _durations(spans)
    by_name: Dict[str, List[int]] = {}
    children: Dict[int, List[int]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["id"])
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s["id"])

    def ids(name: str) -> List[int]:
        return by_name.get(name, [])

    def total(id_list) -> float:
        return sum(dur[i] for i in id_list)

    def p50_ms(id_list) -> float:
        return _p50_ms([dur[i] for i in id_list])

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall_s

    provision = ids("workloads.provision")
    compiled = ids("core.compiled_run")
    native_of = {
        i: [c for c in children.get(i, []) if spans[c]["name"] == "core.native"]
        for i in compiled
    }
    went_native = [i for i in compiled if native_of[i]]
    native_s = total(ids("core.native"))
    task_ms = [dur[i] * 1e3 for i in ids("engine.task")]
    layer_spans = [c for t in ids("engine.task") for c in children.get(t, [])]
    layer_spans += ids("engine.store_save") + ids("engine.store_close")
    metrics = {
        "workloads.provision_ms": (p50_ms(provision), "ms"),
        "workloads.generate_pct": (pct(total(
            i for i in provision if spans[i]["source"] == "generated")), "%"),
        "workloads.cache_load_pct": (pct(total(
            i for i in provision if spans[i]["source"] == "cache")), "%"),
        "schemes.build_ms": (p50_ms(ids("schemes.build")), "ms"),
        "core.build_ms": (p50_ms(ids("core.build")), "ms"),
        "core.compiled_run_ms": (p50_ms(compiled), "ms"),
        "core.native_s": (native_s, "s"),
        "core.marshal_s": (sum(
            dur[i] - total(native_of[i]) for i in went_native), "s"),
        "core.native_accesses_per_s": (
            sum(spans[i]["accesses"] for i in went_native) / native_s
            if native_s else 0.0,
            "accesses/s",
        ),
        "core.compiled_runs": (len(compiled), "count"),
        "core.native_runs": (len(went_native), "count"),
        "core.interpreted_pct": (pct(total(
            i for i in compiled if not native_of[i])), "%"),
        "core.fast_runs": (len(ids("core.fast_run")), "count"),
        "core.fast_run_pct": (pct(total(ids("core.fast_run"))), "%"),
        "cache.profiler_calls": (len(ids("cache.profiler")), "count"),
        "cache.profiler_pct": (pct(total(ids("cache.profiler"))), "%"),
        "engine.task_ms": (p50_ms(ids("engine.task")), "ms"),
        "engine.task_p90_ms": (
            statistics.quantiles(task_ms, n=10)[8] if len(task_ms) > 1 else 0.0,
            "ms",
        ),
        "engine.store_save_ms": (p50_ms(ids("engine.store_save")), "ms"),
        "engine.store_close_ms": (total(ids("engine.store_close")) * 1e3, "ms"),
        "trace.covered_pct": (pct(total(layer_spans)), "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
