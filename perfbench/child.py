"""One benchmark process: ``python3 perfbench/child.py MODE JSON-ARGS``.

The orchestrator (``run.py``) starts a fresh interpreter per step so each
measurement belongs to one process alone: set-up time starts from a cold
interpreter, ``peak_rss_mb`` is the workload's own peak, and the engine's
per-process trace memo starts empty.  Modes:

``prepare``  build the C kernel library (timed, reported apart from set-up)
             and fill the workload's disk trace cache, if it uses one;
``setup``    one fresh set-up: import, kernel load, scenario, runner;
``run``      set-up, then one timed ``ScenarioExecution.run()`` (optionally
             traced), then a digest of every stored task result;
``check``    re-simulate the named tasks on the reference core and compare
             them byte for byte with the stored results.

In ``setup`` and ``run`` a :class:`hostspeed.HostSpeed` sampler pins the
process to one CPU and reports the host's mean speed over the set-up and
over the timed run, beside their raw times.

The last stdout line is one JSON object with the step's measurements.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import sys
import time

import workloads
from hostspeed import HostSpeed


def canonical(result_dict: dict) -> str:
    """The canonical JSON text of one ``SimResult.to_dict()``."""
    return json.dumps(result_dict, sort_keys=True, separators=(",", ":"))


def set_up(args: dict):
    """The timed set-up chain, from a fresh interpreter to a ready runner.

    Returns the timings, the scenario, the execution and the still-running
    host speed sampler.
    """
    host = HostSpeed()
    t0 = time.perf_counter()
    import repro  # noqa: F401
    import repro.engine  # noqa: F401
    from repro.core.compiled import kernel_mode
    from repro.scenario import EngineOptions, ScenarioExecution

    t1 = time.perf_counter()
    mode = kernel_mode()
    t2 = time.perf_counter()
    scenario = workloads.build_scenario(args["workload"], args["seed"])
    execution = ScenarioExecution(
        scenario,
        EngineOptions(
            jobs=0,
            store=args["store"],
            trace_cache=args.get("trace_cache"),
            sim_core=args.get("sim_core"),
        ),
    )
    t3 = time.perf_counter()
    timings = {
        "setup_s": time.time() - args["spawned_at"],
        "setup_speed": host.speed(since=0.0),
        "import_ms": (t1 - t0) * 1e3,
        "kernel_load_ms": (t2 - t1) * 1e3,
        "scenario_ms": (t3 - t2) * 1e3,
        "kernel_mode": mode,
    }
    return timings, scenario, execution, host


def prepare(args: dict) -> dict:
    from repro.core.compiled import kernel_mode
    from repro.workloads.trace_cache import TraceCache, cached_mix_traces

    t0 = time.perf_counter()
    mode = kernel_mode()
    build_s = time.perf_counter() - t0
    scenario = workloads.build_scenario(args["workload"], args["seed"])
    if args.get("trace_cache"):
        cache = TraceCache(args["trace_cache"])
        num_sets = scenario.build_config().l2.num_sets
        for mix in scenario.build_mixes():
            cached_mix_traces(cache, mix, num_sets, scenario.plan.n_accesses,
                              scenario.plan.seed)
    return {
        "kernel_mode": mode,
        "kernel_build_s": build_s,
        "scenario_hash": scenario.content_hash(),
        "scenario_name": scenario.name,
    }


def run(args: dict) -> dict:
    timings, scenario, execution, host = set_up(args)
    tracer = None
    if args.get("trace"):
        import spans

        tracer = spans.Tracer()
        tracer.install()
        root = tracer.begin("engine.run")
    error = None
    combos = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        combos = execution.run()
    except Exception as exc:  # counted as failed tasks by the orchestrator
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    speed = host.speed(since=t0)
    host.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.end(root)
        tracer.uninstall()

    from repro.analysis import geometric_mean
    from repro.engine.store import ResultStore

    store = ResultStore(args["store"])
    digests = {}
    accesses = 0
    for task_id in sorted(store.completed_ids()):
        result = store.load(task_id)["result"]
        digests[task_id] = hashlib.sha256(canonical(result).encode()).hexdigest()
        accesses += sum(result["accesses"])
    store.close()
    out = {
        **timings,
        "store": args["store"],
        "wall_s": wall,
        "speed": speed,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "accesses": accesses,
        "tasks": execution.runner.tasks_total,
        "task_digests": digests,
        "headline": (
            geometric_mean([c.metrics["snug"]["throughput"] for c in combos])
            if combos else None
        ),
        "mixes": len(combos),
        "trace_stats": dict(execution.runner.trace_stats),
        "scenario_hash": scenario.content_hash(),
        "error": error,
    }
    if tracer is not None:
        import spans

        tracer.write(args["spans_path"], {
            "workload": args["workload"],
            "seed": args["seed"],
            "scenario_hash": out["scenario_hash"],
            "wall_s": wall,
            "clock": "time.perf_counter_ns",
        })
        out["layers"] = spans.layer_metrics(tracer.spans, wall)
        out["layer_table"] = spans.layer_table(tracer.spans, wall)
    return out


def check(args: dict) -> dict:
    from repro.engine.execution import execute_task
    from repro.engine.store import ResultStore
    from repro.engine.tasks import expand_mix_tasks

    scenario = workloads.build_scenario(args["workload"], args["seed"])
    config = scenario.build_config()
    plan = dataclasses.replace(scenario.plan, sim_core="reference")
    tasks = {
        task.task_id: task
        for mix in scenario.build_mixes()
        for task in expand_mix_tasks(mix, scenario.schemes, plan.cc_probs)
    }
    store = ResultStore(args["store"])
    mismatched = []
    for task_id in args["tasks"]:
        stored = canonical(store.load(task_id)["result"])
        result = execute_task(config, plan, tasks[task_id], args.get("trace_cache"))
        if canonical(result.to_dict()) != stored:
            mismatched.append(task_id)
    store.close()
    return {"checked": len(args["tasks"]), "mismatched": mismatched}


def setup_only(args: dict) -> dict:
    timings, _, _, host = set_up(args)
    host.stop()
    return timings


MODES = {"prepare": prepare, "setup": setup_only, "run": run, "check": check}


if __name__ == "__main__":
    mode, payload = sys.argv[1], json.loads(sys.argv[2])
    print(json.dumps(MODES[mode](payload)))
