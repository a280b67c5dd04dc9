"""The repo benchmark: one workload per invocation, measured from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig9_small [--seed 7] [--seconds 15] [--trace 0|1]
    python3 perfbench/run.py --steadiness 10 [--workload NAME ...] [--seconds 15]

A run builds the C kernel library and fills the workload's trace cache
(untimed), takes several fresh set-up samples, then runs the workload's
scenario in fresh single processes on the inline backend until about
``--seconds`` of timed work is done, and checks every result.  Times are
reported in reference seconds: each raw time multiplied by the host's mean
speed over it, as sampled by ``hostspeed.py``, so host drift cancels out.
It prints human-readable lines and, last, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``accesses_per_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` one
more, traced process runs and the metrics are the per-layer ones.
``--steadiness N`` runs each workload N times at seeds 1..N and prints each
end-to-end metric's median, quartiles and quartile spread, beside those of
the raw wall time and the host speed.  Everything the benchmark writes
lands under ``.perfbench-work/`` at the repository root.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

#: Fresh set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 9
#: Per-process timeout; a run must end within 180 s.
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Run:
    """One invocation's work directory, child environment and steps."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.dir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        self.trace_cache = (
            str(self.dir / "traces") if self.workload.trace_cache else None
        )
        self.stores = 0
        # A pinned environment: no ambient REPRO_* knob may change what
        # runs, the kernel library is built fresh into the work directory,
        # and temporary files stay inside the checkout.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            REPRO_CKERNEL_DIR=str(self.dir / "ckernel"),
            TMPDIR=str(self.dir / "tmp"),
        )
        self.env = env

    def fresh_store(self) -> str:
        self.stores += 1
        return str(self.dir / f"store-{self.stores}")

    def child(self, mode: str, timeout: float = CHILD_TIMEOUT_S, **args) -> dict:
        """Run one fresh benchmark process; return its JSON result."""
        args.update(
            workload=self.workload.name,
            seed=self.seed,
            trace_cache=self.trace_cache,
            spawned_at=time.time(),
        )
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, json.dumps(args)],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        if proc.returncode != 0:
            raise BenchError(
                f"{mode} step failed (exit {proc.returncode}):\n{proc.stderr.strip()}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def workload_digest(task_digests: dict) -> str:
    """One digest over every task's canonical result digest, by task id."""
    text = "".join(f"{k}\t{task_digests[k]}\n" for k in sorted(task_digests))
    return hashlib.sha256(text.encode()).hexdigest()


def say(line: str) -> None:
    print(f"perfbench: {line}", flush=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full record (metrics and details)."""
    run = Run(name, seed)
    try:
        return _measure(run, seconds, trace)
    finally:
        run.close()


def _measure(run: Run, seconds: float, trace: bool) -> dict:
    phases = {}
    lap = [time.perf_counter()]

    def phase(label: str) -> None:
        now = time.perf_counter()
        phases[label] = phases.get(label, 0.0) + now - lap[0]
        lap[0] = now

    def sample_setups(count: int) -> None:
        setups.extend(run.child("setup", store=run.fresh_store()) for _ in range(count))
        phase("set-up samples")

    prep = run.child("prepare")
    if prep["kernel_mode"] != "compiled-c":
        raise BenchError(
            f"kernel mode is {prep['kernel_mode']!r}, not 'compiled-c': this "
            "host would benchmark another tier (is a C compiler on PATH?)"
        )
    say(
        f"workload={run.workload.name} seed={run.seed} "
        f"scenario={prep['scenario_name']} hash={prep['scenario_hash']} "
        f"kernel={prep['kernel_mode']}"
    )
    phase("prepare")
    # Set-up samples are spread over the run, a third at each stage, so
    # their median is not hostage to one moment of host speed.
    setups = []
    sample_setups(SETUP_SAMPLES // 3)
    iterations = [run.child("run", store=run.fresh_store())]
    first_wall = iterations[0]["wall_s"]
    wanted = max(1, round(seconds / first_wall))
    if iterations[0]["error"] is not None:
        wanted = 1
    while len(iterations) < wanted:
        iterations.append(run.child("run", store=run.fresh_store()))
    phase("timed runs")
    sample_setups(SETUP_SAMPLES // 3)
    traced = None
    if trace:
        WORK.mkdir(exist_ok=True)
        traced = run.child(
            "run",
            store=run.fresh_store(),
            trace=True,
            spans_path=str(WORK / f"spans-{run.workload.name}.jsonl"),
        )
        phase("traced run")

    failed, notes = _check(run, iterations + ([traced] if traced else []))
    phase("check")
    sample_setups(SETUP_SAMPLES - len(setups))
    tasks = iterations[0]["tasks"]
    attempted = tasks * (len(iterations) + (1 if traced else 0))

    wall_s = statistics.median(reference_s(it) for it in iterations)
    accesses = iterations[0]["accesses"]
    metrics = {
        "wall_s": (wall_s, "s"),
        "accesses_per_s": (accesses / wall_s, "accesses/s"),
        "setup_s": (statistics.median(
            s["setup_s"] * s["setup_speed"] for s in setups), "s"),
        "peak_rss_mb": (statistics.median(it["peak_rss_mb"] for it in iterations), "MiB"),
    }
    for i, it in enumerate(iterations, 1):
        say(
            f"iteration {i}/{len(iterations)}: wall {it['wall_s']:.3f} s at host "
            f"speed {it['speed']:.3f} = {reference_s(it):.3f} reference s, "
            f"cpu {it['cpu_s']:.3f} s, {it['accesses']} accesses, "
            f"peak rss {it['peak_rss_mb']:.1f} MiB"
        )
    say(
        "set-up: median of {} fresh processes; raw {:.3f} s at host speed "
        "{:.3f}; import {:.1f} ms, kernel load {:.2f} ms, scenario+runner "
        "{:.1f} ms; kernel build {:.3f} s (excluded)".format(
            len(setups),
            statistics.median(s["setup_s"] for s in setups),
            statistics.median(s["setup_speed"] for s in setups),
            statistics.median(s["import_ms"] for s in setups),
            statistics.median(s["kernel_load_ms"] for s in setups),
            statistics.median(s["scenario_ms"] for s in setups),
            prep["kernel_build_s"],
        )
    )
    say("  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
        + f"  tasks_failed={failed}/{attempted} tasks")
    for note in notes:
        say(note)
    say("phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()))

    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_wall_s": statistics.median(it["wall_s"] for it in iterations),
        "speed": statistics.median(it["speed"] for it in iterations),
        "cpu_s": statistics.median(it["cpu_s"] for it in iterations),
    }
    if traced is not None:
        record["metrics"] = _layer_metrics(prep, setups, iterations, traced)
        for line in traced["layer_table"]:
            say("  " + line)
    return record


def reference_s(out: dict) -> float:
    """A run's wall time in reference seconds (see ``hostspeed.py``)."""
    return out["wall_s"] * out["speed"]


def _check(run: Run, outputs: list) -> tuple:
    """Count failed tasks over every timed process; returns (failed, notes)."""
    failed = 0
    notes = []
    reference = outputs[0]["task_digests"]
    for out in outputs:
        if out["error"] is not None:
            notes.append(f"run raised {out['error']}")
        failed += out["tasks"] - len(out["task_digests"])
        failed += sum(
            1 for k, v in out["task_digests"].items() if reference.get(k) != v
        )
    digest = workload_digest(reference)
    headline = outputs[0]["headline"]
    notes.append(
        f"Figure-9 headline: SNUG throughput / L2P, geomean over "
        f"{outputs[0]['mixes']} mixes = "
        + (f"{headline:.6f}" if headline is not None else "n/a")
        + "  (the model is unvalidated against hardware; no error figure)"
    )
    if run.seed == workloads.DEFAULT_SEED:
        with open(HERE / "expected.json", encoding="utf-8") as fh:
            expected = json.load(fh)[run.workload.name]
        if outputs[0]["scenario_hash"] != expected["scenario_hash"]:
            notes.append("scenario hash differs from the one the digests were captured at")
            failed += 1
        wrong = [
            k for k in expected["tasks"] if expected["tasks"][k] != reference.get(k)
        ]
        failed += len(wrong)
        notes.append(
            f"output check: digest {digest[:16]} "
            + ("matches" if not wrong and digest == expected["digest"] else "DIFFERS from")
            + f" the seed-{run.seed} capture ({len(expected['tasks']) - len(wrong)}"
            f"/{len(expected['tasks'])} tasks identical)"
        )
    else:
        ids = sorted(
            k for k in reference
            if run.workload.check_schemes is None
            or k.split("__")[1] in run.workload.check_schemes
        )
        sample = random.Random(run.seed).sample(ids, min(run.workload.check_sample, len(ids)))
        result = run.child("check", store=outputs[0]["store"], tasks=sample)
        failed += len(result["mismatched"])
        notes.append(
            f"output check: digest {digest[:16]}; {result['checked']} sampled "
            f"task(s) re-simulated on the reference core, "
            f"{result['checked'] - len(result['mismatched'])} byte-identical "
            f"({', '.join(sample)})"
        )
    return failed, notes


def _layer_metrics(prep: dict, setups: list, iterations: list, traced: dict) -> dict:
    """The ``--trace 1`` metrics: the traced run's layers plus set-up/host."""
    out = dict(traced["layers"])
    stats = traced["trace_stats"]
    for key in ("generated", "cache_hits", "memo_hits"):
        out[f"workloads.{key}"] = {"value": stats[key], "unit": "count"}
    for key in ("import_ms", "kernel_load_ms", "scenario_ms"):
        out[f"setup.{key}"] = {
            "value": statistics.median(s[key] for s in setups), "unit": "ms"}
    out["setup.kernel_build_s"] = {"value": prep["kernel_build_s"], "unit": "s"}
    out["host.raw_wall_s"] = {
        "value": statistics.median(it["wall_s"] for it in iterations), "unit": "s"}
    out["host.speed"] = {
        "value": statistics.median(it["speed"] for it in iterations), "unit": "x"}
    out["host.cpu_s"] = {
        "value": statistics.median(it["cpu_s"] for it in iterations), "unit": "s"}
    out["host.wait_s"] = {
        "value": statistics.median(it["wall_s"] - it["cpu_s"] for it in iterations),
        "unit": "s",
    }
    wall = statistics.median(reference_s(it) for it in iterations)
    out["trace.overhead_pct"] = {
        "value": 100.0 * (reference_s(traced) - wall) / wall, "unit": "%"}
    return out


def steadiness(names: list, runs: int, seconds: float) -> None:
    """Run each workload *runs* times (seeds 1..runs); print the spreads."""
    for name in names:
        records = []
        for seed in range(1, runs + 1):
            records.append(run_workload(name, seed, seconds, trace=False))
        series = {
            k: [r["metrics"][k]["value"] for r in records]
            for k in records[0]["metrics"]
        }
        for key in ("raw_wall_s", "speed", "cpu_s"):
            series[key] = [r[key] for r in records]
        print(f"\nsteadiness: {name}, {runs} runs of {seconds:g} s")
        print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/median':>12}")
        for key, values in series.items():
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(f"{key:<16}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}{(q3 - q1) / q2:>12.4f}")
        print("raw wall / cpu / host speed per run: " + ", ".join(
            f"{w:.2f}/{c:.2f}/{v:.3f}" for w, c, v in
            zip(series["raw_wall_s"], series["cpu_s"], series["speed"])))
        print("failed: " + ", ".join(str(r["failed"]) for r in records))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run each workload N times and print the spreads")
    args = parser.parse_args(argv)
    if args.steadiness is not None and args.steadiness < 2:
        parser.error("--steadiness needs at least 2 runs")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    try:
        if args.steadiness:
            steadiness(args.workload or sorted(workloads.WORKLOADS),
                       args.steadiness, args.seconds)
            return 0
        if not args.workload or len(args.workload) != 1:
            parser.error("exactly one --workload is required")
        record = run_workload(args.workload[0], args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
