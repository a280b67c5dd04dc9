"""Capture ``expected.json``: every task's result digest at the default seed.

Usage (from the repository root)::

    python3 perfbench/capture.py [--workload NAME ...]

Each workload runs once on the production core (``sim_core: auto``) and once
on the reference core, through the same benchmark processes ``run.py``
uses.  The capture is written only if the two agree task for task, so the
digests the benchmark checks against are the executable spec's results.
The reference runs take minutes (``kernel_paper`` the longest).
"""

from __future__ import annotations

import argparse
import json
import sys

import run as bench
import workloads


def capture(name: str) -> dict:
    run = bench.Run(name, workloads.DEFAULT_SEED)
    try:
        run.child("prepare")
        auto = run.child("run", store=run.fresh_store())
        ref = run.child(
            "run", timeout=3600, store=run.fresh_store(), sim_core="reference"
        )
    finally:
        run.close()
    for out in (auto, ref):
        if out["error"] is not None or len(out["task_digests"]) != out["tasks"]:
            raise SystemExit(f"{name}: run failed: {out['error']}")
    if auto["task_digests"] != ref["task_digests"]:
        differ = sorted(
            k for k in auto["task_digests"]
            if auto["task_digests"][k] != ref["task_digests"].get(k)
        )
        raise SystemExit(f"{name}: production and reference cores differ on {differ}")
    print(f"{name}: {auto['tasks']} tasks identical on the reference core "
          f"(reference run {ref['wall_s']:.1f} s)", flush=True)
    return {
        "scenario_hash": auto["scenario_hash"],
        "digest": bench.workload_digest(auto["task_digests"]),
        "headline": auto["headline"],
        "tasks": auto["task_digests"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    path = bench.HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or sorted(workloads.WORKLOADS):
        expected[name] = capture(name)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
