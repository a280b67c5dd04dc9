#!/usr/bin/env python
"""Bench trend gate: compare fresh ``BENCH_*.json`` against committed refs.

Usage (after running the speed benches, which write the current artifacts
to the git-ignored ``.bench-out/`` unless ``REPRO_BENCH_DIR`` says otherwise)::

    PYTHONPATH=src python benchmarks/trend.py [--current DIR]

Exits non-zero when a bench's ``geomean_speedup`` regressed past the noise
tolerance — unless ``REPRO_BENCH_RELAX`` is set (CI smoke runs on shared
machines), in which case regressions print as warnings and the exit code
stays zero.  Comparison semantics live in :mod:`repro.analysis.trend`.

``--append benchmarks/history.jsonl`` additionally records the run as one
JSON line in the per-PR trajectory file (committed alongside the refs), so
the perf curve accumulates instead of living only in pairwise diffs — see
``docs/benchmarks.md`` for the workflow.
"""

from __future__ import annotations

import argparse
import datetime
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.trend import (
    DEFAULT_BENCHES,
    DEFAULT_TOLERANCE,
    append_history,
    check_trend,
    history_record,
    render_trend,
    trend_ok,
)

BENCH_DIR = Path(__file__).resolve().parent
#: Where the bench fixtures write fresh artifacts by default.
DEFAULT_CURRENT = BENCH_DIR.parent / ".bench-out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ref", default=str(BENCH_DIR), metavar="DIR",
        help="directory holding the committed reference artifacts "
             "(default: this benchmarks/ directory)",
    )
    parser.add_argument(
        "--current", default=os.environ.get("REPRO_BENCH_DIR") or str(DEFAULT_CURRENT),
        metavar="DIR",
        help="directory holding the fresh artifacts (default: $REPRO_BENCH_DIR, "
             "else .bench-out/ at the repository root)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE, metavar="FRAC",
        help=f"allowed fractional geomean_speedup drop (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--benches", nargs="+", default=list(DEFAULT_BENCHES),
        help="bench names to compare (BENCH_<name>.json)",
    )
    parser.add_argument(
        "--append", default=None, metavar="HISTORY.jsonl",
        help="also append this run's headline numbers (from --current) as "
             "one JSON line to the given trajectory file",
    )
    args = parser.parse_args(argv)
    if not Path(args.current).is_dir():
        parser.error(
            f"no fresh artifacts in {args.current}: run the speed benches "
            "first, or pass --current DIR"
        )
    if Path(args.current).resolve() == Path(args.ref).resolve():
        # Comparing a directory against itself always passes — refuse the
        # vacuous check rather than print a misleading green result.
        parser.error(
            f"--current and --ref are the same directory ({args.ref}); "
            "the comparison would be vacuous"
        )

    relax = os.environ.get("REPRO_BENCH_RELAX", "") not in ("", "0")
    checks = check_trend(args.ref, args.current, args.benches, args.tolerance)
    print(render_trend(checks, relax=relax))
    if args.append:
        # Regressions are recorded too — a trajectory that omits its bad
        # points is not a trajectory.
        record = history_record(
            args.current,
            args.benches,
            rev=_git_rev(),
            recorded_at=datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
        )
        append_history(args.append, record)
        print(f"history: appended {record['rev'] or 'unversioned run'} to {args.append}")
    return 0 if trend_ok(checks, relax=relax) else 1


def _git_rev() -> str | None:
    """Short commit hash of the working tree, or None outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=BENCH_DIR,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
