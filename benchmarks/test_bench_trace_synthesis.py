"""Bench TRACE SYNTHESIS: the trace generator's C step vs its NumPy step.

Times :func:`repro.workloads.mixes.build_mix_traces` over the 21 mixes of
the ``fig9-11-small`` preset, at its geometry, plan length and seed (the
traces a cold ``fig9_small`` sweep generates), once through the C step
(:func:`repro.core._ckernel.trace_fill`) and once through the NumPy step
(:func:`repro.workloads.synthetic._trace_fill_numpy`, forced by hiding the
kernel library from the generator).  Every trace must match column for
column.  The best time of each step and their ratio go to
``BENCH_trace_synthesis.json``; there is no speed gate.  Without the kernel
library the bench is skipped: it times the production step.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from repro.core import _ckernel
from repro.scenario import load_scenario_file
from repro.workloads.mixes import build_mix_traces

REPEATS = 3


@contextlib.contextmanager
def _numpy_step():
    """The generator sees no kernel library, so it takes its NumPy step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ckernel, "_get_lib", lambda: None)
        mp.setattr(_ckernel, "_REASON", "hidden by the trace synthesis bench")
        yield


@pytest.mark.benchmark(group="trace_synthesis")
def test_trace_synthesis_steps(bench_json):
    if not _ckernel.lib_available():
        pytest.skip(f"C kernel library unavailable ({_ckernel.reason()}): "
                    "the bench times the generator's C step")
    scenario = load_scenario_file("fig9-11-small")
    mixes = scenario.build_mixes()
    num_sets = scenario.build_config().l2.num_sets
    n_accesses, seed = scenario.plan.n_accesses, scenario.plan.seed

    def build_all():
        t0 = time.perf_counter()
        traces = [t for mix in mixes
                  for t in build_mix_traces(mix, num_sets, n_accesses, seed)]
        return time.perf_counter() - t0, traces

    c_s = numpy_s = math.inf
    for _ in range(REPEATS):  # alternate the steps, keep each one's best
        elapsed, c_traces = build_all()
        c_s = min(c_s, elapsed)
        with _numpy_step():
            elapsed, numpy_traces = build_all()
        numpy_s = min(numpy_s, elapsed)
        for c, ref in zip(c_traces, numpy_traces, strict=True):
            for column in ("addrs", "gaps", "writes"):
                np.testing.assert_array_equal(getattr(c, column),
                                              getattr(ref, column))
    n_traces = len(c_traces)
    print(f"\n{len(mixes)} mixes, {n_traces} traces at {num_sets} sets: "
          f"C step {c_s:.3f}s, NumPy step {numpy_s:.3f}s, "
          f"ratio {numpy_s / c_s:.2f}x")
    bench_json("trace_synthesis", {
        "mixes": len(mixes),
        "traces": n_traces,
        "num_sets": num_sets,
        "n_accesses": n_accesses,
        "seed": seed,
        "repeats": REPEATS,
        "c_s": c_s,
        "numpy_s": numpy_s,
        "numpy_over_c": numpy_s / c_s,
        "c_ms_per_trace": 1e3 * c_s / n_traces,
        "numpy_ms_per_trace": 1e3 * numpy_s / n_traces,
    })
