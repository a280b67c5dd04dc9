"""Pinned SHA-256 digests of generated traces.

``tests/data/golden_traces.json`` freezes one digest over the ``addrs``,
``gaps`` and ``writes`` bytes (in that order) of:

* the four core-rebased traces :func:`~repro.workloads.mixes.build_mix_traces`
  makes for every Table 8 mix, in slot order, at 64 and 1,024 sets;
* :func:`~repro.workloads.synthetic.generate_trace` for every profile in
  :data:`~repro.workloads.spec2000.PROFILES`, at 16 and 1,024 sets;

each at seed 7 and 25,000 accesses.  The trace cache keys its entries by
the generator's inputs, not its outputs, so a generator that changes a
single address would silently serve stale entries beside fresh ones.  The
generator oracle (``tests/property/test_trace_properties.py``) compares
two implementations that share the demand map and the draw order; these
digests pin the traces themselves, whichever step made them (the C step
with the kernel library, the NumPy step without it).

A diff here is never a drive-by: regenerate only for an intended change
of the generated traces, in its own commit that says why::

    PYTHONPATH=src python -m tests.integration.test_golden_traces
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.workloads.mixes import MIXES, build_mix_traces
from repro.workloads.spec2000 import PROFILES, make_benchmark_trace

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_traces.json"

SEED = 7
N_ACCESSES = 25_000
MIX_SETS = (64, 1024)
PROFILE_SETS = (16, 1024)


def traces_digest(traces) -> str:
    """SHA-256 over each trace's ``addrs``, ``gaps`` and ``writes`` bytes."""
    h = hashlib.sha256()
    for trace in traces:
        for column in (trace.addrs, trace.gaps, trace.writes):
            h.update(column.tobytes())
    return h.hexdigest()


def mix_digests(mix) -> dict:
    return {str(num_sets): traces_digest(build_mix_traces(mix, num_sets, N_ACCESSES, SEED))
            for num_sets in MIX_SETS}


def profile_digests(name) -> dict:
    return {str(num_sets): traces_digest([make_benchmark_trace(name, num_sets, N_ACCESSES, SEED)])
            for num_sets in PROFILE_SETS}


def capture() -> dict:
    return {
        "mixes": {mix.mix_id: mix_digests(mix) for mix in MIXES},
        "profiles": {name: profile_digests(name) for name in sorted(PROFILES)},
    }


@functools.lru_cache(maxsize=None)
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


DRIFT = ("generated traces drifted from tests/data/golden_traces.json; if the "
         "change is intended, regenerate it (see this module's docstring)")


def test_golden_covers_every_mix_and_profile():
    assert sorted(golden()["mixes"]) == sorted(m.mix_id for m in MIXES)
    assert sorted(golden()["profiles"]) == sorted(PROFILES)


@pytest.mark.parametrize("mix", MIXES, ids=lambda m: m.mix_id)
def test_mix_traces_are_pinned(mix):
    assert mix_digests(mix) == golden()["mixes"][mix.mix_id], DRIFT


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_profile_trace_is_pinned(name):
    assert profile_digests(name) == golden()["profiles"][name], DRIFT


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=2, sort_keys=True) + "\n")
