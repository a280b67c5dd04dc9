"""Per-scheme golden snapshots: every stepping loop pins to the reference.

``tests/data/golden_scheme_<name>_tiny.json`` holds the full
``SimResult.to_dict()`` of one fixed tiny-scale run per scheme, captured
from :class:`repro.core.reference.ReferenceCmpSystem` (the seed loop kept
verbatim as the conformance oracle).  Unlike the combo-level
``golden_c4_0_tiny.json`` (metrics and IPC only), these snapshots pin the
*entire* result — outcome tallies, per-core cycles, window metrics, scheme
stats — and every production loop (fast and compiled) must reproduce
them **bit-identically**; floats compare with ``==``.

Regenerate (only with a commit explaining the semantic change)::

    PYTHONPATH=src python - <<'PY'
    import json
    from repro.common.config import tiny_config
    from repro.core.reference import ReferenceCmpSystem
    from repro.schemes.factory import make_scheme
    from repro.workloads.mixes import get_mix, build_mix_traces
    from tests.integration.test_golden_schemes import GOLDEN_SCHEMES, golden_inputs
    config, traces = golden_inputs()
    for name, kwargs in GOLDEN_SCHEMES.items():
        res = ReferenceCmpSystem(
            config, make_scheme(name, config, **kwargs), list(traces)
        ).run(50_000, warmup_instructions=30_000)
        with open(f"tests/data/golden_scheme_{name}_tiny.json", "w") as fh:
            json.dump(res.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    PY
"""

import json
from pathlib import Path

import pytest

from repro.common.config import tiny_config
from repro.core.cmp import CmpSystem
from repro.core.compiled import CompiledCmpSystem
from repro.schemes.factory import SCHEMES, make_scheme
from repro.workloads.mixes import build_mix_traces, get_mix

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

#: Scheme name -> factory kwargs of the pinned run (CC at one fixed spill
#: probability: the goldens pin simulation semantics, not the Best sweep).
GOLDEN_SCHEMES = {
    "l2p": {},
    "l2s": {},
    "cc": {"spill_probability": 0.5},
    "dsr": {},
    "snug": {},
    "snug_intra": {},
}


def golden_inputs():
    """The fixed (config, traces) every snapshot was captured with."""
    config = tiny_config(seed=7)
    traces = build_mix_traces(get_mix("c4_0"), config.l2.num_sets, 3_000, 11)
    return config, traces


def load_golden(name):
    return json.loads((DATA_DIR / f"golden_scheme_{name}_tiny.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_SCHEMES))
@pytest.mark.parametrize("core_cls", [CmpSystem, CompiledCmpSystem])
def test_core_reproduces_golden(name, core_cls):
    config, traces = golden_inputs()
    scheme = make_scheme(name, config, **GOLDEN_SCHEMES[name])
    res = core_cls(config, scheme, list(traces)).run(
        50_000, warmup_instructions=30_000
    )
    golden = load_golden(name)
    # Canonical JSON equality catches any drift, including float-bit changes.
    assert json.dumps(res.to_dict(), sort_keys=True) == json.dumps(
        golden, sort_keys=True
    )


def test_goldens_cover_every_scheme():
    assert set(GOLDEN_SCHEMES) == set(SCHEMES)
    for name in GOLDEN_SCHEMES:
        assert (DATA_DIR / f"golden_scheme_{name}_tiny.json").exists()
