"""Production-core conformance: bit-identical to the seed on every path.

The compiled core (:mod:`repro.core.compiled`) steps whole runs through the
native C kernel, and the fast loop (:class:`~repro.core.cmp.CmpSystem`)
serves every system the kernel declines.  Both must match the seed loop
kept in :mod:`repro.core.reference` term for term.  This suite holds that
contract at the ``SimResult.to_dict()`` level — full dict equality, floats
with ``==`` — across all six schemes, and on the edge paths where the
kernel interacts with other subsystems:

* ``l2s`` under a contention-modelled bus and ``cc`` under contention +
  banked DRAM (occupancy modelled in-kernel);
* ``snug`` and ``snug_intra`` with an attached
  :class:`OnlineDemandMonitor` (the kernel stops at every Stage-I latch and
  hands the observed streams to the monitor: same stream, latch for latch,
  demand vector for demand vector);
* the budget-exhausted :class:`SimulationError` (same enriched per-core
  progress message from every loop, the reference included);
* CLI stores written under ``--sim-core auto`` and under the
  deprecated ``--sim-core compiled`` alias vs ``--sim-core reference``
  (byte-identical records, same manifest — the store-level face of the
  contract).

``TestInterpretedFallback`` pins the no-library path: with
``REPRO_NO_CKERNEL=1`` all six schemes run on the interpreted fast loop,
bit-identically, with one notice on stderr.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.common.config import scaled_config
from repro.common.errors import SimulationError
from repro.core import compiled as compiled_core
from repro.core.cmp import CmpSystem
from repro.core.compiled import CompiledCmpSystem
from repro.core.reference import ReferenceCmpSystem
from repro.experiments import runner
from repro.schemes.factory import SCHEMES, make_scheme
from repro.workloads.mixes import build_mix_traces, get_mix

ALL_SCHEMES = sorted(SCHEMES)

#: The production loop held to the conformance contract on the edge paths
#: (the fast scalar loop rides along in the all-scheme sweep below).
PRODUCTION_CORES = [CompiledCmpSystem]


def build(config_mut=None, *, scale="tiny", n_accesses=3_000):
    cfg = scaled_config(scale, seed=7)
    if config_mut is not None:
        cfg = config_mut(cfg)
    traces = build_mix_traces(get_mix("c4_0"), cfg.l2.num_sets, n_accesses, seed=0)
    return cfg, traces


def run_core(core_cls, cfg, scheme_name, traces, target, warmup, **core_kwargs):
    scheme = make_scheme(scheme_name, cfg)
    system = core_cls(cfg, scheme, list(traces), **core_kwargs)
    return system.run(target, warmup_instructions=warmup).to_dict()


class TestSchemeEquivalence:
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_batch_matches_reference_tiny(self, scheme_name, monkeypatch):
        # "batch" names the removed batched core; for one round it is a
        # deprecated alias of auto, which must warn and stay bit-identical.
        cfg, traces = build()
        ref = run_core(ReferenceCmpSystem, cfg, scheme_name, traces, 30_000, 5_000)
        monkeypatch.setattr(runner, "_deprecation_warned", False)
        with pytest.warns(FutureWarning, match="deprecated"):
            system = runner.make_system(
                "batch", cfg, make_scheme(scheme_name, cfg), list(traces)
            )
        batch = system.run(30_000, warmup_instructions=5_000).to_dict()
        fast = run_core(CmpSystem, cfg, scheme_name, traces, 30_000, 5_000)
        compiled = run_core(
            CompiledCmpSystem, cfg, scheme_name, traces, 30_000, 5_000
        )
        assert batch == ref
        assert fast == ref
        assert compiled == ref

    @pytest.mark.parametrize("core_cls", PRODUCTION_CORES)
    @pytest.mark.parametrize("scheme_name", ["l2s", "snug", "snug_intra"])
    def test_matches_reference_small(self, core_cls, scheme_name):
        # Small scale exercises deeper runs (more wraps); l2s covers the
        # bank-routed probe, snug the stage/shadow/latch machinery, and
        # snug_intra its local flipped-set retrieval and spill on top.
        cfg, traces = build(scale="small", n_accesses=4_000)
        ref = run_core(ReferenceCmpSystem, cfg, scheme_name, traces, 30_000, 5_000)
        out = run_core(core_cls, cfg, scheme_name, traces, 30_000, 5_000)
        assert out == ref


class TestEdgePaths:
    @pytest.mark.parametrize("core_cls", PRODUCTION_CORES)
    def test_l2s_contention(self, core_cls):
        cfg, traces = build(
            lambda c: dataclasses.replace(
                c, bus=dataclasses.replace(c.bus, model_contention=True)
            )
        )
        ref = run_core(ReferenceCmpSystem, cfg, "l2s", traces, 20_000, 2_000)
        out = run_core(core_cls, cfg, "l2s", traces, 20_000, 2_000)
        assert out == ref

    @pytest.mark.parametrize("core_cls", PRODUCTION_CORES)
    def test_cc_contention_banked_dram(self, core_cls):
        cfg, traces = build(
            lambda c: dataclasses.replace(
                c,
                bus=dataclasses.replace(c.bus, model_contention=True),
                dram=dataclasses.replace(c.dram, model_banks=True),
            )
        )
        ref = run_core(ReferenceCmpSystem, cfg, "cc", traces, 20_000, 2_000)
        out = run_core(core_cls, cfg, "cc", traces, 20_000, 2_000)
        assert out == ref

    @pytest.mark.parametrize("core_cls", [CmpSystem, CompiledCmpSystem])
    @pytest.mark.parametrize("scheme_name", ["snug", "snug_intra"])
    def test_snug_online_monitor_sees_identical_stream(
        self, scheme_name, core_cls, capsys, monkeypatch
    ):
        from repro.schemes.snug import OnlineDemandMonitor

        # Notices print once per process: start from none announced.
        monkeypatch.setattr(compiled_core, "_NOTICED", set())

        # Short stages: the run crosses several latches, each one a kernel
        # exit that hands the observed streams to the monitor.
        cfg, traces = build(
            lambda c: dataclasses.replace(
                c, snug=dataclasses.replace(
                    c.snug, identify_cycles=4_000, group_cycles=6_000)
            )
        )
        results, monitors = [], []
        for cls in (ReferenceCmpSystem, core_cls):
            scheme = make_scheme(scheme_name, cfg)
            scheme.attach_monitor(OnlineDemandMonitor.from_config(
                cfg, chunk_accesses=512, record_streams=True
            ))
            system = cls(cfg, scheme, list(traces))
            results.append(system.run(20_000, warmup_instructions=2_000).to_dict())
            monitors.append(scheme.monitor)
        assert results[0] == results[1]
        ref, out = monitors
        assert ref.latches == out.latches > 2
        assert ref.epoch_streams == out.epoch_streams
        for a, b in zip(ref.latched_demand + [ref.last_demand],
                        out.latched_demand + [out.last_demand]):
            assert [d.tolist() for d in a] == [d.tolist() for d in b]
        # Monitored SNUG and SNUG-Intra run in the kernel whenever the
        # library is there: no fallback notice.
        if compiled_core.kernel_mode() == "compiled-c":
            assert "repro.compiled:" not in capsys.readouterr().err

    def test_cc_fractional_spill_rng_stream(self):
        # spill_probability=0.35 draws the spill coin per candidate; the
        # compiled C kernel consumes those draws from a prefetched ring
        # buffer that must replay the scalar draw sequence exactly.
        cfg, traces = build(
            lambda c: dataclasses.replace(
                c, cc=dataclasses.replace(c.cc, spill_probability=0.35)
            )
        )
        ref = run_core(ReferenceCmpSystem, cfg, "cc", traces, 30_000, 5_000)
        compiled = run_core(CompiledCmpSystem, cfg, "cc", traces, 30_000, 5_000)
        assert compiled == ref

    def test_budget_exhausted_message_identical(self):
        cfg, traces = build()
        messages = []
        for core_cls in (ReferenceCmpSystem, CmpSystem, CompiledCmpSystem):
            scheme = make_scheme("l2p", cfg)
            with pytest.raises(SimulationError) as exc_info:
                core_cls(cfg, scheme, list(traces)).run(200_000, max_events=5_000)
            messages.append(str(exc_info.value))
        assert "event budget exhausted (5000)" in messages[0]
        assert "core 0:" in messages[0]  # enriched per-core progress
        assert len(set(messages)) == 1


class TestCliStoreConformance:
    @pytest.mark.parametrize("core", ["auto", "compiled"])
    def test_sim_core_stores_byte_identical(self, tmp_path, core):
        """`--sim-core auto`, the deprecated `--sim-core compiled` alias and
        `--sim-core reference` persist byte-identical per-task records under
        one manifest."""
        from repro.cli import main
        from repro.engine.store import ResultStore
        from repro.scenario import preset_path

        a, b = tmp_path / core, tmp_path / "reference"
        for core, store in ((core, a), ("reference", b)):
            assert main(["scenario", "run", str(preset_path("smoke-tiny")),
                         "--jobs", "0", "--sim-core", core,
                         "--store", str(store)]) == 0
        with ResultStore(a) as store_a, ResultStore(b) as store_b:
            ids = store_a.completed_ids()
            assert ids == store_b.completed_ids() and ids
            for task_id in sorted(ids):
                assert store_a.payload_bytes(task_id) == store_b.payload_bytes(
                    task_id
                )
        assert (a / "manifest.json").read_bytes() == (
            b / "manifest.json"
        ).read_bytes()

    def test_store_resumes_across_sim_cores(self, tmp_path):
        """A store written under one stepping loop resumes under another:
        sim_core is not part of the experiment identity."""
        from repro.cli import main
        from repro.scenario import preset_path

        store = tmp_path / "store"
        assert main(["scenario", "run", str(preset_path("smoke-tiny")),
                     "--jobs", "0", "--sim-core", "auto",
                     "--store", str(store)]) == 0
        assert main(["scenario", "run", str(preset_path("smoke-tiny")),
                     "--jobs", "0", "--sim-core", "reference",
                     "--store", str(store), "--resume"]) == 0


#: Runs all six schemes under the compiled core and dumps
#: ``{"mode": kernel_mode(), "results": {scheme: to_dict()}}`` as JSON —
#: executed in a subprocess so ``REPRO_NO_CKERNEL`` (read at the first
#: library load) takes effect.
_CHILD_SCRIPT = """\
import json, sys
from repro.common.config import scaled_config
from repro.core.compiled import CompiledCmpSystem, kernel_mode
from repro.schemes.factory import SCHEMES, make_scheme
from repro.workloads.mixes import build_mix_traces, get_mix

cfg = scaled_config("tiny", seed=7)
traces = build_mix_traces(get_mix("c4_0"), cfg.l2.num_sets, 3000, seed=0)
results = {}
for name in sorted(SCHEMES):
    scheme = make_scheme(name, cfg)
    system = CompiledCmpSystem(cfg, scheme, list(traces))
    results[name] = system.run(30000, warmup_instructions=5000).to_dict()
json.dump({"mode": kernel_mode(), "results": results}, sys.stdout)
"""


class TestInterpretedFallback:
    """The native library is optional; the fallback is bit-identical.

    With ``REPRO_NO_CKERNEL=1`` the compiled core runs every scheme on the
    interpreted fast loop and says so once, in one line on stderr.
    The results match the reference loop term for term.
    """

    def _run_child(self, **env_knobs):
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), **env_knobs}
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout), proc.stderr

    def _reference_results(self):
        cfg, traces = build()
        return json.loads(json.dumps({
            name: run_core(ReferenceCmpSystem, cfg, name, traces, 30_000, 5_000)
            for name in ALL_SCHEMES
        }))

    def test_interpreted_kernels_bit_identical_with_notice(self):
        payload, stderr = self._run_child(REPRO_NO_CKERNEL="1")
        assert payload["mode"] == "fast"
        assert payload["results"] == self._reference_results()
        notices = [l for l in stderr.splitlines() if l.startswith("repro.compiled:")]
        assert notices == [  # once per process, not once per run
            "repro.compiled: C kernel unavailable (disabled by "
            "REPRO_NO_CKERNEL); using the fast loop (bit-identical)"
        ]
