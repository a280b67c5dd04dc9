"""Unit tests for the compiled (native-kernel) core's plumbing.

Whole-system bit-identicality is pinned by
``tests/integration/test_batch_conformance.py`` and the golden suites;
this file localizes regressions in the machinery *around* the kernel:

* ``kernel_mode`` names the loop that actually serves the kernel schemes;
* every system the kernel declines runs on the fast loop bit-identically,
  with one stderr notice per distinct reason per process;
* the compiled path stays array-native: a kernel run reads the cores'
  NumPy columns and never builds the list columns the Python loop needs;
* every array slot (and the core count) is checked by name before the
  kernel runs;
* dispatch refuses bad run sizing with the same messages as
  :class:`~repro.core.cmp.CmpSystem`;
* the kernel build is private per builder (a concurrent first build of
  the same revision cannot truncate another builder's compiler input)
  and cached per source, flags and compiler;
* the cProfile execution-phase dump attributes kernel time to a frame
  named ``compiled_kernel__<scheme>`` — without the named wrapper the hot
  path shows up as one anonymous driver and ``--profile`` cannot say
  where the time went.
"""

import cProfile
import dataclasses
import os
import pstats
import shutil

import numpy as np
import pytest

from repro.cache.block import CacheLine
from repro.common.config import tiny_config
from repro.common.errors import SimulationError
from repro.core import _ckernel, compiled
from repro.core.compiled import CompiledCmpSystem, kernel_mode
from repro.core.cpu import TraceCore
from repro.core.reference import ReferenceCmpSystem
from repro.schemes.factory import make_scheme
from repro.schemes.snug import OnlineDemandMonitor
from repro.workloads.mixes import build_mix_traces, get_mix
from repro.workloads.trace import Trace


def build(scheme_name):
    cfg = tiny_config(seed=7)
    traces = build_mix_traces(get_mix("c4_0"), cfg.l2.num_sets, 1_000, seed=0)
    return cfg, make_scheme(scheme_name, cfg), list(traces)


class TestTierReporting:
    def test_kernel_mode_names_a_real_tier(self):
        assert kernel_mode() in ("compiled-c", "fast")

    def test_mode_follows_library(self):
        expected = "compiled-c" if _ckernel.lib_available() else "fast"
        assert kernel_mode() == expected


def _run_pair(config, scheme_name, traces, prepare=None, **kwargs):
    """Run *scheme_name* over *traces* on the compiled and the reference
    core; return (compiled system, compiled result, reference result)."""
    systems, results = [], []
    for cls in (CompiledCmpSystem, ReferenceCmpSystem):
        scheme = make_scheme(scheme_name, config, **kwargs)
        if prepare is not None:
            prepare(scheme)
        system = cls(config, scheme, list(traces))
        results.append(system.run(4_000, warmup_instructions=500).to_dict())
        systems.append(system)
    return systems[0], results[0], results[1]


def _fallback_run(config, scheme_name, traces, capsys, prepare=None, **kwargs):
    """:func:`_run_pair` on core-rebased traces; return (compiled result,
    reference result, notice lines)."""
    _, out, ref = _run_pair(config, scheme_name,
                            [t.rebase(i) for i, t in enumerate(traces)],
                            prepare, **kwargs)
    notices = [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("repro.compiled:")
    ]
    return out, ref, notices


def _small_trace(seed=0, n=60):
    import numpy as np

    rng = np.random.default_rng(seed)
    return Trace(rng.integers(1, 30, n), rng.integers(0, 128, n), rng.random(n) < 0.3)


class TestFallbackReasons:
    """Each decline is named once, and the fast loop stays bit-identical."""

    @pytest.fixture(autouse=True)
    def _fresh_notices(self, monkeypatch):
        monkeypatch.setattr(compiled, "_NOTICED", set())

    def test_spill_scheme_on_one_core(self, capsys):
        config = dataclasses.replace(tiny_config(seed=7), num_cores=1)
        out, ref, notices = _fallback_run(
            config, "cc", [_small_trace()], capsys, spill_probability=0.0
        )
        assert out == ref
        assert notices == [
            "repro.compiled: spill scheme 'cc' on a single core; "
            "using the fast loop (bit-identical)"
        ]

    def test_more_than_64_cores(self, capsys):
        config = dataclasses.replace(tiny_config(seed=7), num_cores=128)
        traces = [_small_trace(seed=i, n=8) for i in range(128)]
        out, ref, notices = _fallback_run(config, "l2p", traces, capsys)
        assert out == ref
        assert notices == [
            "repro.compiled: 128 cores exceed the C kernel's 64-core limit; "
            "using the fast loop (bit-identical)"
        ]

    def test_prefilled_slice(self, capsys):
        def prefill(scheme):
            scheme.slices[0].fill(CacheLine(addr=5, dirty=True, owner=0))

        config = tiny_config(seed=7)
        traces = [_small_trace(seed=i) for i in range(config.num_cores)]
        out, ref, notices = _fallback_run(
            config, "snug", traces, capsys, prepare=prefill
        )
        assert out == ref
        assert notices == [
            "repro.compiled: caches, write buffers or shadow sets already "
            "hold state; using the fast loop (bit-identical)"
        ]

    def test_no_library(self, capsys, monkeypatch):
        # In-process twin of the REPRO_NO_CKERNEL subprocess test in the
        # conformance suite: any reason the library is missing is named.
        monkeypatch.setattr(_ckernel, "_get_lib", lambda: None)
        monkeypatch.setattr(_ckernel, "_REASON", "no C compiler on PATH")
        assert kernel_mode() == "fast"
        config = tiny_config(seed=7)
        traces = [_small_trace(seed=i) for i in range(config.num_cores)]
        out, ref, notices = _fallback_run(config, "dsr", traces, capsys)
        assert out == ref
        assert notices == [
            "repro.compiled: C kernel unavailable (no C compiler on PATH); "
            "using the fast loop (bit-identical)"
        ]

    def test_notice_once_per_distinct_reason(self, capsys):
        one_core = dataclasses.replace(tiny_config(seed=7), num_cores=1)
        for _ in range(2):
            _fallback_run(one_core, "dsr", [_small_trace()], capsys)
        _, _, notices = _fallback_run(one_core, "dsr", [_small_trace()], capsys)
        assert notices == []
        _, _, notices = _fallback_run(
            one_core, "cc", [_small_trace()], capsys, spill_probability=0.0
        )
        assert len(notices) == 1 and "'cc'" in notices[0]


needs_kernel = pytest.mark.skipif(
    not _ckernel.lib_available(), reason="C kernel unavailable"
)


def _attach_monitor(scheme):
    scheme.attach_monitor(OnlineDemandMonitor.from_config(scheme.config))


#: (scheme, prepare, factory kwargs): every kernel scheme, CC on its
#: random-draw ring, and SNUG and SNUG-Intra on the demand-monitor hand-off.
KERNEL_RUNS = [
    ("l2p", None, {}),
    ("l2s", None, {}),
    ("cc", None, {"spill_probability": 0.5}),
    ("dsr", None, {}),
    ("snug", None, {}),
    ("snug", _attach_monitor, {}),
    ("snug_intra", None, {}),
    ("snug_intra", _attach_monitor, {}),
]


class TestArrayNative:
    """The kernel reads the cores' NumPy columns; only the Python loop
    builds the plain-list columns."""

    @needs_kernel
    @pytest.mark.parametrize("scheme_name,prepare,kwargs", KERNEL_RUNS)
    def test_compiled_run_never_builds_list_columns(
        self, monkeypatch, scheme_name, prepare, kwargs
    ):
        def refuse(core):
            raise AssertionError("list columns built on the compiled path")

        monkeypatch.setattr(TraceCore, "ensure_lists", refuse)
        config, _, traces = build(scheme_name)
        # Short SNUG stages, so the monitored run crosses latches.
        config = dataclasses.replace(config, snug=dataclasses.replace(
            config.snug, identify_cycles=4_000, group_cycles=6_000))
        system, out, ref = _run_pair(config, scheme_name, traces, prepare, **kwargs)
        assert out == ref
        assert all(core._gaps is None for core in system.cores)
        if prepare is not None:
            assert system.scheme.monitor.latches > 0

    def test_fallback_run_builds_list_columns(self):
        # CC on one core is declined, so it runs on the fast loop.
        config = dataclasses.replace(tiny_config(seed=7), num_cores=1)
        traces = [_small_trace().rebase(0)]
        system, out, ref = _run_pair(config, "cc", traces, spill_probability=0.0)
        assert out == ref
        assert all(core._gaps is not None for core in system.cores)


def _set_slot(name, corrupt):
    """Corrupt array slot *name* before the entry check sees it."""
    def apply(ctx, arrays):
        arrays[name] = corrupt(arrays[name])
    return apply


class TestPointerTableCheck:
    """A slot the C side would misread is refused, by name, before the
    kernel runs."""

    @needs_kernel
    @pytest.mark.parametrize("corrupt,message", [
        (_set_slot("t_addr", lambda a: a[:-1]),
         r"slot 't_addr': 3999 elements, the params imply at least 4000"),
        (_set_slot("coin_buf", lambda a: a.astype(np.int64)),
         r"slot 'coin_buf': dtype int64, the kernel reads float64"),
        (_set_slot("line_meta", lambda a: np.zeros(2 * a.size, np.int64)[::2]),
         r"slot 'line_meta' is not C-contiguous"),
        (lambda ctx, arrays: setattr(ctx, "ncores", 65),
         r"param 'ncores': 65 cores, the kernel takes 1-64"),
    ], ids=["t_addr", "coin_buf", "line_meta", "ncores"])
    def test_bad_slot_is_refused_by_name(self, monkeypatch, corrupt, message):
        real_bind = _ckernel._bind_arrays

        def corrupted_bind(ctx, arrays):
            corrupt(ctx, arrays)
            return real_bind(ctx, arrays)

        def kernel(ctx):
            raise AssertionError("the kernel ran on an unchecked input")

        monkeypatch.setattr(_ckernel, "_bind_arrays", corrupted_bind)
        monkeypatch.setattr(_ckernel._get_lib(), "run_kernel", kernel)
        config, _, traces = build("cc")
        scheme = make_scheme("cc", config, spill_probability=0.5)
        with pytest.raises(SimulationError, match=message):
            CompiledCmpSystem(config, scheme, traces).run(10_000)


class TestKernelBuild:
    @pytest.fixture
    def compiler(self):
        cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
        if cc is None:
            pytest.skip("no C compiler on PATH")
        return cc

    def test_concurrent_first_build_keeps_compiler_input_private(
        self, tmp_path, monkeypatch, compiler
    ):
        """A second builder starting while the first compiles must not
        write the first one's source: a shared ``.c`` file, rewritten by
        every builder, was truncated under a running compiler, and the
        losing process ran without the kernel for its whole lifetime."""
        monkeypatch.setenv("REPRO_CKERNEL_DIR", str(tmp_path))
        real_run = _ckernel.subprocess.run
        sources = []

        def compile_while_another_builds(cmd, **kwargs):
            sources.append(cmd[-1])
            if len(sources) == 1:
                _ckernel._build(compiler)  # the racing builder, start to finish
            with open(cmd[-1]) as fh:
                assert fh.read() == _ckernel._C_SOURCE
            return real_run(cmd, **kwargs)

        monkeypatch.setattr(_ckernel.subprocess, "run", compile_while_another_builds)
        lib = _ckernel._build(compiler)
        assert lib.run_kernel is not None
        assert len(sources) == 2 and sources[0] != sources[1]
        assert sorted(os.listdir(tmp_path)) == [
            os.path.basename(_ckernel._so_path(str(tmp_path), compiler))
        ]

    def test_cache_key_covers_flags_and_compiler(self, tmp_path, monkeypatch, compiler):
        root = str(tmp_path)
        base = _ckernel._so_path(root, compiler)
        assert _ckernel._so_path(root, compiler) == base
        alias = tmp_path / "other-cc"
        alias.write_text("")
        assert _ckernel._so_path(root, str(alias)) != base
        monkeypatch.setattr(_ckernel, "_CFLAGS", _ckernel._CFLAGS + ("-g",))
        with_g = _ckernel._so_path(root, compiler)
        assert with_g != base
        # Extra flags from the environment (a sanitizer build) key it too.
        monkeypatch.setenv("REPRO_CKERNEL_CFLAGS", "-O1 -fsanitize=address")
        assert _ckernel._cflags()[-2:] == ("-O1", "-fsanitize=address")
        assert _ckernel._so_path(root, compiler) not in (base, with_g)


class TestDispatchEdges:
    def test_run_sizing_validated(self):
        from repro.common.errors import SimulationError

        cfg, scheme, traces = build("l2p")
        system = CompiledCmpSystem(cfg, scheme, traces)
        with pytest.raises(SimulationError, match="target_instructions"):
            system.run(0)
        with pytest.raises(SimulationError, match="warmup_instructions"):
            system.run(1_000, warmup_instructions=-1)


class TestProfileLabeling:
    @pytest.mark.parametrize("scheme_name", ["l2p", "cc", "snug_intra"])
    def test_kernel_time_appears_under_named_frame(self, scheme_name):
        cfg, scheme, traces = build(scheme_name)
        system = CompiledCmpSystem(cfg, scheme, traces)
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            system.run(10_000, warmup_instructions=1_000)
        finally:
            profiler.disable()
        stats = pstats.Stats(profiler)
        names = {func[2] for func in stats.stats}
        assert f"compiled_kernel__{scheme_name}" in names

    def test_profile_dump_file_contains_kernel_row(self, tmp_path):
        # The CLI --profile path: dump_stats + pstats.Stats(path) must
        # surface the same named row the operator greps for.
        cfg, scheme, traces = build("l2s")
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            CompiledCmpSystem(cfg, scheme, traces).run(10_000)
        finally:
            profiler.disable()
        path = tmp_path / "exec.pstats"
        profiler.dump_stats(path)
        names = {func[2] for func in pstats.Stats(str(path)).stats}
        assert "compiled_kernel__l2s" in names

    def test_named_entry_wraps_without_changing_behavior(self):
        entry = compiled._named_entry("compiled_kernel__probe", lambda a, b: a + b)
        assert entry.__name__ == "compiled_kernel__probe"
        assert entry(2, 3) == 5
