"""Unit tests for the compiled (native-kernel) core's plumbing.

Whole-system bit-identicality is pinned by
``tests/integration/test_batch_conformance.py`` and the golden suites;
this file localizes regressions in the machinery *around* the kernel:

* ``kernel_mode`` names the loop that actually serves the kernel schemes;
* every system the kernel declines runs on the reference loop (the
  spec's :meth:`CmpSystem.run`, on the same system) bit-identically, with
  one stderr notice per distinct reason per process; the kernel takes the
  largest core count (64) and the largest trace address (2**54 - 1) its
  packed line words hold, and leaves every line (owner included) as the
  reference loop does;
* a kernel run never falls back to the reference loop, and matches it;
* on aliased traces a CC or DSR probe still finds a peer's own line, so
  the kernel skips no peer set there for hosting no line;
* a kernel run builds no cache line until something reads a cache's
  ``sets``; the first read builds them once, as the reference loop leaves
  them, and a second run's dispatch sees them without building them;
* likewise a SNUG slice's shadow tags and monitors: a kernel run leaves
  them in its arrays and the slice builds them on the first read of
  either, as the reference loop leaves them; the decline check tells a
  never-read slice from one holding state without building either, a
  slice whose monitors were built before the run is encoded from them,
  and a post-run scheme copies and pickles without building them;
* every array slot (and the core count), and every trace column the
  kernel reads in place, is checked by name before the kernel runs, and
  every array of the streaming profiler's C step before that step runs;
  at ``base_cpi`` 1.0 the issue-gap column is the trace's own ``gaps``;
* dispatch refuses bad run sizing with the same messages as
  :class:`~repro.core.cmp.CmpSystem`, and a second run of a system, under
  either sim core, before any access;
* the kernel build is private per builder (a concurrent first build of
  the same revision cannot truncate another builder's compiler input)
  and cached per source, flags and compiler;
* the cProfile execution-phase dump attributes kernel time to a frame
  named ``compiled_kernel__<scheme>`` — without the named wrapper the hot
  path shows up as one anonymous driver and ``--profile`` cannot say
  where the time went.
"""

import copy
import cProfile
import dataclasses
import os
import pickle
import pstats
import shutil

import numpy as np
import pytest

from repro.cache.block import CacheLine
from repro.cache.stackdist_stream import StreamingProfiler
from repro.common.config import tiny_config
from repro.common.errors import SimulationError
from repro.core import _ckernel, compiled
from repro.core.cmp import CmpSystem
from repro.core.compiled import CompiledCmpSystem, kernel_mode
from repro.experiments.runner import SIM_CORES, make_system
from repro.schemes.factory import SCHEMES, make_scheme
from repro.schemes.snug import OnlineDemandMonitor, _SnugSlice, _UnbuiltSnugSlice
from repro.workloads.mixes import build_mix_traces, get_mix
from repro.workloads.trace import Trace
from tests.helpers import hide_kernel_library, live_state


def build(scheme_name):
    cfg = tiny_config(seed=7)
    traces = build_mix_traces(get_mix("c4_0"), cfg.l2.num_sets, 1_000, seed=0)
    return cfg, make_scheme(scheme_name, cfg), list(traces)


class TestTierReporting:
    def test_kernel_mode_names_a_real_tier(self):
        assert kernel_mode() in ("compiled-c", "reference")

    def test_mode_follows_library(self):
        expected = "compiled-c" if _ckernel.lib_available() else "reference"
        assert kernel_mode() == expected


def _run_pair(config, scheme_name, traces, prepare=None, target=4_000,
              warmup=500, **kwargs):
    """Run *scheme_name* over *traces* on the compiled system and on the
    spec's :class:`CmpSystem`; return (compiled system, reference system,
    compiled result, reference result)."""
    systems, results = [], []
    for cls in (CompiledCmpSystem, CmpSystem):
        scheme = make_scheme(scheme_name, config, **kwargs)
        if prepare is not None:
            prepare(scheme)
        system = cls(config, scheme, list(traces))
        results.append(system.run(target, warmup_instructions=warmup).to_dict())
        systems.append(system)
    return (*systems, *results)


#: The decline reason of a scheme whose caches already hold state.
WARM_SCHEME = "caches, write buffers or shadow sets already hold state"


def _notices(capsys):
    """The fallback notices printed since the last read."""
    return [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("repro.compiled:")]


def _fallback_run(config, scheme_name, traces, capsys, prepare=None, **kwargs):
    """:func:`_run_pair` on core-rebased traces; return (compiled result,
    reference result, notice lines)."""
    _, _, out, ref = _run_pair(config, scheme_name,
                               [t.rebase(i) for i, t in enumerate(traces)],
                               prepare, **kwargs)
    return out, ref, _notices(capsys)


def _refuse_fallback(monkeypatch):
    """Fail the test if a compiled run declines: every decline announces
    itself before it runs the spec."""
    def refuse(reason):
        raise AssertionError(f"the compiled run fell back to the spec: {reason}")

    monkeypatch.setattr(compiled, "fallback_notice", refuse)


def _small_trace(seed=0, n=60):
    rng = np.random.default_rng(seed)
    return Trace(rng.integers(1, 30, n), rng.integers(0, 128, n), rng.random(n) < 0.3)


def _wide_traces(top):
    """Two traces, not core-rebased: core 0's addresses lie below 128 and
    core 1's just below *top*, which it accesses every fifth record."""
    low, high = _small_trace(seed=0), _small_trace(seed=1)
    offsets = high.addrs.copy()
    offsets[::5] = 0
    return [low, Trace(high.gaps, top - offsets, high.writes)]


#: Factory kwargs per scheme for the whole-scheme parametrizations: CC on
#: its random-draw ring.
_KWARGS = {"cc": {"spill_probability": 0.5}}


needs_kernel = pytest.mark.skipif(
    not _ckernel.lib_available(), reason="C kernel unavailable"
)


class TestFallbackReasons:
    """Each decline is named once, and the reference loop runs it.
    Without the library every run is declined for that reason alone, so
    the other notices need the kernel."""

    @pytest.fixture(autouse=True)
    def _fresh_notices(self, monkeypatch):
        monkeypatch.setattr(compiled, "_NOTICED", set())

    @needs_kernel
    def test_spill_scheme_on_one_core(self, capsys):
        config = dataclasses.replace(tiny_config(seed=7), num_cores=1)
        out, ref, notices = _fallback_run(
            config, "cc", [_small_trace()], capsys, spill_probability=0.0
        )
        assert out == ref
        assert notices == [
            "repro.compiled: spill scheme 'cc' on a single core; "
            "using the reference loop (bit-identical)"
        ]

    @needs_kernel
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_more_than_64_cores(self, capsys, scheme_name):
        # Both sides run the spec, so the runs are kept short: 8-record
        # traces, 200 instructions after a 100-instruction warm-up.
        config = dataclasses.replace(tiny_config(seed=7), num_cores=128)
        traces = [_small_trace(seed=i, n=8).rebase(i) for i in range(128)]
        _, _, out, ref = _run_pair(config, scheme_name, traces, target=200,
                                   warmup=100, **_KWARGS.get(scheme_name, {}))
        assert out == ref
        assert _notices(capsys) == [
            "repro.compiled: 128 cores exceed the C kernel's 64-core limit; "
            "using the reference loop (bit-identical)"
        ]

    @needs_kernel
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_64_cores_run_in_the_kernel(self, capsys, scheme_name):
        # SystemConfig takes power-of-two core counts only, so 64 is the
        # largest count the kernel takes, and 128 the smallest it declines.
        # Core 63 owns lines, so the packed words' owner field round-trips
        # its top value.
        config = dataclasses.replace(tiny_config(seed=7), num_cores=64)
        traces = [_small_trace(seed=i).rebase(i) for i in range(64)]
        system, reference, out, ref = _run_pair(
            config, scheme_name, traces, **_KWARGS.get(scheme_name, {}))
        assert out == ref
        assert live_state(system.scheme) == live_state(reference.scheme)
        assert _notices(capsys) == []

    @needs_kernel
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_address_2_pow_54_is_declined(self, capsys, scheme_name):
        # A packed line word holds addr << 9, which must stay a
        # non-negative int64.
        config = dataclasses.replace(tiny_config(seed=7), num_cores=2)
        _, _, out, ref = _run_pair(config, scheme_name, _wide_traces(1 << 54),
                                   **_KWARGS.get(scheme_name, {}))
        assert out == ref
        assert _notices(capsys) == [
            "repro.compiled: trace addresses reach 2**54, beyond the C "
            "kernel's packed line words; using the reference loop "
            "(bit-identical)"
        ]

    @needs_kernel
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_address_below_2_pow_54_runs_in_the_kernel(self, capsys,
                                                        scheme_name):
        top = (1 << 54) - 1
        config = dataclasses.replace(tiny_config(seed=7), num_cores=2)
        system, reference, out, ref = _run_pair(
            config, scheme_name, _wide_traces(top),
            **_KWARGS.get(scheme_name, {}))
        assert out == ref
        state = live_state(system.scheme)
        assert state == live_state(reference.scheme)
        assert _notices(capsys) == []
        # The top line is resident (an L2S bank keeps addr >> 1 here).
        resident = {line[0] for cache in state["lines"] for lines in cache
                    for line in lines}
        assert (top >> 1 if scheme_name == "l2s" else top) in resident

    @needs_kernel
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
            "hold state; using the reference loop (bit-identical)"
        ]

    def test_no_library(self, capsys, monkeypatch):
        # In-process twin of the REPRO_NO_CKERNEL subprocess test in the
        # conformance suite: any reason the library is missing is named.
        hide_kernel_library(monkeypatch, "no C compiler on PATH")
        assert kernel_mode() == "reference"
        config = tiny_config(seed=7)
        traces = [_small_trace(seed=i) for i in range(config.num_cores)]
        out, ref, notices = _fallback_run(config, "dsr", traces, capsys)
        assert out == ref
        assert notices == [
            "repro.compiled: C kernel unavailable (no C compiler on PATH); "
            "using the reference loop (bit-identical)"
        ]

    @needs_kernel
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


class TestKernelRuns:
    """Every kernel scheme, and every kernel exit, stays in the kernel from
    start to finish and matches the reference loop."""

    @needs_kernel
    @pytest.mark.parametrize("scheme_name,prepare,kwargs", KERNEL_RUNS)
    def test_runs_in_kernel_and_matches_reference(
        self, monkeypatch, scheme_name, prepare, kwargs
    ):
        _refuse_fallback(monkeypatch)
        config, _, traces = build(scheme_name)
        # Short SNUG stages, so the monitored run crosses latches.
        config = dataclasses.replace(config, snug=dataclasses.replace(
            config.snug, identify_cycles=4_000, group_cycles=6_000))
        system, _, out, ref = _run_pair(config, scheme_name, traces, prepare,
                                        **kwargs)
        assert out == ref
        if prepare is not None:
            assert system.scheme.monitor.latches > 0


class TestAliasedProbes:
    """CC's and DSR's peer probes accept any line, so on traces whose cores
    share addresses a peer's own line can answer.  The kernel skips a peer
    set that hosts no line only for disjoint traces; these aliased ones
    must probe every peer, as the reference loop does."""

    @needs_kernel
    @pytest.mark.parametrize("scheme_name,kwargs", [
        ("cc", {"spill_probability": 0.0}),
        ("dsr", {}),
    ])
    def test_peer_own_line_is_forwarded(self, monkeypatch, scheme_name,
                                        kwargs):
        _refuse_fallback(monkeypatch)
        config = tiny_config(seed=7)
        # Not rebased: every core draws from the same 128 addresses.
        traces = [_small_trace(seed=i) for i in range(config.num_cores)]
        outcomes = []
        for cls in (CmpSystem, CompiledCmpSystem):
            scheme = make_scheme(scheme_name, config, **kwargs)
            result = cls(config, scheme, list(traces)).run(
                4_000, warmup_instructions=500).to_dict()
            outcomes.append((result, live_state(scheme)))
        stats = outcomes[0][0]["stats"]
        assert sum(v for k, v in stats.items() if k.endswith(".remote_hits")) > 0
        if scheme_name == "cc":   # no spills: only aliasing makes a remote hit
            assert not any(k.endswith(".spills_out") for k in stats)
        assert outcomes[1] == outcomes[0]


def _caches(scheme):
    return scheme.banks if scheme.name == "l2s" else scheme.slices


def _lines(scheme):
    """Every cache's resident lines, all five fields, MRU first per set."""
    return [[[dataclasses.astuple(line) for line in lruset]
             for lruset in cache.sets] for cache in _caches(scheme)]


class TestDeferredLines:
    """A kernel run leaves the caches' lines in its arrays: each cache
    builds them on the first read of its ``sets``, once, exactly as the
    reference loop leaves them, and the dispatch's decline check still
    sees them; a second run is refused before that check."""

    @pytest.fixture(autouse=True)
    def _fresh_notices(self, monkeypatch):
        monkeypatch.setattr(compiled, "_NOTICED", set())

    @needs_kernel
    @pytest.mark.parametrize("scheme_name,prepare,kwargs", KERNEL_RUNS)
    def test_lines_built_once_on_first_read(
        self, monkeypatch, capsys, scheme_name, prepare, kwargs
    ):
        fills = []
        fill_lines = _ckernel._fill_lines

        def counting_fill(words, occ):
            fills.append(fill_lines(words, occ))
            return fills[-1]

        monkeypatch.setattr(_ckernel, "_fill_lines", counting_fill)
        config, _, traces = build(scheme_name)
        systems = []
        for cls in (CompiledCmpSystem, CmpSystem):
            scheme = make_scheme(scheme_name, config, **kwargs)
            if prepare is not None:
                prepare(scheme)
            systems.append(cls(config, scheme, list(traces)))
            systems[-1].run(4_000, warmup_instructions=500)
        system, reference = systems
        caches = _caches(system.scheme)
        assert not any("sets" in cache.__dict__ for cache in caches)
        assert fills == []

        lines = _lines(system.scheme)
        assert lines == _lines(reference.scheme)
        assert any(any(sets) for sets in lines)
        assert _lines(system.scheme) == lines
        assert [id(sets) for sets in fills] == [id(c.sets) for c in caches]

        kind = compiled._KERNEL_SCHEMES.index(type(system.scheme))
        assert _ckernel.decline_reason(system, kind) == WARM_SCHEME
        with pytest.raises(SimulationError, match="already run"):
            system.run(4_000, warmup_instructions=500)
        assert _notices(capsys) == []

    @needs_kernel
    def test_decline_check_reads_no_line(self, monkeypatch):
        # Lines a kernel run left in its arrays hold state unread.  The
        # write buffers are emptied, so only the lines can say so.
        monkeypatch.setattr(_ckernel, "_fill_lines", lambda words, occ:
                            pytest.fail("lines built by the decline check"))
        config, scheme, traces = build("l2p")
        CompiledCmpSystem(config, scheme, list(traces)).run(
            4_000, warmup_instructions=500)
        for wbuf in scheme.wbufs:
            wbuf._entries.clear()
        system = CompiledCmpSystem(config, scheme, list(traces))
        kind = compiled._KERNEL_SCHEMES.index(type(scheme))
        assert _ckernel.decline_reason(system, kind) == WARM_SCHEME

    @needs_kernel
    def test_refused_run_leaves_the_notice_to_a_real_decline(self, capsys):
        # A refused second run prints nothing and uses up no notice: a new
        # system over the warm scheme is then declined, and says so once.
        config, scheme, traces = build("l2p")
        first = CompiledCmpSystem(config, scheme, list(traces))
        first.run(4_000, warmup_instructions=500)
        with pytest.raises(SimulationError, match="already run"):
            first.run(4_000, warmup_instructions=500)
        assert _notices(capsys) == []
        CompiledCmpSystem(config, scheme, list(traces)).run(
            4_000, warmup_instructions=500)
        assert _notices(capsys) == [
            f"repro.compiled: {WARM_SCHEME}; using the reference loop "
            "(bit-identical)"
        ]


#: The SNUG-family runs of :data:`KERNEL_RUNS`.
SNUG_RUNS = [run for run in KERNEL_RUNS if run[0].startswith("snug")]


class TestDeferredSnugState:
    """A kernel run leaves each SNUG slice's shadow tags and monitors in its
    arrays; the slice builds both on the first read of either, once,
    exactly as the reference loop leaves them."""

    @needs_kernel
    @pytest.mark.parametrize("scheme_name,prepare,kwargs", SNUG_RUNS)
    def test_state_built_once_on_first_read(
        self, monkeypatch, scheme_name, prepare, kwargs
    ):
        fills = []
        fill_state = _ckernel._fill_snug_state

        def counting_fill(*args):
            fills.append(fill_state(*args))
            return fills[-1]

        monkeypatch.setattr(_ckernel, "_fill_snug_state", counting_fill)
        _refuse_fallback(monkeypatch)
        config, _, traces = build(scheme_name)
        system, reference, out, ref = _run_pair(config, scheme_name, traces,
                                                prepare, **kwargs)
        assert out == ref
        metas = system.scheme.meta
        assert all(type(m) is _UnbuiltSnugSlice for m in metas) and fills == []
        state = live_state(system.scheme)
        assert state == live_state(reference.scheme)
        assert any(tags for meta in state["snug"][4] for tags in meta[1])
        assert len(fills) == len(metas)
        assert [id(fill[1]) for fill in fills] == [id(m.monitors) for m in metas]
        assert all(type(m) is _SnugSlice for m in metas)

    @needs_kernel
    def test_decline_check_builds_nothing(self):
        config, scheme, traces = build("snug")
        system = CompiledCmpSystem(config, scheme, traces)
        kind = compiled._KERNEL_SCHEMES.index(type(scheme))
        assert _ckernel.decline_reason(system, kind) is None
        # A slice whose state a kernel run left in its arrays holds state.
        scheme.meta[2].defer_state(lambda: pytest.fail("built by the check"))
        assert _ckernel.decline_reason(system, kind) == WARM_SCHEME
        assert not any("sets" in cache.__dict__ for cache in scheme.slices)
        assert all(type(m) is _UnbuiltSnugSlice for m in scheme.meta)

    @needs_kernel
    def test_built_monitors_are_encoded_from_their_objects(self, monkeypatch):
        def raise_a_counter(scheme):
            scheme.meta[0].monitors[3].counter.value = 15

        _refuse_fallback(monkeypatch)
        config, _, traces = build("snug")
        system, reference, out, ref = _run_pair(config, "snug", traces,
                                                raise_a_counter)
        assert out == ref
        assert live_state(system.scheme) == live_state(reference.scheme)

    @needs_kernel
    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s)),
    ], ids=["deepcopy", "pickle"])
    def test_copies_of_a_post_run_scheme(self, clone):
        config, _, traces = build("snug")
        system, reference, _, _ = _run_pair(config, "snug", traces)
        twin = clone(system.scheme)
        assert all(type(m) is _UnbuiltSnugSlice for m in twin.meta)
        assert all(type(m) is _UnbuiltSnugSlice for m in system.scheme.meta)
        assert live_state(twin) == live_state(reference.scheme)
        assert live_state(system.scheme) == live_state(reference.scheme)


def _set_slot(name, corrupt):
    """Corrupt array slot *name* before the entry check sees it."""
    def apply(ctx, arrays):
        arrays[name] = corrupt(arrays[name])
    return apply


def _retrace(core, **columns):
    """Give *core* a copy of its trace with *columns* swapped in as they
    are (the trace's own constructor would convert them)."""
    trace = copy.copy(core.trace)
    for name, value in columns.items():
        object.__setattr__(trace, name, value)
    core.trace = trace


class TestPointerTableCheck:
    """A slot or trace column the C side would misread is refused, by name,
    before the kernel runs; so is a bad argument of the streaming
    profiler's C step."""

    @pytest.fixture
    def cc_system(self, monkeypatch):
        """A CC system whose kernel call fails the test if it is reached."""
        def kernel(ctx):
            raise AssertionError("the kernel ran on an unchecked input")

        monkeypatch.setattr(_ckernel._get_lib(), "run_kernel", kernel)
        config, _, traces = build("cc")
        scheme = make_scheme("cc", config, spill_probability=0.5)
        return CompiledCmpSystem(config, scheme, traces)

    @needs_kernel
    @pytest.mark.parametrize("corrupt,message", [
        (_set_slot("t_cols", lambda a: a[:-1]),
         r"slot 't_cols': 15 elements, the params imply at least 16"),
        (_set_slot("coin_buf", lambda a: a.astype(np.int64)),
         r"slot 'coin_buf': dtype int64, the kernel reads float64"),
        (_set_slot("line_addr", lambda a: np.zeros(2 * a.size, np.int64)[::2]),
         r"slot 'line_addr' is not C-contiguous"),
        (_set_slot("hcnt", lambda a: a[:-1]),
         r"slot 'hcnt': 63 elements, the params imply at least 64"),
        (lambda ctx, arrays: setattr(ctx, "ncores", 65),
         r"param 'ncores': 65 cores, the kernel takes 1-64"),
    ], ids=["t_cols", "coin_buf", "line_addr", "hcnt", "ncores"])
    def test_bad_slot_is_refused_by_name(self, monkeypatch, cc_system,
                                         corrupt, message):
        real_bind = _ckernel._bind_arrays

        def corrupted_bind(ctx, arrays):
            corrupt(ctx, arrays)
            return real_bind(ctx, arrays)

        monkeypatch.setattr(_ckernel, "_bind_arrays", corrupted_bind)
        with pytest.raises(SimulationError, match=message):
            cc_system.run(10_000)

    @needs_kernel
    @pytest.mark.parametrize("corrupt,message", [
        (lambda core: _retrace(core, addrs=core.trace.addrs[:-1]),
         r"trace column 'addrs' of core 1: 999 elements, the core's "
         r"trace length implies at least 1000"),
        (lambda core: _retrace(core,
                               writes=core.trace.writes.astype(np.int64)),
         r"trace column 'writes' of core 1: dtype int64, the kernel reads "
         r"bool"),
    ], ids=["addrs", "writes"])
    def test_bad_trace_column_is_refused_by_name(self, cc_system, corrupt,
                                                 message):
        corrupt(cc_system.cores[1])
        with pytest.raises(SimulationError, match=message):
            cc_system.run(10_000)

    @needs_kernel
    def test_gap_columns_are_read_in_place(self, monkeypatch):
        # At base_cpi 1.0 (every preset's) the issue gaps are the gaps:
        # both entries of a core's t_cols row are its trace's own column.
        rows = []
        real_bind = _ckernel._bind_arrays

        def capture(ctx, arrays):
            rows.extend(arrays["t_cols"].reshape(ctx.ncores, -1).tolist())
            return real_bind(ctx, arrays)

        monkeypatch.setattr(_ckernel, "_bind_arrays", capture)
        config, scheme, traces = build("l2p")
        assert config.base_cpi == 1.0
        system = CompiledCmpSystem(config, scheme, traces)
        system.run(4_000)
        names = [name for name, _, _ in _ckernel._TRACE_COLS]
        assert len(rows) == len(system.cores)
        for core, row in zip(system.cores, rows):
            cols = dict(zip(names, row))
            gaps = core.trace.gaps.ctypes.data
            assert cols["gaps"] == cols["issue_gaps"] == gaps
            assert cols["addrs"] == core.trace.addrs.ctypes.data

    @needs_kernel
    @pytest.mark.parametrize("corrupt,message", [
        (lambda prof: setattr(prof, "_stk", prof._stk[:-1]),
         r"argument 'stk': 63 elements, mask and depth imply at least 64"),
        (lambda prof: setattr(prof, "_open_hist",
                              prof._open_hist.astype(np.int32)),
         r"argument 'hist': dtype int32, the kernel reads int64"),
        (lambda prof: setattr(prof, "_lens", np.zeros(32, np.int64)[::2]),
         r"argument 'lens' is not C-contiguous"),
        (lambda prof: prof._lens.__setitem__(15, 5),
         r"argument 'lens': entries span \[0, 5\], the rows hold \[0, 4\]"),
    ], ids=["stk", "hist", "lens_strided", "lens_entry"])
    def test_bad_profiler_argument_is_refused_by_name(
        self, monkeypatch, corrupt, message
    ):
        def profile_feed(*args):
            raise AssertionError("the profiler step ran on an unchecked input")

        monkeypatch.setattr(_ckernel._get_lib(), "profile_feed", profile_feed)
        profiler = StreamingProfiler(16, 4)
        corrupt(profiler)
        with pytest.raises(SimulationError, match=message):
            profiler.feed(np.arange(100))


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

    @pytest.mark.parametrize("sim_core", SIM_CORES)
    def test_second_run_is_refused_before_any_access(self, monkeypatch,
                                                     capsys, sim_core):
        # A second run would restart the cores' windows over a scheme whose
        # write buffers, DRAM and bus times and SNUG stage ends carry on
        # from the first run: it is refused, under either core, before the
        # scheme sees an access or a core moves, and without a notice.
        monkeypatch.setattr(compiled, "_NOTICED", set())
        cfg, scheme, traces = build("snug")
        system = make_system(sim_core, cfg, scheme, traces)
        system.run(4_000, warmup_instructions=500)
        capsys.readouterr()

        def access(*_args):
            raise AssertionError("the second run stepped an access")

        monkeypatch.setattr(scheme, "access", access)
        cores = [(c.time, c.pos, c.accesses, c.instructions, c.finish_time)
                 for c in system.cores]
        with pytest.raises(SimulationError,
                           match=r"already run \(core 0 has stepped \d+ "
                                 r"accesses\)"):
            system.run(4_000, warmup_instructions=500)
        assert [(c.time, c.pos, c.accesses, c.instructions, c.finish_time)
                for c in system.cores] == cores
        assert capsys.readouterr().err == ""


class TestProfileLabeling:
    @needs_kernel
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

    @needs_kernel
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
