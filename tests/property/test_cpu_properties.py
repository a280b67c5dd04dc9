"""Property tests for trace-core warmup/wrap edge cases and the production cores.

The warmup and wrap-around properties drive the stepping spec,
:class:`~repro.core.cpu.TraceCore`, over random traces and stepping
schedules.  The production system — the compiled kernel over the cores'
NumPy columns, with the spec's loop for systems it declines — must be
*bit-identical* to the spec, :meth:`CmpSystem.run
<repro.core.cmp.CmpSystem.run>`; the differential property drives it over
generated system configurations (``base_cpi`` included) and compares
every observable: the result, the demand monitor's state, and the
scheme's post-run state down to each resident line.  Tier-1 draws 25
derandomized systems; ``HYPOTHESIS_PROFILE=deep`` (CI's sanitizer job)
draws a few hundred, 64-core systems (the kernel's limit) among them.
One explicit case covers index-bit flipping, which the draws do not
reach.  The kernel's decline of more than 64 cores is covered by
``tests/unit/test_compiled_core.py`` on short traces.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import (
    BusConfig,
    CacheGeometry,
    CcConfig,
    DramConfig,
    DsrConfig,
    SnugConfig,
    SystemConfig,
    WriteBufferConfig,
)
from repro.core.cmp import CmpSystem
from repro.core.compiled import CompiledCmpSystem
from repro.core.cpu import TraceCore
from repro.schemes.factory import make_scheme
from repro.schemes.snug import OnlineDemandMonitor
from repro.workloads.trace import Trace
from tests.helpers import live_state

settings.register_profile("deep", max_examples=300, deadline=None,
                          derandomize=True)
#: The deep profile's draws of the differential test, selected by
#: ``HYPOTHESIS_PROFILE=deep``.  In about one draw in twenty-one it also
#: takes the kernel's 64-core limit, which costs as much as tens of small
#: draws.  No draw declines for its core count: on both sides such a draw
#: would run the spec's loop, comparing it with itself.
DEEP = os.environ.get("HYPOTHESIS_PROFILE") == "deep"
DIFFERENTIAL = (settings.get_profile("deep") if DEEP else
                settings(max_examples=25, deadline=None, derandomize=True))
CORE_COUNTS = (4, 2, 8, 1) * 5 + (64,) if DEEP else (4, 2, 8, 1)

# Small random traces: gaps >= 1, modest addresses, arbitrary write flags.
trace_rows = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=40),       # gap
        st.integers(min_value=0, max_value=255),      # block address
        st.booleans(),                                # write flag
    ),
    min_size=1,
    max_size=30,
)


def mk_trace(rows) -> Trace:
    gaps, addrs, writes = zip(*rows)
    return Trace(np.array(gaps), np.array(addrs), np.array(writes, dtype=bool))


def drive(core, steps: int, latency: int):
    """Step a core through *steps* accesses at a fixed L2 latency."""
    for _ in range(steps):
        issue, addr, write = core.next_access()
        core.complete(issue, latency)


class TestWrapAround:
    @given(trace_rows, st.integers(min_value=0, max_value=100),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_pos_and_wraps_track_consumed_records(self, rows, steps, latency):
        trace = mk_trace(rows)
        core = TraceCore(0, trace)
        drive(core, steps, latency)
        assert core.pos == steps % len(trace)
        assert core.wraps == steps // len(trace)
        assert core.accesses == steps

    @given(trace_rows, st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_wrapped_replay_repeats_records(self, rows, rounds):
        trace = mk_trace(rows)
        core = TraceCore(0, trace)
        n = len(trace)
        first, later = [], []
        for i in range(n * rounds):
            issue, addr, write = core.next_access()
            (first if i < n else later).append((addr, write))
            core.complete(issue, 0)
        assert later == first * (rounds - 1)

    @given(trace_rows, st.integers(min_value=0, max_value=100),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_instructions_sum_consumed_gaps(self, rows, steps, latency):
        trace = mk_trace(rows)
        core = TraceCore(0, trace)
        drive(core, steps, latency)
        gaps = list(trace.gaps)
        expected = sum(int(gaps[i % len(gaps)]) for i in range(steps))
        assert core.instructions == expected


class TestWarmupWindow:
    @given(trace_rows, st.integers(min_value=1, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_no_warmup_window_starts_at_zero(self, rows, target):
        """warmup == 0: the IPC window opens at t=0, before any access."""
        core = TraceCore(0, mk_trace(rows))
        core.target_instructions = target
        core.warmup_instructions = 0
        issue, _, _ = core.next_access()
        core.complete(issue, 5)
        assert core.warmup_end_time == 0
        if core.done:
            assert core.ipc() == target / max(core.finish_time, 1)

    @given(trace_rows, st.integers(min_value=1, max_value=100),
           st.integers(min_value=1, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_warmup_excluded_from_window(self, rows, warmup, target):
        """warmup > 0: the window spans [warmup_end_time, finish_time]."""
        core = TraceCore(0, mk_trace(rows))
        core.target_instructions = target
        core.warmup_instructions = warmup
        for _ in range(1000):
            if core.done:
                break
            issue, _, _ = core.next_access()
            core.complete(issue, 3)
        assert core.done, "bounded trace must eventually cross the target"
        assert core.warmup_end_time is not None
        assert 0 < core.warmup_end_time <= core.finish_time
        window = core.finish_time - core.warmup_end_time
        assert core.ipc() == target / max(window, 1)

    def test_warmup_and_target_cross_on_same_access(self):
        """One big access can cross warmup *and* target: both latch at its
        completion time, giving the minimal window of max(window, 1)."""
        trace = Trace(np.array([100]), np.array([0]), np.array([False]))
        core = TraceCore(0, trace)
        core.target_instructions = 10
        core.warmup_instructions = 10
        issue, _, _ = core.next_access()  # 100 instructions >= 10 + 10
        core.complete(issue, 7)
        assert core.warmed_up and core.done
        assert core.warmup_end_time == core.finish_time == core.time
        assert core.ipc() == 10 / 1  # zero-width window clamps to 1 cycle

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_single_access_crossing_property(self, warmup, target):
        gap = warmup + target  # always crosses both on the first access
        trace = Trace(np.array([gap, gap]), np.array([0, 1]), np.array([False, False]))
        core = TraceCore(0, trace)
        core.target_instructions = target
        core.warmup_instructions = warmup
        issue, _, _ = core.next_access()
        core.complete(issue, 2)
        assert core.warmup_end_time == core.finish_time == core.time


class TestFastPathEquivalence:
    @given(st.data())
    @settings(DIFFERENTIAL)
    def test_cmp_system_matches_reference(self, data):
        """Generated systems, every scheme (the SNUG family with and without
        an attached monitor): spec and compiled agree on the result,
        the monitor's latches and demand, the budget-exhausted error text,
        and the scheme's state after the run (:func:`live_state`)."""
        draw = data.draw
        config, cc_prob = draw(system_configs())
        traces = draw(trace_sets(config))
        chunk = draw(st.sampled_from((1, 7, 8192)))
        warmup = draw(st.integers(min_value=0, max_value=1_000))
        max_events = draw(st.sampled_from((None, None, None, 25, 250)))
        runs = [(name, None) for name in SCHEMES]
        runs += [("snug", chunk), ("snug_intra", chunk)]
        for scheme_name, monitor_chunk in runs:
            outcomes = [
                run_generated(cls, config, scheme_name, cc_prob, traces,
                              monitor_chunk, warmup, max_events)
                for cls in (CmpSystem, CompiledCmpSystem)
            ]
            assert outcomes[1] == outcomes[0], scheme_name


SCHEMES = ("l2p", "l2s", "cc", "dsr", "snug", "snug_intra")


@st.composite
def system_configs(draw):
    """A small :class:`SystemConfig` exercising every modelled knob."""
    num_sets = draw(st.sampled_from((4, 8, 16)))
    assoc = draw(st.sampled_from((1, 2, 4, 8, 16)))
    identify = draw(st.integers(min_value=150, max_value=1_500))
    group = draw(st.integers(min_value=150, max_value=3_000))
    cc_prob = draw(st.sampled_from((0.0, 0.35, 1.0)))
    config = SystemConfig(
        num_cores=draw(st.sampled_from(CORE_COUNTS)),
        l2=CacheGeometry(size_bytes=num_sets * assoc * 64, assoc=assoc),
        bus=BusConfig(model_contention=draw(st.booleans())),
        dram=DramConfig(model_banks=draw(st.booleans())),
        write_buffer=WriteBufferConfig(
            entries=draw(st.integers(min_value=1, max_value=6)),
            drain_cycles=draw(st.integers(min_value=1, max_value=400)),
            direct_read=draw(st.booleans()),
        ),
        cc=CcConfig(spill_probability=cc_prob),
        dsr=DsrConfig(leader_sets_per_policy=1,
                      psel_bits=draw(st.integers(min_value=1, max_value=6))),
        snug=SnugConfig(
            counter_bits=draw(st.integers(min_value=2, max_value=5)),
            p_threshold=draw(st.sampled_from((1, 2, 4, 8))),
            identify_cycles=identify,
            group_cycles=group,
            flip_enabled=draw(st.booleans()),
            flush_on_flip_to_taker=draw(st.booleans()),
            monitor_during_group=draw(st.booleans()),
        ),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        # 1.0 has the compiled kernel read each trace's gap column as its
        # issue gaps; the others give it a scaled copy, and the non-integer
        # ones exercise that copy's truncation.
        base_cpi=draw(st.sampled_from((1.0, 0.5, 1.37, 2.0, 3.3))),
    )
    return config, cc_prob


@st.composite
def trace_sets(draw, config):
    """Per-core traces: length 1 up, all-write or mixed, private or aliased
    address spaces, and one gap on core 0 long enough to cross two SNUG
    latches in a single access."""
    aliased = draw(st.booleans())
    all_writes = draw(st.booleans())
    span = 4 * config.l2.num_sets * config.l2.assoc
    period = config.snug.identify_cycles + config.snug.group_cycles
    traces = []
    for core in range(config.num_cores):
        n = draw(st.sampled_from((1, 2, 17, 40)))
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
        gaps = rng.integers(1, 30, n)
        if core == 0 and draw(st.booleans()):
            gaps[rng.integers(n)] = 2 * period + 1
        writes = np.ones(n, dtype=bool) if all_writes else rng.random(n) < 0.3
        trace = Trace(gaps, rng.integers(0, span, n), writes)
        traces.append(trace if aliased else trace.rebase(core))
    return traces


def run_generated(core_cls, config, scheme_name, cc_prob, traces,
                  monitor_chunk, warmup, max_events):
    """One run's observables: result (or error text), the scheme's state
    after the run, and the attached monitor's state."""
    kwargs = {"spill_probability": cc_prob} if scheme_name == "cc" else {}
    scheme = make_scheme(scheme_name, config, **kwargs)
    monitor = None
    if monitor_chunk is not None:
        monitor = OnlineDemandMonitor.from_config(config, chunk_accesses=monitor_chunk)
        scheme.attach_monitor(monitor)
    system = core_cls(config, scheme, list(traces))
    try:
        outcome = system.run(
            2_000, warmup_instructions=warmup, max_events=max_events
        ).to_dict()
    except Exception as exc:  # budget errors, and spec errors on 1-core spills
        outcome = (type(exc).__name__, str(exc))
    outcome = (outcome, live_state(scheme))
    if monitor is not None:
        outcome = (outcome, monitor.latches,
                   [d.tolist() for d in monitor.last_demand])
    return outcome


class TestFlippedHosting:
    """Index-bit flipping end to end, which the generated draws do not
    reach.  Each of two cores cycles three blocks of its set 0 in a 2-way
    cache: every access misses and its victims come back as shadow hits,
    so set 0 latches taker on both cores while set 1, never touched, stays
    a giver.  SNUG hosts every spill flipped (f=1) in the peer's set 1 and
    retrieves it from there; SNUG-Intra keeps it in the core's own set 1.
    Flipped lines are resident when the run ends."""

    @pytest.mark.parametrize("scheme_name,hosted,retrieved", [
        ("snug", "spills_hosted_flipped", "remote_hits"),
        ("snug_intra", "spills_intra", "intra_hits"),
    ])
    def test_flipped_spills_are_hosted_and_retrieved(self, scheme_name,
                                                     hosted, retrieved):
        config = SystemConfig(
            num_cores=2,
            l2=CacheGeometry(size_bytes=4 * 2 * 64, assoc=2),
            dsr=DsrConfig(leader_sets_per_policy=1),
            snug=SnugConfig(counter_bits=2, p_threshold=8,
                            identify_cycles=2_000, group_cycles=6_000,
                            flip_enabled=True),
        )
        addrs = np.array([0, 4, 8] * 4)
        trace = Trace(np.full(addrs.size, 5), addrs,
                      np.zeros(addrs.size, dtype=bool))
        traces = [trace.rebase(core) for core in range(2)]
        outcomes = [
            run_generated(cls, config, scheme_name, 0.0, traces, None, 0, None)
            for cls in (CmpSystem, CompiledCmpSystem)
        ]
        (result, state), _ = outcomes
        for core in range(2):
            assert result["stats"][f"l2_{core}.{hosted}"] > 0
            assert result["stats"][f"l2_{core}.{retrieved}"] > 0
        assert any(line[3] for cache in state["lines"] for lines in cache
                   for line in lines)
        assert outcomes[1] == outcomes[0]
