"""Unit tests for trace-core stepping.

The stepping methods (``next_access``/``complete``/``done``) are specified
by :class:`~repro.core.reference.ReferenceTraceCore`, which these tests
drive; the production :class:`~repro.core.cpu.TraceCore` is stepped by the
compiled kernel and is held to the reference at the ``SimResult`` level
by the property, golden and conformance suites.  Construction and the
issue-time peek are checked on both.
"""

import numpy as np
import pytest

from repro.core.cpu import TraceCore
from repro.core.reference import ReferenceTraceCore
from repro.workloads.trace import Trace


def mk_trace(gaps, addrs=None):
    n = len(gaps)
    return Trace(
        np.array(gaps),
        np.array(addrs if addrs is not None else range(n)),
        np.zeros(n, dtype=bool),
    )


class TestStepping:
    def test_issue_time_includes_gap(self):
        core = ReferenceTraceCore(
            0, mk_trace([10, 5]), base_cpi=1.0, l1_latency=1
        )
        assert core.peek_issue_time() == 10
        issue, addr, write = core.next_access()
        assert issue == 10 and addr == 0 and write is False
        core.complete(issue, l2_latency=100)
        assert core.time == 10 + 1 + 100

    def test_cpi_scales_gap(self):
        for cls in (TraceCore, ReferenceTraceCore):
            core = cls(0, mk_trace([10]), base_cpi=2.0, l1_latency=1)
            assert core.peek_issue_time() == 20

    def test_trace_wraps(self):
        core = ReferenceTraceCore(0, mk_trace([1, 1]))
        for _ in range(5):
            issue, _, _ = core.next_access()
            core.complete(issue, 0)
        assert core.wraps == 2
        assert core.accesses == 5

    def test_empty_trace_rejected(self):
        for cls in (TraceCore, ReferenceTraceCore):
            with pytest.raises(ValueError):
                cls(0, mk_trace([]))  # TraceError first, actually


class TestMeasurement:
    def test_finish_crossing(self):
        core = ReferenceTraceCore(0, mk_trace([10, 10, 10]))
        core.target_instructions = 25
        while not core.done:
            issue, _, _ = core.next_access()
            core.complete(issue, 4)
        assert core.instructions >= 25
        assert core.finish_time == core.time

    def test_ipc_over_window(self):
        core = ReferenceTraceCore(0, mk_trace([10]))
        core.target_instructions = 30
        while not core.done:
            issue, _, _ = core.next_access()
            core.complete(issue, 4)  # each access: 10 instr, 15 cycles
        assert core.ipc() == pytest.approx(30 / 45)

    def test_warmup_excluded_from_ipc(self):
        core = ReferenceTraceCore(0, mk_trace([10]))
        core.target_instructions = 30
        core.warmup_instructions = 20
        while not core.done:
            issue, _, _ = core.next_access()
            core.complete(issue, 4)
        # Warmup ends after 2 accesses (20 instr) at t=30; finish after 5
        # accesses (50 instr) at t=75; window = 45 cycles for 30 instructions.
        assert core.warmup_end_time == 30
        assert core.finish_time == 75
        assert core.ipc() == pytest.approx(30 / 45)

    def test_running_ipc_before_done(self):
        core = ReferenceTraceCore(0, mk_trace([10]))
        issue, _, _ = core.next_access()
        core.complete(issue, 9)
        assert core.ipc() == pytest.approx(10 / 20)
