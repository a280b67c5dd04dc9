"""Unit tests for trace-core stepping.

The stepping methods (``next_access``/``complete``/``done``) of
:class:`~repro.core.cpu.TraceCore` are the spec, which these tests drive;
the compiled kernel steps the same cores and is held to them at the
``SimResult`` level by the property, golden and conformance suites.
"""

import numpy as np
import pytest

from repro.core.cpu import TraceCore
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
        core = TraceCore(
            0, mk_trace([10, 5]), base_cpi=1.0, l1_latency=1
        )
        assert core.peek_issue_time() == 10
        issue, addr, write = core.next_access()
        assert issue == 10 and addr == 0 and write is False
        core.complete(issue, l2_latency=100)
        assert core.time == 10 + 1 + 100

    def test_cpi_scales_gap(self):
        core = TraceCore(0, mk_trace([10]), base_cpi=2.0, l1_latency=1)
        assert core.peek_issue_time() == 20

    def test_trace_wraps(self):
        core = TraceCore(0, mk_trace([1, 1]))
        for _ in range(5):
            issue, _, _ = core.next_access()
            core.complete(issue, 0)
        assert core.wraps == 2
        assert core.accesses == 5

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceCore(0, mk_trace([]))  # TraceError first, actually


class TestMeasurement:
    def test_finish_crossing(self):
        core = TraceCore(0, mk_trace([10, 10, 10]))
        core.target_instructions = 25
        while not core.done:
            issue, _, _ = core.next_access()
            core.complete(issue, 4)
        assert core.instructions >= 25
        assert core.finish_time == core.time

    def test_ipc_over_window(self):
        core = TraceCore(0, mk_trace([10]))
        core.target_instructions = 30
        while not core.done:
            issue, _, _ = core.next_access()
            core.complete(issue, 4)  # each access: 10 instr, 15 cycles
        assert core.ipc() == pytest.approx(30 / 45)

    def test_warmup_excluded_from_ipc(self):
        core = TraceCore(0, mk_trace([10]))
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
        core = TraceCore(0, mk_trace([10]))
        issue, _, _ = core.next_access()
        core.complete(issue, 9)
        assert core.ipc() == pytest.approx(10 / 20)
