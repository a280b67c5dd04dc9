"""Unit tests for repro.core.cmp (CmpSystem, whose run is the reference loop)."""

import numpy as np
import pytest

from tests.helpers import tiny_system

from repro.common.errors import SimulationError
from repro.core.cmp import CmpSystem
from repro.schemes.l2p import PrivateL2
from repro.workloads.spec2000 import make_benchmark_trace
from repro.workloads.trace import Trace


def traces_for(cfg, n=400, bench="gzip"):
    return [
        make_benchmark_trace(bench, cfg.l2.num_sets, n, seed=s).rebase(s)
        for s in range(cfg.num_cores)
    ]


class TestRun:
    def test_basic_run(self):
        cfg = tiny_system()
        res = CmpSystem(cfg, PrivateL2(cfg), traces_for(cfg)).run(5_000)
        assert res.scheme == "l2p"
        assert len(res.ipc) == 4
        assert all(0 < x <= 1.0 for x in res.ipc)
        assert all(i >= 5_000 for i in res.instructions)

    def test_wrong_trace_count(self):
        cfg = tiny_system()
        with pytest.raises(SimulationError):
            CmpSystem(cfg, PrivateL2(cfg), traces_for(cfg)[:2])

    def test_bad_target(self):
        cfg = tiny_system()
        sys_ = CmpSystem(cfg, PrivateL2(cfg), traces_for(cfg))
        with pytest.raises(SimulationError):
            sys_.run(0)

    def test_deterministic(self):
        cfg = tiny_system()
        r1 = CmpSystem(cfg, PrivateL2(cfg), traces_for(cfg)).run(5_000)
        r2 = CmpSystem(cfg, PrivateL2(cfg), traces_for(cfg)).run(5_000)
        assert r1.ipc == r2.ipc
        assert r1.outcome_counts == r2.outcome_counts

    def test_outcome_counts_total(self):
        cfg = tiny_system()
        res = CmpSystem(cfg, PrivateL2(cfg), traces_for(cfg)).run(3_000)
        assert sum(res.outcome_counts.values()) == sum(res.accesses)

    def test_event_budget_guard(self):
        cfg = tiny_system()
        sys_ = CmpSystem(cfg, PrivateL2(cfg), traces_for(cfg))
        with pytest.raises(SimulationError):
            sys_.run(10_000_000, max_events=10)

    def test_throughput_property(self):
        cfg = tiny_system()
        res = CmpSystem(cfg, PrivateL2(cfg), traces_for(cfg)).run(2_000)
        assert res.throughput == pytest.approx(sum(res.ipc))
        assert "l2p" in res.summary()


class TestWarmup:
    def test_warmup_improves_measured_ipc(self):
        """Warm caches beat cold-start measurement for reuse-heavy traces."""
        cfg = tiny_system()
        cold = CmpSystem(cfg, PrivateL2(cfg), traces_for(cfg)).run(4_000)
        warm = CmpSystem(cfg, PrivateL2(cfg), traces_for(cfg)).run(
            4_000, warmup_instructions=8_000
        )
        assert sum(warm.ipc) > sum(cold.ipc)

    def test_window_outcomes_exclude_warmup(self):
        cfg = tiny_system()
        res = CmpSystem(cfg, PrivateL2(cfg), traces_for(cfg)).run(
            2_000, warmup_instructions=2_000
        )
        for c in range(4):
            window_total = sum(res.window_outcomes[c].values())
            assert 0 < window_total < res.accesses[c]

    def test_negative_warmup_rejected(self):
        cfg = tiny_system()
        sys_ = CmpSystem(cfg, PrivateL2(cfg), traces_for(cfg))
        with pytest.raises(SimulationError):
            sys_.run(100, warmup_instructions=-1)


class TestGlobalTimeOrder:
    def test_scheme_sees_nondecreasing_now(self):
        cfg = tiny_system()

        seen = []

        class Spy(PrivateL2):
            def access(self, core, addr, w, now):
                seen.append(now)
                return super().access(core, addr, w, now)

        CmpSystem(cfg, Spy(cfg), traces_for(cfg)).run(3_000)
        assert all(a <= b for a, b in zip(seen, seen[1:]))
