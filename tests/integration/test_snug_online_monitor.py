"""End-to-end: SNUG driven by an online streaming demand monitor.

The online path (:class:`~repro.schemes.snug.OnlineDemandMonitor`: a chunked
stack-distance profiler fed from the live access stream, cut at every
Stage-I latch) must produce the *same simulation* as the offline path (the
per-access reference profiler run over the recorded streams, its
classifications replayed through a
:class:`~repro.schemes.snug.ScheduledGtMonitor`).  That equality is the
"characterize alongside simulation" guarantee: moving the profile from a
precomputed artifact into the run changes nothing but the memory footprint.
"""

import numpy as np
import pytest

from repro.cache.stackdist import StackDistanceProfiler
from repro.common.config import tiny_config
from repro.engine import ParallelRunner
from repro.experiments.runner import RunPlan, run_traces
from repro.schemes.snug import OnlineDemandMonitor, ScheduledGtMonitor, SnugCache
from repro.core.cmp import CmpSystem
from repro.workloads.mixes import build_mix_traces, get_mix

MIX = get_mix("c1_0")
TARGET = 25_000
WARMUP = 10_000
N_ACCESSES = 1_500


def monitored_run(monitor):
    """One tiny-scale SNUG simulation with *monitor* attached."""
    config = tiny_config(seed=11)
    traces = build_mix_traces(MIX, config.l2.num_sets, N_ACCESSES, seed=4)
    scheme = SnugCache(config).attach_monitor(monitor)
    system = CmpSystem(config, scheme, traces)
    return system.run(TARGET, warmup_instructions=WARMUP)


def offline_schedule(monitor: OnlineDemandMonitor):
    """Replay the recorded epoch streams through the per-access spec profiler."""
    config = tiny_config(seed=11)
    profilers = [
        StackDistanceProfiler(config.l2.num_sets, config.a_threshold)
        for _ in range(config.num_cores)
    ]
    schedule = []
    for epoch in monitor.epoch_streams:
        vectors = []
        for core, stream in enumerate(epoch):
            profilers[core].reference_many(np.asarray(stream, dtype=np.int64))
            demand = profilers[core].end_interval()
            vectors.append([d > config.l2.assoc for d in demand.tolist()])
        schedule.append(vectors)
    return schedule


class TestOnlineEqualsOffline:
    def test_online_monitor_matches_offline_profile_path(self):
        online_monitor = OnlineDemandMonitor.from_config(
            tiny_config(seed=11), chunk_accesses=257, record_streams=True
        )
        online = monitored_run(online_monitor)
        assert online_monitor.latched_demand, "run latched no epochs"

        schedule = offline_schedule(online_monitor)
        offline = monitored_run(ScheduledGtMonitor(schedule))
        assert online.to_dict() == offline.to_dict()

    def test_online_latches_match_offline_replay_bitwise(self):
        monitor = OnlineDemandMonitor.from_config(
            tiny_config(seed=11), chunk_accesses=64, record_streams=True
        )
        monitored_run(monitor)
        config = tiny_config(seed=11)
        profilers = [
            StackDistanceProfiler(config.l2.num_sets, config.a_threshold)
            for _ in range(config.num_cores)
        ]
        for latch, epoch in zip(monitor.latched_demand, monitor.epoch_streams):
            for core, stream in enumerate(epoch):
                profilers[core].reference_many(np.asarray(stream, dtype=np.int64))
                assert (latch[core] == profilers[core].end_interval()).all()

    def test_schedule_exhaustion_fails_loudly(self):
        from repro.common.errors import SimulationError

        with pytest.raises(SimulationError):
            monitored_run(ScheduledGtMonitor([]))


class TestMonitorModeChangesClassificationSourceOnly:
    def test_monitored_run_differs_from_counters_but_is_deterministic(self):
        config = tiny_config(seed=11)
        traces = build_mix_traces(MIX, config.l2.num_sets, N_ACCESSES, seed=4)
        plain = run_traces("snug", config, traces, TARGET, WARMUP)
        monitored = [
            run_traces("snug", config, traces, TARGET, WARMUP, snug_monitor=True)
            for _ in range(2)
        ]
        assert monitored[0].to_dict() == monitored[1].to_dict()
        # Same access stream, same substrate — only the G/T source differs.
        assert monitored[0].scheme == plain.scheme == "snug"

    def test_non_snug_scheme_rejects_monitor_request(self):
        from repro.common.errors import ConfigError

        config = tiny_config(seed=11)
        traces = build_mix_traces(MIX, config.l2.num_sets, N_ACCESSES, seed=4)
        with pytest.raises(ConfigError):
            run_traces("l2p", config, traces, TARGET, WARMUP, snug_monitor=True)


class TestMonitorUnderEngine:
    def plan(self) -> RunPlan:
        return RunPlan(
            n_accesses=N_ACCESSES,
            target_instructions=TARGET,
            warmup_instructions=WARMUP,
            seed=4,
            cc_probs=(0.0, 1.0),
            snug_monitor=True,
        )

    def test_engine_inline_matches_serial_with_monitor(self):
        """The engine attaches the monitor to SNUG only: its results equal
        L2P run plain and SNUG run monitored on the same traces."""
        config = tiny_config(seed=11)
        plan = self.plan()
        traces = build_mix_traces(MIX, config.l2.num_sets, N_ACCESSES, seed=4)
        serial = {
            "l2p": run_traces("l2p", config, traces, TARGET, WARMUP),
            "snug": run_traces("snug", config, traces, TARGET, WARMUP,
                               snug_monitor=True),
        }
        runner = ParallelRunner(config, plan, schemes=("l2p", "snug"), jobs=0)
        [engine] = runner.run([MIX])
        assert set(engine.results) == set(serial)
        for name, res in serial.items():
            assert engine.results[name].to_dict() == res.to_dict()

    def test_snug_intra_inherits_the_monitor_path(self):
        config = tiny_config(seed=11)
        traces = build_mix_traces(MIX, config.l2.num_sets, N_ACCESSES, seed=4)
        a = run_traces("snug_intra", config, traces, TARGET, WARMUP, snug_monitor=True)
        b = run_traces("snug_intra", config, traces, TARGET, WARMUP, snug_monitor=True)
        assert a.to_dict() == b.to_dict()
