"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_characterize_args(self):
        args = build_parser().parse_args(["characterize", "ammp"])
        assert args.command == "characterize"
        assert args.benchmark == "ammp"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "doom3"])

    def test_run_mix_xor_programs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])  # neither given
        args = build_parser().parse_args(["run", "--mix", "c3_0"])
        assert args.mix == "c3_0"

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "huge", "overhead"])

    def test_survey_args(self):
        args = build_parser().parse_args(["survey", "--jobs", "2"])
        assert args.command == "survey"
        assert args.jobs == 2

    def test_survey_negative_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["survey", "--jobs", "-1"])

    def test_stream_flags(self, capsys):
        # Characterization picks its trace source itself: no --stream/--chunk.
        for command in (["survey"], ["characterize", "ammp"]):
            for flag in (["--stream"], ["--chunk", "4096"]):
                with pytest.raises(SystemExit):
                    build_parser().parse_args(command + flag)
                assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_snug_monitor_flag(self):
        args = build_parser().parse_args(
            ["run", "--mix", "c3_0", "--snug-monitor"]
        )
        assert args.snug_monitor
        args = build_parser().parse_args(["sweep"])
        assert not args.snug_monitor

    def test_backend_choices(self):
        args = build_parser().parse_args(["run", "--mix", "c3_0", "--backend", "socket"])
        assert args.backend == "socket"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--mix", "c3_0", "--backend", "mpi"])

    def test_bind_requires_socket_backend(self):
        with pytest.raises(SystemExit):
            main(["run", "--mix", "c3_0", "--bind", "127.0.0.1:9"])
        with pytest.raises(SystemExit):
            main(["run", "--mix", "c3_0", "--backend", "socket", "--bind", "nonsense"])

    def test_worker_args(self):
        args = build_parser().parse_args(["worker", "--connect", "10.0.0.2:7009"])
        assert args.command == "worker"
        assert args.connect == "10.0.0.2:7009"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])  # --connect required
        with pytest.raises(SystemExit):
            main(["worker", "--connect", "not-an-address"])

    def test_worker_spool_gc_flags(self):
        args = build_parser().parse_args(
            ["worker", "--connect", "h:1", "--spool", "d",
             "--spool-gc", "--spool-gc-age", "3600"]
        )
        assert args.spool_gc and args.spool_gc_age == 3600.0
        with pytest.raises(SystemExit):  # GC without a spool to collect
            main(["worker", "--connect", "127.0.0.1:1", "--spool-gc"])
        with pytest.raises(SystemExit):
            main(["worker", "--connect", "127.0.0.1:1", "--spool", "d",
                  "--spool-gc", "--spool-gc-age", "-1"])

    def test_store_subcommands_parse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])  # subcommand required
        for sub in ("verify", "repair", "compact"):
            args = build_parser().parse_args(["store", sub, "some/dir"])
            assert args.command == "store"
            assert args.store_command == sub
            assert args.dir == "some/dir"


class TestScenarioParser:
    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_scenario_run_args(self):
        args = build_parser().parse_args(["scenario", "run", "smoke-tiny"])
        assert args.command == "scenario"
        assert args.scenario_command == "run"
        assert args.file == "smoke-tiny"

    def test_scenario_run_takes_engine_flags(self):
        args = build_parser().parse_args(
            ["scenario", "run", "f.yaml", "--jobs", "2", "--store", "d", "--resume"]
        )
        assert args.jobs == 2 and args.store == "d" and args.resume

    def test_scenario_run_resume_requires_store(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run", "f.yaml", "--resume"])

    def test_scenario_validate_many_files(self):
        args = build_parser().parse_args(["scenario", "validate", "a.yaml", "b.yaml"])
        assert args.files == ["a.yaml", "b.yaml"]

    def test_dump_scenario_flag(self):
        args = build_parser().parse_args(
            ["run", "--mix", "c3_0", "--dump-scenario", "out.yaml"]
        )
        assert args.dump_scenario == "out.yaml"
        args = build_parser().parse_args(["sweep", "--dump-scenario", "s.yaml"])
        assert args.dump_scenario == "s.yaml"


class TestScenarioCommands:
    def preset(self, name="smoke-tiny"):
        from repro.scenario import preset_path

        return str(preset_path(name))

    def test_validate_presets_ok(self, capsys):
        from repro.scenario import preset_names

        files = [self.preset(n) for n in preset_names()]
        assert main(["scenario", "validate", *files]) == 0
        out = capsys.readouterr().out
        assert out.count("OK ") == len(files)

    def test_validate_bad_file_fails_with_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario: 1\nname: x\nworkload: {mixes: [c9_9]}\n")
        assert main(["scenario", "validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err and "workload.mixes[0]" in err

    def test_expand_lists_grid_points(self, capsys):
        assert main(["scenario", "expand", self.preset("epoch-sensitivity")]) == 0
        out = capsys.readouterr().out
        assert out.count("epoch-sensitivity__") == 6

    def test_expand_writes_files(self, tmp_path, capsys):
        out_dir = tmp_path / "expanded"
        assert main(["scenario", "expand", self.preset("epoch-sensitivity"),
                     "--out", str(out_dir)]) == 0
        from repro.scenario import Scenario

        written = sorted(out_dir.glob("*.yaml"))
        assert len(written) == 6
        for path in written:
            assert Scenario.load(path).name == path.stem

    def test_scenario_run_smoke(self, capsys):
        assert main(["scenario", "run", self.preset("smoke-tiny")]) == 0
        out = capsys.readouterr().out
        assert "scenario smoke-tiny" in out
        assert "Normalized to L2P" in out

    def test_scenario_run_by_preset_name(self, capsys):
        assert main(["scenario", "run", "smoke-tiny"]) == 0
        assert "scenario smoke-tiny" in capsys.readouterr().out

    def test_run_bad_file_clean_error(self, tmp_path, capsys):
        """scenario run/expand report malformed files as one-line errors
        (with the field path), not tracebacks."""
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario: 1\nname: x\nworkload: {mixes: [c9_9]}\n")
        assert main(["scenario", "run", str(bad)]) == 1
        assert "workload.mixes[0]" in capsys.readouterr().err
        assert main(["scenario", "expand", str(bad)]) == 1
        assert "workload.mixes[0]" in capsys.readouterr().err

    def test_run_unknown_preset_clean_error(self, capsys):
        assert main(["scenario", "run", "smoke-tiy"]) == 1
        err = capsys.readouterr().err
        assert "smoke-tiny" in err  # lists the real presets

    def test_multi_scenario_socket_refused(self, capsys):
        """A grid over the socket backend would strand workers after the
        first point's shutdown; the CLI refuses upfront."""
        assert main(["scenario", "run", self.preset("epoch-sensitivity"),
                     "--backend", "socket"]) == 1
        assert "one scenario per coordinator" in capsys.readouterr().err

    def test_env_trace_cache_does_not_switch_engine_path(self, tmp_path,
                                                         capsys, monkeypatch):
        """A plain run, even with $REPRO_TRACE_CACHE set, runs in process on
        the inline backend and says so in its engine summary line."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "tc"))
        assert main(["--scale", "tiny", "run", "--mix", "c1_0",
                     "--schemes", "l2p"]) == 0
        engine_lines = [line for line in capsys.readouterr().out.splitlines()
                        if line.startswith("engine:")]
        assert len(engine_lines) == 1
        assert engine_lines[0].startswith("engine: backend=inline (in-process); ")

    def test_dump_scenario_round_trips(self, tmp_path, capsys):
        """--dump-scenario snapshots the flag invocation as a file whose
        scenario run reproduces the same contract (same hash)."""
        from repro.scenario import Scenario, scenario_from_flags

        path = tmp_path / "snap.yaml"
        assert main([
            "--scale", "tiny", "run", "--mix", "c5_0",
            "--schemes", "l2p", "snug", "--dump-scenario", str(path),
        ]) == 0
        assert "scenario written to" in capsys.readouterr().out
        dumped = Scenario.load(path)
        flags = scenario_from_flags(scale="tiny", seed=7, mix="c5_0",
                                    schemes=("l2p", "snug"))
        assert dumped.content_hash() == flags.content_hash()


class TestStoreCommands:
    """`repro store verify|repair|compact` over real stores."""

    def _store(self, root):
        from repro.engine.store import ResultStore

        with ResultStore(root) as store:
            store.initialize({"k": 1})
            store.save("c1_0__l2p", {"result": {"ipc": [0.5]}})
            store.save("c1_0__snug", {"result": {"ipc": [0.7]}})
        return root

    def test_verify_clean_store(self, tmp_path, capsys):
        root = self._store(tmp_path / "s")
        assert main(["store", "verify", str(root)]) == 0
        assert "verify OK" in capsys.readouterr().out

    def test_verify_then_repair_bit_flip(self, tmp_path, capsys):
        root = self._store(tmp_path / "s")
        [segment] = [
            p for p in sorted(root.glob("shards/*/seg-*.seg"))
            if b"c1_0__snug" in p.read_bytes()
        ]
        data = bytearray(segment.read_bytes())
        data[data.find(b'"ipc"') + 2] ^= 0x01
        segment.write_bytes(bytes(data))

        assert main(["store", "verify", str(root)]) == 1
        out = capsys.readouterr().out
        assert "verify FAILED" in out and "repro store repair" in out
        assert main(["store", "repair", str(root)]) == 0
        assert "quarantined" in capsys.readouterr().out
        assert main(["store", "verify", str(root)]) == 0
        assert "verify OK" in capsys.readouterr().out

    def test_compact_reports_reclaim(self, tmp_path, capsys):
        from repro.engine.store import ResultStore

        root = self._store(tmp_path / "s")
        with ResultStore(root) as store:
            store.save("c1_0__l2p", {"result": {"ipc": [0.6]}})  # supersede
        assert main(["store", "compact", str(root)]) == 0
        assert "reclaimed" in capsys.readouterr().out

    def test_missing_store_is_clean_error(self, tmp_path, capsys):
        assert main(["store", "verify", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err


class TestCommands:
    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "%" in out

    def test_characterize_tiny(self, capsys):
        rc = main([
            "--scale", "tiny", "characterize", "applu",
            "--intervals", "3", "--interval-accesses", "500",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "applu" in out and "uniform" in out

    def test_survey_tiny(self, capsys):
        rc = main([
            "--scale", "tiny", "survey",
            "--intervals", "2", "--interval-accesses", "400",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Section 2.3 survey" in out
        assert "ammp" in out and "applu" in out

    def test_survey_parallel_output_identical(self, capsys):
        """--jobs N must print exactly what the serial path prints."""
        argv = ["--scale", "tiny", "survey", "--intervals", "2",
                "--interval-accesses", "400"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_run_tiny(self, capsys):
        rc = main([
            "--scale", "tiny", "run", "--mix", "c5_0",
            "--schemes", "l2p", "snug",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "snug" in out and "Normalized to L2P" in out

    def test_run_custom_programs(self, capsys):
        rc = main([
            "--scale", "tiny", "run",
            "--programs", "gzip", "swim", "mesa", "applu",
            "--schemes", "l2p", "dsr",
        ])
        assert rc == 0
        assert "custom" in capsys.readouterr().out

    def test_sweep_tiny(self, capsys):
        rc = main([
            "--scale", "tiny", "sweep", "--classes", "C5",
            "--combos-per-class", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out and "Figure 11" in out

    def test_run_backend_inline_summary_line(self, capsys, tmp_path):
        from repro.engine.execution import _trace_memo

        _trace_memo.clear()  # isolate counters from earlier in-process runs
        rc = main([
            "--scale", "tiny", "run", "--mix", "c5_0",
            "--schemes", "l2p", "snug",
            "--backend", "inline", "--trace-cache", str(tmp_path / "tc"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine: backend=inline" in out
        assert "2 task(s): 0 resumed, 2 simulated" in out
        assert "traces:" in out and "1 generated" in out

    def test_run_trace_cache_hit_reported(self, capsys, tmp_path):
        from repro.engine.execution import _trace_memo

        argv = [
            "--scale", "tiny", "run", "--mix", "c5_1",
            "--schemes", "l2p", "--backend", "process", "--jobs", "1",
            "--trace-cache", str(tmp_path / "tc"),
        ]
        _trace_memo.clear()
        assert main(argv) == 0
        capsys.readouterr()
        _trace_memo.clear()
        assert main(argv) == 0
        assert "1 cache hit(s)" in capsys.readouterr().out

    def test_sweep_socket_cli_end_to_end(self, capsys, monkeypatch):
        """Acceptance: a socket-backend sweep driven purely through the CLI
        completes against two real `repro worker` subprocesses, and each
        worker processes chunks.

        The coordinator hands no worker a second chunk before both workers
        have their first (the sweep has four).  Otherwise the first worker
        to connect can drain the whole sweep before the second one has
        started; the coordinator then closes its listener, and the late
        worker cannot connect."""
        import os
        import re
        import socket as socketlib
        import subprocess
        import sys
        import threading
        import time

        from repro.engine.backends import socket as socket_backend

        real_claim = socket_backend._SweepState.claim
        served = set()  # handler threads (one per worker) given a chunk

        def claim_after_both_workers_got_one(state):
            me = threading.get_ident()
            with state.cond:
                deadline = time.monotonic() + 120
                while (me in served and len(served) < 2
                       and time.monotonic() < deadline):
                    state.cond.wait(0.05)
            claimed = real_claim(state)
            with state.cond:
                served.add(me)
            return claimed

        monkeypatch.setattr(
            socket_backend._SweepState, "claim", claim_after_both_workers_got_one
        )

        probe = socketlib.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        rc_box = {}

        def coordinator():
            rc_box["rc"] = main([
                "--scale", "tiny", "sweep", "--classes", "C5",
                "--combos-per-class", "1",
                "--backend", "socket", "--bind", f"127.0.0.1:{port}",
            ])

        coord = threading.Thread(target=coordinator)
        coord.start()
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", f"127.0.0.1:{port}"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            for _ in range(2)
        ]
        coord.join(timeout=240)
        worker_out = [w.communicate(timeout=60)[0] for w in workers]
        assert not coord.is_alive(), "coordinator sweep did not finish"
        assert rc_box["rc"] == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out and "Figure 11" in out
        assert "backend=socket" in out
        assert f"repro worker --connect 127.0.0.1:{port}" in out
        for w, text in zip(workers, worker_out):
            assert w.returncode == 0, text
            assert re.search(r"processed [1-9]\d* chunk", text), text


class TestServiceParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--root", "/tmp/svc"])
        assert args.command == "serve"
        assert args.bind == "127.0.0.1:7781"
        assert args.workers == 1 and args.jobs == 0 and args.max_attempts == 3

    def test_serve_requires_root(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_validation(self):
        with pytest.raises(SystemExit):
            main(["serve", "--root", "/tmp/svc", "--bind", "nonsense"])
        with pytest.raises(SystemExit):
            main(["serve", "--root", "/tmp/svc", "--workers", "0"])
        with pytest.raises(SystemExit):
            main(["serve", "--root", "/tmp/svc", "--max-attempts", "0"])

    def test_job_verbs_parse(self):
        args = build_parser().parse_args(["job", "submit", "smoke-tiny", "--wait"])
        assert args.job_command == "submit" and args.wait
        args = build_parser().parse_args(["job", "status", "job-000001"])
        assert args.job_command == "status" and args.job_id == "job-000001"
        args = build_parser().parse_args(
            ["job", "result", "job-000001", "--connect", "10.0.0.1:9999", "--out", "x"]
        )
        assert args.connect == "10.0.0.1:9999" and args.out == "x"
        assert build_parser().parse_args(["job", "list"]).job_command == "list"

    def test_job_validation(self):
        with pytest.raises(SystemExit):
            main(["job", "list", "--connect", "nonsense"])
        with pytest.raises(SystemExit):
            main(["job", "submit", "smoke-tiny", "--wait-timeout", "0"])


class TestServiceCommands:
    def scenario_file(self, tmp_path, seed=7):
        import json as json_mod

        from repro.experiments.runner import RunPlan
        from repro.scenario import Scenario, SystemSpec, WorkloadSpec

        scenario = Scenario(
            name=f"cli-e2e-{seed}",
            system=SystemSpec(scale="tiny", seed=seed),
            workload=WorkloadSpec(mixes=("c5_0",)),
            schemes=("l2p",),
            plan=RunPlan(n_accesses=1_200, target_instructions=20_000,
                         warmup_instructions=10_000, seed=seed),
        )
        path = tmp_path / "scenario.yaml"  # JSON is a YAML subset
        path.write_text(json_mod.dumps(scenario.to_dict()))
        return path

    def test_job_round_trip_over_live_service(self, tmp_path, capsys):
        from repro.service import SimulationService

        path = self.scenario_file(tmp_path)
        with SimulationService(tmp_path / "svc", port=0, sync=False) as service:
            connect = ["--connect", f"127.0.0.1:{service.port}"]
            rc = main(["job", "submit", str(path), "--wait", *connect])
            out = capsys.readouterr().out
            assert rc == 0
            assert "state=done" in out and "job-000001" in out
            rc = main(["job", "submit", str(path), *connect])
            out = capsys.readouterr().out
            assert rc == 0 and "deduplicated=true" in out
            rc = main(["job", "result", "job-000001", *connect,
                       "--out", str(tmp_path / "payloads")])
            out = capsys.readouterr().out
            assert rc == 0 and "wrote 1 task payload(s)" in out
            assert (tmp_path / "payloads" / "c5_0__l2p.bin").exists()
            rc = main(["job", "list", *connect])
            assert "2 job(s)" in capsys.readouterr().out
            assert rc == 0

    def test_job_cancel_unknown_id_clean_error(self, tmp_path, capsys):
        from repro.service import SimulationService

        with SimulationService(tmp_path / "svc", port=0, sync=False) as service:
            rc = main(["job", "status", "job-999999",
                       "--connect", f"127.0.0.1:{service.port}"])
        assert rc == 1
        assert "job-999999" in capsys.readouterr().err

    def test_job_connect_refused_clean_error(self, capsys):
        # Nothing listens on this port of TEST-NET; connect fails fast.
        rc = main(["job", "list", "--connect", "127.0.0.1:1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_job_submit_grid_refused(self, tmp_path, capsys):
        from repro.service import SimulationService

        grid = tmp_path / "grid.yaml"
        grid.write_text(
            '{"grid": 1, "name": "g", "base": {"name": "g", "system": {"scale": "tiny"}, '
            '"workload": {"mixes": ["c5_0"]}, "schemes": ["l2p"]}, '
            '"axes": {"system.seed": [1, 2]}}'
        )
        with SimulationService(tmp_path / "svc", port=0, sync=False) as service:
            rc = main(["job", "submit", str(grid),
                       "--connect", f"127.0.0.1:{service.port}"])
        assert rc == 1
        assert "scenario grid" in capsys.readouterr().err
