"""Unit tests for the perf-trend gate (:mod:`repro.analysis.trend`)."""

import json

import pytest

from repro.analysis.trend import (
    DEFAULT_BENCHES,
    TrendCheck,
    append_history,
    check_trend,
    compare_bench,
    history_record,
    load_history,
    render_trend,
    trend_ok,
)


def doc(geomean, scale="small", **extra):
    return {"geomean_speedup": geomean, "scale": scale, **extra}


class TestCompareBench:
    def test_within_tolerance_passes(self):
        check = compare_bench("sim_speed", doc(1.6), doc(1.5), tolerance=0.25)
        assert check.ok
        assert check.ratio == pytest.approx(1.5 / 1.6)

    def test_improvement_passes(self):
        assert compare_bench("sim_speed", doc(1.6), doc(2.4)).ok

    def test_regression_past_tolerance_fails(self):
        check = compare_bench("sim_speed", doc(2.0), doc(1.4), tolerance=0.25)
        assert not check.ok
        assert "regressed" in check.note

    def test_boundary_is_inclusive(self):
        # current == ref * (1 - tol) exactly: not *below* the floor -> ok.
        assert compare_bench("p", doc(2.0), doc(1.5), tolerance=0.25).ok

    def test_missing_reference_passes_with_note(self):
        check = compare_bench("profiler", None, doc(8.0))
        assert check.ok
        assert "no committed reference" in check.note

    def test_missing_current_fails(self):
        check = compare_bench("profiler", doc(8.0), None)
        assert not check.ok

    def test_scale_mismatch_skips(self):
        check = compare_bench("sim_speed", doc(1.6, scale="small"), doc(0.5, scale="tiny"))
        assert check.ok
        assert "not comparable" in check.note

    def test_malformed_artifact_fails(self):
        assert not compare_bench("sim_speed", doc(1.6), {"scale": "small"}).ok


class TestCheckTrend:
    def test_reads_artifacts_from_directories(self, tmp_path):
        ref, cur = tmp_path / "ref", tmp_path / "cur"
        ref.mkdir(), cur.mkdir()
        (ref / "BENCH_sim_speed.json").write_text(json.dumps(doc(2.0)))
        (cur / "BENCH_sim_speed.json").write_text(json.dumps(doc(1.9)))
        (ref / "BENCH_profiler.json").write_text(json.dumps(doc(8.0)))
        (cur / "BENCH_profiler.json").write_text(json.dumps(doc(4.0)))
        checks = check_trend(ref, cur, tolerance=0.25)
        assert [c.bench for c in checks] == list(DEFAULT_BENCHES)
        assert [c.ok for c in checks] == [True, False]
        assert not trend_ok(checks)
        assert trend_ok(checks, relax=True)

    def test_committed_refs_compare_clean_against_themselves(self):
        """The in-repo reference artifacts always pass against themselves —
        guards the artifact schema the gate depends on."""
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
        checks = check_trend(bench_dir, bench_dir)
        assert all(c.ok for c in checks), [c.note for c in checks]

    def test_unreadable_artifact_is_failing_check_not_crash(self, tmp_path):
        """A torn BENCH json surfaces as a failed check (warn-only under
        relax), never as an unhandled JSONDecodeError."""
        ref, cur = tmp_path / "ref", tmp_path / "cur"
        ref.mkdir(), cur.mkdir()
        (ref / "BENCH_sim_speed.json").write_text('{"geomean_speedup": 2.0, "sca')
        (cur / "BENCH_sim_speed.json").write_text(json.dumps(doc(2.0)))
        checks = check_trend(ref, cur, benches=("sim_speed",))
        assert not checks[0].ok
        assert "unreadable artifact" in checks[0].note
        assert not trend_ok(checks)
        assert trend_ok(checks, relax=True)

    def test_render_mentions_relaxed_failures(self):
        checks = [TrendCheck("sim_speed", False, "geomean_speedup regressed")]
        assert "FAIL" in render_trend(checks)
        assert "WARN" in render_trend(checks, relax=True)


class TestHistory:
    def test_record_keeps_headline_fields(self, tmp_path):
        (tmp_path / "BENCH_sim_speed.json").write_text(
            json.dumps(doc(1.5, relaxed_timing=False))
        )
        rec = history_record(tmp_path, ["sim_speed"], rev="abc123", note="n")
        assert rec["rev"] == "abc123"
        assert rec["note"] == "n"
        assert rec["benches"]["sim_speed"] == {
            "geomean_speedup": 1.5,
            "scale": "small",
            "relaxed_timing": False,
        }

    def test_missing_bench_recorded_as_hole(self, tmp_path):
        rec = history_record(tmp_path, ["sim_speed", "profiler"])
        assert rec["benches"] == {"sim_speed": None, "profiler": None}

    def test_append_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "nested" / "history.jsonl"
        append_history(path, {"rev": "a"})
        append_history(path, {"rev": "b"})
        assert [e["rev"] for e in load_history(path)] == ["a", "b"]

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "none.jsonl") == []

    def test_load_skips_torn_last_line(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, {"rev": "a"})
        with open(path, "a") as fh:
            fh.write('{"rev": "tor')  # crash mid-append
        assert [e["rev"] for e in load_history(path)] == ["a"]

    def test_committed_history_file_is_loadable(self):
        from pathlib import Path

        history = Path(__file__).resolve().parents[2] / "benchmarks" / "history.jsonl"
        entries = load_history(history)
        assert entries, "benchmarks/history.jsonl should hold at least the seed entry"
        assert all("benches" in e for e in entries)


class TestTrendScript:
    def test_cli_script_pass_and_fail(self, tmp_path, monkeypatch):
        import importlib.util
        from pathlib import Path

        script = Path(__file__).resolve().parents[2] / "benchmarks" / "trend.py"
        spec = importlib.util.spec_from_file_location("bench_trend", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)

        ref, cur, good = tmp_path / "ref", tmp_path / "cur", tmp_path / "good"
        ref.mkdir(), cur.mkdir(), good.mkdir()
        for d, val in ((ref, 2.0), (cur, 0.5), (good, 2.1)):
            (d / "BENCH_sim_speed.json").write_text(json.dumps(doc(val)))
            (d / "BENCH_profiler.json").write_text(json.dumps(doc(val * 4)))

        monkeypatch.delenv("REPRO_BENCH_RELAX", raising=False)
        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        assert mod.main(["--ref", str(ref), "--current", str(good)]) == 0
        assert mod.main(["--ref", str(ref), "--current", str(cur)]) == 1
        monkeypatch.setenv("REPRO_BENCH_RELAX", "1")
        assert mod.main(["--ref", str(ref), "--current", str(cur)]) == 0

        # --append records the run (regressions included) as one JSON line.
        history = tmp_path / "history.jsonl"
        mod.main(["--ref", str(ref), "--current", str(cur), "--append", str(history)])
        mod.main(["--ref", str(ref), "--current", str(good), "--append", str(history)])
        from repro.analysis.trend import load_history

        entries = load_history(history)
        assert len(entries) == 2
        assert entries[0]["benches"]["sim_speed"]["geomean_speedup"] == 0.5
        assert entries[1]["benches"]["sim_speed"]["geomean_speedup"] == 2.1

    def test_cli_script_refuses_vacuous_defaults(self, tmp_path, monkeypatch):
        """Comparing a directory against itself (or running without any
        current dir) is refused — it could only ever print a false green."""
        import importlib.util
        from pathlib import Path

        script = Path(__file__).resolve().parents[2] / "benchmarks" / "trend.py"
        spec = importlib.util.spec_from_file_location("bench_trend2", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)

        ref = tmp_path / "ref"
        ref.mkdir()
        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        monkeypatch.setattr(mod, "DEFAULT_CURRENT", tmp_path / "no-bench-out")
        with pytest.raises(SystemExit):
            mod.main(["--ref", str(ref)])  # no current dir anywhere
        with pytest.raises(SystemExit):
            mod.main(["--ref", str(ref), "--current", str(ref)])  # self-compare
