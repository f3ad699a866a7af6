"""Ledger load_runs table: schema v3, archival, baselines, regressions."""

import json
import sqlite3

import pytest

from repro.obs.ledger import (
    SCHEMA_VERSION,
    LoadRunRow,
    NullLedger,
    RunLedger,
    compare_load_to_baseline,
    extract_load_baseline,
    load_baseline_from_ledger,
)


def make_row(label="grp", achieved=200.0, p99=0.010, n_ok=100, **over):
    base = dict(
        label=label,
        config_fingerprint="cfg" + "0" * 61,
        sequence_fingerprint="seq" + "0" * 61,
        process="poisson",
        target="inproc",
        executor="thread",
        n_requests=n_ok,
        n_ok=n_ok,
        n_cached=0,
        n_rejected=0,
        n_errors=0,
        refusals={},
        offered_rps=achieved,
        achieved_rps=achieved,
        duration_s=n_ok / achieved,
        latency_mean_s=p99 / 2,
        latency_std_s=p99 / 10,
        p50_s=p99 / 3,
        p95_s=p99 * 0.8,
        p99_s=p99,
        cost_total=1.0,
        stages={"admit": {"p50": 1e-5, "p95": 2e-5, "p99": 3e-5}},
        sketches={},
        extra={"n_stage_violations": 0},
    )
    base.update(over)
    return LoadRunRow(**base)


class TestSchema:
    def test_fresh_database_is_v3_with_load_runs(self, tmp_path):
        path = str(tmp_path / "led.db")
        with RunLedger(path) as ledger:
            assert ledger.load_count() == 0
        conn = sqlite3.connect(path)
        try:
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            tables = {r[0] for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )}
        finally:
            conn.close()
        assert version == SCHEMA_VERSION == 3
        assert "load_runs" in tables

    def test_v2_database_migrates_to_v3(self, tmp_path):
        path = str(tmp_path / "led.db")
        with RunLedger(path):
            pass
        # Rewind to a v2 layout: drop the load table, stamp version 2.
        conn = sqlite3.connect(path)
        conn.execute("DROP TABLE load_runs")
        conn.execute("PRAGMA user_version = 2")
        conn.commit()
        conn.close()
        with RunLedger(path) as ledger:
            load_id = ledger.record_load_run(make_row())
            assert ledger.load_run(load_id).label == "grp"
        conn = sqlite3.connect(path)
        try:
            assert conn.execute(
                "PRAGMA user_version"
            ).fetchone()[0] == SCHEMA_VERSION
        finally:
            conn.close()


class TestArchival:
    def test_roundtrip_preserves_json_fields(self, tmp_path):
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            row = make_row(refusals={"rate_limited": 3},
                           sketches={"request": {"alpha": 0.01}})
            load_id = ledger.record_load_run(row)
            got = ledger.load_run(load_id)
        assert got.refusals == {"rate_limited": 3}
        assert got.sketches == {"request": {"alpha": 0.01}}
        assert got.stages == row.stages
        assert got.recorded_at > 0
        assert json.dumps(got.to_dict())  # JSON-ready

    def test_filters_and_ordering(self, tmp_path):
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            for i in range(5):
                ledger.record_load_run(
                    make_row(label="a" if i % 2 == 0 else "b")
                )
            a_rows = ledger.load_runs(label="a", limit=0)
            newest = ledger.load_runs(limit=2)
            assert len(a_rows) == 3
            assert [r.load_id for r in newest] == [5, 4]
            assert ledger.load_count() == 5

    def test_missing_load_run_raises_keyerror(self, tmp_path):
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            with pytest.raises(KeyError):
                ledger.load_run(404)

    def test_writable_probe(self, tmp_path):
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            assert ledger.writable() is True

    def test_null_ledger_is_inert(self):
        null = NullLedger()
        assert null.record_load_run(make_row()) == 0
        assert null.load_runs() == []
        assert null.load_count() == 0
        assert null.writable() is True
        with pytest.raises(KeyError):
            null.load_run(1)


class TestBaselineGate:
    def test_baseline_folds_groups(self, tmp_path):
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            ledger.record_load_run(make_row("x", achieved=100.0))
            ledger.record_load_run(make_row("x", achieved=120.0))
            ledger.record_load_run(make_row("y", achieved=50.0))
            baseline = load_baseline_from_ledger(ledger)
        assert set(baseline) == {"x", "y"}
        assert baseline["x"]["achieved_rps"] == pytest.approx(110.0)
        assert baseline["x"]["n_runs"] == 2

    def test_extract_requires_load_baseline_key(self):
        with pytest.raises(ValueError):
            extract_load_baseline({"ledger_baseline": {}})
        with pytest.raises(ValueError):
            extract_load_baseline({"load_baseline": {"g": {"p99_s": 1.0}}})
        good = {"load_baseline": {"g": {"achieved_rps": 10.0}}}
        assert extract_load_baseline(good)["g"]["achieved_rps"] == 10.0

    def test_matching_current_passes(self, tmp_path):
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            ledger.record_load_run(make_row())
            baseline = load_baseline_from_ledger(ledger)
            report = compare_load_to_baseline(ledger, baseline)
        assert report.ok
        assert not report.regressions
        assert "ok" in report.render()

    def test_throughput_collapse_is_flagged(self, tmp_path):
        baseline = {"grp": {"achieved_rps": 200.0, "p99_s": 0.010,
                            "n_runs": 1}}
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            ledger.record_load_run(make_row(achieved=100.0))
            report = compare_load_to_baseline(ledger, baseline)
        assert not report.ok
        assert report.regressions[0].group == "grp"

    def test_p99_blowup_is_flagged(self, tmp_path):
        baseline = {"grp": {"achieved_rps": 200.0, "p99_s": 0.010,
                            "n_runs": 1}}
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            ledger.record_load_run(make_row(p99=0.050))
            report = compare_load_to_baseline(ledger, baseline)
        assert not report.ok

    def test_missing_group_reported(self, tmp_path):
        baseline = {"ghost": {"achieved_rps": 10.0, "p99_s": 0.010}}
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            report = compare_load_to_baseline(ledger, baseline)
        assert report.missing_groups == ["ghost"]
        assert not report.ok

    def test_stat_gate_forgives_insignificant_latency_noise(self, tmp_path):
        # Mean latency wobbles inside the noise; Welch says no slowdown.
        baseline = {"grp": {
            "achieved_rps": 200.0, "p99_s": 0.010,
            "latency_mean_s": 0.005, "latency_std_s": 0.004,
            "n_samples": 100, "n_runs": 1,
        }}
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            ledger.record_load_run(
                make_row(latency_mean_s=0.0052, latency_std_s=0.004)
            )
            report = compare_load_to_baseline(ledger, baseline, stat=True)
        assert report.ok
        delta = report.deltas[0]
        assert delta.stat_tested

    @pytest.mark.parametrize("current, fixed_ok", [
        # significant mean-latency slowdown, p99 under its cap: the Welch
        # test adds a check on load rows, it does not replace the p99 cap
        (dict(latency_mean_s=0.006, latency_std_s=0.001), True),
        # p99 beyond the cap while Welch finds nothing
        (dict(p99=0.050, latency_mean_s=0.005, latency_std_s=0.001), False),
        # throughput drop with flat latency
        (dict(achieved=100.0, latency_mean_s=0.005, latency_std_s=0.001),
         False),
    ], ids=["latency-slowdown", "p99-blowup", "throughput-drop"])
    def test_stat_gate_flags(self, tmp_path, current, fixed_ok):
        baseline = {"grp": {
            "achieved_rps": 200.0, "p99_s": 0.010,
            "latency_mean_s": 0.005, "latency_std_s": 0.001,
            "n_samples": 100, "n_runs": 1,
        }}
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            ledger.record_load_run(make_row(**current))
            fixed = compare_load_to_baseline(ledger, baseline)
            report = compare_load_to_baseline(ledger, baseline, stat=True)
        assert fixed.ok is fixed_ok
        assert not report.ok
        assert report.deltas[0].stat_tested

    def test_baseline_depth_compares_newest_rows_only(self, tmp_path):
        baseline = {"grp": {"achieved_rps": 200.0, "p99_s": 0.010,
                            "n_runs": 1}}
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            for achieved in (100.0, 100.0, 200.0):  # oldest first
                ledger.record_load_run(make_row(achieved=achieved))
            newest = compare_load_to_baseline(ledger, baseline)
            every = compare_load_to_baseline(
                ledger, {"grp": dict(baseline["grp"], n_runs=0)}
            )
        assert newest.ok and newest.deltas[0].n_runs == 1
        assert not every.ok and every.deltas[0].n_runs == 3
