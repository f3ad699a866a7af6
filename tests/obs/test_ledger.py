"""Run ledger: persistence, concurrency, re-open, and the regression gate."""

import json
import threading

import pytest

from repro.obs.events import EventBus
from repro.obs.ledger import (
    SCHEMA_VERSION,
    NullLedger,
    RunLedger,
    RunRow,
    baseline_from_ledger,
    compare_to_baseline,
    extract_baseline,
    get_ledger,
    set_ledger,
    use_ledger,
)


def make_row(**overrides):
    base = dict(
        source="sweep", workflow="montage-30-i0", family="montage",
        n_tasks=30, algorithm="heft_budg", budget=0.5, sigma_ratio=0.5,
        planned_makespan=100.0, planned_cost=0.4, within_budget_plan=True,
        sim_makespan=110.0, sim_cost=0.38, success_rate=1.0, n_reps=5,
        n_vms=3, sched_seconds=0.01, extra={"note": "test"},
    )
    base.update(overrides)
    return RunRow(**base)


class TestRoundtrip:
    def test_record_assigns_id_and_reads_back(self):
        with RunLedger() as ledger:
            run_id = ledger.record(make_row())
            assert run_id == 1
            row = ledger.run(run_id)
            assert row.algorithm == "heft_budg"
            assert row.within_budget_plan is True
            assert row.extra == {"note": "test"}
            assert row.recorded_at > 0
            assert row.version  # auto-filled

    def test_unknown_run_raises_keyerror(self):
        with RunLedger() as ledger:
            with pytest.raises(KeyError):
                ledger.run(99)

    def test_query_filters(self):
        with RunLedger() as ledger:
            ledger.record(make_row(algorithm="heft_budg"))
            ledger.record(make_row(algorithm="bdt"))
            ledger.record(make_row(algorithm="bdt", source="service"))
            assert len(ledger.runs(algorithm="bdt")) == 2
            assert len(ledger.runs(source="service")) == 1
            # workflow filter matches the family column too
            assert len(ledger.runs(workflow="montage")) == 3
            assert ledger.count() == 3

    def test_runs_are_newest_first_and_limited(self):
        with RunLedger() as ledger:
            for i in range(5):
                ledger.record(make_row(budget=float(i)))
            rows = ledger.runs(limit=2)
            assert [r.budget for r in rows] == [4.0, 3.0]
            assert len(ledger.runs(limit=0)) == 5

    def test_row_dict_roundtrip(self):
        row = make_row()
        again = RunRow.from_dict(row.to_dict())
        assert again == row
        with pytest.raises(ValueError):
            RunRow.from_dict({"nope": 1})

    def test_record_publishes_run_recorded_event(self):
        bus = EventBus()
        with RunLedger(bus=bus) as ledger:
            ledger.record(make_row(trace_id="job-7"))
        events = bus.history(types=("run.recorded",))
        assert len(events) == 1
        assert events[0].data["trace_id"] == "job-7"
        assert events[0].data["run_id"] == 1


class TestPersistence:
    def test_file_ledger_survives_reopen(self, tmp_path):
        path = str(tmp_path / "runs.db")
        with RunLedger(path) as ledger:
            ledger.record(make_row())
        with RunLedger(path) as again:
            assert again.count() == 1
            assert again.run(1).algorithm == "heft_budg"

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "runs.db")
        with RunLedger(path) as ledger:
            ledger._conn.execute(f"PRAGMA user_version={SCHEMA_VERSION + 7}")
            ledger._conn.commit()
        with pytest.raises(ValueError, match="schema version"):
            RunLedger(path)

    def test_concurrent_writers_all_land(self, tmp_path):
        path = str(tmp_path / "runs.db")
        n, workers = 20, 6
        with RunLedger(path) as ledger:
            def pump(k):
                for i in range(n):
                    ledger.record(make_row(budget=float(k * 1000 + i)))

            threads = [threading.Thread(target=pump, args=(k,))
                       for k in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert ledger.count() == n * workers
            ids = [r.run_id for r in ledger.runs(limit=0)]
            assert len(set(ids)) == n * workers

    def test_two_connections_same_file(self, tmp_path):
        # WAL mode: a second in-process connection appends concurrently.
        path = str(tmp_path / "runs.db")
        with RunLedger(path) as a, RunLedger(path) as b:
            a.record(make_row(algorithm="a"))
            b.record(make_row(algorithm="b"))
            assert a.count() == 2
            assert b.count() == 2


class TestGlobalInstall:
    def test_default_is_null_ledger(self):
        assert isinstance(get_ledger(), NullLedger)
        assert get_ledger().enabled is False

    def test_null_ledger_is_inert(self):
        null = NullLedger()
        assert null.record(make_row()) == 0
        assert null.runs() == []
        assert null.count() == 0
        assert null.group_stats() == {}
        with pytest.raises(KeyError):
            null.run(1)

    def test_use_ledger_scopes_install(self):
        ledger = RunLedger()
        with use_ledger(ledger):
            assert get_ledger() is ledger
        assert isinstance(get_ledger(), NullLedger)
        ledger.close()

    def test_set_ledger_none_restores_null(self):
        ledger = RunLedger()
        set_ledger(ledger)
        try:
            assert get_ledger() is ledger
        finally:
            set_ledger(None)
        assert isinstance(get_ledger(), NullLedger)
        ledger.close()


class TestGroupStats:
    def test_groups_by_family_size_algorithm(self):
        with RunLedger() as ledger:
            ledger.record(make_row(sim_makespan=100.0))
            ledger.record(make_row(sim_makespan=120.0))
            ledger.record(make_row(algorithm="bdt", sim_makespan=90.0))
            stats = ledger.group_stats()
        assert stats["montage/30/heft_budg"]["makespan"] == pytest.approx(110.0)
        assert stats["montage/30/heft_budg"]["n_runs"] == 2
        assert stats["montage/30/bdt"]["makespan"] == pytest.approx(90.0)

    def test_latest_per_group_keeps_newest(self):
        with RunLedger() as ledger:
            ledger.record(make_row(sim_makespan=100.0))
            ledger.record(make_row(sim_makespan=200.0))
            stats = ledger.group_stats(latest_per_group=1)
        assert stats["montage/30/heft_budg"]["makespan"] == pytest.approx(200.0)

    def test_planned_only_rows_have_no_makespan_key(self):
        with RunLedger() as ledger:
            ledger.record(make_row(sim_makespan=None, sim_cost=None,
                                   success_rate=None))
            stats = ledger.group_stats()
            assert "makespan" not in stats["montage/30/heft_budg"]
            assert baseline_from_ledger(ledger) == {}


class TestRegressionGate:
    def test_parity_is_ok(self):
        with RunLedger() as ledger:
            ledger.record(make_row())
            baseline = baseline_from_ledger(ledger)
            report = compare_to_baseline(ledger, baseline)
        assert report.ok
        assert not report.regressions
        assert "ok" in report.render()

    def test_injected_20pct_regression_flags(self):
        with RunLedger() as ledger:
            ledger.record(make_row(sim_makespan=120.0))
            baseline = {"montage/30/heft_budg": {
                "makespan": 100.0, "cost": 0.38, "n_runs": 1}}
            report = compare_to_baseline(ledger, baseline,
                                         makespan_threshold=0.10)
        assert not report.ok
        assert len(report.regressions) == 1
        assert report.regressions[0].change("makespan") == pytest.approx(0.20)
        assert "REGRESSED" in report.render()

    def test_cost_regression_flags_independently(self):
        with RunLedger() as ledger:
            ledger.record(make_row(sim_makespan=100.0, sim_cost=0.60))
            baseline = {"montage/30/heft_budg": {
                "makespan": 100.0, "cost": 0.38, "n_runs": 1}}
            report = compare_to_baseline(ledger, baseline)
        assert not report.ok and len(report.regressions) == 1

    def test_missing_group_reported_not_failed(self):
        with RunLedger() as ledger:
            ledger.record(make_row())
            baseline = {
                "montage/30/heft_budg": {"makespan": 110.0, "cost": 0.38,
                                         "n_runs": 1},
                "ligo/90/bdt": {"makespan": 50.0, "cost": 1.0, "n_runs": 1},
            }
            report = compare_to_baseline(ledger, baseline)
        assert report.missing_groups == ["ligo/90/bdt"]
        assert report.ok  # the matched group is fine
        assert "missing" in report.render()

    def test_empty_comparison_is_not_ok(self):
        with RunLedger() as ledger:
            report = compare_to_baseline(
                ledger, {"g/1/x": {"makespan": 1.0, "n_runs": 1}}
            )
        assert not report.ok
        assert report.missing_groups == ["g/1/x"]

    def test_extract_baseline_shapes(self):
        groups = {"montage/30/heft_budg": {"makespan": 1.0}}
        assert extract_baseline({"ledger_baseline": groups}) == groups
        assert extract_baseline(groups) == groups
        with pytest.raises(ValueError):
            extract_baseline({"benchmarks": {"throughput": {"mean_s": 1.0}}})
        with pytest.raises(ValueError):
            extract_baseline({})

    def test_baseline_json_roundtrip(self):
        with RunLedger() as ledger:
            ledger.record(make_row())
            baseline = baseline_from_ledger(ledger)
            doc = json.loads(json.dumps({"ledger_baseline": baseline}))
            report = compare_to_baseline(ledger, extract_baseline(doc))
        assert report.ok


class TestPrune:
    def test_max_rows_keeps_newest(self):
        with RunLedger() as ledger:
            for i in range(6):
                ledger.record(make_row(budget=float(i)))
            assert ledger.prune(max_rows=2) == 4
            rows = ledger.runs(limit=0)
            assert [r.budget for r in rows] == [5.0, 4.0]

    def test_max_age_drops_old_rows(self):
        with RunLedger() as ledger:
            ledger.record(make_row(budget=1.0))
            ledger.record(make_row(budget=2.0))
            # backdate the first row by ten days
            ledger._conn.execute(
                "UPDATE runs SET recorded_at = recorded_at - 864000 "
                "WHERE run_id = 1"
            )
            ledger._conn.commit()
            assert ledger.prune(max_age_days=5.0) == 1
            (row,) = ledger.runs(limit=0)
            assert row.budget == 2.0

    def test_combined_constraints(self):
        with RunLedger() as ledger:
            for i in range(4):
                ledger.record(make_row(budget=float(i)))
            ledger._conn.execute(
                "UPDATE runs SET recorded_at = recorded_at - 864000 "
                "WHERE run_id = 1"
            )
            ledger._conn.commit()
            assert ledger.prune(max_age_days=5.0, max_rows=2) == 2
            assert ledger.count() == 2

    def test_no_constraints_deletes_nothing(self):
        with RunLedger() as ledger:
            ledger.record(make_row())
            assert ledger.prune() == 0
            assert ledger.count() == 1

    def test_negative_arguments_rejected(self):
        with RunLedger() as ledger:
            with pytest.raises(ValueError, match="max_rows"):
                ledger.prune(max_rows=-1)
            with pytest.raises(ValueError, match="max_age_days"):
                ledger.prune(max_age_days=-0.5)

    def test_null_ledger_prunes_nothing(self):
        assert NullLedger().prune(max_rows=0) == 0

    @staticmethod
    def _load_row(label):
        from repro.obs.ledger import LoadRunRow

        return LoadRunRow(
            label=label, config_fingerprint="c" * 64,
            sequence_fingerprint="s" * 64, process="poisson",
            target="inproc", executor="thread", n_requests=10, n_ok=10,
            n_cached=0, n_rejected=0, n_errors=0, refusals={},
            offered_rps=100.0, achieved_rps=100.0, duration_s=0.1,
            latency_mean_s=0.005, latency_std_s=0.001, p50_s=0.004,
            p95_s=0.008, p99_s=0.010, cost_total=1.0, stages={},
            sketches={}, extra={},
        )

    def test_max_rows_prunes_load_runs_too(self):
        with RunLedger() as ledger:
            for i in range(5):
                ledger.record_load_run(self._load_row(f"grp{i}"))
            assert ledger.prune(max_rows=2) == 3
            rows = ledger.load_runs(limit=0)
            assert [r.label for r in rows] == ["grp4", "grp3"]

    def test_max_rows_bounds_each_table_independently(self):
        with RunLedger() as ledger:
            for i in range(4):
                ledger.record(make_row(budget=float(i)))
                ledger.record_load_run(self._load_row(f"grp{i}"))
            assert ledger.prune(max_rows=1) == 6
            assert ledger.count() == 1
            assert ledger.load_count() == 1

    def test_max_age_drops_old_load_runs(self):
        with RunLedger() as ledger:
            ledger.record_load_run(self._load_row("old"))
            ledger.record_load_run(self._load_row("new"))
            ledger._conn.execute(
                "UPDATE load_runs SET recorded_at = recorded_at - 864000 "
                "WHERE load_id = 1"
            )
            ledger._conn.commit()
            assert ledger.prune(max_age_days=5.0) == 1
            (row,) = ledger.load_runs(limit=0)
            assert row.label == "new"


# The v1 layout, as shipped before the fault-injection fields landed —
# used to prove in-place migration below.
_V1_CREATE = """
CREATE TABLE runs (
    run_id             INTEGER PRIMARY KEY AUTOINCREMENT,
    recorded_at        REAL NOT NULL,
    source             TEXT NOT NULL,
    fingerprint        TEXT NOT NULL DEFAULT '',
    workflow           TEXT NOT NULL DEFAULT '',
    family             TEXT NOT NULL DEFAULT '',
    n_tasks            INTEGER NOT NULL DEFAULT 0,
    algorithm          TEXT NOT NULL DEFAULT '',
    budget             REAL NOT NULL DEFAULT 0.0,
    sigma_ratio        REAL NOT NULL DEFAULT 0.0,
    planned_makespan   REAL NOT NULL DEFAULT 0.0,
    planned_cost       REAL NOT NULL DEFAULT 0.0,
    within_budget_plan INTEGER NOT NULL DEFAULT 1,
    sim_makespan       REAL,
    sim_cost           REAL,
    success_rate       REAL,
    n_reps             INTEGER NOT NULL DEFAULT 0,
    n_vms              INTEGER NOT NULL DEFAULT 0,
    sched_seconds      REAL NOT NULL DEFAULT 0.0,
    elapsed_s          REAL NOT NULL DEFAULT 0.0,
    trace_id           TEXT NOT NULL DEFAULT '',
    version            TEXT NOT NULL DEFAULT '',
    extra              TEXT NOT NULL DEFAULT '{}'
);
"""


class TestMigration:
    def _make_v1_db(self, path):
        import sqlite3

        conn = sqlite3.connect(path)
        conn.executescript(_V1_CREATE)
        conn.execute(
            "INSERT INTO runs (recorded_at, source, algorithm, family, "
            "n_tasks) VALUES (1.0, 'sweep', 'heft_budg', 'montage', 30)"
        )
        conn.execute("PRAGMA user_version=1")
        conn.commit()
        conn.close()

    def test_v1_database_migrates_in_place(self, tmp_path):
        path = str(tmp_path / "old.db")
        self._make_v1_db(path)
        with RunLedger(path) as ledger:
            row = ledger.run(1)
            assert row.algorithm == "heft_budg"
            # new columns arrive with their defaults
            assert row.outcome == "ok"
            assert row.n_faults == 0
            version = ledger._conn.execute("PRAGMA user_version").fetchone()[0]
            assert version == SCHEMA_VERSION
            # the migrated db accepts v2 rows
            ledger.record(make_row(outcome="failed", n_faults=3))
            assert ledger.run(2).outcome == "failed"

    def test_migrated_db_reopens_without_remigration(self, tmp_path):
        path = str(tmp_path / "old.db")
        self._make_v1_db(path)
        with RunLedger(path):
            pass
        with RunLedger(path) as again:  # second open: already at v2
            assert again.run(1).outcome == "ok"

    def test_fresh_database_is_stamped_current(self, tmp_path):
        path = str(tmp_path / "new.db")
        with RunLedger(path) as ledger:
            version = ledger._conn.execute("PRAGMA user_version").fetchone()[0]
            assert version == SCHEMA_VERSION


class TestSuccessGate:
    def test_success_rate_drop_flags_regression(self):
        with RunLedger() as ledger:
            ledger.record(make_row(success_rate=0.5))
            baseline = {"montage/30/heft_budg": {
                "makespan": 110.0, "cost": 0.38, "success_rate": 1.0,
                "n_runs": 1}}
            report = compare_to_baseline(ledger, baseline)
        assert not report.ok and len(report.regressions) == 1
        delta = report.regressions[0]
        assert delta.change("success_rate") == pytest.approx(-0.5)
        assert "REGRESSED" in report.render()

    def test_success_rate_improvement_is_ok(self):
        with RunLedger() as ledger:
            ledger.record(make_row(success_rate=1.0))
            baseline = {"montage/30/heft_budg": {
                "makespan": 110.0, "cost": 0.38, "success_rate": 0.8,
                "n_runs": 1}}
            report = compare_to_baseline(ledger, baseline)
        assert report.ok

    def test_small_drop_within_threshold_is_ok(self):
        with RunLedger() as ledger:
            ledger.record(make_row(success_rate=0.97))
            baseline = {"montage/30/heft_budg": {
                "makespan": 110.0, "cost": 0.38, "success_rate": 1.0,
                "n_runs": 1}}
            report = compare_to_baseline(ledger, baseline,
                                         success_threshold=0.05)
        assert report.ok

    def test_legacy_baseline_without_success_is_ok(self):
        # pre-v2 BENCH files have no success_rate key: treated as parity
        with RunLedger() as ledger:
            ledger.record(make_row(success_rate=None))
            baseline = {"montage/30/heft_budg": {
                "makespan": 110.0, "cost": 0.38, "n_runs": 1}}
            report = compare_to_baseline(ledger, baseline)
        assert report.ok
