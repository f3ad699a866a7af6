"""``repro-exp ledger``: sweep archiving, convergence stats, regress gate."""

import json

import pytest

from repro.cli import main
from repro.experiments.runner import convergence_diagnostics
from repro.obs.ledger import LoadRunRow, RunLedger, RunRow

SWEEP = ["--smoke", "--tasks", "12", "--instances", "1", "--reps", "4",
         "--budgets", "2", "--families", "montage",
         "--algorithms", "heft_budg"]


def run_sweep_into(db):
    return main(["ledger", "sweep", "--db", db] + SWEEP)


class TestConvergenceDiagnostics:
    def test_running_mean_and_ci(self):
        diag = convergence_diagnostics([10.0, 12.0, 14.0, 16.0], batch_size=2)
        assert diag["n"] == 4
        assert diag["running_mean"] == [pytest.approx(11.0),
                                        pytest.approx(13.0)]
        assert diag["final_mean"] == pytest.approx(13.0)
        # half-width shrinks as samples accumulate relative to spread
        assert diag["ci_halfwidth"][0] > 0.0
        assert diag["final_ci_halfwidth"] == diag["ci_halfwidth"][-1]

    def test_single_sample_has_zero_ci(self):
        diag = convergence_diagnostics([5.0])
        assert diag["running_mean"] == [5.0]
        assert diag["ci_halfwidth"] == [0.0]

    def test_constant_samples_have_zero_ci(self):
        diag = convergence_diagnostics([3.0] * 6, batch_size=3)
        assert diag["ci_halfwidth"] == [0.0, 0.0]

    def test_empty_and_bad_batch(self):
        assert convergence_diagnostics([])["n"] == 0
        with pytest.raises(ValueError):
            convergence_diagnostics([1.0], batch_size=0)


class TestSweepArchiving:
    def test_sweep_records_rows_with_convergence(self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        assert run_sweep_into(db) == 0
        assert "archived" in capsys.readouterr().out
        with RunLedger(db) as ledger:
            rows = ledger.runs(limit=0)
            # 1 instance x 2 budgets x 1 algorithm
            assert len(rows) == 2
            for row in rows:
                assert row.source == "sweep"
                assert row.n_reps == 4
                assert row.sim_makespan > 0
                conv = row.extra["makespan_convergence"]
                assert conv["n"] == 4
                assert conv["final_mean"] == pytest.approx(row.sim_makespan)

    def test_list_and_show_and_csv(self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        run_sweep_into(db)
        capsys.readouterr()
        assert main(["ledger", "list", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "heft_budg" in out
        assert main(["ledger", "show", "--db", db, "1"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["run_id"] == 1
        csv_path = str(tmp_path / "runs.csv")
        assert main(["ledger", "list", "--db", db, "--csv", csv_path]) == 0
        header = open(csv_path).readline()
        assert header.startswith("run_id,")
        assert main(["ledger", "compare", "--db", db]) == 0
        assert "montage/12/heft_budg" in capsys.readouterr().out

    def test_show_unknown_run_exits_2(self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        run_sweep_into(db)
        assert main(["ledger", "show", "--db", db, "999"]) == 2


class TestRegressGate:
    def make_baseline(self, tmp_path, db):
        path = str(tmp_path / "base.json")
        assert main(["ledger", "baseline", "--db", db, "--out", path]) == 0
        return path

    def test_parity_exits_zero(self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        run_sweep_into(db)
        base = self.make_baseline(tmp_path, db)
        code = main(["ledger", "regress", "--db", db, "--baseline", base])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_injected_20pct_regression_exits_nonzero(self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        run_sweep_into(db)
        base = self.make_baseline(tmp_path, db)
        doc = json.load(open(base))
        for stats in doc["ledger_baseline"].values():
            stats["makespan"] /= 1.20  # ledger now reads 20% slower
        json.dump(doc, open(base, "w"))
        code = main(["ledger", "regress", "--db", db, "--baseline", base,
                     "--threshold", "0.10"])
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_loose_threshold_tolerates_regression(self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        run_sweep_into(db)
        base = self.make_baseline(tmp_path, db)
        doc = json.load(open(base))
        for stats in doc["ledger_baseline"].values():
            stats["makespan"] /= 1.20
        json.dump(doc, open(base, "w"))
        code = main(["ledger", "regress", "--db", db, "--baseline", base,
                     "--threshold", "0.30"])
        assert code == 0

    def test_empty_ledger_exits_2(self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        run_sweep_into(db)
        base = self.make_baseline(tmp_path, db)
        empty = str(tmp_path / "empty.db")
        with RunLedger(empty):  # an existing ledger that holds no runs
            pass
        code = main(["ledger", "regress", "--db", empty, "--baseline", base])
        assert code == 2
        assert "no baseline group" in capsys.readouterr().err

    def test_unreadable_baseline_exits_2(self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        run_sweep_into(db)
        code = main(["ledger", "regress", "--db", db,
                     "--baseline", str(tmp_path / "missing.json")])
        assert code == 2

    def test_throughput_only_bench_rejected(self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        run_sweep_into(db)
        bench = str(tmp_path / "bench.json")
        json.dump({"benchmarks": {"throughput": {"mean_s": 0.1}}},
                  open(bench, "w"))
        code = main(["ledger", "regress", "--db", db, "--baseline", bench])
        assert code == 2
        assert "cannot load baseline" in capsys.readouterr().err


class TestPrune:
    def test_prune_reports_rows_deleted_and_both_tables_left(
            self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        with RunLedger(db) as ledger:
            for i in range(3):
                ledger.record(RunRow(algorithm=f"a{i}"))
            for i in range(4):
                ledger.record_load_run(LoadRunRow(label=f"l{i}"))
        assert main(["ledger", "prune", "--db", db, "--max-rows", "1"]) == 0
        out = capsys.readouterr().out.strip()
        # 2 runs + 3 load runs deleted; one of each remains
        assert out == (f"pruned 5 row(s); 1 run(s) and 1 load run(s) "
                       f"left in {db}")
        with RunLedger(db) as ledger:
            assert (ledger.count(), ledger.load_count()) == (1, 1)

    def test_prune_needs_a_bound(self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        assert main(["ledger", "prune", "--db", db]) == 2
        assert "--max-rows" in capsys.readouterr().err


class TestMissingLedger:
    """Commands that only read (or prune) a ledger refuse a missing file
    through the one exit-2 handler and leave nothing behind."""

    @pytest.mark.parametrize("argv", [
        ["ledger", "list"],
        ["ledger", "show", "1"],
        ["ledger", "compare"],
        ["ledger", "regress", "--baseline", "{baseline}"],
        ["ledger", "baseline"],
        ["ledger", "estimate-error"],
        ["ledger", "prune", "--max-rows", "10"],
        ["load", "report", "--out", "{out}"],
        ["slo"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_missing_db_exits_2_and_creates_nothing(self, tmp_path, capsys,
                                                     argv):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{}")
        out = tmp_path / "report.html"
        missing = tmp_path / "missing.db"
        argv = [a.format(baseline=baseline, out=out) for a in argv]
        assert main(argv + ["--db", str(missing)]) == 2
        assert capsys.readouterr().err == f"error: no such ledger: {missing}\n"
        assert not missing.exists() and not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["baseline.json"]

    def test_writers_still_create_the_ledger(self, tmp_path):
        db = tmp_path / "fresh.db"
        assert run_sweep_into(str(db)) == 0
        assert db.exists()
        assert main(["ledger", "list", "--db", str(db)]) == 0
