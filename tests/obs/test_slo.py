"""SLO targets, burn-rate windows, and the offline ledger report."""

import pytest

from repro.obs.slo import (
    DEFAULT_TARGETS,
    SLOMonitor,
    SLOTarget,
    report_from_rows,
)


class FakeClock:
    def __init__(self):
        self.now = 10_000.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestSLOTarget:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            SLOTarget(name="x", kind="throughput", target=0.9)
        with pytest.raises(ValueError, match="target"):
            SLOTarget(name="x", kind="success_rate", target=1.0)
        with pytest.raises(ValueError, match="threshold_s"):
            SLOTarget(name="x", kind="latency", target=0.9)

    def test_is_good_semantics(self):
        lat = SLOTarget(name="fast", kind="latency", target=0.95,
                        threshold_s=2.0)
        assert lat.is_good(duration_s=1.9, success=True)
        assert not lat.is_good(duration_s=2.1, success=True)
        assert not lat.is_good(duration_s=0.1, success=False)
        avail = SLOTarget(name="up", kind="success_rate", target=0.99)
        assert avail.is_good(duration_s=999.0, success=True)
        assert not avail.is_good(duration_s=0.0, success=False)

    def test_to_dict_includes_threshold_only_for_latency(self):
        lat = SLOTarget(name="fast", kind="latency", target=0.95,
                        threshold_s=2.0)
        assert lat.to_dict()["threshold_s"] == 2.0
        avail = SLOTarget(name="up", kind="success_rate", target=0.99)
        assert "threshold_s" not in avail.to_dict()


class TestBurnRates:
    def monitor(self, clock):
        target = SLOTarget(name="avail", kind="success_rate", target=0.9)
        return SLOMonitor(targets=[target], windows_s=(60.0,),
                          resolution_s=10.0, clock=clock)

    def test_burn_rate_formula(self):
        clock = FakeClock()
        mon = self.monitor(clock)
        for _ in range(8):
            mon.observe_request(duration_s=0.1, success=True)
        for _ in range(2):
            mon.observe_request(duration_s=0.1, success=False)
        window = mon.snapshot()["targets"][0]["windows"]["1m"]
        assert window["good"] == 8 and window["bad"] == 2
        assert window["bad_fraction"] == pytest.approx(0.2)
        # burn = bad_fraction / error_budget = 0.2 / 0.1
        assert window["burn_rate"] == pytest.approx(2.0)
        assert window["budget_exhausted"]

    def test_old_samples_fall_out_of_the_window(self):
        clock = FakeClock()
        mon = self.monitor(clock)
        mon.observe_request(duration_s=0.1, success=False)
        clock.advance(120.0)  # two window spans later
        mon.observe_request(duration_s=0.1, success=True)
        window = mon.snapshot()["targets"][0]["windows"]["1m"]
        assert window == {
            "good": 1, "bad": 0, "total": 1, "bad_fraction": 0.0,
            "burn_rate": 0.0, "budget_exhausted": False,
        }

    def test_empty_monitor_reports_zero_burn(self):
        mon = SLOMonitor(clock=FakeClock())
        snap = mon.snapshot()
        assert snap["observed"] == 0
        for target in snap["targets"]:
            for window in target["windows"].values():
                assert window["burn_rate"] == 0.0
                assert not window["budget_exhausted"]


class TestStagePercentiles:
    def test_stage_and_request_sketches(self):
        mon = SLOMonitor(clock=FakeClock())
        for i in range(20):
            mon.observe_request(
                duration_s=0.1 * (i + 1), success=True,
                stages={"admit": 0.001, "execute": 0.09 * (i + 1)},
            )
        pcts = mon.stage_percentiles()
        assert set(pcts) == {"admit", "execute", "request"}
        assert pcts["request"]["count"] == 20
        assert pcts["execute"]["p99"] >= pcts["execute"]["p50"]


class TestOfflineReport:
    def rows(self):
        return [
            {
                "recorded_at": 1000.0 + i,
                "outcome": "failed" if i == 4 else "ok",
                "extra": {"stages": {
                    "stages": {"admit": 0.001, "execute": 0.2 + 0.01 * i},
                    "wall_s": 0.201 + 0.01 * i,
                    "started_epoch_s": 1000.0 + i,
                }},
            }
            for i in range(5)
        ]

    def test_report_shape_and_counts(self):
        report = report_from_rows(self.rows(), windows_s=(300.0,))
        assert report["observed"] == 5
        assert report["failures"] == 1
        assert set(report["stages"]) == {"admit", "execute", "request"}
        assert report["anchor_epoch_s"] == 1004.0
        names = [t["name"] for t in report["targets"]]
        assert names == [t.name for t in DEFAULT_TARGETS]
        avail = next(t for t in report["targets"]
                     if t["name"] == "availability")
        assert avail["windows"]["5m"]["bad"] == 1

    def test_rows_without_stages_still_count(self):
        rows = [{"recorded_at": 10.0, "outcome": "ok", "extra": {}}]
        report = report_from_rows(rows, windows_s=(60.0,))
        assert report["observed"] == 1
        assert "request" in report["stages"]

    def test_window_anchoring_excludes_old_rows(self):
        rows = self.rows()
        rows.append({
            "recorded_at": 2000.0, "outcome": "ok",
            "extra": {"stages": {"stages": {"execute": 0.1},
                                 "wall_s": 0.1, "started_epoch_s": 2000.0}},
        })
        report = report_from_rows(rows, windows_s=(60.0,))
        avail = next(t for t in report["targets"]
                     if t["name"] == "availability")
        # anchor = 2000; rows at ~1000 fall outside the 60 s window
        assert avail["windows"]["1m"]["total"] == 1
