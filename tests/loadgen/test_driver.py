"""Open-loop driver: replay outcomes, ledger archival, typed refusals."""

import time
from types import SimpleNamespace

import pytest

from repro.admission.tenants import TenantRegistry
from repro.errors import ServiceError
from repro.loadgen import ArrivalConfig, LoadDriver
from repro.loadgen.arrivals import PlannedRequest
from repro.obs.ledger import RunLedger
from repro.service.engine import SchedulingService


def config(**overrides):
    base = dict(process="poisson", rate=500.0, n_requests=40, seed=9,
                n_tasks=(15,), spec_seeds=2, n_reps=1)
    base.update(overrides)
    return ArrivalConfig(**base)


@pytest.fixture()
def service():
    svc = SchedulingService(cache_size=64)
    yield svc
    svc.close()


class TestReplay:
    def test_outcome_counts_cover_every_request(self, service):
        driver = LoadDriver(service, concurrency=4, pace=False)
        result = driver.run(config(), label="t")
        assert sum(result.outcomes.values()) == 40
        assert result.outcomes.get("error", 0) == 0
        assert result.n_completed == (result.outcomes.get("ok", 0)
                                      + result.outcomes.get("cached", 0))
        assert result.achieved_rps > 0
        assert result.duration_s > 0

    def test_stage_decomposition_recorded_and_consistent(self, service):
        driver = LoadDriver(service, concurrency=2, pace=False)
        result = driver.run(config())
        assert result.n_stage_violations == 0
        stages = result.stage_percentiles()
        assert "request" in stages
        assert "admit" in stages
        for pcts in stages.values():
            assert pcts["p50"] <= pcts["p95"] <= pcts["p99"]

    def test_same_seed_runs_share_the_sequence_fingerprint(self, service):
        driver = LoadDriver(service, pace=False)
        first = driver.run(config(seed=4))
        second = driver.run(config(seed=4))
        assert first.sequence_fp == second.sequence_fp
        assert first.sequence_fp != driver.run(config(seed=5)).sequence_fp

    def test_pacing_honours_planned_offsets(self, service):
        # 20 requests at 100 req/s paced should take ~0.2s wall time.
        driver = LoadDriver(service, concurrency=4, pace=True)
        result = driver.run(config(rate=100.0, n_requests=20, seed=2))
        planned_span = 20 / 100.0
        assert result.duration_s >= planned_span * 0.5

    def test_cost_total_is_bit_identical_across_replays(self):
        totals = []
        for _ in range(2):
            with SchedulingService(cache_size=64) as svc:
                driver = LoadDriver(svc, concurrency=4, pace=False)
                totals.append(driver.run(config(spec_seeds=6)).cost_total)
        assert totals[0].hex() == totals[1].hex()

    def test_cost_total_sums_in_planned_order(self):
        # Later requests finish first, and the costs round differently
        # in completion order than in planned order.
        costs = [1e16, 1.0, -1e16, 1.0]

        def in_order(values):
            total = 0.0
            for value in values:
                total += value
            return total

        assert in_order(costs) != in_order(reversed(costs))

        class ReverseService:
            def health(self):
                return {"ready": True}

            def schedule(self, request):
                time.sleep(request["delay_s"])
                return SimpleNamespace(
                    cached=False, planned_cost=request["cost"], stages=None)

        planned = [
            PlannedRequest(
                index=i, offset_s=0.0, fingerprint=str(i), tenant="default",
                priority="interactive",
                request={"cost": cost, "delay_s": 0.05 * (len(costs) - i)})
            for i, cost in enumerate(costs)
        ]
        driver = LoadDriver(ReverseService(), concurrency=len(costs),
                            pace=False)
        result = driver.replay(planned, config(n_requests=len(costs)),
                               keep_records=True)
        assert [r.index for r in result.records] == [3, 2, 1, 0]
        assert result.cost_total == in_order(costs)

    def test_keep_records_retains_per_request_rows(self, service):
        driver = LoadDriver(service, pace=False)
        result = driver.run(config(n_requests=10), keep_records=True)
        assert len(result.records) == 10
        indexes = sorted(r.index for r in result.records)
        assert indexes == list(range(10))


class TestRefusals:
    def test_draining_service_yields_typed_refusals(self):
        svc = SchedulingService()
        svc.close()
        driver = LoadDriver(svc, pace=False)
        with pytest.raises(ServiceError, match="not ready"):
            driver.run(config(n_requests=5), warmup_timeout_s=0.2)

    def test_budget_exhausted_is_counted_not_errored(self):
        registry = TenantRegistry.from_json(
            {"tenants": {"poor": {"cost_budget": 0.001}}}
        )
        svc = SchedulingService(tenants=registry)
        try:
            driver = LoadDriver(svc, pace=False)
            result = driver.run(config(tenants={"poor": 1.0}))
        finally:
            svc.close()
        assert result.outcomes.get("error", 0) == 0
        assert result.outcomes.get("budget_exhausted", 0) > 0
        assert result.refusals.get("budget_exhausted", 0) > 0


class TestLedgerArchival:
    def test_to_row_roundtrips_through_the_ledger(self, service, tmp_path):
        driver = LoadDriver(service, pace=False)
        result = driver.run(config(), label="archived")
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            load_id = ledger.record_load_run(result.to_row())
            row = ledger.load_run(load_id)
        assert row.label == "archived"
        assert row.sequence_fingerprint == result.sequence_fp
        assert row.config_fingerprint == result.config.fingerprint()
        assert row.n_requests == 40
        assert row.n_ok + row.n_cached == result.n_completed
        assert row.p50_s <= row.p95_s <= row.p99_s
        assert set(row.sketches) >= {"request", "admit"}
        assert row.extra["n_stage_violations"] == 0

    def test_sketches_in_the_row_reproduce_percentiles(self, service,
                                                       tmp_path):
        from repro.obs.sketch import QuantileSketch

        driver = LoadDriver(service, pace=False)
        result = driver.run(config())
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            row = ledger.load_run(ledger.record_load_run(result.to_row()))
        sketch = QuantileSketch.from_dict(row.sketches["request"])
        assert sketch.quantile(0.99) == pytest.approx(row.p99_s)
        assert sketch.count == result.n_completed
