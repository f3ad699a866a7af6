"""Admission controller gate chain and engine-level accounting."""

import pytest

from repro.admission import (
    AdmissionController,
    TenantPolicy,
    TenantRegistry,
)
from repro.errors import AdmissionRejected
from repro.service import SchedulingService
from repro.service.metrics import MetricsRegistry
from repro.service.spec import ScheduleRequest


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def request(amount=2.0, tenant="default", priority="batch", seed=42,
            n_reps=0):
    return ScheduleRequest.from_dict({
        "workflow": {"family": "montage", "n_tasks": 15, "rng": 1,
                     "sigma_ratio": 0.5},
        "algorithm": "heft_budg",
        "budget": {"amount": amount},
        "evaluation": {"n_reps": n_reps, "seed": seed},
        "tenant": tenant,
        "priority": priority,
    })


def controller(clock=None, **policy):
    clock = clock or FakeClock()
    registry = TenantRegistry(
        {"t": TenantPolicy(name="t", **policy)} if policy else None,
        clock=clock,
    )
    return AdmissionController(
        tenants=registry, metrics=MetricsRegistry(), clock=clock
    )


class TestGateChain:
    def test_permissive_default_admits_everything(self):
        ctl = controller()
        for i in range(50):
            ctl.admit(request(), f"job-{i}")
        assert ctl.stats()["queue"]["depth"] == 50

    def test_rate_limited_refusal_is_typed(self):
        ctl = controller(rate=1.0, burst=1.0)
        ctl.admit(request(tenant="t"), "job-1")
        with pytest.raises(AdmissionRejected, match="rate limited") as err:
            ctl.admit(request(tenant="t"), "job-2")
        assert err.value.reason == "rate_limited"
        assert err.value.tenant == "t"
        assert err.value.retry_after_s > 0.0

    def test_budget_exhausted_refusal_is_typed(self):
        ctl = controller(cost_budget=3.0, budget_window_s=60.0)
        ctl.admit(request(amount=2.0, tenant="t"), "job-1")
        with pytest.raises(AdmissionRejected, match="budget") as err:
            ctl.admit(request(amount=2.0, tenant="t"), "job-2")
        assert err.value.reason == "budget_exhausted"
        assert err.value.estimated_cost == pytest.approx(2.0)

    def test_queue_full_refunds_the_reservation(self):
        clock = FakeClock()
        registry = TenantRegistry(
            {"t": TenantPolicy(name="t", cost_budget=10.0)}, clock=clock
        )
        ctl = AdmissionController(
            tenants=registry, max_queue_depth=1, clock=clock
        )
        ctl.admit(request(amount=2.0, tenant="t"), "job-1")
        with pytest.raises(AdmissionRejected, match="queue is full") as err:
            ctl.admit(request(amount=2.0, tenant="t"), "job-2")
        assert err.value.reason == "queue_full"
        # The refused request's reservation was released: 8 still fits.
        assert registry.try_reserve("t", 8.0)[0]

    def test_sync_admit_skips_the_queue(self):
        ctl = controller(cost_budget=3.0)
        decision = ctl.admit(request(amount=2.0, tenant="t"), "sync-1",
                             enqueue=False)
        assert ctl.stats()["queue"]["depth"] == 0
        ctl.release(decision)


class TestSettlement:
    def test_reconcile_commits_and_is_exactly_once(self):
        ctl = controller(cost_budget=10.0)
        decision = ctl.admit(request(amount=4.0, tenant="t"), "job-1")
        first = ctl.reconcile(request(amount=4.0, tenant="t"), decision,
                              actual_cost=3.0, actual_duration_s=0.1)
        assert first is not None
        assert first["tenant"] == "t"
        assert ctl.reconcile(request(amount=4.0, tenant="t"), decision,
                             actual_cost=3.0, actual_duration_s=0.1) is None
        assert ctl.tenants.spent_window("t") == pytest.approx(3.0)

    def test_release_after_reconcile_is_a_noop(self):
        ctl = controller(cost_budget=10.0)
        decision = ctl.admit(request(amount=4.0, tenant="t"), "job-1")
        ctl.reconcile(request(amount=4.0, tenant="t"), decision,
                      actual_cost=4.0, actual_duration_s=0.1)
        ctl.release(decision)  # must not refund committed spend
        assert ctl.tenants.spent_window("t") == pytest.approx(4.0)

    def test_withdraw_refunds_a_queued_entry(self):
        ctl = controller(cost_budget=4.0)
        ctl.admit(request(amount=4.0, tenant="t"), "job-1")
        assert ctl.withdraw("job-1")
        assert not ctl.withdraw("job-1")
        # Budget free again.
        ctl.admit(request(amount=4.0, tenant="t"), "job-2")


class TestEngineIntegration:
    def test_tenant_budget_enforced_through_submit(self):
        registry = TenantRegistry(
            {"team": TenantPolicy(name="team", cost_budget=2.5)}
        )
        with SchedulingService(max_workers=2, cache_size=0,
                               tenants=registry) as svc:
            req = request(amount=2.0, tenant="team")
            job = svc.submit(req)
            # A bigger-budget request is priced analytically at its
            # declared amount; 3.0 cannot fit in what remains of 2.5
            # whether the first job is still reserved or already settled.
            with pytest.raises(AdmissionRejected) as err:
                svc.submit(request(amount=3.0, tenant="team", seed=7))
            assert err.value.reason == "budget_exhausted"
            svc.result(job, timeout=60)
            assert svc.metrics.counter("jobs_rejected") == 1
            assert svc.metrics.counter("admission_rejected") == 1
            spent = registry.spent_window("team")
            assert 0.0 < spent <= 2.5

    def test_sync_schedule_is_admission_gated(self):
        registry = TenantRegistry(
            {"team": TenantPolicy(name="team", cost_budget=2.5)}
        )
        with SchedulingService(max_workers=1, cache_size=0,
                               tenants=registry) as svc:
            svc.schedule(request(amount=2.0, tenant="team"))
            with pytest.raises(AdmissionRejected) as err:
                svc.schedule(request(amount=3.0, tenant="team", seed=7))
            assert err.value.reason == "budget_exhausted"

    def test_cancelled_job_refunds_its_reservation(self):
        import threading

        registry = TenantRegistry(
            {"team": TenantPolicy(name="team", cost_budget=2.5)}
        )
        with SchedulingService(max_workers=1, cache_size=0,
                               tenants=registry) as svc:
            gate = threading.Event()
            orig = svc._compute

            def slow(req, call):
                gate.wait(timeout=30)
                return orig(req, call)

            svc._compute = slow
            running = svc.submit(request(amount=2.0, tenant="team"))
            # The budget is fully reserved; a queued second job would be
            # refused, so cancel the running window via a queued one.
            with pytest.raises(AdmissionRejected):
                svc.submit(request(amount=2.0, tenant="team", seed=7))
            gate.set()
            svc.result(running, timeout=60)
        # After completion the reservation became committed spend.
        assert registry.spent_window("team") > 0.0

    def test_cache_hits_still_commit_spend(self):
        registry = TenantRegistry(
            {"team": TenantPolicy(name="team", cost_budget=100.0)}
        )
        with SchedulingService(max_workers=1, cache_size=16,
                               tenants=registry) as svc:
            req = request(amount=2.0, tenant="team")
            first = svc.schedule(req)
            second = svc.schedule(req)
            assert second.cached and not first.cached
            spent = registry.spent_window("team")
            # Both calls committed their (identical) actual cost.
            assert spent == pytest.approx(2.0 * first.planned_cost)

    def test_ledger_row_carries_admission_diagnostics(self, tmp_path):
        from repro.obs.ledger import RunLedger

        db = tmp_path / "runs.db"
        with RunLedger(str(db)) as ledger:
            with SchedulingService(max_workers=1, cache_size=0,
                                   ledger=ledger) as svc:
                svc.schedule(request(amount=2.0, tenant="team"))
            rows = ledger.runs()
            assert len(rows) == 1
            admission = rows[0].extra["admission"]
            assert admission["tenant"] == "team"
            assert admission["source"] in ("observed", "ledger", "analytic")
            assert "cost_rel_error" in admission

    def test_stats_exposes_admission_section(self):
        with SchedulingService(max_workers=1) as svc:
            stats = svc.stats()
            assert "queue" in stats["admission"]
            assert "tenants" in stats["admission"]
            assert stats["batching"] is not None
