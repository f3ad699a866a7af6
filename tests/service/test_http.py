"""HTTP gateway: routing, status codes, end-to-end scheduling over JSON."""

import json
import urllib.error
import urllib.request

import pytest

from repro.service import SchedulingService
from repro.service.http import start_gateway


def request_dict(amount=2.0, n_reps=0):
    return {
        "workflow": {"family": "montage", "n_tasks": 15, "rng": 1,
                     "sigma_ratio": 0.5},
        "algorithm": "heft_budg",
        "budget": {"amount": amount},
        "evaluation": {"n_reps": n_reps},
    }


@pytest.fixture(scope="module")
def gateway():
    service = SchedulingService(max_workers=2, cache_size=32)
    gw = start_gateway(service)
    yield gw
    gw.shutdown()
    service.close()


def call(gateway, method, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        gateway.url + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


class TestInfoEndpoints:
    def test_healthz(self, gateway):
        status, body = call(gateway, "GET", "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0.0

    def test_schedulers(self, gateway):
        status, body = call(gateway, "GET", "/v1/schedulers")
        assert status == 200
        assert "heft_budg" in body["schedulers"]

    def test_schedulers_needs_no_stats_snapshot(self, gateway, monkeypatch):
        """The registry list must not depend on the operational snapshot
        (ledger count, SLO and metrics snapshots, job-invariant check)."""
        from repro.errors import ServiceError
        from repro.scheduling.registry import available_schedulers

        def broken_stats():
            raise ServiceError("job state invariant violated")

        monkeypatch.setattr(gateway.service, "stats", broken_stats)
        status, body = call(gateway, "GET", "/v1/schedulers")
        assert (status, body) == (
            200, {"schedulers": available_schedulers()})

    def test_admission_needs_no_stats_snapshot(self, gateway, monkeypatch):
        """The admission view reads the controller and the batcher, not
        the operational snapshot."""
        from repro.errors import ServiceError

        status, before = call(gateway, "GET", "/v1/admission")
        assert status == 200
        assert before["batching"] == gateway.service.stats()["batching"]

        def broken_stats():
            raise ServiceError("job state invariant violated")

        monkeypatch.setattr(gateway.service, "stats", broken_stats)
        assert call(gateway, "GET", "/v1/admission") == (200, before)

    def test_metrics(self, gateway):
        status, body = call(gateway, "GET", "/v1/metrics")
        assert status == 200
        assert "jobs" in body and "cache" in body

    def test_broken_job_invariant_is_a_server_error(self):
        """A finished job whose record says ``running`` is the server's
        fault: 500, not a client's 400."""
        from repro.service.engine import JobState

        service = SchedulingService(max_workers=1, cache_size=0)
        gw = start_gateway(service)
        try:
            job_id = service.submit(request_dict())
            service.result(job_id, timeout=60)
            with service._lock:
                service._jobs[job_id].record.state = JobState.RUNNING
            status, body = call(gw, "GET", "/v1/metrics")
            assert status == 500
            assert body["error"].startswith(
                "internal error: job state invariant violated")
        finally:
            gw.shutdown()
            service.close()


class TestScheduleEndpoint:
    def test_sync_schedule(self, gateway):
        status, body = call(gateway, "POST", "/v1/schedule",
                            request_dict(n_reps=3))
        assert status == 200
        assert body["algorithm"] == "heft_budg"
        assert body["schedule"]["format"] == "repro.schedule/1"
        assert body["evaluation"]["n_reps"] == 3

    @pytest.mark.parametrize("field, value, message", [
        ("algorithm", "nope", "unknown algorithm"),
        ("evaluation", {"n_reps": 2, "seed": -3}, "seed must be >= 0"),
    ], ids=["bad_algorithm", "negative_seed"])
    def test_validation_error_is_400(self, gateway, field, value, message):
        bad = request_dict()
        bad[field] = value
        status, body = call(gateway, "POST", "/v1/schedule", bad)
        assert status == 400
        assert message in body["error"]

    def test_batch_on_sync_endpoint_rejected(self, gateway):
        status, body = call(gateway, "POST", "/v1/schedule",
                            [request_dict(), request_dict()])
        assert status == 400
        assert "exactly one" in body["error"]

    def test_malformed_json_is_400(self, gateway):
        req = urllib.request.Request(
            gateway.url + "/v1/schedule", data=b"{nope", method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=30)
        assert info.value.code == 400

    def test_empty_body_is_400(self, gateway):
        status, body = call(gateway, "POST", "/v1/schedule", None)
        assert status == 400
        assert "empty" in body["error"]


class TestJobEndpoints:
    def test_async_job_lifecycle(self, gateway):
        status, body = call(gateway, "POST", "/v1/jobs", request_dict(amount=4.0))
        assert status == 202
        (job_id,) = body["job_ids"]
        gateway.service.wait_all(timeout=60)
        status, body = call(gateway, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        assert body["state"] == "done"
        assert body["response"]["algorithm"] == "heft_budg"

    def test_batch_submit(self, gateway):
        payload = [request_dict(amount=5.0), request_dict(amount=6.0)]
        status, body = call(gateway, "POST", "/v1/jobs", payload)
        assert status == 202
        assert len(body["job_ids"]) == 2

    def test_jobs_listing(self, gateway):
        call(gateway, "POST", "/v1/jobs", request_dict(amount=7.0))
        gateway.service.wait_all(timeout=60)
        status, body = call(gateway, "GET", "/v1/jobs")
        assert status == 200
        assert any(j["state"] == "done" for j in body["jobs"])
        status, body = call(gateway, "GET", "/v1/jobs?state=failed")
        assert status == 200 and body["jobs"] == []

    def test_unknown_job_is_404(self, gateway):
        status, body = call(gateway, "GET", "/v1/jobs/job-999999")
        assert status == 404
        assert "no such job" in body["error"]

    def test_delete_cancels_or_reports(self, gateway):
        _, body = call(gateway, "POST", "/v1/jobs", request_dict(amount=8.0))
        (job_id,) = body["job_ids"]
        status, body = call(gateway, "DELETE", f"/v1/jobs/{job_id}")
        assert status == 200
        assert body["job_id"] == job_id
        assert isinstance(body["cancelled"], bool)
        gateway.service.wait_all(timeout=60)


class TestObservability:
    def test_prometheus_format(self, gateway):
        # Warm at least one latency sample so the summary family renders.
        call(gateway, "POST", "/v1/schedule", request_dict())
        req = urllib.request.Request(gateway.url + "/v1/metrics?format=prometheus")
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
        lines = text.splitlines()
        assert any(l.startswith("# TYPE repro_") for l in lines)
        assert any("repro_uptime_seconds" in l for l in lines)
        assert any("repro_schedule_latency_s_count" in l for l in lines)
        # Every sample line is "name{labels} value" with a float value.
        for line in lines:
            if line and not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])

    def test_json_stays_default(self, gateway):
        status, body = call(gateway, "GET", "/v1/metrics?format=json")
        assert status == 200
        assert "cache" in body

    def test_unknown_format_is_400(self, gateway):
        status, body = call(gateway, "GET", "/v1/metrics?format=xml")
        assert status == 400
        assert "unknown metrics format" in body["error"]

    def test_trace_id_header_on_every_response(self, gateway):
        req = urllib.request.Request(gateway.url + "/v1/healthz")
        with urllib.request.urlopen(req, timeout=30) as resp:
            trace_id = resp.headers["X-Trace-Id"]
        assert trace_id and len(trace_id) == 16
        # Errors carry one too, echoed in the body for correlation.
        status, body = call(gateway, "GET", "/v1/jobs?state=zombie")
        assert status == 400 and body["trace_id"]


class TestRouting:
    def test_unknown_route_is_404(self, gateway):
        status, body = call(gateway, "GET", "/v2/healthz")
        assert status == 404
        status, body = call(gateway, "GET", "/v1/teleport")
        assert status == 404

    def test_bad_state_filter_is_400(self, gateway):
        status, body = call(gateway, "GET", "/v1/jobs?state=zombie")
        assert status == 400
