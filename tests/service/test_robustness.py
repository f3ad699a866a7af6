"""Service hardening: backpressure, retries, containment, timeouts, drain."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import (
    JobTimeoutError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.obs.events import EventBus
from repro.service import SchedulingService
from repro.service.http import start_gateway


def request_dict(n_reps=0):
    return {
        "workflow": {"family": "montage", "n_tasks": 15, "rng": 1,
                     "sigma_ratio": 0.5},
        "algorithm": "heft_budg",
        "budget": {"amount": 2.0},
        "evaluation": {"n_reps": n_reps},
    }


class Gate:
    """Blocks worker threads until released; swap in for ``_compute``."""

    def __init__(self, service):
        self.release = threading.Event()
        self.entered = threading.Event()
        self._orig = service._compute

    def __call__(self, request, call):
        self.entered.set()
        if not self.release.wait(timeout=30):  # pragma: no cover - hang guard
            raise RuntimeError("gate never released")
        return self._orig(request, call)


class TestBackpressure:
    def test_submit_rejected_beyond_max_queue_depth(self, monkeypatch):
        with SchedulingService(max_workers=1, cache_size=0,
                               max_queue_depth=1) as svc:
            gate = Gate(svc)
            monkeypatch.setattr(svc, "_compute", gate)
            running = svc.submit(request_dict())
            assert gate.entered.wait(timeout=10)
            svc.submit(request_dict())  # 1 pending: at the bound
            with pytest.raises(ServiceOverloadedError, match="queue is full"):
                svc.submit(request_dict())
            assert svc.metrics.counter("jobs_rejected") == 1
            gate.release.set()
            svc.wait_all(timeout=60)
            assert svc.job(running).state == "done"

    def test_http_full_queue_is_429_with_retry_after(self, monkeypatch):
        svc = SchedulingService(max_workers=1, cache_size=0, max_queue_depth=1)
        gate = Gate(svc)
        monkeypatch.setattr(svc, "_compute", gate)
        gw = start_gateway(svc)
        try:
            def post():
                req = urllib.request.Request(
                    gw.url + "/v1/jobs",
                    data=json.dumps(request_dict()).encode(),
                    headers={"Content-Type": "application/json"},
                )
                return urllib.request.urlopen(req, timeout=30)

            post()
            assert gate.entered.wait(timeout=10)
            post()
            with pytest.raises(urllib.error.HTTPError) as info:
                post()
            assert info.value.code == 429
            assert info.value.headers["Retry-After"] is not None
            assert "queue is full" in json.load(info.value)["error"]
        finally:
            gate.release.set()
            gw.shutdown()
            svc.close()


class TestRetries:
    def test_transient_failure_retried_then_succeeds(self, monkeypatch):
        bus = EventBus()
        with SchedulingService(max_workers=1, cache_size=0, events=bus,
                               max_retries=2, retry_backoff_s=0.01) as svc:
            orig, calls = svc._compute, []

            def flaky(request, call):
                calls.append(1)
                if len(calls) < 3:
                    raise RuntimeError(f"transient #{len(calls)}")
                return orig(request, call)

            monkeypatch.setattr(svc, "_compute", flaky)
            job_id = svc.submit(request_dict())
            svc.result(job_id, timeout=60)
            record = svc.job(job_id)
            assert record.state == "done" and record.attempts == 3
            retried = bus.history(types=("job.retried",))
            assert [ev.data["attempt"] for ev in retried] == [1, 2]
            assert all("transient" in ev.data["error"] for ev in retried)
            assert svc.metrics.counter("jobs_retried") == 2

    def test_repro_errors_are_not_retried(self, monkeypatch):
        with SchedulingService(max_workers=1, cache_size=0,
                               max_retries=3, retry_backoff_s=0.01) as svc:
            calls = []

            def broken(request, call):
                calls.append(1)
                raise ServiceError("deterministic spec problem")

            monkeypatch.setattr(svc, "_compute", broken)
            job_id = svc.submit(request_dict())
            with pytest.raises(ServiceError, match="deterministic"):
                svc.result(job_id, timeout=60)
            assert len(calls) == 1
            assert svc.job(job_id).state == "failed"


class TestContainment:
    def test_worker_bomb_marks_failed_and_pool_survives(self, monkeypatch):
        bus = EventBus()
        with SchedulingService(max_workers=1, cache_size=0,
                               events=bus) as svc:
            def bomb(request, call):
                raise SystemExit("worker bomb")

            orig = svc._compute
            monkeypatch.setattr(svc, "_compute", bomb)
            job_id = svc.submit(request_dict())
            with pytest.raises(ServiceError, match="worker bomb"):
                svc.result(job_id, timeout=60)
            record = svc.job(job_id)
            assert record.state == "failed"
            assert "worker bomb" in record.error
            assert "SystemExit" in record.traceback
            kinds = [ev.type for ev in bus.history()
                     if ev.data.get("job_id") == job_id]
            assert kinds[-2:] == ["job.failed", "job.finished"]
            assert svc.metrics.counter("jobs_failed") == 1
            # the pool is still alive: a healthy job completes
            monkeypatch.setattr(svc, "_compute", orig)
            ok = svc.submit(request_dict())
            svc.result(ok, timeout=60)
            assert svc.job(ok).state == "done"
            svc.stats()  # terminal-state invariant holds


class TestSSEDelivery:
    """Failure-path events reach SSE clients, not just the in-process bus."""

    def read_sse(self, url, timeout=30):
        frames = []
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            event, data = None, None
            for raw in resp:
                line = raw.decode().rstrip("\n")
                if line.startswith("event: "):
                    event = line[len("event: "):]
                elif line.startswith("data: "):
                    data = json.loads(line[len("data: "):])
                elif not line and event is not None:
                    frames.append((event, data))
                    event, data = None, None
        return frames

    def test_job_retried_and_failed_frames_on_stream(self, monkeypatch):
        svc = SchedulingService(max_workers=1, cache_size=0,
                                max_retries=1, retry_backoff_s=0.01)

        def doomed(request, call):
            raise RuntimeError("flaky backend")

        monkeypatch.setattr(svc, "_compute", doomed)
        gw = start_gateway(svc)
        try:
            req = urllib.request.Request(
                gw.url + "/v1/jobs",
                data=json.dumps(request_dict()).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=30) as resp:
                assert resp.status == 202
                (job_id,) = json.load(resp)["job_ids"]
            svc.wait_all(timeout=60)
            frames = self.read_sse(
                gw.url + f"/v1/jobs/{job_id}/events?timeout=10"
            )
            kinds = [event for event, _ in frames]
            assert "job.retried" in kinds
            assert "job.failed" in kinds
            assert kinds[-1] == "job.finished"
            failed = dict(frames)["job.failed"]
            assert "flaky backend" in failed["data"]["error"]
            assert dict(frames)["job.finished"]["data"]["state"] == "failed"
        finally:
            gw.shutdown()
            svc.close()


class TestTimeouts:
    def test_job_timeout_marks_timed_out(self, monkeypatch):
        with SchedulingService(max_workers=1, cache_size=0,
                               job_timeout=0.05) as svc:
            def slow(request, call):
                deadline = call.deadline
                while time.monotonic() < deadline + 0.1:
                    svc._check_job_deadline(call)
                    time.sleep(0.005)
                return None  # pragma: no cover - deadline fires first

            monkeypatch.setattr(svc, "_compute", slow)
            job_id = svc.submit(request_dict())
            with pytest.raises(JobTimeoutError):
                svc.result(job_id, timeout=60)
            assert svc.job(job_id).state == "failed"
            assert svc.metrics.counter("jobs_timed_out") == 1


    def test_thread_route_deadline_fires_inside_the_replays(self):
        # No fake compute: the deadline check between replays must stop a
        # job far longer than its budget.
        with SchedulingService(max_workers=1, cache_size=0,
                               job_timeout=0.2) as svc:
            started = time.monotonic()
            job_id = svc.submit(request_dict(n_reps=3000))
            with pytest.raises(JobTimeoutError):
                svc.result(job_id, timeout=60)
            assert time.monotonic() - started < 5.0
            assert svc.job(job_id).state == "failed"
            assert svc.metrics.counter("jobs_timed_out") == 1


class TestFailedRequestDuration:
    """A failed request's SLO duration includes the compute that failed."""

    @staticmethod
    def failing_after(seconds):
        def compute(*_args):
            time.sleep(seconds)
            raise RuntimeError("compute failed late")

        return compute

    def check_recorded(self, svc, seconds):
        report = svc.slo.snapshot()
        floor = seconds * (1 - report["alpha"])
        assert report["failures"] == 1
        assert report["stages"]["request"]["p50"] >= floor
        # the failing segment is charged to the route's compute stage
        assert report["stages"]["batched"]["p50"] >= floor

    def test_failed_job(self, monkeypatch):
        with SchedulingService(max_workers=1, cache_size=0) as svc:
            monkeypatch.setattr(svc, "_compute", self.failing_after(0.3))
            job_id = svc.submit(request_dict())
            with pytest.raises(ServiceError, match="failed late"):
                svc.result(job_id, timeout=60)
            self.check_recorded(svc, 0.3)

    def test_failed_sync_call(self, monkeypatch):
        with SchedulingService(max_workers=1, cache_size=0) as svc:
            monkeypatch.setattr(svc, "_compute", self.failing_after(0.3))
            with pytest.raises(RuntimeError, match="failed late"):
                svc.schedule(request_dict())
            self.check_recorded(svc, 0.3)


class TestStageViewsAgree:
    """The Prometheus stage series and ``/v1/slo`` see the same samples."""

    def test_failed_calls_feed_both_views(self, monkeypatch):
        with SchedulingService(max_workers=1, cache_size=0) as svc:
            svc.schedule(request_dict())

            def failing(*_args):
                raise RuntimeError("compute failed")

            monkeypatch.setattr(svc, "_compute", failing)
            for _ in range(3):
                with pytest.raises(RuntimeError, match="compute failed"):
                    svc.schedule(request_dict())
            series = svc.metrics.snapshot()["series"]
            stages = svc.slo.snapshot()["stages"]

        assert series["stage_batched_seconds"]["count"] == 4
        assert stages["batched"]["count"] == 4
        names = {name[len("stage_"):-len("_seconds")]
                 for name in series if name.startswith("stage_")}
        assert names == set(stages) - {"request"}
        for name in names:
            window = series[f"stage_{name}_seconds"]
            assert window["count"] == stages[name]["count"] < 1024
            # same samples, same sketch, same alpha: bit-equal
            for p in ("p50", "p95", "p99"):
                assert window[f"window_{p}"] == stages[name][p], (name, p)


class TestCancelRace:
    def test_cancel_before_future_submission_wins(self, monkeypatch):
        with SchedulingService(max_workers=1, cache_size=0) as svc:
            gate = Gate(svc)
            monkeypatch.setattr(svc, "_compute", gate)
            svc.submit(request_dict())
            assert gate.entered.wait(timeout=10)
            queued = svc.submit(request_dict())  # waits behind the gate
            assert svc.cancel(queued) is True
            gate.release.set()
            svc.wait_all(timeout=60)
            assert svc.job(queued).state == "cancelled"

    def test_wait_all_tolerates_cancelled_jobs(self, monkeypatch):
        with SchedulingService(max_workers=1, cache_size=0) as svc:
            gate = Gate(svc)
            monkeypatch.setattr(svc, "_compute", gate)
            svc.submit(request_dict())
            assert gate.entered.wait(timeout=10)
            queued = svc.submit(request_dict())
            svc.cancel(queued)
            gate.release.set()
            svc.wait_all(timeout=60)  # must not raise CancelledError


class TestDrain:
    def test_close_drains_and_publishes_lifecycle(self):
        bus = EventBus()
        svc = SchedulingService(max_workers=2, cache_size=0, events=bus)
        ids = [svc.submit(request_dict()) for _ in range(3)]
        svc.close(wait=True)
        assert all(svc.job(j).state == "done" for j in ids)
        kinds = [ev.type for ev in bus.history()]
        assert "service.draining" in kinds and "service.closed" in kinds
        assert kinds.index("service.draining") < kinds.index("service.closed")
        with pytest.raises(ServiceClosedError):
            svc.submit(request_dict())
        with pytest.raises(ServiceClosedError):
            svc.schedule(request_dict())
        svc.close()  # idempotent

    def test_sigterm_triggers_graceful_drain(self, tmp_path):
        script = tmp_path / "serve_once.py"
        script.write_text(
            "import sys\n"
            "from repro.cli import main\n"
            "print('ready', flush=True)\n"
            "sys.exit(main(['serve', '--port', '0', '--workers', '1',\n"
            "               '--cache-size', '0']))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-u", str(script)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            deadline = time.time() + 30
            while time.time() < deadline:
                line = proc.stdout.readline()
                # "endpoints:" prints right before serve_forever(); waiting
                # for it (plus a beat) keeps SIGTERM out of the startup gap.
                if "endpoints:" in line:
                    break
            else:  # pragma: no cover - startup hang guard
                pytest.fail("gateway never came up")
            time.sleep(0.5)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup guard
                proc.kill()
        assert proc.returncode == 0
        assert "draining: waiting for in-flight jobs" in out
        assert "drained; bye" in out
