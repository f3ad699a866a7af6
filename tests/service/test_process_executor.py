"""Process-executor mode: same robustness contract as the thread pool.

``SchedulingService(executor="process")`` ships compute to a
:class:`repro.parallel.WorkerPool` while queueing, backpressure, retries,
timeouts, caching, and drain all stay in the parent — so the PR 4
robustness guarantees must hold unchanged. Each test here mirrors one from
``test_robustness.py`` with the process executor switched on.
"""

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
    ServiceOverloadedError,
    WorkerCrashError,
)
from repro.obs.events import EventBus
from repro.service import SchedulingService
from repro.service.http import start_gateway


def request_dict(n_reps=0, rng=1):
    return {
        "workflow": {"family": "montage", "n_tasks": 15, "rng": rng,
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


class TestProcessMode:
    def test_response_matches_thread_executor(self):
        with SchedulingService(max_workers=1, cache_size=0) as threaded:
            expect = threaded.schedule(request_dict(n_reps=3)).to_dict()
        with SchedulingService(max_workers=1, cache_size=0,
                               executor="process") as svc:
            got = svc.schedule(request_dict(n_reps=3)).to_dict()
        # elapsed_s and stages are wall-clock telemetry, not results.
        for out in (expect, got):
            out.pop("elapsed_s")
            out.pop("stages", None)
        assert got == expect

    def test_stats_expose_executor_and_worker_heartbeats(self):
        with SchedulingService(max_workers=1, cache_size=0,
                               executor="process") as svc:
            svc.schedule(request_dict())
            stats = svc.stats()
            assert stats["executor"] == "process"
            assert stats["workers"]  # at least the warmup task per worker
        with SchedulingService(max_workers=1, cache_size=0) as svc:
            assert svc.stats()["executor"] == "thread"
            assert svc.stats()["workers"] is None

    def test_unknown_executor_rejected(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="unknown executor"):
            SchedulingService(executor="fiber")


class TestHealth:
    """``/v1/healthz`` counts the pool's live worker processes."""

    def test_worker_count_is_live_processes(self):
        with SchedulingService(max_workers=2, cache_size=0,
                               executor="process") as svc:
            # one pid may have run both warm-ups; both processes count
            assert svc.health()["worker_count"] == 2
            pool = svc._proc_pool
            before = set(pool.worker_stats())
            with pytest.raises(WorkerCrashError):
                pool.map(os._exit, [1])
            pool.map(abs, [-1, -2, -3, -4])
            health = svc.health()
            assert health["worker_count"] == 2
            assert health["ready"] is True
            stats = pool.worker_stats()
            assert not any(stats[pid]["alive"] for pid in before)
            assert sum(s["alive"] for s in stats.values()) <= 2


class TestBackpressure:
    def test_submit_rejected_beyond_max_queue_depth(self, monkeypatch):
        with SchedulingService(max_workers=1, cache_size=0,
                               max_queue_depth=1,
                               executor="process") as svc:
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


class TestRetries:
    def test_transient_failure_retried_then_succeeds(self, monkeypatch):
        bus = EventBus()
        with SchedulingService(max_workers=1, cache_size=0, events=bus,
                               max_retries=2, retry_backoff_s=0.01,
                               executor="process") as svc:
            orig, calls = svc._compute, []

            def flaky(request, call):
                calls.append(1)
                if len(calls) < 3:
                    raise RuntimeError(f"transient #{len(calls)}")
                return orig(request, call)  # final attempt runs in the pool

            monkeypatch.setattr(svc, "_compute", flaky)
            job_id = svc.submit(request_dict())
            svc.result(job_id, timeout=60)
            record = svc.job(job_id)
            assert record.state == "done" and record.attempts == 3
            retried = bus.history(types=("job.retried",))
            assert [ev.data["attempt"] for ev in retried] == [1, 2]
            assert svc.metrics.counter("jobs_retried") == 2


class TestTimeouts:
    def test_deadline_supervised_from_parent(self):
        # A 1 ms budget expires before even a warm worker returns: the
        # parent's pool-level timeout must convert to JobTimeoutError
        # without trusting the child to watch the clock.
        with SchedulingService(max_workers=1, cache_size=0,
                               job_timeout=0.001,
                               executor="process") as svc:
            job_id = svc.submit(request_dict(n_reps=5))
            with pytest.raises(JobTimeoutError, match="process executor"):
                svc.result(job_id, timeout=60)
            assert svc.job(job_id).state == "failed"
            assert svc.metrics.counter("jobs_timed_out") == 1


class TestDrain:
    def test_close_drains_inflight_jobs(self):
        bus = EventBus()
        svc = SchedulingService(max_workers=2, cache_size=0, events=bus,
                                executor="process")
        ids = [svc.submit(request_dict(rng=i)) for i in range(3)]
        svc.close(wait=True)
        assert all(svc.job(j).state == "done" for j in ids)
        kinds = [ev.type for ev in bus.history()]
        assert "service.draining" in kinds and "service.closed" in kinds

    def test_sigterm_triggers_graceful_drain(self, tmp_path):
        script = tmp_path / "serve_once.py"
        script.write_text(
            "import sys\n"
            "from repro.cli import main\n"
            "print('ready', flush=True)\n"
            "sys.exit(main(['serve', '--port', '0', '--workers', '1',\n"
            "               '--cache-size', '0', '--executor', 'process']))\n"
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


class TestHTTP:
    def test_gateway_serves_process_backed_jobs(self):
        svc = SchedulingService(max_workers=1, cache_size=0,
                                executor="process")
        gw = start_gateway(svc)
        try:
            req = urllib.request.Request(
                gw.url + "/v1/schedule",
                data=json.dumps(request_dict(n_reps=2)).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=60) as resp:
                body = json.load(resp)
            assert body["planned_makespan"] > 0
            assert body["evaluation"]["n_reps"] == 2
            assert len(body["evaluation"]["reps"]) == 2
        finally:
            gw.shutdown()
            svc.close()
