"""WorkerPool: ordered results, crash recovery, metrics, and timeouts.

The crash tests kill real worker processes with ``os._exit`` — the same
failure a dying container or OOM kill produces — and assert the pool
retries the affected shards, emits the ``worker.crashed`` event, and
keeps results identical to the serial run.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.errors import WorkerCrashError
from repro.obs.events import WORKER_CRASHED, EventBus
from repro.obs.prometheus import render_prometheus
from repro.parallel import WorkerPool, resolve_workers
from repro.service.metrics import MetricsRegistry


# ---------------------------------------------------------------------------
# worker-side functions (must be module-level: they cross a pickle boundary)

def square(x):
    return x * x


def boom(x):
    raise ValueError(f"bad item {x}")


def crash_once(arg):
    """Die hard on the first attempt, succeed on the retry.

    ``flag`` is a filesystem path shared with the parent: absent means
    "first attempt" — create it and kill the whole worker process the way
    an OOM kill would (no exception, no cleanup).
    """
    flag, value = arg
    if flag and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(1)
    return value * 10


def always_crash(_):
    os._exit(1)


def slow(seconds):
    time.sleep(seconds)
    return seconds


class TestResolveWorkers:
    def test_passthrough_and_serial(self):
        assert resolve_workers(0) == 0
        assert resolve_workers(1) == 1
        assert resolve_workers(6) == 6

    def test_negative_means_all_cores(self):
        assert resolve_workers(-1) >= 1


class TestMap:
    def test_results_positional_not_completion_ordered(self):
        with WorkerPool(2) as pool:
            assert pool.map(square, list(range(10))) == [
                x * x for x in range(10)
            ]

    def test_run_single_item(self):
        with WorkerPool(1) as pool:
            assert pool.run(square, 7) == 49

    def test_fn_exception_propagates_unretried(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="bad item 3"):
                pool.map(boom, [3])
            # the pool itself is still healthy afterwards
            assert pool.map(square, [2]) == [4]
            assert pool.n_crashes == 0

    def test_timeout_raises(self):
        with WorkerPool(1) as pool:
            with pytest.raises(TimeoutError, match="timed out"):
                pool.map(slow, [30.0], timeout=0.2)
            # the stuck worker was freed: the pool serves the next call
            assert pool.map(square, [1, 2, 3]) == [1, 4, 9]

    def test_timeout_in_one_thread_spares_another(self):
        # Both threads share the pool's workers. The timeout terminates
        # them under the other thread's in-flight items, which must be
        # retried on one fresh executor, not lost or failed.
        with WorkerPool(2, max_retries=3) as pool:
            results = []
            other = threading.Thread(target=lambda: results.append(
                pool.map(slow, [0.05] * 12)))
            other.start()
            with pytest.raises(TimeoutError):
                pool.map(slow, [30.0], timeout=0.3)
            other.join(timeout=30)
            assert not other.is_alive()
            assert results == [[0.05] * 12]

    def test_worker_stats_and_heartbeat(self):
        with WorkerPool(2) as pool:
            pool.map(square, list(range(8)))
            stats = pool.worker_stats()
            assert stats and sum(s["tasks"] for s in stats.values()) == 8
            for s in stats.values():
                assert s["busy_s"] >= 0.0 and s["last_seen"] > 0.0

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(square, [1])
        pool.close()  # idempotent

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match=">= 1 worker"):
            WorkerPool(0)
        with pytest.raises(ValueError, match="max_retries"):
            WorkerPool(1, max_retries=-1)


class TestCrashRecovery:
    def test_crashed_shard_retried_results_match_serial(self, tmp_path):
        bus = EventBus()
        metrics = MetricsRegistry()
        flag = str(tmp_path / "crash-once")
        items = [("", i) for i in range(6)]
        items[3] = (flag, 3)  # item 3 kills its worker on the first attempt
        with WorkerPool(2, metrics=metrics, events=bus) as pool:
            results = pool.map(crash_once, items)
        assert results == [i * 10 for i in range(6)]  # serial answer
        assert pool.n_crashes >= 1 and pool.n_respawns >= 1
        crashes = bus.history(types=(WORKER_CRASHED,))
        assert crashes
        event = crashes[0].data
        assert 3 in event["shard_indices"]
        assert event["attempt"] == 1 and event["pool_workers"] == 2
        assert metrics.counter("worker_crashes") >= 1
        assert metrics.counter("worker_respawns") >= 1
        rendered = render_prometheus(metrics.snapshot())
        assert "repro_worker_crashes_total" in rendered
        assert "repro_worker_respawns_total" in rendered

    def test_retries_exhausted_raises_worker_crash_error(self):
        with WorkerPool(1, max_retries=1) as pool:
            with pytest.raises(WorkerCrashError, match="exhausted") as info:
                pool.map(always_crash, [0])
            # the broken executor is replaced before the next submit
            assert pool.map(square, [3]) == [9]
        assert info.value.shard_indices == (0,)
        # one initial attempt + one retry, each a crash
        assert pool.n_crashes == 2

    def test_worker_stats_mark_dead_pids_and_alive_count_live_ones(self):
        with WorkerPool(2, max_retries=1) as pool:
            pool.map(square, list(range(8)))
            first = set(pool.worker_stats())
            with pytest.raises(WorkerCrashError):
                pool.map(always_crash, [0])
            pool.map(square, list(range(8)))
            stats = pool.worker_stats()
            assert pool.alive_count == 2
            # every pid that ever ran an item keeps its entry
            assert first <= set(stats)
            assert not any(stats[pid]["alive"] for pid in first)
            live = {p.pid for p in multiprocessing.active_children()}
            marked = {pid for pid, s in stats.items() if s["alive"]}
            assert marked and marked <= live

    def test_worker_crash_error_is_transient_not_repro(self):
        from repro.errors import ReproError

        err = WorkerCrashError("x", shard_indices=(1,))
        assert isinstance(err, RuntimeError)
        assert not isinstance(err, ReproError)
