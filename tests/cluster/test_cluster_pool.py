"""ClusterPool over in-process workers: ordering, faults, reassignment."""

import sys
import threading
import time

import pytest

from repro.cluster import ClusterPool
from repro.cluster.worker import ClusterWorker
from repro.errors import ClusterError, ClusterProtocolError, WorkerCrashError
from repro.obs.events import NODE_JOINED, NODE_LOST, SHARD_REASSIGNED, EventBus
from repro.service.metrics import MetricsRegistry


def _square(x):
    return x * x


def _slow_square(x):
    time.sleep(0.05)
    return x * x


def _boom(x):
    if x == 7:
        raise ValueError("item 7 is cursed")
    return x


@pytest.fixture()
def two_workers():
    with ClusterWorker(port=0, slots=1, heartbeat_s=0.2) as a, ClusterWorker(
        port=0, slots=1, heartbeat_s=0.2
    ) as b:
        yield a, b


def _addresses(*workers):
    return ",".join(f"{w.address[0]}:{w.address[1]}" for w in workers)


class TestMap:
    def test_ordered_results_match_serial(self, two_workers):
        with ClusterPool(_addresses(*two_workers)) as pool:
            assert pool.workers == 2
            assert pool.alive_count == 2
            got = pool.map(_square, list(range(37)), timeout=60)
        assert got == [x * x for x in range(37)]

    def test_empty_and_single_item(self, two_workers):
        with ClusterPool(_addresses(*two_workers)) as pool:
            assert pool.map(_square, [], timeout=60) == []
            assert pool.run(_square, 9, timeout=60) == 81

    def test_fn_exception_propagates_unchanged(self, two_workers):
        with ClusterPool(_addresses(*two_workers)) as pool:
            with pytest.raises(ValueError, match="item 7 is cursed"):
                pool.map(_boom, list(range(12)), timeout=60)
            # a task failure is the item's answer, not a node fault
            assert pool.n_crashes == 0
            assert pool.alive_count == 2
            # the pool stays usable for the next map
            assert pool.map(_square, [4, 5], timeout=60) == [16, 25]

    def test_worker_stats_shape(self, two_workers):
        with ClusterPool(_addresses(*two_workers)) as pool:
            pool.map(_square, list(range(8)), timeout=60)
            stats = pool.worker_stats()
        assert len(stats) == 2
        assert sum(s["tasks"] for s in stats.values()) == 8
        for s in stats.values():
            assert s["alive"] is True
            assert s["slots"] == 1
            assert s["busy_s"] >= 0.0


class TestFaults:
    def test_connect_refused_is_cluster_error(self):
        with pytest.raises(ClusterError, match="cannot connect"):
            ClusterPool("127.0.0.1:1")  # reserved port, nothing listens

    def test_token_mismatch_rejected(self):
        with ClusterWorker(port=0, token="right") as w:
            with pytest.raises(ClusterProtocolError, match="refused"):
                ClusterPool(_addresses(w), token="wrong")
            # matching token connects fine
            with ClusterPool(_addresses(w), token="right") as pool:
                assert pool.map(_square, [3], timeout=60) == [9]

    def test_node_loss_reassigns_and_completes(self, two_workers):
        a, b = two_workers
        events = EventBus()
        metrics = MetricsRegistry()
        with ClusterPool(
            _addresses(a, b),
            events=events,
            metrics=metrics,
            heartbeat_timeout=5.0,
        ) as pool:
            assert len(events.history(types=[NODE_JOINED])) == 2
            killer = threading.Timer(0.4, b.close)
            killer.start()
            try:
                got = pool.map(_slow_square, list(range(40)), timeout=120)
            finally:
                killer.cancel()
            assert got == [x * x for x in range(40)]
            assert pool.n_crashes == 1
            assert pool.alive_count == 1
        lost = events.history(types=[NODE_LOST])
        assert len(lost) == 1
        assert lost[0].data["node"] == f"{b.address[0]}:{b.address[1]}"
        # the killed node held in-flight shards (bounded at 2 x slots),
        # each either reassigned or already answered by a duplicate
        reassigned = events.history(types=[SHARD_REASSIGNED])
        assert len(reassigned) == pool.n_reassignments
        if pool.n_reassignments:
            counters = metrics.snapshot()["counters"]
            assert counters["cluster_reassignments"] == pool.n_reassignments

    def test_all_nodes_lost_raises_worker_crash(self):
        with ClusterWorker(port=0, slots=1, heartbeat_s=0.2) as w:
            with ClusterPool(
                _addresses(w), heartbeat_timeout=5.0
            ) as pool:
                threading.Timer(0.3, w.close).start()
                with pytest.raises(WorkerCrashError) as excinfo:
                    pool.map(_slow_square, list(range(50)), timeout=120)
                assert excinfo.value.shard_indices  # names the unfinished work
                assert pool.alive_count == 0

    def test_map_timeout(self, two_workers):
        with ClusterPool(_addresses(*two_workers)) as pool:
            with pytest.raises(TimeoutError):
                pool.map(time.sleep, [5.0, 5.0], timeout=0.5)

    def test_closed_pool_rejects_map(self, two_workers):
        pool = ClusterPool(_addresses(*two_workers))
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(_square, [1])


class TestStealing:
    def test_idle_node_duplicates_slow_shard_first_result_wins(self):
        # one very slow item: node A gets stuck on it, node B finishes the
        # rest, goes idle, and steals a duplicate after steal_after_s.
        with ClusterWorker(port=0, slots=1, heartbeat_s=0.2) as a, (
            ClusterWorker(port=0, slots=1, heartbeat_s=0.2)
        ) as b:
            with ClusterPool(
                _addresses(a, b), steal_after_s=0.3
            ) as pool:
                got = pool.map(_slow_square, list(range(10)), timeout=120)
                assert got == [x * x for x in range(10)]
                # duplicates (if any fired) were suppressed: every node
                # still alive, nothing retried as a fault
                assert pool.n_crashes == 0


class TestConcurrentCallers:
    """One pool, several threads: each call waits on its own futures."""

    @staticmethod
    def _map_in_threads(pool, fn, batches, timeout):
        results, errors = {}, []

        def call(key):
            try:
                results[key] = pool.map(fn, batches[key], timeout=timeout)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=call, args=(key,)) for key in batches
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the callers finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=timeout + 10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        return results, errors

    def test_four_threads_get_their_own_ordered_results(self, two_workers):
        batches = {k: [10 * k + i for i in range(4)] for k in range(4)}
        with ClusterPool(_addresses(*two_workers)) as pool:
            results, errors = self._map_in_threads(
                pool, _square, batches, timeout=10)
        assert errors == []
        assert results == {
            k: [x * x for x in batch] for k, batch in batches.items()
        }

    def test_node_lost_under_two_calls_both_complete(self, two_workers):
        a, b = two_workers
        events = EventBus()
        batches = {k: [100 * k + i for i in range(20)] for k in range(2)}
        with ClusterPool(
            _addresses(a, b), heartbeat_timeout=5.0, events=events
        ) as pool:
            killer = threading.Timer(0.3, b.close)
            killer.start()
            try:
                results, errors = self._map_in_threads(
                    pool, _slow_square, batches, timeout=30)
            finally:
                killer.cancel()
            assert errors == []
            assert results == {
                k: [x * x for x in batch] for k, batch in batches.items()
            }
            assert pool.n_crashes == 1
            assert pool.n_reassignments >= 1
            # both callers' reassignments are counted, none lost
            reassigned = events.history(types=[SHARD_REASSIGNED])
            assert len(reassigned) == pool.n_reassignments
            assert pool.alive_count == 1
