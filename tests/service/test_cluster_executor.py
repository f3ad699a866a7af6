"""Cluster-executor mode: the service computes on remote worker nodes.

``SchedulingService(executor="cluster", nodes=...)`` ships compute to a
:class:`repro.cluster.ClusterPool` while queueing, backpressure, retries,
timeouts, caching, and drain stay in the parent — the same split as the
process executor, across machines. These tests use in-process
:class:`ClusterWorker` nodes on the loopback so the wire is real but the
fixture is cheap.
"""

import json
import time
import urllib.request

import pytest

from repro.cluster.worker import ClusterWorker
from repro.errors import ServiceError
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


@pytest.fixture()
def nodes():
    with ClusterWorker(port=0, slots=1, heartbeat_s=0.2) as a, ClusterWorker(
        port=0, slots=1, heartbeat_s=0.2
    ) as b:
        yield ",".join(f"{w.address[0]}:{w.address[1]}" for w in (a, b))


class TestClusterMode:
    def test_response_matches_thread_executor(self, nodes):
        with SchedulingService(max_workers=1, cache_size=0) as threaded:
            expect = threaded.schedule(request_dict(n_reps=3)).to_dict()
        with SchedulingService(max_workers=1, cache_size=0,
                               executor="cluster", nodes=nodes) as svc:
            got = svc.schedule(request_dict(n_reps=3)).to_dict()
        for out in (expect, got):
            out.pop("elapsed_s")
            out.pop("stages", None)
        assert got == expect

    def test_nodes_required(self):
        with pytest.raises(ServiceError, match="nodes"):
            SchedulingService(executor="cluster")

    def test_stats_expose_cluster_nodes(self, nodes):
        with SchedulingService(max_workers=1, cache_size=0,
                               executor="cluster", nodes=nodes) as svc:
            svc.schedule(request_dict())
            stats = svc.stats()
            assert stats["executor"] == "cluster"
            assert stats["cluster_nodes"] == 2
            assert len(stats["workers"]) == 2
        with SchedulingService(max_workers=1, cache_size=0) as svc:
            assert svc.stats()["cluster_nodes"] is None


class TestConcurrentJobs:
    def test_four_concurrent_jobs_finish_well_inside_job_timeout(
        self, nodes
    ):
        # Four job threads share one ClusterPool, each waiting on its
        # own job's result.
        with SchedulingService(max_workers=4, cache_size=0, job_timeout=20,
                               executor="cluster", nodes=nodes) as svc:
            started = time.monotonic()
            ids = []
            for rng in range(4):
                request = request_dict(rng=rng)
                request["workflow"]["n_tasks"] = 20
                ids.append(svc.submit(request))
            for job_id in ids:
                svc.result(job_id, timeout=60)
            assert [svc.job(j).state for j in ids] == ["done"] * 4
            assert time.monotonic() - started < 10


class TestHealth:
    """Satellite: /v1/healthz reports the backend and live node count."""

    def test_health_reports_executor_and_node_count(self, nodes):
        with SchedulingService(max_workers=1, cache_size=0,
                               executor="cluster", nodes=nodes) as svc:
            health = svc.health()
            assert health["ready"] is True
            assert health["executor"] == "cluster"
            assert health["worker_count"] == 2

    def test_health_on_thread_and_process_executors(self):
        with SchedulingService(max_workers=3, cache_size=0) as svc:
            health = svc.health()
            assert health["executor"] == "thread"
            assert health["worker_count"] == 3
        with SchedulingService(max_workers=1, cache_size=0,
                               executor="process") as svc:
            health = svc.health()
            assert health["executor"] == "process"
            assert health["worker_count"] >= 1

    def test_healthz_endpoint_carries_new_fields(self, nodes):
        svc = SchedulingService(max_workers=1, cache_size=0,
                                executor="cluster", nodes=nodes)
        gw = start_gateway(svc)
        try:
            with urllib.request.urlopen(
                gw.url + "/v1/healthz", timeout=30
            ) as resp:
                body = json.load(resp)
            assert body["executor"] == "cluster"
            assert body["worker_count"] == 2
            with urllib.request.urlopen(
                gw.url + "/v1/metrics?format=prometheus", timeout=30
            ) as resp:
                text = resp.read().decode()
            assert "repro_cluster_nodes 2" in text
        finally:
            gw.shutdown()
            svc.close()

    def test_lost_node_degrades_but_stays_ready(self):
        a = ClusterWorker(port=0, slots=1, heartbeat_s=0.2)
        b = ClusterWorker(port=0, slots=1, heartbeat_s=0.2)
        a.start()
        b.start()
        nodes = ",".join(f"{w.address[0]}:{w.address[1]}" for w in (a, b))
        svc = SchedulingService(max_workers=1, cache_size=0,
                                executor="cluster", nodes=nodes)
        try:
            b.close()
            # a request forces the pool to notice the dead node
            svc.schedule(request_dict(n_reps=2))
            health = svc.health()
            assert health["worker_count"] == 1
            assert health["ready"] is True
        finally:
            svc.close()
            a.close()
            b.close()
