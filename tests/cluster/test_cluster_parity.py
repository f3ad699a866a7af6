"""Cluster execution is bit-identical to serial, even through node loss.

Real worker *processes* (launched through the CLI entry point, exactly as
a deployment would) back these tests, so the full path is exercised:
pickle → socket → remote execution → socket → ordered merge.
"""

import os
import re
import signal
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster import ClusterPool
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_point, run_sweep

SRC = Path(__file__).resolve().parents[2] / "src"


def smoke_config(seed):
    return ExperimentConfig.smoke(
        families=("montage",), n_tasks=15, n_instances=1,
        budgets_per_workflow=2, n_reps=8, seed=seed,
        algorithms=("heft_budg", "minmin"),
    )


def strip_wallclock(records):
    return [replace(r, sched_seconds=0.0) for r in records]


def _spawn_worker():
    """Launch one ``repro-exp worker`` subprocess; returns (proc, address)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-c",
            "from repro.cli import main; import sys; sys.exit(main())",
            "worker", "--listen", "127.0.0.1:0", "--heartbeat", "0.2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+:\d+)", line)
    if not match:
        proc.kill()
        raise RuntimeError(f"worker did not announce its address: {line!r}")
    return proc, match.group(1)


def _reap(*procs):
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


@pytest.fixture(scope="module")
def worker_nodes():
    spawned = [_spawn_worker() for _ in range(2)]
    yield ",".join(address for _proc, address in spawned)
    _reap(*(proc for proc, _address in spawned))


class TestClusterSweepParity:
    def test_run_sweep_bit_identical_to_serial(self, worker_nodes):
        serial = run_sweep(smoke_config(2018))
        clustered = run_sweep(smoke_config(2018), workers=worker_nodes)
        assert strip_wallclock(clustered) == strip_wallclock(serial)

    def test_run_point_bit_identical_to_serial(self, worker_nodes):
        from repro.experiments.budgets import high_budget
        from repro.platform.cloud import PAPER_PLATFORM
        from repro.workflow.generators import generate

        wf = generate("cybershake", 20, rng=5, sigma_ratio=0.5)
        budget = high_budget(wf, PAPER_PLATFORM)
        serial = run_point(wf, PAPER_PLATFORM, "heft_budg", budget, 12, 42)
        clustered = run_point(
            wf, PAPER_PLATFORM, "heft_budg", budget, 12, 42,
            workers=worker_nodes,
        )
        assert strip_wallclock(clustered) == strip_wallclock(serial)


class TestKillNodeParity:
    def test_sigkill_one_node_mid_sweep_still_bit_identical(
        self, monkeypatch
    ):
        """Hard-kill a worker once the sweep is demonstrably mid-flight.

        The victim is killed the instant it receives its *first* shard
        (dispatch is recorded before ``_send_shard`` returns), so that
        shard is provably dispatched-and-unanswered when the SIGKILL
        lands and the sweep can only complete through reassignment.
        Killing on a later trigger (say, the first *result*) is racy: a
        starved coordinator thread can wake to find every result already
        queued and nothing left in flight.
        """
        procs = {}
        (proc_a, addr_a), (proc_b, addr_b) = _spawn_worker(), _spawn_worker()
        procs[addr_a], procs[addr_b] = proc_a, proc_b
        pool_box = {}
        try:
            config = smoke_config(7)
            serial = run_sweep(config)

            def instrumented_make_pool(backend, **kwargs):
                pool = ClusterPool(
                    ",".join(procs), heartbeat_timeout=5.0, **kwargs
                )
                pool_box["pool"] = pool
                original = pool._send_shard
                dispatched_to = []
                fired = threading.Event()

                def hooked(fn, item, node, trace_ctx):
                    sent = original(fn, item, node, trace_ctx)
                    if sent and not fired.is_set():
                        if node.address not in dispatched_to:
                            dispatched_to.append(node.address)
                        if len(dispatched_to) == 2:
                            fired.set()
                            pool_box["victim"] = node.address
                            procs[node.address].send_signal(signal.SIGKILL)
                    return sent

                pool._send_shard = hooked
                return pool

            monkeypatch.setattr(
                "repro.experiments.runner.make_pool", instrumented_make_pool
            )
            clustered = run_sweep(config, workers=",".join(procs))

            assert strip_wallclock(clustered) == strip_wallclock(serial)
            pool = pool_box["pool"]
            assert pool.n_crashes == 1
            assert pool.n_reassignments >= 1
            assert procs[pool_box["victim"]].wait(timeout=10) is not None
        finally:
            _reap(*procs.values())
