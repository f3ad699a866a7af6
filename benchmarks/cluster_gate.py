"""CI cluster gate: a live 2-worker loopback cluster must match serial.

Contract checks (any violation exits non-zero):

1. **Parity** — a sweep dispatched to two ``repro-exp worker``
   subprocesses over the wire returns records bit-identical to the
   serial run (all fields except wall-clock ``sched_seconds``).
2. **Kill-node resilience** — SIGKILL one worker the moment the first
   result arrives (so shards are provably in flight on the victim);
   the sweep must complete through reassignment (``n_crashes == 1``,
   ``n_reassignments >= 1``) and still be bit-identical to serial.
3. **Service health** — a cluster-backed :class:`SchedulingService`
   answers a schedule request and reports ``executor="cluster"`` with
   the live node count on ``/v1/healthz``; with ``max_workers=4``, four
   concurrent jobs sharing the one pool all finish.

The JSON report doubles as the ``BENCH_PR10.json`` payload: a
``cluster_gate`` section with the measured numbers (throughput is
recorded for trend-watching, not gated — CI runners vary) plus a
``ledger_baseline`` from the clustered sweep that
``repro-exp ledger regress`` gates future runs against.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from dataclasses import replace  # noqa: E402

from repro.cluster import ClusterPool  # noqa: E402
from repro.experiments import runner as runner_mod  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.experiments.runner import run_sweep  # noqa: E402
from repro.obs.ledger import RunLedger, baseline_from_ledger, use_ledger  # noqa: E402
from repro.service.engine import SchedulingService  # noqa: E402


def gate_config(seed=2018, n_reps=10):
    return ExperimentConfig.smoke(
        families=("montage",), n_tasks=20, n_instances=1,
        budgets_per_workflow=3, n_reps=n_reps, seed=seed,
        algorithms=("heft_budg", "minmin"),
    )


def strip_wallclock(records):
    return [replace(r, sched_seconds=0.0) for r in records]


def spawn_worker():
    """Launch one ``repro-exp worker`` subprocess; returns (proc, addr)."""
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-c",
            "from repro.cli import main; import sys; sys.exit(main())",
            "worker", "--listen", "127.0.0.1:0", "--heartbeat", "0.2",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+:\d+)", line)
    if not match:
        proc.kill()
        raise RuntimeError(f"worker did not announce its address: {line!r}")
    return proc, match.group(1)


def reap(*procs):
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15)


def check_parity(ledger_path, failures):
    """Clustered sweep == serial sweep, and the ledger archives it."""
    config = gate_config()
    t0 = time.perf_counter()
    serial = run_sweep(config)
    serial_s = time.perf_counter() - t0

    (proc_a, addr_a), (proc_b, addr_b) = spawn_worker(), spawn_worker()
    try:
        nodes = f"{addr_a},{addr_b}"
        with RunLedger(ledger_path) as ledger, use_ledger(ledger):
            t0 = time.perf_counter()
            clustered = run_sweep(config, workers=nodes)
            cluster_s = time.perf_counter() - t0
        if strip_wallclock(clustered) != strip_wallclock(serial):
            failures.append(
                "clustered sweep records differ from serial "
                f"({len(clustered)} vs {len(serial)} records)"
            )
    finally:
        reap(proc_a, proc_b)
    points = len(serial) // config.n_reps if config.n_reps else 0
    return {
        "records": len(serial),
        "sweep_points": points,
        "serial_s": round(serial_s, 3),
        "cluster_2node_s": round(cluster_s, 3),
        "cluster_points_per_s": round(points / cluster_s, 3)
        if cluster_s else 0.0,
        "parity": strip_wallclock(clustered) == strip_wallclock(serial),
        "note": "wall-clock recorded for trend-watching, not gated",
    }


def check_kill_node(failures):
    """SIGKILL a worker at its first dispatch; parity must hold.

    The victim dies the moment it receives its first shard, which is
    recorded as dispatched before ``_send_shard`` returns — so the kill
    provably orphans an unanswered shard and the sweep can only finish
    through reassignment (a first-*result* trigger is racy: a starved
    coordinator can wake to find every result already queued).
    """
    config = gate_config(seed=7)
    serial = run_sweep(config)

    procs = {}
    (proc_a, addr_a), (proc_b, addr_b) = spawn_worker(), spawn_worker()
    procs[addr_a], procs[addr_b] = proc_a, proc_b
    box = {}
    original_make_pool = runner_mod.make_pool
    try:
        def instrumented_make_pool(backend, **kwargs):
            pool = ClusterPool(
                ",".join(procs), heartbeat_timeout=5.0, **kwargs
            )
            box["pool"] = pool
            original_send = pool._send_shard
            dispatched_to = []
            fired = threading.Event()

            def hooked(fn, item, node, trace_ctx):
                sent = original_send(fn, item, node, trace_ctx)
                if sent and not fired.is_set():
                    if node.address not in dispatched_to:
                        dispatched_to.append(node.address)
                    if len(dispatched_to) == 2:
                        fired.set()
                        box["victim"] = node.address
                        procs[node.address].send_signal(signal.SIGKILL)
                return sent

            pool._send_shard = hooked
            return pool

        runner_mod.make_pool = instrumented_make_pool
        clustered = run_sweep(config, workers=",".join(procs))
    finally:
        runner_mod.make_pool = original_make_pool
        reap(*procs.values())

    pool = box.get("pool")
    parity = strip_wallclock(clustered) == strip_wallclock(serial)
    if not parity:
        failures.append("kill-node sweep records differ from serial")
    if pool is None or pool.n_crashes != 1:
        failures.append(
            "expected exactly one node loss, saw "
            f"{getattr(pool, 'n_crashes', None)}"
        )
    if pool is not None and pool.n_reassignments < 1:
        failures.append("victim's in-flight shards were never reassigned")
    return {
        "records": len(clustered),
        "parity": parity,
        "n_crashes": pool.n_crashes if pool else None,
        "n_reassignments": pool.n_reassignments if pool else None,
        "victim": box.get("victim"),
    }


def check_service_health(failures):
    """Cluster executor serves a request and reports honest health."""
    (proc_a, addr_a), (proc_b, addr_b) = spawn_worker(), spawn_worker()
    try:
        with SchedulingService(
            max_workers=1, cache_size=0,
            executor="cluster", nodes=f"{addr_a},{addr_b}",
        ) as svc:
            resp = svc.schedule({
                "workflow": {"family": "montage", "n_tasks": 15, "rng": 1,
                             "sigma_ratio": 0.5},
                "algorithm": "heft_budg",
                "budget": {"amount": 2.0},
                "evaluation": {"n_reps": 3},
            })
            health = svc.health()
        if resp.planned_makespan <= 0:
            failures.append("cluster-backed schedule returned no plan")
        if health.get("executor") != "cluster":
            failures.append(
                f"healthz executor is {health.get('executor')!r}, "
                "wanted 'cluster'"
            )
        if health.get("worker_count") != 2:
            failures.append(
                f"healthz worker_count is {health.get('worker_count')!r}, "
                "wanted 2"
            )
        with SchedulingService(
            max_workers=4, cache_size=0, job_timeout=60,
            executor="cluster", nodes=f"{addr_a},{addr_b}",
        ) as svc:
            ids = [
                svc.submit({
                    "workflow": {"family": "montage", "n_tasks": 20,
                                 "rng": rng, "sigma_ratio": 0.5},
                    "algorithm": "heft_budg",
                    "budget": {"amount": 2.0},
                })
                for rng in range(4)
            ]
            svc.wait_all(timeout=120)
            states = [svc.job(job_id).state for job_id in ids]
        if states != ["done"] * 4:
            failures.append(
                f"four concurrent cluster jobs ended {states}, wanted done"
            )
        return {
            "executor": health.get("executor"),
            "worker_count": health.get("worker_count"),
            "ready": health.get("ready"),
            "concurrent_jobs_done": states.count("done"),
        }
    finally:
        reap(proc_a, proc_b)


def main(argv=None):
    """CLI entry point; exits non-zero on any contract violation."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    parser.add_argument("--db", default=None,
                        help="ledger path (default: a temp file)")
    args = parser.parse_args(argv)

    failures = []
    tmp = None
    if args.db:
        ledger_path = args.db
    else:
        tmp = tempfile.NamedTemporaryFile(suffix=".db", delete=False)
        tmp.close()
        ledger_path = tmp.name
    try:
        parity = check_parity(ledger_path, failures)
        kill = check_kill_node(failures)
        service = check_service_health(failures)
        with RunLedger(ledger_path) as ledger:
            baseline = baseline_from_ledger(ledger)
    finally:
        if tmp is not None:
            os.unlink(tmp.name)

    report = {
        "parity": parity,
        "kill_node": kill,
        "service": service,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {"cluster_gate": report, "ledger_baseline": baseline},
                fh, indent=1, sort_keys=True,
            )
            fh.write("\n")
        print(f"wrote {args.out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
