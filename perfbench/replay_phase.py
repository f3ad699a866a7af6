"""Replay phases: Monte Carlo replications of fixed, pre-planned schedules.

(a) serial, infinite datacenter capacity, the ``heft_budg`` schedules of
    the three families at their medium budgets; (b) serial, a LIGO
    schedule with trace-faithful runtimes (``runtime_scale=1``) under a
    finite datacenter capacity, which takes the flow pool's water-filling
    path; (c) the batches of (a) again, sharded over a warm ``WorkerPool``
    with ``ShardPlan.plan``/``merge``. The rows of (c) must equal those of
    (a) bit for bit. Planning happens during set-up, so simulation does
    nearly all the timed work.
"""

from __future__ import annotations

import contextlib
import math
import pickle
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import DC_CAPACITY, FAMILIES, Phase
from harness import SpanRecorder


class ReplayState:
    """Schedules planned during set-up, and the warm worker pool."""

    def __init__(self, scale, seed: int, platform, workflows, workers: int) -> None:
        from repro.experiments.budgets import medium_budget
        from repro.parallel import WorkerPool
        from repro.scheduling.registry import make_scheduler
        from repro.simulation import executor
        from repro.workflow.generators import generate

        self.platform = platform
        self.targets = []
        for family in FAMILIES:
            wf, budgets = workflows[(family, scale.list_tasks)]
            budget = budgets["medium"]
            result = make_scheduler("heft_budg").schedule(wf, platform, budget)
            self.targets.append((family, wf, result.schedule, budget))
        (dc_seed,) = np.random.SeedSequence([seed, 23]).generate_state(1)
        dc_wf = generate("ligo", scale.dc_tasks, rng=int(dc_seed), sigma_ratio=0.5,
                         runtime_scale=1.0).freeze()
        # The medium budget enrolls many VMs, so many transfers share the
        # datacenter at once (a near-minimal budget runs on one VM).
        dc_budget = medium_budget(dc_wf, platform)
        dc_schedule = make_scheduler("heft_budg").schedule(
            dc_wf, platform, dc_budget).schedule
        self.dc_target = ("ligo-rt1", dc_wf, dc_schedule, dc_budget)
        self.pool = WorkerPool(workers, mp_context="spawn")
        # Warm every worker: the first task a spawned worker runs pays
        # for importing the package and unpickling the function.
        warm = self.task(self.targets[0], _seeds(seed, 99, 0, 0, 1), math.inf)
        for _ in range(3):
            self.pool.map(executor.run_replications, [warm] * (2 * workers))
            if len(self.pool.worker_stats()) >= workers:
                break

    def task(self, target, seeds, capacity, validate_first=True) -> dict:
        """The ``run_replications`` mapping for one batch of seeds."""
        _name, wf, schedule, budget = target
        return {
            "wf": wf, "platform": self.platform, "schedule": schedule,
            "budget": budget, "seeds": seeds, "dc_capacity": capacity,
            "validate_first": validate_first,
        }

    def worker_pids(self) -> List[int]:
        """Pids of the pool's workers (those that have run a task)."""
        return sorted(self.pool.worker_stats())

    def close(self) -> None:
        """Shut the worker pool down."""
        self.pool.close()


def _seeds(seed: int, phase: int, target: int, batch: int, n: int):
    return np.random.SeedSequence([seed, phase, target, batch]).spawn(n)


def _check_rows(rows, n: int, label: str) -> None:
    if len(rows) != n:
        raise AssertionError(f"{label}: {len(rows)} rows for {n} replications")
    for makespan, cost, n_vms, _valid in rows:
        if not (math.isfinite(makespan) and makespan > 0 and math.isfinite(cost)
                and cost > 0 and n_vms >= 1):
            raise AssertionError(f"{label}: implausible row {(makespan, cost, n_vms)}")


def phases(state: ReplayState, scale, seed: int, rec: Optional[SpanRecorder] = None,
           stats: Optional[dict] = None) -> List[Phase]:
    """Phases (a), (b) and (c), in the order a round must run them.

    Each round, (a) replays the next ``replay_per_round`` batches of fresh
    seeds, walking the targets in turn (batch ``visit`` of a target), and
    keeps their rows; (c), walking the targets in the same order, then
    replays the same batches through the pool and
    requires the merged rows to equal them exactly (the
    ``docs/PARALLEL.md`` contract). With ``rec``, (c) records its
    plan/map/merge calls as ``parallel.*`` spans and ``stats`` receives
    the pickled payload size per shard task.
    """
    from repro.parallel import ShardPlan
    from repro.simulation import executor

    rows: Dict[Tuple[int, int], list] = {}
    index = {id(t): i for i, t in enumerate(state.targets)}
    workers = state.pool.workers

    def serial(target, batch: int) -> None:
        i = index[id(target)]
        out = executor.run_replications(
            state.task(target, _seeds(seed, 1, i, batch, scale.batch_reps), math.inf))
        _check_rows(out, scale.batch_reps, f"{target[0]} batch {batch}")
        rows[(i, batch)] = out

    def serial_dc(target, batch: int) -> None:
        out = executor.run_replications(
            state.task(target, _seeds(seed, 2, 0, batch, scale.dc_batch_reps),
                       DC_CAPACITY))
        _check_rows(out, scale.dc_batch_reps, f"{target[0]} batch {batch}")

    def span(name):
        return rec.span(name) if rec is not None else contextlib.nullcontext()

    def sharded(target, batch: int) -> None:
        i = index[id(target)]
        seeds = _seeds(seed, 1, i, batch, scale.batch_reps)
        with span("parallel.plan"):
            plan = ShardPlan.plan(scale.batch_reps, workers)
        if plan.is_serial:
            raise AssertionError(
                f"{scale.batch_reps} replications do not shard over {workers} workers")
        tasks = [
            state.task(target, list(shard.slice(seeds)), math.inf,
                       validate_first=shard.start == 0)
            for shard in plan.shards
        ]
        if stats is not None and "payload_bytes" not in stats:
            sizes = [len(pickle.dumps(t, protocol=pickle.HIGHEST_PROTOCOL)) for t in tasks]
            stats["payload_bytes"] = sum(sizes) / len(sizes)
        with span("parallel.map"):
            per_shard = state.pool.map(executor.run_replications, tasks)
        with span("parallel.merge"):
            merged = plan.merge(per_shard)
        if merged != rows.pop((i, batch)):
            raise AssertionError(
                f"{target[0]} batch {batch}: sharded rows differ from serial rows")

    return [
        Phase("replay", state.targets, serial, scale.batch_reps,
              scale.replay_per_round),
        Phase("replay_dc", [state.dc_target], serial_dc, scale.dc_batch_reps,
              scale.dc_per_round),
        Phase("sharded", state.targets, sharded, scale.batch_reps,
              scale.replay_per_round),
    ]
