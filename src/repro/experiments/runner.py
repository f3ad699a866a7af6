"""Sweep runner: the machinery behind every figure and table.

Protocol per §V-A: for each workflow instance the scheduler runs **once**
per (algorithm, budget) — scheduling is deterministic given the conservative
weights — and the resulting schedule is executed ``n_reps`` times under
sampled actual weights. Baseline algorithms (MIN-MIN, HEFT) ignore the
budget; they are scheduled with ``B = ∞`` and replicated across the budget
axis by the figure builders.

Variance reduction: within one workflow instance, repetition ``r`` uses the
**same** weight realization for every (algorithm, budget) cell — common
random numbers. Mean curves are unaffected, but paired comparisons
(:mod:`repro.experiments.stats`) then measure scheduling differences
instead of weight-draw noise.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..cluster import make_pool, parse_workers
from ..obs.ledger import RunRow, get_ledger
from ..obs.tracing import get_tracer
from ..parallel import ShardPlan, ShardStats
from ..platform.cloud import CloudPlatform
from ..rng import spawn, spawn_seeds
from ..scheduling.registry import make_scheduler
from ..scheduling.schedule import Schedule
from ..simulation.executor import run_replications, sample_weights
from ..workflow.dag import Workflow
from ..workflow.generators import generate
from .budgets import budget_grid
from .config import ExperimentConfig
from .metrics import RunRecord

__all__ = [
    "replicate",
    "run_point",
    "run_sweep",
    "make_instances",
    "convergence_diagnostics",
    "BASELINE_ALGORITHMS",
]

#: Algorithms that ignore the budget; scheduled once with B = ∞.
BASELINE_ALGORITHMS = frozenset({"minmin", "heft"})


def convergence_diagnostics(
    values: Sequence[float], *, batch_size: int = 1, confidence_z: float = 1.96
) -> Dict[str, Any]:
    """Monte Carlo convergence of a sample mean, one point per batch.

    After every ``batch_size`` samples, records the running mean and the
    normal-approximation CI half-width ``z·s/√n`` (sample std, 0 while
    n < 2). Answers the §V-A protocol question "were 25 repetitions
    enough?": a flat running mean and a small final half-width say yes.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    running_mean: List[float] = []
    ci_halfwidth: List[float] = []
    total = 0.0
    total_sq = 0.0
    for i, value in enumerate(values):
        total += value
        total_sq += value * value
        n = i + 1
        if n % batch_size == 0 or n == len(values):
            mean = total / n
            if n > 1:
                var = max((total_sq - n * mean * mean) / (n - 1), 0.0)
                ci_halfwidth.append(confidence_z * math.sqrt(var / n))
            else:
                ci_halfwidth.append(0.0)
            running_mean.append(mean)
    return {
        "n": len(values),
        "batch_size": batch_size,
        "running_mean": running_mean,
        "ci_halfwidth": ci_halfwidth,
        "final_mean": running_mean[-1] if running_mean else 0.0,
        "final_ci_halfwidth": ci_halfwidth[-1] if ci_halfwidth else 0.0,
    }


def _record_point(task: Dict[str, Any], payload: Dict[str, Any]) -> None:
    """Archive one sweep point (schedule + its reps) into the ledger.

    ``task`` is the point's :func:`_point_task` and ``payload`` its
    :func:`_run_point_payload` result — plain values, so recording works
    identically whether the point was computed in-process or returned
    from a worker (workers never write the ledger; the parent records
    every point, in serial iteration order).
    """
    wf: Workflow = task["wf"]
    ledger = get_ledger()
    records = payload["records"]
    if not ledger.enabled or not records:
        return
    makespans = [r.makespan for r in records]
    costs = [r.total_cost for r in records]
    n = len(records)
    batch = max(1, n // 5)
    ledger.record(
        RunRow(
            source="sweep",
            workflow=wf.name,
            family=task["family"] or wf.name,
            n_tasks=wf.n_tasks,
            algorithm=task["algorithm"],
            budget=task["budget"],
            sigma_ratio=task["sigma_ratio"],
            planned_makespan=payload["planned_makespan"],
            planned_cost=payload["planned_cost"],
            within_budget_plan=payload["within_budget_plan"],
            sim_makespan=sum(makespans) / n,
            sim_cost=sum(costs) / n,
            success_rate=sum(r.valid for r in records) / n,
            n_reps=n,
            n_vms=payload["plan_n_vms"],
            sched_seconds=payload["sched_seconds"],
            extra={
                "instance": task["instance"],
                "budget_index": task["budget_index"],
                "makespan_convergence": convergence_diagnostics(
                    makespans, batch_size=batch
                ),
                # Sample stats for the Welch-CI regression gate
                # (`repro-exp ledger regress --stat`).
                "makespan_stats": ShardStats.of(makespans).to_dict(),
            },
        )
    )


def make_instances(config: ExperimentConfig) -> Dict[Tuple[str, int], Workflow]:
    """Generate the benchmark instances: ``(family, instance) → workflow``."""
    out: Dict[Tuple[str, int], Workflow] = {}
    for family in config.families:
        for instance, rng in enumerate(spawn(config.seed, config.n_instances)):
            out[(family, instance)] = generate(
                family,
                config.n_tasks,
                rng=rng,
                sigma_ratio=config.sigma_ratio,
                name=f"{family}-{config.n_tasks}-i{instance}",
            )
    return out


def replicate(
    wf: Workflow,
    platform: CloudPlatform,
    schedule: Schedule,
    budget: float,
    n_reps: int,
    *,
    seeds: Optional[Sequence[Any]] = None,
    weight_draws: Optional[Sequence[Dict[str, float]]] = None,
    dc_capacity: float = math.inf,
    workers: Union[int, str] = 0,
) -> List[Tuple[float, float, int, bool]]:
    """The one shard step: replay ``schedule`` ``n_reps`` times, sharded.

    Splits the replications into a :class:`~repro.parallel.ShardPlan`,
    maps :func:`~repro.simulation.executor.run_replications` over the
    shards, and merges the rows back into replication order — one
    ``(makespan, total_cost, n_vms, within_budget)`` per replication.
    Replication ``r`` replays ``weight_draws[r]`` when given, else draws
    from ``seeds[r]`` (:func:`repro.rng.spawn_seeds` substreams).

    ``workers`` picks the backend as everywhere else. A pool is built only
    when it can help: always for a cluster node list, and for a process
    count only when the plan has more than one shard — tiny replication
    counts stay in-process. The rows are bit-identical on every backend.
    """
    if weight_draws is not None and len(weight_draws) < n_reps:
        raise ValueError(
            f"need {n_reps} weight draws, got {len(weight_draws)}"
        )
    backend = parse_workers(workers)
    fan_out = backend.kind == "cluster" or not ShardPlan.plan(
        n_reps, backend.n_workers).is_serial
    with make_pool(backend) if fan_out else nullcontext() as pool:
        plan = ShardPlan.plan(
            n_reps, pool.workers if pool is not None else 0
        )
        shard_tasks = [{
            "wf": wf,
            "platform": platform,
            "schedule": schedule,
            "budget": budget,
            "dc_capacity": dc_capacity,
            "validate_first": shard.start == 0,
            "weights": (
                list(shard.slice(weight_draws))
                if weight_draws is not None else None
            ),
            "seeds": None if weight_draws is not None
            else list(shard.slice(seeds)),
        } for shard in plan.shards]
        if pool is None or plan.is_serial:
            per_shard = [run_replications(t) for t in shard_tasks]
        else:
            per_shard = pool.map(run_replications, shard_tasks)
    return plan.merge(per_shard)


def _point_task(
    wf: Workflow,
    platform: CloudPlatform,
    algorithm: str,
    budget: float,
    n_reps: int,
    rng,
    **point: Any,
) -> Dict[str, Any]:
    """The pickle-safe description of one sweep point.

    Spawns the point's ``n_reps`` seeds from ``rng`` here, in the caller,
    so the caller's generator advances identically whether the point is
    then computed inline or in a worker. ``point`` carries ``family``,
    ``instance``, ``sigma_ratio``, ``budget_index``, ``dc_capacity``,
    ``weight_draws`` and, optionally, ``workers``.
    """
    return {
        "wf": wf, "platform": platform, "algorithm": algorithm,
        "budget": budget, "n_reps": n_reps,
        "seeds": spawn_seeds(rng, n_reps), **point,
    }


def _run_point_payload(task: Dict[str, Any]) -> Dict[str, Any]:
    """Compute one sweep point: schedule once, replicate, build records.

    Pure compute, no ledger access — the pickle-safe entrypoint
    :func:`run_sweep` ships to worker processes and runs inline on the
    serial backend. ``task`` comes from :func:`_point_task`; its
    ``workers`` knob (default serial) shards the replications through
    :func:`replicate`. Opens the ``experiments.run_point`` span, in a
    worker as in the parent.
    """
    wf: Workflow = task["wf"]
    algorithm: str = task["algorithm"]
    budget: float = task["budget"]
    family = task["family"] or wf.name
    with get_tracer().span(
        "experiments.run_point", family=family, algorithm=algorithm,
        budget=budget, n_reps=task["n_reps"],
    ) as point_span:
        sched_budget = math.inf if algorithm in BASELINE_ALGORITHMS else budget
        t0 = time.perf_counter()
        result = make_scheduler(algorithm).schedule(
            wf, task["platform"], sched_budget)
        sched_seconds = time.perf_counter() - t0
        point_span.set(sched_seconds=sched_seconds,
                       n_vms=result.schedule.n_vms)
        rows = replicate(
            wf, task["platform"], result.schedule, budget, task["n_reps"],
            seeds=task["seeds"], weight_draws=task["weight_draws"],
            dc_capacity=task["dc_capacity"],
            # 1, not 0: a sweep's points replicate in-process, whatever
            # REPRO_WORKERS says (0 would read it).
            workers=task.get("workers", 1),
        )

    records = [
        RunRecord(
            family=family,
            n_tasks=wf.n_tasks,
            instance=task["instance"],
            sigma_ratio=task["sigma_ratio"],
            algorithm=algorithm,
            budget=budget,
            budget_index=task["budget_index"],
            rep=rep,
            makespan=makespan,
            total_cost=total_cost,
            n_vms=n_vms,
            valid=valid,
            sched_seconds=sched_seconds,
        )
        for rep, (makespan, total_cost, n_vms, valid) in enumerate(rows)
    ]
    return {
        "records": records,
        "planned_makespan": result.planned_makespan,
        "planned_cost": result.planned_vm_cost,
        "within_budget_plan": result.within_budget_plan,
        "plan_n_vms": result.schedule.n_vms,
        "sched_seconds": sched_seconds,
    }


def run_point(
    wf: Workflow,
    platform: CloudPlatform,
    algorithm: str,
    budget: float,
    n_reps: int,
    rng,
    *,
    family: str = "",
    instance: int = 0,
    sigma_ratio: float = 0.0,
    budget_index: int = 0,
    dc_capacity: float = math.inf,
    weight_draws: Optional[Sequence[Dict[str, float]]] = None,
    workers: Union[int, str] = 0,
) -> List[RunRecord]:
    """Schedule once, execute ``n_reps`` stochastic runs, return records.

    ``weight_draws`` fixes the actual-weight realizations (one mapping per
    repetition) — used by :func:`run_sweep` for common random numbers; by
    default fresh draws are sampled from ``rng``.

    ``workers > 1`` shards the replication loop across worker processes;
    a ``"host:port,host:port"`` node list shards it across a
    :class:`repro.cluster.ClusterPool` of remote ``repro-exp worker``
    nodes instead. Every returned number is bit-identical to the serial
    run either way — see ``docs/PARALLEL.md`` and ``docs/CLUSTER.md`` for
    the contract. Tiny replication counts fall back to serial
    automatically on the process backend (see :func:`replicate`).
    """
    task = _point_task(
        wf, platform, algorithm, budget, n_reps, rng,
        family=family, instance=instance, sigma_ratio=sigma_ratio,
        budget_index=budget_index, dc_capacity=dc_capacity,
        weight_draws=weight_draws, workers=workers,
    )
    payload = _run_point_payload(task)
    _record_point(task, payload)
    return payload["records"]


def run_sweep(
    config: ExperimentConfig,
    *,
    dc_capacity: float = math.inf,
    budget_points: Optional[Sequence[float]] = None,
    workers: Union[int, str] = 0,
) -> List[RunRecord]:
    """Full sweep: instances × budgets × algorithms × repetitions.

    Budgets are normalized per workflow (each instance gets its own
    ``B_min``-to-high grid) unless explicit ``budget_points`` are given.
    Budget indices are recorded as fractional positions via the budget value
    itself; figure builders group by grid position.

    ``workers > 1`` fans whole sweep points (one schedule + its
    replications) out to worker processes; a ``"host:port,host:port"``
    node list fans them out to remote ``repro-exp worker`` nodes via
    :class:`repro.cluster.ClusterPool`. Instances, budget grids, and
    the common-random-number weight draws are still generated serially in
    the parent, results come back in submission order, and the parent
    records every point to the ledger — so rows, records, and all floats
    are bit-identical to the serial run, regardless of backend or of
    which node computed which point (see ``docs/PARALLEL.md`` and
    ``docs/CLUSTER.md``).
    """
    tracer = get_tracer()
    instances = make_instances(config)
    exec_streams = spawn(config.seed + 1, len(instances))
    tasks: List[Dict[str, Any]] = []
    for ((family, instance), wf), instance_stream in zip(
            instances.items(), exec_streams):
        with tracer.span(
            "experiments.instance", family=family, instance=instance,
            n_tasks=wf.n_tasks,
        ):
            grid = (
                list(budget_points)
                if budget_points is not None
                else budget_grid(
                    wf, config.platform, config.budgets_per_workflow
                )
            )
            # common random numbers: one weight realization per repetition,
            # shared by every (algorithm, budget) cell of this instance
            draws = [
                sample_weights(wf, r)
                for r in spawn(instance_stream, config.n_reps)
            ]
            for algorithm in config.algorithms:
                for budget_index, budget in enumerate(grid):
                    tasks.append(_point_task(
                        wf, config.platform, algorithm, budget,
                        config.n_reps, instance_stream,
                        family=family, instance=instance,
                        sigma_ratio=config.sigma_ratio,
                        budget_index=budget_index,
                        dc_capacity=dc_capacity, weight_draws=draws,
                    ))
    backend = parse_workers(workers)
    if backend.is_serial or not tasks:
        payloads = [_run_point_payload(task) for task in tasks]
    else:
        with make_pool(backend) as worker_pool:
            payloads = worker_pool.map(_run_point_payload, tasks)
    records: List[RunRecord] = []
    for task, payload in zip(tasks, payloads):
        _record_point(task, payload)
        records.extend(payload["records"])
    return records
