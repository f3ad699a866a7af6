"""Resilience study: success under VM crashes, with and without recovery.

The paper evaluates budget validity on a *reliable* platform; this study
asks the robustness question its cost model invites: **when VMs crash
mid-run, how often does a budget-aware schedule still finish, and does
recovering ever break the budget guarantee?**

For each (family, algorithm) pair one schedule is planned, then executed
under seeded :class:`~repro.faults.plan.FaultPlan` draws across a grid of
crash rates and recovery policies (``none`` measures the damage, the
others repair it via :func:`~repro.faults.runner.run_with_faults`). A run
*succeeds* when every task eventually executed **and** the full spend —
including rentals sunk into dead VMs — stayed within the reserved budget.

:func:`spot_resilience_sweep` is the spot-market variant: schedules are
planned spot-first on discounted preemptible capacity, fault plans are
correlated market revocation bursts
(:meth:`~repro.faults.spot.SpotScenario.sample_plan`), recoveries resume
from banked checkpoints and fall back to on-demand twins, and a
contingency-reserve axis (:class:`~repro.scheduling.contingency.
ContingencyScheduler`) maps the reserve-fraction × revocation-rate
cost/makespan/success frontier.

Both sweeps bind one private core, ``_sweep``: cells → one plan per
(family, scheduler) → one task per cell → a single pool fan-out (or an
inline loop) → one loop that builds each cell's :class:`ResiliencePoint`
and ledger rows. A sweep only names what differs: its cell axes, its
planning and execution platforms, the scheduler each cell plans with
(``+res`` suffix for a reserve), the
:class:`~repro.faults.spot.SpotScenario` of a spot cell, and the ledger
``extra`` fields.

Every run lands in the active ledger (``source="faults"``, algorithm
labelled by :attr:`ResiliencePoint.label`: ``heft_budg+remap@0.1`` —
spot cells ``heft_budg+retry@spot0.5r0.2``) so ``repro-exp ledger
regress --success-threshold`` can gate resilience in CI exactly like
makespan and cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from ..cluster import make_pool, parse_workers
from ..experiments.budgets import high_budget, minimal_budget
from ..faults.plan import FaultPlan
from ..faults.runner import OUTCOME_BUDGET_EXHAUSTED, run_with_faults
from ..faults.spot import CheckpointConfig, SpotScenario
from ..obs.ledger import RunRow, get_ledger
from ..platform.cloud import PAPER_PLATFORM, CloudPlatform
from ..platform.pricing import SpotMarket, add_spot_categories, spot_only
from ..rng import RngLike, spawn
from ..scheduling.contingency import RESERVE_SEPARATOR
from ..scheduling.registry import make_scheduler
from ..workflow.generators import generate

__all__ = ["ResiliencePoint", "ResilienceStudy", "render_resilience",
           "resilience_sweep", "spot_resilience_sweep"]


@dataclass(frozen=True)
class ResiliencePoint:
    """Aggregate outcome of one (family, algorithm, policy, rate) cell."""

    family: str
    n_tasks: int
    algorithm: str
    policy: str
    crash_rate: float
    budget: float
    n_runs: int
    n_success: int
    n_budget_exhausted: int
    mean_makespan: float
    mean_cost: float
    mean_faults: float
    #: Runs that *completed* while spending over the reserved budget — a
    #: breach of the recovery budget gate's discipline (refused runs'
    #: sunk spend does not count; see :func:`resilience_sweep`).
    n_over_budget: int
    #: Spot-sweep axes (defaults keep crash-sweep cells unchanged):
    #: market-wide revocation bursts per hour, withheld budget fraction,
    #: and whether the cell ran spot-first planning.
    preemption_rate: float = 0.0
    reserve: float = 0.0
    spot: bool = False

    @property
    def success_rate(self) -> float:
        """Fraction of runs where every task executed within budget."""
        return self.n_success / self.n_runs if self.n_runs else 0.0

    @property
    def label(self) -> str:
        """Ledger algorithm label, e.g. ``heft_budg+remap@0.1`` for crash
        cells or ``heft_budg+retry@spot0.5r0.2`` for spot cells."""
        if self.spot:
            return (f"{self.algorithm}+{self.policy}"
                    f"@spot{self.preemption_rate:g}r{self.reserve:g}")
        return f"{self.algorithm}+{self.policy}@{self.crash_rate:g}"


@dataclass
class ResilienceStudy:
    """All points of one :func:`resilience_sweep` invocation."""

    points: List[ResiliencePoint] = field(default_factory=list)

    def point(
        self, algorithm: str, policy: str, crash_rate: float
    ) -> ResiliencePoint:
        """The first point matching the cell; raises ``KeyError`` if absent."""
        for p in self.points:
            if (not p.spot and p.algorithm == algorithm and p.policy == policy
                    and abs(p.crash_rate - crash_rate) < 1e-12):
                return p
        raise KeyError(f"no point {algorithm}+{policy}@{crash_rate:g}")

    def spot_point(
        self, algorithm: str, policy: str, rate: float, reserve: float
    ) -> ResiliencePoint:
        """The first spot cell matching; raises ``KeyError`` if absent."""
        for p in self.points:
            if (p.spot and p.algorithm == algorithm and p.policy == policy
                    and abs(p.preemption_rate - rate) < 1e-12
                    and abs(p.reserve - reserve) < 1e-12):
                return p
        raise KeyError(
            f"no spot point {algorithm}+{policy}@spot{rate:g}r{reserve:g}"
        )


class _Cell(NamedTuple):
    """One sweep cell: what it reports, what plans it, what breaks it."""

    #: :class:`ResiliencePoint` axis fields (family, algorithm, policy and
    #: the rate/reserve/spot axes of the sweep).
    axes: Dict[str, Any]
    #: Registry name the cell's schedule is planned with.
    scheduler: str
    #: Correlated spot revocations, or ``None`` for independent crashes at
    #: ``axes["crash_rate"]``.
    scenario: Optional[SpotScenario] = None


def _resilience_cell_task(task: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Execute all runs of one resilience cell (pickle-safe worker entry).

    ``task`` carries the pre-planned (workflow, schedule, budget) for the
    cell plus its dedicated slice of derived streams — the same streams
    on every backend, so outputs are bit-identical. Returns one plain
    dict per run; the parent does all ledger recording.

    A ``scenario`` (a :class:`~repro.faults.spot.SpotScenario`) makes
    this a *spot* cell: fault plans are correlated revocation bursts, and
    the scenario's checkpoint policy rides into
    :func:`~repro.faults.runner.run_with_faults`.
    """
    wf = task["wf"]
    schedule = task["schedule"]
    policy = task["policy"]
    scenario: Optional[SpotScenario] = task["scenario"]
    horizon = task["planned_makespan"] * task["horizon_factor"]
    runs: List[Dict[str, Any]] = []
    for stream in task["streams"]:
        if scenario is not None:
            plan = scenario.sample_plan(rng=stream, horizon=horizon)
        else:
            plan = FaultPlan.sample(
                schedule, rng=stream, horizon=horizon,
                crash_rate_per_hour=task["rate"],
            )
        out = run_with_faults(
            wf, task["platform"], task["budget"], plan,
            schedule=schedule, policy=None if policy == "none" else policy,
            rng=stream, max_attempts=task["max_attempts"],
            max_replans=task["max_replans"],
            checkpoint=scenario.checkpoint if scenario is not None else None,
        )
        runs.append({
            "success": out.success,
            "within_budget": out.within_budget(),
            "outcome": out.outcome,
            "makespan": out.makespan,
            "total_cost": out.total_cost,
            "n_faults": out.n_faults,
            "n_vms": out.result.n_vms,
            "n_recoveries": out.n_recoveries,
            "lost_cost": out.lost_cost,
            "n_preemptions": sum(
                1 for e in out.fault_events if e.kind == "vm.preempted"
            ),
        })
    return runs


def _sweep(
    cells: Sequence[_Cell],
    *,
    n_tasks: int,
    n_runs: int,
    budget_position: float,
    sigma_ratio: float,
    seed: int,
    horizon_factor: float,
    max_attempts: int,
    max_replans: Optional[int],
    plan_platform: CloudPlatform,
    exec_platform: CloudPlatform,
    point_extra: Sequence[str],
    run_extra: Sequence[str],
    rng: RngLike,
    workers: Union[int, str],
) -> ResilienceStudy:
    """The one resilience protocol both public sweeps bind.

    Plans each (family, scheduler) once on ``plan_platform``, with the
    budget at ``budget_position`` on that platform's ``[B_min, B_high]``.
    Cell ``i`` replays its plan on ``exec_platform`` under stream slice
    ``[i·n_runs, (i+1)·n_runs)`` of ``rng`` (default ``seed``), on one
    pool fan-out or inline. The parent then aggregates each cell into a
    :class:`ResiliencePoint` and records its runs to the ledger in cell
    order, labelled :attr:`ResiliencePoint.label`. A row's ``extra``
    holds the point's ``point_extra`` fields, then the run's
    ``run_extra`` fields.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    # One stream per (cell, run): plans and weights never alias across cells.
    all_streams = spawn(rng if rng is not None else seed, len(cells) * n_runs)

    planned: Dict[Tuple[str, str], Tuple[Any, Any, float, float]] = {}
    tasks: List[Dict[str, Any]] = []
    for i, cell in enumerate(cells):
        key = (cell.axes["family"], cell.scheduler)
        if key not in planned:
            wf = generate(cell.axes["family"], n_tasks, rng=seed,
                          sigma_ratio=sigma_ratio)
            b_min = minimal_budget(wf, plan_platform)
            b_high = high_budget(wf, plan_platform)
            budget = b_min + budget_position * (b_high - b_min)
            result = make_scheduler(cell.scheduler).schedule(
                wf, plan_platform, budget)
            planned[key] = (wf, result.schedule, budget,
                            result.planned_makespan)
        wf, schedule, budget, planned_makespan = planned[key]
        tasks.append({
            "wf": wf, "platform": exec_platform, "schedule": schedule,
            "budget": budget, "planned_makespan": planned_makespan,
            "policy": cell.axes["policy"],
            "rate": cell.axes["crash_rate"],
            "scenario": cell.scenario,
            "horizon_factor": horizon_factor, "max_attempts": max_attempts,
            "max_replans": max_replans,
            "streams": all_streams[i * n_runs:(i + 1) * n_runs],
        })

    backend = parse_workers(workers)
    if not backend.is_serial and len(tasks) > 1:
        with make_pool(backend, max_workers=len(tasks)) as pool:
            per_cell = pool.map(_resilience_cell_task, tasks)
    else:
        per_cell = [_resilience_cell_task(t) for t in tasks]

    ledger = get_ledger()
    study = ResilienceStudy()
    for cell, task, runs in zip(cells, tasks, per_cell):
        point = ResiliencePoint(
            **cell.axes,
            n_tasks=n_tasks,
            budget=task["budget"],
            n_runs=n_runs,
            n_success=sum(
                out["success"] and out["within_budget"] for out in runs),
            n_budget_exhausted=sum(
                out["outcome"] == OUTCOME_BUDGET_EXHAUSTED for out in runs),
            mean_makespan=sum(out["makespan"] for out in runs) / len(runs),
            mean_cost=sum(out["total_cost"] for out in runs) / len(runs),
            mean_faults=sum(out["n_faults"] for out in runs) / len(runs),
            # Completed runs that overran the budget: the validity breach
            # the budget gate exists to prevent. Refused recoveries
            # (budget_exhausted) may show sunk spend above budget — that
            # money was burned by the fault itself, not by a decision.
            n_over_budget=sum(
                out["success"] and not out["within_budget"] for out in runs),
        )
        study.points.append(point)
        if not ledger.enabled:
            continue
        for out in runs:
            ledger.record(RunRow(
                source="faults",
                workflow=f"{point.family}-{n_tasks}",
                family=point.family,
                n_tasks=n_tasks,
                algorithm=point.label,
                budget=point.budget,
                sigma_ratio=sigma_ratio,
                planned_makespan=task["planned_makespan"],
                sim_makespan=out["makespan"],
                sim_cost=out["total_cost"],
                success_rate=(
                    1.0 if out["success"] and out["within_budget"] else 0.0),
                n_reps=1,
                n_vms=out["n_vms"],
                outcome=out["outcome"],
                n_faults=out["n_faults"],
                extra={
                    **{name: getattr(point, name) for name in point_extra},
                    **{name: out[name] for name in run_extra},
                },
            ))
    return study


def resilience_sweep(
    *,
    families: Sequence[str] = ("montage",),
    n_tasks: int = 30,
    algorithms: Sequence[str] = ("heft_budg",),
    policies: Sequence[str] = ("none", "remap"),
    crash_rates: Sequence[float] = (0.0, 0.1),
    n_runs: int = 5,
    budget_position: float = 0.5,
    sigma_ratio: float = 0.5,
    seed: int = 1,
    horizon_factor: float = 4.0,
    max_attempts: int = 5,
    max_replans: Optional[int] = None,
    platform: CloudPlatform = PAPER_PLATFORM,
    rng: RngLike = None,
    workers: Union[int, str] = 0,
) -> ResilienceStudy:
    """Run the crash-rate × policy grid and archive every run.

    ``crash_rates`` are per VM-hour; ``budget_position`` places the
    reserved budget on ``[B_min, B_high]``; ``horizon_factor`` scales the
    planned makespan into the window crashes may land in. ``rng``
    defaults to ``seed``, and every (cell, run) draws its own derived
    stream, so the sweep is deterministic end to end.

    ``workers > 1`` fans whole cells out to worker processes (a
    ``"host:port,host:port"`` node list fans them out to remote
    ``repro-exp worker`` nodes instead): planning stays in the parent,
    every cell keeps its own stream slice, and the parent records every
    run — results are bit-identical to serial on either backend.
    """
    cells = [
        _Cell({"family": family, "algorithm": algo, "policy": policy,
               "crash_rate": rate}, scheduler=algo)
        for family in families
        for algo in algorithms
        for policy in policies
        for rate in crash_rates
    ]
    return _sweep(
        cells, n_tasks=n_tasks, n_runs=n_runs,
        budget_position=budget_position, sigma_ratio=sigma_ratio,
        seed=seed, horizon_factor=horizon_factor,
        max_attempts=max_attempts, max_replans=max_replans,
        plan_platform=platform, exec_platform=platform,
        point_extra=("policy", "crash_rate"),
        run_extra=("n_recoveries", "lost_cost"),
        rng=rng, workers=workers,
    )


def spot_resilience_sweep(
    *,
    families: Sequence[str] = ("montage",),
    n_tasks: int = 30,
    algorithms: Sequence[str] = ("heft_budg",),
    policies: Sequence[str] = ("none", "retry"),
    preemption_rates: Sequence[float] = (0.0, 0.5),
    reserves: Sequence[float] = (0.0,),
    n_runs: int = 5,
    budget_position: float = 0.5,
    sigma_ratio: float = 0.5,
    seed: int = 1,
    horizon_factor: float = 4.0,
    max_attempts: int = 5,
    max_replans: Optional[int] = None,
    warning_s: float = 120.0,
    checkpoint: Optional[CheckpointConfig] = None,
    market: Optional[SpotMarket] = None,
    platform: CloudPlatform = PAPER_PLATFORM,
    rng: RngLike = None,
    workers: Union[int, str] = 0,
) -> ResilienceStudy:
    """Spot sweep: revocation rate × contingency reserve frontier.

    Each (family, algorithm, reserve) triple is planned **spot-first**: the
    platform gains discounted spot twins (one shared seeded
    :class:`~repro.platform.pricing.SpotMarket` trajectory per sweep, drawn
    from ``seed``) and planning sees *only* those twins
    (:func:`~repro.platform.pricing.spot_only`) — the cheap capacity whose
    correlated revocations this study stresses. A positive ``reserve``
    wraps the algorithm in a
    :class:`~repro.scheduling.contingency.ContingencyScheduler` so that
    fraction of the budget is withheld from planning and left as recovery
    headroom. Budgets are anchored on the *spot* planning platform so
    ``budget_position`` means the same thing at every reserve.

    Execution happens on the full spot-enabled platform (recoveries may
    fall back to on-demand twins); fault plans are correlated market-wide
    bursts (:meth:`~repro.faults.spot.SpotScenario.sample_plan`) with
    ``warning_s`` seconds of notice, and ``checkpoint`` (if given) lets
    preempted spot work resume from its last durable checkpoint.

    Aggregation, determinism, and worker fan-out follow
    :func:`resilience_sweep` exactly; ledger rows are labelled
    ``{algo}+{policy}@spot{rate:g}r{reserve:g}``.
    """
    # One market trajectory per sweep: every cell prices spot identically,
    # so the reserve axis is the only thing that moves between cells.
    spot_market = (market if market is not None
                   else SpotMarket.sample(rng=seed))
    exec_platform = add_spot_categories(platform, spot_market)
    cells = [
        _Cell(
            {"family": family, "algorithm": algo, "policy": policy,
             "crash_rate": 0.0, "preemption_rate": rate,
             "reserve": reserve, "spot": True},
            scheduler=(algo if reserve <= 0.0
                       else f"{algo}{RESERVE_SEPARATOR}{reserve:g}"),
            scenario=SpotScenario(
                market=spot_market, preemption_rate_per_hour=rate,
                warning_s=warning_s, checkpoint=checkpoint,
            ),
        )
        for family in families
        for algo in algorithms
        for policy in policies
        for rate in preemption_rates
        for reserve in reserves
    ]
    return _sweep(
        cells, n_tasks=n_tasks, n_runs=n_runs,
        budget_position=budget_position, sigma_ratio=sigma_ratio,
        seed=seed, horizon_factor=horizon_factor,
        max_attempts=max_attempts, max_replans=max_replans,
        plan_platform=spot_only(exec_platform),
        exec_platform=exec_platform,
        point_extra=("policy", "preemption_rate", "reserve"),
        run_extra=("n_recoveries", "lost_cost", "n_preemptions"),
        rng=rng, workers=workers,
    )


def render_resilience(study: ResilienceStudy) -> str:
    """Human-readable table of a resilience study."""
    lines = [
        f"{'cell':<36s} {'succ':>6s} {'b_exh':>5s} {'over':>4s} "
        f"{'makespan':>9s} {'cost':>8s} {'faults':>6s}"
    ]
    for p in study.points:
        cell = f"{p.family}/{p.n_tasks} {p.label}"
        lines.append(
            f"{cell:<36.36s} {p.success_rate:>5.0%} "
            f"{p.n_budget_exhausted:>5d} {p.n_over_budget:>4d} "
            f"{p.mean_makespan:>9.1f} {p.mean_cost:>8.4f} "
            f"{p.mean_faults:>6.1f}"
        )
    lines.append(
        f"{len(study.points)} cell(s); 'over' counts completed runs whose "
        f"spend (incl. lost VMs) exceeded the budget"
    )
    return "\n".join(lines)
