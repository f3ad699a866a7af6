"""HEFT and HEFTBUDG (Algorithm 4).

HEFT [24] sorts tasks by non-increasing bottom level (upward rank) and
assigns each to the host with the earliest finish time. HEFTBUDG keeps the
order but constrains each choice by the task's budget share ``B_T`` plus the
shared leftover ``pot`` (Algorithm 2). The baseline is exactly HEFTBUDG with
an infinite budget — the paper notes that with an infinite initial budget
both produce the same schedule, which is how we implement it.
"""

from __future__ import annotations

from ..obs.tracing import get_tracer
from ..platform.cloud import CloudPlatform
from ..workflow.analysis import heft_order
from ..workflow.dag import Workflow
from .budget import divide_budget
from .list_base import (
    InfiniteBudgetScheduler,
    Scheduler,
    SchedulerResult,
    get_best_host,
)
from .planning import PlanningState

__all__ = ["HeftScheduler", "HeftBudgScheduler"]


class HeftBudgScheduler(Scheduler):
    """Budget-aware HEFT (Algorithm 4).

    Ablation knobs (both default to the paper's design):

    * ``use_pot=False`` disables the leftover-budget reclamation — each task
      is confined to its own share ``B_T``;
    * ``use_conservative=False`` plans with mean weights ``w̄`` instead of
      the conservative ``w̄ + σ``.
    """

    name = "heft_budg"

    def __init__(self, *, use_pot: bool = True, use_conservative: bool = True):
        self.use_pot = use_pot
        self.use_conservative = use_conservative

    def schedule(
        self, wf: Workflow, platform: CloudPlatform, budget: float
    ) -> SchedulerResult:
        """Run Algorithm 4: budget division, then rank-ordered getBestHost."""
        wf.freeze()
        with get_tracer().span(
            "schedule.heft_budg", workflow=wf.name, n_tasks=wf.n_tasks,
            budget=budget,
        ) as span:
            plan = divide_budget(
                wf, platform, budget, use_conservative=self.use_conservative
            )
            order = heft_order(wf, platform.mean_speed, platform.bandwidth)
            state = PlanningState(
                wf, platform, use_conservative=self.use_conservative
            )
            pot = 0.0
            all_within = True
            for tid in order:
                allowance = plan.share(tid) + (pot if self.use_pot else 0.0)
                ev, within = get_best_host(state, tid, allowance)
                state.commit(ev)
                if self.use_pot:
                    pot = allowance - ev.cost
                if not within:
                    all_within = False
            span.set(
                n_vms=len(state.vms), within_budget=all_within,
                leftover_pot=max(pot, 0.0),
            )
        return SchedulerResult(
            schedule=state.to_schedule(),
            planned_makespan=state.makespan,
            planned_vm_cost=state.vm_rental_cost(),
            within_budget_plan=all_within,
            algorithm=self.name,
            leftover_pot=max(pot, 0.0),
        )


class HeftScheduler(InfiniteBudgetScheduler):
    """Classical HEFT: the infinite-budget special case of HEFTBUDG."""

    name = "heft"
    budgeted = HeftBudgScheduler
