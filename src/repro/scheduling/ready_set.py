"""MAX-MIN and SUFFERAGE — the classical siblings of MIN-MIN (extension).

The paper builds on MIN-MIN ([6], [14]); the same batch-mode family
contains two other standard heuristics that any scheduling library is
expected to ship, and that make instructive baselines for the budget
machinery (they plug into Algorithm 1 + Algorithm 2 unchanged):

* **MAX-MIN**: among ready tasks, schedule the one whose *best* completion
  time is the largest — run the big rocks first so small tasks fill gaps;
* **SUFFERAGE**: schedule the task that would *suffer* most from not
  getting its best host — largest gap between its best and second-best
  EFT.

Both are implemented budget-aware (per-task shares + the shared pot, like
MIN-MINBUDG); the plain baselines are the infinite-budget special cases.
All three budget-aware heuristics, MIN-MINBUDG included
(:mod:`repro.scheduling.minmin`), run the one batch-mode loop of
:class:`_ReadySetBudgScheduler` and differ only in its selection key.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..platform.cloud import CloudPlatform
from ..workflow.dag import Workflow
from .budget import divide_budget
from .list_base import (
    InfiniteBudgetScheduler,
    Scheduler,
    SchedulerResult,
    select_host,
)
from .planning import HostEvaluation, PlanningState, _TaskContext

__all__ = [
    "MaxMinBudgScheduler",
    "MaxMinScheduler",
    "SufferageBudgScheduler",
    "SufferageScheduler",
]


class _ReadySetBudgScheduler(Scheduler):
    """The batch-mode loop MIN-MIN, MAX-MIN and SUFFERAGE share.

    Every step chooses each ready task's best host (Algorithm 2, under
    its share plus the pot) and commits the task with the smallest
    ``(*selection_key, topological position)``. Subclasses provide the
    key.

    Each ready task keeps its context (inputs, planning weight, upload
    time, the VMs holding a predecessor) and one row of host evaluations,
    in :meth:`PlanningState.evaluate_all` order (VMs by id, then
    categories), both from its enrolment. A commit changes one VM only,
    so it re-evaluates that VM's column of every row from the kept
    context (a newly enrolled VM adds the column); the other entries stay
    exact, because a ready task's inputs are fixed and the other hosts did
    not move. Fresh-VM entries never change.
    """

    name = "abstract_ready_set"

    def _selection_key(
        self, row: List[HostEvaluation], best: HostEvaluation
    ) -> Tuple[float, ...]:
        """Smaller = scheduled earlier. Subclasses override."""
        raise NotImplementedError

    def schedule(
        self, wf: Workflow, platform: CloudPlatform, budget: float
    ) -> SchedulerResult:
        """Batch-mode loop: select a host for every ready task, commit the
        winner, refresh the committed VM's column."""
        wf.freeze()
        plan = divide_budget(wf, platform, budget)
        state = PlanningState(wf, platform)
        position = {tid: i for i, tid in enumerate(wf.topological_order)}
        pot = 0.0
        all_within = True

        # Incremental ready-set maintenance: unscheduled predecessor counts.
        pending_preds: Dict[str, int] = {
            tid: len(wf.predecessors(tid)) for tid in wf.tasks
        }
        # ready task -> (its context, its row of host evaluations)
        rows: Dict[str, Tuple[_TaskContext, List[HostEvaluation]]] = {
            tid: (state._context(tid), state.evaluate_all(tid))
            for tid in wf.topological_order
            if pending_preds[tid] == 0
        }

        while rows:
            scored = []
            for tid, (_, row) in rows.items():
                ev, within = select_host(tid, row, plan.share(tid) + pot)
                key = (*self._selection_key(row, ev), position[tid])
                scored.append((key, ev, within))
            _, ev, within = min(scored, key=lambda entry: entry[0])
            vm = state.commit(ev)
            pot = plan.share(ev.tid) + pot - ev.cost
            if not within:
                all_within = False
            del rows[ev.tid]
            for tid, (context, row) in rows.items():
                refreshed = state._evaluate_on(tid, context, vm)
                if ev.is_new_vm:
                    row.insert(vm.vm_id, refreshed)
                else:
                    row[vm.vm_id] = refreshed
            for succ in wf.successors(ev.tid):
                pending_preds[succ] -= 1
                if pending_preds[succ] == 0:
                    rows[succ] = (state._context(succ), state.evaluate_all(succ))

        return SchedulerResult(
            schedule=state.to_schedule(),
            planned_makespan=state.makespan,
            planned_vm_cost=state.vm_rental_cost(),
            within_budget_plan=all_within,
            algorithm=self.name,
            leftover_pot=max(pot, 0.0),
        )


class MaxMinBudgScheduler(_ReadySetBudgScheduler):
    """Budget-aware MAX-MIN: largest best-EFT ready task first."""

    name = "maxmin_budg"

    def _selection_key(self, row, best):
        """MAX-MIN key: the task's best EFT, negated (bigger goes first)."""
        return (-best.eft,)


class SufferageBudgScheduler(_ReadySetBudgScheduler):
    """Budget-aware SUFFERAGE: largest best-vs-second-best EFT gap first."""

    name = "sufferage_budg"

    def _selection_key(self, row, best):
        """Sufferage, negated: how much the task loses without its best
        host (bigger goes first)."""
        efts = sorted(ev.eft for ev in row)
        if len(efts) < 2:
            return (0.0,)
        return (-(efts[1] - efts[0]),)


class MaxMinScheduler(InfiniteBudgetScheduler):
    """Classical MAX-MIN: the infinite-budget special case."""

    name = "maxmin"
    budgeted = MaxMinBudgScheduler


class SufferageScheduler(InfiniteBudgetScheduler):
    """Classical SUFFERAGE: the infinite-budget special case."""

    name = "sufferage"
    budgeted = SufferageBudgScheduler
