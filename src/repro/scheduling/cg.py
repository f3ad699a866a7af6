"""CG and CG+ — Critical Greedy (§V-D2, extended from [25]).

**CG** first computes a global interpolation coefficient::

    gb = (B − c_min) / (c_max − c_min)

where ``c_min`` (``c_max``) is the cost of running the whole workflow on a
single VM of the cheapest (most expensive) category — both evaluated with
our full cost model, since [25] ignores communications and the paper
extended it "to include all transfer times and costs". Then, visiting tasks
in HEFT order (the ordering is unspecified in [25]; the paper used HEFT),
each task ``t`` is given the target spend ``c_t,min + (c_t,max − c_t,min)·gb``
and mapped to the VM *category* whose cost for ``t`` is closest in absolute
value to that target; within the category the smallest-EFT instance (an
already used VM or a fresh one) is selected.

**CG+** refines the CG schedule by spending leftover budget on the critical
path: among all (critical task, alternative VM) pairs it repeatedly applies
the one maximizing ``ΔT/Δc`` (makespan decrease per extra dollar), while the
new cost stays within budget. Pairs with ``Δc ≤ 0`` are *not* considered —
the paper points out this flaw explicitly (a re-assignment that removes a
data transfer, lowering both time and cost, is rejected), and keeping it is
required to reproduce CG+'s persistently high makespans in Figure 4.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..obs.tracing import DecisionRecord, get_tracer
from ..platform.cloud import CloudPlatform
from ..platform.vm import VMCategory
from ..simulation._replay import ScheduleReplay
from ..simulation.executor import evaluate_schedule
from ..simulation.trace import SimulationResult
from ..workflow.analysis import heft_order
from ..workflow.dag import Workflow
from .list_base import Scheduler, SchedulerResult
from .planning import PlanningState
from .schedule import Schedule

__all__ = ["CgScheduler", "CgPlusScheduler", "critical_tasks_of"]

_EPS = 1e-12


def _single_vm_cost(wf: Workflow, platform: CloudPlatform, category: VMCategory) -> float:
    """Total cost of the whole workflow run sequentially on one ``category`` VM."""
    schedule = Schedule(
        order=wf.topological_order,
        assignment={tid: 0 for tid in wf.tasks},
        categories={0: category},
    )
    return evaluate_schedule(wf, platform, schedule).total_cost


def _task_cost_on(wf: Workflow, platform: CloudPlatform, tid: str,
                  category: VMCategory) -> float:
    """Stand-alone cost of one task on a ``category`` VM (compute+transfers)."""
    task = wf.task(tid)
    in_bytes = wf.input_data_of(tid) + task.external_input
    out_bytes = wf.output_data_of(tid) + task.external_output
    duration = (
        task.conservative_weight / category.speed
        + (in_bytes + out_bytes) / platform.bandwidth
    )
    return duration * category.cost_rate


class CgScheduler(Scheduler):
    """Critical Greedy: budget-interpolated per-task category choice."""

    name = "cg"

    def schedule(
        self, wf: Workflow, platform: CloudPlatform, budget: float
    ) -> SchedulerResult:
        """Run CG: per-task budget interpolation, then min-EFT instances."""
        wf.freeze()
        c_min = _single_vm_cost(wf, platform, platform.cheapest)
        c_max = _single_vm_cost(wf, platform, platform.most_expensive)
        # [25] implicitly assumes c_min < B < c_max. Outside that range — or
        # when linear speed/cost pricing makes the "maximal" sequential cost
        # not actually larger (compute cost is flat; shorter makespans can
        # even make the fast VM cheaper overall) — we clamp gb to [0, 1],
        # the only extension that keeps the interpolation meaningful.
        span = c_max - c_min
        if budget == math.inf:
            gb = 1.0
        elif span <= _EPS:
            gb = 1.0 if budget >= max(c_min, c_max) else 0.0
        else:
            gb = min(max((budget - c_min) / span, 0.0), 1.0)

        state = PlanningState(wf, platform)
        for tid in heft_order(wf, platform.mean_speed, platform.bandwidth):
            # Category whose cost is closest to the task's target spend.
            costs = {
                cat.name: _task_cost_on(wf, platform, tid, cat)
                for cat in platform.categories
            }
            ct_min = costs[platform.cheapest.name]
            ct_max = costs[platform.most_expensive.name]
            target = ct_min + (ct_max - ct_min) * gb
            chosen_cat = min(
                platform.categories,
                key=lambda cat: (abs(costs[cat.name] - target), cat.hourly_cost),
            )
            # Smallest-EFT instance of that category (used VM or fresh).
            candidates = [
                state.evaluate(tid, vm, vm.category)
                for vm in state.vms
                if vm.category == chosen_cat
            ]
            candidates.append(state.evaluate(tid, None, chosen_cat))
            best = min(candidates, key=lambda ev: (ev.eft, ev.cost))
            if get_tracer().enabled:
                get_tracer().decide(
                    DecisionRecord(
                        kind="cluster_group",
                        task=tid,
                        chosen_vm=best.vm_id,
                        category=chosen_cat.name,
                        eft=best.eft,
                        cost=best.cost,
                        allowance=target,
                        remaining=target - costs[chosen_cat.name],
                        n_candidates=len(candidates),
                        candidates=[
                            {"category": name, "cost": ct,
                             "gap": abs(ct - target)}
                            for name, ct in sorted(costs.items())
                        ],
                        extra={"gb": gb, "ct_min": ct_min, "ct_max": ct_max},
                    )
                )
            state.commit(best)

        schedule = state.to_schedule()
        return SchedulerResult.simulated(
            schedule, evaluate_schedule(wf, platform, schedule), budget,
            self.name,
        )


def critical_tasks_of(
    wf: Workflow, schedule: Schedule, result: SimulationResult
) -> List[str]:
    """Tasks on the schedule's critical path, walked back from the last
    finishing task through its binding constraint (previous task on the same
    VM, or the predecessor whose upload gated the download start)."""
    tol = 1e-6
    queues = schedule.queues()
    index_in_queue = {
        tid: i for q in queues.values() for i, tid in enumerate(q)
    }
    last = max(result.tasks.values(), key=lambda r: r.compute_end).tid
    path = [last]
    current = last
    seen = {last}
    while True:
        rec = result.tasks[current]
        blocker: Optional[str] = None
        # Same-VM predecessor in the queue whose compute end binds us.
        q = queues[rec.vm_id]
        qi = index_in_queue[current]
        if qi > 0:
            prev = q[qi - 1]
            if abs(result.tasks[prev].compute_end - rec.download_start) <= tol:
                blocker = prev
        if blocker is None:
            for pred in wf.predecessors(current):
                pr = result.tasks[pred]
                at_dc = (
                    pr.compute_end
                    if pr.vm_id == rec.vm_id
                    else pr.outputs_at_dc
                )
                if abs(at_dc - rec.download_start) <= tol:
                    blocker = pred
                    break
        if blocker is None or blocker in seen:
            break
        path.append(blocker)
        seen.add(blocker)
        current = blocker
    path.reverse()
    return path


class CgPlusScheduler(Scheduler):
    """CG followed by greedy ΔT/Δc critical-path re-assignment (CG+)."""

    name = "cg_plus"

    #: Safety bound on refinement rounds (the greedy loop normally stops
    #: because no pair improves long before this).
    max_rounds_factor = 4

    def schedule(
        self, wf: Workflow, platform: CloudPlatform, budget: float
    ) -> SchedulerResult:
        """Run CG, then greedy ΔT/Δc refinement along the critical path."""
        base = CgScheduler().schedule(wf, platform, budget)
        current = base.schedule
        result = evaluate_schedule(wf, platform, current)
        replay = ScheduleReplay(wf, platform, current.order)

        for _ in range(self.max_rounds_factor * wf.n_tasks):
            move = self._best_move(wf, platform, current, result, budget, replay)
            if move is None:
                break
            current = move
            result = evaluate_schedule(wf, platform, current)

        return SchedulerResult.simulated(current, result, budget, self.name)

    @staticmethod
    def _best_move(
        wf: Workflow,
        platform: CloudPlatform,
        current: Schedule,
        result: SimulationResult,
        budget: float,
        replay: ScheduleReplay,
    ) -> Optional[Schedule]:
        """The (task, VM) re-assignment maximizing ΔT/Δc, if any qualifies.

        Candidates are scored by ``replay`` (the event executor's makespan
        and cost, bit for bit); only the chosen one is simulated in full,
        for the next round's critical path.
        """
        critical = critical_tasks_of(wf, current, result)
        best_ratio = 0.0
        best: Optional[Tuple[str, int, VMCategory]] = None
        for tid in critical:
            for vm_id, category in current.moves(tid, platform.categories):
                score = replay.evaluate_move(current, tid, vm_id, category)
                delta_t = result.makespan - score.makespan
                delta_c = score.total_cost - result.total_cost
                # [25]'s rule: only time-for-money trades are eligible.
                if delta_t <= _EPS or delta_c <= _EPS:
                    continue
                if budget != math.inf and score.total_cost > budget:
                    continue
                ratio = delta_t / delta_c
                if ratio > best_ratio + _EPS:
                    best_ratio = ratio
                    best = (tid, vm_id, category)
        return None if best is None else current.reassigned(*best)
