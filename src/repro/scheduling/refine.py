"""HEFTBUDG+ and HEFTBUDG+INV (§IV-B, Algorithm 5).

Both start from the HEFTBUDG schedule, then re-examine every task: try
moving it to each other used VM and to a fresh VM of each category, fully
re-simulating the workflow for each candidate (with the task list ``ListT``
fixed), and keep the move when it shortens the makespan while the *total*
simulated cost ``c_tot`` stays within the initial budget — thereby spending
whatever the conservative first pass left over. Candidates are scored by
the max-plus replay of :mod:`repro.simulation._replay`, compiled once per
pass, which returns the event executor's makespan and cost bit for bit.

HEFTBUDG+ walks ``ListT`` in HEFT priority order; HEFTBUDG+INV in reverse.
Complexity is ``O(n (n+e) p)`` — roughly two orders of magnitude above
HEFTBUDG (Table III), which is the paper's scalability trade-off.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..obs.tracing import DecisionRecord, get_tracer
from ..platform.cloud import CloudPlatform
from ..platform.vm import VMCategory
from ..simulation._replay import ScheduleReplay
from ..simulation.executor import evaluate_schedule
from ..workflow.dag import Workflow
from .heft import HeftBudgScheduler
from .list_base import Scheduler, SchedulerResult
from .schedule import Schedule

__all__ = ["HeftBudgPlusScheduler", "HeftBudgPlusInvScheduler", "refine_schedule"]

#: Minimum makespan improvement for a move to be accepted (float hygiene).
_GAIN_TOL = 1e-9


def refine_schedule(
    wf: Workflow,
    platform: CloudPlatform,
    schedule: Schedule,
    budget: float,
    *,
    reverse: bool = False,
) -> Schedule:
    """One full re-mapping pass of Algorithm 5 over ``schedule``.

    Tasks are visited in dispatch order (``reverse=True`` for the INV
    variant). Every candidate move is evaluated with the deterministic
    simulator (conservative weights, by the replay); a move is kept when it
    strictly improves the makespan and the simulated total cost respects
    ``budget``.
    """
    schedule.validate(wf)
    tracer = get_tracer()
    with tracer.span(
        "schedule.refine", workflow=wf.name, n_tasks=wf.n_tasks,
        budget=budget, reverse=reverse,
    ) as span:
        replay = ScheduleReplay(wf, platform, schedule.order)
        current = schedule
        best_makespan = replay.evaluate(current).makespan
        initial_makespan = best_makespan
        n_evaluated = 0
        n_moves = 0

        visit = list(reversed(current.order)) if reverse else list(current.order)
        for round_idx, tid in enumerate(visit):
            current_vm = current.vm_of(tid)
            best_move: Optional[Tuple[int, VMCategory]] = None
            for vm_id, category in current.moves(tid, platform.categories):
                n_evaluated += 1
                score = replay.evaluate_move(current, tid, vm_id, category)
                if (
                    score.makespan < best_makespan - _GAIN_TOL
                    and score.total_cost <= budget
                ):
                    best_makespan = score.makespan
                    best_move = (vm_id, category)
            if best_move is not None:
                best_vm, category = best_move
                if tracer.enabled:
                    tracer.decide(
                        DecisionRecord(
                            kind="refine_move",
                            task=tid,
                            chosen_vm=best_vm,
                            category=category.name,
                            eft=best_makespan,
                            allowance=budget,
                            round=round_idx,
                            extra={
                                "from_vm": current_vm,
                                "makespan_before": initial_makespan,
                                "makespan_after": best_makespan,
                            },
                        )
                    )
                current = current.reassigned(tid, best_vm, category)
                n_moves += 1
        span.set(
            n_evaluations=n_evaluated, n_moves=n_moves,
            n_fallbacks=replay.n_fallbacks,
            makespan_before=initial_makespan, makespan_after=best_makespan,
        )
    return current


class HeftBudgPlusScheduler(Scheduler):
    """HEFTBUDG followed by a forward re-mapping pass (HEFTBUDG+)."""

    name = "heft_budg_plus"
    _reverse = False

    def schedule(
        self, wf: Workflow, platform: CloudPlatform, budget: float
    ) -> SchedulerResult:
        """Run HEFTBUDG, then one Algorithm 5 re-mapping pass."""
        first = HeftBudgScheduler().schedule(wf, platform, budget)
        refined = refine_schedule(
            wf, platform, first.schedule, budget, reverse=self._reverse
        )
        return SchedulerResult.simulated(
            refined, evaluate_schedule(wf, platform, refined), budget, self.name
        )


class HeftBudgPlusInvScheduler(HeftBudgPlusScheduler):
    """HEFTBUDG followed by a reverse-order re-mapping pass (HEFTBUDG+INV)."""

    name = "heft_budg_plus_inv"
    _reverse = True
