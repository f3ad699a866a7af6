"""On-line rescheduling prototype (the paper's §VI future work).

The paper closes with: *"if we monitor the execution of the tasks, we can
detect unlikely events such as very long durations, and in such cases, it
could be beneficial to interrupt some tasks and re-schedule them onto faster
VMs"*. This module prototypes the monitoring loop:

1. schedule with HEFTBUDG (conservative weights);
2. execute against the (hidden) actual weights; a task whose actual duration
   exceeds ``timeout_factor ×`` its planned duration raises a *timeout* at
   ``compute_start + timeout_factor × planned`` — the instant an on-line
   monitor would notice;
3. everything already started by that instant is *committed* (tasks are
   non-preemptive, §III-A; we re-map late work rather than interrupt, the
   paper's cautious variant); the not-yet-started tasks are re-scheduled by
   a fresh budget-constrained EFT pass seeded with the committed timeline
   and the unspent budget;
4. repeat until no unhandled timeout remains.

The global dispatch order (``ListT``) never changes — only assignments do —
so the final schedule replays deterministically on the simulator.

This is an honest prototype of the proposed direction, not a contribution
of the paper itself; see DESIGN.md §6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..errors import SchedulingError
from ..obs.tracing import DecisionRecord, get_tracer
from ..platform.cloud import CloudPlatform
from ..rng import RngLike
from ..simulation.executor import execute_schedule, sample_weights
from ..simulation.trace import SimulationResult
from ..workflow.dag import Workflow
from .budget import divide_budget
from .heft import HeftBudgScheduler
from .list_base import get_best_host
from .planning import PlanningState
from .schedule import Schedule

__all__ = ["OnlineRunResult", "OnlineHeftBudg"]


@dataclass
class OnlineRunResult:
    """Outcome of one monitored execution."""

    schedule: Schedule
    result: SimulationResult
    n_reschedules: int
    timeouts: List[str] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Final achieved makespan."""
        return self.result.makespan

    @property
    def total_cost(self) -> float:
        """Final achieved cost."""
        return self.result.total_cost


class OnlineHeftBudg:
    """HEFTBUDG with timeout-triggered re-mapping of late work.

    Parameters
    ----------
    timeout_factor:
        A task times out when its actual duration exceeds this multiple of
        its planned (conservative) duration. With planning weight ``w̄ + σ``
        and Gaussian weights, a factor of 1.5 fires roughly on >2.5σ
        stragglers at σ/w̄ = 1.
    max_reschedules:
        Safety bound on monitoring rounds.
    """

    def __init__(self, *, timeout_factor: float = 1.5, max_reschedules: int = 25):
        if timeout_factor <= 1.0:
            raise SchedulingError(
                f"timeout_factor must be > 1, got {timeout_factor}"
            )
        self.timeout_factor = timeout_factor
        self.max_reschedules = max_reschedules

    # ------------------------------------------------------------------
    def run(
        self,
        wf: Workflow,
        platform: CloudPlatform,
        budget: float,
        *,
        rng: RngLike = None,
        weights: Optional[Mapping[str, float]] = None,
    ) -> OnlineRunResult:
        """Execute ``wf`` under monitoring; returns the final trace.

        ``weights`` fixes the actual realization (for experiments); by
        default one is sampled from ``rng``.
        """
        wf.freeze()
        actual = dict(weights) if weights is not None else sample_weights(wf, rng)
        schedule = HeftBudgScheduler().schedule(wf, platform, budget).schedule

        handled: set = set()
        rounds = 0
        remaps = 0
        while rounds < self.max_reschedules:
            run = execute_schedule(wf, platform, schedule, actual, validate=False)
            timeout = self._first_timeout(wf, schedule, run, actual, handled)
            if timeout is None:
                return OnlineRunResult(schedule, run, remaps, sorted(handled))
            tid, detection = timeout
            handled.add(tid)
            rounds += 1
            candidate = self._remap_remaining(
                wf, platform, budget, schedule, run, detection
            )
            # Accept the re-mapping only if it helps under the monitor's
            # best knowledge at the detection instant: true weights for
            # finished work, the timeout-implied lower bound for the
            # straggler, conservative estimates for everything else.
            knowledge = self._knowledge_weights(
                wf, schedule, run, actual, detection, tid
            )
            mk_keep = execute_schedule(
                wf, platform, schedule, knowledge, validate=False
            ).makespan
            mk_move = execute_schedule(
                wf, platform, candidate, knowledge, validate=False
            ).makespan
            accepted = mk_move < mk_keep - 1e-9
            if get_tracer().enabled:
                get_tracer().decide(
                    DecisionRecord(
                        kind="replan",
                        task=tid,
                        round=rounds,
                        extra={
                            "detection_s": detection,
                            "accepted": accepted,
                            "mk_keep": mk_keep,
                            "mk_move": mk_move,
                        },
                    )
                )
            if accepted:
                schedule = candidate
                remaps += 1
        run = execute_schedule(wf, platform, schedule, actual, validate=False)
        return OnlineRunResult(schedule, run, remaps, sorted(handled))

    def _knowledge_weights(
        self, wf, schedule, run, actual, detection, straggler
    ) -> Dict[str, float]:
        """What the monitor can assume about weights at ``detection``."""
        weights: Dict[str, float] = {}
        for tid in wf.tasks:
            rec = run.tasks[tid]
            if rec.compute_end <= detection:
                weights[tid] = actual[tid]  # observed
            else:
                weights[tid] = wf.task(tid).conservative_weight
        # the straggler provably exceeds its timeout bound
        weights[straggler] = max(
            weights[straggler],
            self.timeout_factor * wf.task(straggler).conservative_weight,
        )
        return weights

    # ------------------------------------------------------------------
    def _planned_duration(self, wf: Workflow, schedule: Schedule, tid: str) -> float:
        return wf.task(tid).conservative_weight / schedule.category_of(tid).speed

    def _first_timeout(self, wf, schedule, run, actual, handled):
        """Earliest-detected unhandled straggler, or None."""
        best = None
        for tid in schedule.order:
            if tid in handled:
                continue
            planned = self._planned_duration(wf, schedule, tid)
            rec = run.tasks[tid]
            if rec.compute_end - rec.compute_start > self.timeout_factor * planned:
                detection = rec.compute_start + self.timeout_factor * planned
                if best is None or detection < best[1]:
                    best = (tid, detection)
        return best

    def _remap_remaining(
        self, wf, platform, budget, schedule, run, detection
    ) -> Schedule:
        """Re-map every task not yet started at ``detection``."""
        frozen = [
            tid for tid in schedule.order
            if run.tasks[tid].compute_start <= detection
        ]
        remaining = [tid for tid in schedule.order if tid not in set(frozen)]
        if not remaining:
            return schedule

        # Seed the planner with the committed truth. Tasks still running at
        # the detection instant get an estimated finish (the monitor cannot
        # know their true end): detection + planned duration.
        state = PlanningState(wf, platform)
        vm_records = {vm.vm_id: vm for vm in run.vms}
        planned_vm = {
            old_id: state.enroll(
                schedule.categories[old_id],
                vm_records[old_id].booked_at, vm_records[old_id].ready_at,
            )
            for old_id in sorted({schedule.vm_of(t) for t in frozen})
        }
        for tid in frozen:
            rec = run.tasks[tid]
            if rec.compute_end <= detection:
                finish = rec.compute_end
                window = max(rec.outputs_at_dc, rec.compute_end)
            else:
                finish = detection + self._planned_duration(wf, schedule, tid)
                window = finish + (
                    wf.output_data_of(tid) + wf.task(tid).external_output
                ) / platform.bandwidth
            state.pin(tid, planned_vm[rec.vm_id], finish, window)

        # Redistribute the unspent budget over the remaining tasks.
        leftover = max(budget - state.committed_cost(), 0.0)
        plan = divide_budget(wf, platform, leftover)
        remaining_total = sum(plan.share(t) for t in remaining) or 1.0
        scale = plan.b_calc / remaining_total

        pot = 0.0
        for tid in remaining:
            allowance = plan.share(tid) * scale + pot
            ev, _ = get_best_host(state, tid, allowance)
            state.commit(ev)
            pot = allowance - ev.cost

        return Schedule(
            order=list(schedule.order),
            assignment=dict(state.assignment),
            categories={vm.vm_id: vm.category for vm in state.vms},
        )
