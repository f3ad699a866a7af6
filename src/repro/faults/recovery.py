"""Recovery policies: rewrite a crashed schedule into a recovered one.

Work lost to an on-demand VM crash is re-executed from scratch (§III-A
tasks are black boxes). On *spot* VMs running a
:class:`~repro.faults.spot.CheckpointConfig`, the executor banks each
victim's durable checkpoint progress, and the policies below merge it into
the rewritten plan so the replay resumes from the last checkpoint instead
— see :meth:`RecoveryPolicy._settle`. A policy receives the crashed
execution and returns a :class:`RecoveryOutcome` holding

* a new :class:`~repro.scheduling.schedule.Schedule` whose global dispatch
  order (``ListT``) is **unchanged** — only assignments move, exactly like
  the paper's Algorithm 5 refinements, so the result replays
  deterministically;
* a rewritten :class:`~repro.faults.plan.FaultPlan` where fired crashes
  became billing *retires* (the dead VM's rental window up to the crash is
  still paid for when the VM keeps surviving tasks) or were dropped with
  the window charged to ``lost_cost`` (when recovery emptied the VM);
* ``lost_cost``: dollars sunk into dropped VMs that no replay will re-bill.

Two policies are provided. :class:`RetrySameCategory` is the conservative
re-execution baseline — every failed task moves to one fresh VM of the same
category per crashed VM, preserving per-queue order. :class:`RemapRecovery`
is the budget-aware variant: it re-runs the paper's Algorithm 2
(``getBestHost``) over the failed tasks, seeded with the committed timeline
of the surviving VMs and allowances redistributed from the *unspent* budget.
It seeds the planner through the same API as on-line rescheduling
(:mod:`repro.scheduling.online`):
:meth:`~repro.scheduling.planning.PlanningState.enroll` for each surviving
VM, :meth:`~repro.scheduling.planning.PlanningState.pin` for each finished
task, and :meth:`~repro.scheduling.planning.PlanningState.committed_cost`
for the money already spent.

Recovered schedules keep the original VM ids for every surviving VM (fresh
VMs get ids above every existing one) so that plan entries keyed by VM id —
retires, boot failures — stay valid across replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import SchedulingError
from ..platform.cloud import CloudPlatform
from ..platform.pricing import on_demand_twin, spot_vm_cost, strip_spot
from ..scheduling.budget import divide_budget
from ..scheduling.list_base import get_best_host
from ..scheduling.planning import PlannedVM, PlanningState
from ..scheduling.schedule import Schedule
from ..simulation.trace import SimulationResult, VMRecord
from ..workflow.dag import Workflow
from .plan import FaultPlan

__all__ = [
    "RecoveryOutcome",
    "RecoveryPolicy",
    "RetrySameCategory",
    "RemapRecovery",
    "RECOVERY_POLICIES",
    "make_policy",
    "crashed_vms",
]

def crashed_vms(result: SimulationResult) -> Dict[int, float]:
    """``vm_id -> crash instant`` for every VM that died during ``result``."""
    return {
        rec.vm_id: float(rec.crashed_at)
        for rec in result.vms
        if rec.crashed_at is not None
    }


@dataclass
class RecoveryOutcome:
    """What a policy proposes: new schedule, rewritten plan, sunk cost."""

    schedule: Schedule
    plan: FaultPlan
    lost_cost: float
    moved: List[str] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)


class RecoveryPolicy:
    """Interface of all recovery policies."""

    name = "abstract"

    def recover(
        self,
        wf: Workflow,
        platform: CloudPlatform,
        budget: float,
        schedule: Schedule,
        plan: FaultPlan,
        attempt: SimulationResult,
    ) -> RecoveryOutcome:
        """Propose a recovered schedule after ``attempt`` lost tasks.

        Raises :class:`~repro.errors.SchedulingError` when there is nothing
        to recover (no crash fired or no task failed).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _settle(
        self,
        assignment: Dict[str, int],
        plan: FaultPlan,
        fired: Dict[int, float],
        vm_records: Dict[int, VMRecord],
        attempt: SimulationResult,
        platform: CloudPlatform,
    ) -> Tuple[Tuple[int, ...], float, FaultPlan]:
        """Shared bookkeeping once the new assignment is fixed.

        Fired crashes become retires; crashed VMs hosting no surviving task
        are dropped from the plan and their billed window (ready → crash,
        plus the init fee) becomes ``lost_cost`` — money spent that no
        replay of the recovered schedule will bill again. Spot VMs bill
        their window along the market trajectory, exactly as the executor
        did.

        Spot bookkeeping rides along: preemption bursts that fired during
        the attempt are retired from the plan (their victims are in
        ``fired``; replays must not fire them again), and checkpoint
        progress the dying VMs banked is merged into the plan so the
        replay resumes each restarted task from its last checkpoint.
        """
        used = set(assignment.values())
        drop = tuple(sorted(v for v in fired if v not in used))
        lost = 0.0
        for vm_id in drop:
            rec = vm_records[vm_id]
            lost += spot_vm_cost(
                rec.category, platform.spot_market, rec.ready_at, rec.end_at
            )
        banked = {
            tid: rec.checkpoint_weight
            for tid, rec in attempt.tasks.items()
            if rec.failed and rec.checkpoint_weight > 0.0
        }
        return drop, lost, plan.with_crashes_retired(
            fired, drop=drop,
            fired_preemptions_until=attempt.end,
            checkpoints=banked or None,
        )

    @staticmethod
    def _check_recoverable(
        fired: Dict[int, float], attempt: SimulationResult
    ) -> None:
        if not fired:
            raise SchedulingError("no VM crash fired; nothing to recover")
        if not attempt.failed_tasks:
            raise SchedulingError("no task failed; nothing to recover")


class RetrySameCategory(RecoveryPolicy):
    """Re-execute each crashed VM's lost tasks on a fresh same-category VM.

    The paper's cost model re-bills the replacement in full (``c_ini,k``
    plus a new rental window, booted from scratch) — there is no warm
    standby. Per crashed VM, all its failed tasks move together to one
    replacement, so the per-queue execution order is preserved verbatim.

    Spot-market exception: a *preempted* VM's replacement is the on-demand
    twin of its category, not the same spot category — the market just
    revoked that capacity, so retrying on it would walk straight into the
    next burst. The twin costs more per hour but cannot be preempted.
    """

    name = "retry"

    def recover(self, wf, platform, budget, schedule, plan, attempt):
        """Move each crashed VM's failed tasks to one fresh same-category VM."""
        fired = crashed_vms(attempt)
        self._check_recoverable(fired, attempt)
        vm_records = {rec.vm_id: rec for rec in attempt.vms}
        assignment = dict(schedule.assignment)
        categories = dict(schedule.categories)
        next_id = max(categories, default=-1) + 1
        replacement: Dict[int, int] = {}
        for tid in attempt.failed_tasks:
            old = assignment[tid]
            if old not in replacement:
                replacement[old] = next_id
                category = schedule.categories[old]
                rec = vm_records.get(old)
                if rec is not None and rec.preempted:
                    category = on_demand_twin(platform, category)
                categories[next_id] = category
                next_id += 1
            assignment[tid] = replacement[old]
        live = set(assignment.values())
        categories = {v: c for v, c in categories.items() if v in live}
        new_schedule = Schedule(
            order=list(schedule.order),
            assignment=assignment,
            categories=categories,
        )
        drop, lost, new_plan = self._settle(
            assignment, plan, fired, vm_records, attempt, platform
        )
        return RecoveryOutcome(
            schedule=new_schedule,
            plan=new_plan,
            lost_cost=lost,
            moved=list(attempt.failed_tasks),
            info={
                "policy": self.name,
                "replacements": dict(replacement),
                "dropped_vms": list(drop),
            },
        )


class RemapRecovery(RecoveryPolicy):
    """Budget-constrained EFT re-mapping of the lost work (Algorithm 2).

    Seeds a :class:`~repro.scheduling.planning.PlanningState` with the
    committed truth — surviving VMs at their observed ready times, finished
    tasks at their observed completion — then walks the failed and blocked
    tasks in dispatch order. Blocked tasks (they never started; their VM is
    fine) stay on their VM; failed tasks are re-placed by ``getBestHost``
    with allowances carved from the unspent budget, exactly the division +
    leftover-pot discipline of :class:`~repro.scheduling.online.OnlineHeftBudg`.
    """

    name = "remap"

    def recover(self, wf, platform, budget, schedule, plan, attempt):
        """Re-place failed tasks via getBestHost under the unspent budget."""
        fired = crashed_vms(attempt)
        self._check_recoverable(fired, attempt)
        failed = set(attempt.failed_tasks)
        blocked = set(attempt.blocked_tasks)
        vm_records = {rec.vm_id: rec for rec in attempt.vms}

        # After a market revocation, fresh spot enrollment is off the
        # table: the planner sees only on-demand categories (surviving
        # spot VMs stay valid hosts — they are seeded below regardless).
        planning_platform = platform
        if any(vm_records[v].preempted for v in fired):
            planning_platform = strip_spot(platform)

        # --- seed the planner with the committed (observed) timeline -----
        state = PlanningState(wf, planning_platform)
        real_of: Dict[int, int] = {}  # planner vm id -> schedule vm id
        planner_of: Dict[int, PlannedVM] = {}  # schedule vm id -> planner VM
        for old_id in sorted(vm_records):
            rec = vm_records[old_id]
            if rec.crashed_at is not None:
                continue  # dead VMs are not candidate hosts
            vm = state.enroll(
                schedule.categories[old_id], rec.booked_at, rec.ready_at
            )
            planner_of[old_id] = vm
            real_of[vm.vm_id] = old_id

        for tid in schedule.order:
            if tid in failed or tid in blocked:
                continue
            rec = attempt.tasks[tid]
            # A task done on a VM that later crashed is durable (its outputs
            # reached the datacenter) but its host is gone: no VM is given.
            state.pin(
                tid, planner_of.get(schedule.assignment[tid]),
                rec.compute_end, max(rec.outputs_at_dc, rec.compute_end),
            )

        # Money already sunk: live VMs' committed windows plus every crashed
        # VM's billed window (paid whether or not its tasks survived).
        committed = state.committed_cost() + sum(
            spot_vm_cost(vm_records[v].category, platform.spot_market,
                         vm_records[v].ready_at, vm_records[v].end_at)
            for v in fired
        )

        # --- redistribute the unspent budget over the lost work ----------
        leftover = max(budget - committed, 0.0)
        bplan = divide_budget(wf, planning_platform, leftover)
        pending = [t for t in schedule.order if t in failed or t in blocked]
        failed_total = sum(bplan.share(t) for t in pending if t in failed)
        scale = bplan.b_calc / failed_total if failed_total > 0.0 else 0.0

        next_real = max(
            schedule.fresh_vm_id(),
            max(vm_records, default=-1) + 1,
        )
        pot = 0.0
        for tid in pending:
            if tid in blocked:
                # Containment: the task's own VM is fine — keep it there. A
                # VM never provisioned (its whole queue was gated behind
                # the crash) is enrolled afresh.
                old_vm = schedule.assignment[tid]
                ev = state.evaluate(
                    tid, planner_of.get(old_vm), schedule.categories[old_vm]
                )
                committed_vm = state.commit(ev)
                if committed_vm.vm_id not in real_of:
                    planner_of[old_vm] = committed_vm
                    real_of[committed_vm.vm_id] = old_vm
            else:
                allowance = bplan.share(tid) * scale + pot
                ev, _ = get_best_host(state, tid, allowance)
                committed_vm = state.commit(ev)
                pot = allowance - ev.cost
                if committed_vm.vm_id not in real_of:
                    real_of[committed_vm.vm_id] = next_real
                    next_real += 1

        # --- freeze, translating planner ids back to schedule ids --------
        assignment: Dict[str, int] = {}
        for tid in schedule.order:
            pid = state.assignment[tid]
            # Done on a crashed VM: keep the historical assignment.
            assignment[tid] = (
                schedule.assignment[tid] if pid is None else real_of[pid]
            )
        used = set(assignment.values())
        categories = {real_of[vm.vm_id]: vm.category for vm in state.vms}
        for vm_id in used - set(categories):
            categories[vm_id] = schedule.categories[vm_id]
        categories = {v: c for v, c in categories.items() if v in used}
        new_schedule = Schedule(
            order=list(schedule.order),
            assignment=assignment,
            categories=categories,
        )
        drop, lost, new_plan = self._settle(
            assignment, plan, fired, vm_records, attempt, platform
        )
        moved = [t for t in pending if t in failed]
        return RecoveryOutcome(
            schedule=new_schedule,
            plan=new_plan,
            lost_cost=lost,
            moved=moved,
            info={
                "policy": self.name,
                "leftover_budget": leftover,
                "committed_cost": committed,
                "dropped_vms": list(drop),
            },
        )


RECOVERY_POLICIES: Dict[str, Any] = {
    "retry": RetrySameCategory,
    "remap": RemapRecovery,
}


def make_policy(name: Optional[str]) -> Optional[RecoveryPolicy]:
    """Policy instance by name; ``None``/``"none"`` means no recovery."""
    if name is None or name == "none":
        return None
    try:
        return RECOVERY_POLICIES[name]()
    except KeyError:
        raise SchedulingError(
            f"unknown recovery policy {name!r}; "
            f"known: none, {', '.join(sorted(RECOVERY_POLICIES))}"
        ) from None
