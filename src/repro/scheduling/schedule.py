"""Schedule representation.

A schedule fixes, for every task, *which VM* runs it, and a single global
dispatch order (a linear extension of the DAG). The per-VM execution order
is the one induced by the global order — exactly how the paper's refinement
variants keep ``ListT`` fixed while re-mapping tasks (Algorithm 5).

VMs are identified by small integers; ``categories`` maps each enrolled VM
to its :class:`~repro.platform.vm.VMCategory`. A VM with no assigned task is
implicitly dropped (``update(UsedVM)`` in Algorithm 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..errors import ScheduleValidationError
from ..platform.vm import VMCategory
from ..workflow.dag import Workflow

__all__ = ["Schedule"]


@dataclass
class Schedule:
    """Mapping of tasks to VMs plus the global dispatch order.

    Parameters
    ----------
    order:
        All task ids in dispatch (priority) order; must be a linear
        extension of the workflow DAG.
    assignment:
        ``task id → vm id``.
    categories:
        ``vm id → category`` for every VM referenced by ``assignment``.
    """

    order: List[str]
    assignment: Dict[str, int]
    categories: Dict[int, VMCategory]

    # ------------------------------------------------------------------
    def vm_of(self, tid: str) -> int:
        """The VM id hosting task ``tid``."""
        return self.assignment[tid]

    def category_of(self, tid: str) -> VMCategory:
        """The VM category hosting task ``tid``."""
        return self.categories[self.assignment[tid]]

    @property
    def used_vms(self) -> List[int]:
        """Ids of VMs hosting at least one task, ascending."""
        return sorted(set(self.assignment.values()))

    @property
    def n_vms(self) -> int:
        """Number of enrolled (non-empty) VMs."""
        return len(set(self.assignment.values()))

    def tasks_on(self, vm_id: int) -> List[str]:
        """Tasks assigned to ``vm_id`` in execution order."""
        return [tid for tid in self.order if self.assignment.get(tid) == vm_id]

    def queues(self) -> Dict[int, List[str]]:
        """Per-VM execution queues induced by the global order."""
        out: Dict[int, List[str]] = {vm: [] for vm in set(self.assignment.values())}
        for tid in self.order:
            out[self.assignment[tid]].append(tid)
        return out

    # ------------------------------------------------------------------
    def reassigned(self, tid: str, vm_id: int, category: VMCategory) -> "Schedule":
        """Copy of this schedule with ``tid`` moved to ``vm_id``.

        ``category`` must agree with the existing category of ``vm_id`` when
        that VM already exists; a fresh ``vm_id`` enrolls a new VM. VMs left
        empty by the move are pruned.
        """
        if tid not in self.assignment:
            raise ScheduleValidationError(f"task {tid!r} is not in this schedule")
        existing = self.categories.get(vm_id)
        if existing is not None and existing != category:
            raise ScheduleValidationError(
                f"vm {vm_id} is a {existing.name}, cannot treat it as {category.name}"
            )
        assignment = dict(self.assignment)
        assignment[tid] = vm_id
        categories = dict(self.categories)
        categories[vm_id] = category
        live = set(assignment.values())
        categories = {vm: cat for vm, cat in categories.items() if vm in live}
        return Schedule(order=list(self.order), assignment=assignment,
                        categories=categories)

    def fresh_vm_id(self) -> int:
        """An id not yet used by any VM of this schedule."""
        return max(self.categories, default=-1) + 1

    def moves(
        self, tid: str, categories: Iterable[VMCategory]
    ) -> List[Tuple[int, VMCategory]]:
        """Algorithm 5's move set for ``tid`` as ``(vm id, category)`` pairs:
        every other used VM, then a fresh VM of each of ``categories``."""
        here = self.assignment[tid]
        fresh = self.fresh_vm_id()
        return [
            (vm_id, self.categories[vm_id])
            for vm_id in self.used_vms
            if vm_id != here
        ] + [(fresh, category) for category in categories]

    # ------------------------------------------------------------------
    def validate(self, wf: Workflow) -> None:
        """Check structural soundness against ``wf``.

        Raises :class:`ScheduleValidationError` when: a task is missing or
        unknown; a referenced VM has no category; or the global order is not
        a linear extension of the DAG (which would deadlock per-VM queues).
        """
        order_set = set(self.order)
        if len(self.order) != len(order_set):
            raise ScheduleValidationError("dispatch order contains duplicates")
        wf_tasks = set(wf.tasks)
        if order_set != wf_tasks:
            missing = wf_tasks - order_set
            extra = order_set - wf_tasks
            raise ScheduleValidationError(
                f"order/task mismatch: missing={sorted(missing)[:5]} "
                f"extra={sorted(extra)[:5]}"
            )
        if set(self.assignment) != wf_tasks:
            missing = wf_tasks - set(self.assignment)
            raise ScheduleValidationError(
                f"unassigned tasks: {sorted(missing)[:5]}"
            )
        for tid, vm in self.assignment.items():
            if vm not in self.categories:
                raise ScheduleValidationError(
                    f"task {tid!r} on vm {vm} which has no category"
                )
        position = {tid: i for i, tid in enumerate(self.order)}
        for edge in wf.edges():
            if position[edge.producer] > position[edge.consumer]:
                raise ScheduleValidationError(
                    f"order violates dependency {edge.producer!r} -> "
                    f"{edge.consumer!r}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Schedule(tasks={len(self.order)}, vms={self.n_vms})"
