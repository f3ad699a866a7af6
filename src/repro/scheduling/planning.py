"""Incremental planning state shared by all list schedulers.

While building a schedule, every algorithm in §IV maintains the same view of
the platform: the VMs enrolled so far (with their availability and rental
windows) plus one *fresh* candidate VM per category. For a ready task the
planner computes, per candidate host (Eq. 7):

``t_Exec = δ_new·t_boot + (w̄+σ)/s_host + size(d_in,T)/bw``

where ``d_in,T`` excludes data already present on the host, and

``EFT = t_begin + t_Exec``,
``t_begin = max(host availability, inputs-at-datacenter time)``.

The incremental monetary cost ``ct`` of placing the task is the growth of
the host's billed rental window (download + compute + upload time, plus any
idle gap the placement creates — a VM is a continuous slot, §III-B). Summed
over a VM's tasks this telescopes to exactly the rental the simulator will
bill, keeping planner and executor consistent. Planning is *conservative*
about uploads: every output is assumed to go through the datacenter (§V-B:
"we made a pessimistic estimation of the cost of data transfers").

Two scans share that formula. :meth:`PlanningState.evaluate_all` builds a
:class:`HostEvaluation` per candidate host (BDT, the batch-mode loop, the
trace record). :meth:`PlanningState.best_host` is Algorithm 2's scan fused
with its choice: it walks one private row per enrolled VM —
``(min(core_free), last_dispatch, window_end, speed, cost_rate)``, written
only by :meth:`~PlanningState.enroll`, :meth:`~PlanningState.commit` and
:meth:`~PlanningState.pin` — then the categories, computes only each
host's EFT and cost, and builds the one evaluation it chooses. Both run the
float operations of ``_place``, the one full Eq. 7 timeline, in its order,
so they agree to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from ..errors import SchedulingError
from ..platform.cloud import CloudPlatform
from ..platform.vm import VMCategory
from ..workflow.dag import Workflow
from .schedule import Schedule

__all__ = ["HostEvaluation", "PlannedVM", "PlanningState"]

#: Absolute dollar slack for budget comparisons (float hygiene).
_BUDGET_TOL = 1e-9


class HostEvaluation(NamedTuple):
    """Outcome of evaluating one candidate host for one task.

    ``vm_id`` is ``None`` for a fresh VM (its id is allocated on commit).
    ``eft`` is the Earliest Finish Time (compute end); ``cost`` the
    incremental dollars ``ct_{T,host}``; the remaining fields carry the
    timeline needed to commit the decision without recomputation.
    Immutable; a named tuple because planners build one per candidate
    host.
    """

    tid: str
    category: VMCategory
    vm_id: Optional[int]
    eft: float
    cost: float
    t_begin: float
    download_start: float
    compute_start: float
    upload_end: float
    window_start: float
    window_end: float

    @property
    def is_new_vm(self) -> bool:
        """True when this evaluation enrolls a fresh VM."""
        return self.vm_id is None


@dataclass
class PlannedVM:
    """One enrolled VM in the planner's view.

    ``ready_time`` is when billing starts (post-boot); ``core_free`` holds
    the next-idle time of each of the category's ``n_k`` processors (one
    entry for the common single-core case); ``last_dispatch`` enforces the
    FIFO dispatch rule shared with the executor (a task never starts before
    its queue predecessor started); ``window_end`` is the current end of the
    billed window (last compute or upload).
    """

    vm_id: int
    category: VMCategory
    booked_at: float
    ready_time: float
    core_free: List[float]
    window_end: float
    last_dispatch: float = 0.0
    tasks: List[str] = field(default_factory=list)


def _scan_row(vm: PlannedVM) -> Tuple[float, float, float, float, float]:
    """What :meth:`PlanningState.best_host` reads of ``vm``:
    ``(min(core_free), last_dispatch, window_end, speed, cost_rate)``."""
    return (
        min(vm.core_free), vm.last_dispatch, vm.window_end,
        vm.category.speed, vm.category.cost_rate,
    )


class _TaskContext(NamedTuple):
    """The host-independent part of a ready task's evaluations.

    ``remote`` is ``(ready_time, download_bytes)`` as seen from a host that
    holds no predecessor; ``local`` the ids of the VMs that hold one (their
    inputs are recomputed from scratch: their download bytes are not the
    remote sum minus the local bytes, because float sums depend on their
    order). A ready task's predecessors are all committed, so its context
    never changes.
    """

    remote: Tuple[float, float]
    weight: float
    upload: float
    local: Set[Optional[int]]


class PlanningState:
    """Mutable planner state: enrolled VMs + per-task timelines.

    Drives every algorithm of §IV. Typical usage::

        state = PlanningState(wf, platform)
        for tid in priority_order:
            best = min(state.evaluate_all(tid), key=...)
            state.commit(best)
        schedule = state.to_schedule()

    Re-planners that resume from an observed run (online rescheduling,
    remap recovery) seed it first: :meth:`enroll` the VMs still running,
    :meth:`pin` the tasks already done or under way, and read
    :meth:`committed_cost` before dividing the unspent budget.
    """

    def __init__(
        self,
        wf: Workflow,
        platform: CloudPlatform,
        *,
        use_conservative: bool = True,
    ) -> None:
        self.wf = wf
        self.platform = platform
        self.use_conservative = use_conservative
        self.vms: List[PlannedVM] = []
        self._rows: List[Tuple[float, float, float, float, float]] = []
        self.assignment: Dict[str, Optional[int]] = {}
        self.order: List[str] = []
        self.finish: Dict[str, float] = {}

    def planning_weight(self, tid: str) -> float:
        """``w̄ + σ`` normally; plain ``w̄`` for the mean-weight ablation."""
        task = self.wf.task(tid)
        return task.conservative_weight if self.use_conservative else task.mean_weight

    # ------------------------------------------------------------------
    def scheduled(self, tid: str) -> bool:
        """Whether ``tid`` has been committed already."""
        return tid in self.assignment

    def is_ready(self, tid: str) -> bool:
        """All predecessors committed (planning-level readiness)."""
        return all(p in self.assignment for p in self.wf.predecessors(tid))

    def ready_tasks(self) -> List[str]:
        """Unscheduled tasks whose predecessors are all scheduled."""
        return [
            tid
            for tid in self.wf.topological_order
            if tid not in self.assignment and self.is_ready(tid)
        ]

    # ------------------------------------------------------------------
    def _inputs_at_dc(self, tid: str, vm_id: Optional[int]) -> Tuple[float, float]:
        """``(ready_time, download_bytes)`` of ``tid``'s inputs w.r.t. a host.

        Data produced by predecessors on the *same* VM are already present;
        everything else must be at the datacenter (predecessor edge data at
        its conservative upload time, external inputs at time 0) and then
        downloaded.
        """
        assignment, finish = self.assignment, self.finish
        bandwidth = self.platform.bandwidth
        nbytes = self.wf.task(tid).external_input
        ready = 0.0
        for pred, data in self.wf.predecessors(tid).items():
            if pred not in assignment:
                raise SchedulingError(
                    f"evaluating {tid!r} before predecessor {pred!r} is scheduled"
                )
            if vm_id is not None and assignment[pred] == vm_id:
                # Data are local; the dependency still gates the start at
                # the producer's finish (binding on multi-core hosts).
                if finish[pred] > ready:
                    ready = finish[pred]
                continue
            nbytes += data
            at_dc = finish[pred] + data / bandwidth
            if at_dc > ready:
                ready = at_dc
        return ready, nbytes

    def earliest_start(self, tid: str) -> float:
        """Host-independent earliest start: when all inputs can be at the DC.

        Used by BDT's within-level ordering (increasing EST).
        """
        ready, _ = self._inputs_at_dc(tid, None)
        return ready

    def _upload_time(self, tid: str) -> float:
        """Conservative upload duration: every output goes to the DC."""
        task = self.wf.task(tid)
        nbytes = self.wf.output_data_of(tid) + task.external_output
        return nbytes / self.platform.bandwidth

    def evaluate(
        self, tid: str, vm: Optional[PlannedVM], category: VMCategory
    ) -> HostEvaluation:
        """Evaluate placing ``tid`` on ``vm`` (or a fresh ``category`` VM)."""
        inputs = self._inputs_at_dc(tid, vm.vm_id if vm is not None else None)
        return self._place(
            tid, vm, category, inputs,
            self.planning_weight(tid), self._upload_time(tid),
        )

    def evaluate_all(self, tid: str) -> List[HostEvaluation]:
        """Evaluations on every used VM plus one fresh VM per category.

        Equal to :meth:`evaluate` host by host, in the order "VMs by id,
        then categories". The task's context is computed once; only the
        VMs that hold a predecessor recompute their inputs.
        """
        context = self._context(tid)
        remote, weight, upload, _ = context
        out = [self._evaluate_on(tid, context, vm) for vm in self.vms]
        out.extend(
            self._place(tid, None, cat, remote, weight, upload)
            for cat in self.platform.categories
        )
        return out

    def best_host(
        self, tid: str, allowance: float
    ) -> Tuple[HostEvaluation, bool]:
        """Algorithm 2's choice for ``tid`` under ``allowance`` dollars.

        Equal to ``select_host(tid, self.evaluate_all(tid), allowance)``
        (:func:`repro.scheduling.list_base.select_host`, without its trace
        record): the smallest ``(eft, cost)`` among the hosts whose cost
        fits, else the smallest ``(cost, eft)`` and ``False``; the first of
        equals in the order "VMs by id, then categories" wins. One pass
        computes each host's EFT and cost only; the chosen host alone gets
        a :class:`HostEvaluation`.
        """
        context = self._context(tid)
        remote, weight, upload, local = context
        ready, download_bytes = remote
        bandwidth = self.platform.bandwidth
        download = download_bytes / bandwidth
        limit = allowance + _BUDGET_TOL
        best = cheapest = None
        best_eft = best_cost = cheap_eft = cheap_cost = math.inf
        # Hosts are numbered VMs first (by id), then categories; the float
        # operations below are _place's, in its order.
        for host, (free, last, prev_end, speed, rate) in enumerate(self._rows):
            inputs_ready, delay = ready, download
            if host in local:
                inputs_ready, nbytes = self._inputs_at_dc(tid, host)
                delay = nbytes / bandwidth
            t_begin = free  # max(free, inputs_ready, last), first of equals
            if inputs_ready > t_begin:
                t_begin = inputs_ready
            if last > t_begin:
                t_begin = last
            eft = t_begin + delay + weight / speed
            upload_end = eft + upload
            window_end = prev_end
            if eft > window_end:
                window_end = eft
            if upload_end > window_end:
                window_end = upload_end
            cost = (window_end - prev_end) * rate
            if cost <= limit:
                if eft < best_eft or (eft == best_eft and cost < best_cost):
                    best, best_eft, best_cost = host, eft, cost
            elif best is None and (
                cost < cheap_cost or (cost == cheap_cost and eft < cheap_eft)
            ):
                cheapest, cheap_cost, cheap_eft = host, cost, eft
        categories = self.platform.categories
        for host, category in enumerate(categories, len(self._rows)):
            prev_end = ready + category.boot_time
            eft = prev_end + download + weight / category.speed
            upload_end = eft + upload
            window_end = prev_end
            if eft > window_end:
                window_end = eft
            if upload_end > window_end:
                window_end = upload_end
            cost = (window_end - prev_end) * category.cost_rate
            if cost <= limit:
                if eft < best_eft or (eft == best_eft and cost < best_cost):
                    best, best_eft, best_cost = host, eft, cost
            elif best is None and (
                cost < cheap_cost or (cost == cheap_cost and eft < cheap_eft)
            ):
                cheapest, cheap_cost, cheap_eft = host, cost, eft
        # best stays None only when no host fits; every host then went
        # through the cheapest branch.
        chosen, within = (best, True) if best is not None else (cheapest, False)
        if chosen < len(self.vms):
            return self._evaluate_on(tid, context, self.vms[chosen]), within
        category = categories[chosen - len(self.vms)]
        return self._place(tid, None, category, remote, weight, upload), within

    def _context(self, tid: str) -> _TaskContext:
        """``tid``'s host-independent context (all predecessors committed)."""
        return _TaskContext(
            self._inputs_at_dc(tid, None),
            self.planning_weight(tid),
            self._upload_time(tid),
            {self.assignment[pred] for pred in self.wf.predecessors(tid)},
        )

    def _evaluate_on(
        self, tid: str, context: _TaskContext, vm: PlannedVM
    ) -> HostEvaluation:
        """:meth:`evaluate` on the used ``vm``, given ``tid``'s context."""
        remote, weight, upload, local = context
        inputs = self._inputs_at_dc(tid, vm.vm_id) if vm.vm_id in local else remote
        return self._place(tid, vm, vm.category, inputs, weight, upload)

    def _place(
        self,
        tid: str,
        vm: Optional[PlannedVM],
        category: VMCategory,
        inputs: Tuple[float, float],
        weight: float,
        upload: float,
    ) -> HostEvaluation:
        """Eq. 7 timeline and incremental cost of ``tid`` on one host, given
        its ``(ready_time, download_bytes)``, planning weight and upload
        time."""
        inputs_ready, download_bytes = inputs
        if vm is None:
            t_begin = inputs_ready
            download_start = t_begin + category.boot_time
            window_start = download_start  # billing starts when VM is ready
            prev_window_end = window_start
        else:
            category = vm.category
            t_begin = max(min(vm.core_free), inputs_ready, vm.last_dispatch)
            download_start = t_begin
            window_start = vm.ready_time
            prev_window_end = vm.window_end
        compute_start = download_start + download_bytes / self.platform.bandwidth
        eft = compute_start + weight / category.speed
        upload_end = eft + upload
        window_end = max(prev_window_end, eft, upload_end)
        cost = (window_end - prev_window_end) * category.cost_rate
        return HostEvaluation(
            tid, category, vm.vm_id if vm is not None else None, eft, cost,
            t_begin, download_start, compute_start, upload_end,
            window_start, window_end,
        )

    # ------------------------------------------------------------------
    def commit(self, ev: HostEvaluation) -> PlannedVM:
        """Apply a host decision; returns the (possibly new) VM."""
        if ev.tid in self.assignment:
            raise SchedulingError(f"task {ev.tid!r} committed twice")
        if ev.vm_id is None:
            vm = self.enroll(ev.category, ev.t_begin, ev.window_start)
        elif self._rows[ev.vm_id][0] > ev.t_begin + 1e-9:  # min(core_free)
            raise SchedulingError(
                f"stale evaluation for {ev.tid!r}: VM {ev.vm_id} moved on"
            )
        else:
            vm = self.vms[ev.vm_id]
        earliest = vm.core_free.index(min(vm.core_free))
        vm.core_free[earliest] = ev.eft
        vm.last_dispatch = max(vm.last_dispatch, ev.download_start)
        vm.window_end = ev.window_end
        vm.tasks.append(ev.tid)
        self._rows[vm.vm_id] = _scan_row(vm)
        self.assignment[ev.tid] = vm.vm_id
        self.order.append(ev.tid)
        self.finish[ev.tid] = ev.eft
        return vm

    # ------------------------------------------------------------------
    def enroll(
        self, category: VMCategory, booked_at: float, ready_at: float
    ) -> PlannedVM:
        """Add a VM booked at ``booked_at`` and idle from ``ready_at`` on
        (fresh, or already running when seeding); returns it."""
        vm = PlannedVM(
            vm_id=len(self.vms),
            category=category,
            booked_at=booked_at,
            ready_time=ready_at,
            core_free=[ready_at] * category.cores,
            window_end=ready_at,
            last_dispatch=ready_at,
        )
        self.vms.append(vm)
        self._rows.append(_scan_row(vm))
        return vm

    def pin(
        self,
        tid: str,
        vm: Optional[PlannedVM],
        finish: float,
        window_end: float,
    ) -> None:
        """Record an observed task: it computes until ``finish`` on ``vm``,
        whose billed window then lasts at least to ``window_end``.

        ``vm=None`` means the task finished on a host that is gone: its
        outputs are at the datacenter, local to no candidate host.
        """
        if vm is not None:
            earliest = vm.core_free.index(min(vm.core_free))
            vm.core_free[earliest] = max(vm.core_free[earliest], finish)
            vm.window_end = max(vm.window_end, window_end)
            vm.tasks.append(tid)
            self._rows[vm.vm_id] = _scan_row(vm)
        self.assignment[tid] = vm.vm_id if vm is not None else None
        self.order.append(tid)
        self.finish[tid] = finish

    def committed_cost(self) -> float:
        """Dollars committed so far: every VM's rental window plus its
        setup fee."""
        return sum(
            (vm.window_end - vm.ready_time) * vm.category.cost_rate
            + vm.category.initial_cost
            for vm in self.vms
        )

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Current planned makespan (latest window end minus earliest booking)."""
        if not self.vms:
            return 0.0
        start = min(vm.booked_at for vm in self.vms)
        return max(vm.window_end for vm in self.vms) - start

    def vm_rental_cost(self) -> float:
        """Total planned VM rental dollars (no init fees, no ceil)."""
        return sum(
            (vm.window_end - vm.ready_time) * vm.category.cost_rate
            for vm in self.vms
        )

    def to_schedule(self) -> Schedule:
        """Freeze into a :class:`Schedule` (all tasks must be committed)."""
        missing = set(self.wf.tasks) - set(self.assignment)
        if missing:
            raise SchedulingError(
                f"cannot build schedule, unscheduled tasks: {sorted(missing)[:5]}"
            )
        return Schedule(
            order=list(self.order),
            assignment=dict(self.assignment),
            categories={vm.vm_id: vm.category for vm in self.vms},
        )
