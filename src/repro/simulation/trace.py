"""Execution traces and the simulation result object."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..platform.pricing import CostBreakdown
from ..platform.vm import VMCategory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..faults.plan import FaultEvent

__all__ = ["TaskRecord", "VMRecord", "SimulationResult"]


@dataclass
class TaskRecord:
    """Timeline of one task's execution.

    ``download_start ≤ compute_start ≤ compute_end ≤ outputs_at_dc``; when
    the task needs no download the first two coincide, and when none of its
    outputs go through the datacenter ``outputs_at_dc == compute_end``.

    ``failed`` marks a task killed by an injected VM crash mid-download or
    mid-compute; its later timeline fields keep their pre-crash defaults.
    ``checkpoint_weight`` is only set on failed tasks that ran with
    checkpointing on a spot VM: the *absolute* instruction count made
    durable at the datacenter before the kill (prior banked progress plus
    this attempt's checkpoints), which recovery credits on the restart.
    """

    tid: str
    vm_id: int
    download_start: float = 0.0
    compute_start: float = 0.0
    compute_end: float = 0.0
    outputs_at_dc: float = 0.0
    actual_weight: float = 0.0
    failed: bool = False
    checkpoint_weight: float = 0.0


@dataclass
class VMRecord:
    """Lifecycle of one enrolled VM.

    ``booked_at`` is when the VM was requested (``H_start,first`` uses the
    earliest booking); ``ready_at`` is after the uncharged boot; billing
    runs from ``ready_at`` to ``end_at`` (Eq. 1).

    ``crashed_at`` is set by fault injection when the VM died mid-run; the
    billed window then ends at the crash instant (the lost VM-hours are
    paid for — Eq. 1 knows nothing about usefulness). ``preempted``
    distinguishes a spot-market revocation from an ordinary crash: the VM
    is just as dead, but recovery falls back to the on-demand twin instead
    of re-enrolling the same (revoked) spot category.
    """

    vm_id: int
    category: VMCategory
    booked_at: float = 0.0
    ready_at: float = 0.0
    end_at: float = 0.0
    n_tasks: int = 0
    crashed_at: Optional[float] = None
    preempted: bool = False

    @property
    def billed_duration(self) -> float:
        """Raw (un-ceiled) rental duration in seconds."""
        return max(self.end_at - self.ready_at, 0.0)


@dataclass
class SimulationResult:
    """Outcome of executing a schedule (stochastic or deterministic).

    ``makespan`` is ``H_end,last − H_start,first`` (§III-C). ``cost`` is the
    itemized :class:`CostBreakdown`; ``total_cost`` is ``C_wf``.

    The fault fields stay at their empty defaults on a fault-free run:
    ``fault_events`` is the ordered log of injected faults that actually
    fired; ``failed_tasks`` are tasks killed by a VM crash; and
    ``blocked_tasks`` are tasks that never started because a (transitive)
    predecessor failed. ``completed`` is True iff every task ran to the end.
    """

    makespan: float
    start: float
    end: float
    cost: CostBreakdown
    tasks: Dict[str, TaskRecord] = field(default_factory=dict)
    vms: List[VMRecord] = field(default_factory=list)
    fault_events: List["FaultEvent"] = field(default_factory=list)
    failed_tasks: List[str] = field(default_factory=list)
    blocked_tasks: List[str] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """True when every task executed (no crash losses, no blockage)."""
        return not self.failed_tasks and not self.blocked_tasks

    @property
    def total_cost(self) -> float:
        """``C_wf = Σ_v C_v + C_DC`` (Eq. 1+2)."""
        return self.cost.total

    @property
    def n_vms(self) -> int:
        """Number of VMs enrolled during the execution."""
        return len(self.vms)

    def respects_budget(self, budget: float, tol: float = 1e-9) -> bool:
        """Validity check used by the paper's Figure 3 middle row."""
        return self.total_cost <= budget * (1.0 + tol) + tol
