"""Budget-constrained host selection (Algorithm 2) and the scheduler API.

``get_best_host`` is the paper's ``getBestHost(T, P, B_T + pot)``: among
the used VMs plus one fresh VM per category, it picks the host with the
smallest EFT among those whose incremental cost fits the task's allotted
budget; any leftover goes back into the shared ``pot``. When *no* host
fits, the cheapest host is selected (the schedule must exist; the overrun
then shows up in the validity metric, exactly as the paper's
near-minimum-budget experiments do).

The choice is made in one fused pass over the hosts
(:meth:`PlanningState.best_host`), which builds a :class:`HostEvaluation`
for the chosen host only. Under an enabled tracer, ``get_best_host`` also
evaluates every host, only to build the ``host_selection`` record around
that choice: tracing adds the record and never changes the decision.
``select_host`` makes the same choice from a list of evaluations; planners
that keep their own evaluations up to date (the batch-mode loop of
:mod:`repro.scheduling.ready_set`) call it directly.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, List, Tuple, Type

from ..errors import SchedulingError
from ..obs.tracing import DecisionRecord, get_tracer
from ..platform.cloud import CloudPlatform
from ..workflow.dag import Workflow
from .planning import _BUDGET_TOL, HostEvaluation, PlanningState
from .schedule import Schedule

if TYPE_CHECKING:
    from ..simulation.trace import SimulationResult

__all__ = ["get_best_host", "select_host", "Scheduler", "SchedulerResult"]

#: Candidate evaluations kept per decision record (full count still logged).
_MAX_LOGGED_CANDIDATES = 12

#: Preference orders of :func:`select_host`; ``min`` keeps the first of
#: equals, so list order breaks the remaining ties.
_BY_EFT = attrgetter("eft", "cost")
_BY_COST = attrgetter("cost", "eft")


def _record_selection(
    tid: str,
    evaluations: list,
    chosen: HostEvaluation,
    allowance: float,
    within: bool,
) -> None:
    """Emit one host-selection decision record to the active tracer."""
    ranked = sorted(evaluations, key=_BY_EFT)
    candidates = [
        {
            "vm": ev.vm_id,
            "category": ev.category.name,
            "eft": ev.eft,
            "cost": ev.cost,
            "affordable": ev.cost <= allowance + _BUDGET_TOL,
        }
        for ev in ranked[:_MAX_LOGGED_CANDIDATES]
    ]
    get_tracer().decide(
        DecisionRecord(
            kind="host_selection",
            task=tid,
            chosen_vm=chosen.vm_id,
            category=chosen.category.name,
            eft=chosen.eft,
            cost=chosen.cost,
            allowance=allowance,
            remaining=allowance - chosen.cost,
            within_budget=within,
            n_candidates=len(evaluations),
            candidates=candidates,
        )
    )


def select_host(
    tid: str,
    evaluations: List[HostEvaluation],
    allowance: float,
) -> Tuple[HostEvaluation, bool]:
    """Algorithm 2's choice among ``tid``'s host ``evaluations``.

    ``evaluations`` come in :meth:`PlanningState.evaluate_all` order (VMs
    by id, then categories). Returns ``(evaluation, within_budget)``: the
    smallest EFT among the hosts whose cost fits ``allowance`` dollars,
    ties breaking toward the cheaper host, then toward the first in that
    order (the lowest-numbered VM); when none fits, the cheapest host (EFT
    breaks ties) and ``False``.
    """
    if not evaluations:
        raise SchedulingError(f"no candidate hosts for task {tid!r}")
    limit = allowance + _BUDGET_TOL
    affordable = [ev for ev in evaluations if ev.cost <= limit]
    if affordable:
        chosen, within = min(affordable, key=_BY_EFT), True
    else:
        # Nothing fits: fall back to the cheapest option (EFT breaks ties).
        chosen, within = min(evaluations, key=_BY_COST), False
    if get_tracer().enabled:
        _record_selection(tid, evaluations, chosen, allowance, within)
    return chosen, within


def get_best_host(
    state: PlanningState,
    tid: str,
    allowance: float,
) -> Tuple[HostEvaluation, bool]:
    """Algorithm 2: best host for ``tid`` under ``allowance`` dollars.

    Chooses in one pass (:meth:`PlanningState.best_host`, equal to
    :func:`select_host` over :meth:`PlanningState.evaluate_all`); when the
    tracer is enabled, evaluates every host to record the choice.
    """
    chosen, within = state.best_host(tid, allowance)
    if get_tracer().enabled:
        _record_selection(
            tid, state.evaluate_all(tid), chosen, allowance, within)
    return chosen, within


@dataclass
class SchedulerResult:
    """A schedule plus the planner's own estimates and diagnostics.

    ``planned_makespan`` / ``planned_vm_cost`` come from the conservative
    planning model; the authoritative numbers are produced by the simulator.
    ``within_budget_plan`` records whether every task fitted its allotted
    share during planning (BDT-style algorithms may overrun by design).
    """

    schedule: Schedule
    planned_makespan: float
    planned_vm_cost: float
    within_budget_plan: bool
    algorithm: str
    leftover_pot: float = 0.0

    @classmethod
    def simulated(
        cls,
        schedule: Schedule,
        run: "SimulationResult",
        budget: float,
        algorithm: str,
    ) -> "SchedulerResult":
        """The result of a planner that judges ``schedule`` by its simulated
        ``run`` (CG, CG+, HEFTBUDG+): the run's makespan and rental, within
        budget when its total cost fits, and the unspent budget as leftover
        (none under an unlimited budget)."""
        return cls(
            schedule=schedule,
            planned_makespan=run.makespan,
            planned_vm_cost=run.cost.vm_rental,
            within_budget_plan=run.total_cost <= budget,
            algorithm=algorithm,
            leftover_pot=max(budget - run.total_cost, 0.0)
            if budget != math.inf
            else 0.0,
        )


class Scheduler(ABC):
    """Common interface of all algorithms in §IV and §V-D.

    Concrete schedulers are stateless; :meth:`schedule` may be called with
    any workflow/platform/budget combination.
    """

    #: Registry/display name, overridden by subclasses.
    name: str = "abstract"

    @abstractmethod
    def schedule(
        self, wf: Workflow, platform: CloudPlatform, budget: float
    ) -> SchedulerResult:
        """Produce a full schedule of ``wf`` under ``budget`` dollars."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class InfiniteBudgetScheduler(Scheduler):
    """A classical baseline: its budget-aware twin run with ``B = ∞``.

    Subclasses name the twin in :attr:`budgeted`; the result carries the
    baseline's own :attr:`name`.
    """

    #: The budget-aware scheduler class this baseline runs unconstrained.
    budgeted: Type[Scheduler]

    def schedule(
        self, wf: Workflow, platform: CloudPlatform, budget: float = math.inf
    ) -> SchedulerResult:
        """Run the budget-aware twin with an unlimited budget (``budget``
        ignored)."""
        result = self.budgeted().schedule(wf, platform, math.inf)
        result.algorithm = self.name
        return result
