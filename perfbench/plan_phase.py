"""Planning phases: the *list mix* and the *refine mix* (no replication).

List mix: ``heft_budg`` on montage/ligo/cybershake at the Table III
low/medium/high budgets, plus ``minmin_budg`` at a size where one plan
costs about as much. The planner's host scan does all the work; the
simulator does none.

Refine mix: ``heft_budg_plus`` and ``heft_budg_plus_inv`` on small
workflows. ``refine_schedule`` re-simulates every candidate move, so the
simulator does most of the work. A planner change and a simulator change
therefore move different metrics of the same run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from common import FAMILIES, Phase

BUDGET_LABELS = ("low", "medium", "high")


@dataclass
class PlanItem:
    """One timed plan: an algorithm on a workflow at a budget."""

    label: str
    wf: object
    algorithm: str
    budget: float


def _budgets(wf, platform):
    from repro.experiments.budgets import high_budget, minimal_budget

    low = minimal_budget(wf, platform)
    high = high_budget(wf, platform)
    return {"low": low, "medium": 0.5 * (low + high), "high": high}


def build_items(scale, seed: int, platform) -> dict:
    """Generate the workflows of both mixes and their budget axes.

    Instance seeds derive from ``seed``; the sizes come from the scale.
    Returns ``{"list": [...], "refine": [...], "workflows": {...}}``, where
    ``workflows`` maps ``(family, n_tasks)`` to ``(wf, budgets)`` so the
    replay phase can reuse the list-mix workflows.
    """
    from repro.workflow.generators import generate

    root = np.random.SeedSequence([seed, 11])
    instance_seeds = iter(root.generate_state(16))
    workflows = {}
    for n_tasks in sorted({scale.list_tasks, scale.minmin_tasks, scale.refine_tasks}):
        for family in FAMILIES:
            wf = generate(family, n_tasks, rng=int(next(instance_seeds)),
                          sigma_ratio=0.5).freeze()
            workflows[(family, n_tasks)] = (wf, _budgets(wf, platform))

    def items(n_tasks: int, algorithms: Sequence[str], labels) -> List[PlanItem]:
        out = []
        for family in FAMILIES:
            wf, budgets = workflows[(family, n_tasks)]
            for algorithm in algorithms:
                for label in labels:
                    out.append(PlanItem(
                        f"{algorithm}/{family}-{n_tasks}/{label}",
                        wf, algorithm, budgets[label]))
        return out

    return {
        "list": items(scale.list_tasks, ("heft_budg",), BUDGET_LABELS)
        + items(scale.minmin_tasks, ("minmin_budg",), scale.minmin_budgets),
        "refine": items(scale.refine_tasks,
                        ("heft_budg_plus", "heft_budg_plus_inv"), BUDGET_LABELS),
        "workflows": workflows,
    }


def check_plan(item: PlanItem, result) -> str:
    """Empty when the plan is valid; otherwise what is wrong with it."""
    from repro.errors import ScheduleValidationError

    try:
        result.schedule.validate(item.wf)
    except ScheduleValidationError as exc:
        return f"{item.label}: invalid schedule: {exc}"
    if not math.isfinite(result.planned_vm_cost) or result.planned_vm_cost > item.budget:
        return (f"{item.label}: planned cost {result.planned_vm_cost!r} "
                f"exceeds budget {item.budget!r}")
    return ""


def phase(name: str, items: List[PlanItem], platform, per_round: int) -> Phase:
    """A timed phase that plans ``per_round`` items per round and checks them."""
    from repro.scheduling.registry import make_scheduler

    def one(item: PlanItem, _visit: int) -> None:
        result = make_scheduler(item.algorithm).schedule(item.wf, platform, item.budget)
        problem = check_plan(item, result)
        if problem:
            raise AssertionError(problem)

    return Phase(name, items, one, per_round=per_round)
