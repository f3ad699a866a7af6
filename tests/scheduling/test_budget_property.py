"""Property: a budget-aware plan that claims to fit its budget does.

Every registered scheduler that is not an
:class:`~repro.scheduling.list_base.InfiniteBudgetScheduler` subclass
reports ``within_budget_plan`` from its own accounting. Across random
families, sizes, seeds and budgets from below ``B_min`` to past
``B_high`` (positions −0.5 to 1.5 on ``[B_min, B_high]``), a plan flagged
within budget must have ``planned_vm_cost <= budget``. A negative budget
may be refused with :class:`~repro.errors.SchedulingError`, and only a
negative one.

The four baselines (``heft``, ``minmin``, ``maxmin``, ``sufferage``) are
left out on purpose: they plan at B = ∞ and report
``within_budget_plan=True`` for any budget, so the property does not
apply to them: over 60 random instances drawn as below, each of the four
reported a planned cost above the budget as within it on 15.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import SchedulingError
from repro.experiments.budgets import high_budget, minimal_budget
from repro.platform.cloud import PAPER_PLATFORM
from repro.scheduling.list_base import InfiniteBudgetScheduler
from repro.scheduling.registry import SCHEDULERS
from repro.workflow.generators import generate

BUDGET_AWARE = sorted(
    name for name, cls in SCHEDULERS.items()
    if not issubclass(cls, InfiniteBudgetScheduler)
)


def test_every_budget_aware_scheduler_is_covered():
    assert BUDGET_AWARE == [
        "bdt", "cg", "cg_plus", "heft_budg", "heft_budg_plus",
        "heft_budg_plus_inv", "maxmin_budg", "minmin_budg",
        "sufferage_budg",
    ]


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["montage", "ligo", "cybershake"]),
    n_tasks=st.integers(min_value=12, max_value=24),
    seed=st.integers(min_value=0, max_value=10_000),
    position=st.floats(min_value=-0.5, max_value=1.5),
)
def test_within_budget_plan_implies_planned_cost_within_budget(
    family, n_tasks, seed, position
):
    wf = generate(family, n_tasks, rng=seed, sigma_ratio=0.5)
    b_min = minimal_budget(wf, PAPER_PLATFORM)
    budget = b_min + position * (high_budget(wf, PAPER_PLATFORM) - b_min)
    for name in BUDGET_AWARE:
        try:
            result = SCHEDULERS[name]().schedule(wf, PAPER_PLATFORM, budget)
        except SchedulingError:
            assert budget < 0, name
            continue
        if result.within_budget_plan:
            assert result.planned_vm_cost <= budget, (name, budget)
