"""The incremental host scans equal a from-scratch one.

:meth:`PlanningState.best_host` is Algorithm 2's scan fused with its
choice, and the batch-mode loop (``minmin_budg``, ``maxmin_budg``,
``sufferage_budg``) keeps one evaluation row per ready task that each
commit refreshes in one column. These properties recompute every
evaluation with :meth:`PlanningState.evaluate`, host by host, and require
exact equality (bit equality for the fused choice); digests pin the
decision records the planners emit.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.budgets import high_budget, minimal_budget
from repro.obs.tracing import Tracer, use_tracer
from repro.platform.cloud import PAPER_PLATFORM, CloudPlatform
from repro.scheduling import heft, ready_set
from repro.scheduling.heft import HeftBudgScheduler
from repro.scheduling.list_base import select_host
from repro.scheduling.planning import PlanningState
from repro.scheduling.registry import make_scheduler
from repro.workflow.generators import generate

FAMILIES = ("montage", "ligo", "cybershake", "sipht")

#: family -> smallest size its generator accepts
MIN_TASKS = {"montage": 12, "sipht": 6}

cases = st.tuples(
    st.sampled_from(FAMILIES),
    st.integers(min_value=10, max_value=60),
    st.integers(min_value=0, max_value=10_000),
    # budget position: below the minimal budget (nothing fits) to past
    # the high budget (everything fits)
    st.floats(min_value=-0.5, max_value=1.5),
)


#: The paper's platform with two cores per VM (the multi-core extension).
DUAL_CORE_PLATFORM = CloudPlatform(
    categories=tuple(
        dataclasses.replace(category, cores=2)
        for category in PAPER_PLATFORM.categories
    ),
    bandwidth=PAPER_PLATFORM.bandwidth,
    name="paper-dual-core",
)


def workflow_and_budget(case, platform=PAPER_PLATFORM):
    family, n_tasks, seed, position = case
    n_tasks = max(n_tasks, MIN_TASKS.get(family, 0))
    wf = generate(family, n_tasks, rng=seed, sigma_ratio=0.5).freeze()
    low = minimal_budget(wf, platform)
    high = high_budget(wf, platform)
    return wf, max(low + position * (high - low), 0.0)


def from_scratch(state, tid):
    return [state.evaluate(tid, vm, vm.category) for vm in state.vms] + [
        state.evaluate(tid, None, category)
        for category in state.platform.categories
    ]


@pytest.mark.parametrize(
    "algorithm", ["minmin_budg", "maxmin_budg", "sufferage_budg"])
@settings(max_examples=12, deadline=None)
@given(case=cases)
def test_ready_set_rows_equal_from_scratch_evaluations(algorithm, case):
    wf, budget = workflow_and_budget(case)
    states, checked = [], []

    class RecordingState(PlanningState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    select_host = ready_set.select_host

    def checking_select_host(tid, evaluations, allowance):
        (state,) = states
        assert evaluations == from_scratch(state, tid)
        checked.append(tid)
        return select_host(tid, evaluations, allowance)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ready_set, "PlanningState", RecordingState)
        mp.setattr(ready_set, "select_host", checking_select_host)
        result = make_scheduler(algorithm).schedule(wf, PAPER_PLATFORM, budget)
    result.schedule.validate(wf)
    assert set(checked) == set(wf.tasks)


def bits(evaluation):
    """``evaluation`` with every float as its exact hex spelling."""
    return tuple(
        float.hex(value) if isinstance(value, float) else value
        for value in evaluation
    )


@settings(max_examples=25, deadline=None)
@given(
    case=cases,
    platform=st.sampled_from([PAPER_PLATFORM, DUAL_CORE_PLATFORM]),
    use_conservative=st.booleans(),
)
def test_fused_choice_equals_select_host_from_scratch(
    case, platform, use_conservative
):
    wf, budget = workflow_and_budget(case, platform)
    checked = []

    class CheckingState(PlanningState):
        def best_host(self, tid, allowance):
            chosen, within = super().best_host(tid, allowance)
            expected, expected_within = select_host(
                tid, from_scratch(self, tid), allowance)
            assert (bits(chosen), within) == (bits(expected), expected_within)
            checked.append(tid)
            return chosen, within

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heft, "PlanningState", CheckingState)
        HeftBudgScheduler(use_conservative=use_conservative).schedule(
            wf, platform, budget)
    assert sorted(checked) == sorted(wf.tasks)


def plan_bits(result):
    schedule = result.schedule
    return (
        schedule.order,
        schedule.assignment,
        {vm: category.name for vm, category in schedule.categories.items()},
        float.hex(result.planned_makespan),
        float.hex(result.planned_vm_cost),
        float.hex(result.leftover_pot),
        result.within_budget_plan,
    )


@pytest.mark.parametrize("family", ["montage", "cybershake"])
@pytest.mark.parametrize("position", [-0.5, 0.5, 1.5])
def test_tracing_does_not_change_the_heft_budg_plan(family, position):
    wf, budget = workflow_and_budget((family, 40, 5, position))
    untraced = make_scheduler("heft_budg").schedule(wf, PAPER_PLATFORM, budget)
    tracer = Tracer()
    with use_tracer(tracer):
        traced = make_scheduler("heft_budg").schedule(
            wf, PAPER_PLATFORM, budget)
    assert plan_bits(traced) == plan_bits(untraced)
    assert sum(
        record.kind == "host_selection" for record in tracer.decisions
    ) == wf.n_tasks


#: algorithm -> (record kind, records of that kind, sha256 of their sorted
#: JSON lines) on montage-30 (rng 2018) at the medium budget. The batch-mode
#: entries were recorded before that loop cached its evaluations (sorted,
#: because the loop then visited the ready set in string-hash order); the
#: ``heft_budg`` and ``bdt`` entries before Algorithm 2's scan was fused
#: with its choice; the Algorithm 5 (``refine_move``) entries before its
#: candidates were scored by the max-plus replay.
DECISION_DIGESTS = {
    "minmin_budg": ("host_selection", 131,
                    "26ded04c3e232516a96c88ca2a0b908feefa57e55edebf567110c6a33d53b2f1"),
    "sufferage_budg": ("host_selection", 131,
                       "759517a3b121fcb7c2538d9e9d6de4ad6381b62ea6b6e96dcba7f1383578a4d5"),
    "heft_budg": ("host_selection", 30,
                  "f946906f79184a1f13db6a07c4cb9cd7454b91310002eed0d4ff8a71d41e0267"),
    "bdt": ("budget_fill", 30,
            "cdc7ef9af13eaa8fdfc0cb5407adc0197bc3ac5e1c72ae17f44853b36d795c6d"),
    # recorded before the max-plus replay scored the candidates; no move
    # pays off on this instance (test_refine_pins.py pins ones that do)
    "heft_budg_plus": ("refine_move", 0,
                       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "heft_budg_plus_inv": ("refine_move", 0,
                           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("algorithm", sorted(DECISION_DIGESTS))
def test_host_selection_records_are_pinned(algorithm):
    """The records of each planner's choices (BDT's are ``budget_fill``)."""
    kind, n_records, expected = DECISION_DIGESTS[algorithm]
    wf = generate("montage", 30, rng=2018, sigma_ratio=0.5).freeze()
    low = minimal_budget(wf, PAPER_PLATFORM)
    high = high_budget(wf, PAPER_PLATFORM)
    tracer = Tracer()
    with use_tracer(tracer):
        make_scheduler(algorithm).schedule(
            wf, PAPER_PLATFORM, 0.5 * (low + high))
    lines = sorted(
        json.dumps(record.to_dict(), sort_keys=True)
        for record in tracer.decisions
        if record.kind == kind
    )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (n_records, expected)
