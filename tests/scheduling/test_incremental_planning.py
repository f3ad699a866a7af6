"""The incremental host scan equals a from-scratch one.

:meth:`PlanningState.evaluate_all` computes a task's host-independent
context once, and the batch-mode loop (``minmin_budg``, ``maxmin_budg``,
``sufferage_budg``) keeps one evaluation row per ready task that each
commit refreshes in one column. These properties recompute every
evaluation with :meth:`PlanningState.evaluate`, host by host, and require
exact equality; a digest pins the decision records the loop emits.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.budgets import high_budget, minimal_budget
from repro.obs.tracing import Tracer, use_tracer
from repro.platform.cloud import PAPER_PLATFORM
from repro.scheduling import heft, ready_set
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


def workflow_and_budget(case):
    family, n_tasks, seed, position = case
    n_tasks = max(n_tasks, MIN_TASKS.get(family, 0))
    wf = generate(family, n_tasks, rng=seed, sigma_ratio=0.5).freeze()
    low = minimal_budget(wf, PAPER_PLATFORM)
    high = high_budget(wf, PAPER_PLATFORM)
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


@settings(max_examples=20, deadline=None)
@given(case=cases)
def test_evaluate_all_equals_per_host_evaluate(case):
    wf, budget = workflow_and_budget(case)
    checked = []

    class CheckingState(PlanningState):
        def evaluate_all(self, tid):
            evaluations = super().evaluate_all(tid)
            assert evaluations == from_scratch(self, tid)
            checked.append(tid)
            return evaluations

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heft, "PlanningState", CheckingState)
        make_scheduler("heft_budg").schedule(wf, PAPER_PLATFORM, budget)
    assert sorted(checked) == sorted(wf.tasks)


#: algorithm -> (host_selection records, sha256 of their sorted JSON
#: lines) on montage-30 (rng 2018) at the medium budget, recorded before
#: the batch-mode loop cached its evaluations. Sorted, because the loop
#: then visited the ready set in string-hash order.
DECISION_DIGESTS = {
    "minmin_budg": (
        131, "26ded04c3e232516a96c88ca2a0b908feefa57e55edebf567110c6a33d53b2f1"),
    "sufferage_budg": (
        131, "759517a3b121fcb7c2538d9e9d6de4ad6381b62ea6b6e96dcba7f1383578a4d5"),
}


@pytest.mark.parametrize("algorithm", sorted(DECISION_DIGESTS))
def test_host_selection_records_are_pinned(algorithm):
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
        if record.kind == "host_selection"
    )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == DECISION_DIGESTS[algorithm]
