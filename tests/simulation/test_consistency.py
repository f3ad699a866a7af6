"""Planner ↔ executor consistency.

The incremental planner (Eq. 7) and the event-driven executor implement the
same platform semantics; run deterministically (conservative weights,
infinite DC capacity) on the *same* schedule, every task's planned EFT must
equal its simulated compute end, and the planner's conservative cost
envelope must upper-bound the simulated VM rental. The properties at the
end hold the EFT equality for every list planner and the envelope bounds
for every registered scheduler.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import PAPER_PLATFORM, generate, heft_order
from repro.experiments.budgets import high_budget, minimal_budget
from repro.scheduling import bdt, heft, ready_set
from repro.scheduling.planning import PlanningState
from repro.scheduling.registry import SCHEDULERS, make_scheduler
from repro.simulation import evaluate_schedule


def _plan_greedy_eft(wf, platform):
    """Plain HEFT via the planner, returning the state (with finish times)."""
    state = PlanningState(wf, platform)
    for tid in heft_order(wf, platform.mean_speed, platform.bandwidth):
        evaluations = state.evaluate_all(tid)
        best = min(evaluations, key=lambda ev: (ev.eft, ev.cost))
        state.commit(best)
    return state


@pytest.mark.parametrize("family", ["cybershake", "ligo", "montage"])
@pytest.mark.parametrize("seed", [0, 1])
def test_planned_eft_equals_simulated_finish(family, seed):
    wf = generate(family, 30, rng=seed, sigma_ratio=0.5)
    state = _plan_greedy_eft(wf, PAPER_PLATFORM)
    schedule = state.to_schedule()
    result = evaluate_schedule(wf, PAPER_PLATFORM, schedule, validate=True)
    for tid in wf.tasks:
        assert result.tasks[tid].compute_end == pytest.approx(
            state.finish[tid], rel=1e-9, abs=1e-6
        ), f"task {tid} diverges"


@pytest.mark.parametrize("family", ["cybershake", "montage"])
def test_planner_cost_envelope_upper_bounds_actual(family):
    """The planner assumes every output is uploaded; the executor uploads
    only what is needed, so planned VM rental >= simulated VM rental."""
    wf = generate(family, 30, rng=3, sigma_ratio=0.5)
    state = _plan_greedy_eft(wf, PAPER_PLATFORM)
    schedule = state.to_schedule()
    result = evaluate_schedule(wf, PAPER_PLATFORM, schedule)
    # per-second billing can add <= 1s * rate per VM to the actual side;
    # vm_rental includes the setup fees the planner accounts separately.
    slack = sum(vm.category.cost_rate for vm in result.vms)
    actual_rental = result.cost.vm_rental - result.cost.vm_initial
    assert state.vm_rental_cost() + slack >= actual_rental - 1e-9


@pytest.mark.parametrize("seed", [0, 5])
def test_planner_makespan_upper_bounds_simulated(seed):
    wf = generate("ligo", 30, rng=seed, sigma_ratio=0.25)
    state = _plan_greedy_eft(wf, PAPER_PLATFORM)
    schedule = state.to_schedule()
    result = evaluate_schedule(wf, PAPER_PLATFORM, schedule)
    assert state.makespan >= result.makespan - 1e-6


def test_vm_booking_times_match(simple_platform):
    """Planner booked_at (t_begin of first task) equals executor booked_at."""
    wf = generate("montage", 20, rng=2, sigma_ratio=0.5)
    state = _plan_greedy_eft(wf, simple_platform)
    schedule = state.to_schedule()
    result = evaluate_schedule(wf, simple_platform, schedule)
    planned = {vm.vm_id: vm.booked_at for vm in state.vms}
    actual = {vm.vm_id: vm.booked_at for vm in result.vms}
    for vm_id, t in planned.items():
        assert actual[vm_id] == pytest.approx(t, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(["montage", "ligo", "cybershake"]),
    n_tasks=st.integers(min_value=12, max_value=24),
    seed=st.integers(min_value=0, max_value=10_000),
    position=st.floats(min_value=0.0, max_value=1.5),
)
def test_every_scheduler_plan_bounds_its_simulation(
    family, n_tasks, seed, position
):
    """Planned makespan and VM cost upper-bound the deterministic replay
    (conservative weights, infinite DC capacity) for all 13 schedulers,
    at budgets from ``B_min`` to past ``B_high``."""
    wf = generate(family, n_tasks, rng=seed, sigma_ratio=0.5)
    b_min = minimal_budget(wf, PAPER_PLATFORM)
    budget = b_min + position * (high_budget(wf, PAPER_PLATFORM) - b_min)
    for name, cls in sorted(SCHEDULERS.items()):
        result = cls().schedule(wf, PAPER_PLATFORM, budget)
        sim = evaluate_schedule(wf, PAPER_PLATFORM, result.schedule)
        assert sim.makespan <= result.planned_makespan + 1e-6, name
        # per-second billing: at most one second of rental per VM more
        slack = sum(vm.category.cost_rate for vm in sim.vms)
        rental = sim.cost.vm_rental - sim.cost.vm_initial
        assert rental <= result.planned_vm_cost + slack, name


#: The planners that build their schedule in one PlanningState.
LIST_PLANNERS = (
    "heft", "heft_budg", "minmin", "minmin_budg", "maxmin", "maxmin_budg",
    "sufferage", "sufferage_budg", "bdt",
)


@settings(max_examples=12, deadline=None)
@given(
    family=st.sampled_from(["montage", "ligo", "cybershake"]),
    n_tasks=st.integers(min_value=12, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
    position=st.floats(min_value=0.0, max_value=1.5),
)
def test_every_list_planner_eft_equals_simulated_finish(
    family, n_tasks, seed, position
):
    """Each list planner's planned EFT is the deterministic replay's
    compute end, task by task, at budgets from ``B_min`` to past
    ``B_high`` (the fixed greedy case above, for every list planner)."""
    wf = generate(family, n_tasks, rng=seed, sigma_ratio=0.5)
    b_min = minimal_budget(wf, PAPER_PLATFORM)
    budget = b_min + position * (high_budget(wf, PAPER_PLATFORM) - b_min)
    states = []

    class RecordingState(PlanningState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    with pytest.MonkeyPatch.context() as mp:
        for module in (heft, ready_set, bdt):
            mp.setattr(module, "PlanningState", RecordingState)
        for name in LIST_PLANNERS:
            states.clear()
            result = make_scheduler(name).schedule(wf, PAPER_PLATFORM, budget)
            (state,) = states
            sim = evaluate_schedule(wf, PAPER_PLATFORM, result.schedule)
            for tid in wf.tasks:
                assert sim.tasks[tid].compute_end == pytest.approx(
                    state.finish[tid], rel=1e-9, abs=1e-6
                ), (name, tid)
