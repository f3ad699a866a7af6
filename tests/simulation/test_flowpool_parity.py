"""The executor gives the same outcome on either flow pool, faults included.

Each case replays a ``heft_budg`` schedule at a 20 MB/s datacenter twice:
once on :class:`~repro.simulation.bandwidth.FlowPool` and once with the
executor's pool swapped for the re-sharing reference
(``reshare_pool.py``). With a crash plan, every crash lands halfway
through one download on the crashed VM, so the cancelled flow frees its
share while the other flows are in flight. Makespan and cost must agree
within ``1e-12`` relative (the pools round the shared rates differently
in the last bits); everything discrete must agree exactly.
"""

import math

import pytest

from repro.experiments.budgets import medium_budget
from repro.faults.plan import FaultPlan
from repro.platform.cloud import PAPER_PLATFORM
from repro.scheduling.registry import make_scheduler
from repro.simulation import executor
from repro.simulation.bandwidth import FlowPool
from repro.simulation.executor import execute_schedule, sample_weights
from repro.workflow.generators import generate

from .reshare_pool import ReshareFlowPool

DC_CAPACITY = 20e6
CASES = [("montage", 200), ("ligo", 120), ("cybershake", 60)]
N_DRAWS = 2


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def instance(request):
    family, n_tasks = request.param
    wf = generate(family, n_tasks, rng=11, sigma_ratio=0.5)
    budget = medium_budget(wf, PAPER_PLATFORM)
    schedule = make_scheduler("heft_budg").schedule(
        wf, PAPER_PLATFORM, budget).schedule
    draws = [sample_weights(wf, rng) for rng in range(N_DRAWS)]
    return wf, budget, schedule, draws


def mid_download_crashes(result):
    """Crash every other VM halfway through its first download."""
    crashes = {}
    for rec in sorted(result.tasks.values(), key=lambda r: r.download_start):
        if rec.compute_start > rec.download_start and rec.vm_id not in crashes:
            crashes[rec.vm_id] = 0.5 * (rec.download_start + rec.compute_start)
    return FaultPlan(crashes=dict(sorted(crashes.items())[::2]))


def replay(instance, weights, fault_plan, pool_class=FlowPool):
    wf, _budget, schedule, _draws = instance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(executor, "FlowPool", pool_class)
        return execute_schedule(
            wf, PAPER_PLATFORM, schedule, weights, dc_capacity=DC_CAPACITY,
            validate=False, fault_plan=fault_plan,
        )


def outcome(result, budget):
    return {
        "n_vms": result.n_vms,
        "within_budget": result.respects_budget(budget),
        "failed_tasks": result.failed_tasks,
        "blocked_tasks": result.blocked_tasks,
    }


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "crashes"])
def test_executor_outcome_matches_reshare_pool(instance, faults):
    _wf, budget, _schedule, draws = instance
    cancelled = []

    class Reference(ReshareFlowPool):
        def cancel(self, flow_id):
            live = super().cancel(flow_id)
            cancelled.append(live)
            return live

    for weights in draws:
        plan = None
        if faults:
            plan = mid_download_crashes(replay(instance, weights, None))
        fast = replay(instance, weights, plan)
        ref = replay(instance, weights, plan, Reference)
        if faults:  # the crashes did cut downloads short
            assert fast.failed_tasks and any(cancelled)
        assert math.isclose(fast.makespan, ref.makespan, rel_tol=1e-12)
        assert math.isclose(fast.total_cost, ref.total_cost, rel_tol=1e-12)
        assert outcome(fast, budget) == outcome(ref, budget)
