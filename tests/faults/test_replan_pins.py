"""Pinned outcomes of the two re-planners that seed the planner mid-run.

:class:`~repro.scheduling.online.OnlineHeftBudg` (timeout-triggered
re-mapping) and :class:`~repro.faults.recovery.RemapRecovery` (crash and
spot-preemption recovery) both seed a
:class:`~repro.scheduling.planning.PlanningState` with an observed
timeline, then re-run Algorithm 2 over the unspent budget. These pins hold
what they produce, to the bit, on a grid of families, sizes, seeds and
budget positions:

* online runs at ``timeout_factor=1.2`` on montage, ligo, cybershake and
  sipht at 20 and 45 tasks;
* ``run_with_faults(..., policy="remap")`` on sampled crash plans
  (3.0 crashes per VM-hour);
* the same on spot plans (:class:`~repro.faults.spot.SpotScenario`
  bursts), without and with a :class:`~repro.faults.spot.CheckpointConfig`.

Each run contributes one row: a sha256 of its final schedule, makespan,
cost and lost cost as ``float.hex``, its outcome and its counts. Each
group pins the sha256 of its rows plus the summed re-planning counts; the
counts are also asserted positive so that the pins cannot go vacuous
(a grid where nothing re-plans would pin nothing).

Regenerate with ``PYTHONPATH=src python tests/faults/test_replan_pins.py``
after an intended behaviour change.
"""

import hashlib

import pytest

from repro.experiments.budgets import high_budget, minimal_budget
from repro.faults import FaultPlan, run_with_faults
from repro.faults.spot import CheckpointConfig, SpotScenario
from repro.platform.cloud import PAPER_PLATFORM
from repro.platform.pricing import SpotMarket, add_spot_categories, spot_only
from repro.rng import spawn
from repro.scheduling.heft import HeftBudgScheduler
from repro.scheduling.online import OnlineHeftBudg
from repro.workflow.generators import generate

FAMILIES = ("montage", "ligo", "cybershake", "sipht")
SIZES = (20, 45)
POSITIONS = (0.15, 0.5, 1.0)
CHECKPOINT = CheckpointConfig(interval_s=600.0, overhead_s=20.0)

#: group -> (sha256 of the rows, runs, summed re-planning count).
PINS = {
    "online": ("a35fedefd08c6a3892474c71646c937994488b4ca224c28259e5c2c0d7820fac",
               120, 55),
    "crash": ("f3201cc9df4778ea40088c0fd6eeac5d84af5ec94d69493605c0e777935d1ec1",
              144, 162),
    "spot": ("f372c25a206135944468487037fe827f0d055b35013da945a8d574ada1c75c26",
             64, 40),
    "spot_ckpt": (
        "0c740987540eb78b399e0fd881a16cf26de5b5e778e022790d6478b97853c848",
        64, 32),
}


def _schedule_digest(schedule):
    payload = repr((
        tuple(schedule.order),
        tuple(sorted(schedule.assignment.items())),
        tuple(sorted((v, c.name) for v, c in schedule.categories.items())),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


def _budget(wf, platform, position):
    b_min = minimal_budget(wf, platform)
    return b_min + position * (high_budget(wf, platform) - b_min)


def _instances():
    for family in FAMILIES:
        for n_tasks in SIZES:
            yield family, n_tasks, generate(
                family, n_tasks, rng=n_tasks, sigma_ratio=1.0)


def online_rows():
    """One row per online run; the count is accepted re-mappings."""
    online = OnlineHeftBudg(timeout_factor=1.2)
    rows, count = [], 0
    for family, n_tasks, wf in _instances():
        for position in POSITIONS:
            budget = _budget(wf, PAPER_PLATFORM, position)
            for seed in (1, 2, 3, 4, 5):
                out = online.run(wf, PAPER_PLATFORM, budget, rng=seed)
                count += out.n_reschedules
                rows.append((
                    family, n_tasks, position, seed,
                    _schedule_digest(out.schedule),
                    out.makespan.hex(), out.total_cost.hex(),
                    out.n_reschedules, tuple(out.timeouts),
                ))
    return rows, count


def _fault_row(out, *keys):
    return keys + (
        _schedule_digest(out.schedule), out.outcome,
        out.makespan.hex(), out.total_cost.hex(), out.lost_cost.hex(),
        out.n_attempts, out.n_recoveries, out.n_faults,
        tuple(out.recovered_tasks),
    )


def crash_rows():
    """One row per remap-recovered crash run; the count is recoveries."""
    rows, count = [], 0
    for family, n_tasks, wf in _instances():
        for position in POSITIONS:
            budget = _budget(wf, PAPER_PLATFORM, position)
            planned = HeftBudgScheduler().schedule(wf, PAPER_PLATFORM, budget)
            for i, stream in enumerate(spawn(n_tasks + 7, 6)):
                plan = FaultPlan.sample(
                    planned.schedule, rng=stream,
                    horizon=4.0 * planned.planned_makespan,
                    crash_rate_per_hour=3.0,
                )
                out = run_with_faults(
                    wf, PAPER_PLATFORM, budget, plan,
                    schedule=planned.schedule, policy="remap", rng=stream,
                )
                count += out.n_recoveries
                rows.append(_fault_row(out, family, n_tasks, position, i))
    return rows, count


def spot_rows(checkpoint):
    """One row per remap-recovered spot run; the count is recoveries."""
    market = SpotMarket.sample(rng=5)
    exec_platform = add_spot_categories(PAPER_PLATFORM, market)
    plan_platform = spot_only(exec_platform)
    scenario = SpotScenario(
        market=market, preemption_rate_per_hour=1.5, checkpoint=checkpoint,
    )
    rows, count = [], 0
    for family, n_tasks, wf in _instances():
        for position in POSITIONS[:2]:
            budget = _budget(wf, plan_platform, position)
            planned = HeftBudgScheduler().schedule(wf, plan_platform, budget)
            for i, stream in enumerate(spawn(n_tasks + 11, 4)):
                plan = scenario.sample_plan(
                    rng=stream, horizon=4.0 * planned.planned_makespan)
                out = run_with_faults(
                    wf, exec_platform, budget, plan,
                    schedule=planned.schedule, policy="remap", rng=stream,
                    checkpoint=checkpoint,
                )
                count += out.n_recoveries
                rows.append(_fault_row(out, family, n_tasks, position, i))
    return rows, count


GROUPS = {
    "online": online_rows,
    "crash": crash_rows,
    "spot": lambda: spot_rows(None),
    "spot_ckpt": lambda: spot_rows(CHECKPOINT),
}


def _pin(rows, count):
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    return digest, len(rows), count


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_replan_pin(group):
    digest, n_rows, count = _pin(*GROUPS[group]())
    assert count > 0, f"{group}: nothing was re-planned; the pin is vacuous"
    assert (digest, n_rows, count) == PINS[group]


if __name__ == "__main__":
    for name, build in GROUPS.items():
        print(f"    {name!r}: {_pin(*build())!r},")
