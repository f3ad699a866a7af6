"""Substrate performance: event-driven executor and planner throughput.

Not a paper artefact — these guard the simulator's own scalability, which
bounds how far the (re-)scheduling experiments can be pushed (Table III(b)
goes to 400 tasks; the executor must stay comfortably sub-second there).
"""

import pytest

from repro.platform.cloud import PAPER_PLATFORM
from repro.scheduling.registry import make_scheduler
from repro.simulation.executor import (
    conservative_weights,
    execute_schedule,
)
from repro.workflow.analysis import bottom_levels
from repro.workflow.generators import generate, generate_random_layered


@pytest.fixture(scope="module")
def big_wf():
    return generate("montage", 400, rng=1, sigma_ratio=0.5)


@pytest.fixture(scope="module")
def big_schedule(big_wf):
    return make_scheduler("heft_budg").schedule(
        big_wf, PAPER_PLATFORM, 100.0
    ).schedule


def test_executor_400_tasks(benchmark, big_wf, big_schedule):
    weights = conservative_weights(big_wf)
    result = benchmark(
        execute_schedule, big_wf, PAPER_PLATFORM, big_schedule, weights,
        validate=False,
    )
    assert len(result.tasks) == 400
    assert result.makespan > 0


def test_executor_400_tasks_finite_dc(benchmark, big_wf, big_schedule):
    """The same replay with the datacenter shared at 20 MB/s (§V-B)."""
    weights = conservative_weights(big_wf)
    result = benchmark(
        execute_schedule, big_wf, PAPER_PLATFORM, big_schedule, weights,
        dc_capacity=20e6, validate=False,
    )
    assert len(result.tasks) == 400
    assert result.makespan > execute_schedule(
        big_wf, PAPER_PLATFORM, big_schedule, weights, validate=False,
    ).makespan


def test_bottom_levels_1000_tasks(benchmark):
    wf = generate_random_layered(1000, depth=20, rng=2)
    ranks = benchmark(
        bottom_levels, wf, PAPER_PLATFORM.mean_speed, PAPER_PLATFORM.bandwidth
    )
    assert len(ranks) == 1000


def test_heftbudg_scheduling_400_tasks(benchmark, big_wf):
    scheduler = make_scheduler("heft_budg")
    result = benchmark.pedantic(
        scheduler.schedule, args=(big_wf, PAPER_PLATFORM, 100.0),
        rounds=1, iterations=1,
    )
    assert result.schedule.n_vms >= 1
