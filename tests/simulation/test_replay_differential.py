"""The max-plus replay equals the event executor, bit for bit.

:class:`~repro.simulation._replay.ScheduleReplay` scores Algorithm 5's
candidates without the event loop. The event executor is the reference:
on every schedule the replay must return the executor's makespan and total
cost as ``float.hex``, and its VM count. The flow pool's *snap* (a flow
reported at an earlier loop clock within ``_EPS_TIME`` of its finish) is
compared directly: the clocks at which the replay reports flows early must
be the executor's, including the snaps that move no final number. The
explicit montage-200 cases always meet the snap, and the routing cases
leave the recurrence's model.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.experiments.budgets import high_budget, medium_budget, minimal_budget
from repro.obs.tracing import Tracer, use_tracer
from repro.platform.cloud import PAPER_PLATFORM, CloudPlatform
from repro.platform.pricing import SpotMarket, add_spot_categories, spot_only
from repro.rng import as_generator, spawn_seeds
from repro.scheduling import cg, refine
from repro.scheduling.registry import SCHEDULERS, make_scheduler
from repro.simulation import _replay, executor
from repro.simulation._replay import ScheduleReplay
from repro.simulation.bandwidth import _EPS_BYTES, FlowPool
from repro.simulation.executor import (
    conservative_weights,
    evaluate_schedule,
    execute_schedule,
    mean_weights,
    sample_weights,
)
from repro.workflow.generators import generate

FAMILIES = ("montage", "ligo", "cybershake", "sipht")
MIN_TASKS = {"montage": 12, "sipht": 6}
#: Algorithm 5 replans many times; its schedules are drawn at this size.
REFINED = {"heft_budg_plus": 30, "heft_budg_plus_inv": 30}


def bits(score):
    return float.hex(score.makespan), float.hex(score.total_cost), score.n_vms


class RecordingPool(FlowPool):
    """The executor's flow pool, noting each flow's finish and report time."""

    finishes = {}
    reports = {}

    def start(self, flow_id, nbytes, cap, payload=None):
        super().start(flow_id, nbytes, cap, payload)
        self.finishes[flow_id] = (
            self.now if nbytes <= _EPS_BYTES else self.now + nbytes / cap)

    def advance(self, t):
        done = super().advance(t)
        for flow_id, _payload in done:
            self.reports[flow_id] = t
        return done


def replay_against_executor(wf, platform, schedule, weights):
    """``(replay, executor)`` bits, each with the clocks of the flows it
    reported before their finish (the snap), sorted."""
    absorbed = [{}]
    absorptions = _replay._absorptions

    def recording(*clocks):
        absorbed[0] = absorptions(*clocks)  # the last call is the fixed point
        return absorbed[0]

    RecordingPool.finishes, RecordingPool.reports = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_replay, "_absorptions", recording)
        mp.setattr(executor, "FlowPool", RecordingPool)
        replay = ScheduleReplay(wf, platform, schedule.order, weights)
        score = replay.evaluate(schedule)
        run = execute_schedule(wf, platform, schedule, weights)
    snapped = sorted(
        t for flow_id, t in RecordingPool.reports.items()
        if t < RecordingPool.finishes[flow_id]
    )
    assert replay.n_fallbacks == 0
    return (
        (bits(score), sorted(absorbed[0].values())),
        (bits(run), snapped),
    )


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n_tasks=st.integers(min_value=10, max_value=80),
    seed=st.integers(min_value=0, max_value=10_000),
    position=st.floats(min_value=0.0, max_value=1.5),
    algorithm=st.sampled_from(sorted(SCHEDULERS)),
    kind=st.sampled_from(["conservative", "mean", "sampled"]),
)
def test_replay_equals_event_executor(
    family, n_tasks, seed, position, algorithm, kind
):
    n_tasks = max(min(n_tasks, REFINED.get(algorithm, n_tasks)),
                  MIN_TASKS.get(family, 0))
    wf = generate(family, n_tasks, rng=seed, sigma_ratio=0.5).freeze()
    low = minimal_budget(wf, PAPER_PLATFORM)
    high = high_budget(wf, PAPER_PLATFORM)
    schedule = make_scheduler(algorithm).schedule(
        wf, PAPER_PLATFORM, low + position * (high - low)).schedule
    weights = (
        conservative_weights(wf) if kind == "conservative"
        else mean_weights(wf) if kind == "mean"
        else sample_weights(wf, seed)
    )
    replayed, reference = replay_against_executor(
        wf, PAPER_PLATFORM, schedule, weights)
    assert replayed == reference


def test_replay_equals_executor_where_the_snap_decides():
    """montage-200 ``heft_budg`` at the medium budget: its fan-out uploads
    bunch together, so every replication has a flow that an earlier clock
    absorbs. The replay must emulate that, not fall back."""
    wf = generate("montage", 200, rng=2018, sigma_ratio=0.5).freeze()
    schedule = make_scheduler("heft_budg").schedule(
        wf, PAPER_PLATFORM, medium_budget(wf, PAPER_PLATFORM)).schedule
    for seed in spawn_seeds(2018, 40):
        weights = sample_weights(wf, as_generator(seed))
        replayed, reference = replay_against_executor(
            wf, PAPER_PLATFORM, schedule, weights)
        assert replayed == reference
        assert reference[1], "no flow was snapped"


@pytest.mark.parametrize("family", ["montage", "ligo", "cybershake"])
@pytest.mark.parametrize("algorithm", ["heft_budg_plus", "heft_budg_plus_inv",
                                       "cg_plus"])
def test_every_refinement_candidate_equals_evaluate_schedule(family, algorithm):
    """Each candidate the refinement loops score, scored by the executor."""
    wf = generate(family, 16, rng=3, sigma_ratio=0.5).freeze()
    low = minimal_budget(wf, PAPER_PLATFORM)
    checked = []

    class CheckingReplay(ScheduleReplay):
        def evaluate_move(self, schedule, tid, vm_id, category):
            score = super().evaluate_move(schedule, tid, vm_id, category)
            candidate = schedule.reassigned(tid, vm_id, category)
            assert bits(score) == bits(
                evaluate_schedule(wf, PAPER_PLATFORM, candidate))
            checked.append(tid)
            return score

    module = cg if algorithm == "cg_plus" else refine
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "ScheduleReplay", CheckingReplay)
        make_scheduler(algorithm).schedule(wf, PAPER_PLATFORM, 1.5 * low)
    assert checked


DUAL_CORE_PLATFORM = CloudPlatform(
    categories=tuple(
        dataclasses.replace(category, cores=2)
        for category in PAPER_PLATFORM.categories
    ),
    bandwidth=PAPER_PLATFORM.bandwidth,
    name="paper-dual-core",
)


def test_multi_core_categories_go_to_the_event_executor():
    wf = generate("cybershake", 30, rng=1, sigma_ratio=0.5).freeze()
    schedule = make_scheduler("heft_budg").schedule(
        wf, DUAL_CORE_PLATFORM, medium_budget(wf, DUAL_CORE_PLATFORM)).schedule
    replay = ScheduleReplay(wf, DUAL_CORE_PLATFORM, schedule.order)
    score = replay.evaluate(schedule)
    assert replay.n_fallbacks == 1
    assert bits(score) == bits(
        evaluate_schedule(wf, DUAL_CORE_PLATFORM, schedule))


def test_spot_billing_goes_to_the_event_executor():
    """A spot category billed along the market's trajectory leaves the
    model; the same platform's on-demand schedule stays in it."""
    wf = generate("montage", 30, rng=1, sigma_ratio=0.5).freeze()
    platform = add_spot_categories(PAPER_PLATFORM, SpotMarket.sample(rng=5))
    for plan_on, fallbacks in ((spot_only(platform), 1), (PAPER_PLATFORM, 0)):
        schedule = make_scheduler("heft_budg").schedule(
            wf, plan_on, medium_budget(wf, plan_on)).schedule
        replay = ScheduleReplay(wf, platform, schedule.order)
        score = replay.evaluate(schedule)
        assert replay.n_fallbacks == fallbacks
        assert bits(score) == bits(evaluate_schedule(wf, platform, schedule))


def test_refine_span_counts_fallbacks():
    wf = generate("ligo", 20, rng=1, sigma_ratio=0.5).freeze()
    budget = 1.5 * minimal_budget(wf, DUAL_CORE_PLATFORM)
    first = make_scheduler("heft_budg").schedule(wf, DUAL_CORE_PLATFORM, budget)
    tracer = Tracer()
    with use_tracer(tracer):
        refine.refine_schedule(wf, DUAL_CORE_PLATFORM, first.schedule, budget)
    (span,) = [s for s in tracer.spans if s.name == "schedule.refine"]
    # every candidate and the base evaluation leave the single-core model
    assert span.attributes["n_fallbacks"] == span.attributes["n_evaluations"] + 1


def test_a_foreign_dispatch_order_is_refused():
    wf = generate("montage", 20, rng=1, sigma_ratio=0.5).freeze()
    schedule = make_scheduler("heft").schedule(wf, PAPER_PLATFORM, 1e9).schedule
    replay = ScheduleReplay(wf, PAPER_PLATFORM, list(reversed(schedule.order)))
    with pytest.raises(SimulationError, match="dispatch order"):
        replay.evaluate(schedule)
