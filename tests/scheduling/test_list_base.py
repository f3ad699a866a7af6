"""Unit tests for getBestHost (Algorithm 2)."""

import dataclasses
import math

import pytest

from repro import Workflow
from repro.scheduling.list_base import get_best_host, select_host
from repro.scheduling.planning import PlanningState
from repro.units import GFLOP


class TestGetBestHost:
    def test_infinite_allowance_picks_min_eft(self, chain, simple_platform):
        state = PlanningState(chain, simple_platform)
        ev, within = get_best_host(state, "A", math.inf)
        assert within
        # the big VM halves compute: min EFT
        assert ev.category.name == "big"

    def test_tight_allowance_forces_cheap_host(self, chain, simple_platform):
        state = PlanningState(chain, simple_platform)
        # big: 50s+5s upload at 0.002 = 0.110$; small: 105s at 0.001 = 0.105$
        ev, within = get_best_host(state, "A", 0.106)
        assert within
        assert ev.category.name == "small"

    def test_no_affordable_host_falls_back_to_cheapest(self, chain, simple_platform):
        state = PlanningState(chain, simple_platform)
        ev, within = get_best_host(state, "A", 0.0001)
        assert not within
        evaluations = state.evaluate_all("A")
        assert ev.cost == min(e.cost for e in evaluations)

    def test_reusing_vm_can_be_free_of_transfer(self, chain, simple_platform):
        state = PlanningState(chain, simple_platform)
        ev, _ = get_best_host(state, "A", math.inf)
        state.commit(ev)
        ev_b, within = get_best_host(state, "B", math.inf)
        assert within
        # staying on A's (big) VM avoids the DC round trip: EFT 50+100=150
        assert ev_b.vm_id == 0
        assert ev_b.eft == pytest.approx(150.0)

    def test_deterministic_tie_break(self, single_task, simple_platform):
        state = PlanningState(single_task, simple_platform)
        a, _ = get_best_host(state, "only", math.inf)
        b, _ = get_best_host(state, "only", math.inf)
        assert (a.vm_id, a.category.name) == (b.vm_id, b.category.name)

    def test_budget_tolerance(self, chain, simple_platform):
        """A cost equal to the allowance (modulo float fuzz) is affordable."""
        state = PlanningState(chain, simple_platform)
        evaluations = state.evaluate_all("A")
        cheapest = min(e.cost for e in evaluations)
        ev, within = get_best_host(state, "A", cheapest)
        assert within


class TestFusedChoiceTieBreaks:
    """The one-pass choice breaks exact ties as ``select_host`` does."""

    @pytest.fixture
    def bag(self):
        return Workflow.from_spec(
            "bag",
            tasks=[("X", 10 * GFLOP, 0.0), ("Y", 10 * GFLOP, 0.0),
                   ("T", 100 * GFLOP, 0.0)],
            edges=[],
        )

    def test_first_of_equal_eft_and_cost_wins(self, bag, simple_platform):
        small = simple_platform.categories[0]
        state = PlanningState(
            bag, dataclasses.replace(simple_platform, categories=(small,)))
        state.enroll(small, 0.0, 0.0)
        state.enroll(small, 0.0, 0.0)
        # VM 0, VM 1 and a fresh small VM all finish at 100 s for $0.1.
        chosen, within = state.best_host("T", math.inf)
        assert (chosen, within) == select_host(
            "T", state.evaluate_all("T"), math.inf)
        assert (chosen.vm_id, chosen.eft, within) == (0, 100.0, True)

    def test_cheapest_breaks_cost_ties_by_eft(self, bag, simple_platform):
        state = PlanningState(bag, simple_platform)
        small = simple_platform.categories[0]
        state.pin("X", state.enroll(small, 0.0, 0.0), 50.0, 1000.0)
        state.pin("Y", state.enroll(small, 0.0, 0.0), 10.0, 1000.0)
        # Both VMs fit T inside their billed windows (cost 0); a negative
        # allowance leaves no host affordable.
        chosen, within = state.best_host("T", -1.0)
        assert (chosen, within) == select_host(
            "T", state.evaluate_all("T"), -1.0)
        assert (chosen.vm_id, chosen.cost, within) == (1, 0.0, False)
