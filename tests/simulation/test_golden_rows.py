"""Golden replication rows: the simulator's outcomes, pinned to the bit.

``run_replications`` of the ``heft_budg`` schedule for montage, LIGO and
CyberShake at 200 tasks and the medium budget, three seeded replications
each, as ``(makespan, total_cost, n_vms, within_budget)``. The values were
recorded from the linear-scan flow pool that the heap-ordered
:class:`~repro.simulation.bandwidth.FlowPool` replaced; floats are stored
as ``float.hex`` so the comparison is exact.

* **Infinite datacenter capacity** (the paper's main model) must match
  exactly. A transfer there finishes at ``start + size/bw`` (Eq. 7) and no
  other flow changes that, so nothing in the replay depends on how the
  pool tracks progress.
* **20 MB/s datacenter**: makespan and cost within ``1e-12`` relative,
  ``n_vms`` and ``within_budget`` exact. Under contention each flow's
  progress is accumulated over the intervals between rate changes, and
  the order of those float additions is an implementation detail: the
  pool may settle bytes once per change of the flow set or once per
  simulator event, and the two round differently in the last bits (a few
  ulps, ~1e-16 relative). The tolerance admits that rounding and nothing
  a real change of the model would produce.
"""

import math

import pytest

from repro.experiments.budgets import medium_budget
from repro.platform.cloud import PAPER_PLATFORM
from repro.rng import spawn_seeds
from repro.scheduling.registry import make_scheduler
from repro.simulation.executor import run_replications
from repro.workflow.generators import generate

N_TASKS = 200
WORKFLOW_SEED = 2018
REPLICATION_SEED = 2018
N_SEEDS = 3
DC_CAPACITY = 20e6

#: family -> capacity -> rows of (makespan hex, cost hex, n_vms, within_budget)
GOLDEN = {
    "montage": {
        math.inf: [
            ("0x1.4bcb29df7b684p+11", "0x1.2a154c98d248fp+2", 65, True),
            ("0x1.a49ba6c5f2eeep+10", "0x1.d81d13d63dca4p+1", 65, True),
            ("0x1.c96ce112a50ccp+10", "0x1.cd5ad95f39654p+1", 65, True),
        ],
        DC_CAPACITY: [
            ("0x1.4f920ac78b529p+11", "0x1.2bccc3e243951p+2", 65, True),
            ("0x1.abfe24e6ec73dp+10", "0x1.db544da79e72ep+1", 65, True),
            ("0x1.d2277617cea77p+10", "0x1.d2b44d98f3094p+1", 65, True),
        ],
    },
    "ligo": {
        math.inf: [
            ("0x1.1cefa8ec64dd3p+13", "0x1.2ce695fd0fbc3p+4", 80, True),
            ("0x1.61daa9c08fd94p+13", "0x1.29870ac5e5ac0p+4", 80, True),
            ("0x1.1353dd8871828p+13", "0x1.296dc23e11a00p+4", 80, True),
        ],
        DC_CAPACITY: [
            ("0x1.47ed81b9efd07p+13", "0x1.81d0a82a380e6p+4", 80, True),
            ("0x1.8cf27e4d78e9ap+13", "0x1.7a8b72ac3ab63p+4", 80, True),
            ("0x1.38ab76a3f4568p+13", "0x1.80c580fda7aafp+4", 80, True),
        ],
    },
    "cybershake": {
        math.inf: [
            ("0x1.74ccc90256493p+9", "0x1.11524b418c371p+2", 99, True),
            ("0x1.3b4e14a00083cp+9", "0x1.142033751438cp+2", 99, True),
            ("0x1.37b13ae73ce01p+9", "0x1.1282ff6b64ebcp+2", 99, True),
        ],
        DC_CAPACITY: [
            ("0x1.95e025b34f5f9p+11", "0x1.d9a052d59faf9p+3", 99, False),
            ("0x1.86580f1841fc7p+11", "0x1.daf3e690047fbp+3", 99, False),
            ("0x1.7d25f3192dae0p+11", "0x1.da2fe2adf5609p+3", 99, False),
        ],
    },
}


@pytest.fixture(scope="module")
def targets():
    """family -> (workflow, schedule, budget), planned once per module."""
    out = {}
    for family in GOLDEN:
        wf = generate(family, N_TASKS, rng=WORKFLOW_SEED, sigma_ratio=0.5).freeze()
        budget = medium_budget(wf, PAPER_PLATFORM)
        schedule = make_scheduler("heft_budg").schedule(
            wf, PAPER_PLATFORM, budget).schedule
        out[family] = (wf, schedule, budget)
    return out


def replicate(targets, family, capacity):
    wf, schedule, budget = targets[family]
    return run_replications({
        "wf": wf, "platform": PAPER_PLATFORM, "schedule": schedule,
        "budget": budget, "seeds": spawn_seeds(REPLICATION_SEED, N_SEEDS),
        "dc_capacity": capacity,
    })


def expected_rows(family, capacity):
    return [(float.fromhex(mk), float.fromhex(cost), n_vms, ok)
            for mk, cost, n_vms, ok in GOLDEN[family][capacity]]


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_infinite_capacity_rows_are_exact(targets, family):
    assert replicate(targets, family, math.inf) == expected_rows(family, math.inf)


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_finite_capacity_rows_match(targets, family):
    got = replicate(targets, family, DC_CAPACITY)
    want = expected_rows(family, DC_CAPACITY)
    assert len(got) == len(want)
    for (mk, cost, n_vms, ok), (w_mk, w_cost, w_n_vms, w_ok) in zip(got, want):
        assert mk == pytest.approx(w_mk, rel=1e-12, abs=0.0)
        assert cost == pytest.approx(w_cost, rel=1e-12, abs=0.0)
        assert (n_vms, ok) == (w_n_vms, w_ok)
