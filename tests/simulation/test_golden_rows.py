"""Golden replication rows: the planners' and simulator's outcomes, pinned.

``run_replications`` of one algorithm's schedule for a workflow family at
the medium budget, three seeded replications each, as ``(makespan,
total_cost, n_vms, within_budget)``; floats are stored as ``float.hex`` so
the comparison is exact.

* ``heft_budg`` on montage, LIGO and CyberShake at 200 tasks, recorded
  from the linear-scan flow pool that the heap-ordered
  :class:`~repro.simulation.bandwidth.FlowPool` replaced.
* ``bdt`` and ``cg`` on the same three workflows, ``minmin_budg`` on
  them at 100 tasks (its 200-task plan takes ~4 s) and ``heft_budg_plus``
  at 30 tasks (the refinement loop replans many times). These rows pin
  the schedules themselves: they were recorded before any change to the
  planners' host scan, at infinite capacity only.

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
#: algorithms planned at another size than ``N_TASKS``
N_TASKS_OF = {"heft_budg_plus": 30, "minmin_budg": 100}
WORKFLOW_SEED = 2018
REPLICATION_SEED = 2018
N_SEEDS = 3
DC_CAPACITY = 20e6

#: (algorithm, family) -> capacity -> rows of
#: (makespan hex, cost hex, n_vms, within_budget)
GOLDEN = {
    ("heft_budg", "montage"): {
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
    ("heft_budg", "ligo"): {
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
    ("heft_budg", "cybershake"): {
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
    ("bdt", "montage"): {
        math.inf: [
            ("0x1.4bd18e4eda339p+11", "0x1.29a76f79fe657p+2", 65, True),
            ("0x1.a4a935228b628p+10", "0x1.d7cfb5708c5d1p+1", 65, True),
            ("0x1.dc6de5575092ap+10", "0x1.e9f5182f24c48p+1", 65, True),
        ],
    },
    ("bdt", "ligo"): {
        math.inf: [
            ("0x1.1cefabda87411p+13", "0x1.2c422d504fe39p+4", 80, True),
            ("0x1.61daadd4bd764p+13", "0x1.28e6b1efb79adp+4", 80, True),
            ("0x1.1353d5b953503p+13", "0x1.298a629f217c0p+4", 80, True),
        ],
    },
    ("bdt", "cybershake"): {
        math.inf: [
            ("0x1.74ccfe9707fc5p+9", "0x1.10f4ad78dcb2fp+2", 99, True),
            ("0x1.3b4e631b7cf74p+9", "0x1.130441d7e7f1ap+2", 99, True),
            ("0x1.37b18962b9539p+9", "0x1.11c0cd4552e74p+2", 99, True),
        ],
    },
    ("cg", "montage"): {
        math.inf: [
            ("0x1.4bcb29df7b684p+11", "0x1.2a154c98d248fp+2", 65, True),
            ("0x1.a49ba6c5f2eeep+10", "0x1.d81d13d63dca4p+1", 65, True),
            ("0x1.c96ce112a50ccp+10", "0x1.cd5ad95f39654p+1", 65, True),
        ],
    },
    ("cg", "ligo"): {
        math.inf: [
            ("0x1.1cefa8ec64dd3p+13", "0x1.2ce695fd0fbc3p+4", 80, True),
            ("0x1.61daa9c08fd94p+13", "0x1.29870ac5e5ac0p+4", 80, True),
            ("0x1.1353dd8871828p+13", "0x1.296dc23e11a00p+4", 80, True),
        ],
    },
    ("cg", "cybershake"): {
        math.inf: [
            ("0x1.74ccc90256493p+9", "0x1.11524b418c371p+2", 99, True),
            ("0x1.3b4e14a00083cp+9", "0x1.142033751438cp+2", 99, True),
            ("0x1.37b13ae73ce01p+9", "0x1.1282ff6b64ebcp+2", 99, True),
        ],
    },
    ("heft_budg_plus", "montage"): {
        math.inf: [
            ("0x1.11051dac6a983p+11", "0x1.369a03833b2abp-1", 8, True),
            ("0x1.f29eb95c0d29cp+10", "0x1.ce4e5cbd37a1cp-2", 8, True),
            ("0x1.0a1b13512258cp+11", "0x1.22f81a0ff3861p-1", 8, True),
        ],
    },
    ("heft_budg_plus", "ligo"): {
        math.inf: [
            ("0x1.d86d736426a75p+12", "0x1.120cf17135e79p+2", 12, True),
            ("0x1.e7a73b124ff40p+12", "0x1.06ebae46b951bp+2", 12, True),
            ("0x1.6caff512ca2a3p+12", "0x1.f766b2091ac62p+1", 12, True),
        ],
    },
    ("heft_budg_plus", "cybershake"): {
        math.inf: [
            ("0x1.a658131e51d67p+8", "0x1.4115d8604f044p-1", 14, True),
            ("0x1.29210c30909fep+9", "0x1.48960eacc6608p-1", 14, True),
            ("0x1.d37d2e898606dp+8", "0x1.405c8b53b1894p-1", 14, True),
        ],
    },
    ("minmin_budg", "montage"): {
        math.inf: [
            ("0x1.d4d6eb8a2f4c0p+10", "0x1.a51dd57260413p+0", 31, True),
            ("0x1.63d09cc455bebp+10", "0x1.322c908c446a9p+0", 31, True),
            ("0x1.158e88df65f3fp+11", "0x1.08b78c8a98bbfp+1", 31, True),
        ],
    },
    ("minmin_budg", "ligo"): {
        math.inf: [
            ("0x1.2e13dd44e6babp+13", "0x1.1c15aec6ee0e8p+3", 40, True),
            ("0x1.4e2e5c184024dp+13", "0x1.26709e8140f82p+3", 40, True),
            ("0x1.977fb034bb05fp+12", "0x1.25cff037bda18p+3", 40, True),
        ],
    },
    ("minmin_budg", "cybershake"): {
        math.inf: [
            ("0x1.1781b95c4b0bbp+9", "0x1.09e23a9b2778dp+1", 49, True),
            ("0x1.33d4efd78f611p+9", "0x1.0e31e7c0eb29ep+1", 49, True),
            ("0x1.5a183d8d1ba78p+9", "0x1.0d9acc1599a5bp+1", 49, True),
        ],
    },
}


@pytest.fixture(scope="module")
def targets():
    """(algorithm, family) -> (workflow, schedule, budget), planned once."""
    workflows, out = {}, {}
    for algorithm, family in GOLDEN:
        size = family, N_TASKS_OF.get(algorithm, N_TASKS)
        if size not in workflows:
            wf = generate(*size, rng=WORKFLOW_SEED, sigma_ratio=0.5).freeze()
            workflows[size] = wf, medium_budget(wf, PAPER_PLATFORM)
        wf, budget = workflows[size]
        schedule = make_scheduler(algorithm).schedule(
            wf, PAPER_PLATFORM, budget).schedule
        out[algorithm, family] = (wf, schedule, budget)
    return out


def replicate(targets, key, capacity):
    wf, schedule, budget = targets[key]
    return run_replications({
        "wf": wf, "platform": PAPER_PLATFORM, "schedule": schedule,
        "budget": budget, "seeds": spawn_seeds(REPLICATION_SEED, N_SEEDS),
        "dc_capacity": capacity,
    })


def expected_rows(key, capacity):
    return [(float.fromhex(mk), float.fromhex(cost), n_vms, ok)
            for mk, cost, n_vms, ok in GOLDEN[key][capacity]]


def case_id(key):
    algorithm, family = key
    # the heft_budg cases keep the ids they had as the only algorithm
    return family if algorithm == "heft_budg" else f"{algorithm}-{family}"


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=case_id)
def test_infinite_capacity_rows_are_exact(targets, key):
    assert replicate(targets, key, math.inf) == expected_rows(key, math.inf)


@pytest.mark.parametrize(
    "key", sorted(k for k in GOLDEN if DC_CAPACITY in GOLDEN[k]), ids=case_id
)
def test_finite_capacity_rows_match(targets, key):
    got = replicate(targets, key, DC_CAPACITY)
    want = expected_rows(key, DC_CAPACITY)
    assert len(got) == len(want)
    for (mk, cost, n_vms, ok), (w_mk, w_cost, w_n_vms, w_ok) in zip(got, want):
        assert mk == pytest.approx(w_mk, rel=1e-12, abs=0.0)
        assert cost == pytest.approx(w_cost, rel=1e-12, abs=0.0)
        assert (n_vms, ok) == (w_n_vms, w_ok)
