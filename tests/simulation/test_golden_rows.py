"""Golden replication rows: the planners' and simulator's outcomes, pinned.

``run_replications`` of one algorithm's schedule for a workflow family at
the medium budget, three seeded replications each, as ``(makespan,
total_cost, n_vms, within_budget)``; floats are stored as ``float.hex`` so
the comparison is exact.

* ``heft_budg`` on montage, LIGO and CyberShake at 200 tasks, recorded
  from the linear-scan flow pool that the heap-ordered
  :class:`~repro.simulation.bandwidth.FlowPool` replaced.
* ``bdt`` and ``cg`` on the same three workflows, ``minmin_budg`` on
  them at 100 tasks and ``heft_budg_plus`` at 30 tasks (the refinement
  loop replans many times). These rows pin
  the schedules themselves: they were recorded before any change to the
  planners' host scan, at infinite capacity only.
* ``maxmin_budg`` and ``sufferage_budg`` on the same three workflows at
  60 tasks, infinite capacity only, recorded before their selection loop
  was shared with ``minmin_budg``. On montage-60 the two pick the same
  schedule.
* ``minmin_budg`` on the same three workflows at 200 tasks as well (keys
  that name their size), infinite capacity only, recorded before the
  batch-mode loop cached its host evaluations per (task, host).

* **Infinite datacenter capacity** (the paper's main model) must match
  exactly. A transfer there finishes at ``start + size/bw`` (Eq. 7), and
  the pool reports it at the first loop clock ``c`` at or after its start
  with ``finish <= c + _EPS_TIME·max(1, c)`` — its own finish unless an
  event or another flow's report lands up to 1e-9 relative before it (the
  snap of :mod:`repro.simulation.bandwidth`). Nothing else in the replay
  depends on how the pool tracks progress. Three rows depend on the snap:
  without it, ``cg-montage``, ``montage`` and ``minmin_budg-montage-200``
  change.
* **20 MB/s datacenter**: makespan and cost within ``1e-12`` relative,
  ``n_vms`` and ``within_budget`` exact. Under contention the rows were
  recorded from a pool that kept each flow's remaining bytes and
  subtracted ``rate·dt`` from them at every change of the flow set. The
  pool now keeps one served-bytes counter per cap class and reads a
  flow's remaining bytes as ``virtual finish - counter``; the two round
  differently in the last bits (a few ulps: the worst row moves by
  ~6e-16 relative, most stay bit-equal). The tolerance admits that
  rounding and nothing a real change of the model would produce.
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
N_TASKS_OF = {
    "heft_budg_plus": 30, "minmin_budg": 100,
    "maxmin_budg": 60, "sufferage_budg": 60,
}
WORKFLOW_SEED = 2018
REPLICATION_SEED = 2018
N_SEEDS = 3
DC_CAPACITY = 20e6

#: (algorithm, family[, n_tasks]) -> capacity -> rows of
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
    ("minmin_budg", "montage", 200): {
        math.inf: [
            ("0x1.4bce131fa3f1ap+11", "0x1.2a16d8bbe0c1ep+2", 65, True),
            ("0x1.a4a179464401ap+10", "0x1.d823445e41287p+1", 65, True),
            ("0x1.c9768dbe3e4dep+10", "0x1.cd6bded0acd48p+1", 65, True),
        ],
    },
    ("minmin_budg", "ligo", 200): {
        math.inf: [
            ("0x1.1cefabda87411p+13", "0x1.2c8a214c7d37cp+4", 80, True),
            ("0x1.61daadd4bd764p+13", "0x1.2990538bdda6ep+4", 80, True),
            ("0x1.1353d5b953503p+13", "0x1.296f7fe29fafcp+4", 80, True),
        ],
    },
    ("minmin_budg", "cybershake", 200): {
        math.inf: [
            ("0x1.74ccc90256493p+9", "0x1.10e5342e91d02p+2", 99, True),
            ("0x1.3b4e14a00083cp+9", "0x1.14045923fa6aap+2", 99, True),
            ("0x1.37b13ae73ce01p+9", "0x1.121ff72e97649p+2", 99, True),
        ],
    },
    ("maxmin_budg", "montage"): {
        math.inf: [
            ("0x1.bf81514ba9084p+10", "0x1.de622edc274fap-1", 18, True),
            ("0x1.0adb8030fd8bcp+11", "0x1.27c1a3eb6dbf1p+0", 18, True),
            ("0x1.d544963a6fec0p+10", "0x1.d295cbdb0fe89p-1", 18, True),
        ],
    },
    ("maxmin_budg", "ligo"): {
        math.inf: [
            ("0x1.8ccf63d5eaba0p+12", "0x1.6d207245bbcdcp+2", 24, True),
            ("0x1.9b1d1feac1cffp+12", "0x1.9d141f6c76262p+2", 24, True),
            ("0x1.9ba5164a79b4cp+12", "0x1.9e48dd93f500cp+2", 24, True),
        ],
    },
    ("maxmin_budg", "cybershake"): {
        math.inf: [
            ("0x1.186890860ab88p+9", "0x1.40ed41c530802p+0", 29, True),
            ("0x1.4b3160759d4bap+9", "0x1.46399761795ccp+0", 29, True),
            ("0x1.0c94f18d0581fp+9", "0x1.3d7b0ed5973c6p+0", 29, True),
        ],
    },
    ("sufferage_budg", "montage"): {
        math.inf: [
            ("0x1.bf81514ba9084p+10", "0x1.de622edc274fap-1", 18, True),
            ("0x1.0adb8030fd8bcp+11", "0x1.27c1a3eb6dbf1p+0", 18, True),
            ("0x1.d544963a6fec0p+10", "0x1.d295cbdb0fe89p-1", 18, True),
        ],
    },
    ("sufferage_budg", "ligo"): {
        math.inf: [
            ("0x1.8ccf7191fa856p+12", "0x1.6cf2066a4a636p+2", 24, True),
            ("0x1.9b1d1feac1cffp+12", "0x1.9d141f6c76262p+2", 24, True),
            ("0x1.9a788464f14a2p+12", "0x1.9e19947e02c0cp+2", 24, True),
        ],
    },
    ("sufferage_budg", "cybershake"): {
        math.inf: [
            ("0x1.186890860ab88p+9", "0x1.40ed41c530802p+0", 29, True),
            ("0x1.4b3160759d4bap+9", "0x1.46399761795ccp+0", 29, True),
            ("0x1.0c94f18d0581fp+9", "0x1.3d7b0ed5973c6p+0", 29, True),
        ],
    },
}


def n_tasks_of(key):
    """The workflow size a golden key is planned at."""
    if len(key) == 3:
        return key[2]
    return N_TASKS_OF.get(key[0], N_TASKS)


@pytest.fixture(scope="module")
def targets():
    """Golden key -> (workflow, schedule, budget), planned once."""
    workflows, out = {}, {}
    for key in GOLDEN:
        algorithm, family = key[:2]
        size = family, n_tasks_of(key)
        if size not in workflows:
            wf = generate(*size, rng=WORKFLOW_SEED, sigma_ratio=0.5).freeze()
            workflows[size] = wf, medium_budget(wf, PAPER_PLATFORM)
        wf, budget = workflows[size]
        schedule = make_scheduler(algorithm).schedule(
            wf, PAPER_PLATFORM, budget).schedule
        out[key] = (wf, schedule, budget)
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
    algorithm, family = key[:2]
    if len(key) == 3:
        return f"{algorithm}-{family}-{key[2]}"
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
