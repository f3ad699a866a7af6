"""Pinned outcomes of one small crash sweep and one small spot sweep.

:func:`~repro.experiments.resilience.resilience_sweep` and
:func:`~repro.experiments.resilience.spot_resilience_sweep` are checked
elsewhere for serial-against-workers parity and run-to-run determinism;
both hold for a change that moves every backend the same way. These pins
hold the numbers themselves: every :class:`ResiliencePoint` field and
every ledger row, in order, on the serial and the process backend.

Floats are stored as ``float.hex`` so the comparison is exact. Ledger
rows drop the fields the ledger stamps at write time (``run_id``,
``recorded_at``, ``version``, ``trace_id``, ``elapsed_s``,
``sched_seconds``). ``ROW_COMMON`` holds the fields every row shares;
``ROW_FIELDS`` names the per-row rest.
"""

from dataclasses import astuple

import pytest

from repro.experiments.resilience import (
    resilience_sweep,
    spot_resilience_sweep,
)
from repro.faults.spot import CheckpointConfig
from repro.obs.ledger import RunLedger, use_ledger

WALL_CLOCK_FIELDS = {
    "run_id", "recorded_at", "version", "trace_id", "elapsed_s",
    "sched_seconds",
}

ROW_COMMON = {
    "family": "montage",
    "fingerprint": "",
    "n_reps": 1,
    "n_tasks": 15,
    "planned_cost": "0x0.0p+0",
    "sigma_ratio": "0x1.0000000000000p-1",
    "source": "faults",
    "within_budget_plan": True,
    "workflow": "montage-15",
}
ROW_FIELDS = (
    "algorithm", "budget", "planned_makespan", "sim_makespan", "sim_cost",
    "success_rate", "n_vms", "outcome", "n_faults", "extra",
)
CRASH_POINTS = [
    ("montage", 15, "heft_budg", "none", "0x0.0p+0",
     "0x1.5654757d54e2ep-2", 2, 2, 0, "0x1.c96dec60c9d8cp+10",
     "0x1.3b8f5dc5e2150p-3", "0x0.0p+0", 0, "0x0.0p+0", "0x0.0p+0", False),
    ("montage", 15, "heft_budg", "none", "0x1.4000000000000p+2",
     "0x1.5654757d54e2ep-2", 2, 0, 0, "0x1.609976dad2b91p+9",
     "0x1.015654e217f3fp-4", "0x1.4000000000000p+1", 0, "0x0.0p+0",
     "0x0.0p+0", False),
    ("montage", 15, "heft_budg", "remap", "0x0.0p+0",
     "0x1.5654757d54e2ep-2", 2, 2, 0, "0x1.ef2a107cb2be4p+10",
     "0x1.5c7dc652e8c66p-3", "0x0.0p+0", 0, "0x0.0p+0", "0x0.0p+0", False),
    ("montage", 15, "heft_budg", "remap", "0x1.4000000000000p+2",
     "0x1.5654757d54e2ep-2", 2, 2, 0, "0x1.9bc1e5a3cd971p+10",
     "0x1.3bd4ea4ac2946p-3", "0x1.c000000000000p+1", 0, "0x0.0p+0",
     "0x0.0p+0", False),
]
CRASH_ROWS = [
    ("heft_budg+none@0", "0x1.5654757d54e2ep-2", "0x1.26bf79f08bc3ep+11",
     "0x1.c541ce07d64c2p+10", "0x1.48e7f1a339971p-3",
     "0x1.0000000000000p+0", 4, "success", 0, {"crash_rate": "0x0.0p+0",
     "lost_cost": "0x0.0p+0", "n_recoveries": 0, "policy": "none"}),
    ("heft_budg+none@0", "0x1.5654757d54e2ep-2", "0x1.26bf79f08bc3ep+11",
     "0x1.cd9a0ab9bd656p+10", "0x1.2e36c9e88a92fp-3",
     "0x1.0000000000000p+0", 4, "success", 0, {"crash_rate": "0x0.0p+0",
     "lost_cost": "0x0.0p+0", "n_recoveries": 0, "policy": "none"}),
    ("heft_budg+none@5", "0x1.5654757d54e2ep-2", "0x1.26bf79f08bc3ep+11",
     "0x1.0b25774c031d3p+8", "0x1.f799c3ba57e34p-6", "0x0.0p+0", 3,
     "failed", 2, {"crash_rate": "0x1.4000000000000p+2", "lost_cost":
     "0x0.0p+0", "n_recoveries": 0, "policy": "none"}),
    ("heft_budg+none@5", "0x1.5654757d54e2ep-2", "0x1.26bf79f08bc3ep+11",
     "0x1.1dd01907d1f1cp+10", "0x1.84c638d599ef1p-4", "0x0.0p+0", 3,
     "failed", 3, {"crash_rate": "0x1.4000000000000p+2", "lost_cost":
     "0x0.0p+0", "n_recoveries": 0, "policy": "none"}),
    ("heft_budg+remap@0", "0x1.5654757d54e2ep-2", "0x1.26bf79f08bc3ep+11",
     "0x1.a6401c2055743p+10", "0x1.39872c4bc30ffp-3",
     "0x1.0000000000000p+0", 4, "success", 0, {"crash_rate": "0x0.0p+0",
     "lost_cost": "0x0.0p+0", "n_recoveries": 0, "policy": "remap"}),
    ("heft_budg+remap@0", "0x1.5654757d54e2ep-2", "0x1.26bf79f08bc3ep+11",
     "0x1.1c0a026c88043p+11", "0x1.7f74605a0e7cdp-3",
     "0x1.0000000000000p+0", 4, "success", 0, {"crash_rate": "0x0.0p+0",
     "lost_cost": "0x0.0p+0", "n_recoveries": 0, "policy": "remap"}),
    ("heft_budg+remap@5", "0x1.5654757d54e2ep-2", "0x1.26bf79f08bc3ep+11",
     "0x1.ef212ff4f6c97p+10", "0x1.5c9fffb08d966p-3",
     "0x1.0000000000000p+0", 4, "success", 4, {"crash_rate":
     "0x1.4000000000000p+2", "lost_cost": "0x1.47ae147ae147bp-8",
     "n_recoveries": 3, "policy": "remap"}),
    ("heft_budg+remap@5", "0x1.5654757d54e2ep-2", "0x1.26bf79f08bc3ep+11",
     "0x1.48629b52a464bp+10", "0x1.1b09d4e4f7925p-3",
     "0x1.0000000000000p+0", 4, "success", 3, {"crash_rate":
     "0x1.4000000000000p+2", "lost_cost": "0x1.f1e43cfc21adap-7",
     "n_recoveries": 1, "policy": "remap"}),
]
SPOT_POINTS = [
    ("montage", 15, "heft_budg", "none", "0x0.0p+0",
     "0x1.b023f563fc9a7p-4", 2, 0, 0, "0x1.038ae75fe604fp+8",
     "0x1.62ed48901b3a6p-8", "0x1.0000000000000p+0", 0,
     "0x1.0000000000000p+1", "0x0.0p+0", True),
    ("montage", 15, "heft_budg", "none", "0x0.0p+0",
     "0x1.b023f563fc9a7p-4", 2, 0, 0, "0x1.8fb309be50ff9p+9",
     "0x1.b402df714014cp-8", "0x1.0000000000000p+0", 0,
     "0x1.0000000000000p+1", "0x1.999999999999ap-3", True),
    ("montage", 15, "heft_budg", "retry", "0x0.0p+0",
     "0x1.b023f563fc9a7p-4", 2, 1, 1, "0x1.ae62a071f3999p+11",
     "0x1.33914ab56353dp-5", "0x1.0000000000000p+0", 0,
     "0x1.0000000000000p+1", "0x0.0p+0", True),
    ("montage", 15, "heft_budg", "retry", "0x0.0p+0",
     "0x1.b023f563fc9a7p-4", 2, 1, 1, "0x1.984bfb72dd5f9p+11",
     "0x1.2bac6999d333cp-5", "0x1.0000000000000p+0", 0,
     "0x1.0000000000000p+1", "0x1.999999999999ap-3", True),
]
SPOT_ROWS = [
    ("heft_budg+none@spot2r0", "0x1.b023f563fc9a7p-4",
     "0x1.2e7ce8afce67bp+13", "0x1.78beeebde52bap+8",
     "0x1.6debe3b00869ep-8", "0x0.0p+0", 1, "failed", 1, {"lost_cost":
     "0x0.0p+0", "n_preemptions": 1, "n_recoveries": 0, "policy": "none",
     "preemption_rate": "0x1.0000000000000p+1", "reserve": "0x0.0p+0"}),
    ("heft_budg+none@spot2r0", "0x1.b023f563fc9a7p-4",
     "0x1.2e7ce8afce67bp+13", "0x1.1cadc003cdbc7p+7",
     "0x1.57eead702e0adp-8", "0x0.0p+0", 1, "failed", 1, {"lost_cost":
     "0x0.0p+0", "n_preemptions": 1, "n_recoveries": 0, "policy": "none",
     "preemption_rate": "0x1.0000000000000p+1", "reserve": "0x0.0p+0"}),
    ("heft_budg+none@spot2r0.2", "0x1.b023f563fc9a7p-4",
     "0x1.2e7ce8afce67bp+13", "0x1.f90bd14dac04bp+5",
     "0x1.57e9bc6734300p-8", "0x0.0p+0", 1, "failed", 1, {"lost_cost":
     "0x0.0p+0", "n_preemptions": 1, "n_recoveries": 0, "policy": "none",
     "preemption_rate": "0x1.0000000000000p+1", "reserve":
     "0x1.999999999999ap-3"}),
    ("heft_budg+none@spot2r0.2", "0x1.b023f563fc9a7p-4",
     "0x1.2e7ce8afce67bp+13", "0x1.7feaab33e39f7p+10",
     "0x1.080e013da5fccp-7", "0x0.0p+0", 1, "failed", 1, {"lost_cost":
     "0x0.0p+0", "n_preemptions": 1, "n_recoveries": 0, "policy": "none",
     "preemption_rate": "0x1.0000000000000p+1", "reserve":
     "0x1.999999999999ap-3"}),
    ("heft_budg+retry@spot2r0", "0x1.b023f563fc9a7p-4",
     "0x1.2e7ce8afce67bp+13", "0x1.fc7d7ed570316p+9",
     "0x1.c77b5308f3439p-8", "0x0.0p+0", 1, "budget_exhausted", 1,
     {"lost_cost": "0x0.0p+0", "n_preemptions": 1, "n_recoveries": 0,
     "policy": "retry", "preemption_rate": "0x1.0000000000000p+1",
     "reserve": "0x0.0p+0"}),
    ("heft_budg+retry@spot2r0", "0x1.b023f563fc9a7p-4",
     "0x1.2e7ce8afce67bp+13", "0x1.6ed2f09745936p+12",
     "0x1.17199584d41f9p-4", "0x1.0000000000000p+0", 2, "success", 1,
     {"lost_cost": "0x0.0p+0", "n_preemptions": 1, "n_recoveries": 1,
     "policy": "retry", "preemption_rate": "0x1.0000000000000p+1",
     "reserve": "0x0.0p+0"}),
    ("heft_budg+retry@spot2r0.2", "0x1.b023f563fc9a7p-4",
     "0x1.2e7ce8afce67bp+13", "0x1.3ceed01b7c0ddp+9",
     "0x1.91e2b0692a41ep-8", "0x0.0p+0", 1, "budget_exhausted", 1,
     {"lost_cost": "0x0.0p+0", "n_preemptions": 1, "n_recoveries": 0,
     "policy": "retry", "preemption_rate": "0x1.0000000000000p+1",
     "reserve": "0x1.999999999999ap-3"}),
    ("heft_budg+retry@spot2r0.2", "0x1.b023f563fc9a7p-4",
     "0x1.2e7ce8afce67bp+13", "0x1.70ae216f6ddddp+12",
     "0x1.128e3e93408fap-4", "0x1.0000000000000p+0", 2, "success", 1,
     {"lost_cost": "0x0.0p+0", "n_preemptions": 1, "n_recoveries": 1,
     "policy": "retry", "preemption_rate": "0x1.0000000000000p+1",
     "reserve": "0x1.999999999999ap-3"}),
]


def canon(value):
    """Floats as ``float.hex``, containers recursively, dict keys sorted."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: canon(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return tuple(canon(item) for item in value)
    return value


def crash_sweep(workers):
    return resilience_sweep(
        families=("montage",), n_tasks=15, algorithms=("heft_budg",),
        policies=("none", "remap"), crash_rates=(0.0, 5.0), n_runs=2,
        seed=3, workers=workers,
    )


def spot_sweep(workers):
    return spot_resilience_sweep(
        families=("montage",), n_tasks=15, algorithms=("heft_budg",),
        policies=("none", "retry"), preemption_rates=(2.0,),
        reserves=(0.0, 0.2), n_runs=2, seed=3,
        checkpoint=CheckpointConfig(interval_s=300.0, overhead_s=20.0),
        workers=workers,
    )


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("run, points, rows", [
    (crash_sweep, CRASH_POINTS, CRASH_ROWS),
    (spot_sweep, SPOT_POINTS, SPOT_ROWS),
], ids=["crash", "spot"])
def test_sweep_matches_pins(run, points, rows, workers):
    with RunLedger(":memory:") as ledger:
        with use_ledger(ledger):
            study = run(workers)
        archived = sorted(
            ledger.runs(source="faults", limit=0), key=lambda r: r.run_id
        )
    assert [canon(astuple(p)) for p in study.points] == points
    assert len(archived) == len(rows)
    for row, pinned in zip(archived, rows):
        data = row.to_dict()
        pinned_row = {**ROW_COMMON, **dict(zip(ROW_FIELDS, pinned))}
        assert {
            key: canon(value) for key, value in data.items()
            if key not in WALL_CLOCK_FIELDS
        } == pinned_row
