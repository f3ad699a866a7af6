"""Algorithm 5's plans, pinned before the max-plus replay scored them.

HEFTBUDG+, HEFTBUDG+INV and CG+ on montage, LIGO and CyberShake at 30
tasks (two instance seeds), at the low, medium and high budgets (the
minimal budget, the midpoint, the high budget). Each entry was recorded
while every candidate still went through the event executor:

* the first 32 hex digits of the sha256 of the plan's ``plan_bits``
  (order, assignment, categories and the ``float.hex`` of the simulated
  makespan, rental and leftover);
* the ``schedule.refine`` span's ``n_evaluations`` (None for CG+), so the
  candidate count cannot move;
* the number of ``refine_move`` records and the first 32 hex digits of the
  sha256 of their sorted JSON lines (None without moves).
"""

import hashlib
import json

import pytest

from repro.experiments.budgets import high_budget, minimal_budget
from repro.obs.tracing import Tracer, use_tracer
from repro.platform.cloud import PAPER_PLATFORM
from repro.scheduling.registry import make_scheduler
from repro.workflow.generators import generate

from .test_incremental_planning import plan_bits

POSITIONS = {"low": 0.0, "medium": 0.5, "high": 1.0}

#: (algorithm, family, instance seed, budget) ->
#: (plan digest, n_evaluations, refine moves, refine-move digest)
PINS = {
    ('heft_budg_plus', 'montage', 7, 'low'):
        ('e16d62739381c90de1fb00603195c0fc', 90, 0, None),
    ('heft_budg_plus_inv', 'montage', 7, 'low'):
        ('e16d62739381c90de1fb00603195c0fc', 90, 0, None),
    ('cg_plus', 'montage', 7, 'low'):
        ('c2fb2538d0dd94ef220cbb81df89c655', None, 0, None),
    ('heft_budg_plus', 'montage', 7, 'medium'):
        ('aa379835e928feb58a81921556fbe4d3', 300, 2, 'e9542fc6d5dd97361d6538520af9d120'),
    ('heft_budg_plus_inv', 'montage', 7, 'medium'):
        ('11d5afe27afda53ea9a96dcea89f2330', 300, 1, '58fcd8ed38bf2378f7de12e4f42c0bad'),
    ('cg_plus', 'montage', 7, 'medium'):
        ('ee2f5d5682c64febb744d079c6f2185f', None, 0, None),
    ('heft_budg_plus', 'montage', 7, 'high'):
        ('a387200da1e5a875a788c5a664f5a836', 300, 0, None),
    ('heft_budg_plus_inv', 'montage', 7, 'high'):
        ('a387200da1e5a875a788c5a664f5a836', 300, 0, None),
    ('cg_plus', 'montage', 7, 'high'):
        ('a387200da1e5a875a788c5a664f5a836', None, 0, None),
    ('heft_budg_plus', 'ligo', 7, 'low'):
        ('4539d99bf1d05091853808b471a79786', 114, 8, '7fd85a8ef69d65c6aab9d52ab4968f53'),
    ('heft_budg_plus_inv', 'ligo', 7, 'low'):
        ('5e116761bf780dd700d6711ad663c184', 95, 2, '49c2ce4893148ac277053d4cc9fd6b7c'),
    ('cg_plus', 'ligo', 7, 'low'):
        ('3950d585fca984f1820583ca025a144c', None, 0, None),
    ('heft_budg_plus', 'ligo', 7, 'medium'):
        ('533185e77620aab1d88a247f1c34352f', 420, 0, None),
    ('heft_budg_plus_inv', 'ligo', 7, 'medium'):
        ('533185e77620aab1d88a247f1c34352f', 420, 0, None),
    ('cg_plus', 'ligo', 7, 'medium'):
        ('533185e77620aab1d88a247f1c34352f', None, 0, None),
    ('heft_budg_plus', 'ligo', 7, 'high'):
        ('aa803289c6b06e36adb2bb8b6b3680e5', 420, 0, None),
    ('heft_budg_plus_inv', 'ligo', 7, 'high'):
        ('aa803289c6b06e36adb2bb8b6b3680e5', 420, 0, None),
    ('cg_plus', 'ligo', 7, 'high'):
        ('aa803289c6b06e36adb2bb8b6b3680e5', None, 0, None),
    ('heft_budg_plus', 'cybershake', 7, 'low'):
        ('c760d94c406a8b5658bc295e9b8c0661', 90, 0, None),
    ('heft_budg_plus_inv', 'cybershake', 7, 'low'):
        ('c760d94c406a8b5658bc295e9b8c0661', 90, 0, None),
    ('cg_plus', 'cybershake', 7, 'low'):
        ('86fbc7516e67e1f697a05cfdc8383952', None, 0, None),
    ('heft_budg_plus', 'cybershake', 7, 'medium'):
        ('65e832761cd93e3678d8d7764da4db67', 480, 0, None),
    ('heft_budg_plus_inv', 'cybershake', 7, 'medium'):
        ('65e832761cd93e3678d8d7764da4db67', 480, 0, None),
    ('cg_plus', 'cybershake', 7, 'medium'):
        ('65e832761cd93e3678d8d7764da4db67', None, 0, None),
    ('heft_budg_plus', 'cybershake', 7, 'high'):
        ('b9d02fa6c85e6c19e926efe9f32dd19c', 480, 0, None),
    ('heft_budg_plus_inv', 'cybershake', 7, 'high'):
        ('b9d02fa6c85e6c19e926efe9f32dd19c', 480, 0, None),
    ('cg_plus', 'cybershake', 7, 'high'):
        ('b9d02fa6c85e6c19e926efe9f32dd19c', None, 0, None),
    ('heft_budg_plus', 'montage', 2018, 'low'):
        ('e2e1e642fa9a063c91f554688ad56e3d', 90, 0, None),
    ('heft_budg_plus_inv', 'montage', 2018, 'low'):
        ('e2e1e642fa9a063c91f554688ad56e3d', 90, 0, None),
    ('cg_plus', 'montage', 2018, 'low'):
        ('7e5c39f0c1f2d34628a75853dbf6e449', None, 0, None),
    ('heft_budg_plus', 'montage', 2018, 'medium'):
        ('e18410926bfb48443f7eaba6462248be', 300, 0, None),
    ('heft_budg_plus_inv', 'montage', 2018, 'medium'):
        ('e18410926bfb48443f7eaba6462248be', 300, 0, None),
    ('cg_plus', 'montage', 2018, 'medium'):
        ('dedd96cbb40692967aa783081284d23f', None, 0, None),
    ('heft_budg_plus', 'montage', 2018, 'high'):
        ('641d000c4eb0ccb506502e4ee1c66e89', 300, 0, None),
    ('heft_budg_plus_inv', 'montage', 2018, 'high'):
        ('641d000c4eb0ccb506502e4ee1c66e89', 300, 0, None),
    ('cg_plus', 'montage', 2018, 'high'):
        ('641d000c4eb0ccb506502e4ee1c66e89', None, 0, None),
    ('heft_budg_plus', 'ligo', 2018, 'low'):
        ('11c9b6fe0f1fd99482784215ad8f6e19', 133, 12, 'b162b3700673c9aea050fee2ba232351'),
    ('heft_budg_plus_inv', 'ligo', 2018, 'low'):
        ('17e5ea60bef1440814423200b78c86bb', 95, 2, 'e20b403a0a6701a9e8b1575c5a480468'),
    ('cg_plus', 'ligo', 2018, 'low'):
        ('17fc04961e29d77356759d3d32141cba', None, 0, None),
    ('heft_budg_plus', 'ligo', 2018, 'medium'):
        ('6c5756095fec9b24adef8a63a5374896', 420, 0, None),
    ('heft_budg_plus_inv', 'ligo', 2018, 'medium'):
        ('6c5756095fec9b24adef8a63a5374896', 420, 0, None),
    ('cg_plus', 'ligo', 2018, 'medium'):
        ('6c5756095fec9b24adef8a63a5374896', None, 0, None),
    ('heft_budg_plus', 'ligo', 2018, 'high'):
        ('3e652a39a895e3a063ed95c7c87175b9', 420, 0, None),
    ('heft_budg_plus_inv', 'ligo', 2018, 'high'):
        ('3e652a39a895e3a063ed95c7c87175b9', 420, 0, None),
    ('cg_plus', 'ligo', 2018, 'high'):
        ('3e652a39a895e3a063ed95c7c87175b9', None, 0, None),
    ('heft_budg_plus', 'cybershake', 2018, 'low'):
        ('4186b6fbaa27fc251d44e7e117ad7692', 90, 0, None),
    ('heft_budg_plus_inv', 'cybershake', 2018, 'low'):
        ('4186b6fbaa27fc251d44e7e117ad7692', 90, 0, None),
    ('cg_plus', 'cybershake', 2018, 'low'):
        ('f28a870953496880ceaa67e0c0b4362f', None, 0, None),
    ('heft_budg_plus', 'cybershake', 2018, 'medium'):
        ('0197c87a29294e148f2d84739addb16a', 480, 0, None),
    ('heft_budg_plus_inv', 'cybershake', 2018, 'medium'):
        ('0197c87a29294e148f2d84739addb16a', 480, 0, None),
    ('cg_plus', 'cybershake', 2018, 'medium'):
        ('0197c87a29294e148f2d84739addb16a', None, 0, None),
    ('heft_budg_plus', 'cybershake', 2018, 'high'):
        ('1636104b4b19841e7b956d46f9a58b13', 480, 0, None),
    ('heft_budg_plus_inv', 'cybershake', 2018, 'high'):
        ('1636104b4b19841e7b956d46f9a58b13', 480, 0, None),
    ('cg_plus', 'cybershake', 2018, 'high'):
        ('1636104b4b19841e7b956d46f9a58b13', None, 0, None),
}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:32]


@pytest.mark.parametrize("key", sorted(PINS), ids=lambda key: "-".join(map(str, key)))
def test_refined_plan_is_pinned(key):
    algorithm, family, seed, label = key
    wf = generate(family, 30, rng=seed, sigma_ratio=0.5).freeze()
    low = minimal_budget(wf, PAPER_PLATFORM)
    high = high_budget(wf, PAPER_PLATFORM)
    tracer = Tracer()
    with use_tracer(tracer):
        result = make_scheduler(algorithm).schedule(
            wf, PAPER_PLATFORM, low + POSITIONS[label] * (high - low))
    spans = [s for s in tracer.spans if s.name == "schedule.refine"]
    moves = sorted(
        json.dumps(record.to_dict(), sort_keys=True)
        for record in tracer.decisions
        if record.kind == "refine_move"
    )
    assert (
        digest(json.dumps(plan_bits(result), sort_keys=True)),
        spans[0].attributes["n_evaluations"] if spans else None,
        len(moves),
        digest("\n".join(moves)) if moves else None,
    ) == PINS[key]
