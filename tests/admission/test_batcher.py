"""Spec-family batching: bit-identical responses, shared replications."""

from dataclasses import replace

import pytest

from repro.admission import FamilyBatcher
from repro.service import SchedulingService
from repro.service.engine import compute_response
from repro.service.spec import EvaluationSpec, ScheduleRequest


def request(seed=100, n_reps=4, amount=2.0):
    return ScheduleRequest.from_dict({
        "workflow": {"family": "montage", "n_tasks": 15, "rng": 1,
                     "sigma_ratio": 0.5},
        "algorithm": "heft_budg",
        "budget": {"amount": amount},
        "evaluation": {"n_reps": n_reps, "seed": seed},
    })


def normalized(response):
    """Response dict with the wall-clock telemetry fields removed."""
    out = replace(response, elapsed_s=0.0, stages=None).to_dict()
    return out


class TestBitIdentity:
    @pytest.mark.parametrize("req", [
        request(seed=100),
        request(seed=102, n_reps=6),
        replace(request(seed=100), evaluation=EvaluationSpec(
            n_reps=4, seed=100, dc_capacity=2e7)),
        request(seed=100, n_reps=0),
        replace(request(seed=100), algorithm="heft_budg_plus"),
        replace(request(seed=100, amount=0.01), algorithm="minmin_budg"),
    ], ids=["seed100", "seed102x6", "dc2e7", "no_reps", "heft_budg_plus",
            "minmin_infeasible"])
    def test_batched_equals_unbatched(self, req):
        # compute_response is the unbatched oracle: plan, replicate and
        # assemble in one call, as the pool executors run it.
        with SchedulingService(max_workers=1, cache_size=0) as batched:
            assert normalized(batched.schedule(req)) == \
                normalized(compute_response(req))

    def test_overlapping_seed_ranges_share_reps(self):
        with SchedulingService(max_workers=1, cache_size=0) as svc:
            a = svc.schedule(request(seed=100, n_reps=6))
            b = svc.schedule(request(seed=103, n_reps=6))  # overlaps 103..105
            stats = svc.stats()["batching"]
            assert stats["requests"] == 2
            assert stats["batched"] == 1  # second request reused the base
            assert stats["reps_shared"] == 3
            # The shared replications are literally the same numbers.
            by_seed = {rep["seed"]: rep for rep in a.evaluation["reps"]}
            for rep in b.evaluation["reps"]:
                if rep["seed"] in by_seed:
                    assert rep == by_seed[rep["seed"]]

    def test_mutating_a_response_does_not_corrupt_the_cache(self):
        with SchedulingService(max_workers=1, cache_size=0) as svc:
            first = svc.schedule(request(seed=100))
            first.evaluation["reps"][0]["makespan"] = -1.0
            again = svc.schedule(request(seed=100))
            assert again.evaluation["reps"][0]["makespan"] != -1.0

    def test_tenant_and_priority_do_not_split_families(self):
        base = request(seed=100)
        other = replace(base, tenant="team-a", priority="interactive")
        assert base.family_key() == other.family_key()
        assert base.fingerprint() == other.fingerprint()


class TestBatcherUnit:
    def test_base_computed_once_per_family(self):
        calls = {"base": 0, "rep": 0}

        def compute_base(req):
            calls["base"] += 1
            return f"base:{req.family_key()}"

        def compute_rep(base, seed):
            calls["rep"] += 1
            return {"seed": seed}

        def assemble(base, reps, req):
            return {"base": base, "reps": list(reps)}

        def serve(req):
            base, reps = batcher.compute(req, compute_base, compute_rep)
            return assemble(base, reps, req)

        batcher = FamilyBatcher()
        first = serve(request(seed=0, n_reps=3))
        second = serve(request(seed=1, n_reps=3))
        assert calls["base"] == 1
        assert calls["rep"] == 4  # seeds 0,1,2 then only 3 is new
        assert [r["seed"] for r in second["reps"]] == [1, 2, 3]
        assert batcher.served_batched(request(seed=9))
        stats = batcher.stats()
        assert stats["requests"] == 2
        assert stats["reps_shared"] == 2
        assert first["base"] == second["base"]

    def test_clear_forgets_families(self):
        batcher = FamilyBatcher()
        batcher.compute(
            request(seed=0, n_reps=1),
            lambda req: "b", lambda base, seed: {"seed": seed},
        )
        assert batcher.served_batched(request(seed=5))
        batcher.clear()
        assert not batcher.served_batched(request(seed=5))

    def test_distinct_families_get_distinct_bases(self):
        seen = []

        def compute_base(req):
            seen.append(req.family_key())
            return req.family_key()

        def rep(base, seed):
            return {"seed": seed}

        batcher = FamilyBatcher()
        batcher.compute(request(amount=2.0, n_reps=1), compute_base, rep)
        batcher.compute(request(amount=3.0, n_reps=1), compute_base, rep)
        assert len(seen) == 2 and seen[0] != seen[1]
