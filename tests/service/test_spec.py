"""Request/response model: validation, round trips, fingerprints."""

import pytest

from repro import PAPER_PLATFORM, ServiceError, generate, write_dax
from repro.service.spec import (
    BudgetSpec,
    EvaluationSpec,
    PlatformSpec,
    ScheduleRequest,
    ScheduleResponse,
    WorkflowSpec,
    parse_requests,
)


def make_request(**overrides):
    base = {
        "workflow": {"family": "montage", "n_tasks": 20, "rng": 1,
                     "sigma_ratio": 0.5},
        "algorithm": "heft_budg",
        "budget": {"amount": 2.0},
    }
    base.update(overrides)
    return ScheduleRequest.from_dict(base)


class TestWorkflowSpec:
    def test_generator_mode_resolves(self):
        spec = WorkflowSpec(family="ligo", n_tasks=20, rng=3, sigma_ratio=0.25)
        wf = spec.resolve()
        assert wf.n_tasks == 20

    def test_dax_mode_resolves(self):
        source = generate("montage", 15, rng=1, sigma_ratio=0.5)
        spec = WorkflowSpec(dax=write_dax(source), sigma_ratio=0.5)
        wf = spec.resolve()
        assert wf.n_tasks == 15

    def test_needs_exactly_one_source(self):
        with pytest.raises(ServiceError, match="exactly one"):
            WorkflowSpec()
        with pytest.raises(ServiceError, match="exactly one"):
            WorkflowSpec(family="montage", n_tasks=5, dax="<adag/>")

    def test_rejects_unknown_family(self):
        with pytest.raises(ServiceError, match="unknown workflow family"):
            WorkflowSpec(family="nope", n_tasks=5)

    def test_rejects_bad_n_tasks(self):
        with pytest.raises(ServiceError, match="n_tasks"):
            WorkflowSpec(family="montage", n_tasks=0)

    def test_rejects_negative_rng(self):
        with pytest.raises(ServiceError, match="rng"):
            WorkflowSpec(family="montage", n_tasks=20, rng=-1)
        assert WorkflowSpec(family="montage", n_tasks=20, rng=0).rng == 0

    def test_bad_dax_reported_as_service_error(self):
        spec = WorkflowSpec(dax="this is not XML")
        with pytest.raises(ServiceError, match="failed to resolve"):
            spec.resolve()

    def test_dict_roundtrip(self):
        spec = WorkflowSpec(family="montage", n_tasks=20, rng=7, sigma_ratio=0.5)
        assert WorkflowSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_fields(self):
        with pytest.raises(ServiceError, match="unknown workflow spec fields"):
            WorkflowSpec.from_dict({"family": "montage", "n_tasks": 5, "bogus": 1})


class TestPlatformSpec:
    def test_paper_default(self):
        assert PlatformSpec().resolve() is PAPER_PLATFORM

    def test_linear_params_forwarded(self):
        spec = PlatformSpec(kind="linear", params={"n_categories": 4})
        assert spec.resolve().n_categories == 4

    def test_inline_roundtrip(self):
        spec = PlatformSpec.inline(PAPER_PLATFORM)
        back = spec.resolve()
        assert back.categories == PAPER_PLATFORM.categories

    def test_rejects_unknown_kind(self):
        with pytest.raises(ServiceError, match="platform kind"):
            PlatformSpec(kind="galactic")

    def test_rejects_unknown_linear_params(self):
        with pytest.raises(ServiceError, match="unknown linear platform params"):
            PlatformSpec(kind="linear", params={"warp_factor": 9})

    def test_paper_takes_no_params(self):
        with pytest.raises(ServiceError, match="no params"):
            PlatformSpec(kind="paper", params={"x": 1})


class TestBudgetSpec:
    def test_amount_mode(self):
        wf = generate("montage", 15, rng=1)
        assert BudgetSpec(amount=3.5).resolve(wf, PAPER_PLATFORM) == 3.5

    def test_position_mode_spans_axis(self):
        wf = generate("montage", 20, rng=1, sigma_ratio=0.5).freeze()
        lo = BudgetSpec(position=0.0).resolve(wf, PAPER_PLATFORM)
        mid = BudgetSpec(position=0.5).resolve(wf, PAPER_PLATFORM)
        hi = BudgetSpec(position=1.0).resolve(wf, PAPER_PLATFORM)
        assert lo < mid < hi

    def test_needs_exactly_one_mode(self):
        with pytest.raises(ServiceError, match="exactly one"):
            BudgetSpec()
        with pytest.raises(ServiceError, match="exactly one"):
            BudgetSpec(amount=1.0, position=0.5)

    def test_validation(self):
        with pytest.raises(ServiceError, match="amount"):
            BudgetSpec(amount=-1.0)
        with pytest.raises(ServiceError, match="position"):
            BudgetSpec(position=1.5)

    def test_from_bare_number(self):
        assert BudgetSpec.from_dict(4.0) == BudgetSpec(amount=4.0)


class TestEvaluationSpec:
    def test_defaults(self):
        spec = EvaluationSpec()
        assert spec.n_reps == 0 and spec.dc_capacity is None

    def test_validation(self):
        with pytest.raises(ServiceError, match="n_reps"):
            EvaluationSpec(n_reps=-1)
        with pytest.raises(ServiceError, match="dc_capacity"):
            EvaluationSpec(dc_capacity=0.0)
        with pytest.raises(ServiceError, match="seed"):
            EvaluationSpec(seed=-3)
        with pytest.raises(ServiceError, match="seed"):
            EvaluationSpec(n_reps=2, seed=-1)
        assert EvaluationSpec(n_reps=2, seed=0).seed == 0

    def test_dict_roundtrip(self):
        spec = EvaluationSpec(n_reps=5, seed=9, dc_capacity=1e9)
        assert EvaluationSpec.from_dict(spec.to_dict()) == spec


class TestScheduleRequest:
    def test_roundtrip(self):
        req = make_request()
        assert ScheduleRequest.from_dict(req.to_dict()) == req

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ServiceError, match="unknown algorithm"):
            make_request(algorithm="quantum_annealing")

    def test_missing_fields_named(self):
        with pytest.raises(ServiceError, match="missing 'workflow'"):
            ScheduleRequest.from_dict({"algorithm": "heft", "budget": 1.0})
        with pytest.raises(ServiceError, match="missing 'budget'"):
            ScheduleRequest.from_dict(
                {"algorithm": "heft",
                 "workflow": {"family": "montage", "n_tasks": 5}}
            )

    def test_rejects_non_object(self):
        with pytest.raises(ServiceError, match="JSON object"):
            ScheduleRequest.from_dict([1, 2, 3])

    def test_fingerprint_identity(self):
        assert make_request().fingerprint() == make_request().fingerprint()

    def test_fingerprint_sensitivity(self):
        base = make_request()
        other = make_request(budget={"amount": 3.0})
        assert base.fingerprint() != other.fingerprint()

    def test_algorithm_case_insensitive(self):
        req = make_request(algorithm="HEFT_BUDG")
        assert req.to_dict()["algorithm"] == "heft_budg"


class TestParseRequests:
    def test_single_and_batch(self):
        payload = make_request().to_dict()
        assert len(parse_requests(payload)) == 1
        assert len(parse_requests([payload, payload])) == 2

    def test_empty_batch_rejected(self):
        with pytest.raises(ServiceError, match="empty"):
            parse_requests([])


class TestScheduleResponse:
    def test_roundtrip(self):
        resp = ScheduleResponse(
            request_fingerprint="f" * 64, algorithm="heft_budg", budget=2.0,
            planned_makespan=10.0, planned_cost=1.5, within_budget_plan=True,
            n_vms=3, n_tasks=20, workflow_name="wf", schedule={"format": "x"},
        )
        assert ScheduleResponse.from_dict(resp.to_dict()) == resp
