"""Declarative request/response model of the scheduling service.

A :class:`ScheduleRequest` is a plain-data description of one scheduling
job: *which workflow* (a generator spec or an inline DAX document), *which
platform* (the paper's, a parametric linear catalogue, or an inline
:func:`repro.io.platform_to_dict` payload), *which algorithm*, *which
budget* (absolute dollars or a position on the workflow's own
``[B_min, B_high]`` axis), and optionally *how many stochastic replays* to
run against the resulting schedule.

Requests are JSON-round-trippable (``to_dict``/``from_dict``) so they can
travel over the HTTP gateway, be archived next to results, and be hashed
into content-addressed cache keys (:meth:`ScheduleRequest.fingerprint`).
All validation raises :class:`~repro.errors.ServiceError` with messages
that name the offending field — the gateway maps them to HTTP 400.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..errors import ReproError, ServiceError
from ..io import fingerprint as _fingerprint
from ..io import platform_from_dict, platform_to_dict
from ..platform.cloud import PAPER_PLATFORM, CloudPlatform, make_linear_platform
from ..scheduling.registry import available_schedulers
from ..workflow.dag import Workflow
from ..workflow.dax import parse_dax
from ..workflow.generators import FAMILIES, generate

__all__ = [
    "WorkflowSpec",
    "PlatformSpec",
    "BudgetSpec",
    "EvaluationSpec",
    "ScheduleRequest",
    "ScheduleResponse",
    "parse_requests",
    "PRIORITIES",
    "DEFAULT_TENANT",
    "DEFAULT_PRIORITY",
]

#: Admission priority classes, best-served first. ``interactive`` jumps the
#: queue, ``batch`` is the default, ``best_effort`` runs when nothing
#: better waits (starvation aging eventually promotes it; see
#: :mod:`repro.admission.queue`).
PRIORITIES = ("interactive", "batch", "best_effort")

#: Requests that name no tenant are accounted to this one.
DEFAULT_TENANT = "default"

#: Requests that name no priority class land here.
DEFAULT_PRIORITY = "batch"

#: Keyword arguments accepted by :func:`make_linear_platform`, allowed in a
#: ``PlatformSpec(kind="linear")`` params mapping.
_LINEAR_PARAMS = frozenset(
    (
        "base_speed", "base_hourly_cost", "n_categories", "speed_factor",
        "cost_factor", "boot_time", "initial_cost", "bandwidth",
        "transfer_cost_per_gb", "storage_cost_per_gb_month", "cores", "name",
    )
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServiceError(message)


def _as_mapping(data: Any, what: str) -> Mapping[str, Any]:
    _require(isinstance(data, Mapping), f"{what} must be a JSON object, got {type(data).__name__}")
    return data


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkflowSpec:
    """Which workflow to schedule: a generator family or an inline DAX.

    Exactly one of ``family`` / ``dax`` must be set. Generator mode mirrors
    :func:`repro.workflow.generators.generate`; DAX mode feeds the document
    to :func:`repro.workflow.dax.parse_dax` (``sigma_ratio`` applies in both
    modes).
    """

    family: Optional[str] = None
    n_tasks: int = 0
    rng: Optional[int] = None
    sigma_ratio: float = 0.0
    dax: Optional[str] = None
    name: str = ""

    def __post_init__(self) -> None:
        _require(
            (self.family is None) != (self.dax is None),
            "workflow spec needs exactly one of 'family' or 'dax'",
        )
        if self.family is not None:
            _require(
                self.family.lower() in FAMILIES,
                f"unknown workflow family {self.family!r}; "
                f"available: {sorted(FAMILIES)}",
            )
            _require(
                self.n_tasks > 0,
                f"generator mode needs n_tasks > 0, got {self.n_tasks}",
            )
        _require(
            self.rng is None or self.rng >= 0,
            f"workflow rng must be >= 0, got {self.rng}",
        )
        _require(
            math.isfinite(self.sigma_ratio) and self.sigma_ratio >= 0.0,
            f"sigma_ratio must be finite and >= 0, got {self.sigma_ratio}",
        )

    def resolve(self) -> Workflow:
        """Materialize the workflow (frozen, ready for scheduling)."""
        try:
            if self.family is not None:
                wf = generate(
                    self.family, self.n_tasks, rng=self.rng,
                    sigma_ratio=self.sigma_ratio, name=self.name,
                )
            else:
                wf = parse_dax(
                    self.dax or "", sigma_ratio=self.sigma_ratio,
                    name=self.name,
                )
        except ServiceError:
            raise
        except ReproError as exc:
            raise ServiceError(f"workflow spec failed to resolve: {exc}") from exc
        return wf.freeze()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready encoding (inverse of :meth:`from_dict`)."""
        out: Dict[str, Any] = {"sigma_ratio": self.sigma_ratio}
        if self.family is not None:
            out.update(family=self.family, n_tasks=self.n_tasks)
            if self.rng is not None:
                out["rng"] = self.rng
        else:
            out["dax"] = self.dax
        if self.name:
            out["name"] = self.name
        return out

    @classmethod
    def from_dict(cls, data: Any) -> "WorkflowSpec":
        """Decode, rejecting unknown fields by name."""
        data = _as_mapping(data, "workflow spec")
        unknown = set(data) - {"family", "n_tasks", "rng", "sigma_ratio", "dax", "name"}
        _require(not unknown, f"unknown workflow spec fields: {sorted(unknown)}")
        return cls(
            family=data.get("family"),
            n_tasks=int(data.get("n_tasks", 0)),
            rng=data.get("rng"),
            sigma_ratio=float(data.get("sigma_ratio", 0.0)),
            dax=data.get("dax"),
            name=str(data.get("name", "")),
        )


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlatformSpec:
    """Which platform to schedule on.

    ``kind="paper"`` is Table II (the default); ``kind="linear"`` forwards
    ``params`` to :func:`make_linear_platform`; ``kind="inline"`` embeds a
    full :func:`repro.io.platform_to_dict` payload in ``params``.
    """

    kind: str = "paper"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(
            self.kind in ("paper", "linear", "inline"),
            f"platform kind must be 'paper', 'linear' or 'inline', "
            f"got {self.kind!r}",
        )
        if self.kind == "paper":
            _require(not self.params, "paper platform takes no params")
        elif self.kind == "linear":
            unknown = set(self.params) - _LINEAR_PARAMS
            _require(
                not unknown,
                f"unknown linear platform params: {sorted(unknown)}",
            )

    def resolve(self) -> CloudPlatform:
        """Materialize the platform object."""
        try:
            if self.kind == "paper":
                return PAPER_PLATFORM
            if self.kind == "linear":
                return make_linear_platform(**dict(self.params))
            return platform_from_dict(dict(self.params))
        except ServiceError:
            raise
        except (ReproError, TypeError, ValueError) as exc:
            raise ServiceError(f"platform spec failed to resolve: {exc}") from exc

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready encoding (inverse of :meth:`from_dict`)."""
        out: Dict[str, Any] = {"kind": self.kind}
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: Any) -> "PlatformSpec":
        """Decode, rejecting unknown fields by name."""
        data = _as_mapping(data, "platform spec")
        unknown = set(data) - {"kind", "params"}
        _require(not unknown, f"unknown platform spec fields: {sorted(unknown)}")
        return cls(
            kind=str(data.get("kind", "paper")),
            params=dict(data.get("params", {})),
        )

    @classmethod
    def inline(cls, platform: CloudPlatform) -> "PlatformSpec":
        """Spec embedding ``platform`` by value."""
        return cls(kind="inline", params=platform_to_dict(platform))


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BudgetSpec:
    """The budget, in dollars or as a position on the budget axis.

    ``amount`` is an absolute budget. ``position`` is a fraction in
    ``[0, 1]`` mapped onto the workflow's own ``[B_min, B_high]`` axis
    (0 = the minimal feasible budget, 1 = the baseline-saturating high
    budget of §V-A) — the paper's "medium budget" is ``position=0.5``.
    Exactly one must be set.
    """

    amount: Optional[float] = None
    position: Optional[float] = None

    def __post_init__(self) -> None:
        _require(
            (self.amount is None) != (self.position is None),
            "budget spec needs exactly one of 'amount' or 'position'",
        )
        if self.amount is not None:
            _require(
                math.isfinite(self.amount) and self.amount > 0.0,
                f"budget amount must be finite and > 0, got {self.amount}",
            )
        if self.position is not None:
            _require(
                0.0 <= self.position <= 1.0,
                f"budget position must be in [0, 1], got {self.position}",
            )

    def resolve(self, wf: Workflow, platform: CloudPlatform) -> float:
        """The budget in dollars (computes the axis in position mode)."""
        if self.amount is not None:
            return self.amount
        from ..experiments.budgets import high_budget, minimal_budget

        b_min = minimal_budget(wf, platform)
        b_high = high_budget(wf, platform)
        assert self.position is not None
        return b_min + self.position * (b_high - b_min)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready encoding (inverse of :meth:`from_dict`)."""
        if self.amount is not None:
            return {"amount": self.amount}
        return {"position": self.position}

    @classmethod
    def from_dict(cls, data: Any) -> "BudgetSpec":
        """Decode; a bare number is shorthand for ``{"amount": n}``."""
        if isinstance(data, (int, float)) and not isinstance(data, bool):
            return cls(amount=float(data))
        data = _as_mapping(data, "budget spec")
        unknown = set(data) - {"amount", "position"}
        _require(not unknown, f"unknown budget spec fields: {sorted(unknown)}")
        amount = data.get("amount")
        position = data.get("position")
        return cls(
            amount=None if amount is None else float(amount),
            position=None if position is None else float(position),
        )


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvaluationSpec:
    """Optional stochastic replay of the computed schedule.

    ``n_reps`` executions with actual weights sampled from seeds
    ``seed, seed+1, …`` — deterministic, so a cached response is exact.
    ``dc_capacity`` bounds the datacenter bandwidth (bytes/s; ``None`` keeps
    the paper's infinite-capacity assumption).
    """

    n_reps: int = 0
    seed: int = 0
    dc_capacity: Optional[float] = None

    def __post_init__(self) -> None:
        _require(self.n_reps >= 0, f"n_reps must be >= 0, got {self.n_reps}")
        _require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        if self.dc_capacity is not None:
            _require(
                self.dc_capacity > 0.0,
                f"dc_capacity must be > 0, got {self.dc_capacity}",
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready encoding (inverse of :meth:`from_dict`)."""
        out: Dict[str, Any] = {"n_reps": self.n_reps, "seed": self.seed}
        if self.dc_capacity is not None:
            out["dc_capacity"] = self.dc_capacity
        return out

    @classmethod
    def from_dict(cls, data: Any) -> "EvaluationSpec":
        """Decode, rejecting unknown fields by name."""
        data = _as_mapping(data, "evaluation spec")
        unknown = set(data) - {"n_reps", "seed", "dc_capacity"}
        _require(not unknown, f"unknown evaluation spec fields: {sorted(unknown)}")
        cap = data.get("dc_capacity")
        return cls(
            n_reps=int(data.get("n_reps", 0)),
            seed=int(data.get("seed", 0)),
            dc_capacity=None if cap is None else float(cap),
        )


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleRequest:
    """One complete scheduling job description.

    ``tenant`` and ``priority`` are *admission* attributes: they decide how
    the service treats the request (rate limits, cost budgets, queue
    order) but not what is computed — they are therefore excluded from
    :meth:`fingerprint`, so identical work from different tenants shares
    one cache entry.
    """

    workflow: WorkflowSpec
    algorithm: str
    budget: BudgetSpec
    platform: PlatformSpec = field(default_factory=PlatformSpec)
    evaluation: EvaluationSpec = field(default_factory=EvaluationSpec)
    tenant: str = DEFAULT_TENANT
    priority: str = DEFAULT_PRIORITY

    def __post_init__(self) -> None:
        names = available_schedulers()
        _require(
            self.algorithm.lower() in names,
            f"unknown algorithm {self.algorithm!r}; available: {names}",
        )
        _require(
            bool(self.tenant) and isinstance(self.tenant, str),
            f"tenant must be a non-empty string, got {self.tenant!r}",
        )
        _require(
            self.priority in PRIORITIES,
            f"unknown priority {self.priority!r}; one of {PRIORITIES}",
        )

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready encoding (roundtrips via :meth:`from_dict`).

        Admission attributes appear only when they differ from the
        defaults, so pre-admission request documents keep their historical
        shape.
        """
        out: Dict[str, Any] = {
            "workflow": self.workflow.to_dict(),
            "platform": self.platform.to_dict(),
            "algorithm": self.algorithm.lower(),
            "budget": self.budget.to_dict(),
            "evaluation": self.evaluation.to_dict(),
        }
        if self.tenant != DEFAULT_TENANT:
            out["tenant"] = self.tenant
        if self.priority != DEFAULT_PRIORITY:
            out["priority"] = self.priority
        return out

    @classmethod
    def from_dict(cls, data: Any) -> "ScheduleRequest":
        """Decode a full request, naming any missing/unknown field."""
        data = _as_mapping(data, "schedule request")
        unknown = set(data) - {
            "workflow", "platform", "algorithm", "budget", "evaluation",
            "tenant", "priority",
        }
        _require(not unknown, f"unknown request fields: {sorted(unknown)}")
        _require("workflow" in data, "request is missing 'workflow'")
        _require("algorithm" in data, "request is missing 'algorithm'")
        _require("budget" in data, "request is missing 'budget'")
        return cls(
            workflow=WorkflowSpec.from_dict(data["workflow"]),
            platform=PlatformSpec.from_dict(data.get("platform", {})),
            algorithm=str(data["algorithm"]),
            budget=BudgetSpec.from_dict(data["budget"]),
            evaluation=EvaluationSpec.from_dict(data.get("evaluation", {})),
            tenant=str(data.get("tenant", DEFAULT_TENANT)),
            priority=str(data.get("priority", DEFAULT_PRIORITY)),
        )

    def fingerprint(self) -> str:
        """Content-addressed identity of this request (cache key).

        Hashes the *work*, not the admission attributes: two tenants
        posting the same job produce the same fingerprint.
        """
        payload = self.to_dict()
        payload.pop("tenant", None)
        payload.pop("priority", None)
        return _fingerprint(payload)

    def family_key(self) -> str:
        """Identity of this request's *spec family* (batching key).

        Two requests belong to one family when they compute the same
        schedule and draw evaluation replications from the same
        deterministic per-seed stream — i.e. they differ at most in
        ``evaluation.n_reps``, ``evaluation.seed``, tenant and priority.
        ``dc_capacity`` changes replay results, so it stays in the key.
        """
        payload = self.to_dict()
        payload.pop("tenant", None)
        payload.pop("priority", None)
        evaluation = payload["evaluation"]
        payload["evaluation"] = {
            k: v for k, v in evaluation.items() if k == "dc_capacity"
        }
        return _fingerprint(payload)


# ----------------------------------------------------------------------
@dataclass
class ScheduleResponse:
    """What the service returns for one request.

    ``schedule`` is a :func:`repro.io.schedule_to_dict` payload (load it
    back with :func:`repro.io.schedule_from_dict`). ``evaluation`` is
    ``None`` unless the request asked for stochastic replays; it then holds
    the per-rep records and summary statistics produced by the engine.
    ``stages`` is this request's wall-clock stage decomposition
    (:meth:`repro.obs.stages.StageTimings.to_dict`) when the engine
    recorded one — per-request telemetry, like ``elapsed_s``, so it is
    excluded from any response-identity comparison and omitted from the
    encoding when absent.
    """

    request_fingerprint: str
    algorithm: str
    budget: float
    planned_makespan: float
    planned_cost: float
    within_budget_plan: bool
    n_vms: int
    n_tasks: int
    workflow_name: str
    schedule: Dict[str, Any]
    evaluation: Optional[Dict[str, Any]] = None
    cached: bool = False
    elapsed_s: float = 0.0
    stages: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready encoding (inverse of :meth:`from_dict`)."""
        out = {
            "request_fingerprint": self.request_fingerprint,
            "algorithm": self.algorithm,
            "budget": self.budget,
            "planned_makespan": self.planned_makespan,
            "planned_cost": self.planned_cost,
            "within_budget_plan": self.within_budget_plan,
            "n_vms": self.n_vms,
            "n_tasks": self.n_tasks,
            "workflow_name": self.workflow_name,
            "schedule": self.schedule,
            "evaluation": self.evaluation,
            "cached": self.cached,
            "elapsed_s": self.elapsed_s,
        }
        if self.stages is not None:
            out["stages"] = self.stages
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScheduleResponse":
        """Decode, rejecting unknown fields by name."""
        fields_ = {
            "request_fingerprint", "algorithm", "budget", "planned_makespan",
            "planned_cost", "within_budget_plan", "n_vms", "n_tasks",
            "workflow_name", "schedule", "evaluation", "cached", "elapsed_s",
            "stages",
        }
        unknown = set(data) - fields_
        _require(not unknown, f"unknown response fields: {sorted(unknown)}")
        return cls(**{k: data[k] for k in fields_ if k in data})


def parse_requests(payload: Any) -> List[ScheduleRequest]:
    """Parse one request or a batch (a JSON array) into a list."""
    if isinstance(payload, list):
        _require(bool(payload), "request batch is empty")
        return [ScheduleRequest.from_dict(item) for item in payload]
    return [ScheduleRequest.from_dict(payload)]
