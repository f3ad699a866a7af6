"""Open-loop replay of a planned workload against a service.

The :class:`LoadDriver` takes the sequence planned by
:func:`~repro.loadgen.arrivals.generate_sequence` and fires each request
at (or as close as possible to) its planned offset, **regardless of
completions** — the open-loop discipline that exposes queueing collapse
instead of politely backing off (a closed-loop driver self-throttles and
hides it; see the coordinated-omission literature). Requests run on a
dispatch thread pool whose size bounds concurrent in-flight calls but
never reorders or regenerates the sequence: the plan is fixed before the
first byte is sent, so two same-seed runs replay identical sequences at
any ``concurrency``.

Targets:

- an in-process :class:`~repro.service.engine.SchedulingService`
  (``LoadDriver(service)``) — calls ``service.schedule``; admission
  refusals surface as typed exceptions;
- a live gateway (``LoadDriver("http://127.0.0.1:8080")``) — POSTs
  ``/v1/schedule``; typed refusals surface as 402/429/503 bodies.

Each completed request contributes its end-to-end latency and per-stage
decomposition to mergeable :class:`~repro.obs.sketch.QuantileSketch`\\ es;
the run folds into a :class:`LoadRunResult` and can be archived as a
ledger ``load_run`` row (:meth:`LoadRunResult.to_row`) for the
``ledger regress`` throughput/tail gates and ``repro-exp load report``.

Before replaying, :meth:`LoadDriver.wait_ready` polls the target's
readiness — ``GET /v1/healthz`` for gateways (503 while draining),
:meth:`SchedulingService.health` in process — so a cold server's
accept-queue warmup never pollutes the measurement.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..errors import (
    AdmissionRejected,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from ..obs.ledger import LoadRunRow
from ..obs.sketch import (
    DEFAULT_ALPHA, QuantileSketch, _add_by_stage, _stage_percentiles,
)
from .arrivals import (
    ArrivalConfig,
    PlannedRequest,
    generate_sequence,
    sequence_fingerprint,
)

__all__ = ["LoadDriver", "LoadRunResult", "RequestRecord"]

#: Typed outcomes a replayed request can land in. ``ok`` computed fresh,
#: ``cached`` served from the response cache; the refusal categories
#: mirror the admission controller's reasons plus transport errors.
OUTCOMES = (
    "ok", "cached", "rate_limited", "budget_exhausted", "queue_full",
    "overloaded", "draining", "error",
)

#: Stage-sum completeness tolerance (same contract as the obs gate).
_STAGE_SUM_TOL = 1e-6


@dataclass
class RequestRecord:
    """What one replayed request came back as."""

    index: int
    planned_offset_s: float
    sent_offset_s: float
    latency_s: float
    outcome: str
    tenant: str
    priority: str
    cost: float = 0.0
    stages: Dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def send_lag_s(self) -> float:
        """How late the open-loop send fired vs its planned instant."""
        return self.sent_offset_s - self.planned_offset_s


@dataclass
class LoadRunResult:
    """One finished load run: counts, rates, sketches, cost.

    ``latency_mean_s`` / ``latency_std_s`` are exact sample statistics
    over completed (ok + cached) requests; the sketches answer
    percentile queries within their relative-error guarantee and merge
    across runs.
    """

    config: ArrivalConfig
    sequence_fp: str
    target: str
    executor: str = ""
    label: str = ""
    n_requests: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    duration_s: float = 0.0
    offered_rps: float = 0.0
    achieved_rps: float = 0.0
    latency_mean_s: float = 0.0
    latency_std_s: float = 0.0
    cost_total: float = 0.0
    max_send_lag_s: float = 0.0
    n_stage_violations: int = 0
    latency_sketch: QuantileSketch = field(
        default_factory=lambda: QuantileSketch(alpha=DEFAULT_ALPHA))
    stage_sketches: Dict[str, QuantileSketch] = field(default_factory=dict)
    records: List[RequestRecord] = field(default_factory=list)

    @property
    def n_completed(self) -> int:
        """Requests that produced a response (fresh or cached)."""
        return self.outcomes.get("ok", 0) + self.outcomes.get("cached", 0)

    @property
    def refusals(self) -> Dict[str, int]:
        """Typed refusal counts (everything that is not ok/cached)."""
        return {
            name: n for name, n in sorted(self.outcomes.items())
            if name not in ("ok", "cached") and n > 0
        }

    def percentiles(self) -> Dict[str, float]:
        """End-to-end latency p50/p95/p99 (empty when nothing completed)."""
        return self.latency_sketch.percentiles()

    def stage_percentiles(self) -> Dict[str, Dict[str, float]]:
        """``{stage: {count, p50, p95, p99}}`` over completed requests."""
        return _stage_percentiles(self.stage_sketches, self.latency_sketch)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (what ``load run --json`` prints)."""
        pcts = self.percentiles()
        return {
            "label": self.label,
            "target": self.target,
            "executor": self.executor,
            "config_fingerprint": self.config.fingerprint(),
            "sequence_fingerprint": self.sequence_fp,
            "process": self.config.process,
            "n_requests": self.n_requests,
            "outcomes": dict(sorted(self.outcomes.items())),
            "refusals": self.refusals,
            "duration_s": self.duration_s,
            "offered_rps": self.offered_rps,
            "achieved_rps": self.achieved_rps,
            "latency_mean_s": self.latency_mean_s,
            "latency_std_s": self.latency_std_s,
            "p50_s": pcts.get("p50", 0.0),
            "p95_s": pcts.get("p95", 0.0),
            "p99_s": pcts.get("p99", 0.0),
            "cost_total": self.cost_total,
            "max_send_lag_s": self.max_send_lag_s,
            "n_stage_violations": self.n_stage_violations,
            "stages": self.stage_percentiles(),
        }

    def to_row(self) -> LoadRunRow:
        """The ledger ``load_run`` row for this run."""
        pcts = self.percentiles()
        return LoadRunRow(
            label=self.label,
            config_fingerprint=self.config.fingerprint(),
            sequence_fingerprint=self.sequence_fp,
            process=self.config.process,
            target=self.target,
            executor=self.executor,
            n_requests=self.n_requests,
            n_ok=self.outcomes.get("ok", 0),
            n_cached=self.outcomes.get("cached", 0),
            n_rejected=sum(
                n for name, n in self.outcomes.items()
                if name not in ("ok", "cached", "error")
            ),
            n_errors=self.outcomes.get("error", 0),
            refusals=self.refusals,
            offered_rps=self.offered_rps,
            achieved_rps=self.achieved_rps,
            duration_s=self.duration_s,
            latency_mean_s=self.latency_mean_s,
            latency_std_s=self.latency_std_s,
            p50_s=pcts.get("p50", 0.0),
            p95_s=pcts.get("p95", 0.0),
            p99_s=pcts.get("p99", 0.0),
            cost_total=self.cost_total,
            stages=self.stage_percentiles(),
            sketches={
                "request": self.latency_sketch.to_dict(),
                **{name: sketch.to_dict()
                   for name, sketch in sorted(self.stage_sketches.items())},
            },
            extra={
                "config": self.config.to_dict(),
                "max_send_lag_s": self.max_send_lag_s,
                "n_stage_violations": self.n_stage_violations,
            },
        )


class LoadDriver:
    """Replay a planned workload open-loop against one target.

    Parameters
    ----------
    target:
        A :class:`~repro.service.engine.SchedulingService` instance or a
        gateway base URL string (``http://host:port``).
    concurrency:
        Dispatch threads — bounds in-flight requests, never the plan.
    pace:
        ``True`` honours the planned offsets in real time (a load
        test); ``False`` fires as fast as the dispatch pool drains (a
        throughput probe — ``achieved_rps`` then measures capacity).
    timeout_s:
        Per-request HTTP timeout (URL targets only).
    """

    def __init__(
        self,
        target: Any,
        *,
        concurrency: int = 8,
        pace: bool = True,
        timeout_s: float = 60.0,
    ) -> None:
        if concurrency < 1:
            raise ServiceError(
                f"concurrency must be >= 1, got {concurrency}")
        self._url: Optional[str] = None
        self._service: Optional[Any] = None
        if isinstance(target, str):
            self._url = target.rstrip("/")
        else:
            self._service = target
        self.concurrency = concurrency
        self.pace = pace
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    # readiness
    # ------------------------------------------------------------------
    def ready(self) -> Dict[str, Any]:
        """One readiness probe: the healthz payload plus ``"ready"``."""
        if self._service is not None:
            return self._service.health()
        try:
            with urllib.request.urlopen(
                f"{self._url}/v1/healthz", timeout=min(self.timeout_s, 5.0)
            ) as resp:
                payload = json.load(resp)
                payload["ready"] = resp.status == 200
                return payload
        except urllib.error.HTTPError as exc:  # 503 while draining
            try:
                payload = json.load(exc)
            except Exception:
                payload = {}
            payload["ready"] = False
            return payload
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            return {"ready": False, "error": str(exc)}

    def wait_ready(self, timeout_s: float = 30.0,
                   poll_s: float = 0.2) -> Dict[str, Any]:
        """Poll readiness until the target accepts work (warmup gate).

        Raises :class:`~repro.errors.ServiceError` when the deadline
        passes; returns the last healthz payload otherwise.
        """
        deadline = time.monotonic() + timeout_s
        last: Dict[str, Any] = {}
        while True:
            last = self.ready()
            if last.get("ready"):
                return last
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"target not ready after {timeout_s:.0f}s: {last}")
            time.sleep(poll_s)

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def run(
        self,
        config: ArrivalConfig,
        *,
        label: str = "",
        warmup_timeout_s: float = 30.0,
        keep_records: bool = False,
    ) -> LoadRunResult:
        """Plan, warm up, replay; returns the folded result.

        The sequence is fully planned before the first send; the warmup
        gate then blocks until the target reports ready. ``keep_records``
        retains every per-request :class:`RequestRecord` (memory scales
        with the run — leave off for 50k-request replays unless needed).
        """
        planned = generate_sequence(config)
        return self.replay(
            planned, config, label=label,
            warmup_timeout_s=warmup_timeout_s, keep_records=keep_records,
        )

    def replay(
        self,
        planned: Sequence[PlannedRequest],
        config: ArrivalConfig,
        *,
        label: str = "",
        warmup_timeout_s: float = 30.0,
        keep_records: bool = False,
    ) -> LoadRunResult:
        """Replay an already-planned sequence (see :meth:`run`)."""
        self.wait_ready(timeout_s=warmup_timeout_s)
        result = LoadRunResult(
            config=config,
            sequence_fp=sequence_fingerprint(planned),
            target=self._url or "inproc",
            executor=(
                "" if self._service is None
                else getattr(self._service, "executor", "")
            ),
            label=label,
            n_requests=len(planned),
            offered_rps=config.offered_rate,
        )
        lock = threading.Lock()
        latencies: List[float] = []
        # Per planned position, summed in planned order once the pool has
        # drained: adding in completion order would make the float total
        # differ in its last bits between replays of one sequence.
        costs = [0.0] * len(planned)
        started = time.perf_counter()

        def fire(position: int, p: PlannedRequest) -> None:
            sent_offset = time.perf_counter() - started
            record = self._send(p, sent_offset)
            with lock:
                result.outcomes[record.outcome] = (
                    result.outcomes.get(record.outcome, 0) + 1
                )
                result.max_send_lag_s = max(
                    result.max_send_lag_s, record.send_lag_s)
                if record.outcome in ("ok", "cached"):
                    latencies.append(record.latency_s)
                    result.latency_sketch.add(record.latency_s)
                    costs[position] = record.cost
                    _add_by_stage(
                        result.stage_sketches, record.stages, DEFAULT_ALPHA)
                    if record.stages and abs(
                        sum(record.stages.values()) - record.wall_s
                    ) > _STAGE_SUM_TOL:
                        result.n_stage_violations += 1
                if keep_records:
                    result.records.append(record)

        with ThreadPoolExecutor(
            max_workers=self.concurrency,
            thread_name_prefix="repro-loadgen",
        ) as pool:
            futures = []
            for position, p in enumerate(planned):
                if self.pace:
                    delay = p.offset_s - (time.perf_counter() - started)
                    if delay > 0:
                        time.sleep(delay)
                # Open loop: submission never waits for completions; a
                # saturated pool queues the send (visible as send lag).
                futures.append(pool.submit(fire, position, p))
            for future in futures:
                future.result()
        for cost in costs:
            result.cost_total += cost

        result.duration_s = time.perf_counter() - started
        if result.duration_s > 0:
            result.achieved_rps = result.n_completed / result.duration_s
        if latencies:
            result.latency_mean_s = statistics.fmean(latencies)
            result.latency_std_s = (
                statistics.stdev(latencies) if len(latencies) > 1 else 0.0
            )
        return result

    # ------------------------------------------------------------------
    def _send(self, p: PlannedRequest, sent_offset: float) -> RequestRecord:
        sender = self._send_http if self._url else self._send_inproc
        sent = time.perf_counter()
        outcome, cost, stages, wall = sender(p)
        return RequestRecord(
            index=p.index,
            planned_offset_s=p.offset_s,
            sent_offset_s=sent_offset,
            latency_s=time.perf_counter() - sent,
            outcome=outcome,
            tenant=p.tenant,
            priority=p.priority,
            cost=cost,
            stages=stages,
            wall_s=wall,
        )

    def _send_inproc(self, p: PlannedRequest):
        assert self._service is not None
        try:
            response = self._service.schedule(p.request)
        except AdmissionRejected as exc:
            return self._refusal(exc.reason), 0.0, {}, 0.0
        except ServiceClosedError:
            return "draining", 0.0, {}, 0.0
        except ServiceOverloadedError as exc:
            return self._refusal(exc.reason), 0.0, {}, 0.0
        except ServiceError:
            return "error", 0.0, {}, 0.0
        stages_payload = response.stages or {}
        return (
            "cached" if response.cached else "ok",
            float(response.planned_cost),
            dict(stages_payload.get("stages", {})),
            float(stages_payload.get("wall_s", 0.0)),
        )

    def _send_http(self, p: PlannedRequest):
        body = json.dumps(p.request).encode("utf-8")
        request = urllib.request.Request(
            f"{self._url}/v1/schedule",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as resp:
                payload = json.load(resp)
        except urllib.error.HTTPError as exc:
            try:
                detail = json.load(exc)
            except Exception:
                detail = {}
            reason = detail.get("reason")
            if exc.code == 402:
                return "budget_exhausted", 0.0, {}, 0.0
            if exc.code == 429:
                return self._refusal(reason), 0.0, {}, 0.0
            if exc.code == 503:
                return "draining", 0.0, {}, 0.0
            return "error", 0.0, {}, 0.0
        except (urllib.error.URLError, OSError, json.JSONDecodeError):
            return "error", 0.0, {}, 0.0
        stages_payload = payload.get("stages") or {}
        return (
            "cached" if payload.get("cached") else "ok",
            float(payload.get("planned_cost", 0.0)),
            dict(stages_payload.get("stages", {})),
            float(stages_payload.get("wall_s", 0.0)),
        )

    @staticmethod
    def _refusal(reason: Optional[str]) -> str:
        if reason in ("rate_limited", "budget_exhausted", "queue_full"):
            return reason
        return "overloaded"
