"""The scheduling service engine: sync calls, async jobs, cache, metrics.

:class:`SchedulingService` is the in-process core that the HTTP gateway,
the CLI, and library users all share. It turns a declarative
:class:`~repro.service.spec.ScheduleRequest` into a full
:class:`~repro.service.spec.ScheduleResponse`:

1. ``_plan``: resolve the workflow, platform and budget from the specs and
   run the requested algorithm;
2. ``_replicate``: replay the schedule against one sampled weight
   realization, once per seed of the ``n_reps`` requested (the paper's
   validity/makespan statistics, per request);
3. ``_assemble``: fold the plan and the replications into the response.

These three steps are the one compute core, reached by two routes. The
thread executor runs ``_plan`` and ``_replicate`` through a
:class:`~repro.admission.FamilyBatcher`, which shares plans and per-seed
replications across requests of one spec family and hands back
``(base, reps)``; the engine then calls ``_assemble`` itself. The pool
executors (``process``, ``cluster``) ship :func:`compute_response`, the
same steps unbatched, to a worker.

Each request carries one private context object, ``_Call`` (admission
decision, stage timings, job id, deadline). It is made where the request
enters — ``schedule()`` for a sync call, ``submit()`` for a job — and is
passed explicitly down the serve path: ``_serve`` → ``_compute`` →
``_finish_request`` → ``_record_run``, and to the progress and deadline
hooks. A job's worker thread calls ``_serve`` directly, so ``schedule()``
has one path, through admission.

Heavy traffic is absorbed two ways: identical requests collapse into hits
on a content-addressed LRU cache, and distinct requests fan out over a
worker pool via ``submit`` / ``submit_batch`` (scheduling releases the
GIL poorly, but the evaluation replays are numpy-heavy, and multi-worker
throughput also keeps the HTTP gateway responsive while long HEFTBUDG+
jobs run).
"""

from __future__ import annotations

import itertools
import random
import threading
import time
import traceback
from concurrent.futures import CancelledError as FuturesCancelledError
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from ..errors import (
    AdmissionRejected,
    JobNotFoundError,
    JobTimeoutError,
    ReproError,
    ServiceClosedError,
    ServiceError,
)
from ..io import schedule_to_dict
from ..obs.events import EventBus
from ..obs.ledger import RunRow, get_ledger
from ..obs.slo import SLOMonitor, SLOTarget
from ..obs.stages import StageTimings
from ..obs.tracing import get_tracer
from ..parallel import ShardStats
from ..scheduling.registry import available_schedulers, make_scheduler
from ..simulation.executor import execute_schedule, sample_weights
from .cache import LRUCache
from .metrics import MetricsRegistry, quantile
from .spec import ScheduleRequest, ScheduleResponse

__all__ = ["JobState", "JobRecord", "SchedulingService", "compute_response"]

#: Execution modes for the service's compute path. ``thread`` computes
#: in-process through the spec-family batcher; ``process`` routes each
#: compute into a :class:`repro.parallel.WorkerPool` worker, taking
#: CPU-bound HEFTBUDG+/HEFTBUDG+INV refinement off the GIL; ``cluster``
#: routes it to remote worker nodes. The pool modes compute unbatched.
EXECUTORS = ("thread", "process", "cluster")

RequestLike = Union[ScheduleRequest, Mapping[str, Any]]


class JobState:
    """Lifecycle states of an async job (plain strings, JSON-friendly)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (PENDING, RUNNING, DONE, FAILED, CANCELLED)


@dataclass
class JobRecord:
    """Point-in-time snapshot of one async job."""

    job_id: str
    state: str
    request: Dict[str, Any]
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    response: Optional[ScheduleResponse] = None
    attempts: int = 0
    traceback: Optional[str] = None

    def to_dict(self, *, include_response: bool = True) -> Dict[str, Any]:
        """JSON-ready snapshot; ``include_response=False`` keeps it small."""
        out: Dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state,
            "request": self.request,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "attempts": self.attempts,
            "traceback": self.traceback,
        }
        if include_response:
            out["response"] = (
                None if self.response is None else self.response.to_dict()
            )
        return out


@dataclass
class _Call:
    """One request's context on its way through the engine.

    ``decision`` is the request's admission decision and ``stages`` its
    lifecycle clock. ``job_id`` is ``None`` for a sync call; a job's
    ``deadline`` (monotonic seconds) is set when it starts to run under
    a ``job_timeout``.
    """

    decision: Any
    stages: StageTimings
    job_id: Optional[str] = None
    deadline: Optional[float] = None


class _Job:
    __slots__ = ("record", "future", "request", "call")

    def __init__(
        self, record: JobRecord, request: ScheduleRequest, call: _Call
    ) -> None:
        self.record = record
        self.future: "Future[ScheduleResponse]" = Future()
        self.request = request
        self.call = call


@dataclass
class _FamilyBase:
    """The spec-family-invariant bundle :func:`_plan` returns.

    Everything downstream of the scheduler call that does not depend on
    ``evaluation.seed`` / ``n_reps``: resolved workflow, platform, budget,
    the scheduling result, and the (family-invariant) datacenter capacity.
    The batcher caches it once per family.
    """

    wf: Any
    platform: Any
    budget: float
    result: Any
    cap: float


def _noop_progress(stage: str, done: int, total: int) -> None:
    return None


def _plan(request: ScheduleRequest, publish_progress) -> _FamilyBase:
    """Resolve the specs and run the scheduler (the spec-family half)."""
    wf = request.workflow.resolve()
    platform = request.platform.resolve()
    budget = request.budget.resolve(wf, platform)
    try:
        result = make_scheduler(request.algorithm).schedule(
            wf, platform, budget
        )
    except ReproError as exc:
        raise ServiceError(
            f"{request.algorithm} failed on {wf.name or 'workflow'}: {exc}"
        ) from exc
    publish_progress("scheduled", 1, 1)
    spec = request.evaluation
    cap = float("inf") if spec.dc_capacity is None else spec.dc_capacity
    return _FamilyBase(
        wf=wf, platform=platform, budget=budget, result=result, cap=cap
    )


def _replicate(base: _FamilyBase, seed: int) -> Dict[str, Any]:
    """One evaluation replication, a pure function of (family, seed).

    The shard-plan contract — replication ``i`` samples weights from
    ``evaluation.seed + i`` alone — is what lets requests with
    overlapping seed ranges share these records bit-for-bit. Calls the
    module globals ``execute_schedule`` / ``sample_weights`` at call
    time, so instrumentation that rebinds them sees every replay.
    """
    run = execute_schedule(
        base.wf, base.platform, base.result.schedule,
        sample_weights(base.wf, rng=seed),
        dc_capacity=base.cap, validate=False,
    )
    return {
        "seed": seed,
        "makespan": run.makespan,
        "cost": run.total_cost,
        "within_budget": run.respects_budget(base.budget),
    }


def _assemble(
    base: _FamilyBase,
    reps: List[Dict[str, Any]],
    request: ScheduleRequest,
) -> ScheduleResponse:
    """Fold a plan and this request's replications into its response.

    ``elapsed_s`` is left at 0 for the caller to stamp; replication
    dicts are copied so callers mutating a response cannot corrupt the
    batcher's shared cache.
    """
    spec = request.evaluation
    evaluation: Optional[Dict[str, Any]] = None
    if spec.n_reps > 0:
        n_valid = sum(1 for rep in reps if rep["within_budget"])
        evaluation = {
            "n_reps": spec.n_reps,
            "budget_success_rate": n_valid / spec.n_reps,
            "makespan": _summary([rep["makespan"] for rep in reps]),
            "cost": _summary([rep["cost"] for rep in reps]),
            "reps": [dict(rep) for rep in reps],
        }
    result = base.result
    return ScheduleResponse(
        request_fingerprint=request.fingerprint(),
        algorithm=result.algorithm,
        budget=base.budget,
        planned_makespan=result.planned_makespan,
        planned_cost=result.planned_vm_cost,
        within_budget_plan=result.within_budget_plan,
        n_vms=result.schedule.n_vms,
        n_tasks=base.wf.n_tasks,
        workflow_name=base.wf.name,
        schedule=schedule_to_dict(result.schedule),
        evaluation=evaluation,
        cached=False,
        elapsed_s=0.0,
    )


def compute_response(request: ScheduleRequest) -> ScheduleResponse:
    """The pure compute path: plan → replicate → assemble.

    Module-level (and using only its argument) so it runs identically on
    a service worker thread or inside a :class:`repro.parallel.WorkerPool`
    process — the pool executors ship exactly this function. The thread
    executor runs the same three steps through the spec-family batcher.
    """
    started = time.perf_counter()
    base = _plan(request, _noop_progress)
    seed = request.evaluation.seed
    reps = [_replicate(base, seed + i)
            for i in range(request.evaluation.n_reps)]
    return replace(
        _assemble(base, reps, request),
        elapsed_s=time.perf_counter() - started,
    )


def _warmup(index: int) -> int:
    """Trivial task used to pre-fork the process pool at service start."""
    return index


def _process_compute(request_dict: Dict[str, Any]) -> ScheduleResponse:
    """Worker-process entrypoint for ``--executor process`` (pickle-safe).

    Deadlines and progress are supervised by the parent thread (which
    bounds the worker call itself); the child just computes.
    """
    return compute_response(ScheduleRequest.from_dict(request_dict))


class SchedulingService:
    """Scheduling-as-a-service façade (see module docstring).

    Parameters
    ----------
    max_workers:
        Worker threads for async jobs (default 4).
    cache_size:
        LRU capacity in responses; 0 disables caching entirely.
    cache_ttl:
        Seconds a cached response stays fresh; ``None`` means forever.
    metrics:
        An external :class:`MetricsRegistry` to share; a private one is
        created by default.
    ledger:
        A :class:`~repro.obs.ledger.RunLedger` to archive completed runs
        into; defaults to the process-global ledger (a ``NullLedger``
        unless one was installed), so archiving costs one attribute check
        when disabled.
    events:
        An external :class:`~repro.obs.events.EventBus` to publish job
        lifecycle events on; a private bus is created by default (the SSE
        endpoints subscribe to it).
    max_queue_depth:
        Backpressure limit: when this many jobs are already pending,
        ``submit`` raises :class:`~repro.errors.ServiceOverloadedError`
        (HTTP 429 at the gateway). ``None`` (default) accepts everything.
    job_timeout:
        Per-job wall-clock budget in seconds, enforced cooperatively: the
        evaluation loop checks the deadline between replays and the job
        fails with :class:`~repro.errors.JobTimeoutError` (never retried).
        ``None`` disables the timeout.
    max_retries:
        Extra attempts for a job whose compute raised an *unexpected*
        (non-:class:`~repro.errors.ReproError`) exception — deterministic
        model errors are never retried. 0 (default) disables retries.
    retry_backoff_s:
        Base of the exponential backoff between retries; the actual sleep
        is ``retry_backoff_s × 2^attempt`` scaled by a deterministic
        per-job jitter in [0.5, 1.0].
    executor:
        ``"thread"`` (default) computes on the worker threads;
        ``"process"`` routes each compute into a worker *process* via
        :class:`repro.parallel.WorkerPool`, so CPU-bound refinement runs
        off the GIL; ``"cluster"`` routes computes to remote
        ``repro-exp worker`` nodes via
        :class:`repro.cluster.ClusterPool` (requires ``nodes``). Job
        lifecycle, cache, backpressure, retries, and timeout supervision
        all stay in the parent every way — a crashed worker process or a
        lost node surfaces as a retryable
        :class:`~repro.errors.WorkerCrashError` after the pool's own
        shard retries are exhausted.
    nodes:
        Cluster node list for ``executor="cluster"``:
        ``"host:port,host:port"`` or a sequence of such specs.
    tenants:
        A :class:`~repro.admission.TenantRegistry` with per-tenant rate /
        concurrency / cost-budget policies. Omitted, every request runs
        under the permissive ``default`` tenant (no limits) — the
        pre-admission behaviour.
    admission_aging_s:
        Seconds of queue wait per one-class starvation promotion in the
        admission queue (see :mod:`repro.admission.queue`).
    """

    def __init__(
        self,
        *,
        max_workers: int = 4,
        cache_size: int = 256,
        cache_ttl: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        ledger: Optional[Any] = None,
        events: Optional[EventBus] = None,
        max_queue_depth: Optional[int] = None,
        job_timeout: Optional[float] = None,
        max_retries: int = 0,
        retry_backoff_s: float = 0.5,
        executor: str = "thread",
        nodes: Optional[Any] = None,
        tenants: Optional[Any] = None,
        admission_aging_s: float = 30.0,
        slo_targets: Optional[Sequence[SLOTarget]] = None,
    ) -> None:
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        if executor not in EXECUTORS:
            raise ServiceError(
                f"unknown executor {executor!r}; one of {EXECUTORS}"
            )
        if executor == "cluster" and not nodes:
            raise ServiceError(
                "executor='cluster' needs nodes ('host:port,host:port')"
            )
        if cache_size < 0:
            raise ServiceError(f"cache_size must be >= 0, got {cache_size}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ServiceError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if job_timeout is not None and job_timeout <= 0:
            raise ServiceError(f"job_timeout must be > 0, got {job_timeout}")
        if max_retries < 0:
            raise ServiceError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0:
            raise ServiceError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}"
            )
        self.max_queue_depth = max_queue_depth
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ledger = ledger if ledger is not None else get_ledger()
        self.events = events if events is not None else EventBus()
        if getattr(self.events, "metrics", None) is None:
            # Dropped-event counts surface as repro_events_dropped_total.
            self.events.metrics = self.metrics
        #: Per-stage latency sketches + burn-rate windows (GET /v1/slo).
        self.slo = SLOMonitor(targets=slo_targets)
        if self.ledger.enabled and self.ledger.bus is None:
            # run.recorded events join the job lifecycle stream.
            self.ledger.bus = self.events
        self._cache = (
            LRUCache(cache_size, ttl=cache_ttl) if cache_size else None
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-service"
        )
        self.max_workers = max_workers
        self.executor = executor
        self._proc_pool: Optional[Any] = None
        if executor != "thread":
            # Imported lazily so the light thread-executor path never
            # touches the cluster fabric.
            from ..cluster.backend import BackendSpec, make_pool

            if isinstance(nodes, str):
                nodes = [part for part in nodes.split(",") if part.strip()]
            self._proc_pool = make_pool(
                BackendSpec("process", n_workers=max_workers)
                if executor == "process"
                else BackendSpec("cluster", nodes=tuple(nodes)),
                metrics=self.metrics, events=self.events,
            )
        if executor == "process":
            # Fork the worker processes *now*, before the service's own
            # threads get busy — forking from a quiescent parent avoids
            # inheriting locks held mid-operation.
            self._proc_pool.map(_warmup, list(range(max_workers)))
        self._jobs: Dict[str, _Job] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False
        self._started_at = time.time()
        # Imported lazily: repro.admission imports service submodules, so
        # a module-level import here would cycle when the admission
        # package is imported first.
        from ..admission import (
            AdmissionController,
            CostEstimator,
            FamilyBatcher,
        )

        self.admission = AdmissionController(
            tenants=tenants,
            estimator=CostEstimator(
                self.ledger if self.ledger.enabled else None
            ),
            max_queue_depth=max_queue_depth,
            aging_s=admission_aging_s,
            metrics=self.metrics,
            events=self.events,
        )
        # The thread route: spec-family batching over the compute core.
        # The pool executors compute unbatched in the worker.
        self._batcher = FamilyBatcher() if executor == "thread" else None
        #: The stage a request's compute is charged to on this route.
        self._compute_stage = "batched" if executor == "thread" else "execute"

    # ------------------------------------------------------------------
    # sync path
    # ------------------------------------------------------------------
    def schedule(self, request: RequestLike) -> ScheduleResponse:
        """Serve one request synchronously (cache-aware, admission-gated).

        The request passes the tenant admission gates — rate limit and
        cost budget — without queueing, and its spend is reconciled like
        any job's; a refusal raises
        :class:`~repro.errors.AdmissionRejected`. Raises
        :class:`~repro.errors.ServiceClosedError` once the service is
        draining.
        """
        req = self._coerce(request)
        self._check_open()
        stages = StageTimings()
        decision = self.admission.admit(
            req, f"sync-{next(self._ids):06d}", enqueue=False, stages=stages
        )
        call = _Call(decision, stages)
        try:
            return self._serve(req, call)
        except BaseException:
            self._close_request(call, success=False)
            raise
        finally:
            # No-op when the response reconciled the reservation (the
            # normal path); a compute that raised refunds it here.
            self.admission.release(decision)

    def _serve(self, req: ScheduleRequest, call: _Call) -> ScheduleResponse:
        """Cache-aware compute, then :meth:`_finish_request`."""
        self.metrics.incr("requests")
        if self._cache is None:
            return self._finish_request(
                req, self._compute(req, call), call, record=True
            )
        response, was_cached = self._cache.get_or_compute(
            req.fingerprint(), lambda: self._compute(req, call)
        )
        if not was_cached:
            self.metrics.incr("cache_misses")
            return self._finish_request(req, response, call, record=True)
        self.metrics.incr("cache_hits")
        # Hit lookup plus any single-flight coalesced wait.
        call.stages.mark("cache")
        # Copy: callers may mutate, and the cached original must keep
        # cached=False so first-compute responses stay honest. Cache hits
        # commit tenant spend but add no ledger row.
        return self._finish_request(
            req, replace(response, cached=True), call, record=False
        )

    def _settle_admission(
        self, req: ScheduleRequest, response: ScheduleResponse, call: _Call
    ) -> Optional[Dict[str, Any]]:
        """Commit the request's reservation against actuals.

        Settles at most once per admission decision (retries re-enter
        here only after a failed attempt, which never settles). Returns
        the admission diagnostics destined for the ledger row, or
        ``None`` when the decision was already settled.
        """
        try:
            return self.admission.reconcile(
                req,
                call.decision,
                actual_cost=response.planned_cost,
                actual_duration_s=response.elapsed_s,
            )
        finally:
            call.stages.mark("reconcile")

    def _finish_request(
        self,
        req: ScheduleRequest,
        response: ScheduleResponse,
        call: _Call,
        *,
        record: bool,
    ) -> ScheduleResponse:
        """Close out one served request: settle, stage telemetry, ledger.

        The returned response carries the stage decomposition; the
        cached original (if any) stays untouched, so every hit gets its
        own per-request timings.
        """
        admission = self._settle_admission(req, response, call)
        stage_dict = self._close_request(call, success=True)
        response = replace(response, stages=stage_dict)
        if record and self.ledger.enabled:
            self._record_run(
                req, response, call, admission=admission, stages=stage_dict
            )
        return response

    def _close_request(self, call: _Call, *, success: bool) -> Dict[str, Any]:
        """Stop one request's clock; feed its stages to metrics and SLO.

        The one place a request closes, served or failed, and so the one
        place its stage durations are observed. A failure leaves its
        last segment open — the failing compute, and for a job any
        retries and their backoff — so that segment is charged to the
        route's compute stage and the stages still sum to ``wall_s``.
        """
        if not success:
            call.stages.mark(self._compute_stage)
        stage_dict = call.stages.to_dict()
        for name, seconds in stage_dict["stages"].items():
            self.metrics.observe(f"stage_{name}_seconds", seconds)
        self.slo.observe_request(
            duration_s=stage_dict["wall_s"], success=success,
            stages=stage_dict["stages"],
        )
        return stage_dict

    # ------------------------------------------------------------------
    # async jobs
    # ------------------------------------------------------------------
    def submit(self, request: RequestLike) -> str:
        """Admit and queue one request; returns its job id immediately.

        The request passes the tenant's admission gates first; a refusal
        raises :class:`~repro.errors.AdmissionRejected` with a typed
        reason — ``rate_limited``, ``budget_exhausted`` or ``queue_full``
        (the latter replaces the old ``max_queue_depth`` FIFO
        backpressure; all three surface as
        :class:`~repro.errors.ServiceOverloadedError` to old callers).
        Raises :class:`~repro.errors.ServiceClosedError` once the service
        drains.
        """
        req = self._coerce(request)
        self._check_open()
        job_id = f"job-{next(self._ids):06d}"
        record = JobRecord(
            job_id=job_id,
            state=JobState.PENDING,
            request=req.to_dict(),
            submitted_at=time.time(),
        )
        stages = StageTimings()
        try:
            decision = self.admission.admit(req, job_id, stages=stages)
        except AdmissionRejected:
            self.metrics.incr("jobs_rejected")
            raise
        job = _Job(record, req, _Call(decision, stages, job_id))
        with self._lock:
            self._jobs[job_id] = job
        self.events.publish(
            "job.queued", job_id=job_id, algorithm=req.algorithm,
            fingerprint=req.fingerprint(), tenant=req.tenant,
            priority=req.priority,
        )
        # One dispatcher per admitted entry; a dispatcher is not married
        # to "its" job — it claims whichever queued entry the admission
        # queue ranks best among tenants with free concurrency slots.
        self._pool.submit(self._dispatch)
        self.metrics.incr("jobs_submitted")
        return job_id

    def _dispatch(self) -> None:
        """One dispatcher pass: claim the best admitted entry, run it.

        Entries cancelled before dispatch leave the queue, so surplus
        dispatchers drain a ``None`` and exit; the dispatcher settles the
        tenant's concurrency slot and resolves the job's future in every
        outcome.
        """
        entry = self.admission.next_entry()
        if entry is None:
            return
        job = self._lookup_job(entry.job_id)
        if job is None:
            # Unreachable in practice (entries are registered right after
            # admission); refund rather than leak the reservation.
            self.admission.tenants.release(entry.tenant, entry.estimated_cost)
            self.admission.release_slot(entry.tenant)
            return
        future = job.future
        if not future.set_running_or_notify_cancel():
            # cancel() won after the entry was popped: the queue withdraw
            # missed it, so the refund happens here — exactly once.
            self.admission.release(job.call.decision)
            self.admission.release_slot(entry.tenant)
            return
        # Everything between the admission gates and this claim — queue
        # wait plus dispatch overhead — is the queued stage;
        # entry.waited_s keeps the queue's own precise measurement.
        job.call.stages.mark("queued")
        try:
            response = self._run_job(job, entry.waited_s)
        except BaseException as exc:
            self.admission.release(job.call.decision)
            self.admission.release_slot(entry.tenant)
            future.set_exception(exc)
            return
        self.admission.release_slot(entry.tenant)
        future.set_result(response)

    def _lookup_job(self, job_id: str) -> Optional[_Job]:
        """The job for an entry, waiting out the admit/register race.

        ``admit`` enqueues the entry moments before ``submit`` registers
        the job, so a fast foreign dispatcher can pop an entry whose job
        is not yet visible; the window is two statements long, hence the
        tight bounded spin.
        """
        deadline = time.monotonic() + 1.0
        while True:
            with self._lock:
                job = self._jobs.get(job_id)
            if job is not None or time.monotonic() >= deadline:
                return job
            time.sleep(0.001)

    def submit_batch(self, requests: Sequence[RequestLike]) -> List[str]:
        """Queue a batch; returns job ids in request order."""
        if not requests:
            raise ServiceError("submit_batch needs at least one request")
        return [self.submit(req) for req in requests]

    def job(self, job_id: str) -> JobRecord:
        """Snapshot of a job's current state."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(f"no such job {job_id!r}")
            return replace(job.record)

    def jobs(self, state: Optional[str] = None) -> List[JobRecord]:
        """Snapshots of all jobs, optionally filtered by state."""
        if state is not None and state not in JobState.ALL:
            raise ServiceError(
                f"unknown job state {state!r}; one of {JobState.ALL}"
            )
        with self._lock:
            records = [replace(j.record) for j in self._jobs.values()]
        if state is not None:
            records = [r for r in records if r.state == state]
        return records

    def result(
        self, job_id: str, timeout: Optional[float] = None
    ) -> ScheduleResponse:
        """Block until a job finishes and return its response.

        Raises :class:`ServiceError` if the job failed or was cancelled,
        and ``TimeoutError`` if ``timeout`` elapses first.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no such job {job_id!r}")
        try:
            return job.future.result(timeout=timeout)
        except ReproError:
            raise
        except FuturesCancelledError:
            raise ServiceError(f"job {job_id} was cancelled") from None
        except FuturesTimeoutError:
            raise TimeoutError(
                f"job {job_id} did not finish within {timeout}s"
            ) from None
        except KeyboardInterrupt:
            raise  # the *caller* was interrupted; don't mask it
        except BaseException as exc:  # a non-repro bug in the compute path
            # SystemExit and friends raised by a job are contained in
            # _run_job; what reaches the caller here is always wrapped.
            raise ServiceError(f"job {job_id} failed: {exc}") from exc

    def cancel(self, job_id: str) -> bool:
        """Cancel a job that has not started; True when it was cancelled."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(f"no such job {job_id!r}")
            if not job.future.cancel():
                return False
            job.record.state = JobState.CANCELLED
            job.record.finished_at = time.time()
        # Refund responsibility: if this call removed the queue entry, no
        # dispatcher will ever claim it and the withdraw refund is final;
        # otherwise a dispatcher already popped it and its failed
        # set_running_or_notify_cancel() performs the (single) refund.
        if self.admission.withdraw(job_id):
            job.call.decision.reconciled = True
        self.events.publish(
            "job.finished", job_id=job_id, state=JobState.CANCELLED
        )
        self.metrics.incr("jobs_cancelled")
        return True

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted job left the pending/running states."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            futures = [j.future for j in self._jobs.values()]
        for future in futures:
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                raise TimeoutError("wait_all timed out")
            try:
                future.result(timeout=remaining)
            except FuturesTimeoutError:
                raise TimeoutError("wait_all timed out") from None
            except FuturesCancelledError:
                pass  # cancellation is a terminal state, not a failure
            except Exception:
                pass  # failures are surfaced via job()/result(), not here

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Operational snapshot: jobs by state, cache, metric summaries.

        Also asserts the state-machine invariant: a job whose future has
        completed must be in a terminal state (worker threads set the
        state under the service lock *before* their future resolves), so a
        violation means containment in ``_run_job`` is broken — better a
        loud :class:`RuntimeError` here than a job stuck "running"
        forever. It is a server fault, not a bad request, so it is not a
        :class:`~repro.errors.ServiceError` (the gateway answers 500).
        """
        by_state = {state: 0 for state in JobState.ALL}
        stuck: List[str] = []
        with self._lock:
            for job in self._jobs.values():
                by_state[job.record.state] += 1
                if (
                    job.future.done()
                    and not job.future.cancelled()
                    and job.record.state in (JobState.PENDING, JobState.RUNNING)
                ):
                    stuck.append(job.record.job_id)
        if stuck:
            raise RuntimeError(
                f"job state invariant violated: finished futures with "
                f"non-terminal records: {stuck[:5]}"
            )
        self._sync_cache_metrics()
        out: Dict[str, Any] = {
            "uptime_s": time.time() - self._started_at,
            "executor": self.executor,
            "workers": (
                None if self._proc_pool is None
                else self._proc_pool.worker_stats()
            ),
            "cluster_nodes": (
                self._proc_pool.alive_count
                if self.executor == "cluster" else None
            ),
            "jobs": by_state,
            "cache": None if self._cache is None else self._cache.stats().to_dict(),
            "metrics": self.metrics.snapshot(),
            "schedulers": available_schedulers(),
            "ledger": {
                "enabled": self.ledger.enabled,
                "path": self.ledger.path,
                "n_runs": self.ledger.count(),
            },
            "events": {
                "last_seq": self.events.last_seq,
                "n_subscribers": self.events.n_subscribers,
                "dropped_total": getattr(self.events, "dropped_total", 0),
            },
            "slo": self.slo.snapshot(),
            "admission": self.admission.stats(),
            "batching": self.batching_stats(),
        }
        return out

    def batching_stats(self) -> Optional[Dict[str, Any]]:
        """The family batcher's counters; ``None`` on the pool routes."""
        return None if self._batcher is None else self._batcher.stats()

    def health(self) -> Dict[str, Any]:
        """Readiness snapshot backing ``GET /v1/healthz``.

        ``ready`` is the single go/no-go bit (drain started, ledger
        unwritable, or every worker process / cluster node dead ⇒ not
        ready); the rest is the evidence: the active executor backend,
        the live worker/node count, queue depth, in-flight jobs, the age
        of the stalest worker heartbeat, and whether the ledger accepts
        writes. ``executor`` + ``worker_count`` let a load balancer
        distinguish a degraded cluster (some nodes lost, still ready)
        from a healthy single-node deployment. Deliberately cheaper than
        :meth:`stats` — load-generator warmup gates and orchestrator
        probes may poll it at high frequency.
        """
        with self._lock:
            draining = self._closed
            inflight = sum(
                1 for j in self._jobs.values()
                if j.record.state == JobState.RUNNING
            )
        queue_stats = self.admission.queue.stats()
        heartbeat_age: Optional[float] = None
        workers_alive = True
        # Thread executor: the pool's threads cannot die independently,
        # so the configured size is the live count.
        worker_count = self.max_workers
        if self._proc_pool is not None:
            # A dead worker keeps its stats entry for observability; only
            # live ones count. A process pool respawns its workers on the
            # next job, so it stays ready between a crash and that job; a
            # lost node never comes back.
            worker_count = self._proc_pool.alive_count
            workers_alive = worker_count > 0 or self.executor == "process"
            live = [
                s for s in self._proc_pool.worker_stats().values()
                if s["alive"]
            ]
            if live:
                now = time.time()
                heartbeat_age = max(now - s["last_seen"] for s in live)
        ledger_writable = (
            not self.ledger.enabled or self.ledger.writable()
        )
        return {
            "ready": not draining and ledger_writable and workers_alive,
            "status": "draining" if draining else "ok",
            "draining": draining,
            "uptime_s": time.time() - self._started_at,
            "executor": self.executor,
            "worker_count": worker_count,
            "queue_depth": queue_stats["depth"],
            "inflight_jobs": inflight,
            "worker_heartbeat_age_s": heartbeat_age,
            "workers_alive": workers_alive,
            "ledger": {
                "enabled": self.ledger.enabled,
                "writable": ledger_writable,
            },
        }

    def _sync_cache_metrics(self) -> None:
        """Mirror the cache's own monotonic stats into the registry.

        The engine's per-request ``cache_hits``/``cache_misses`` counters
        only see the ``schedule()`` path; the cache itself also counts
        evictions and TTL expirations. Snapping the registry counters to
        the cache's totals keeps ``repro_cache_*_total`` authoritative in
        the Prometheus exposition.
        """
        if self._cache is None:
            return
        stats = self._cache.stats()
        self.metrics.set_counter("cache_hits", stats.hits)
        self.metrics.set_counter("cache_misses", stats.misses)
        self.metrics.set_counter("cache_evictions", stats.evictions)
        self.metrics.set_counter("cache_expirations", stats.expirations)
        self.metrics.set_counter("cache_coalesced", stats.coalesced)

    def clear_cache(self) -> None:
        """Drop all cached responses (no-op when caching is disabled)."""
        if self._cache is not None:
            self._cache.clear()

    def close(self, *, wait: bool = True) -> None:
        """Drain and shut the worker pool down; idempotent.

        New work is refused immediately (``ServiceClosedError``); with
        ``wait=True`` (the default graceful drain) every already-accepted
        job runs to completion before the pool stops. ``service.draining``
        / ``service.closed`` events bracket the drain on the bus.
        """
        with self._lock:
            first = not self._closed
            self._closed = True
            in_flight = sum(
                1 for j in self._jobs.values()
                if j.record.state in (JobState.PENDING, JobState.RUNNING)
            )
        if first:
            self.events.publish(
                "service.draining", in_flight=in_flight, wait=wait
            )
        self._pool.shutdown(wait=wait)
        if self._proc_pool is not None:
            self._proc_pool.close()
        if first:
            self.events.publish("service.closed")

    def __enter__(self) -> "SchedulingService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("service is draining/closed")

    @staticmethod
    def _coerce(request: RequestLike) -> ScheduleRequest:
        if isinstance(request, ScheduleRequest):
            return request
        return ScheduleRequest.from_dict(request)

    def _retry_delay(self, job_id: str, attempt: int) -> float:
        """Exponential backoff with deterministic per-job jitter."""
        jitter = random.Random(f"{job_id}:{attempt}").uniform(0.5, 1.0)
        return self.retry_backoff_s * (2.0 ** attempt) * jitter

    def _run_job(self, job: _Job, queue_waited_s: float) -> ScheduleResponse:
        record, call = job.record, job.call
        job_id = record.job_id
        with self._lock:
            record.state = JobState.RUNNING
            record.started_at = time.time()
        self.events.publish(
            "job.started", job_id=job_id, queue_waited_s=queue_waited_s
        )
        if self.job_timeout is not None:
            call.deadline = time.monotonic() + self.job_timeout
        try:
            attempt = 0
            while True:
                with self._lock:
                    record.attempts = attempt + 1
                try:
                    self._check_job_deadline(call)
                    response = self._serve(job.request, call)
                    break
                except Exception as exc:
                    # ReproError (bad spec, infeasible, timeout) is
                    # deterministic — retrying cannot help. Anything else
                    # is treated as transient, up to max_retries times.
                    if isinstance(exc, ReproError) or attempt >= self.max_retries:
                        raise
                    delay = self._retry_delay(job_id, attempt)
                    attempt += 1
                    self.events.publish(
                        "job.retried", job_id=job_id, attempt=attempt,
                        max_retries=self.max_retries, error=str(exc),
                        backoff_s=delay,
                    )
                    self.metrics.incr("jobs_retried")
                    if delay > 0:
                        time.sleep(delay)
        except BaseException as exc:
            # Containment: *nothing* a job raises may corrupt the worker
            # pool or leave the record non-terminal — KeyboardInterrupt
            # and friends included.
            self._close_request(call, success=False)
            tb = traceback.format_exc()
            with self._lock:
                record.state = JobState.FAILED
                record.error = str(exc) or type(exc).__name__
                record.traceback = tb
                record.finished_at = time.time()
            self.events.publish(
                "job.failed", job_id=job_id, error=record.error,
                exc_type=type(exc).__name__, attempts=record.attempts,
            )
            self.events.publish(
                "job.finished", job_id=job_id, state=JobState.FAILED,
                error=record.error,
            )
            self.metrics.incr("jobs_failed")
            if isinstance(exc, JobTimeoutError):
                self.metrics.incr("jobs_timed_out")
            raise
        with self._lock:
            record.state = JobState.DONE
            record.response = response
            record.finished_at = time.time()
        self.events.publish(
            "job.finished", job_id=job_id, state=JobState.DONE,
            cached=response.cached, elapsed_s=response.elapsed_s,
            stages=response.stages["stages"],
            wall_s=response.stages["wall_s"],
        )
        self.metrics.incr("jobs_done")
        return response

    def _check_job_deadline(self, call: _Call) -> None:
        """Cooperative per-job timeout (checked between evaluation reps)."""
        if call.deadline is not None and time.monotonic() > call.deadline:
            raise JobTimeoutError(
                f"job exceeded its {self.job_timeout}s timeout"
            )

    def _compute(
        self, request: ScheduleRequest, call: _Call
    ) -> ScheduleResponse:
        """One compute on this executor's route, timed and traced."""
        started = time.perf_counter()
        tracer = get_tracer()
        attrs = (
            {"algorithm": request.algorithm,
             "fingerprint": request.fingerprint(),
             "executor": self.executor}
            if tracer.enabled else {}
        )
        with self.metrics.timer("schedule_latency_s"), tracer.span(
            "service.compute", **attrs
        ):
            if self._batcher is None:
                response = self._compute_in_pool(request, call)
            else:
                response = self._compute_batched(request, call)
        call.stages.mark(self._compute_stage)
        evaluation = response.evaluation
        if evaluation:
            n_reps = evaluation["n_reps"]
            self._publish_progress(call, "evaluating", n_reps, n_reps)
            self.metrics.incr("evaluation_reps", n_reps)
        return replace(response, elapsed_s=time.perf_counter() - started)

    def _compute_batched(
        self, request: ScheduleRequest, call: _Call
    ) -> ScheduleResponse:
        """The thread route: plan and replays through the family batcher.

        Planning publishes this call's progress, and each replay first
        checks its cooperative deadline.
        """
        if self._batcher.served_batched(request):
            self.metrics.incr("admission_batched")

        def replicate(base: _FamilyBase, seed: int) -> Dict[str, Any]:
            self._check_job_deadline(call)
            return _replicate(base, seed)

        base, reps = self._batcher.compute(
            request,
            lambda req: _plan(req, partial(self._publish_progress, call)),
            replicate,
        )
        return _assemble(base, reps, request)

    def _compute_in_pool(
        self, request: ScheduleRequest, call: _Call
    ) -> ScheduleResponse:
        """Route one compute into the worker pool, supervised from here.

        The child cannot check the cooperative deadline, so the parent
        bounds the worker call with the job's remaining budget and maps a
        pool timeout onto the same :class:`~repro.errors.JobTimeoutError`
        the thread path raises. Worker crashes surface as
        :class:`~repro.errors.WorkerCrashError` (not a ``ReproError``), so
        the job retry loop treats them as transient.
        """
        remaining: Optional[float] = None
        if call.deadline is not None:
            remaining = max(call.deadline - time.monotonic(), 0.001)
        self._publish_progress(call, "dispatched", 1, 1)
        try:
            response = self._proc_pool.run(
                _process_compute, request.to_dict(), timeout=remaining
            )
        except TimeoutError:
            raise JobTimeoutError(
                f"job exceeded its {self.job_timeout}s timeout "
                f"({self.executor} executor)"
            ) from None
        return response

    def _record_run(
        self,
        request: ScheduleRequest,
        response: ScheduleResponse,
        call: _Call,
        *,
        admission: Optional[Dict[str, Any]],
        stages: Dict[str, Any],
    ) -> None:
        """Archive one freshly computed response into the ledger.

        ``admission`` carries the reconciled estimate-vs-actual
        diagnostics (tenant, priority, estimate source, relative errors)
        that ``repro-exp ledger estimate-error`` aggregates; ``stages``
        is the request's wall-clock stage decomposition
        (``extra["stages"]``, consumed by ``repro-exp slo --db``).
        """
        evaluation = response.evaluation or {}
        makespans = [
            rep["makespan"] for rep in (evaluation.get("reps") or [])
        ]
        extra: Dict[str, Any] = (
            {"makespan_stats": ShardStats.of(makespans).to_dict()}
            if makespans else {}
        )
        if admission is not None:
            extra["admission"] = admission
        extra["stages"] = stages
        row = RunRow(
            source="service",
            fingerprint=response.request_fingerprint,
            workflow=response.workflow_name,
            family=request.workflow.family or "",
            n_tasks=response.n_tasks,
            algorithm=response.algorithm,
            budget=response.budget,
            sigma_ratio=request.workflow.sigma_ratio,
            planned_makespan=response.planned_makespan,
            planned_cost=response.planned_cost,
            within_budget_plan=response.within_budget_plan,
            sim_makespan=(evaluation.get("makespan") or {}).get("mean"),
            sim_cost=(evaluation.get("cost") or {}).get("mean"),
            success_rate=evaluation.get("budget_success_rate"),
            n_reps=int(evaluation.get("n_reps", 0)),
            n_vms=response.n_vms,
            elapsed_s=response.elapsed_s,
            trace_id=call.job_id or "",
            extra=extra,
        )
        try:
            self.ledger.record(row)
        except Exception:
            # Archiving must never fail a request; surface via metrics.
            self.metrics.incr("ledger_errors")

    def _publish_progress(
        self, call: _Call, stage: str, done: int, total: int
    ) -> None:
        if call.job_id is not None:
            self.events.publish(
                "job.progress", job_id=call.job_id, stage=stage,
                done=done, total=total,
            )

def _summary(values: List[float]) -> Dict[str, float]:
    return {
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
        "p95": quantile(values, 0.95),
    }
