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
thread executor runs them through a
:class:`~repro.admission.FamilyBatcher`, which shares plans and per-seed
replications across requests of one spec family. The pool executors
(``process``, ``cluster``) ship :func:`compute_response`, the same steps
unbatched, to a worker.

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
from ..parallel import ShardStats, WorkerPool
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


class _Job:
    __slots__ = ("record", "future", "request", "decision", "stages")

    def __init__(self, record: JobRecord) -> None:
        self.record = record
        self.future: Optional["Future[ScheduleResponse]"] = None
        self.request: Optional[ScheduleRequest] = None
        self.decision: Any = None  # AdmissionDecision of an admitted job
        self.stages: Optional[StageTimings] = None  # request lifecycle


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
        if executor == "process":
            # Fork the worker processes *now*, before the service's own
            # threads get busy — forking from a quiescent parent avoids
            # inheriting locks held mid-operation.
            self._proc_pool = WorkerPool(
                max_workers, metrics=self.metrics, events=self.events
            )
            self._proc_pool.map(_warmup, list(range(max_workers)))
        elif executor == "cluster":
            # Imported lazily so the light thread-executor path never
            # touches the cluster fabric.
            from ..cluster import ClusterPool

            self._proc_pool = ClusterPool(
                nodes, metrics=self.metrics, events=self.events
            )
        self._jobs: Dict[str, _Job] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False
        self._started_at = time.time()
        # Which job the current worker thread is computing for — lets the
        # deep schedule/evaluate path publish job.progress without
        # threading a job id through every signature.
        self._job_context = threading.local()
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
        self._batcher = (
            FamilyBatcher(self._family_base, self._family_rep, _assemble)
            if executor == "thread" else None
        )

    # ------------------------------------------------------------------
    # sync path
    # ------------------------------------------------------------------
    def schedule(self, request: RequestLike) -> ScheduleResponse:
        """Serve one request synchronously (cache-aware, admission-gated).

        Direct (non-job) callers pass the tenant admission gates — rate
        limit and cost budget — without queueing, and their spend is
        reconciled like any job's; a refusal raises
        :class:`~repro.errors.AdmissionRejected`. Worker threads serving
        an already-admitted job skip the gates (their reservation was
        taken at ``submit``).

        Raises :class:`~repro.errors.ServiceClosedError` once the service
        is draining — except for the worker threads finishing already
        accepted jobs, which must be able to complete the drain.
        """
        req = self._coerce(request)
        if getattr(self._job_context, "job_id", None) is not None:
            return self._serve(req)
        self._check_open()
        stages = StageTimings()
        decision = self.admission.admit(
            req, f"sync-{next(self._ids):06d}", enqueue=False, stages=stages
        )
        self._job_context.decision = decision
        self._job_context.stages = stages
        try:
            return self._serve(req)
        except BaseException:
            self.slo.observe_request(
                duration_s=stages.wall_s, success=False,
                stages=stages.stages,
            )
            raise
        finally:
            # No-op when the response reconciled the reservation (the
            # normal path); a compute that raised refunds it here.
            self.admission.release(decision)
            self._job_context.decision = None
            self._job_context.stages = None

    def _serve(self, req: ScheduleRequest) -> ScheduleResponse:
        """Cache-aware compute, admission settlement, ledger archive."""
        self.metrics.incr("requests")
        stages = getattr(self._job_context, "stages", None)
        if self._cache is None:
            response = self._compute(req)
        else:
            key = req.fingerprint()
            cached, was_cached = self._cache.get_or_compute(
                key, lambda: self._compute(req)
            )
            if was_cached:
                self.metrics.incr("cache_hits")
                if stages is not None:
                    # Hit lookup plus any single-flight coalesced wait.
                    stages.mark("cache")
                # Copy: callers may mutate, and the cached original must
                # keep cached=False so first-compute responses stay honest.
                # Cache hits commit tenant spend but add no ledger row.
                response = replace(cached, cached=True)
                admission = self._settle_admission(req, response, stages)
                return self._finish_request(
                    req, response, stages, record=False, admission=admission
                )
            self.metrics.incr("cache_misses")
            response = cached
        admission = self._settle_admission(req, response, stages)
        return self._finish_request(
            req, response, stages, record=True, admission=admission
        )

    def _settle_admission(
        self,
        req: ScheduleRequest,
        response: ScheduleResponse,
        stages: Optional[StageTimings] = None,
    ) -> Optional[Dict[str, Any]]:
        """Commit the current request's reservation against actuals.

        Settles at most once per admission decision (retries re-enter
        here only after a failed attempt, which never settles). Returns
        the admission diagnostics destined for the ledger row, or
        ``None`` when the caller was not admission-tracked.
        """
        decision = getattr(self._job_context, "decision", None)
        try:
            if decision is None:
                return None
            return self.admission.reconcile(
                req,
                decision,
                actual_cost=response.planned_cost,
                actual_duration_s=response.elapsed_s,
            )
        finally:
            if stages is not None:
                stages.mark("reconcile")

    def _finish_request(
        self,
        req: ScheduleRequest,
        response: ScheduleResponse,
        stages: Optional[StageTimings],
        *,
        record: bool,
        admission: Optional[Dict[str, Any]],
    ) -> ScheduleResponse:
        """Close out one served request: stage telemetry, SLO, ledger.

        The returned response carries the stage decomposition; the
        cached original (if any) stays untouched, so every hit gets its
        own per-request timings.
        """
        stage_dict: Optional[Dict[str, Any]] = None
        if stages is not None:
            stage_dict = stages.to_dict()
            for name, seconds in stage_dict["stages"].items():
                self.metrics.observe(f"stage_{name}_seconds", seconds)
            self.slo.observe_request(
                duration_s=stage_dict["wall_s"], success=True,
                stages=stage_dict["stages"],
            )
            response = replace(response, stages=stage_dict)
        if record and self.ledger.enabled:
            self._record_run(
                req, response, admission=admission, stages=stage_dict
            )
        return response

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
        job = _Job(record)
        job.request = req
        job.future = Future()
        job.stages = StageTimings()
        try:
            job.decision = self.admission.admit(
                req, job_id, stages=job.stages
            )
        except AdmissionRejected:
            self.metrics.incr("jobs_rejected")
            raise
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
        if job is None or job.future is None:
            # Unreachable in practice (entries are registered right after
            # admission); refund rather than leak the reservation.
            self.admission.tenants.release(entry.tenant, entry.estimated_cost)
            self.admission.release_slot(entry.tenant)
            return
        future = job.future
        if not future.set_running_or_notify_cancel():
            # cancel() won after the entry was popped: the queue withdraw
            # missed it, so the refund happens here — exactly once.
            if job.decision is not None:
                self.admission.release(job.decision)
            self.admission.release_slot(entry.tenant)
            return
        if job.stages is not None:
            # Everything between the admission gates and this claim —
            # queue wait plus dispatch overhead — is the queued stage;
            # entry.waited_s keeps the queue's own precise measurement.
            job.stages.mark("queued")
        self._job_context.decision = job.decision
        self._job_context.stages = job.stages
        self._job_context.queue_waited_s = entry.waited_s
        try:
            response = self._run_job(entry.job_id, job.request)
        except BaseException as exc:
            if job.decision is not None:
                self.admission.release(job.decision)
            self.admission.release_slot(entry.tenant)
            future.set_exception(exc)
            return
        finally:
            self._job_context.decision = None
            self._job_context.stages = None
            self._job_context.queue_waited_s = None
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
        deadline = None if timeout is None else time.monotonic() + timeout
        future = self._wait_for_future(job_id, deadline)
        remaining = None if deadline is None else deadline - time.monotonic()
        try:
            return future.result(timeout=remaining)
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

    def _wait_for_future(
        self, job_id: str, deadline: Optional[float]
    ) -> "Future[ScheduleResponse]":
        """The job's future, waiting out the submit()/cancel() races.

        A job can briefly exist without a future (``submit`` publishes
        ``job.queued`` before handing the callable to the pool) — and a
        job cancelled in that window never gets one.
        """
        while True:
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None:
                    raise JobNotFoundError(f"no such job {job_id!r}")
                if job.future is not None:
                    return job.future
                if job.record.state == JobState.CANCELLED:
                    raise ServiceError(f"job {job_id} was cancelled")
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} was never started")
            time.sleep(0.001)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job that has not started; True when it was cancelled."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(f"no such job {job_id!r}")
            future = job.future
            if future is None:
                # Defensive: every submitted job gets a future before it
                # is registered, so this branch only guards torn state.
                if job.record.state != JobState.PENDING:
                    return False
                job.record.state = JobState.CANCELLED
                job.record.finished_at = time.time()
            elif future.cancel():
                job.record.state = JobState.CANCELLED
                job.record.finished_at = time.time()
            else:
                return False
        # Refund responsibility: if this call removed the queue entry, no
        # dispatcher will ever claim it and the withdraw refund is final;
        # otherwise a dispatcher already popped it and its failed
        # set_running_or_notify_cancel() performs the (single) refund.
        if self.admission.withdraw(job_id) and job.decision is not None:
            job.decision.reconciled = True
        self.events.publish(
            "job.finished", job_id=job_id, state=JobState.CANCELLED
        )
        self.metrics.incr("jobs_cancelled")
        return True

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted job left the pending/running states."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            futures = [
                j.future for j in self._jobs.values() if j.future is not None
            ]
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
        loud :class:`~repro.errors.ServiceError` here than a job stuck
        "running" forever.
        """
        by_state = {state: 0 for state in JobState.ALL}
        stuck: List[str] = []
        with self._lock:
            for job in self._jobs.values():
                by_state[job.record.state] += 1
                if (
                    job.future is not None
                    and job.future.done()
                    and not job.future.cancelled()
                    and job.record.state in (JobState.PENDING, JobState.RUNNING)
                ):
                    stuck.append(job.record.job_id)
        if stuck:
            raise ServiceError(
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
            "batching": (
                None if self._batcher is None else self._batcher.stats()
            ),
        }
        return out

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
            # A lost node keeps its (dead) entry for observability; only
            # workers still believed alive count toward readiness.
            worker_stats = {
                key: s for key, s in self._proc_pool.worker_stats().items()
                if s.get("alive", True)
            }
            worker_count = len(worker_stats)
            workers_alive = bool(worker_stats)
            if worker_stats:
                now = time.time()
                heartbeat_age = max(
                    now - s.get("last_seen", now)
                    for s in worker_stats.values()
                )
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

    def _run_job(self, job_id: str, request: ScheduleRequest) -> ScheduleResponse:
        with self._lock:
            record = self._jobs[job_id].record
            if record.state == JobState.CANCELLED:
                # cancel() won the submit race; the pool picked up a
                # corpse. Surface it as a cancellation to result().
                raise FuturesCancelledError()
            record.state = JobState.RUNNING
            record.started_at = time.time()
        waited = getattr(self._job_context, "queue_waited_s", None)
        if waited is not None:
            self.events.publish(
                "job.started", job_id=job_id, queue_waited_s=waited
            )
        else:
            self.events.publish("job.started", job_id=job_id)
        self._job_context.job_id = job_id
        self._job_context.deadline = (
            None if self.job_timeout is None
            else time.monotonic() + self.job_timeout
        )
        try:
            attempt = 0
            while True:
                with self._lock:
                    record.attempts = attempt + 1
                try:
                    self._check_job_deadline()
                    response = self.schedule(request)
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
            stages = getattr(self._job_context, "stages", None)
            self.slo.observe_request(
                duration_s=stages.wall_s if stages is not None else 0.0,
                success=False,
                stages=stages.stages if stages is not None else None,
            )
            self.metrics.incr("jobs_failed")
            if isinstance(exc, JobTimeoutError):
                self.metrics.incr("jobs_timed_out")
            raise
        finally:
            self._job_context.job_id = None
            self._job_context.deadline = None
        with self._lock:
            record.state = JobState.DONE
            record.response = response
            record.finished_at = time.time()
        finished_data: Dict[str, Any] = {
            "job_id": job_id, "state": JobState.DONE,
            "cached": response.cached, "elapsed_s": response.elapsed_s,
        }
        if response.stages is not None:
            finished_data["stages"] = response.stages["stages"]
            finished_data["wall_s"] = response.stages["wall_s"]
        self.events.publish("job.finished", **finished_data)
        self.metrics.incr("jobs_done")
        return response

    def _check_job_deadline(self) -> None:
        """Cooperative per-job timeout (checked between evaluation reps)."""
        deadline = getattr(self._job_context, "deadline", None)
        if deadline is not None and time.monotonic() > deadline:
            raise JobTimeoutError(
                f"job exceeded its {self.job_timeout}s timeout"
            )

    def _compute(self, request: ScheduleRequest) -> ScheduleResponse:
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
            if self._batcher is not None:
                if self._batcher.served_batched(request):
                    self.metrics.incr("admission_batched")
                response = self._batcher.compute(request)
                stage = "batched"
            else:
                response = self._compute_in_pool(request)
                stage = "execute"
        stages = getattr(self._job_context, "stages", None)
        if stages is not None:
            stages.mark(stage)
        evaluation = response.evaluation
        if evaluation:
            n_reps = evaluation["n_reps"]
            self._publish_progress("evaluating", n_reps, n_reps)
            self.metrics.incr("evaluation_reps", n_reps)
        return replace(response, elapsed_s=time.perf_counter() - started)

    def _compute_in_pool(self, request: ScheduleRequest) -> ScheduleResponse:
        """Route one compute into the worker pool, supervised from here.

        The child cannot check the cooperative deadline, so the parent
        bounds the worker call with the job's remaining budget and maps a
        pool timeout onto the same :class:`~repro.errors.JobTimeoutError`
        the thread path raises. Worker crashes surface as
        :class:`~repro.errors.WorkerCrashError` (not a ``ReproError``), so
        the job retry loop treats them as transient.
        """
        deadline = getattr(self._job_context, "deadline", None)
        remaining: Optional[float] = None
        if deadline is not None:
            remaining = max(deadline - time.monotonic(), 0.001)
        self._publish_progress("dispatched", 1, 1)
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

    # ------------------------------------------------------------------
    # spec-family batching callables (see repro.admission.batcher)
    # ------------------------------------------------------------------
    def _family_base(self, request: ScheduleRequest) -> _FamilyBase:
        """:func:`_plan` with this job's progress hook."""
        return _plan(request, self._publish_progress)

    def _family_rep(self, base: _FamilyBase, seed: int) -> Dict[str, Any]:
        """:func:`_replicate` behind the cooperative job deadline."""
        self._check_job_deadline()
        return _replicate(base, seed)

    def _record_run(
        self,
        request: ScheduleRequest,
        response: ScheduleResponse,
        *,
        admission: Optional[Dict[str, Any]] = None,
        stages: Optional[Dict[str, Any]] = None,
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
        if stages is not None:
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
            trace_id=getattr(self._job_context, "job_id", None) or "",
            extra=extra,
        )
        try:
            self.ledger.record(row)
        except Exception:
            # Archiving must never fail a request; surface via metrics.
            self.metrics.incr("ledger_errors")

    def _publish_progress(self, stage: str, done: int, total: int) -> None:
        job_id = getattr(self._job_context, "job_id", None)
        if job_id is not None:
            self.events.publish(
                "job.progress", job_id=job_id, stage=stage,
                done=done, total=total,
            )

def _summary(values: List[float]) -> Dict[str, float]:
    return {
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
        "p95": quantile(values, 0.95),
    }
