"""Crash-tolerant process pool with ordered results and pool metrics.

:class:`WorkerPool` wraps :class:`concurrent.futures.ProcessPoolExecutor`
with the semantics the rest of :mod:`repro` needs:

* **ordered results** — :meth:`WorkerPool.map` returns results positionally,
  never by completion order, so :class:`repro.parallel.ShardPlan` merges
  stay bit-identical to the serial loop;
* **bounded in-flight work** — at most ``max_inflight`` items are submitted
  at once, so a thousand-cell sweep does not pickle a thousand workflows
  up front;
* **crash recovery** — a dying worker poisons every in-flight future with
  :class:`~concurrent.futures.process.BrokenProcessPool`; the pool counts
  an attempt against each affected item, publishes a ``worker.crashed``
  event, bumps the ``worker_crashes`` counter (rendered as
  ``repro_worker_crashes_total`` by the Prometheus exporter), respawns the
  executor and requeues the items. An item over ``max_retries`` raises
  :class:`repro.errors.WorkerCrashError` — deliberately not a
  ``ReproError`` so callers with their own retry policy may retry it;
* **fork hygiene** — workers start by resetting the process-global ledger
  and tracer: a forked child inherits the parent's open SQLite connection
  and span buffers, and must never write to either. All recording happens
  in the parent, in serial order;
* **trace propagation** — when the *parent's* tracer is live, each item
  runs under a worker-local :class:`~repro.obs.tracing.Tracer` sharing
  the parent's ``trace_id``; its span/counter payload rides back with the
  result and is merged into the parent tracer
  (:meth:`~repro.obs.tracing.Tracer.merge_payload`), so one exported
  trace covers the whole fan-out. Untraced runs ship no context and pay
  nothing.

Shard functions must be module-level (picklable); results flow back as
plain values. Per-worker heartbeat/latency aggregates are available from
:meth:`WorkerPool.worker_stats` and are pushed into a
:class:`repro.service.metrics.MetricsRegistry` when one is supplied.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import WorkerConfigError, WorkerCrashError
from ..obs.events import WORKER_CRASHED
from ..obs.tracing import Tracer, get_tracer, use_tracer

__all__ = ["WorkerPool", "resolve_workers"]


def resolve_workers(workers: int) -> int:
    """Normalise a user-facing ``workers`` knob.

    ``0`` (and ``1``) mean serial; negative means "all available cores";
    anything else passes through. Callers use the result to decide whether
    to build a pool at all.

    When the knob is left at its default (``0``), a ``REPRO_WORKERS``
    environment variable overrides it, so ops can tune fan-out without
    touching specs or CLI flags. The override must be a positive
    integer; anything else raises
    :class:`~repro.errors.WorkerConfigError` — a silent fallback to
    serial would hide the typo. An explicit flag always beats the
    environment.
    """
    if workers == 0:
        env = os.environ.get("REPRO_WORKERS")
        if env is not None and env.strip():
            try:
                value = int(env)
            except ValueError:
                raise WorkerConfigError(
                    f"REPRO_WORKERS must be an integer, got {env!r}"
                ) from None
            if value <= 0:
                raise WorkerConfigError(
                    f"REPRO_WORKERS must be positive, got {value}"
                )
            return value
    if workers < 0:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            return multiprocessing.cpu_count()
    return workers


def _worker_initializer() -> None:
    """Runs once in every worker process before it takes work.

    Under the default ``fork`` start method the child inherits the
    parent's process-global ledger (an open SQLite connection that must
    only be used from the parent) and tracer. Reset both to their null
    implementations: workers compute and return values; the parent
    records.

    Workers also ignore SIGINT: a terminal Ctrl-C reaches the whole
    foreground process group, but shutdown belongs to the parent — it
    drains in-flight work and closes the pool, and workers must not die
    mid-task (or spray KeyboardInterrupt tracebacks) underneath it.
    """
    import signal

    from ..obs.ledger import set_ledger
    from ..obs.tracing import set_tracer

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    set_ledger(None)
    set_tracer(None)


def _invoke(
    fn: Callable[[Any], Any],
    item: Any,
    trace_ctx: Optional[Dict[str, Any]] = None,
) -> Tuple[Any, int, float, Optional[Dict[str, Any]]]:
    """Worker-side wrapper: run ``fn(item)``, report pid and latency.

    When the parent's tracer is live it ships a ``trace_ctx`` carrying
    its ``trace_id``; the wrapper then installs a worker-local
    :class:`~repro.obs.tracing.Tracer` under the same id for the
    duration of the item and returns its
    :meth:`~repro.obs.tracing.Tracer.export_payload` as the fourth
    element, so the parent can merge worker spans/counters into one
    request trace. With no context (the common untraced path) the
    fourth element is ``None`` and tracing costs nothing — the
    initializer's null tracer stays in place.
    """
    start = time.perf_counter()
    if trace_ctx is None:
        result = fn(item)
        return result, os.getpid(), time.perf_counter() - start, None
    tracer = Tracer(trace_id=trace_ctx.get("trace_id"))
    with use_tracer(tracer):
        result = fn(item)
    payload = tracer.export_payload()
    return result, os.getpid(), time.perf_counter() - start, payload


class WorkerPool:
    """A crash-tolerant, metrics-instrumented process pool.

    Parameters
    ----------
    workers:
        Number of worker processes (must be >= 1 — resolve serial
        fallback *before* constructing a pool, e.g. via
        :func:`resolve_workers` and :meth:`ShardPlan.plan`).
    max_retries:
        How many times one item may be requeued after a worker crash
        before :class:`WorkerCrashError` is raised.
    max_inflight:
        Cap on concurrently submitted items (default ``2 × workers``).
    metrics:
        Optional :class:`repro.service.metrics.MetricsRegistry`; receives
        ``worker_tasks`` / ``worker_crashes`` / ``worker_respawns``
        counters and ``worker_task_seconds`` latency observations.
    events:
        Optional :class:`repro.obs.events.EventBus`; receives
        ``worker.crashed`` events.
    mp_context:
        Optional multiprocessing context name (``"fork"`` / ``"spawn"``);
        defaults to the platform default.
    """

    def __init__(
        self,
        workers: int,
        *,
        max_retries: int = 2,
        max_inflight: Optional[int] = None,
        metrics: Optional[Any] = None,
        events: Optional[Any] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"WorkerPool needs >= 1 worker, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.workers = workers
        self.max_retries = max_retries
        self.max_inflight = max_inflight or 2 * workers
        self._metrics = metrics
        self._events = events
        self._ctx = (
            multiprocessing.get_context(mp_context) if mp_context else None
        )
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self.n_crashes = 0
        self.n_respawns = 0
        # pid -> {"tasks": int, "busy_s": float, "last_seen": float}
        self._worker_stats: Dict[int, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # executor lifecycle

    def _get_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=self._ctx,
                    initializer=_worker_initializer,
                )
            return self._executor

    def _drop(self, executor: ProcessPoolExecutor) -> bool:
        """Kill ``executor``'s workers and shut it down without waiting.

        The next call starts a fresh executor lazily. Returns False, and
        leaves everything alone, when another thread sharing the pool has
        already replaced ``executor``. Items other threads still have in
        flight on it fail as after a worker crash, and are retried so.
        """
        with self._lock:
            if self._executor is not executor:
                return False
            self._executor = None
        # Terminating is the only way to stop a running task; the
        # executor has no public handle on its workers before 3.14.
        for process in list((executor._processes or {}).values()):
            process.terminate()
        executor.shutdown(wait=False, cancel_futures=True)
        return True

    def _respawn(self, broken: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Tear down a broken executor and start a fresh one."""
        if self._drop(broken):
            with self._lock:
                self.n_respawns += 1
            if self._metrics is not None:
                self._metrics.incr("worker_respawns")
        return self._get_executor()

    def close(self) -> None:
        """Shut the pool down; idempotent."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # bookkeeping

    def _note_completion(self, pid: int, elapsed: float) -> None:
        stats = self._worker_stats.setdefault(
            pid, {"tasks": 0, "busy_s": 0.0, "last_seen": 0.0}
        )
        stats["tasks"] += 1
        stats["busy_s"] += elapsed
        stats["last_seen"] = time.time()
        if self._metrics is not None:
            self._metrics.incr("worker_tasks")
            self._metrics.observe("worker_task_seconds", elapsed)

    def _note_crash(self, indices: Sequence[int], attempt: int) -> None:
        self.n_crashes += 1
        if self._metrics is not None:
            self._metrics.incr("worker_crashes")
        if self._events is not None:
            self._events.publish(
                WORKER_CRASHED,
                shard_indices=sorted(int(i) for i in indices),
                attempt=attempt,
                pool_workers=self.workers,
            )

    def worker_stats(self) -> Dict[int, Dict[str, float]]:
        """Per-worker-pid heartbeat snapshot: tasks, busy seconds, last_seen."""
        return {pid: dict(stats) for pid, stats in self._worker_stats.items()}

    # ------------------------------------------------------------------
    # execution

    def run(self, fn: Callable[[Any], Any], item: Any,
            timeout: Optional[float] = None) -> Any:
        """Run one ``fn(item)`` in a worker, with crash retry.

        Used by the service's process executor for single jobs. A
        ``timeout`` bounds each attempt; crashes are retried like
        :meth:`map`, timeouts are not (the caller owns deadline policy).
        """
        (result,) = self.map(fn, [item], timeout=timeout)
        return result

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        timeout: Optional[float] = None,
    ) -> List[Any]:
        """Run ``fn`` over ``items`` in worker processes, results in order.

        Items are dispatched with at most :attr:`max_inflight` outstanding.
        A worker crash fails every in-flight future; each affected item is
        requeued (up to :attr:`max_retries` extra attempts each) on a
        respawned executor. Exceptions raised by ``fn`` itself propagate
        unchanged — they are the item's answer, not an infrastructure
        fault, so they are never retried. When ``timeout`` expires the
        pool's workers are terminated before :class:`TimeoutError` is
        raised; the next call starts fresh ones.
        """
        results: List[Any] = [None] * len(items)
        pending: deque = deque(range(len(items)))
        attempts = [0] * len(items)
        inflight: Dict[Future, int] = {}
        deadline = None if timeout is None else time.monotonic() + timeout

        # Propagate the live tracer's identity to workers; their spans
        # come back in each item's payload and merge under the span the
        # caller currently has open (one trace across the fork seam).
        parent_tracer = get_tracer()
        trace_ctx: Optional[Dict[str, Any]] = None
        merge_parent_id: Optional[int] = None
        if parent_tracer.enabled:
            trace_ctx = {"trace_id": parent_tracer.trace_id}
            merge_parent_id = parent_tracer.current_span_id()

        executor = self._get_executor()
        while pending or inflight:
            while pending and len(inflight) < self.max_inflight:
                try:
                    future = executor.submit(
                        _invoke, fn, items[pending[0]], trace_ctx)
                except (BrokenProcessPool, RuntimeError):
                    # Broken, or dropped by another thread sharing the
                    # pool: items in flight fail as crashed below; with
                    # none in flight, move to a fresh executor now.
                    if inflight:
                        break
                    executor = self._respawn(executor)
                    continue
                inflight[future] = pending.popleft()
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # Free the worker stuck on the late item, so close()
                    # need not wait for it.
                    self._drop(executor)
                    raise TimeoutError(
                        f"WorkerPool.map timed out with {len(inflight)} "
                        f"in-flight and {len(pending)} queued items"
                    )
            done, _ = wait(
                inflight, timeout=remaining, return_when=FIRST_COMPLETED
            )
            crashed = False
            for future in done:
                index = inflight.pop(future)
                try:
                    value, pid, elapsed, span_payload = future.result()
                except BrokenProcessPool:
                    # The whole pool is poisoned: every other in-flight
                    # future fails too. Collect them all, retry as one
                    # batch on a fresh executor.
                    crashed = True
                    pending.appendleft(index)
                    break
                self._note_completion(pid, elapsed)
                if span_payload is not None:
                    parent_tracer.merge_payload(
                        span_payload,
                        parent_id=merge_parent_id,
                        worker_pid=pid,
                    )
                results[index] = value
            if crashed:
                # pending[0] is the future that surfaced the crash (pushed
                # back above); every other in-flight future is poisoned too.
                survivors = list(inflight.values())
                affected = [pending[0]] + survivors
                inflight.clear()
                pending.extend(survivors)
                self._note_crash(affected, attempt=max(
                    attempts[i] for i in affected) + 1)
                exhausted = []
                for index in affected:
                    attempts[index] += 1
                    if attempts[index] > self.max_retries:
                        exhausted.append(index)
                if exhausted:
                    raise WorkerCrashError(
                        f"worker crashed and {len(exhausted)} item(s) "
                        f"exhausted {self.max_retries} retries",
                        shard_indices=tuple(sorted(exhausted)),
                    )
                executor = self._respawn(executor)
        return results
