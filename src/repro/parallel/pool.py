"""Ordered, crash-tolerant ``map`` over worker pools; the process pool.

:class:`OrderedPool` holds the one ``map`` loop every pool runs. A
subclass is a *transport*: it starts ``fn(item)`` on some worker, hands
the loop a :class:`~concurrent.futures.Future` for it, and accounts for
a worker the loop reports lost. :class:`WorkerPool` takes its futures
from a :class:`~concurrent.futures.ProcessPoolExecutor`;
:class:`repro.cluster.ClusterPool` resolves its own from the receive
thread of each node's connection. A ``map`` call waits only on the
futures it submitted, so one pool serves any number of concurrent
callers. The loop gives every pool:

* **ordered results** — :meth:`OrderedPool.map` returns results
  positionally, never by completion order, so
  :class:`repro.parallel.ShardPlan` merges stay bit-identical to the
  serial loop. The first answer per item wins; a later duplicate (a
  stolen or reassigned copy) is dropped;
* **bounded in-flight work** — one call has at most ``max_inflight``
  items submitted at once, so a thousand-cell sweep does not pickle a
  thousand workflows up front;
* **loss recovery** — a future that fails with
  :class:`~concurrent.futures.BrokenExecutor` (a dead worker process, a
  lost node) or is cancelled means its worker is lost. Every item the
  call had in flight there is charged an attempt and requeued; an item
  over ``max_retries`` raises :class:`repro.errors.WorkerCrashError` —
  deliberately not a ``ReproError``, so callers with their own retry
  policy may retry it;
* **exception transparency** — an exception raised by ``fn`` is the
  item's answer: it propagates unchanged and is never retried;
* **trace propagation** — when the *caller's* tracer is live, each item
  runs under a worker-local :class:`~repro.obs.tracing.Tracer` sharing
  the caller's ``trace_id`` (:func:`run_item`); its span/counter payload
  rides back with the result and is merged into the caller's tracer
  (:meth:`~repro.obs.tracing.Tracer.merge_payload`), so one exported
  trace covers the whole fan-out. Untraced runs ship no context and pay
  nothing;
* **metrics** — ``worker_tasks`` and ``worker_task_seconds`` on the
  :class:`repro.service.metrics.MetricsRegistry` passed as ``metrics``.

:class:`WorkerPool` adds fork hygiene (:func:`reset_process_globals` in
every worker: a forked child inherits the parent's open SQLite ledger and
span buffers and must never write to either) and crash accounting: the
first caller to see a broken executor publishes ``worker.crashed``, bumps
``worker_crashes`` (``repro_worker_crashes_total`` in the Prometheus
exposition) and ``worker_respawns``, and drops the executor; the next
submit starts a fresh one. Shard functions must be module-level
(picklable); results flow back as plain values.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

from ..errors import WorkerConfigError, WorkerCrashError
from ..obs.events import WORKER_CRASHED
from ..obs.tracing import Tracer, get_tracer, use_tracer

__all__ = [
    "OrderedPool",
    "WorkerPool",
    "reset_process_globals",
    "resolve_workers",
    "run_item",
]


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


# ----------------------------------------------------------------------
# worker side


def reset_process_globals() -> None:
    """Reset the process-global ledger and tracer to their null forms.

    Every worker, forked process or freestanding node, runs this before
    it takes work: workers compute and return values; the caller
    records, in serial order.
    """
    from ..obs.ledger import set_ledger
    from ..obs.tracing import set_tracer

    set_ledger(None)
    set_tracer(None)


def _worker_initializer() -> None:
    """Runs once in every :class:`WorkerPool` process before it takes work.

    Besides :func:`reset_process_globals`, workers ignore SIGINT: a
    terminal Ctrl-C reaches the whole foreground process group, but
    shutdown belongs to the parent — it drains in-flight work and closes
    the pool, and workers must not die mid-task (or spray
    KeyboardInterrupt tracebacks) underneath it.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    reset_process_globals()


def run_item(
    fn: Callable[[Any], Any],
    item: Any,
    trace_ctx: Optional[Dict[str, Any]] = None,
) -> Tuple[Any, float, Optional[Dict[str, Any]]]:
    """Run ``fn(item)`` in a worker: ``(result, elapsed seconds, spans)``.

    When the caller's tracer is live it ships a ``trace_ctx`` carrying
    its ``trace_id``; the item then runs under a worker-local
    :class:`~repro.obs.tracing.Tracer` under the same id, and the third
    element is that tracer's
    :meth:`~repro.obs.tracing.Tracer.export_payload`. With no context
    (the common untraced path) it is ``None`` and tracing costs nothing.
    """
    start = time.perf_counter()
    if trace_ctx is None:
        result = fn(item)
        return result, time.perf_counter() - start, None
    tracer = Tracer(trace_id=trace_ctx.get("trace_id"))
    with use_tracer(tracer):
        result = fn(item)
    return result, time.perf_counter() - start, tracer.export_payload()


def _invoke(
    fn: Callable[[Any], Any],
    item: Any,
    trace_ctx: Optional[Dict[str, Any]] = None,
) -> Tuple[Any, int, float, Optional[Dict[str, Any]]]:
    """:func:`run_item` in a pool process, tagged with the process id."""
    result, elapsed, payload = run_item(fn, item, trace_ctx)
    return result, os.getpid(), elapsed, payload


# ----------------------------------------------------------------------
# the shared loop


#: A submitted item as the loop tracks it: future -> (item index, worker).
Inflight = Dict[Future, Tuple[int, Any]]


class OrderedPool:
    """The ordered ``map`` loop every pool shares (see the module docs).

    A transport subclass sets :attr:`workers` and :attr:`max_inflight`
    and implements :meth:`_submit`, :meth:`_note_lost` and ``close``;
    it may override :meth:`_note_task`, :meth:`_steal` and
    :meth:`_abandon`. A transport's future resolves to
    ``(value, pid, elapsed seconds, span payload or None)``.
    """

    #: Worker slots the pool drives; sizes :class:`ShardPlan` shards.
    workers: int
    #: Most items one ``map`` call keeps submitted at once.
    max_inflight: int
    #: Seconds between wake-ups of a ``map`` with nothing completing
    #: (``None``: wake on completions only); set by a transport whose
    #: :meth:`_steal` acts on age.
    _poll_s: Optional[float] = None

    def __init__(
        self,
        *,
        max_retries: int,
        metrics: Optional[Any],
        events: Optional[Any],
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = max_retries
        self._metrics = metrics
        self._events = events
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # transport hooks

    def _submit(
        self,
        fn: Callable[[Any], Any],
        item: Any,
        trace_ctx: Optional[Dict[str, Any]],
    ) -> Optional[Tuple[Future, Any]]:
        """Start ``fn(item)``: ``(future, worker)``, or ``None`` if no
        worker is left."""
        raise NotImplementedError

    def _note_lost(
        self, worker: Any, charged: Sequence[Tuple[int, int]]
    ) -> str:
        """Account for a lost ``worker``; return the loss as a phrase.

        ``charged`` lists ``(item index, attempts so far)`` of every item
        the loss cost an attempt; those within ``max_retries`` are
        requeued, the rest raise :class:`WorkerCrashError`.
        """
        raise NotImplementedError

    def _note_task(self, pid: int, elapsed: float) -> None:
        """Record one completed item on worker ``pid`` (default: no-op)."""

    def _steal(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        inflight: Inflight,
        trace_ctx: Optional[Dict[str, Any]],
    ) -> List[Tuple[Future, int, Any]]:
        """Duplicate slow items once nothing is queued (default: none).

        Returns ``(future, item index, worker)`` of each copy started.
        """
        return []

    def _abandon(self, workers: Iterable[Any]) -> None:
        """A timed-out call leaves ``workers`` behind (default: no-op)."""

    def close(self) -> None:
        """Release the pool's workers; idempotent."""
        raise NotImplementedError

    def __enter__(self) -> "OrderedPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # execution

    def run(self, fn: Callable[[Any], Any], item: Any,
            timeout: Optional[float] = None) -> Any:
        """Run one ``fn(item)`` on a worker: a single-item :meth:`map`.

        Used by the service's pool executors for single jobs. Worker
        losses are retried like :meth:`map`; a timeout is not (the caller
        owns deadline policy).
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
        """Run ``fn`` over ``items`` on the pool's workers, results in order.

        At most :attr:`max_inflight` items are submitted at once. A lost
        worker costs each of this call's items on it one attempt; they
        are requeued until one exceeds :attr:`max_retries`, which raises
        :class:`WorkerCrashError`, as does a pool with no worker left.
        Exceptions raised by ``fn`` itself propagate unchanged. When
        ``timeout`` expires, :class:`TimeoutError` is raised (a process
        pool first terminates the workers stuck on the late items).
        """
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        n_items = len(items)
        results: List[Any] = [None] * n_items
        done = [False] * n_items
        attempts = [0] * n_items
        n_done = 0
        pending: deque = deque(range(n_items))
        inflight: Inflight = {}
        deadline = None if timeout is None else time.monotonic() + timeout

        # Propagate the live tracer's identity to workers; their spans
        # come back in each item's payload and merge under the span the
        # caller currently has open (one trace across the process seam).
        parent_tracer = get_tracer()
        trace_ctx: Optional[Dict[str, Any]] = None
        merge_parent_id: Optional[int] = None
        if parent_tracer.enabled:
            trace_ctx = {"trace_id": parent_tracer.trace_id}
            merge_parent_id = parent_tracer.current_span_id()

        while n_done < n_items:
            while pending and len(inflight) < self.max_inflight:
                index = pending.popleft()
                submitted = self._submit(fn, items[index], trace_ctx)
                if submitted is None:
                    unfinished = tuple(
                        i for i in range(n_items) if not done[i])
                    raise WorkerCrashError(
                        f"no live worker left; {len(unfinished)} item(s) "
                        f"unfinished",
                        shard_indices=unfinished,
                    )
                inflight[submitted[0]] = (index, submitted[1])
            if not pending:
                for future, index, worker in self._steal(
                        fn, items, inflight, trace_ctx):
                    inflight[future] = (index, worker)
            wait_s = self._poll_s
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._abandon({w for _i, w in inflight.values()})
                    raise TimeoutError(
                        f"{type(self).__name__}.map timed out with "
                        f"{len(inflight)} in-flight and {len(pending)} "
                        f"queued items"
                    )
                wait_s = remaining if wait_s is None else min(
                    wait_s, remaining)
            finished, _ = wait(
                inflight, timeout=wait_s, return_when=FIRST_COMPLETED)
            lost: Dict[Any, List[int]] = {}
            for future in finished:
                index, worker = inflight.pop(future)
                try:
                    value, pid, elapsed, span_payload = future.result()
                except (BrokenExecutor, CancelledError):
                    lost.setdefault(worker, []).append(index)
                    continue
                except Exception:
                    if done[index]:
                        continue  # a duplicate failed after the answer
                    raise
                if self._metrics is not None:
                    self._metrics.incr("worker_tasks")
                    self._metrics.observe("worker_task_seconds", elapsed)
                self._note_task(pid, elapsed)
                if done[index]:
                    continue  # a duplicate answered second: dropped
                if span_payload is not None:
                    parent_tracer.merge_payload(
                        span_payload, parent_id=merge_parent_id,
                        worker_pid=pid,
                    )
                results[index] = value
                done[index] = True
                n_done += 1
            for worker, indices in lost.items():
                pending.extend(self._charge_loss(
                    worker, indices, inflight, done, attempts))
        return results

    def _charge_loss(
        self,
        worker: Any,
        indices: List[int],
        inflight: Inflight,
        done: List[bool],
        attempts: List[int],
    ) -> List[int]:
        """Charge one attempt per item a lost worker held; return requeues.

        Every future on a lost worker has failed or will, so the call's
        other futures there are charged now too, in one report. An item
        already answered, or still running as a copy elsewhere, is free.
        """
        for future in [f for f, (_i, w) in inflight.items() if w is worker]:
            indices.append(inflight.pop(future)[0])
        running = {index for index, _w in inflight.values()}
        charged = []
        for index in dict.fromkeys(indices):
            if done[index] or index in running:
                continue
            attempts[index] += 1
            charged.append((index, attempts[index]))
        what = self._note_lost(worker, charged)
        exhausted = sorted(i for i, a in charged if a > self.max_retries)
        if exhausted:
            raise WorkerCrashError(
                f"{what} and {len(exhausted)} item(s) exhausted "
                f"{self.max_retries} retries",
                shard_indices=tuple(exhausted),
            )
        return [index for index, _a in charged]


# ----------------------------------------------------------------------
# the process transport


class WorkerPool(OrderedPool):
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
        Cap on the items one ``map`` call submits at once (default
        ``2 × workers``).
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
        super().__init__(
            max_retries=max_retries, metrics=metrics, events=events)
        self.workers = workers
        self.max_inflight = max_inflight or 2 * workers
        self._ctx = (
            multiprocessing.get_context(mp_context) if mp_context else None
        )
        self._executor: Optional[ProcessPoolExecutor] = None
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

        The next submit starts a fresh executor. Returns False, and
        leaves everything alone, when another thread sharing the pool has
        already replaced ``executor``. Queued futures are not cancelled:
        with the workers gone the executor fails every one of them with
        ``BrokenProcessPool``, which wakes the callers waiting on them.
        """
        with self._lock:
            if self._executor is not executor:
                return False
            self._executor = None
        # Terminating is the only way to stop a running task; the
        # executor has no public handle on its workers before 3.14.
        for process in list((executor._processes or {}).values()):
            process.terminate()
        executor.shutdown(wait=False)
        return True

    def close(self) -> None:
        """Shut the pool down; idempotent."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    # transport hooks

    def _submit(
        self,
        fn: Callable[[Any], Any],
        item: Any,
        trace_ctx: Optional[Dict[str, Any]],
    ) -> Tuple[Future, ProcessPoolExecutor]:
        while True:
            executor = self._get_executor()
            try:
                return executor.submit(_invoke, fn, item, trace_ctx), executor
            except BrokenProcessPool as exc:
                # Broken before the futures in flight on it said so: this
                # item is lost with them, and the crash counted once.
                broken: Future = Future()
                broken.set_exception(exc)
                return broken, executor
            except RuntimeError:
                if self._executor is executor:
                    raise
                # Dropped by another thread sharing the pool: go again on
                # the fresh executor.

    def _note_lost(
        self,
        executor: ProcessPoolExecutor,
        charged: Sequence[Tuple[int, int]],
    ) -> str:
        # One executor's failures can surface over several wait rounds
        # and several callers; only the caller that drops it counts.
        if self._drop(executor):
            with self._lock:
                self.n_crashes += 1
                self.n_respawns += 1
            if self._metrics is not None:
                self._metrics.incr("worker_crashes")
                self._metrics.incr("worker_respawns")
            if self._events is not None:
                self._events.publish(
                    WORKER_CRASHED,
                    shard_indices=sorted(i for i, _a in charged),
                    attempt=max((a for _i, a in charged), default=0),
                    pool_workers=self.workers,
                )
        return "worker crashed"

    def _note_task(self, pid: int, elapsed: float) -> None:
        with self._lock:
            stats = self._worker_stats.setdefault(
                pid, {"tasks": 0, "busy_s": 0.0, "last_seen": 0.0}
            )
            stats["tasks"] += 1
            stats["busy_s"] += elapsed
            stats["last_seen"] = time.time()

    def _abandon(self, workers: Iterable[ProcessPoolExecutor]) -> None:
        # Free the workers stuck on late items, so close() need not wait.
        for executor in workers:
            self._drop(executor)

    # ------------------------------------------------------------------
    # introspection

    def _live_pids(self) -> Set[int]:
        executor = self._executor
        processes = dict(getattr(executor, "_processes", None) or {})
        return {pid for pid, proc in processes.items() if proc.is_alive()}

    @property
    def alive_count(self) -> int:
        """Live worker processes of the current executor.

        0 before the first ``map`` and after a crash until the next
        submit starts a fresh executor.
        """
        return len(self._live_pids())

    def worker_stats(self) -> Dict[int, Dict[str, Any]]:
        """Per-pid snapshot of every process that ran an item.

        ``tasks``, ``busy_s`` and ``last_seen`` (the heartbeat), plus
        ``alive``: whether the pid is a live process of the current
        executor. A crashed or replaced worker keeps its entry.
        """
        live = self._live_pids()
        with self._lock:
            return {
                pid: dict(stats, alive=pid in live)
                for pid, stats in self._worker_stats.items()
            }
