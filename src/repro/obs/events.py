"""Thread-safe in-process pub/sub bus for run and job lifecycle events.

The scheduling service and the run ledger publish small, JSON-ready
events as work moves through the system::

    job.queued         {job_id, fingerprint, algorithm}
    job.started        {job_id}
    job.progress       {job_id, stage, done, total}
    job.finished       {job_id, state, error?}
    run.recorded       {run_id, algorithm, workflow, ...}
    load_run.recorded  {load_id, label, config_fingerprint, ...}

Subscribers attach a bounded queue; publishing never blocks (a slow
subscriber drops events and the drop is counted, it does not back up the
publisher). A bounded history ring lets late subscribers replay what they
missed — the SSE endpoints rely on this to show a finished job's full
lifecycle. Every event carries a bus-wide monotonically increasing ``seq``
so replay + live streams can be merged without duplicates.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "Event",
    "EventBus",
    "Subscription",
    "JOB_EVENT_TYPES",
    "RUN_RECORDED",
    "LOAD_RUN_RECORDED",
    "FAULT_INJECTED",
    "FAULT_PREEMPTED",
    "RECOVERY_APPLIED",
    "RECOVERY_REJECTED",
    "RECOVERY_CHECKPOINT_RESTART",
    "WORKER_CRASHED",
    "NODE_JOINED",
    "NODE_LOST",
    "SHARD_REASSIGNED",
    "ADMISSION_ADMITTED",
    "ADMISSION_REJECTED",
]

#: The job lifecycle event types, in their natural order. ``job.retried``
#: and ``job.failed`` only appear on unhappy paths; ``job.finished`` is
#: always the terminal event (after ``job.failed`` when the job failed),
#: which is what lets SSE job streams end on a single event type.
JOB_EVENT_TYPES = (
    "job.queued",
    "job.started",
    "job.progress",
    "job.retried",
    "job.failed",
    "job.finished",
)

#: Published by the ledger after a run row is committed.
RUN_RECORDED = "run.recorded"

#: Published by the ledger after a load-run row is committed.
LOAD_RUN_RECORDED = "load_run.recorded"

#: Published by the fault runner for every injected fault that fired.
FAULT_INJECTED = "fault.injected"

#: Published by the fault runner for every spot VM a correlated market
#: revocation burst killed (carries the category and warning lead time).
FAULT_PREEMPTED = "fault.preempted"

#: Published by the fault runner when a recovery is accepted / refused.
RECOVERY_APPLIED = "recovery.applied"
RECOVERY_REJECTED = "recovery.rejected"

#: Published by the fault runner when an accepted recovery resumes tasks
#: from banked spot checkpoints instead of re-executing them from scratch.
RECOVERY_CHECKPOINT_RESTART = "recovery.checkpoint_restart"

#: Published by :class:`repro.parallel.WorkerPool` when a worker process
#: dies mid-shard (the pool respawns and retries the affected shards).
WORKER_CRASHED = "worker.crashed"

#: Published by :class:`repro.cluster.ClusterPool` when a remote worker
#: node completes its handshake (carries address, pid, slots).
NODE_JOINED = "node.joined"

#: Published when a node's connection drops or its heartbeats go stale;
#: its in-flight shards are requeued onto the surviving nodes.
NODE_LOST = "node.lost"

#: Published per shard moved off a dead or slow node (carries the shard
#: index, the node it left, and the retry attempt number).
SHARD_REASSIGNED = "shard.reassigned"

#: Published by the admission controller for every decision: an admitted
#: request carries its tenant, priority and pre-admission estimate; a
#: refusal carries the typed reason (rate_limited / budget_exhausted /
#: queue_full) and the backoff hint.
ADMISSION_ADMITTED = "admission.admitted"
ADMISSION_REJECTED = "admission.rejected"


@dataclass(frozen=True)
class Event:
    """One published event (immutable; ``data`` is JSON-ready)."""

    seq: int
    type: str
    ts: float
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (used by the SSE endpoints and tests)."""
        return {"seq": self.seq, "type": self.type, "ts": self.ts,
                "data": dict(self.data)}

    def to_sse(self) -> str:
        """Render as one Server-Sent-Events frame (trailing blank line)."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return f"id: {self.seq}\nevent: {self.type}\ndata: {payload}\n\n"


class Subscription:
    """One subscriber's bounded event queue (see :meth:`EventBus.subscribe`).

    Iterate with :meth:`get` / :meth:`events`; always detach via
    :meth:`close` (or use the subscription as a context manager) so the bus
    stops fanning out to it.
    """

    def __init__(
        self,
        bus: "EventBus",
        *,
        types: Optional[Sequence[str]] = None,
        maxsize: int = 1024,
    ) -> None:
        self._bus = bus
        self._types = None if types is None else frozenset(types)
        self._queue: "queue.Queue[Event]" = queue.Queue(maxsize=maxsize)
        self.dropped = 0
        self.closed = False

    # Called by the bus (outside its lock; see EventBus.publish).
    def _offer(self, event: Event) -> None:
        if self._types is not None and event.type not in self._types:
            return
        try:
            self._queue.put_nowait(event)
        except queue.Full:
            self.dropped += 1
            self._bus._note_drop(event.type)

    def get(self, timeout: Optional[float] = None) -> Optional[Event]:
        """Next event, or ``None`` when ``timeout`` elapses first."""
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def events(self, *, timeout: Optional[float] = None) -> Iterator[Event]:
        """Yield events until ``timeout`` seconds pass with none arriving."""
        while True:
            event = self.get(timeout=timeout)
            if event is None:
                return
            yield event

    def close(self) -> None:
        """Detach from the bus; idempotent."""
        self.closed = True
        self._bus._detach(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class EventBus:
    """Publish/subscribe with bounded history replay (thread-safe).

    ``history`` bounds the replay ring; older events fall off silently
    (their loss is visible as a gap in ``seq``). Events dropped because a
    *subscriber's* bounded queue overflowed are counted — per
    subscriber (``Subscription.dropped``), bus-wide
    (:attr:`dropped_total`, by event type in :meth:`dropped_by_type`),
    and into an optional :class:`~repro.service.metrics.MetricsRegistry`
    as the ``events_dropped`` counter (rendered as
    ``repro_events_dropped_total`` on ``/metrics``).
    """

    def __init__(self, *, history: int = 2048,
                 metrics: Optional[Any] = None) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._history: Deque[Event] = deque(maxlen=history)
        self._subscribers: List[Subscription] = []
        self._dropped_by_type: Dict[str, int] = {}
        self.dropped_total = 0
        #: Optional metrics registry; assignable after construction (the
        #: engine wires its own registry into a caller-supplied bus).
        self.metrics = metrics

    def _note_drop(self, event_type: str) -> None:
        # Called from _offer, outside the bus lock (publish fans out
        # unlocked so a slow subscriber cannot block the bus).
        with self._lock:
            self.dropped_total += 1
            self._dropped_by_type[event_type] = (
                self._dropped_by_type.get(event_type, 0) + 1)
        metrics = self.metrics
        if metrics is not None:
            metrics.incr("events_dropped")

    def dropped_by_type(self) -> Dict[str, int]:
        """Bus-wide dropped-event counts keyed by event type."""
        with self._lock:
            return dict(self._dropped_by_type)

    def publish(self, type: str, **data: Any) -> Event:
        """Publish one event; returns it (with its assigned ``seq``)."""
        with self._lock:
            self._seq += 1
            event = Event(seq=self._seq, type=type, ts=time.time(), data=data)
            self._history.append(event)
            subscribers = list(self._subscribers)
        for sub in subscribers:
            sub._offer(event)
        return event

    def subscribe(
        self,
        *,
        types: Optional[Sequence[str]] = None,
        maxsize: int = 1024,
    ) -> Subscription:
        """Attach a new subscriber (optionally filtered to ``types``)."""
        sub = Subscription(self, types=types, maxsize=maxsize)
        with self._lock:
            self._subscribers.append(sub)
        return sub

    def _detach(self, sub: Subscription) -> None:
        with self._lock:
            try:
                self._subscribers.remove(sub)
            except ValueError:
                pass

    def history(
        self,
        *,
        types: Optional[Sequence[str]] = None,
        match: Optional[Callable[[Event], bool]] = None,
        after_seq: int = 0,
        limit: Optional[int] = None,
    ) -> List[Event]:
        """Replay buffered events (oldest first), filtered.

        ``after_seq`` skips events with ``seq <= after_seq``; ``types``
        keeps only the named event types; ``match`` is an arbitrary
        predicate; ``limit`` keeps the **newest** matching events.
        """
        wanted = None if types is None else frozenset(types)
        with self._lock:
            out = [
                ev for ev in self._history
                if ev.seq > after_seq
                and (wanted is None or ev.type in wanted)
                and (match is None or match(ev))
            ]
        if limit is not None and len(out) > limit:
            # slice from the front: out[-limit:] would return everything
            # for limit == 0
            out = out[len(out) - limit:]
        return out

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently published event."""
        with self._lock:
            return self._seq

    @property
    def n_subscribers(self) -> int:
        """Currently attached subscribers."""
        with self._lock:
            return len(self._subscribers)
