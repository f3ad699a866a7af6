"""Span-based tracing and scheduler decision records.

The tracer answers two questions the paper's metrics cannot: *where does
wall-clock time go* (nested spans around scheduling, simulation, sweeps,
service requests) and *why did the scheduler do that* (one
:class:`DecisionRecord` per placed task, capturing the candidate hosts the
planner weighed and the budget arithmetic that picked the winner).

Instrumentation is free when disabled: the process-global tracer defaults
to a :class:`NullTracer` whose ``span`` returns a shared no-op context
manager and whose recording methods are empty. Hot call sites additionally
guard expensive record construction behind ``tracer.enabled``. Enable
collection for a region with::

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        make_scheduler("heft_budg").schedule(wf, platform, budget)
    print(len(tracer.spans), len(tracer.decisions))

Spans carry both a monotonic clock (``start_s``/``end_s`` from
``perf_counter``, used for durations) and a wall-clock epoch anchor
(``start_epoch_s``) so exporters can place them on a real timeline.

**Cross-process propagation.** Each tracer owns a ``trace_id``; the
worker pool (:mod:`repro.parallel.pool`) ships it to worker processes,
installs a worker-local tracer under the same id, and returns
:meth:`Tracer.export_payload` alongside each shard result. The parent
folds those in with :meth:`Tracer.merge_payload`, which re-anchors the
worker's monotonic timestamps onto the parent timeline via the shared
wall-clock epoch (``new_start = parent.origin_s + (span.start_epoch_s -
parent.origin_epoch_s)``, durations preserved) and re-parents worker
root spans under the caller's currently-open span — so one exported
Chrome trace shows gateway → admission → queue → worker shards → merge.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "Span",
    "DecisionRecord",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


@dataclass
class Span:
    """One timed region; nesting is recorded via ``parent_id``."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    start_epoch_s: float
    end_s: float = 0.0
    thread: str = ""
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return max(self.end_s - self.start_s, 0.0)

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (used by exporters and logs)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "start_epoch_s": self.start_epoch_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "thread": self.thread,
            "attributes": dict(self.attributes),
        }


@dataclass
class DecisionRecord:
    """Why one task landed where it did (see docs/OBSERVABILITY.md).

    ``kind`` is ``"host_selection"`` (Algorithm 2's getBestHost) or
    ``"refine_move"`` (an accepted Algorithm 5 re-mapping). ``allowance``
    is the dollars the task was allowed to spend (its share ``B_T`` plus
    the pot); ``remaining`` is what it handed back. ``candidates`` holds
    one compact dict per evaluated host, already sorted by the scheduler's
    preference.
    """

    kind: str
    task: str
    chosen_vm: Optional[int] = None
    category: str = ""
    eft: float = 0.0
    cost: float = 0.0
    allowance: float = 0.0
    remaining: float = 0.0
    within_budget: bool = True
    round: int = 0
    n_candidates: int = 0
    candidates: List[Dict[str, Any]] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready form, one line of the decision log."""
        out: Dict[str, Any] = {
            "kind": self.kind,
            "task": self.task,
            "chosen_vm": self.chosen_vm,
            "category": self.category,
            "eft": self.eft,
            "cost": self.cost,
            "allowance": self.allowance,
            "remaining": self.remaining,
            "within_budget": self.within_budget,
            "round": self.round,
            "n_candidates": self.n_candidates,
            "candidates": list(self.candidates),
        }
        out.update(self.extra)
        return out


class _ActiveSpan:
    """Context manager opened by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info: Any) -> None:
        self._tracer._finish(self.span)


class _NullSpanContext:
    """Shared no-op context manager; also quacks like a :class:`Span`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass

    def set(self, **attributes: Any) -> "_NullSpanContext":
        return self


_NULL_SPAN = _NullSpanContext()


class Tracer:
    """Collects spans, decision records, and named counters (thread-safe).

    ``max_spans``/``max_decisions`` bound memory on very long runs; once a
    buffer is full further records are counted in ``dropped`` instead of
    stored.
    """

    enabled = True

    def __init__(
        self, *, max_spans: int = 100_000, max_decisions: int = 1_000_000,
        trace_id: Optional[str] = None,
    ) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stack = threading.local()
        #: Request-scoped identity shared across process boundaries:
        #: worker-local tracers are created with the parent's id so a
        #: merged trace is one logical request.
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.max_spans = max_spans
        self.max_decisions = max_decisions
        self.spans: List[Span] = []
        self.decisions: List[DecisionRecord] = []
        self.counters: Dict[str, float] = {}
        self.dropped: Dict[str, int] = {"spans": 0, "decisions": 0}
        #: Wall-clock anchor: epoch seconds at perf_counter ``origin_s``.
        self.origin_epoch_s = time.time()
        self.origin_s = time.perf_counter()

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> _ActiveSpan:
        """Open a nested span: ``with tracer.span("simulate") as sp: ...``"""
        stack = self._parents()
        parent_id = stack[-1] if stack else None
        sp = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent_id,
            start_s=time.perf_counter(),
            start_epoch_s=time.time(),
            thread=threading.current_thread().name,
            attributes=dict(attributes) if attributes else {},
        )
        stack.append(sp.span_id)
        return _ActiveSpan(self, sp)

    def _parents(self) -> List[int]:
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = self._stack.ids = []
        return stack

    def current_span_id(self) -> Optional[int]:
        """Id of the calling thread's innermost open span, if any."""
        stack = self._parents()
        return stack[-1] if stack else None

    def _finish(self, span: Span) -> None:
        span.end_s = time.perf_counter()
        stack = self._parents()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        with self._lock:
            if len(self.spans) < self.max_spans:
                self.spans.append(span)
            else:
                self.dropped["spans"] += 1

    # ------------------------------------------------------------------
    def decide(self, record: DecisionRecord) -> None:
        """Append one decision record."""
        with self._lock:
            if len(self.decisions) < self.max_decisions:
                self.decisions.append(record)
            else:
                self.dropped["decisions"] += 1

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (created at 0 on first use)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    # ------------------------------------------------------------------
    def export_payload(self) -> Dict[str, Any]:
        """Picklable snapshot shipped across the process boundary.

        Returned by workers next to their shard results (see
        ``repro.parallel.pool.run_item``) and folded into the parent
        with :meth:`merge_payload`. Decision records deliberately stay
        worker-local — they can number in the millions and the decision
        log is a per-schedule artifact, not a per-request one.
        """
        with self._lock:
            spans = [sp.to_dict() for sp in self.spans]
            counters = dict(self.counters)
            dropped = dict(self.dropped)
        return {
            "trace_id": self.trace_id,
            "origin_epoch_s": self.origin_epoch_s,
            "origin_s": self.origin_s,
            "spans": spans,
            "counters": counters,
            "dropped": dropped,
        }

    def merge_payload(
        self,
        payload: Mapping[str, Any],
        *,
        parent_id: Optional[int] = None,
        worker_pid: Optional[int] = None,
    ) -> int:
        """Fold a worker tracer's :meth:`export_payload` into this one.

        Worker spans get fresh ids from this tracer's counter (parent
        links remapped), are re-anchored onto this tracer's monotonic
        timeline through the shared wall-clock epoch, and worker root
        spans are re-parented under ``parent_id`` (typically the span
        the caller had open when the shard was submitted). ``worker_pid``
        and the payload's ``trace_id`` are stamped as attributes so
        exporters can route the spans to per-worker process tracks.
        Counters merge additively. Returns the number of spans merged.
        """
        spans = list(payload.get("spans") or ())
        trace_id = payload.get("trace_id")
        merged = 0
        with self._lock:
            id_map = {
                int(data["span_id"]): next(self._ids) for data in spans
            }
            for data in spans:
                if len(self.spans) >= self.max_spans:
                    self.dropped["spans"] += len(spans) - merged
                    break
                old_parent = data.get("parent_id")
                if old_parent is not None and int(old_parent) in id_map:
                    new_parent: Optional[int] = id_map[int(old_parent)]
                else:
                    new_parent = parent_id
                start_epoch = float(
                    data.get("start_epoch_s") or self.origin_epoch_s)
                start_s = self.origin_s + (
                    start_epoch - self.origin_epoch_s)
                duration = float(data.get("duration_s") or 0.0)
                attributes = dict(data.get("attributes") or {})
                if worker_pid is not None:
                    attributes.setdefault("worker_pid", worker_pid)
                if trace_id:
                    attributes.setdefault("trace_id", trace_id)
                self.spans.append(Span(
                    name=str(data.get("name", "")),
                    span_id=id_map[int(data["span_id"])],
                    parent_id=new_parent,
                    start_s=start_s,
                    start_epoch_s=start_epoch,
                    end_s=start_s + duration,
                    thread=str(data.get("thread", "")),
                    attributes=attributes,
                ))
                merged += 1
            for name, amount in dict(
                    payload.get("counters") or {}).items():
                self.counters[name] = (
                    self.counters.get(name, 0.0) + float(amount))
            for key, n in dict(payload.get("dropped") or {}).items():
                if n:
                    self.dropped[key] = self.dropped.get(key, 0) + int(n)
        return merged

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop all collected spans, decisions, and counters."""
        with self._lock:
            self.spans.clear()
            self.decisions.clear()
            self.counters.clear()
            self.dropped = {"spans": 0, "decisions": 0}

    def summary(self) -> Dict[str, Any]:
        """Aggregate view: per-span-name count/total seconds, counters."""
        with self._lock:
            per_name: Dict[str, Tuple[int, float]] = {}
            for sp in self.spans:
                n, total = per_name.get(sp.name, (0, 0.0))
                per_name[sp.name] = (n + 1, total + sp.duration_s)
            return {
                "spans": {
                    name: {"count": n, "total_s": total}
                    for name, (n, total) in sorted(per_name.items())
                },
                "n_decisions": len(self.decisions),
                "counters": dict(self.counters),
                "dropped": dict(self.dropped),
            }


class NullTracer:
    """Disabled tracer: every operation is a cheap no-op.

    The process-global default, so instrumented code paths pay one
    attribute load and (at most) one empty context manager per call.
    """

    enabled = False
    trace_id = ""
    spans: Tuple[Span, ...] = ()
    decisions: Tuple[DecisionRecord, ...] = ()
    counters: Dict[str, float] = {}

    def span(self, name: str, **attributes: Any) -> _NullSpanContext:
        """Return the shared no-op span context."""
        return _NULL_SPAN

    def current_span_id(self) -> Optional[int]:
        """No open spans, ever."""
        return None

    def decide(self, record: DecisionRecord) -> None:
        """Discard the record."""

    def count(self, name: str, amount: float = 1.0) -> None:
        """Discard the increment."""

    def export_payload(self) -> Dict[str, Any]:
        """An empty payload, shaped like :meth:`Tracer.export_payload`."""
        return {"trace_id": "", "origin_epoch_s": 0.0, "origin_s": 0.0,
                "spans": [], "counters": {}, "dropped": {}}

    def merge_payload(self, payload: Mapping[str, Any], *,
                      parent_id: Optional[int] = None,
                      worker_pid: Optional[int] = None) -> int:
        """Discard the payload."""
        return 0

    def clear(self) -> None:
        """Nothing to clear."""

    def summary(self) -> Dict[str, Any]:
        """An empty aggregate, shaped like :meth:`Tracer.summary`."""
        return {"spans": {}, "n_decisions": 0, "counters": {}, "dropped": {}}


_NULL_TRACER = NullTracer()
_current: Any = _NULL_TRACER
_swap_lock = threading.Lock()


def get_tracer() -> Any:
    """The process-global tracer (a :class:`NullTracer` unless installed)."""
    return _current


def set_tracer(tracer: Optional[Any]) -> None:
    """Install ``tracer`` globally; ``None`` restores the null tracer."""
    global _current
    with _swap_lock:
        _current = tracer if tracer is not None else _NULL_TRACER


@contextlib.contextmanager
def use_tracer(tracer: Any) -> Iterator[Any]:
    """Scope-install a tracer: ``with use_tracer(Tracer()) as t: ...``."""
    previous = get_tracer()
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
