"""Priority admission queue: classes, weighted fair sharing, aging.

Replaces the engine's FIFO backpressure path. Entries carry a priority
class (``interactive`` > ``batch`` > ``best_effort``) and a tenant; a
dispatcher thread asks :meth:`AdmissionQueue.pop` for the best entry
whose tenant is currently *eligible* (under its concurrency cap) and the
queue picks by, in order:

1. **Effective priority** — the class rank minus one step per
   ``aging_s`` seconds waited, so a ``best_effort`` job that has waited
   long enough competes as ``batch`` and eventually as ``interactive``
   (starvation aging: max wait is bounded by ``2·aging_s`` plus service
   time of the jobs ahead in the top class).
2. **Weighted fair share** — among equal effective priority, the tenant
   with the least weighted service so far (``pops / weight``) goes
   first, so a weight-2 tenant drains twice the jobs of a weight-1
   tenant under contention, and a newly-arrived tenant is not locked out
   by an established one's backlog.
3. **Arrival order** — FIFO within a tenant.

``pop`` blocks while the queue holds only ineligible entries (every
waiter is re-checked on :meth:`notify`, which the engine calls when a
running job finishes and frees a concurrency slot) and returns ``None``
once the queue is empty — the dispatcher-per-entry contract: the engine
submits exactly one dispatcher per accepted entry, so dispatchers whose
entry was cancelled drain a ``None`` and exit.

The queue never *admits* — :meth:`push` only enforces capacity
(``queue_full``); rate and budget gates live in
:class:`~repro.admission.controller.AdmissionController`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..errors import AdmissionRejected
from ..service.spec import DEFAULT_PRIORITY, DEFAULT_TENANT, PRIORITIES

__all__ = ["QueuedEntry", "AdmissionQueue"]

_RANK = {name: rank for rank, name in enumerate(PRIORITIES)}


@dataclass
class QueuedEntry:
    """One admitted-but-not-yet-running job waiting in the queue."""

    job_id: str
    tenant: str = DEFAULT_TENANT
    priority: str = DEFAULT_PRIORITY
    estimated_cost: float = 0.0
    enqueued_at: float = 0.0
    seq: int = 0
    payload: Any = None
    #: Stamped by the queue at pop time (its own clock): seconds this
    #: entry spent queued. The engine surfaces it on ``job.started``
    #: events next to the coarser ``queued`` stage mark.
    waited_s: float = 0.0

    def effective_rank(self, now: float, aging_s: float) -> int:
        """Class rank after starvation aging (lower serves first)."""
        promoted = int(max(now - self.enqueued_at, 0.0) / aging_s)
        return max(_RANK[self.priority] - promoted, 0)


@dataclass
class _QueueStats:
    """Internal counters surfaced by :meth:`AdmissionQueue.stats`."""

    pushed: int = 0
    popped: int = 0
    removed: int = 0
    promoted_pops: int = 0
    max_wait_s: float = 0.0
    total_wait_s: float = 0.0


class AdmissionQueue:
    """Bounded priority queue with fair sharing and aging (thread-safe).

    Parameters
    ----------
    max_depth:
        Capacity; :meth:`push` beyond it raises
        :class:`~repro.errors.AdmissionRejected` (``queue_full``).
        ``None`` means unbounded.
    aging_s:
        Seconds of waiting per one-class starvation promotion.
    weight_of:
        Tenant fair-share weight lookup (defaults to 1.0 for everyone).
    clock:
        Monotonic seconds source; injectable for tests.
    """

    def __init__(
        self,
        *,
        max_depth: Optional[int] = None,
        aging_s: float = 30.0,
        weight_of: Optional[Callable[[str], float]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if aging_s <= 0.0:
            raise ValueError(f"aging_s must be > 0, got {aging_s}")
        self.max_depth = max_depth
        self.aging_s = aging_s
        self._weight_of = weight_of or (lambda tenant: 1.0)
        self._clock = clock
        self._cond = threading.Condition()
        self._entries: List[QueuedEntry] = []
        self._served: Dict[str, float] = {}
        self._seq = 0
        self._stats = _QueueStats()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Current depth."""
        with self._cond:
            return len(self._entries)

    def push(self, entry: QueuedEntry) -> int:
        """Enqueue; returns the new depth.

        Raises :class:`AdmissionRejected` (reason ``queue_full``) at
        capacity — the message keeps the historical "queue is full"
        wording that clients match on.
        """
        with self._cond:
            depth = len(self._entries)
            if self.max_depth is not None and depth >= self.max_depth:
                raise AdmissionRejected(
                    f"job queue is full ({depth}/{self.max_depth} queued)",
                    reason="queue_full",
                    tenant=entry.tenant,
                    queue_depth=depth,
                    retry_after_s=1.0,
                )
            entry.enqueued_at = self._clock()
            entry.seq = self._seq
            self._seq += 1
            self._entries.append(entry)
            self._stats.pushed += 1
            self._cond.notify_all()
            return len(self._entries)

    def pop(
        self,
        eligible: Optional[Callable[[str], bool]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> Optional[QueuedEntry]:
        """Best eligible entry; blocks while only ineligible ones wait.

        Returns ``None`` when the queue is empty (immediately) or when
        ``timeout`` elapses with every entry ineligible. ``eligible``
        maps a tenant name to "may run another job right now". The
        timeout is wall time (``time.monotonic``) even when a logical
        clock was injected — blocking is real regardless of test clocks.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if not self._entries:
                    return None
                best = self._select_locked(eligible)
                if best is not None:
                    self._entries.remove(best)
                    self._account_pop_locked(best)
                    return best
                remaining = 0.5
                if deadline is not None:
                    remaining = min(remaining, deadline - time.monotonic())
                    if remaining <= 0.0:
                        return None
                # Re-woken by push/remove/notify; the short cap guards
                # against a missed wakeup, not correctness.
                self._cond.wait(remaining)

    def _select_locked(
        self, eligible: Optional[Callable[[str], bool]]
    ) -> Optional[QueuedEntry]:
        now = self._clock()
        best: Optional[QueuedEntry] = None
        best_key = None
        allowed: Dict[str, bool] = {}
        for entry in self._entries:
            ok = allowed.get(entry.tenant)
            if ok is None:
                ok = eligible is None or bool(eligible(entry.tenant))
                allowed[entry.tenant] = ok
            if not ok:
                continue
            key = (
                entry.effective_rank(now, self.aging_s),
                self._served.get(entry.tenant, 0.0),
                entry.seq,
            )
            if best_key is None or key < best_key:
                best, best_key = entry, key
        return best

    def _account_pop_locked(self, entry: QueuedEntry) -> None:
        now = self._clock()
        weight = max(float(self._weight_of(entry.tenant)), 1e-9)
        self._served[entry.tenant] = (
            self._served.get(entry.tenant, 0.0) + 1.0 / weight
        )
        waited = max(now - entry.enqueued_at, 0.0)
        entry.waited_s = waited
        self._stats.popped += 1
        self._stats.total_wait_s += waited
        self._stats.max_wait_s = max(self._stats.max_wait_s, waited)
        if entry.effective_rank(now, self.aging_s) < _RANK[entry.priority]:
            self._stats.promoted_pops += 1

    def requeue(self, entry: QueuedEntry) -> None:
        """Put a popped entry back, keeping its arrival time and order.

        For the rare pop/acquire race: the entry lost its concurrency
        slot to a concurrent dispatcher between selection and
        acquisition. Bypasses the capacity check (the entry was already
        admitted) and keeps ``enqueued_at``/``seq``, so aging credit and
        FIFO position survive the round trip.
        """
        with self._cond:
            self._entries.append(entry)
            self._stats.popped -= 1  # the pop is undone, not re-counted
            self._cond.notify_all()

    def remove(self, job_id: str) -> Optional[QueuedEntry]:
        """Withdraw a queued entry (cancellation); ``None`` if not queued."""
        with self._cond:
            for entry in self._entries:
                if entry.job_id == job_id:
                    self._entries.remove(entry)
                    self._stats.removed += 1
                    self._cond.notify_all()
                    return entry
            return None

    def notify(self) -> None:
        """Wake blocked poppers (a concurrency slot was freed)."""
        with self._cond:
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """JSON-ready queue statistics (for ``/v1/admission``)."""
        with self._cond:
            now = self._clock()
            by_priority: Dict[str, int] = {}
            by_tenant: Dict[str, int] = {}
            oldest_wait = 0.0
            for entry in self._entries:
                by_priority[entry.priority] = (
                    by_priority.get(entry.priority, 0) + 1
                )
                by_tenant[entry.tenant] = by_tenant.get(entry.tenant, 0) + 1
                oldest_wait = max(oldest_wait, now - entry.enqueued_at)
            popped = self._stats.popped
            return {
                "depth": len(self._entries),
                "max_depth": self.max_depth,
                "aging_s": self.aging_s,
                "by_priority": dict(sorted(by_priority.items())),
                "by_tenant": dict(sorted(by_tenant.items())),
                "oldest_wait_s": oldest_wait,
                "pushed": self._stats.pushed,
                "popped": popped,
                "removed": self._stats.removed,
                "promoted_pops": self._stats.promoted_pops,
                "max_wait_s": self._stats.max_wait_s,
                "mean_wait_s": (
                    self._stats.total_wait_s / popped if popped else 0.0
                ),
            }
