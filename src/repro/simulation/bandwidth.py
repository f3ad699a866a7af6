"""Fluid-flow bandwidth model with optional datacenter contention.

The paper assumes "the datacenter bandwidth is large enough to feed all
processing units" (§III-B) — each transfer then progresses at the full
VM↔DC link rate ``bw`` independently of the others, so a transfer of
``size`` bytes started at ``t`` completes at exactly ``t + size/bw``
(Eq. 7). The paper also observes (§V-B) that this assumption breaks for
LIGO near the minimal budget: the datacenter becomes a bottleneck and
budgets are overrun.

:class:`FlowPool` models both regimes. Every transfer is a *flow* with a
byte count and a per-flow cap (its link rate). With infinite aggregate
capacity each flow runs at its cap; with finite capacity ``C`` the active
flows share ``C`` max-min fairly (water-filling), each still capped by its
link — the standard fluid approximation used by SimGrid itself.

**Infinite capacity** keeps the exact Eq. 7 arithmetic: a flow's finish
is fixed at :meth:`~FlowPool.start` as ``now + nbytes/cap``, no other flow
is touched, and a heap of ``(finish, seq, flow_id)`` entries orders the
completions. No float is accumulated over time, so a replay's transfer
times do not depend on what else is in flight.

**Finite capacity** shares lazily, by virtual time (SimGrid's lazy action
update). Water-filling gives every live flow with the same cap the same
rate, so the flows are grouped in *cap classes*. A class keeps one
counter ``served`` — the bytes each of its members has moved since the
class opened, as of the pool's last settle — its current per-flow rate,
its count of live flows, and a heap of ``(virtual finish, seq, flow_id)``
entries where a flow's virtual finish is ``served`` at its start plus its
byte count. The flow finishes when the counter reaches it, at
``settled_at + (virtual finish - served) / rate``. A start, finish or
cancel therefore settles the counters (``served += rate·dt``), water-fills
the capacity over the classes in ascending cap order and pushes or pops
one heap entry: O(k + log n) for k distinct caps and n live flows,
against O(n log n) for re-sharing every flow. The executor caps every
flow at the one link rate, so k = 1; mixed caps take the same path.

When a class drains, it is dropped, so water-filling visits only live
classes and the next flow of that cap opens a fresh class whose counter
starts again at 0. This *rebase* bounds the counter by the bytes one busy
spell moves, so ``virtual finish - served`` loses at most a few ulps of
that volume, and a flow started on an idle pool finishes at exactly
``now + nbytes/rate``, as it would on a fresh pool.

The event loop never scans the live flows to find the next completion:

* :meth:`FlowPool.next_completion` peeks at each heap head;
* :meth:`FlowPool.advance` pops the flows that finish by ``t`` and does no
  per-flow work when none does;
* :meth:`FlowPool.cancel` only forgets the flow: its heap entry goes stale
  and is dropped when it surfaces (an entry is live only while its
  sequence number matches the flow's).

Both regimes snap alike: a flow with at most ``_EPS_BYTES`` left finishes
at the settle instant, and one finishing within ``_EPS_TIME`` (relative)
of the clock counts as finished now. In the event loop this reads:
:meth:`~FlowPool.next_completion` returns ``now`` when the earliest finish
lies within ``_EPS_TIME·max(1, now)`` of it, and :meth:`~FlowPool.advance`
pops every flow with ``finish <= t + _EPS_TIME·max(1, t)``. So at infinite
capacity a flow is *reported* at the first loop clock ``c`` at or after
its start with ``finish <= c + _EPS_TIME·max(1, c)`` — its own finish
unless an event or another flow's report lands just before it — up to
1e-9 relative early. Bunched uploads meet this often (every montage-200
``heft_budg`` replication has such a flow), and the max-plus replay of
:mod:`._replay` reproduces it.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..errors import SimulationError

__all__ = ["FlowPool"]

_EPS_BYTES = 1e-6
#: A flow whose time-to-finish is below this (relative to the clock) is
#: complete: adding it to `now` would not change the float value anyway.
_EPS_TIME = 1e-9


class _CapClass:
    """The live flows of one cap, which water-filling moves at one rate."""

    __slots__ = ("cap", "served", "rate", "n", "heap")

    def __init__(self, cap: float) -> None:
        self.cap = cap
        self.served = 0.0  # bytes each member moved, as of the last settle
        self.rate = 0.0  # per-flow rate, set by water-filling
        self.n = 0  # live flows
        self.heap: List[Tuple[float, int, Hashable]] = []  # virtual finishes


class FlowPool:
    """A set of concurrent data flows over a shared aggregate capacity.

    Parameters
    ----------
    capacity:
        Aggregate datacenter capacity in bytes/s; ``inf`` (default)
        reproduces the paper's main assumption.
    """

    def __init__(self, capacity: float = math.inf) -> None:
        if not capacity > 0.0:
            raise SimulationError(f"pool capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self.now = 0.0
        # flow id -> (seq, payload, cap class or None at infinite capacity);
        # seq is the insertion order and tags the flow's live heap entry.
        self._flows: Dict[Hashable, Tuple[int, Any, Optional[_CapClass]]] = {}
        self._heap: List[Tuple[float, int, Hashable]] = []  # infinite only
        self._seq = 0
        self._shared = not math.isinf(capacity)
        # cap -> live class, in ascending cap order (water-filling's order)
        self._classes: Dict[float, _CapClass] = {}
        self._settled_at = 0.0  # when the class counters were last settled

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._flows)

    def __bool__(self) -> bool:
        return bool(self._flows)

    def start(
        self, flow_id: Hashable, nbytes: float, cap: float, payload: Any = None
    ) -> None:
        """Begin a flow of ``nbytes`` at the current time.

        Zero-byte flows are legal; they complete at the very next
        :meth:`advance` call (i.e. immediately).
        """
        if flow_id in self._flows:
            raise SimulationError(f"duplicate flow id {flow_id!r}")
        if nbytes < 0.0:
            raise SimulationError(f"flow {flow_id!r}: negative size {nbytes}")
        if not cap > 0.0:
            raise SimulationError(f"flow {flow_id!r}: cap must be > 0, got {cap}")
        seq = self._seq
        self._seq += 1
        if self._shared:
            self._settle()
            cls = self._classes.get(cap)
            if cls is None:
                cls = self._classes[cap] = _CapClass(cap)
                self._classes = dict(sorted(self._classes.items()))
            self._flows[flow_id] = (seq, payload, cls)
            cls.n += 1
            heapq.heappush(cls.heap, (cls.served + nbytes, seq, flow_id))
            self._water_fill()
        else:
            self._flows[flow_id] = (seq, payload, None)
            now = self.now
            finish = now if nbytes <= _EPS_BYTES else now + nbytes / cap
            heapq.heappush(self._heap, (finish, seq, flow_id))

    def cancel(self, flow_id: Hashable) -> bool:
        """Abort an in-flight flow without completing it.

        Used by fault injection: a VM crash kills its active download, so
        the flow must leave the pool (freeing its bandwidth share) without
        ever being reported by :meth:`advance`. Returns whether the flow
        existed.
        """
        flow = self._flows.pop(flow_id, None)
        if flow is None:
            return False
        cls = flow[2]
        if cls is not None:
            self._settle()
            cls.n -= 1
            if not cls.n:
                self._drop_drained()
            self._water_fill()
        return True

    def _settle(self) -> None:
        """Bring every class counter up to the clock at the current rates."""
        now = self.now
        dt = now - self._settled_at
        if dt > 0.0:
            for cls in self._classes.values():
                cls.served += cls.rate * dt
        self._settled_at = now

    def _water_fill(self) -> None:
        """Share the capacity max-min fairly over the live classes.

        Classes take their turn by ascending cap; each member of a class
        gets ``min(cap, capacity left / flows left)``.
        """
        left = self.capacity
        flows_left = len(self._flows)
        for cls in self._classes.values():
            share = left / flows_left
            cap = cls.cap
            rate = cls.rate = cap if cap < share else share
            left -= rate * cls.n
            flows_left -= cls.n

    def _drop_drained(self) -> None:
        """Forget the classes left without flows: the next flow of such a
        cap opens a fresh class whose counter starts at 0 (the rebase)."""
        self._classes = {cap: cls for cap, cls in self._classes.items() if cls.n}

    # ------------------------------------------------------------------
    def next_completion(self) -> float:
        """Earliest time any active flow finishes; ``inf`` when idle."""
        flows = self._flows
        if self._shared:
            settled = self._settled_at
            finish = math.inf
            for cls in self._classes.values():
                heap = cls.heap
                while True:  # a live class holds at least one live entry
                    vfin, seq, fid = heap[0]
                    f = flows.get(fid)
                    if f is not None and f[0] == seq:
                        break
                    heapq.heappop(heap)  # stale: the flow was cancelled
                left = vfin - cls.served
                head = settled if left <= _EPS_BYTES else settled + left / cls.rate
                if head < finish:
                    finish = head
        else:
            heap = self._heap
            while heap:
                finish, seq, fid = heap[0]
                f = flows.get(fid)
                if f is not None and f[0] == seq:
                    break
                heapq.heappop(heap)  # stale: the flow was cancelled
            else:
                return math.inf
        now = self.now
        # Residuals too small to move the float clock count as done.
        if finish - now <= _EPS_TIME * max(1.0, now):
            return now
        return finish

    def advance(self, t: float) -> List[Tuple[Hashable, Any]]:
        """Move the clock to ``t``; return the flows complete by then.

        Returns ``(flow_id, payload)`` pairs, in deterministic (insertion)
        order. A flow whose finish lies within ``_EPS_TIME`` (relative) of
        ``t`` counts as complete. With finite capacity, rates are
        re-shared when any flow completes.
        """
        if t < self.now - 1e-9:
            raise SimulationError(f"time went backwards: {t} < {self.now}")
        self.now = t
        flows = self._flows
        limit = t + _EPS_TIME * max(1.0, t)
        done: List[Tuple[int, Hashable, Any]] = []
        if self._shared:
            settled = self._settled_at
            drained = False
            for cls in self._classes.values():
                heap = cls.heap
                served = cls.served
                rate = cls.rate
                while heap:
                    vfin, seq, fid = heap[0]
                    f = flows.get(fid)
                    if f is not None and f[0] == seq:
                        left = vfin - served
                        if left > _EPS_BYTES and settled + left / rate > limit:
                            break
                        del flows[fid]
                        cls.n -= 1
                        done.append((seq, fid, f[1]))
                    heapq.heappop(heap)
                drained = drained or not cls.n
            if done:
                if drained:
                    self._drop_drained()
                self._settle()
                self._water_fill()
        else:
            heap = self._heap
            while heap and heap[0][0] <= limit:
                _finish, seq, fid = heapq.heappop(heap)
                f = flows.get(fid)
                if f is not None and f[0] == seq:
                    del flows[fid]
                    done.append((seq, fid, f[1]))
        done.sort()  # by seq, which is unique: fids are never compared
        return [(fid, payload) for _seq, fid, payload in done]
