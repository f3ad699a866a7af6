"""Reference flow pool: water-filling over every live flow on every change.

This is the :class:`~repro.simulation.bandwidth.FlowPool` that the
class-counter pool replaced, kept as it was apart from its name, with the
same public API and the same ``_EPS_BYTES`` / ``_EPS_TIME`` snap rules
(imported, so both pools snap alike). It is the oracle of the
differential properties in ``test_bandwidth.py`` and of the executor
parity check in ``test_flowpool_parity.py``.

With finite capacity every start, finish and cancel settles each live
flow's ``remaining`` bytes at its old rate, water-fills the capacity over
the flows in ascending cap order (each takes ``min(cap, left / flows
left)``), recomputes every finish time and rebuilds the heap: O(n log n)
per change, but each quantity is computed directly from its definition.
With infinite capacity a flow's finish is ``start + nbytes/cap`` (Eq. 7),
exactly as in the pool under test.
"""

from __future__ import annotations

import heapq
import math
from operator import attrgetter
from typing import Any, Dict, Hashable, List, Tuple

from repro.errors import SimulationError
from repro.simulation.bandwidth import _EPS_BYTES, _EPS_TIME


class _Flow:
    __slots__ = ("fid", "remaining", "cap", "payload", "seq", "rate")

    def __init__(
        self, fid: Hashable, remaining: float, cap: float, payload: Any, seq: int
    ) -> None:
        self.fid = fid
        self.remaining = remaining  # bytes left at the pool's last settle
        self.cap = cap
        self.payload = payload
        self.seq = seq  # insertion order; also tags the live heap entry
        self.rate = 0.0  # set by water-filling (finite capacity only)


_by_cap = attrgetter("cap")


class ReshareFlowPool:
    """:class:`~repro.simulation.bandwidth.FlowPool`, re-sharing every flow.

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
        self._flows: Dict[Hashable, _Flow] = {}
        self._heap: List[Tuple[float, int, Hashable]] = []
        self._seq = 0
        self._shared = not math.isinf(capacity)
        self._settled_at = 0.0  # when `remaining` was last brought up to date

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
        flow = _Flow(flow_id, nbytes, cap, payload, seq)
        self._flows[flow_id] = flow
        if self._shared:
            self._reshare()
        else:
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
        if self._flows.pop(flow_id, None) is None:
            return False
        if self._shared:
            self._reshare()
        return True

    def _reshare(self) -> None:
        """Settle, water-fill, and rebuild the heap (finite capacity only).

        Every flow first moves its bytes since the last settle at its old
        rate. Water-filling then processes flows by ascending cap; each
        takes ``min(cap, remaining_capacity / remaining_flows)``, and its
        finish follows from its new rate as in :meth:`start`.
        """
        now = self.now
        dt = max(now - self._settled_at, 0.0)
        self._settled_at = now
        items = sorted(self._flows.values(), key=_by_cap)
        left = self.capacity
        n = len(items)
        heap = []
        for i, f in enumerate(items):
            remaining = f.remaining = f.remaining - f.rate * dt
            share = left / (n - i)
            cap = f.cap
            rate = f.rate = share if share < cap else cap  # min(cap, share)
            left -= rate
            finish = now if remaining <= _EPS_BYTES else now + remaining / rate
            heap.append((finish, f.seq, f.fid))
        heapq.heapify(heap)  # pops by (finish, seq): build order is moot
        self._heap = heap

    # ------------------------------------------------------------------
    def next_completion(self) -> float:
        """Earliest time any active flow finishes; ``inf`` when idle."""
        heap = self._heap
        flows = self._flows
        while heap:
            finish, seq, fid = heap[0]
            f = flows.get(fid)
            if f is not None and f.seq == seq:
                now = self.now
                # Residuals too small to move the float clock count as done.
                if finish - now <= _EPS_TIME * max(1.0, now):
                    return now
                return finish
            heapq.heappop(heap)  # stale: the flow was cancelled
        return math.inf

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
        heap = self._heap
        flows = self._flows
        limit = t + _EPS_TIME * max(1.0, t)
        done: List[Tuple[int, Hashable, Any]] = []
        while heap and heap[0][0] <= limit:
            _finish, seq, fid = heapq.heappop(heap)
            f = flows.get(fid)
            if f is not None and f.seq == seq:
                del flows[fid]
                done.append((seq, fid, f.payload))
        if done and self._shared:
            self._reshare()
        done.sort()  # by seq, which is unique: fids are never compared
        return [(fid, payload) for _seq, fid, payload in done]
