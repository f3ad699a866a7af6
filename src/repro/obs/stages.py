"""Per-request stage latency decomposition (boundary-stamp recorder).

Every request that enters the service crosses a fixed sequence of
boundaries: admission gates (rate → estimate → reserve), the priority
queue, optional batching, compute, cache settle, and budget
reconciliation. :class:`StageTimings` records one monotonic timestamp
per boundary and attributes the elapsed interval *since the previous
boundary* to the stage that just finished. Because the segments
partition the request's wall clock with no gaps or overlaps, the stage
values always sum to the recorded wall time (up to float addition) —
the invariant the CI ``obs-gate`` asserts on every ledger row.

A stage marked twice (a retried ``execute``, say) accumulates. Stages
that a request never crosses (``batched`` on an unbatched service,
``cache`` on a miss) are simply absent from the dict — absence means
"this request did not pass through that stage", not zero cost.

The recorder is intentionally lock-free: a request's stages are marked
by one thread at a time (submit thread through the admission gates,
then the dispatcher thread from ``queued`` onward), with the engine's
job registry providing the happens-before edge at the handoff.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict

__all__ = ["STAGES", "StageTimings"]

#: Canonical stage order for docs, dashboards and Prometheus series.
STAGES = (
    "admit",      # rate-limit gate (token bucket)
    "estimate",   # tiered cost estimation
    "reserve",    # budget reserve + enqueue
    "queued",     # waiting in the priority queue until dispatch
    "batched",    # plan + replays via the spec-family batcher (thread)
    "execute",    # plan + replays in a pool worker (process / cluster)
    "cache",      # response-cache hit path (coalesced waits included)
    "reconcile",  # estimate-vs-actual budget settle
)


class StageTimings:
    """Boundary-stamped stage decomposition for one request.

    Parameters
    ----------
    clock:
        Monotonic seconds source; injectable for tests. The wall-clock
        epoch of the first boundary is captured separately so offline
        consumers (ledger readers) can window rows by real time.
    """

    __slots__ = ("_clock", "_t0", "_last", "started_epoch_s", "stages")

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self._clock = clock
        self._t0 = clock()
        self._last = self._t0
        self.started_epoch_s = time.time()
        self.stages: Dict[str, float] = {}

    def mark(self, stage: str) -> float:
        """Close the segment since the previous boundary as ``stage``.

        Returns the accumulated seconds attributed to ``stage`` so far.
        """
        now = self._clock()
        self.stages[stage] = (
            self.stages.get(stage, 0.0) + (now - self._last)
        )
        self._last = now
        return self.stages[stage]

    @property
    def wall_s(self) -> float:
        """Seconds from construction to the latest boundary."""
        return self._last - self._t0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot for ledger rows and SSE events."""
        return {
            "stages": dict(self.stages),
            "wall_s": self.wall_s,
            "started_epoch_s": self.started_epoch_s,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v:.6f}" for k, v in self.stages.items())
        return f"StageTimings({inner})"
