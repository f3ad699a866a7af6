"""Lightweight operational metrics for the scheduling service.

Counters and latency summaries, thread-safe, zero dependencies: counters
plus per-name observation summaries. ``snapshot()`` returns plain dicts
for the ``/v1/metrics`` endpoint or a log line;
:func:`repro.obs.prometheus.render_prometheus` turns the same snapshot
into Prometheus text exposition.

Scope labelling: lifetime fields keep their plain names (``count``,
``sum``, ``mean``, ``min``, ``max``, ``buckets``) while fields computed
from the bounded sample window are prefixed ``window_`` (``window_count``,
``window_p50``, …) so dashboards cannot silently mix the two scopes. The
window is two :class:`~repro.obs.sketch.QuantileSketch` generations of
1024 samples (so the last 1024–2048 samples), and ``window_p*`` are its
nearest-rank answers within ``DEFAULT_ALPHA`` (1 %) relative error: the
SLO monitor's estimator. :func:`quantile` is the exact statistic behind
the responses' Monte Carlo ``p95``.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs.sketch import QuantileSketch

__all__ = ["MetricsRegistry", "quantile", "DEFAULT_BUCKETS"]

#: Samples per window generation; the window spans two generations.
_WINDOW = 1024

#: Default histogram upper bounds, in seconds — tuned for request/schedule
#: latencies (sub-millisecond cache hits up to multi-minute refined runs).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)


def quantile(samples: List[float], q: float) -> float:
    """Linear-interpolated quantile of ``samples`` (q in [0, 1]).

    Raises ``ValueError`` on an empty list — callers guard.
    """
    if not samples:
        raise ValueError("quantile of empty sample list")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile q must be in [0, 1], got {q}")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _bound_label(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else f"{bound:g}"


class _Series:
    __slots__ = ("count", "total", "minimum", "maximum", "current",
                 "previous", "bounds", "bucket_counts")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.clear_window()
        self.bounds: Tuple[float, ...] = tuple(bounds)
        # One count per finite bound, plus the implicit +Inf bucket.
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)

    def clear_window(self) -> None:
        self.previous, self.current = QuantileSketch(), QuantileSketch()

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        if self.current.count >= _WINDOW:
            self.previous, self.current = self.current, QuantileSketch()
        self.current.add(value)
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1

    def summary(self) -> Dict[str, Any]:
        window = QuantileSketch.merged((self.previous, self.current))
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            cumulative[_bound_label(bound)] = running
        cumulative["+Inf"] = self.count
        out = {
            # lifetime scope
            "count": self.count,
            "sum": self.total,
            "mean": self.total / self.count,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": cumulative,
            # bounded-window scope (both sketch generations)
            "window_count": window.count,
        }
        # A freshly reset window has no samples to take quantiles over;
        # the window_p* keys are simply absent (the Prometheus renderer
        # skips missing quantile keys).
        out.update((f"window_{k}", v) for k, v in window.percentiles().items())
        return out


class MetricsRegistry:
    """Named counters and observation series.

    ``incr`` for event counts, ``observe`` for measured values (latencies,
    batch sizes…), ``timer`` to observe a wall-clock duration around a
    block. Unknown names spring into existence on first use. ``buckets``
    overrides the histogram upper bounds applied to new series.
    """

    def __init__(self, *, buckets: Optional[Sequence[float]] = None) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._series: Dict[str, _Series] = {}
        bounds = DEFAULT_BUCKETS if buckets is None else tuple(buckets)
        if any(b <= 0 or math.isinf(b) for b in bounds):
            raise ValueError("histogram buckets must be finite and positive")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be strictly increasing")
        self._buckets: Tuple[float, ...] = tuple(bounds)

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at 0 on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def set_counter(self, name: str, value: int) -> None:
        """Snap counter ``name`` to an externally tracked monotonic total.

        For counters whose source of truth lives elsewhere (e.g. the
        response cache's own hit/miss/eviction stats). The counter never
        goes backwards: the new value is ``max(current, value)``.
        """
        with self._lock:
            self._counters[name] = max(self._counters.get(name, 0), int(value))

    def observe(self, name: str, value: float) -> None:
        """Record one sample into observation series ``name``."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = _Series(self._buckets)
            series.observe(value)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Observe the duration of the enclosed block, in seconds."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - started)

    def snapshot(self, *, reset_windows: bool = False) -> Dict[str, Any]:
        """All counters and series summaries, as plain JSON-able dicts.

        ``reset_windows=True`` atomically drains each series' bounded
        sample window *after* computing its summary, for delta-style
        scrapers that want per-interval quantiles. The read and the
        reset happen under the same lock that ``observe`` takes, so a
        sample is either included in this snapshot or lands in the next
        window — never both, never neither. Lifetime fields (``count``,
        ``sum``, ``buckets``…) are unaffected.
        """
        with self._lock:
            out = {
                "counters": dict(self._counters),
                "series": {
                    name: series.summary()
                    for name, series in self._series.items()
                },
            }
            if reset_windows:
                for series in self._series.values():
                    series.clear_window()
            return out

    def reset(self) -> None:
        """Forget every counter and series."""
        with self._lock:
            self._counters.clear()
            self._series.clear()
