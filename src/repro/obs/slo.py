"""Declarative SLO targets with multi-window burn rates.

An :class:`SLOTarget` declares what "good" means for a request —
either a latency bound (``kind="latency"``: good iff the request's
wall time is at or under ``threshold_s``) or plain success
(``kind="success_rate"``). The :class:`SLOMonitor` owned by the
service engine feeds every finished request into:

- one :class:`~repro.obs.sketch.QuantileSketch` per request stage plus
  one for end-to-end wall time, backing the per-stage p50/p95/p99
  gauges on ``/metrics`` and ``/v1/slo``; and
- per-target good/bad counters over several look-back windows
  (5 min / 1 h / 6 h by default), from which the standard burn rate is
  derived: ``burn = bad_fraction / (1 - target)``. Burn 1.0 spends the
  error budget exactly at the sustainable pace; a 99.9 % target burning
  at 14.4 over the short window pages in classic multi-window alerting.

Window counters are rings of coarse interval buckets (10 s resolution
by default), so memory is O(windows × slots) regardless of traffic.
The monitor is thread-safe; its sketches are deterministic (see
:mod:`repro.obs.sketch`), and the service's ``stage_<name>_seconds``
metric series are fed the same samples at the same ``alpha``.

:func:`report_from_rows` computes the same report offline from ledger
rows (``repro-exp slo --db``), windowing on ``recorded_at``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from .sketch import (
    DEFAULT_ALPHA, QuantileSketch, _add_by_stage, _stage_percentiles,
)

__all__ = [
    "SLOTarget", "SLOMonitor", "DEFAULT_TARGETS", "DEFAULT_WINDOWS_S",
    "report_from_rows",
]

#: Look-back windows (seconds) for burn-rate computation.
DEFAULT_WINDOWS_S = (300.0, 3600.0, 21600.0)

_KINDS = ("latency", "success_rate")


@dataclass(frozen=True)
class SLOTarget:
    """One service-level objective.

    ``target`` is the demanded good fraction (e.g. ``0.99``); the error
    budget is ``1 - target``. ``threshold_s`` is required for
    ``kind="latency"`` and ignored otherwise.
    """

    name: str
    kind: str
    target: float
    threshold_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"target must be in (0, 1), got {self.target}")
        if self.kind == "latency" and (
                self.threshold_s is None or self.threshold_s <= 0.0):
            raise ValueError("latency targets need threshold_s > 0")

    def is_good(self, *, duration_s: float, success: bool) -> bool:
        """Whether one request counts toward this objective's good side."""
        if self.kind == "success_rate":
            return success
        return success and duration_s <= float(self.threshold_s)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (``threshold_s`` only for latency targets)."""
        out: Dict[str, Any] = {
            "name": self.name, "kind": self.kind, "target": self.target,
        }
        if self.threshold_s is not None:
            out["threshold_s"] = self.threshold_s
        return out


#: Engine defaults: interactive latency plus availability.
DEFAULT_TARGETS: Tuple[SLOTarget, ...] = (
    SLOTarget(name="latency_fast", kind="latency", target=0.95,
              threshold_s=2.0),
    SLOTarget(name="latency_tail", kind="latency", target=0.99,
              threshold_s=10.0),
    SLOTarget(name="availability", kind="success_rate", target=0.999),
)


class _WindowCounter:
    """Good/bad counts over a sliding window (ring of interval slots)."""

    __slots__ = ("span_s", "resolution_s", "n_slots", "_good", "_bad",
                 "_epochs")

    def __init__(self, span_s: float, resolution_s: float) -> None:
        self.span_s = span_s
        self.resolution_s = resolution_s
        self.n_slots = max(int(math.ceil(span_s / resolution_s)), 1)
        self._good = [0] * self.n_slots
        self._bad = [0] * self.n_slots
        self._epochs = [-1] * self.n_slots

    def add(self, now: float, good: bool) -> None:
        epoch = int(now // self.resolution_s)
        i = epoch % self.n_slots
        if self._epochs[i] != epoch:
            self._good[i] = 0
            self._bad[i] = 0
            self._epochs[i] = epoch
        if good:
            self._good[i] += 1
        else:
            self._bad[i] += 1

    def totals(self, now: float) -> Tuple[int, int]:
        current = int(now // self.resolution_s)
        oldest = current - self.n_slots + 1
        good = bad = 0
        for i in range(self.n_slots):
            if oldest <= self._epochs[i] <= current:
                good += self._good[i]
                bad += self._bad[i]
        return good, bad


def _burn(good: int, bad: int, target: float) -> Dict[str, Any]:
    total = good + bad
    bad_fraction = bad / total if total else 0.0
    burn_rate = bad_fraction / (1.0 - target)
    return {
        "good": good, "bad": bad, "total": total,
        "bad_fraction": bad_fraction, "burn_rate": burn_rate,
        "budget_exhausted": burn_rate >= 1.0 and total > 0,
    }


class SLOMonitor:
    """Thread-safe per-stage percentile + burn-rate accumulator."""

    def __init__(
        self,
        targets: Optional[Sequence[SLOTarget]] = None,
        *,
        windows_s: Sequence[float] = DEFAULT_WINDOWS_S,
        resolution_s: float = 10.0,
        alpha: float = DEFAULT_ALPHA,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.targets: Tuple[SLOTarget, ...] = tuple(
            DEFAULT_TARGETS if targets is None else targets)
        self.windows_s: Tuple[float, ...] = tuple(windows_s)
        self.alpha = alpha
        self._clock = clock
        self._lock = threading.Lock()
        self._request_sketch = QuantileSketch(alpha=alpha)
        self._stage_sketches: Dict[str, QuantileSketch] = {}
        self._counters: Dict[str, Dict[float, _WindowCounter]] = {
            t.name: {w: _WindowCounter(w, resolution_s)
                     for w in self.windows_s}
            for t in self.targets
        }
        self._observed = 0
        self._failures = 0

    # ------------------------------------------------------------------
    def observe_request(
        self,
        *,
        duration_s: float,
        success: bool,
        stages: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Fold one finished request into sketches and burn windows."""
        now = self._clock()
        with self._lock:
            self._observed += 1
            if not success:
                self._failures += 1
            self._request_sketch.add(duration_s)
            _add_by_stage(self._stage_sketches, stages or {}, self.alpha)
            for target in self.targets:
                good = target.is_good(
                    duration_s=duration_s, success=success)
                for counter in self._counters[target.name].values():
                    counter.add(now, good)

    # ------------------------------------------------------------------
    def stage_percentiles(self) -> Dict[str, Dict[str, float]]:
        """``{stage: {count, p50, p95, p99}}`` including ``request``."""
        with self._lock:
            return _stage_percentiles(
                self._stage_sketches, self._request_sketch)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready report for ``GET /v1/slo`` and ``stats()``."""
        stages = self.stage_percentiles()
        now = self._clock()
        with self._lock:
            targets: List[Dict[str, Any]] = []
            for target in self.targets:
                windows = {
                    _window_label(w): _burn(
                        *self._counters[target.name][w].totals(now),
                        target.target)
                    for w in self.windows_s
                }
                targets.append({**target.to_dict(), "windows": windows})
            return {
                "observed": self._observed,
                "failures": self._failures,
                "windows_s": list(self.windows_s),
                "alpha": self.alpha,
                "stages": stages,
                "targets": targets,
            }


def _window_label(span_s: float) -> str:
    span = int(span_s)
    if span % 3600 == 0:
        return f"{span // 3600}h"
    if span % 60 == 0:
        return f"{span // 60}m"
    return f"{span}s"


# ----------------------------------------------------------------------
def report_from_rows(
    rows: Iterable[Any],
    *,
    targets: Optional[Sequence[SLOTarget]] = None,
    windows_s: Sequence[float] = DEFAULT_WINDOWS_S,
    alpha: float = DEFAULT_ALPHA,
    now: Optional[float] = None,
) -> Dict[str, Any]:
    """Offline SLO report from ledger rows (``repro-exp slo --db``).

    Rows are :class:`~repro.obs.ledger.RunRow` objects (or dicts with
    the same fields); only rows whose ``extra["stages"]`` was stamped
    by the service contribute stage percentiles, while every row
    contributes to availability. Windows are anchored at ``now``
    (default: the newest ``recorded_at`` seen).
    """
    chosen = tuple(DEFAULT_TARGETS if targets is None else targets)
    parsed: List[Tuple[float, float, bool, Dict[str, float]]] = []
    for row in rows:
        get = (row.get if isinstance(row, Mapping)
               else lambda k, _r=row: getattr(_r, k, None))
        recorded_at = float(get("recorded_at") or 0.0)
        outcome = str(get("outcome") or "ok")
        extra = get("extra") or {}
        stage_info = extra.get("stages") or {}
        stages = {
            str(k): float(v)
            for k, v in dict(stage_info.get("stages", {})).items()
        }
        wall = stage_info.get("wall_s")
        duration = float(wall) if wall is not None else sum(stages.values())
        success = outcome not in ("failed", "error", "budget_exceeded")
        parsed.append((recorded_at, duration, success, stages))

    anchor = now
    if anchor is None:
        anchor = max((p[0] for p in parsed), default=0.0)

    request_sketch = QuantileSketch(alpha=alpha)
    stage_sketches: Dict[str, QuantileSketch] = {}
    for _, duration, _, stages in parsed:
        request_sketch.add(duration)
        _add_by_stage(stage_sketches, stages, alpha)
    stages_out = _stage_percentiles(stage_sketches, request_sketch)

    targets_out: List[Dict[str, Any]] = []
    for target in chosen:
        windows: Dict[str, Any] = {}
        for span in windows_s:
            good = bad = 0
            for recorded_at, duration, success, _ in parsed:
                if recorded_at < anchor - span:
                    continue
                if target.is_good(duration_s=duration, success=success):
                    good += 1
                else:
                    bad += 1
            windows[_window_label(span)] = _burn(good, bad, target.target)
        targets_out.append({**target.to_dict(), "windows": windows})

    return {
        "observed": len(parsed),
        "failures": sum(0 if p[2] else 1 for p in parsed),
        "windows_s": list(windows_s),
        "alpha": alpha,
        "anchor_epoch_s": anchor,
        "stages": stages_out,
        "targets": targets_out,
    }
