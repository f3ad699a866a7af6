"""Mergeable streaming quantile sketch (DDSketch-style log buckets).

The service needs p50/p95/p99 per request stage without keeping every
sample, and the parallel fabric needs shard-local sketches that merge
into exactly the same answer regardless of how the work was sharded.
A rank-based sketch with *float* state (P², CKMS) cannot give the
second property: its state depends on arrival order, so two workers
plus a merge produce different floats than one worker. This sketch
therefore uses relative-error log buckets with **integer counts**:

- a value ``v > 0`` lands in bucket ``ceil(ln(v) / ln(gamma))`` where
  ``gamma = (1 + alpha) / (1 - alpha)``;
- the bucket's representative value ``2 * gamma**k / (gamma + 1)`` is
  within ``alpha`` relative error of anything in the bucket;
- merging is bucket-wise integer addition — associative, commutative,
  and bit-identical however the stream was split (the same contract as
  :class:`repro.parallel.ShardStats`).

Quantile queries walk the sorted bucket keys, so every derived number
is a pure function of the (integer) bucket counts plus the exact
``min``/``max`` — deterministic across worker counts, which is what the
``/v1/slo`` acceptance gate checks.

Stdlib only; thread-safety is the caller's job (the
:class:`~repro.obs.slo.SLOMonitor` and the service's ``MetricsRegistry``
hold their locks).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Mapping, Optional

__all__ = ["QuantileSketch", "DEFAULT_ALPHA"]

#: Default relative accuracy: p99 of 1.00 s is reported within ±1 %.
DEFAULT_ALPHA = 0.01

# Values at or below this are counted in the zero bucket; guards the
# logarithm and keeps "instant" stages (cache hits) from minting
# millions of deep-negative keys.
_MIN_TRACKED = 1e-9


class QuantileSketch:
    """Fixed-relative-error quantile sketch over non-negative values.

    Parameters
    ----------
    alpha:
        Relative accuracy of quantile answers (0 < alpha < 1). Sketches
        only merge with sketches of the same ``alpha``.
    """

    __slots__ = ("alpha", "_gamma", "_ln_gamma", "count", "zero_count",
                 "minimum", "maximum", "_buckets")

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._ln_gamma = math.log(self._gamma)
        self.count = 0
        self.zero_count = 0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._buckets: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        """Record one observation (negative values clamp to zero)."""
        v = float(value)
        if math.isnan(v):
            return
        if v < 0.0:
            v = 0.0
        self.count += 1
        self.minimum = v if self.minimum is None else min(self.minimum, v)
        self.maximum = v if self.maximum is None else max(self.maximum, v)
        if v <= _MIN_TRACKED:
            self.zero_count += 1
            return
        key = math.ceil(math.log(v) / self._ln_gamma)
        self._buckets[key] = self._buckets.get(key, 0) + 1

    def extend(self, values: Iterable[float]) -> None:
        """Record every value in ``values``."""
        for value in values:
            self.add(value)

    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (returns ``self``).

        Bucket-wise integer addition: merging shard sketches in any
        grouping yields identical state, so quantiles are bit-identical
        regardless of worker count.
        """
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with alpha {other.alpha} "
                f"into alpha {self.alpha}"
            )
        self.count += other.count
        self.zero_count += other.zero_count
        if other.minimum is not None:
            self.minimum = (other.minimum if self.minimum is None
                            else min(self.minimum, other.minimum))
        if other.maximum is not None:
            self.maximum = (other.maximum if self.maximum is None
                            else max(self.maximum, other.maximum))
        for key, n in other._buckets.items():
            self._buckets[key] = self._buckets.get(key, 0) + n
        return self

    # ------------------------------------------------------------------
    def _representative(self, key: int) -> float:
        # Midpoint of (gamma**(k-1), gamma**k] in the relative sense.
        return 2.0 * math.pow(self._gamma, key) / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` within ``alpha`` relative error.

        Raises :class:`ValueError` on an empty sketch.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            raise ValueError("quantile of empty sketch")
        rank = max(int(math.ceil(q * self.count)), 1)
        acc = self.zero_count
        if rank <= acc:
            return 0.0
        for key in sorted(self._buckets):
            acc += self._buckets[key]
            if rank <= acc:
                value = self._representative(key)
                # min/max are tracked exactly, so clamp the bucket
                # midpoint back into the observed range.
                return min(max(value, self.minimum or 0.0),
                           self.maximum or value)
        return self.maximum if self.maximum is not None else 0.0

    def percentiles(self) -> Dict[str, float]:
        """``{"p50": …, "p95": …, "p99": …}`` or ``{}`` when empty."""
        if self.count == 0:
            return {}
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    @property
    def mean(self) -> float:
        """Approximate mean from bucket representatives (deterministic)."""
        if self.count == 0:
            return 0.0
        total = 0.0
        for key in sorted(self._buckets):
            total += self._buckets[key] * self._representative(key)
        return total / self.count

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Picklable/JSON-ready state; round-trips via :meth:`from_dict`."""
        return {
            "alpha": self.alpha,
            "count": self.count,
            "zero_count": self.zero_count,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": {str(k): self._buckets[k]
                        for k in sorted(self._buckets)},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`to_dict` output."""
        sketch = cls(alpha=float(payload.get("alpha", DEFAULT_ALPHA)))
        sketch.count = int(payload.get("count", 0))
        sketch.zero_count = int(payload.get("zero_count", 0))
        minimum = payload.get("min")
        maximum = payload.get("max")
        sketch.minimum = None if minimum is None else float(minimum)
        sketch.maximum = None if maximum is None else float(maximum)
        sketch._buckets = {
            int(k): int(n)
            for k, n in dict(payload.get("buckets", {})).items()
        }
        return sketch

    @classmethod
    def merged(cls, parts: Iterable["QuantileSketch"],
               alpha: float = DEFAULT_ALPHA) -> "QuantileSketch":
        """Merge ``parts`` into a fresh sketch (empty parts allowed)."""
        out = cls(alpha=alpha)
        for part in parts:
            out.merge(part)
        return out

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"QuantileSketch(alpha={self.alpha}, count={self.count}, "
                f"buckets={len(self._buckets)})")


# Per-stage folds shared by the SLO monitor, the offline SLO report and
# the load driver (package-internal; not part of the public API).
def _add_by_stage(sketches: Dict[str, QuantileSketch],
                  samples: Mapping[str, float], alpha: float) -> None:
    """Add each ``{stage: seconds}`` sample to its stage's sketch.

    A stage seen for the first time gets a fresh sketch of ``alpha``.
    """
    for stage, seconds in samples.items():
        sketch = sketches.get(stage)
        if sketch is None:
            sketch = sketches[stage] = QuantileSketch(alpha=alpha)
        sketch.add(seconds)


def _stage_percentiles(
    sketches: Mapping[str, QuantileSketch], request: QuantileSketch
) -> Dict[str, Dict[str, float]]:
    """``{stage: {count, p50, p95, p99}}`` by stage name, then ``request``.

    Empty sketches are left out; ``request`` is the end-to-end sketch.
    """
    out: Dict[str, Dict[str, float]] = {}
    for name, sketch in [*sorted(sketches.items()), ("request", request)]:
        pcts = sketch.percentiles()
        if pcts:
            out[name] = {"count": sketch.count, **pcts}
    return out
