"""Seed-deterministic sharding of Monte Carlo replication loops.

The §V-A protocol executes one schedule ``n_reps`` times under sampled
actual weights; :class:`ShardPlan` splits that loop into contiguous
per-worker shards whose merged results are **bit-identical to the serial
run regardless of worker count or completion order**. The contract rests
on two facts:

* replication ``r`` draws its weights from the ``r``-th
  :func:`repro.rng.spawn` substream of the point's generator — a pure
  function of the root seed and ``r``, so a worker holding the ``r``-th
  :class:`numpy.random.SeedSequence` reproduces the serial draw exactly
  (:func:`repro.rng.spawn_seeds` hands those out without building
  generators);
* each replication's outputs (makespan, cost, VM count, validity) are a
  deterministic function of its weights, so concatenating per-replication
  values *in shard order* reconstructs the serial sequence no matter
  which worker finished first.

:class:`ShardStats` is the reduction half of the contract: per-shard
running sums / sums of squares / min / max merge associatively, which is
what the statistical regression gate consumes (``mean``/``std``/``n``)
without ever shipping full sample vectors around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

__all__ = ["Shard", "ShardPlan", "ShardStats", "MIN_SHARD_SIZE"]

#: Below this many items per prospective shard the plan collapses to a
#: single serial shard — process dispatch costs more than it saves on
#: tiny replication counts (the auto-fallback the benchmarks assert).
MIN_SHARD_SIZE = 4


@dataclass(frozen=True)
class Shard:
    """One contiguous block ``[start, stop)`` of a replication loop."""

    index: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        """Number of replications in the shard."""
        return self.stop - self.start

    def slice(self, items: Sequence) -> Sequence:
        """The shard's slice of a per-replication sequence."""
        return items[self.start:self.stop]


@dataclass(frozen=True)
class ShardPlan:
    """How an ``n_items`` loop splits across ``n_workers`` processes.

    Shards are contiguous and cover ``range(n_items)`` exactly once, in
    order — the merge step concatenates shard results by ``index`` and
    recovers the serial sequence. Use :meth:`plan`; the constructor is for
    tests.
    """

    n_items: int
    shards: Tuple[Shard, ...]

    @classmethod
    def plan(
        cls,
        n_items: int,
        workers: int,
        *,
        min_shard_size: int = MIN_SHARD_SIZE,
        shards_per_worker: int = 1,
    ) -> "ShardPlan":
        """Split ``n_items`` into at most ``workers × shards_per_worker``
        contiguous shards of at least ``min_shard_size`` items.

        ``workers <= 0`` (or too few items to fill two minimum-size
        shards) yields the single-shard plan — the caller's signal to stay
        serial. ``shards_per_worker > 1`` over-partitions for better load
        balance when per-item cost varies.
        """
        if n_items < 0:
            raise ValueError(f"cannot shard {n_items} items")
        if min_shard_size < 1:
            raise ValueError(
                f"min_shard_size must be >= 1, got {min_shard_size}"
            )
        if shards_per_worker < 1:
            raise ValueError(
                f"shards_per_worker must be >= 1, got {shards_per_worker}"
            )
        if n_items == 0:
            return cls(n_items=0, shards=())
        n_shards = max(1, workers) * shards_per_worker
        n_shards = min(n_shards, n_items // min_shard_size)
        if workers <= 0 or n_shards <= 1:
            return cls(
                n_items=n_items, shards=(Shard(index=0, start=0, stop=n_items),)
            )
        base, rem = divmod(n_items, n_shards)
        shards: List[Shard] = []
        start = 0
        for i in range(n_shards):
            stop = start + base + (1 if i < rem else 0)
            shards.append(Shard(index=i, start=start, stop=stop))
            start = stop
        return cls(n_items=n_items, shards=tuple(shards))

    @property
    def n_shards(self) -> int:
        """Number of shards in the plan."""
        return len(self.shards)

    @property
    def is_serial(self) -> bool:
        """True when the plan degenerated to at most one shard."""
        return len(self.shards) <= 1

    def merge(self, per_shard: Sequence[Sequence]) -> List:
        """Concatenate per-shard result lists back into serial order.

        ``per_shard[i]`` must hold shard ``i``'s per-replication results;
        lengths are checked so a lost shard cannot silently shift every
        later replication.
        """
        if len(per_shard) != len(self.shards):
            raise ValueError(
                f"expected {len(self.shards)} shard results, got {len(per_shard)}"
            )
        merged: List = []
        for shard, results in zip(self.shards, per_shard):
            if len(results) != shard.size:
                raise ValueError(
                    f"shard {shard.index} returned {len(results)} results "
                    f"for {shard.size} replications"
                )
            merged.extend(results)
        return merged


@dataclass
class ShardStats:
    """Associatively mergeable sample statistics of one shard.

    Tracks ``n`` / ``sum`` / ``sum_sq`` / ``min`` / ``max`` plus the raw
    per-replication values (in shard order), so the merge of all shards
    both reduces the moments and reconstructs the serial value sequence.
    """

    n: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    values: List[float] = field(default_factory=list)

    @classmethod
    def of(cls, values: Iterable[float]) -> "ShardStats":
        """Fold an iterable of samples into one stats block."""
        stats = cls()
        for value in values:
            stats.add(value)
        return stats

    def add(self, value: float) -> None:
        """Fold one sample in."""
        self.n += 1
        self.total += value
        self.total_sq += value * value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        self.values.append(value)

    @property
    def mean(self) -> float:
        """Sample mean (0 when empty)."""
        return self.total / self.n if self.n else 0.0

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1; 0 while ``n < 2``)."""
        if self.n < 2:
            return 0.0
        var = (self.total_sq - self.n * self.mean * self.mean) / (self.n - 1)
        return math.sqrt(max(var, 0.0))

    @classmethod
    def merge(cls, parts: Sequence["ShardStats"]) -> "ShardStats":
        """Reduce per-shard stats in shard order into one block."""
        out = cls()
        for part in parts:
            out.n += part.n
            out.total += part.total
            out.total_sq += part.total_sq
            out.minimum = min(out.minimum, part.minimum)
            out.maximum = max(out.maximum, part.maximum)
            out.values.extend(part.values)
        return out

    def to_dict(self) -> dict:
        """JSON-ready ``{mean, std, n, min, max}`` (for ledger extras)."""
        return {
            "mean": self.mean,
            "std": self.std,
            "n": self.n,
            "min": self.minimum if self.n else 0.0,
            "max": self.maximum if self.n else 0.0,
        }
