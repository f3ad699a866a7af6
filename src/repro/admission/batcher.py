"""Spec-family batching: merge near-identical requests into one compute.

PR 4's coalescer collapsed *identical* requests (same fingerprint) into a
single in-flight computation. This module generalizes it one level up:
requests in the same **spec family** — equal modulo ``evaluation.seed``,
``evaluation.n_reps``, tenant and priority
(:meth:`~repro.service.spec.ScheduleRequest.family_key`) — share the
expensive part, the *schedule*, computed once per family, while their
evaluation replications are computed per **seed** and cached, following
the PR 5 shard-plan contract: replication ``i`` of a request depends only
on ``evaluation.seed + i``, never on ``n_reps`` or neighbours. Two
requests asking for overlapping seed ranges therefore share every
overlapping replication bit-for-bit, and a batched response is
byte-identical to its unbatched equivalent (the wall-clock ``elapsed_s``
field excepted, by definition).

The batcher itself is pure orchestration: two single-flight
:class:`~repro.service.cache.LRUCache` layers, family → base bundle and
``(family, seed)`` → replication record. The caller passes the family's
two compute callables with each request:

``plan(request)``
    Resolve + schedule once for the whole family; returns an opaque
    bundle (the engine packs workflow, platform, budget and schedule).
``replicate(base, seed)``
    One evaluation replication from the bundle; must be a pure function
    of ``(family, seed)``.

:meth:`FamilyBatcher.compute` returns ``(base, reps)`` and the caller
folds them into its response, so the engine depends on the batcher, not
the other way around, and the batcher is testable with toy functions.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Tuple

from ..service.cache import LRUCache
from ..service.spec import ScheduleRequest

__all__ = ["FamilyBatcher"]


class FamilyBatcher:
    """Two-level single-flight batching over spec families (thread-safe).

    Parameters
    ----------
    max_families:
        Base-bundle cache capacity (a bundle holds a resolved workflow
        and schedule — heavier than a response, so keep this modest).
    max_reps:
        Replication-record cache capacity (records are small dicts).
    clock:
        Monotonic seconds source for the caches; injectable for tests.
    """

    def __init__(
        self,
        *,
        max_families: int = 64,
        max_reps: int = 8192,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._bases = LRUCache(max_families, clock=clock)
        self._reps = LRUCache(max_reps, clock=clock)
        self._lock = threading.Lock()
        self._requests = 0
        self._batched = 0
        self._reps_shared = 0
        self._reps_computed = 0

    def compute(
        self,
        request: ScheduleRequest,
        plan: Callable[[ScheduleRequest], Any],
        replicate: Callable[[Any, int], Dict[str, Any]],
    ) -> Tuple[Any, List[Dict[str, Any]]]:
        """Serve ``request`` through the family/seed caches.

        Returns ``(base, reps)``: the family's base bundle, from ``plan``
        at most once per family (concurrent first requests coalesce
        single-flight), and this request's replication records in seed
        order, from ``replicate`` at most once per ``(family, seed)``.
        """
        family = request.family_key()
        base, base_shared = self._bases.get_or_compute(
            family, lambda: plan(request)
        )
        spec = request.evaluation
        reps: List[Dict[str, Any]] = []
        shared = 0
        for i in range(spec.n_reps):
            seed = spec.seed + i
            rep, was_cached = self._reps.get_or_compute(
                (family, seed), lambda s=seed: replicate(base, s)
            )
            shared += was_cached
            reps.append(rep)
        with self._lock:
            self._requests += 1
            self._batched += base_shared
            self._reps_shared += shared
            self._reps_computed += spec.n_reps - shared
        return base, reps

    def served_batched(self, request: ScheduleRequest) -> bool:
        """Whether this request's family base already exists (peek only)."""
        return self._bases.get(request.family_key(), touch=False) is not None

    def clear(self) -> None:
        """Drop all cached bases and replications (counters kept)."""
        self._bases.clear()
        self._reps.clear()

    def stats(self) -> Dict[str, Any]:
        """JSON-ready batching statistics (for ``/v1/admission``).

        ``batched`` counts requests that *reused* a family base computed
        for an earlier request — the work the batcher saved.
        """
        with self._lock:
            out = {
                "requests": self._requests,
                "batched": self._batched,
                "reps_shared": self._reps_shared,
                "reps_computed": self._reps_computed,
            }
        out["families_cached"] = len(self._bases)
        out["reps_cached"] = len(self._reps)
        return out
