"""Workload definitions and the interleaved timing loop every phase shares."""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import diff_leaves

FAMILIES = ("montage", "ligo", "cybershake")


@dataclass(frozen=True)
class Scale:
    """Input sizes of one workload. Every workload runs every phase."""

    #: list mix: heft_budg at all three budgets, minmin_budg at a size
    #: where one plan costs about as much as a heft_budg plan.
    list_tasks: int
    minmin_tasks: int
    minmin_budgets: Tuple[str, ...]
    #: refine mix: heft_budg_plus / heft_budg_plus_inv.
    refine_tasks: int
    #: plans of each mix per round (a mix's cycle spans several rounds).
    list_per_round: int
    refine_per_round: int
    #: replay: replications per timed batch and batches per round,
    #: infinite DC (phases a and c) and finite DC (phase b).
    batch_reps: int
    replay_per_round: int
    dc_tasks: int
    dc_batch_reps: int
    dc_per_round: int


#: Datacenter capacity (bytes/s) for the finite-capacity replay: 20 MB/s,
#: inside the range ``benchmarks/test_ablation_bandwidth.py`` sweeps.
DC_CAPACITY = 20e6

#: Open-loop latency percentile reported as the tail. It keeps at least
#: ten samples beyond it (the run goes on until it does; a 40 s run
#: collects about 280) and sits near the middle of the slow mode of the latency
#: distribution (fresh and new-seed requests, 21 % of the requests; see
#: ``service_phase.BLOCK``).
TAIL_PERCENTILE = 90.0

SCALES = {
    "large": Scale(
        list_tasks=400, minmin_tasks=100,
        minmin_budgets=("medium",), refine_tasks=30,
        list_per_round=3, refine_per_round=5,
        batch_reps=8, replay_per_round=3,
        dc_tasks=400, dc_batch_reps=4, dc_per_round=1,
    ),
    "medium": Scale(
        list_tasks=200, minmin_tasks=60,
        minmin_budgets=("low", "medium", "high"), refine_tasks=20,
        list_per_round=6, refine_per_round=6,
        batch_reps=16, replay_per_round=3,
        dc_tasks=200, dc_batch_reps=4, dc_per_round=2,
    ),
}


class Outcome:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def attempt(self, fn: Callable, *args) -> bool:
        """Run one operation; a raised exception counts it as failed."""
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # the run goes on and reports the failure
            self.fail(f"{type(exc).__name__}: {exc}")
            return False
        return True

    def fail(self, problem: str) -> None:
        """Record one failed operation."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


@dataclass
class Phase:
    """One timed phase: ``run(item, visit)`` is called ``per_round`` times
    per round, walking the items in a seeded order; ``visit`` counts the
    earlier calls on the same item.

    ``unit_per_item`` is how many counted units (plans, replications) one
    call produces; :meth:`rate` turns the per-item timings into units per
    second.
    """

    name: str
    items: Sequence
    run: Callable
    unit_per_item: int = 1
    per_round: int = 1
    times: List[List[float]] = field(default_factory=list)

    def rate(self) -> float:
        """Units over the sum of each item's *mean* time: one cycle's
        throughput, with every item weighted once however often it ran.

        Means, not medians: the machine alternates between a fast and a
        slow speed every few seconds, and a median snaps to one of the two
        where a mean tracks the share of time spent in each.
        """
        total = sum(statistics.fmean(t) for t in self.times)
        return self.unit_per_item * len(self.items) / total

    @property
    def n_units(self) -> int:
        """Units timed in all rounds."""
        return self.unit_per_item * sum(len(t) for t in self.times)

    def cycles_done(self) -> bool:
        """Whether every item has run at least once."""
        return all(self.times)


def run_rounds(phases: Sequence[Phase], seconds: float, seed: int,
               outcome: Outcome, rec=None,
               clock: Callable[[], float] = time.perf_counter,
               done: Optional[Callable[[], bool]] = None,
               on_round_end: Optional[Callable[[int], None]] = None) -> Dict[str, dict]:
    """Interleave the phases round by round for at least ``seconds``.

    Each round runs ``per_round`` calls of every phase in turn, so each
    phase samples the whole measured interval rather than one slice of it
    and a slow spell of the machine weighs on all of them alike. Rounds
    go on until ``seconds`` have passed, every phase has run each of its
    items once, and ``done()`` (if given) holds.

    With a :class:`~harness.SpanRecorder` ``rec``, each phase's calls of a
    round run under a ``bench.<phase>`` span, and the returned mapping
    gives per phase its wall time, its leaf totals, and (``first``) the
    counts of its first visit to every item — a fixed amount of work, so
    they repeat exactly for a seed.
    """
    for phase in phases:
        phase.times = [[] for _ in phase.items]
    orders = {}
    for phase in phases:
        # Keyed by the item count, so phases over the same items walk
        # them in the same order (sharded replay repeats the batch serial
        # replay ran earlier in the round).
        order = list(range(len(phase.items)))
        random.Random(f"{seed}-{len(order)}").shuffle(order)
        orders[phase.name] = order
    cursors = {phase.name: 0 for phase in phases}
    trace = {p.name: {"wall": 0.0, "leaves": {}, "first": {}} for p in phases}
    start = clock()
    rnd = 0
    while True:
        for phase in phases:
            order, n = orders[phase.name], len(phase.items)
            if rec is not None:
                before = rec.leaves()
                index = rec.open(f"bench.{phase.name}")
                t_phase = clock()
            for _ in range(phase.per_round):
                cursor = cursors[phase.name]
                cursors[phase.name] += 1
                i, visit = order[cursor % n], cursor // n
                if rec is not None and visit == 0:
                    item_before = rec.leaves()
                t0 = clock()
                outcome.attempt(phase.run, phase.items[i], visit)
                phase.times[i].append(clock() - t0)
                if rec is not None and visit == 0:
                    first = trace[phase.name]["first"]
                    for name, (_s, calls) in diff_leaves(rec.leaves(), item_before).items():
                        first[name] = first.get(name, 0) + calls
            if rec is not None:
                rec.close(index)
                entry = trace[phase.name]
                entry["wall"] += clock() - t_phase
                for name, (secs, calls) in diff_leaves(rec.leaves(), before).items():
                    s0, c0 = entry["leaves"].get(name, (0.0, 0))
                    entry["leaves"][name] = (s0 + secs, c0 + calls)
        if on_round_end is not None:
            on_round_end(rnd)
        rnd += 1
        if (clock() - start >= seconds and all(p.cycles_done() for p in phases)
                and (done is None or done())):
            return trace
