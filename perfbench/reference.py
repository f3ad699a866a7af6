"""A fixed reference workload that measures how fast the machine runs now.

The machine the benchmark was defined on runs the same code up to 1.5x
faster or slower from one run to the next (other tenants share its
cores), and every CPU-bound phase moves with it: over six seeds, serial
replay rates correlated 0.99 with the speed of this workload measured in
the same run. The benchmark therefore runs :func:`work` right before
every phase of every round and scales each CPU-bound metric to the speed
at which :func:`work` takes :data:`NOMINAL_S`: a rate times
``reference_s / NOMINAL_S``, a time times ``NOMINAL_S / reference_s``,
where ``reference_s`` is the mean of all the run's samples.
What a change to the system does to its own speed shows in full; what the
machine does to every program's speed cancels.

:func:`work` does the kinds of operation the simulator and the planners
spend their time on — heap pushes and pops of tuples, dict updates,
float arithmetic and small numpy draws — and nothing from :mod:`repro`,
so no change to the system under test changes it.
"""

from __future__ import annotations

import heapq
import random

import numpy as np

from common import Phase

#: Seconds :func:`work` took on the machine the benchmark was defined on
#: (2 vCPUs, Intel Xeon, Python 3.11, numpy 2.4): the speed every scaled
#: metric is reported at.
NOMINAL_S = 0.0125


def work() -> float:
    """One fixed unit of reference work; returns its checksum."""
    rng = random.Random(7)
    heap, state, total = [], {}, 0.0
    for i in range(12000):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 64:
            t, k = heapq.heappop(heap)
            state[k % 97] = state.get(k % 97, 0.0) + t
            total += t * 1.5
    gen = np.random.default_rng(7)
    for _ in range(100):
        total += float(gen.lognormal(size=50).sum())
    return total


#: The checksum every call must return.
CHECKSUM = work()


def phase(name: str) -> Phase:
    """A phase that runs :func:`work` once per round and checks it."""

    def one(_item, _visit) -> None:
        if work() != CHECKSUM:
            raise AssertionError("reference work returned a different checksum")

    return Phase(name, [None], one)


def interleave(phases):
    """``(refs, schedule)``: one reference phase placed right before each
    phase, so the samples spread over the whole round."""
    refs = [phase(f"reference.{p.name}") for p in phases]
    return refs, [q for pair in zip(refs, phases) for q in pair]
