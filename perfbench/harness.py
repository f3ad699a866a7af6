"""Measurement arithmetic shared by every phase of the benchmark.

Nothing here imports :mod:`repro`: the span recorder, the percentile
rule, self-time accounting and open-loop latency arithmetic are plain
functions over numbers, so ``perfbench/test_harness.py`` can check them
without the system under test.
"""

from __future__ import annotations

import math
import os
import platform as _platform
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


# ----------------------------------------------------------------------
# percentiles


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile, linear between the two closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_for_tail(p: float, min_beyond: int = MIN_BEYOND) -> int:
    """Fewest samples that leave ``min_beyond`` of them above the ``p``-th
    percentile: ``n × (1 − p/100) ≥ min_beyond``."""
    if not 0.0 <= p < 100.0:
        raise ValueError(f"tail percentile must be in [0, 100), got {p}")
    return math.ceil(min_beyond * 100.0 / (100.0 - p) - 1e-6)


# ----------------------------------------------------------------------
# open-loop arithmetic


def due_times(start: float, rate: float, n: int) -> List[float]:
    """Send times of an ``n``-request open loop at ``rate`` per second."""
    if rate <= 0.0:
        raise ValueError(f"rate must be > 0, got {rate}")
    return [start + i / rate for i in range(n)]


def open_loop_latency(due: float, sent: float, done: float) -> Tuple[float, float]:
    """``(latency, lateness)`` of one open-loop request.

    Latency runs from the *due* time, not the send time, so a stalled
    generator or a busy connection counts against every request it
    delays; lateness is how far behind schedule the send was.
    """
    if done < sent:
        raise ValueError(f"request finished ({done}) before it was sent ({sent})")
    return done - due, max(sent - due, 0.0)


# ----------------------------------------------------------------------
# spans


class SpanRecorder:
    """In-memory spans plus aggregated leaf timings, safe across threads.

    A span is ``[name, start, end, parent, request_id, leaf_s]``: ``parent``
    indexes the span that was open on the same thread when it started, and
    ``leaf_s`` is the time of *leaf* calls made directly inside it. Leaf
    calls (flow-pool and event-queue operations, millions per run) are
    too many to keep one by one, so :meth:`leaf` adds their duration to
    the enclosing span and to a per-name total instead.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._local = threading.local()
        self._tables: List[Dict[str, list]] = []
        self._tables_lock = threading.Lock()

    # -- per-thread state ---------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _table(self) -> Dict[str, list]:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {}
            with self._tables_lock:
                self._tables.append(table)
        return table

    def set_request(self, request_id: Optional[str]) -> None:
        """Tag spans opened on this thread from now on with ``request_id``."""
        self._local.request_id = request_id

    # -- spans --------------------------------------------------------------
    def open(self, name: str) -> int:
        """Start a span on this thread; returns its index."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [name, self.clock(), None, parent,
                getattr(self._local, "request_id", None), 0.0]
        self.spans.append(span)
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the span ``index`` (the innermost open one on this thread)."""
        self.spans[index][2] = self.clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def span(self, name: str) -> "_SpanContext":
        """Context manager form of :meth:`open` / :meth:`close`."""
        return _SpanContext(self, name)

    # -- leaves and counts --------------------------------------------------
    def leaf(self, name: str, seconds: float, calls: int = 1) -> None:
        """Charge one leaf call to ``name`` and to the enclosing span."""
        entry = self._table().setdefault(name, [0.0, 0])
        entry[0] += seconds
        entry[1] += calls
        stack = self._stack()
        if stack:
            self.spans[stack[-1]][5] += seconds

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (a leaf with no time)."""
        entry = self._table().setdefault(name, [0.0, 0])
        entry[1] += n

    def leaves(self) -> Dict[str, Tuple[float, int]]:
        """Leaf and counter totals merged over every thread."""
        out: Dict[str, Tuple[float, int]] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for name, (seconds, calls) in list(table.items()):
                s0, c0 = out.get(name, (0.0, 0))
                out[name] = (s0 + seconds, c0 + calls)
        return out


class _SpanContext:
    def __init__(self, rec: SpanRecorder, name: str) -> None:
        self.rec = rec
        self.name = name
        self.index = -1

    def __enter__(self) -> int:
        self.index = self.rec.open(self.name)
        return self.index

    def __exit__(self, *exc_info) -> None:
        self.rec.close(self.index)


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _self_seconds(spans: Sequence[Sequence], first: int, last: int):
    """``(index, self seconds)`` of every closed span in ``[first, last)``."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for i in range(first, last):
        _name, start, end, parent, _rid, _leaf = spans[i]
        if parent is not None and end is not None:
            children.setdefault(parent, []).append((start, end))
    for i in range(first, last):
        _name, start, end, _parent, _rid, leaf = spans[i]
        if end is None:
            continue
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(i, ())]
        covered = _union_length((lo, hi) for lo, hi in kids if hi > lo)
        yield i, max(end - start - covered - leaf, 0.0)


def self_times(spans: Sequence[Sequence], first: int = 0) -> Dict[str, float]:
    """Self seconds per span name over ``spans[first:]``.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (overlapping children count once) minus
    the leaf time charged to it. Children are matched by ``parent``
    index; spans still open are skipped.
    """
    out: Dict[str, float] = {}
    for i, seconds in _self_seconds(spans, first, len(spans)):
        name = spans[i][0]
        out[name] = out.get(name, 0.0) + seconds
    return out


def self_times_by_root(spans: Sequence[Sequence], first: int = 0
                       ) -> Dict[str, Dict[str, float]]:
    """:func:`self_times` grouped by the name of each span's root span.

    Spans are recorded at open, so a parent always precedes its children;
    every span from ``first`` on must have its ancestors there too.
    """
    root: Dict[int, int] = {}
    for i in range(first, len(spans)):
        parent = spans[i][3]
        root[i] = i if parent is None else root[parent]
    out: Dict[str, Dict[str, float]] = {}
    for i, seconds in _self_seconds(spans, first, len(spans)):
        group = out.setdefault(spans[root[i]][0], {})
        name = spans[i][0]
        group[name] = group.get(name, 0.0) + seconds
    return out


def span_stats(spans: Sequence[Sequence], first: int = 0
               ) -> Dict[str, Tuple[float, int]]:
    """``(total inclusive seconds, calls)`` per span name over ``spans[first:]``."""
    out: Dict[str, Tuple[float, int]] = {}
    for i in range(first, len(spans)):
        name, start, end = spans[i][0], spans[i][1], spans[i][2]
        if end is None:
            continue
        s, c = out.get(name, (0.0, 0))
        out[name] = (s + end - start, c + 1)
    return out


def layer_shares(self_s: Dict[str, float], leaves: Dict[str, float],
                 wall: float) -> Dict[str, float]:
    """Share of ``wall`` spent in each module, plus an ``other`` remainder.

    Span and leaf names are ``module.function``; a module's share sums
    the self time of all of them. ``other`` is whatever no instrumented
    call covered (the benchmark's own loop, interpreter overhead).
    """
    if wall <= 0.0:
        raise ValueError(f"wall time must be > 0, got {wall}")
    by_module: Dict[str, float] = {}
    for name, seconds in list(self_s.items()) + list(leaves.items()):
        module = name.split(".", 1)[0]
        if module == "bench":
            continue
        by_module[module] = by_module.get(module, 0.0) + seconds
    shares = {m: s / wall for m, s in by_module.items()}
    shares["other"] = max(1.0 - sum(shares.values()), 0.0)
    return shares


def diff_leaves(after: Dict[str, Tuple[float, int]],
                before: Dict[str, Tuple[float, int]]) -> Dict[str, Tuple[float, int]]:
    """Leaf totals accumulated between two :meth:`SpanRecorder.leaves` calls."""
    out = {}
    for name, (seconds, calls) in after.items():
        s0, c0 = before.get(name, (0.0, 0))
        out[name] = (seconds - s0, calls - c0)
    return out


# ----------------------------------------------------------------------
# machine and memory


def machine_info() -> Dict[str, object]:
    """What every result records about the machine it ran on."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 1
    cpu = _platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:  # pragma: no cover - non-Linux
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "missing"
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": _platform.python_version(),
        "numpy": numpy_version,
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid`` (default: this process), in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0
