"""Trace the system under test from outside, at its public functions.

:func:`instrument` rebinds the public functions of each layer of
:mod:`repro` to timing wrappers that record into a
:class:`~harness.SpanRecorder`, and returns a function that restores the
originals. No file of the package changes: every module-level binding
that refers to a wrapped function (``from .executor import
execute_schedule`` copies one) is swapped, and class methods are
replaced on the class. Span names are ``<module>.<function>``, so the
module is the layer.

Flow-pool and event-queue operations run thousands of times per
replication; they are recorded as leaf totals on the enclosing span
(see :meth:`~harness.SpanRecorder.leaf`), not as spans of their own.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable, List, Tuple

from harness import SpanRecorder


def _spanned(rec: SpanRecorder, name: str, fn: Callable,
             after: Callable = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(out)
        return out

    return wrapper


def _rebind_everywhere(original: Callable, replacement: Callable,
                       undo: List[Tuple[object, str, object]]) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)


def _wrap_method(rec, cls, method: str, name: str, undo, after=None) -> None:
    original = cls.__dict__[method]
    undo.append((cls, method, original))
    setattr(cls, method, _spanned(rec, name, original, after))


def _all_subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def _leaf_class(rec: SpanRecorder, base: type, leaf: str,
                methods: Tuple[str, ...], counters) -> type:
    """A subclass of ``base`` whose ``methods`` charge leaf time."""
    clock = rec.clock
    namespace = {}
    for method in methods:
        original = getattr(base, method)
        counter = counters.get(method)

        def make(original=original, counter=counter):
            def timed(self, *args, **kwargs):
                t0 = clock()
                out = original(self, *args, **kwargs)
                rec.leaf(leaf, clock() - t0)
                if counter is not None:
                    counter(out)
                return out
            timed.__name__ = original.__name__
            timed.__doc__ = original.__doc__
            return timed

        namespace[method] = make()
    return type(base.__name__, (base,), namespace)


def instrument(rec: SpanRecorder, *, service: bool = False) -> Callable[[], None]:
    """Install the timing wrappers; returns the function that removes them.

    ``service=True`` also wraps the service, admission and ledger layers
    (used inside the server process by ``serve_launcher.py``).
    """
    import repro.workflow.generators as generators
    from repro.scheduling.list_base import Scheduler
    from repro.scheduling.planning import PlanningState
    from repro.scheduling.refine import refine_schedule
    from repro.simulation import executor
    from repro.simulation.bandwidth import FlowPool
    from repro.simulation.events import EventQueue

    undo: List[Tuple[object, str, object]] = []

    def rebind(fn, name, after=None):
        _rebind_everywhere(fn, _spanned(rec, name, fn, after), undo)

    rebind(generators.generate, "workflow.generate")
    for cls in [Scheduler] + _all_subclasses(Scheduler):
        if "schedule" in cls.__dict__ and not getattr(
                cls.__dict__["schedule"], "__isabstractmethod__", False):
            _wrap_method(rec, cls, "schedule", "scheduling.schedule", undo)
    _wrap_method(rec, PlanningState, "evaluate_all", "scheduling.evaluate_all",
                 undo, after=lambda evs: rec.count("scheduling.host_evals", len(evs)))
    rebind(refine_schedule, "scheduling.refine")
    rebind(executor.sample_weights, "simulation.sample",
           after=lambda _w: rec.count("simulation.samples"))
    rebind(executor.execute_schedule, "simulation.execute",
           after=lambda _r: rec.count("simulation.executions"))
    rebind(executor.evaluate_schedule, "simulation.evaluate",
           after=lambda _r: rec.count("simulation.evaluations"))
    rebind(executor.run_replications, "simulation.run_replications")

    def flows_done(done):
        if done:
            rec.count("simulation.events", len(done))

    pool_cls = _leaf_class(
        rec, FlowPool, "simulation.flowpool",
        ("start", "cancel", "advance", "next_completion"),
        {"advance": flows_done},
    )
    queue_cls = _leaf_class(
        rec, EventQueue, "simulation.eventqueue", ("push", "pop", "peek_time"),
        {"pop": lambda _e: rec.count("simulation.events")},
    )
    _rebind_everywhere(FlowPool, pool_cls, undo)
    _rebind_everywhere(EventQueue, queue_cls, undo)

    if service:
        from repro.admission.batcher import FamilyBatcher
        from repro.admission.controller import AdmissionController
        from repro.obs.ledger import RunLedger
        from repro.obs.prometheus import render_prometheus
        from repro.service.cache import LRUCache
        from repro.service.engine import SchedulingService

        counter = iter(range(1, 1 << 62))
        original_schedule = SchedulingService.__dict__["schedule"]

        @functools.wraps(original_schedule)
        def schedule(self, request):
            rec.set_request(f"req-{next(counter)}")
            index = rec.open("service.schedule")
            try:
                return original_schedule(self, request)
            finally:
                rec.close(index)
                rec.set_request(None)

        undo.append((SchedulingService, "schedule", original_schedule))
        SchedulingService.schedule = schedule
        _wrap_method(rec, SchedulingService, "stats", "service.stats", undo)
        _wrap_method(rec, LRUCache, "get_or_compute", "service.cache", undo)
        _wrap_method(rec, AdmissionController, "admit", "admission.admit", undo)
        _wrap_method(rec, AdmissionController, "reconcile",
                     "admission.reconcile", undo)
        _wrap_method(rec, FamilyBatcher, "compute", "admission.batch", undo)
        _wrap_method(rec, RunLedger, "record", "obs.ledger_record", undo)
        rebind(render_prometheus, "obs.render_prometheus")

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore
