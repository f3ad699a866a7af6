"""Max-plus replay: a fixed schedule's makespan and cost without the event loop.

On the paper's main model — no faults, infinite datacenter capacity,
single-core VMs, per-second billing — replaying a schedule under fixed
weights needs no event queue. Each VM serves its queue FIFO, one task at a
time, so one pass in dispatch order settles every clock (a max-plus
recurrence):

* ``G``, the moment a task's inputs are all at hand, is the latest upload
  arrival of its cross-VM predecessors and compute end of its same-VM
  ones (0 without predecessors);
* a VM's first task books the VM at ``G`` and waits ``boot_time`` for it;
  a later task starts at ``max(previous compute end, G)``;
* the download moves ``external_input`` plus each cross-VM predecessor's
  data, summed in ``wf.predecessors`` order and divided once by ``bw``;
  the compute follows it; uploads leave at compute end, one per cross-VM
  consumer plus one for external output; a transfer of at most
  ``_EPS_BYTES`` takes no time;
* a VM ends at the latest of its last compute end, its ready time and its
  upload arrivals; the cost is :meth:`CostBreakdown.build` over the VMs in
  id order.

The float operations are the event executor's, in its order, so
``(makespan, total_cost)`` equal :func:`~.executor.execute_schedule`'s
bit for bit. That includes the flow pool's *snap*: at infinite capacity a
flow is reported at the first loop clock ``c`` at or after its start with
``finish <= c + _EPS_TIME·max(1, c)``, up to 1e-9 relative early (see
:mod:`.bandwidth`). The loop clocks are the boot-ready and compute-end
events and the report times of the flows. So a pass records every clock
and every flow's start and finish; when two clocks lie within
``_EPS_TIME`` of each other, a walk over the sorted clocks finds the flows
that an earlier clock absorbs, and the pass runs again with each such
flow reported at its absorbing clock, until the absorptions repeat. A
schedule whose absorptions have not settled after ``_MAX_PASSES`` passes,
or that leaves the model above (a multi-core category, or a spot category
billed along a market trajectory), is handed to the event executor.
"""

from __future__ import annotations

from itertools import repeat
from operator import sub, truediv
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..platform.cloud import CloudPlatform
from ..platform.pricing import CostBreakdown
from ..platform.vm import VMCategory
from ..scheduling.schedule import Schedule
from ..workflow.dag import Workflow
from .bandwidth import _EPS_BYTES, _EPS_TIME
from .executor import conservative_weights, execute_schedule

__all__ = ["ReplayScore", "ScheduleReplay"]

#: Passes before a schedule whose absorptions keep changing goes to the
#: event executor.
_MAX_PASSES = 4


class ReplayScore(NamedTuple):
    """What Algorithm 5 reads of a replay."""

    makespan: float
    total_cost: float
    n_vms: int


class ScheduleReplay:
    """The recurrence compiled for one workflow, platform and dispatch order.

    Built once per refinement pass; :meth:`evaluate` and
    :meth:`evaluate_move` then score any assignment of that order with one
    pass (occasionally a few, see the module docstring). ``weights``
    defaults to the planning weights ``w̄ + σ`` of :func:`evaluate_schedule
    <repro.simulation.executor.evaluate_schedule>`. ``n_fallbacks`` counts
    the schedules handed to the event executor.
    """

    def __init__(
        self,
        wf: Workflow,
        platform: CloudPlatform,
        order: Sequence[str],
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        self._wf = wf
        self._platform = platform
        self._order = list(order)
        self._weights = conservative_weights(wf) if weights is None else weights
        self._pos = pos = {tid: i for i, tid in enumerate(self._order)}
        edge_of: Dict[Tuple[str, str], int] = {}
        succs = []
        for tid in self._order:
            row = []
            for consumer, data in wf.successors(tid).items():
                row.append((pos[consumer], data, len(edge_of)))
                edge_of[(tid, consumer)] = len(edge_of)
            succs.append(tuple(row))
        self._succs = succs
        self._preds = [
            tuple(
                (pos[producer], data, edge_of[(producer, tid)])
                for producer, data in wf.predecessors(tid).items()
            )
            for tid in self._order
        ]
        tasks = [wf.task(tid) for tid in self._order]
        self._work = [self._weights[tid] for tid in self._order]
        self._ext_in = [task.external_input for task in tasks]
        self._ext_out = [task.external_output for task in tasks]
        self._n_edges = len(edge_of)
        self._market = platform.spot_market is not None
        self.n_fallbacks = 0

    # ------------------------------------------------------------------
    def evaluate(self, schedule: Schedule) -> ReplayScore:
        """Makespan, total cost and VM count of ``schedule``."""
        score = self._score(self._assign(schedule), schedule.categories)
        return score if score is not None else self._fallback(schedule)

    def evaluate_move(
        self, schedule: Schedule, tid: str, vm_id: int, category: VMCategory
    ) -> ReplayScore:
        """The score of ``schedule.reassigned(tid, vm_id, category)``,
        without building that schedule."""
        assign = self._assign(schedule)
        assign[self._pos[tid]] = vm_id
        categories = schedule.categories
        if vm_id not in categories:
            categories = dict(categories)
            categories[vm_id] = category
        score = self._score(assign, categories)
        if score is not None:
            return score
        return self._fallback(schedule.reassigned(tid, vm_id, category))

    def _assign(self, schedule: Schedule) -> List[int]:
        """``schedule``'s VM of each task, in the replay's dispatch order."""
        if schedule.order != self._order:
            raise SimulationError("schedule's dispatch order is not the replay's")
        assignment = schedule.assignment
        return [assignment[tid] for tid in self._order]

    def _fallback(self, schedule: Schedule) -> ReplayScore:
        self.n_fallbacks += 1
        run = execute_schedule(
            self._wf, self._platform, schedule, self._weights, validate=False
        )
        return ReplayScore(run.makespan, run.total_cost, run.n_vms)

    # ------------------------------------------------------------------
    def _score(
        self, assign: List[int], categories: Mapping[int, VMCategory]
    ) -> Optional[ReplayScore]:
        """The recurrence's score, or None when the event executor must
        decide (outside the model, or absorptions that do not settle)."""
        snap: Dict[int, float] = {}
        for _ in range(_MAX_PASSES):
            state = self._pass(assign, categories, snap)
            if state is None:
                return None
            booked, ready_at, last_end, upload_end, clocks = state
            absorbed = _absorptions(*clocks)
            if absorbed == snap:
                break
            snap = absorbed
        else:
            return None
        vms = sorted(booked)
        end_at = {vm: max(last_end[vm], upload_end[vm]) for vm in vms}
        makespan = max(end_at.values()) - min(booked.values())
        cost = CostBreakdown.build(
            self._platform, self._wf, makespan,
            ((categories[vm], ready_at[vm], end_at[vm]) for vm in vms),
        )
        return ReplayScore(makespan, cost.total, len(vms))

    def _pass(self, assign, categories, snap):
        """One pass in dispatch order, with the flows in ``snap`` (flow
        key → clock) reported at their absorbing clock.

        Flow keys: task ``i``'s download is ``i``, its external-output
        upload ``n + i``, and the upload of edge ``e`` is ``2n + e``.
        Returns the per-VM booking, ready, last-compute-end and
        last-upload-end maps and the clocks ``(events, finishes, starts,
        keys)`` for :func:`_absorptions`; None outside the model.
        """
        n = len(assign)
        bw = self._platform.bandwidth
        work, ext_in, ext_out = self._work, self._ext_in, self._ext_out
        preds, succs = self._preds, self._succs
        market = self._market
        compute_end = [0.0] * n
        arrive = [0.0] * self._n_edges
        booked: Dict[int, float] = {}
        ready_at: Dict[int, float] = {}
        last_end: Dict[int, float] = {}
        upload_end: Dict[int, float] = {}
        speed: Dict[int, float] = {}
        events: List[float] = []
        finishes: List[float] = []
        starts: List[float] = []
        keys: List[int] = []
        edge_key = 2 * n
        for i in range(n):
            vm = assign[i]
            ready = 0.0
            nbytes = ext_in[i]
            for j, data, e in preds[i]:
                if assign[j] != vm:
                    nbytes += data
                    t = arrive[e]
                else:
                    t = compute_end[j]
                if t > ready:
                    ready = t
            free = last_end.get(vm)
            if free is None:
                category = categories[vm]
                if category.cores != 1 or (category.spot and market):
                    return None
                speed[vm] = category.speed
                booked[vm] = ready
                free = ready_at[vm] = upload_end[vm] = ready + category.boot_time
                events.append(free)
            start = free if free > ready else ready
            if nbytes > _EPS_BYTES:
                finish = start + nbytes / bw
                finishes.append(finish)
                starts.append(start)
                keys.append(i)
                start = snap.get(i, finish)
            end = start + work[i] / speed[vm]
            compute_end[i] = end
            last_end[vm] = end
            events.append(end)
            up = upload_end[vm]
            for k, data, e in succs[i]:
                if assign[k] != vm:
                    if data > _EPS_BYTES:
                        finish = end + data / bw
                        finishes.append(finish)
                        starts.append(end)
                        keys.append(edge_key + e)
                        finish = snap.get(edge_key + e, finish)
                        if finish > up:
                            up = finish
                        arrive[e] = finish
                    else:
                        arrive[e] = end
            data = ext_out[i]
            if data > _EPS_BYTES:
                finish = end + data / bw
                finishes.append(finish)
                starts.append(end)
                keys.append(n + i)
                finish = snap.get(n + i, finish)
                if finish > up:
                    up = finish
            upload_end[vm] = up
        return (booked, ready_at, last_end, upload_end,
                (events, finishes, starts, keys))


def _absorptions(
    events: List[float], finishes: List[float], starts: List[float],
    keys: List[int],
) -> Dict[int, float]:
    """Flow key → the earlier loop clock that reports the flow.

    Walks the clocks in ascending order as the event loop meets them: an
    event time is always a clock, a flow's finish only when no earlier
    clock absorbed it. A clock ``c`` absorbs every flow started by ``c``
    whose finish is at most ``c + _EPS_TIME·max(1, c)`` (``FlowPool.
    advance``). Flows reported at their own finish are left out.
    """
    if not finishes:
        return {}
    clocks = sorted(set(events).union(finishes))
    if len(clocks) < 2:
        return {}
    # Absorbing needs ``finish - clock <= _EPS_TIME·max(1, clock)``, so
    # from 1 s on, a relative gap of at most _EPS_TIME between neighbours.
    # No such gap is the common case, decided without a Python-level loop;
    # the test keeps a margin of 2, and clocks under 1 s take the walk.
    later = clocks[1:]
    if later[0] >= 1.0 and min(
        map(truediv, map(sub, later, clocks), later)
    ) > 2.0 * _EPS_TIME:
        return {}
    items = sorted(
        [(t, False, t, -1) for t in events]
        + list(zip(finishes, repeat(True), starts, keys))
    )
    absorbed: Dict[int, float] = {}
    n_items = len(items)
    for i, (clock, is_flow, _start, key) in enumerate(items):
        if is_flow and key in absorbed:
            continue
        limit = clock + _EPS_TIME * max(1.0, clock)
        j = i + 1
        while j < n_items and items[j][0] <= limit:
            finish, other_is_flow, start, other = items[j]
            if (other_is_flow and clock < finish and start <= clock
                    and other not in absorbed):
                absorbed[other] = clock
            j += 1
    return absorbed
