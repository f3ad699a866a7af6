"""Schedule executor — the discrete-event heart of the simulator.

Replays a :class:`~repro.scheduling.schedule.Schedule` under given *actual*
task weights, with the paper's platform semantics (§III):

* each VM runs its queue serially, in the order induced by the schedule's
  global dispatch order;
* a task's inputs must be **at the datacenter** before its download starts:
  edge data produced on another VM arrive at ``producer compute end +
  size/bw`` (upload flow); data produced on the *same* VM never touch the
  datacenter; external inputs are staged at the DC at time 0;
* a fresh VM is *booked* the moment its first task's inputs are all at the
  DC; it boots for ``t_boot`` uncharged seconds, and billing starts when it
  becomes ready (``H_start,v``) — this serializes boot before the first
  download exactly like Eq. (7);
* downloads serialize before the compute they feed (Eq. 7); uploads start
  at compute end and overlap whatever the VM does next (the paper allows
  computation/communication overlap); uploads happen only for edges whose
  consumer lives on another VM and for external outputs;
* a VM is released once its last compute and all its uploads are done
  (``H_end,v``), and is billed per started second (§V-A).

The datacenter may be given a finite aggregate capacity
(``dc_capacity``) to study the saturation regime the paper blames for the
LIGO budget overruns; the default is the paper's infinite-capacity
assumption.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..faults.spot import CheckpointConfig

from ..errors import SimulationError
from ..faults.plan import FaultEvent, FaultPlan
from ..obs.tracing import get_tracer
from ..platform.cloud import CloudPlatform
from ..platform.pricing import CostBreakdown
from ..rng import RngLike, as_generator
from ..scheduling.schedule import Schedule
from ..workflow.dag import Workflow
from ..workflow.task import TRUNCATION_FLOOR_FRACTION
from .bandwidth import FlowPool
from .events import EventQueue
from .trace import SimulationResult, TaskRecord, VMRecord

__all__ = [
    "execute_schedule",
    "evaluate_schedule",
    "conservative_weights",
    "mean_weights",
    "sample_weights",
    "run_replications",
]

# Task lifecycle phases.
_PENDING, _DOWNLOADING, _COMPUTING, _DONE, _FAILED = range(5)


def conservative_weights(wf: Workflow) -> Dict[str, float]:
    """Planning weights ``w̄ + σ`` for every task (§IV-A)."""
    return {tid: wf.task(tid).conservative_weight for tid in wf.tasks}


def mean_weights(wf: Workflow) -> Dict[str, float]:
    """Mean weights ``w̄`` for every task."""
    return {tid: wf.task(tid).mean_weight for tid in wf.tasks}


def sample_weights(wf: Workflow, rng: RngLike = None) -> Dict[str, float]:
    """One stochastic draw of actual weights (truncated Gaussian, §III-A).

    One vectorized ``normal`` call over the tasks with σ > 0, in topological
    order, floored at ``TRUNCATION_FLOOR_FRACTION`` of the mean: value for
    value the draw of calling each task's :meth:`StochasticWeight.sample
    <repro.workflow.task.StochasticWeight.sample>` in turn. A σ = 0 task
    keeps its mean and draws nothing.
    """
    gen = as_generator(rng)
    weights: Dict[str, float] = {}
    drawn: List[str] = []
    means: List[float] = []
    sigmas: List[float] = []
    for tid in wf.topological_order:
        weight = wf.task(tid).weight
        weights[tid] = float(weight.mean)
        if weight.sigma > 0.0:
            drawn.append(tid)
            means.append(weight.mean)
            sigmas.append(weight.sigma)
    if drawn:
        mean = np.array(means, dtype=float)
        values = np.maximum(
            gen.normal(mean, sigmas), TRUNCATION_FLOOR_FRACTION * mean
        )
        weights.update(zip(drawn, values.tolist()))
    return weights


def run_replications(task: Mapping) -> List[tuple]:
    """Execute one shard of a Monte Carlo replication loop (pickle-safe).

    The module-level entrypoint that :mod:`repro.parallel` ships to worker
    processes: ``task`` is a plain mapping (everything in it must pickle)
    with keys

    ``wf`` / ``platform`` / ``schedule``
        the workflow, platform, and the *already computed* schedule;
    ``budget``
        the budget each replication's cost is checked against;
    ``seeds``
        per-replication :class:`numpy.random.SeedSequence` substreams from
        :func:`repro.rng.spawn_seeds` — building a generator from seed
        ``k`` reproduces the serial run's ``spawn()`` child exactly;
    ``weights``
        optional pre-drawn weight mappings (common random numbers); when
        present, ``seeds`` may be ``None`` and is ignored;
    ``dc_capacity``
        optional datacenter capacity (default infinite);
    ``validate_first``
        validate the schedule before the shard's first replication —
        ``True`` only for the shard containing global repetition 0, so the
        sharded loop validates exactly as often as the serial one.

    Returns one ``(makespan, total_cost, n_vms, within_budget)`` tuple per
    replication, in order — plain floats/ints/bools so results cross the
    process boundary cheaply.
    """
    wf = task["wf"]
    platform = task["platform"]
    schedule = task["schedule"]
    budget = task["budget"]
    weights_list = task.get("weights")
    seeds = task.get("seeds")
    dc_capacity = task.get("dc_capacity", math.inf)
    validate_first = task.get("validate_first", True)
    n = len(weights_list if weights_list is not None else seeds)
    out: List[tuple] = []
    # One span per shard (a no-op under the null tracer): in a traced
    # parallel run the worker-local tracer records it, and the pool
    # merges it back so the parent trace shows each shard's extent.
    with get_tracer().span(
        "simulate.replications", n_reps=n,
        workflow=getattr(wf, "name", ""),
    ):
        for k in range(n):
            weights = (
                weights_list[k] if weights_list is not None
                else sample_weights(wf, as_generator(seeds[k]))
            )
            run = execute_schedule(
                wf, platform, schedule, weights,
                dc_capacity=dc_capacity,
                validate=(k == 0 and validate_first),
            )
            out.append(
                (run.makespan, run.total_cost, run.n_vms,
                 run.respects_budget(budget))
            )
    return out


@dataclass
class _VMState:
    vm_id: int
    queue: List[str]
    cores: int = 1
    idx: int = 0          # next task to dispatch (FIFO, no leapfrogging)
    active: int = 0       # tasks currently downloading or computing
    boot_requested: bool = False
    ready: bool = False
    record: Optional[VMRecord] = None
    last_compute_end: float = 0.0
    last_upload_end: float = 0.0
    dead: bool = False    # killed by an injected crash; dispatches nothing


def execute_schedule(
    wf: Workflow,
    platform: CloudPlatform,
    schedule: Schedule,
    weights: Mapping[str, float],
    *,
    dc_capacity: float = math.inf,
    per_second_billing: bool = True,
    validate: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint: Optional["CheckpointConfig"] = None,
) -> SimulationResult:
    """Execute ``schedule`` on ``platform`` with the given actual weights.

    ``weights`` maps every task id to its actual instruction count — use
    :func:`sample_weights` for a stochastic run or
    :func:`conservative_weights` / :func:`mean_weights` for deterministic
    evaluation. Returns the full :class:`SimulationResult`.

    ``fault_plan`` injects deterministic failures (see
    :class:`~repro.faults.plan.FaultPlan`): crashed VMs lose their
    unfinished work, boot failures delay readiness, stragglers and
    transient retries inflate compute time, and spot preemption bursts
    kill every live spot VM they cover. A run with failures does not
    raise — it returns a partial result with ``failed_tasks`` /
    ``blocked_tasks`` populated and every started VM-second billed. An
    empty (or absent) plan leaves the executor on the exact fault-free
    code path.

    ``checkpoint`` enables periodic checkpointing on *spot* VMs (see
    :class:`~repro.faults.spot.CheckpointConfig`): computes stretch by the
    checkpoint overheads (billed — longer rental windows), and when a kill
    fires, the work covered by the last checkpoint is banked in the
    victim's :attr:`~repro.simulation.trace.TaskRecord.checkpoint_weight`
    for recovery to credit. On-demand VMs and schedules with no spot
    category ignore it entirely.

    When a :class:`~repro.obs.tracing.Tracer` is installed, the run is
    wrapped in a ``simulate.execute`` span carrying per-phase timings
    (setup / event loop / accounting) and event, transfer, and boot
    counters; with the default null tracer the instrumented path is
    bypassed entirely.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return _execute(
            wf, platform, schedule, weights, dc_capacity=dc_capacity,
            per_second_billing=per_second_billing, validate=validate,
            fault_plan=fault_plan, checkpoint=checkpoint,
        )[0]
    with tracer.span(
        "simulate.execute", workflow=wf.name, n_tasks=wf.n_tasks,
        n_vms=schedule.n_vms,
    ) as span:
        result, stats = _execute(
            wf, platform, schedule, weights, dc_capacity=dc_capacity,
            per_second_billing=per_second_billing, validate=validate,
            fault_plan=fault_plan, checkpoint=checkpoint, collect_stats=True,
        )
        span.set(makespan=result.makespan, total_cost=result.total_cost,
                 **stats)
        tracer.count("sim.runs")
        tracer.count("sim.tasks", wf.n_tasks)
        tracer.count("sim.boots", result.n_vms)
        tracer.count("sim.events", stats["n_events"])
        tracer.count("sim.downloads", stats["n_downloads"])
        tracer.count("sim.uploads", stats["n_uploads"])
        if result.fault_events:
            span.set(n_faults=len(result.fault_events),
                     n_failed_tasks=len(result.failed_tasks))
            tracer.count("sim.faults", len(result.fault_events))
    return result


def _execute(
    wf: Workflow,
    platform: CloudPlatform,
    schedule: Schedule,
    weights: Mapping[str, float],
    *,
    dc_capacity: float = math.inf,
    per_second_billing: bool = True,
    validate: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint: Optional["CheckpointConfig"] = None,
    collect_stats: bool = False,
):
    """The discrete-event core; returns ``(result, stats-or-empty-dict)``."""
    t_wall0 = time.perf_counter() if collect_stats else 0.0
    if validate:
        schedule.validate(wf)
    missing = set(wf.tasks) - set(weights)
    if missing:
        raise SimulationError(f"weights missing for tasks {sorted(missing)[:5]}")

    # An empty plan must be indistinguishable from no plan: every fault
    # branch below is guarded by `plan`, so the zero-fault path is the
    # exact pre-fault-framework code. Checkpointing only ever touches spot
    # VMs, so a schedule without spot categories drops the config too.
    plan = fault_plan if fault_plan else None
    ckpt = checkpoint if (
        checkpoint is not None
        and any(c.spot for c in schedule.categories.values())
    ) else None
    fault_events: List[FaultEvent] = []
    if plan:
        # Inflate the affected weights (stragglers + transient re-runs),
        # then credit instructions a previous attempt's checkpoints made
        # durable; the recorded actual_weight is what the VM really
        # ground through on *this* attempt.
        weights = {
            tid: plan.remaining_weight(tid, w * plan.weight_factor(tid))
            for tid, w in weights.items()
        }

    bw = platform.bandwidth
    events = EventQueue()
    pool = FlowPool(capacity=dc_capacity)

    # --- static structures -------------------------------------------------
    vms: Dict[int, _VMState] = {}
    for vm_id, queue in schedule.queues().items():
        vms[vm_id] = _VMState(
            vm_id=vm_id, queue=queue, cores=schedule.categories[vm_id].cores
        )

    phase: Dict[str, int] = {tid: _PENDING for tid in wf.tasks}
    records: Dict[str, TaskRecord] = {}

    # Gates: per task, number of unmet input dependencies. A cross-VM edge
    # opens when its data reach the datacenter (upload completion); a
    # same-VM edge opens at the producer's compute end (data are local and
    # instantly visible — only relevant on multi-core VMs, where FIFO order
    # alone no longer serializes producer and consumer). External inputs
    # are at the DC at t=0 and add no gate.
    gates: Dict[str, int] = {}
    download_bytes: Dict[str, float] = {}
    for tid in wf.tasks:
        task = wf.task(tid)
        vm_id = schedule.vm_of(tid)
        nbytes = task.external_input
        for pred, data in wf.predecessors(tid).items():
            if schedule.vm_of(pred) != vm_id:
                nbytes += data
        gates[tid] = len(wf.predecessors(tid))
        download_bytes[tid] = nbytes

    # Pending upload flows per task (to know when outputs_at_dc settles).
    uploads_left: Dict[str, int] = {tid: 0 for tid in wf.tasks}
    tasks_remaining = wf.n_tasks

    # --- helpers ------------------------------------------------------------
    def try_start(vm: _VMState, now: float) -> None:
        """Dispatch queue-head tasks while a core is free and gates are open.

        Dispatch is strictly FIFO (a blocked head is never leapfrogged),
        matching the planner's per-VM ordering; with single-core categories
        this degenerates to the serial queue of §III-B.
        """
        while vm.idx < len(vm.queue) and vm.active < vm.cores:
            if vm.dead:
                return
            head = vm.queue[vm.idx]
            if phase[head] != _PENDING or gates[head] > 0:
                return
            if not vm.boot_requested:
                vm.boot_requested = True
                category = schedule.categories[vm.vm_id]
                vm.record = VMRecord(
                    vm_id=vm.vm_id, category=category, booked_at=now
                )
                boot_time = category.boot_time
                if plan:
                    extra = plan.extra_boots(vm.vm_id)
                    for k in range(extra):
                        fault_events.append(FaultEvent(
                            ts=now + boot_time * (k + 1),
                            kind="vm.boot_failure", vm_id=vm.vm_id,
                            info={"attempt": k + 1},
                        ))
                    boot_time *= 1 + extra
                events.push(now + boot_time, "boot", vm.vm_id)
                return
            if not vm.ready:
                return
            phase[head] = _DOWNLOADING
            rec = TaskRecord(tid=head, vm_id=vm.vm_id, download_start=now,
                             actual_weight=weights[head])
            records[head] = rec
            vm.active += 1
            vm.idx += 1
            nbytes = download_bytes[head]
            if nbytes > 0.0:
                pool.start(("dl", head), nbytes, bw, payload=head)
            else:
                begin_compute(head, now)

    def begin_compute(tid: str, now: float) -> None:
        rec = records[tid]
        rec.compute_start = now
        phase[tid] = _COMPUTING
        category = schedule.category_of(tid)
        duration = weights[tid] / category.speed
        if plan:
            _emit_compute_faults(tid, rec.vm_id, now, duration)
        if ckpt is not None and category.spot:
            # Periodic checkpoints stretch the compute; the overhead is
            # real VM time and bills like any other started second.
            duration = ckpt.checkpointed_duration(duration)
        events.push(now + duration, "compute", tid)

    def _emit_compute_faults(
        tid: str, vm_id: int, now: float, duration: float
    ) -> None:
        """Log straggler / transient-retry faults for one compute phase."""
        straggler = plan.stragglers.get(tid)
        if straggler is not None:
            fault_events.append(FaultEvent(
                ts=now, kind="task.straggler", vm_id=vm_id, task=tid,
                info={"factor": straggler},
            ))
        fractions = plan.task_retries.get(tid)
        if fractions:
            # `duration` covers all attempts; one clean attempt takes
            # duration / (1 + Σf), and attempt i dies f_i of the way in.
            attempt = duration / (1.0 + sum(fractions))
            t = now
            for i, f in enumerate(fractions):
                t += f * attempt
                fault_events.append(FaultEvent(
                    ts=t, kind="task.retry", vm_id=vm_id, task=tid,
                    info={"attempt": i + 1, "wasted_s": f * attempt},
                ))

    def on_boot(vm_id: int, now: float) -> None:
        vm = vms[vm_id]
        if vm.dead:
            return  # crashed while booting; nothing comes up
        vm.ready = True
        assert vm.record is not None
        vm.record.ready_at = now
        vm.last_compute_end = now
        vm.last_upload_end = now
        try_start(vm, now)

    def on_compute_done(tid: str, now: float) -> None:
        nonlocal tasks_remaining
        if plan and phase[tid] != _COMPUTING:
            return  # stale event: the task was killed by a crash
        vm = vms[schedule.vm_of(tid)]
        rec = records[tid]
        rec.compute_end = now
        rec.outputs_at_dc = now
        phase[tid] = _DONE
        tasks_remaining -= 1
        vm.last_compute_end = now
        assert vm.record is not None
        vm.record.n_tasks += 1
        # Launch uploads: edges to consumers on other VMs + external output.
        # Same-VM successors see the data instantly: their gate opens now.
        task = wf.task(tid)
        for consumer, data in wf.successors(tid).items():
            if schedule.vm_of(consumer) != vm.vm_id:
                uploads_left[tid] += 1
                pool.start(("up", tid, consumer), data, bw,
                           payload=(tid, consumer))
            else:
                gates[consumer] -= 1
                if gates[consumer] < 0:
                    raise SimulationError(f"gate underflow on {consumer!r}")
        if task.external_output > 0.0:
            uploads_left[tid] += 1
            pool.start(("upx", tid), task.external_output, bw,
                       payload=(tid, None))
        vm.active -= 1
        try_start(vm, now)

    def on_download_done(tid: str, now: float) -> None:
        begin_compute(tid, now)

    def on_upload_done(tid: str, consumer: Optional[str], now: float) -> None:
        vm = vms[schedule.vm_of(tid)]
        vm.last_upload_end = max(vm.last_upload_end, now)
        rec = records[tid]
        rec.outputs_at_dc = max(rec.outputs_at_dc, now)
        uploads_left[tid] -= 1
        if consumer is not None:
            gates[consumer] -= 1
            if gates[consumer] < 0:
                raise SimulationError(f"gate underflow on task {consumer!r}")
            cvm = vms[schedule.vm_of(consumer)]
            if cvm.idx < len(cvm.queue) and cvm.queue[cvm.idx] == consumer:
                try_start(cvm, now)

    def _bank_checkpoints(
        vm: _VMState, killed: List[str], now: float, warning_s: float
    ) -> float:
        """Bank durable checkpoint progress for a dying spot VM's computes.

        Returns the total instructions banked *this kill* (event payload).
        Each in-flight compute keeps the work covered by its last periodic
        checkpoint; a revocation warning of at least the checkpoint
        overhead additionally allows one emergency flush of the current
        state. Banked progress is absolute (prior credit included) so
        recovery can merge it monotonically.
        """
        category = schedule.categories[vm.vm_id]
        if ckpt is None or not category.spot:
            return 0.0
        banked = 0.0
        for tid in killed:
            if phase[tid] != _COMPUTING:
                continue  # downloads and queued tasks have no progress
            rec = records[tid]
            elapsed = now - rec.compute_start
            work_s = weights[tid] / category.speed
            durable = ckpt.durable_work_s(elapsed)
            if warning_s >= ckpt.overhead_s:
                durable = max(durable, ckpt.flush_work_s(elapsed))
            durable = min(durable, work_s)
            if durable <= 0.0:
                continue
            new = durable * category.speed
            rec.checkpoint_weight = plan.checkpoints.get(tid, 0.0) + new
            banked += new
        return banked

    def _kill_vm(
        vm_id: int, now: float, *, kind: str, warning_s: float = 0.0,
        extra: Optional[Dict] = None,
    ) -> bool:
        """Kill a VM: lose its unfinished work, keep its durable outputs.

        Completed tasks (and uploads already streaming, which are modeled
        as datacenter-side and therefore durable) survive; active
        downloads/computes and the queued remainder fail. A kill on a VM
        that was never provisioned, already died, or already finished its
        queue is a no-op. Billing runs to the kill instant — the paper's
        cost model charges for started seconds, useful or not.
        """
        vm = vms[vm_id]
        if vm.dead or not vm.boot_requested:
            return False
        killed = [
            tid for tid in vm.queue[:vm.idx]
            if phase[tid] in (_DOWNLOADING, _COMPUTING)
        ] + [
            tid for tid in vm.queue[vm.idx:] if phase[tid] == _PENDING
        ]
        if not killed:
            return False  # queue fully executed; the VM was done anyway
        banked = _bank_checkpoints(vm, killed, now, warning_s)
        vm.dead = True
        for tid in killed:
            if phase[tid] == _DOWNLOADING:
                pool.cancel(("dl", tid))
            if tid in records:
                records[tid].failed = True
            phase[tid] = _FAILED
        vm.active = 0
        assert vm.record is not None
        vm.record.crashed_at = now
        if not vm.ready:
            # Killed mid-boot: never billed a productive second, but the
            # booking fee is still owed (ready == end == kill instant).
            vm.record.ready_at = now
        info = {"killed": sorted(killed), "was_ready": vm.ready}
        if banked > 0.0:
            info["checkpointed_weight"] = banked
        if extra:
            info.update(extra)
        fault_events.append(FaultEvent(
            ts=now, kind=kind, vm_id=vm_id, info=info,
        ))
        return True

    def on_crash(vm_id: int, now: float) -> None:
        _kill_vm(vm_id, now, kind="vm.crash")

    def on_preempt(burst_idx: int, now: float) -> None:
        """Fire one correlated revocation burst: kill every covered spot VM.

        Only spot-category VMs are eligible (on-demand capacity never
        notices the market); a burst with a category name restricts the
        blast radius to that category. VMs that already finished their
        queue shut down normally and are not marked preempted.
        """
        burst = plan.preemptions[burst_idx]
        for vm_id in sorted(vms):
            category = schedule.categories[vm_id]
            if not category.spot:
                continue
            if burst.category is not None and category.name != burst.category:
                continue
            if _kill_vm(
                vm_id, now, kind="vm.preempted",
                warning_s=burst.warning_s,
                extra={"category": category.name,
                       "warning_s": burst.warning_s},
            ):
                vm = vms[vm_id]
                assert vm.record is not None
                vm.record.preempted = True

    # --- main loop ----------------------------------------------------------
    t_wall_setup = time.perf_counter() if collect_stats else 0.0
    if plan:
        # Crash and preemption events enter the queue up front; the
        # handlers ignore ones that land on unprovisioned or finished VMs.
        # At equal timestamps the kill wins (lower sequence number) — a
        # task completing at the very kill instant is lost,
        # deterministically.
        for vm_id in sorted(plan.crashes):
            if vm_id in vms:
                events.push(plan.crashes[vm_id], "crash", vm_id)
        for i, burst in enumerate(plan.preemptions):
            events.push(burst.at, "preempt", i)
    for vm in vms.values():
        try_start(vm, 0.0)
    if all(not vm.boot_requested for vm in vms.values()):
        raise SimulationError(
            "no VM could be booked at time 0 — no entry task is dispatchable"
        )

    guard = 0
    guard_limit = 20 * (wf.n_tasks + wf.n_edges) + 100
    if plan:
        guard_limit += 20 * plan.size
    while events or pool:
        guard += 1
        if guard > guard_limit:
            raise SimulationError("simulation did not converge (event storm)")
        t_event = events.peek_time()
        t_flow = pool.next_completion()
        if t_flow <= t_event:
            for flow_id, payload in pool.advance(t_flow):
                kind = flow_id[0]
                if kind == "dl":
                    on_download_done(payload, t_flow)
                else:
                    tid, consumer = payload
                    on_upload_done(tid, consumer, t_flow)
        else:
            now, kind, payload = events.pop()
            for flow_id, fpayload in pool.advance(now):
                if flow_id[0] == "dl":
                    on_download_done(fpayload, now)
                else:
                    up_tid, consumer = fpayload
                    on_upload_done(up_tid, consumer, now)
            if kind == "boot":
                on_boot(payload, now)
            elif kind == "compute":
                on_compute_done(payload, now)
            elif kind == "crash":
                on_crash(payload, now)
            elif kind == "preempt":
                on_preempt(payload, now)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {kind!r}")

    failed_tasks = (
        [tid for tid in schedule.order if phase[tid] == _FAILED] if plan else []
    )
    blocked_tasks = (
        [tid for tid in schedule.order if phase[tid] == _PENDING] if plan else []
    )
    if tasks_remaining != 0 and not failed_tasks:
        stuck = sorted(tid for tid, p in phase.items() if p != _DONE)
        raise SimulationError(
            f"{tasks_remaining} tasks never executed, e.g. {stuck[:5]} — "
            "schedule deadlock (invalid dispatch order?)"
        )

    # --- accounting ---------------------------------------------------------
    t_wall_loop = time.perf_counter() if collect_stats else 0.0
    vm_records: List[VMRecord] = []
    for vm in sorted(vms.values(), key=lambda v: v.vm_id):
        if plan and vm.record is None:
            continue  # never provisioned: an upstream failure starved it
        assert vm.record is not None
        end_at = max(vm.last_compute_end, vm.last_upload_end)
        if plan:
            if vm.dead:
                # Billing stops at the crash; the tail from the last useful
                # second to the crash is the lost VM-hours the paper's cost
                # model still charges for.
                end_at = vm.record.crashed_at or end_at
            else:
                retire = plan.retires.get(vm.vm_id)
                if retire is not None and retire > end_at >= vm.record.ready_at:
                    # Recovery bookkeeping: a previously crashed VM whose
                    # surviving tasks finish early still bills its full
                    # pre-crash rental window on replays.
                    end_at = retire
        vm.record.end_at = end_at
        vm_records.append(vm.record)

    if not vm_records:  # pragma: no cover - needs a plan crashing everything
        raise SimulationError("no VM was ever provisioned")
    start = min(r.booked_at for r in vm_records)
    if plan and (failed_tasks or blocked_tasks):
        outputs = [
            rec.outputs_at_dc for rec in records.values() if not rec.failed
        ]
        end = max([r.end_at for r in vm_records] + outputs)
    else:
        end = max(
            max(r.end_at for r in vm_records),
            max(rec.outputs_at_dc for rec in records.values()),
        )
    if fault_events:
        # Events are appended when scheduled (a retry's timestamp lies in
        # the future); present the log in fired order.
        fault_events.sort(key=lambda e: (e.ts, e.kind, e.vm_id or -1,
                                         e.task or ""))
    makespan = end - start
    cost = CostBreakdown.build(
        platform,
        wf,
        makespan,
        ((r.category, r.ready_at, r.end_at) for r in vm_records),
        per_second_billing=per_second_billing,
    )
    result = SimulationResult(
        makespan=makespan, start=start, end=end, cost=cost,
        tasks=records, vms=vm_records,
        fault_events=fault_events, failed_tasks=failed_tasks,
        blocked_tasks=blocked_tasks,
    )
    stats: Dict[str, float] = {}
    if collect_stats:
        n_uploads = 0
        for tid in wf.tasks:
            vm_id = schedule.vm_of(tid)
            n_uploads += sum(
                1 for consumer in wf.successors(tid)
                if schedule.vm_of(consumer) != vm_id
            )
            if wf.task(tid).external_output > 0.0:
                n_uploads += 1
        stats = {
            "n_events": guard,
            "n_downloads": sum(1 for b in download_bytes.values() if b > 0.0),
            "n_uploads": n_uploads,
            "setup_s": t_wall_setup - t_wall0,
            "loop_s": t_wall_loop - t_wall_setup,
            "accounting_s": time.perf_counter() - t_wall_loop,
        }
    return result, stats


def evaluate_schedule(
    wf: Workflow,
    platform: CloudPlatform,
    schedule: Schedule,
    *,
    use_conservative: bool = True,
    dc_capacity: float = math.inf,
    validate: bool = False,
) -> SimulationResult:
    """Deterministic evaluation of a schedule (Algorithm 5's ``simulate``).

    Runs the executor with the planning weights (``w̄ + σ`` by default) and
    the paper's infinite-DC assumption; returns makespan ``t_calc,wf`` and
    cost ``c_tot`` inside a full :class:`SimulationResult`.
    """
    weights = conservative_weights(wf) if use_conservative else mean_weights(wf)
    return execute_schedule(
        wf, platform, schedule, weights,
        dc_capacity=dc_capacity, validate=validate,
    )
