"""Workflow DAGs (§III-A).

A workflow is a directed acyclic graph ``G = (V, E)`` whose vertices are
:class:`~repro.workflow.task.Task` objects and whose edges carry the amount
of data transferred from producer to consumer (``size(d_{T_i,T_j})``).

The class is deliberately self-contained (no networkx dependency in the
library proper — networkx is only used as a *test oracle*): scheduling inner
loops traverse these structures millions of times, so adjacency is stored in
plain dicts/lists and derived quantities (topological order, levels, bottom
levels) are cached after first computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import CycleError, DanglingEdgeError, WorkflowError
from .task import StochasticWeight, Task

__all__ = ["Edge", "Workflow"]


@dataclass(frozen=True)
class Edge:
    """A dependency ``producer → consumer`` carrying ``data`` bytes."""

    producer: str
    consumer: str
    data: float = 0.0

    def __post_init__(self) -> None:
        if self.producer == self.consumer:
            raise WorkflowError(f"self-dependency on task {self.producer!r}")
        if self.data < 0.0:
            raise WorkflowError(
                f"edge {self.producer!r}->{self.consumer!r}: negative data size {self.data}"
            )


class Workflow:
    """An immutable-after-freeze scientific workflow DAG.

    Build with :meth:`add_task` / :meth:`add_edge`, then call :meth:`freeze`
    (idempotent; also called implicitly by any derived-property access).
    Freezing validates acyclicity and computes the topological order.
    """

    _totals: Optional[Tuple[float, float, float]] = None

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self._tasks: Dict[str, Task] = {}
        self._succ: Dict[str, Dict[str, float]] = {}
        self._pred: Dict[str, Dict[str, float]] = {}
        self._frozen = False
        self._topo: Optional[List[str]] = None
        self._levels: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> None:
        """Register ``task``; ids must be unique."""
        self._check_mutable()
        if task.id in self._tasks:
            raise WorkflowError(f"duplicate task id {task.id!r}")
        self._tasks[task.id] = task
        self._succ[task.id] = {}
        self._pred[task.id] = {}

    def add_edge(self, producer: str, consumer: str, data: float = 0.0) -> None:
        """Add the dependency ``producer → consumer`` with ``data`` bytes.

        Parallel edges are merged by summing their data amounts (a producer
        may emit several files consumed by the same task, as in DAX inputs).
        """
        self._check_mutable()
        Edge(producer, consumer, data)  # validate
        for tid in (producer, consumer):
            if tid not in self._tasks:
                raise DanglingEdgeError(f"edge references unknown task {tid!r}")
        self._succ[producer][consumer] = self._succ[producer].get(consumer, 0.0) + data
        self._pred[consumer][producer] = self._pred[consumer].get(producer, 0.0) + data

    def _check_mutable(self) -> None:
        if self._frozen:
            raise WorkflowError("workflow is frozen; build a new one to modify")

    def freeze(self) -> "Workflow":
        """Validate the DAG (non-empty, acyclic) and lock the structure."""
        if self._frozen:
            return self
        if not self._tasks:
            raise WorkflowError("workflow has no tasks")
        self._topo = self._toposort()
        self._frozen = True
        return self

    def _toposort(self) -> List[str]:
        """Kahn's algorithm; deterministic (insertion order tie-break)."""
        indeg = {tid: len(preds) for tid, preds in self._pred.items()}
        ready = [tid for tid in self._tasks if indeg[tid] == 0]
        order: List[str] = []
        head = 0
        while head < len(ready):
            tid = ready[head]
            head += 1
            order.append(tid)
            for succ in self._succ[tid]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._tasks):
            stuck = sorted(tid for tid, d in indeg.items() if d > 0)
            raise CycleError(f"workflow contains a cycle through tasks {stuck[:5]}")
        return order

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, tid: str) -> bool:
        return tid in self._tasks

    def __iter__(self) -> Iterator[str]:
        return iter(self._tasks)

    @property
    def n_tasks(self) -> int:
        """Number of tasks ``n``."""
        return len(self._tasks)

    @property
    def n_edges(self) -> int:
        """Number of dependencies ``e``."""
        return sum(len(s) for s in self._succ.values())

    def task(self, tid: str) -> Task:
        """The :class:`Task` with id ``tid``."""
        try:
            return self._tasks[tid]
        except KeyError:
            raise KeyError(f"no task {tid!r} in workflow {self.name!r}") from None

    @property
    def tasks(self) -> Mapping[str, Task]:
        """Read-only id → task mapping."""
        return dict(self._tasks)

    def successors(self, tid: str) -> Mapping[str, float]:
        """``consumer id → edge bytes`` for edges out of ``tid``."""
        return self._succ[tid]

    def predecessors(self, tid: str) -> Mapping[str, float]:
        """``producer id → edge bytes`` for edges into ``tid``."""
        return self._pred[tid]

    def edges(self) -> Iterator[Edge]:
        """Iterate every edge, in producer topological order."""
        source = self._topo if self._frozen and self._topo is not None else list(self._tasks)
        for producer in source:
            for consumer, data in self._succ[producer].items():
                yield Edge(producer, consumer, data)

    @property
    def entry_tasks(self) -> List[str]:
        """Tasks without predecessors, in topological order."""
        self.freeze()
        return [tid for tid in self._topo if not self._pred[tid]]  # type: ignore[union-attr]

    @property
    def exit_tasks(self) -> List[str]:
        """Tasks without successors, in topological order."""
        self.freeze()
        return [tid for tid in self._topo if not self._succ[tid]]  # type: ignore[union-attr]

    @property
    def topological_order(self) -> List[str]:
        """A deterministic topological ordering of task ids."""
        self.freeze()
        return list(self._topo)  # type: ignore[arg-type]

    def levels(self) -> Dict[str, int]:
        """Longest-path depth of each task from the entries (BDT grouping).

        Entry tasks are level 0; a task's level is one more than the maximum
        level of its predecessors. Tasks sharing a level are independent.
        """
        self.freeze()
        if self._levels is None:
            lvl: Dict[str, int] = {}
            for tid in self._topo:  # type: ignore[union-attr]
                preds = self._pred[tid]
                lvl[tid] = 1 + max((lvl[p] for p in preds), default=-1)
            self._levels = lvl
        return dict(self._levels)

    # ------------------------------------------------------------------
    # Aggregates used by the budget logic (Eq. 5-6)
    # ------------------------------------------------------------------
    def input_data_of(self, tid: str) -> float:
        """``size(d_pred,T)``: total bytes entering ``tid`` from predecessors."""
        return sum(self._pred[tid].values())

    def output_data_of(self, tid: str) -> float:
        """Total bytes produced by ``tid`` for its successors."""
        return sum(self._succ[tid].values())

    def _data_totals(self) -> Tuple[float, float, float]:
        """Edge, external-input and external-output bytes; cached once
        frozen (every replay's cost accounting reads them)."""
        totals = self._totals
        if totals is None:
            totals = (
                sum(data for s in self._succ.values() for data in s.values()),
                sum(t.external_input for t in self._tasks.values()),
                sum(t.external_output for t in self._tasks.values()),
            )
            if self._frozen:
                self._totals = totals
        return totals

    @property
    def total_edge_data(self) -> float:
        """``d_max``: total bytes carried by all internal edges."""
        return self._data_totals()[0]

    @property
    def external_input_data(self) -> float:
        """``size(d_in,DC)``: bytes entering the cloud from outside."""
        return self._data_totals()[1]

    @property
    def external_output_data(self) -> float:
        """``size(d_DC,out)``: bytes leaving the cloud."""
        return self._data_totals()[2]

    @property
    def total_mean_work(self) -> float:
        """Sum of mean weights ``Σ w̄`` (instructions)."""
        return sum(t.mean_weight for t in self._tasks.values())

    @property
    def total_conservative_work(self) -> float:
        """Sum of planning weights ``Σ (w̄ + σ)`` (instructions)."""
        return sum(t.conservative_weight for t in self._tasks.values())

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_sigma_ratio(self, ratio: float) -> "Workflow":
        """New workflow with every task's ``σ`` set to ``ratio × w̄``.

        This is the paper's §V-A protocol: one generated DAG is re-used with
        σ/w̄ ∈ {0.25, 0.5, 0.75, 1.0}.
        """
        wf = Workflow(name=f"{self.name}[sigma={ratio:g}]")
        for task in self._tasks.values():
            wf.add_task(task.with_sigma_ratio(ratio))
        for edge in self.edges():
            wf.add_edge(edge.producer, edge.consumer, edge.data)
        return wf.freeze()

    def subgraph(self, task_ids: Iterable[str], name: Optional[str] = None) -> "Workflow":
        """Induced sub-workflow on ``task_ids`` (edges inside the set only)."""
        keep = set(task_ids)
        missing = keep - set(self._tasks)
        if missing:
            raise KeyError(f"unknown task ids {sorted(missing)[:5]}")
        wf = Workflow(name=name or f"{self.name}[sub]")
        for tid in self._tasks:
            if tid in keep:
                wf.add_task(self._tasks[tid])
        for edge in self.edges():
            if edge.producer in keep and edge.consumer in keep:
                wf.add_edge(edge.producer, edge.consumer, edge.data)
        return wf.freeze()

    def __repr__(self) -> str:
        return (
            f"Workflow({self.name!r}, tasks={self.n_tasks}, edges={self.n_edges}, "
            f"data={self.total_edge_data:.3g}B)"
        )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        name: str,
        tasks: Sequence[Tuple[str, float, float]],
        edges: Sequence[Tuple[str, str, float]],
    ) -> "Workflow":
        """Compact constructor for tests and examples.

        ``tasks`` is a sequence of ``(id, mean_weight, sigma)``; ``edges`` of
        ``(producer, consumer, bytes)``.
        """
        wf = cls(name)
        for tid, mean, sigma in tasks:
            wf.add_task(Task(tid, StochasticWeight(mean, sigma)))
        for producer, consumer, data in edges:
            wf.add_edge(producer, consumer, data)
        return wf.freeze()
