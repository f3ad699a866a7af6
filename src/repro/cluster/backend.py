"""Backend selection: one ``workers`` knob for serial / process / cluster.

The experiment fan-out entry points (``run_point``, ``run_sweep``,
``resilience_sweep``, ``spot_resilience_sweep`` and their CLI
``--workers`` flags) accept the same knob. The experiment layer builds
its pools in three places: the shard step
:func:`~repro.experiments.runner.replicate` (behind ``run_point`` and
``repro-exp trace``), ``run_sweep``'s point map, and the resilience
sweeps' shared cell map. The service does not take this knob: it picks
its backend with ``executor`` (``thread``/``process``/``cluster``) plus
``nodes``, and builds its pool by passing the matching
:class:`BackendSpec` to :func:`make_pool`. The knob is:

* an **integer** (or numeric string) — ``0``/``1`` serial, ``N`` a local
  :class:`~repro.parallel.WorkerPool` of ``N`` processes, negative all
  cores (see :func:`~repro.parallel.resolve_workers`, which also honours
  the ``REPRO_WORKERS`` environment override);
* a **node list** ``"host:port,host:port"`` — a
  :class:`~repro.cluster.ClusterPool` over those ``repro-exp worker``
  nodes.

:func:`parse_workers` normalises the knob into a :class:`BackendSpec`
and raises :class:`~repro.errors.WorkerConfigError` on anything
malformed; :func:`make_pool` turns a spec into the matching pool (or
``None`` for serial). Both pool kinds run the same ordered ``map``
(:class:`~repro.parallel.pool.OrderedPool`), so call sites stay
backend-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union

from ..errors import ClusterProtocolError, WorkerConfigError
from ..parallel import WorkerPool, resolve_workers
from . import protocol
from .coordinator import ClusterPool

__all__ = ["BackendSpec", "parse_workers", "make_pool"]

WorkersKnob = Union[int, str, "BackendSpec", None]


@dataclass(frozen=True)
class BackendSpec:
    """A resolved execution backend choice.

    ``kind`` is ``"serial"`` (run inline), ``"process"`` (local
    :class:`WorkerPool` of ``n_workers``), or ``"cluster"``
    (:class:`ClusterPool` over ``nodes``).
    """

    kind: str
    n_workers: int = 0
    nodes: Tuple[str, ...] = ()

    @property
    def is_serial(self) -> bool:
        """True when no pool should be built at all."""
        return self.kind == "serial"

    def describe(self) -> str:
        """Human-readable form for logs and CLI output."""
        if self.kind == "cluster":
            return f"cluster[{','.join(self.nodes)}]"
        if self.kind == "process":
            return f"process[{self.n_workers}]"
        return "serial"


def parse_workers(workers: WorkersKnob) -> BackendSpec:
    """Normalise a ``workers`` knob into a :class:`BackendSpec`.

    Raises :class:`~repro.errors.WorkerConfigError` on malformed node
    lists, non-numeric non-address strings, or unsupported types — a
    config error is deterministic and never retried.
    """
    if isinstance(workers, BackendSpec):
        return workers
    if workers is None:
        workers = 0
    if isinstance(workers, bool):
        raise WorkerConfigError(f"workers must be int or str, got {workers!r}")
    if isinstance(workers, int):
        n_workers = resolve_workers(workers)
        if n_workers <= 1:
            return BackendSpec(kind="serial", n_workers=n_workers)
        return BackendSpec(kind="process", n_workers=n_workers)
    if isinstance(workers, str):
        text = workers.strip()
        if not text:
            return parse_workers(0)
        try:
            return parse_workers(int(text))
        except ValueError:
            pass
        if ":" not in text:
            raise WorkerConfigError(
                f"workers spec {workers!r} is neither an integer nor a "
                f"host:port[,host:port...] node list"
            )
        nodes = tuple(part.strip() for part in text.split(",") if part.strip())
        if not nodes:
            raise WorkerConfigError(f"empty cluster node list {workers!r}")
        for node in nodes:
            try:
                protocol.parse_address(node)
            except ClusterProtocolError as exc:
                raise WorkerConfigError(
                    f"bad node {node!r} in workers spec {workers!r}: {exc}"
                ) from exc
        return BackendSpec(kind="cluster", nodes=nodes)
    raise WorkerConfigError(
        f"workers must be an int or str, got {type(workers).__name__}"
    )


def make_pool(
    spec: WorkersKnob,
    *,
    max_retries: int = 2,
    metrics: Optional[Any] = None,
    events: Optional[Any] = None,
    max_workers: Optional[int] = None,
    **cluster_kwargs: Any,
) -> Optional[Union[WorkerPool, ClusterPool]]:
    """Build the pool a spec calls for (``None`` for serial).

    ``max_workers`` caps a *process* pool's size (e.g. at the number of
    available tasks); cluster pools always use every connected node —
    idle nodes cost nothing and give reassignment head-room.
    Extra keyword arguments (``heartbeat_timeout``, ``token``, ...) are
    forwarded to :class:`ClusterPool`.
    """
    backend = parse_workers(spec)
    if backend.is_serial:
        return None
    if backend.kind == "process":
        n_workers = backend.n_workers
        if max_workers is not None:
            n_workers = max(1, min(n_workers, max_workers))
        return WorkerPool(
            n_workers, max_retries=max_retries, metrics=metrics, events=events
        )
    return ClusterPool(
        backend.nodes,
        max_retries=max_retries,
        metrics=metrics,
        events=events,
        **cluster_kwargs,
    )
