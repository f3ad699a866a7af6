"""The coordinator side of the cluster fabric: :class:`ClusterPool`.

``ClusterPool`` is a transport under the ordered ``map`` loop of
:class:`repro.parallel.pool.OrderedPool`, the loop
:class:`repro.parallel.WorkerPool` runs too, so every call site that
shards work over local processes can shard it over machines instead —
and because the ShardPlan contract makes results a pure function of the
shard (never of who computed it), the merged output is **bit-identical
to serial no matter which node computed which shard, in what order, or
how many times**. Each shard sent to a node gets its own
:class:`~concurrent.futures.Future`; the node's receive thread resolves
it from the ``result`` or task-``error`` frame, and each ``map`` call
waits only on its own futures, so concurrent callers share one pool.

* **liveness** — every worker streams heartbeats, and the receive socket
  times out after ``heartbeat_timeout`` seconds of silence. A node is
  lost on that timeout, on EOF, a ``bye``, a protocol error or a failed
  send (a wedged node is handled exactly like a dead one), and the loss
  fails all of its futures as lost;
* **reassignment** — the loop charges each lost shard an attempt and
  requeues it on the survivors, up to ``max_retries`` per shard;
  exhaustion raises :class:`~repro.errors.WorkerCrashError` with the
  affected shard indices, exactly like a local pool crash;
* **routing and in-flight bound** — each shard goes to the live node
  with the fewest shards in flight per slot; one ``map`` call keeps at
  most ``2 ×`` the total advertised slots in flight. Nodes have no cap of
  their own, so a call waits while others keep every node busy;
* **work stealing** — once a call has nothing queued, an idle node
  duplicates its oldest shard in flight past ``steal_after_s``; the first
  result wins and the late duplicate is dropped, which is safe precisely
  because shard results are deterministic.

Observability: ``node.joined`` / ``node.lost`` / ``shard.reassigned``
events on the wired :class:`~repro.obs.events.EventBus`,
``cluster_reassignments`` (+ the pool-parity ``worker_tasks`` /
``worker_task_seconds``) metrics, and worker span payloads merged into
the caller's live trace via the ``export_payload`` path.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from collections import Counter
from concurrent.futures import BrokenExecutor, Future
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ClusterError, ClusterProtocolError
from ..obs.events import NODE_JOINED, NODE_LOST, SHARD_REASSIGNED
from ..parallel.pool import Inflight, OrderedPool
from . import protocol

__all__ = ["ClusterPool"]

NodeSpec = Union[str, Tuple[str, int]]


class _ShardFuture(Future):
    """One shard in flight on a node; ``sent`` dates it for stealing."""

    def __init__(self) -> None:
        super().__init__()
        self.sent = time.monotonic()


class _Node:
    """One connected worker node (internal)."""

    def __init__(
        self, address: str, sock: socket.socket, *, pid: int, slots: int
    ) -> None:
        self.address = address
        self.sock = sock
        self.pid = pid
        self.slots = slots
        self.alive = True
        self.last_seen = time.time()
        self.tasks = 0
        self.busy_s = 0.0
        # task_id -> the shard's future, while it is in flight here
        self.futures: Dict[int, _ShardFuture] = {}
        self._write_lock = threading.Lock()

    def send(self, frame: Dict[str, Any]) -> bool:
        with self._write_lock:
            try:
                protocol.send_frame(self.sock, frame)
                return True
            except OSError:
                return False

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass


class ClusterPool(OrderedPool):
    """Dispatch shards to remote ``repro-exp worker`` nodes.

    Parameters
    ----------
    nodes:
        ``"host:port,host:port"`` or a sequence of ``"host:port"`` /
        ``(host, port)`` specs. Every node must accept the handshake at
        construction time — a cluster that starts degraded is a config
        error, while a node lost *later* is handled by reassignment.
    max_retries:
        Reassignment attempts per shard after node losses before
        :class:`~repro.errors.WorkerCrashError`.
    heartbeat_timeout:
        Seconds of silence on a node's connection after which it is
        declared lost.
    steal_after_s:
        Age at which an idle node may duplicate a slow peer's oldest
        in-flight shard (``None`` disables work stealing).
    metrics / events:
        Optional :class:`~repro.service.metrics.MetricsRegistry` /
        :class:`~repro.obs.events.EventBus`, receiving the pool-parity
        counters plus ``cluster_reassignments`` and the node lifecycle
        events.
    token:
        Shared handshake token (must match the workers').
    """

    def __init__(
        self,
        nodes: Union[str, Sequence[NodeSpec]],
        *,
        max_retries: int = 2,
        heartbeat_timeout: float = 10.0,
        connect_timeout: float = 10.0,
        steal_after_s: Optional[float] = 30.0,
        metrics: Optional[Any] = None,
        events: Optional[Any] = None,
        token: Optional[str] = None,
    ) -> None:
        super().__init__(
            max_retries=max_retries, metrics=metrics, events=events)
        specs = self._parse_specs(nodes)
        if not specs:
            raise ClusterError("ClusterPool needs at least one node")
        self.heartbeat_timeout = heartbeat_timeout
        self.steal_after_s = steal_after_s
        if steal_after_s is not None:
            self._poll_s = max(0.05, min(1.0, steal_after_s / 4.0))
        self._token = token
        self._task_ids = itertools.count(1)
        self.n_crashes = 0  # node losses, for WorkerPool attr parity
        self.n_respawns = 0  # the pool never reconnects; documented
        self.n_reassignments = 0
        self._nodes: List[_Node] = []
        try:
            for host, port in specs:
                self._nodes.append(
                    self._connect(host, port, timeout=connect_timeout)
                )
        except Exception:
            self.close()
            raise
        #: Total advertised slots — drives ShardPlan sizing, mirroring
        #: ``WorkerPool.workers``.
        self.workers = sum(node.slots for node in self._nodes)
        self.max_inflight = 2 * self.workers
        for node in self._nodes:
            thread = threading.Thread(
                target=self._receive_loop,
                args=(node,),
                name=f"repro-cluster-recv-{node.address}",
                daemon=True,
            )
            thread.start()

    # ------------------------------------------------------------------
    # construction helpers

    @staticmethod
    def _parse_specs(
        nodes: Union[str, Sequence[NodeSpec]]
    ) -> List[Tuple[str, int]]:
        if isinstance(nodes, str):
            parts: Sequence[NodeSpec] = [
                part for part in nodes.split(",") if part.strip()
            ]
        else:
            parts = nodes
        specs: List[Tuple[str, int]] = []
        for part in parts:
            if isinstance(part, str):
                specs.append(protocol.parse_address(part))
            else:
                host, port = part
                specs.append((host, int(port)))
        return specs

    def _connect(self, host: str, port: int, *, timeout: float) -> _Node:
        address = f"{host}:{port}"
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ClusterError(
                f"cannot connect to worker node {address}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            protocol.send_frame(sock, protocol.hello_frame(token=self._token))
            welcome = protocol.recv_frame(sock)
            if welcome is not None and welcome.get("type") == "error":
                raise ClusterProtocolError(
                    f"node {address} refused the handshake: "
                    f"{welcome.get('exception', {}).get('message', '')}"
                )
            protocol.check_handshake(welcome, expect="welcome")
        except (ClusterProtocolError, OSError) as exc:
            sock.close()
            if isinstance(exc, ClusterProtocolError):
                raise
            raise ClusterError(
                f"handshake with node {address} failed: {exc}"
            ) from exc
        # Heartbeats arrive every heartbeat_s; silence past the timeout
        # ends the receive loop, which declares the node lost.
        sock.settimeout(self.heartbeat_timeout)
        node = _Node(
            address,
            sock,
            pid=int(welcome["pid"]),
            slots=int(welcome["slots"]),
        )
        if self._events is not None:
            self._events.publish(
                NODE_JOINED, node=address, pid=node.pid, slots=node.slots
            )
        return node

    # ------------------------------------------------------------------
    # receiver threads

    def _receive_loop(self, node: _Node) -> None:
        reason = "connection closed"
        while True:
            try:
                frame = protocol.recv_frame(node.sock)
            except socket.timeout:
                reason = "heartbeat stale"
                break
            except (ClusterProtocolError, OSError):
                break
            if frame is None or frame.get("type") == "bye":
                break
            node.last_seen = time.time()
            kind = frame.get("type")
            if kind == "error" and (
                frame.get("kind") == "protocol"
                or frame.get("task_id") is None
            ):
                exc = protocol.decode_exception(frame.get("exception", {}))
                reason = f"protocol error: {exc}"
                break
            if kind in ("result", "error"):
                self._resolve(node, frame)
            # heartbeats only refresh last_seen
        self._mark_lost(node, reason)

    def _resolve(self, node: _Node, frame: Dict[str, Any]) -> None:
        """Settle the future of a ``result`` or task-``error`` frame."""
        with self._lock:
            future = node.futures.pop(frame.get("task_id"), None)
        if frame["type"] == "error":
            if future is not None:
                future.set_exception(
                    protocol.decode_exception(frame.get("exception", {})))
            return
        elapsed = float(frame.get("elapsed_s", 0.0))
        node.tasks += 1
        node.busy_s += elapsed
        if future is None:
            return  # its call has returned (a duplicate, or a timeout)
        try:
            value = protocol.decode_payload(frame["payload"])
        except ClusterProtocolError as exc:
            future.set_exception(exc)
            return
        future.set_result((value, node.pid, elapsed, frame.get("trace")))

    def _mark_lost(self, node: _Node, reason: str) -> None:
        """Declare ``node`` dead and fail its in-flight futures as lost."""
        with self._lock:
            if not node.alive:
                return
            node.alive = False
            futures, node.futures = node.futures, {}
            # close() says bye and the worker hangs up: a goodbye we
            # initiated is never counted (or published) as a node loss.
            counted = not self._closed
            if counted:
                self.n_crashes += 1
        node.close()
        if counted and self._events is not None:
            self._events.publish(
                NODE_LOST,
                node=node.address,
                pid=node.pid,
                reason=reason,
                inflight=len(futures),
            )
        lost = BrokenExecutor(f"node {node.address} lost: {reason}")
        for future in futures.values():
            future.set_exception(lost)

    # ------------------------------------------------------------------
    # transport hooks

    def _submit(
        self,
        fn: Callable[[Any], Any],
        item: Any,
        trace_ctx: Optional[Dict[str, Any]],
    ) -> Optional[Tuple[Future, _Node]]:
        while True:
            alive = self._alive()
            if not alive:
                return None
            node = min(alive, key=lambda n: len(n.futures) / n.slots)
            future = self._send_shard(fn, item, node, trace_ctx)
            if future is not None:
                return future, node

    def _send_shard(
        self,
        fn: Callable[[Any], Any],
        item: Any,
        node: _Node,
        trace_ctx: Optional[Dict[str, Any]],
    ) -> Optional[_ShardFuture]:
        """Send one shard to ``node``; ``None`` if the node is (now) lost.

        The future is registered on the node before the frame goes out,
        so a result can never arrive ahead of it.
        """
        task_id = next(self._task_ids)
        frame = protocol.shard_frame(
            task_id, protocol.encode_payload((fn, item)), trace=trace_ctx)
        future = _ShardFuture()
        with self._lock:
            if not node.alive:
                return None
            node.futures[task_id] = future
        if node.send(frame):
            return future
        self._mark_lost(node, "send failed")
        return None

    def _note_lost(
        self, node: _Node, charged: Sequence[Tuple[int, int]]
    ) -> str:
        for index, attempt in charged:
            if attempt > self.max_retries:
                continue
            with self._lock:
                self.n_reassignments += 1
            if self._metrics is not None:
                self._metrics.incr("cluster_reassignments")
            if self._events is not None:
                self._events.publish(
                    SHARD_REASSIGNED,
                    shard_index=index,
                    from_node=node.address,
                    attempt=attempt,
                )
        return f"node {node.address} lost"

    def _steal(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        inflight: Inflight,
        trace_ctx: Optional[Dict[str, Any]],
    ) -> List[Tuple[Future, int, _Node]]:
        if self.steal_after_s is None:
            return []
        idle = [node for node in self._alive() if not node.futures]
        if not idle:
            return []
        copies = Counter(index for index, _node in inflight.values())
        stale_before = time.monotonic() - self.steal_after_s
        oldest = sorted(
            (future.sent, index)
            for future, (index, _node) in inflight.items()
            if copies[index] == 1 and future.sent <= stale_before
        )
        stolen = []
        for node, (_sent, index) in zip(idle, oldest):
            future = self._send_shard(fn, items[index], node, trace_ctx)
            if future is not None:
                stolen.append((future, index, node))
        return stolen

    # ------------------------------------------------------------------
    # introspection

    def _alive(self) -> List[_Node]:
        return [node for node in self._nodes if node.alive]

    @property
    def alive_count(self) -> int:
        """Number of nodes currently believed alive."""
        return len(self._alive())

    def worker_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-node snapshot keyed by ``host:port``.

        Mirrors :meth:`WorkerPool.worker_stats` (``tasks`` / ``busy_s`` /
        ``last_seen`` / ``alive``) and adds node identity: ``pid``,
        ``slots``, ``inflight``.
        """
        return {
            node.address: {
                "tasks": node.tasks,
                "busy_s": node.busy_s,
                "last_seen": node.last_seen,
                "pid": node.pid,
                "slots": node.slots,
                "alive": node.alive,
                "inflight": len(node.futures),
            }
            for node in self._nodes
        }

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        """Say goodbye to every node and drop the connections; idempotent.

        Shards still in flight fail as lost, so a ``map`` running on
        another thread ends with :class:`~repro.errors.WorkerCrashError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for node in self._nodes:
            if node.alive:
                node.send(protocol.bye_frame("coordinator closing"))
            self._mark_lost(node, "coordinator closing")
