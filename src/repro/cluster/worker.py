"""The long-lived cluster worker node (``repro-exp worker``).

A :class:`ClusterWorker` binds a listening socket and serves shard frames
from any number of coordinator connections. Execution follows the same
rules as a :class:`repro.parallel.WorkerPool` process, with the same
helpers from :mod:`repro.parallel.pool`:

* on startup :func:`~repro.parallel.pool.reset_process_globals` resets
  the process-global ledger and tracer to their null implementations — a
  worker node computes and returns values, the coordinator records, in
  serial order;
* each shard runs through :func:`~repro.parallel.pool.run_item`: one that
  arrives with a ``trace`` context runs under a worker-local
  :class:`~repro.obs.tracing.Tracer` sharing the coordinator's
  ``trace_id``, and its span/counter payload rides back in the ``result``
  frame so the coordinator can merge it into one request trace; untraced
  shards pay nothing.

Each connection gets a heartbeat thread streaming liveness + cumulative
load every ``heartbeat_s`` seconds; the coordinator declares a node lost
when its connection stays silent past the coordinator's heartbeat
timeout, so a wedged worker is handled exactly like a dead one.
``slots`` is the node's advertised parallelism: shards execute on a
thread pool of that size (the default of 1 serialises execution —
shard functions are CPU-bound Python, so scale out with more *worker
processes*, not more slots).
"""

from __future__ import annotations

import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from ..errors import ClusterProtocolError
from ..parallel.pool import reset_process_globals, run_item
from . import protocol

__all__ = ["ClusterWorker"]


class ClusterWorker:
    """One worker node: a listening socket plus a shard executor.

    Parameters
    ----------
    host, port:
        Bind address; port ``0`` picks a free port (see :attr:`address`
        after :meth:`start`).
    slots:
        Advertised parallelism (thread-pool size; see module docs).
    heartbeat_s:
        Interval between heartbeat frames on each connection.
    token:
        Optional shared secret; connections whose ``hello`` carries a
        different token are refused. Accident prevention, not auth.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        slots: int = 1,
        heartbeat_s: float = 1.0,
        token: Optional[str] = None,
    ) -> None:
        if slots < 1:
            raise ValueError(f"worker needs >= 1 slot, got {slots}")
        self._host = host
        self._port = port
        self.slots = slots
        self.heartbeat_s = heartbeat_s
        self._token = token
        self._listener: Optional[socket.socket] = None
        self._address: Optional[Tuple[str, int]] = None
        self._executor = ThreadPoolExecutor(
            max_workers=slots, thread_name_prefix="repro-cluster-shard"
        )
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: set = set()
        self._closed = threading.Event()
        self._lock = threading.Lock()
        self.tasks_done = 0
        self.busy_s = 0.0
        self.n_inflight = 0

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._address is None:
            raise RuntimeError("worker is not started")
        return self._address

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and start accepting connections; returns address."""
        reset_process_globals()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(16)
        self._listener = listener
        self._address = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-cluster-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Block until :meth:`close` (for the CLI entry point)."""
        if self._listener is None:
            self.start()
        self._closed.wait()

    def close(self) -> None:
        """Stop accepting, drop connections, shut the executor down."""
        if self._closed.is_set():
            return
        self._closed.set()
        if self._listener is not None:
            # On Linux, close() alone does not wake the thread blocked in
            # accept(); shutdown() does, so the join below returns at once.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._executor.shutdown(wait=False)
        # Drop live connections too: their frame loops block in recv and
        # would otherwise outlive the worker, leaving coordinators to
        # discover the death only via heartbeat staleness.
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    def __enter__(self) -> "ClusterWorker":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # connection handling

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closed.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-cluster-conn",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            self._conns.add(conn)
        write_lock = threading.Lock()

        def send(frame: Dict[str, Any]) -> bool:
            with write_lock:
                try:
                    protocol.send_frame(conn, frame)
                    return True
                except OSError:
                    return False

        try:
            hello = protocol.recv_frame(conn)
            protocol.check_handshake(
                hello, expect="hello", token=self._token
            )
        except ClusterProtocolError as exc:
            send(protocol.error_frame(None, exc, kind="protocol"))
            conn.close()
            with self._lock:
                self._conns.discard(conn)
            return
        send(
            protocol.welcome_frame(
                pid=os.getpid(), slots=self.slots, host=self._host
            )
        )
        stop_heartbeat = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(send, stop_heartbeat),
            name="repro-cluster-heartbeat",
            daemon=True,
        )
        heartbeat.start()
        try:
            self._frame_loop(conn, send)
        finally:
            stop_heartbeat.set()
            heartbeat.join(timeout=2.0)
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _heartbeat_loop(self, send: Any, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_s):
            if self._closed.is_set():
                return
            with self._lock:
                frame = protocol.heartbeat_frame(
                    pid=os.getpid(),
                    tasks=self.tasks_done,
                    busy_s=self.busy_s,
                    inflight=self.n_inflight,
                )
            if not send(frame):
                return

    def _frame_loop(self, conn: socket.socket, send: Any) -> None:
        while not self._closed.is_set():
            try:
                frame = protocol.recv_frame(conn)
            except ClusterProtocolError as exc:
                send(protocol.error_frame(None, exc, kind="protocol"))
                return
            except OSError:
                return
            if frame is None or frame.get("type") == "bye":
                return
            kind = frame.get("type")
            if kind == "shard":
                with self._lock:
                    self.n_inflight += 1
                try:
                    self._executor.submit(self._run_shard, frame, send)
                except RuntimeError:
                    # executor already shut down: the worker is closing,
                    # drop the connection and let the coordinator reassign
                    with self._lock:
                        self.n_inflight -= 1
                    return
            elif kind == "heartbeat":  # pragma: no cover - not sent today
                continue
            else:
                send(
                    protocol.error_frame(
                        None,
                        ClusterProtocolError(f"unexpected frame {kind!r}"),
                        kind="protocol",
                    )
                )
                return

    def _run_shard(self, frame: Dict[str, Any], send: Any) -> None:
        task_id = frame.get("task_id")
        try:
            fn, item = protocol.decode_payload(frame["payload"])
            result, elapsed, trace = run_item(fn, item, frame.get("trace"))
            payload = protocol.encode_payload(result)
        except BaseException as exc:  # noqa: BLE001 - shipped to caller
            with self._lock:
                self.n_inflight -= 1
            send(protocol.error_frame(task_id, exc, kind="task"))
            return
        with self._lock:
            self.n_inflight -= 1
            self.tasks_done += 1
            self.busy_s += elapsed
        send(
            protocol.result_frame(
                task_id, payload, elapsed_s=elapsed, trace=trace
            )
        )
