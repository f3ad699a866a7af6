"""Stdlib-only HTTP/JSON gateway in front of :class:`SchedulingService`.

No web framework — ``http.server.ThreadingHTTPServer`` plus a small JSON
router, so the gateway works anywhere the library does. Endpoints
(all under ``/v1``):

==============================  ==============================================
``GET  /v1/healthz``               liveness + uptime
``GET  /v1/schedulers``            registry names accepted in requests
``GET  /v1/metrics``               cache / job / latency snapshot
``POST /v1/schedule``              synchronous scheduling; body = one request
``POST /v1/jobs``                  async submit; body = one request or array
``GET  /v1/jobs``                  all job snapshots (``?state=`` filters)
``GET  /v1/jobs/<id>``             one job snapshot (response when done)
``DELETE /v1/jobs/<id>``           cancel a pending job
``GET  /v1/jobs/<id>/events``      SSE stream of one job's lifecycle
``GET  /v1/events``                SSE stream of all bus events
``GET  /v1/runs``                  archived runs from the ledger (filters)
``GET  /v1/runs/<id>``             one archived run
``GET  /v1/tenants``               tenant policies + live budget accounting
``GET  /v1/admission``             admission queue / estimator / batching stats
==============================  ==============================================

``POST /v1/schedule`` and ``POST /v1/jobs`` honour two optional request
headers: ``X-Tenant`` bills the work to a named tenant (see
``docs/ADMISSION.md``; unknown tenants fall back to the default policy)
and ``X-Priority`` picks its admission class (``interactive`` / ``batch``
/ ``best_effort``). An admission refusal answers 429 — or 402 when the
tenant's cost budget is exhausted — with a typed JSON body
(``reason``, ``tenant``, ``queue_depth``, ``retry_after_s``) and a
``Retry-After`` header.

``GET /v1/metrics`` defaults to the JSON snapshot; append
``?format=prometheus`` for text exposition scrapable by Prometheus.

The SSE endpoints speak ``text/event-stream``: one frame per event
(``id:`` = bus sequence number, ``event:`` = type, ``data:`` = JSON
payload), ``: keep-alive`` comments while idle, and a clean close when
the stream ends. ``/v1/jobs/<id>/events`` replays the job's buffered
history first — a finished job yields its whole ``queued → started →
finished`` lifecycle immediately — and closes after the terminal event.
``/v1/events`` streams until ``?timeout=`` seconds elapse (default 30);
``?types=a,b`` filters, ``?replay=n`` prepends the last *n* buffered
events. ``/v1/runs`` requires a ledger-enabled service (``repro-exp
serve --ledger runs.db``); without one it answers with an empty archive
and ``"enabled": false``.

Validation failures map to 400, unknown routes/jobs to 404, a full job
queue to 429 and a draining service to 503 (both with a ``Retry-After``
header), everything else to 500, always with a JSON ``{"error": ...}``
body. Every request is
tagged with a fresh trace id, echoed in the ``X-Trace-Id`` response
header and the structured access log line (``repro.service.http``
logger — enable with :func:`repro.obs.logging.configure_logging` or the
``repro-exp serve --log-level`` flag). Use :func:`start_gateway` for an
embedded server (tests, notebooks) and :func:`serve` to block a process
on it (the ``repro-exp serve`` command).
"""

from __future__ import annotations

import io
import json
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from dataclasses import replace

from ..errors import (
    AdmissionRejected,
    JobNotFoundError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from ..obs.events import JOB_EVENT_TYPES, RUN_RECORDED, EventBus
from ..obs.logging import configure_logging, get_logger
from ..obs.prometheus import render_prometheus
from ..scheduling.registry import available_schedulers
from .engine import SchedulingService
from .spec import DEFAULT_PRIORITY, DEFAULT_TENANT, parse_requests

__all__ = ["ServiceGateway", "start_gateway", "serve"]

_MAX_BODY_BYTES = 32 * 1024 * 1024  # inline DAX documents can be large

_access_log = get_logger("service.http")


class _PlainText:
    """Marker for routes that answer text instead of JSON."""

    __slots__ = ("text", "content_type")

    def __init__(self, text: str, content_type: str = "text/plain; version=0.0.4; charset=utf-8") -> None:
        self.text = text
        self.content_type = content_type


class _SSEStream:
    """Marker for routes that stream Server-Sent-Events frames.

    ``frames`` yields ready-to-send SSE strings; the handler writes and
    flushes them one by one, then closes the connection.
    """

    __slots__ = ("frames",)

    def __init__(self, frames: Any) -> None:
        self.frames = frames


#: Bounds on the ``?timeout=`` query of the SSE endpoints (seconds).
_SSE_DEFAULT_TIMEOUT = 30.0
_SSE_MAX_TIMEOUT = 3600.0
#: Poll interval while an SSE stream is idle (drives keep-alive comments).
_SSE_POLL_S = 1.0


def _sse_timeout(query: Dict[str, str]) -> float:
    try:
        timeout = float(query.get("timeout", _SSE_DEFAULT_TIMEOUT))
    except ValueError:
        raise ServiceError(f"invalid timeout {query['timeout']!r}") from None
    if timeout <= 0:
        raise ServiceError(f"timeout must be > 0, got {timeout}")
    return min(timeout, _SSE_MAX_TIMEOUT)


def _event_frames(service: SchedulingService, types, timeout: float, *,
                  replay: Optional[int] = None, match=None,
                  until_finished: bool = False):
    """SSE frames of the event bus: buffered history, then live events.

    Replays the newest ``replay`` buffered events of ``types`` that
    ``match`` accepts (every one when ``replay`` is None), then streams
    the live ones until ``timeout`` elapses, with keep-alive comments
    while idle. Subscribes *before* replaying history so no event can
    fall between the two phases; duplicates are dropped by sequence
    number. With ``until_finished`` the stream ends (and the connection
    closes) right after the first ``job.finished`` event.
    """
    bus = service.events
    sub = bus.subscribe(types=types)
    try:
        last_seq = 0
        for ev in bus.history(types=types, match=match, limit=replay):
            yield ev.to_sse()
            last_seq = ev.seq
            if until_finished and ev.type == "job.finished":
                return
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                yield ": timeout\n\n"
                return
            ev = sub.get(timeout=min(remaining, _SSE_POLL_S))
            if ev is None:
                yield ": keep-alive\n\n"
                continue
            if ev.seq <= last_seq or (match is not None and not match(ev)):
                continue
            yield ev.to_sse()
            if until_finished and ev.type == "job.finished":
                return
    finally:
        sub.close()


def _prometheus_gauges(stats: Dict[str, Any]) -> Dict[str, float]:
    """Flatten service stats into gauge metrics for the exposition."""
    gauges: Dict[str, float] = {"uptime_seconds": stats["uptime_s"]}
    for state, n in stats.get("jobs", {}).items():
        gauges[f"jobs_{state}"] = n
    cache = stats.get("cache")
    if cache:
        for key in ("hits", "misses", "evictions", "expirations", "hit_rate"):
            if key in cache:
                gauges[f"cache_{key}"] = cache[key]
    # Queue depth per priority class and in-flight jobs are *sampled on
    # every scrape* (not just at event edges), so a stalled queue shows
    # its true depth even when no admission event has fired recently.
    admission = stats.get("admission") or {}
    queue = admission.get("queue") or {}
    for cls, depth in sorted((queue.get("by_priority") or {}).items()):
        gauges[f'queue_depth{{class="{cls}"}}'] = depth
    if "depth" in queue:
        gauges["queue_depth_total"] = queue["depth"]
    if "oldest_wait_s" in queue:
        gauges["queue_oldest_wait_seconds"] = queue["oldest_wait_s"]
    gauges["inflight_jobs"] = stats.get("jobs", {}).get("running", 0)
    # Live cluster node count (sampled per scrape; reassignments ride in
    # the regular counter snapshot as repro_cluster_reassignments_total).
    if stats.get("cluster_nodes") is not None:
        gauges["cluster_nodes"] = stats["cluster_nodes"]
    slo = stats.get("slo")
    if slo:
        # Streaming percentiles per lifecycle stage (from the mergeable
        # quantile sketches) plus the end-to-end "request" series.
        for stage, pcts in slo.get("stages", {}).items():
            for key in ("p50", "p95", "p99"):
                if key in pcts:
                    gauges[f"slo_stage_{stage}_{key}_seconds"] = pcts[key]
        for target in slo.get("targets", []):
            name = target.get("name")
            windows = target.get("windows", {})
            for label, window in windows.items():
                gauges[f"slo_burn_rate_{name}_{label}"] = (
                    window.get("burn_rate", 0.0)
                )
    return gauges


class _Handler(BaseHTTPRequestHandler):
    # Set by ServiceGateway when the server is built.
    service: SchedulingService = None  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every connection: SSE frames and the stdlib's
    # ``send_error`` write headers and body separately.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def log_message(self, *args: Any) -> None:  # pragma: no cover - quiet
        pass

    # ------------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        trace_id = uuid.uuid4().hex[:16]
        started = time.perf_counter()
        extra_headers: Dict[str, str] = {}
        try:
            status, payload = self._route(method)
        except AdmissionRejected as exc:
            # Typed admission refusal: 402 when the tenant's cost budget
            # is exhausted (retry only helps once the window resets),
            # 429 for rate limiting / a full queue. Retry-After either way.
            extra_headers["Retry-After"] = f"{max(exc.retry_after_s, 0):.0f}"
            status = 402 if exc.reason == "budget_exhausted" else 429
            payload = {
                "error": str(exc),
                "reason": exc.reason,
                "tenant": exc.tenant,
                "queue_depth": exc.queue_depth,
                "retry_after_s": exc.retry_after_s,
                "trace_id": trace_id,
            }
        except ServiceOverloadedError as exc:
            # Backpressure: the job queue is full. 429 + Retry-After tells
            # well-behaved clients how long to back off.
            extra_headers["Retry-After"] = f"{max(exc.retry_after_s, 0):.0f}"
            status, payload = 429, {
                "error": str(exc),
                "reason": exc.reason,
                "queue_depth": exc.queue_depth,
                "retry_after_s": exc.retry_after_s,
                "trace_id": trace_id,
            }
        except ServiceClosedError as exc:
            # Graceful drain: the service no longer accepts work.
            extra_headers["Retry-After"] = f"{max(exc.retry_after_s, 0):.0f}"
            status, payload = 503, {"error": str(exc), "trace_id": trace_id}
        except ServiceError as exc:
            status_code = 404 if isinstance(exc, JobNotFoundError) else 400
            status, payload = status_code, {"error": str(exc),
                                            "trace_id": trace_id}
        except Exception as exc:
            status, payload = 500, {"error": f"internal error: {exc}",
                                    "trace_id": trace_id}
        if isinstance(payload, _SSEStream):
            self._stream_sse(status, payload, trace_id)
            _access_log.info(
                "access",
                extra={
                    "fields": {
                        "method": method,
                        "path": self.path,
                        "status": status,
                        "duration_ms": round(
                            (time.perf_counter() - started) * 1e3, 3
                        ),
                        "trace_id": trace_id,
                        "sse": True,
                    }
                },
            )
            return
        if isinstance(payload, _PlainText):
            body = payload.text.encode("utf-8")
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        # Status line, headers and body leave in one write: a body sent as
        # a second small segment waits under Nagle for the client's
        # delayed ACK, ~40 ms per keep-alive request.
        wfile, self.wfile = self.wfile, io.BytesIO()
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.send_header("X-Trace-Id", trace_id)
            for name, value in extra_headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
            response = self.wfile.getvalue()
        finally:
            self.wfile = wfile
        self.wfile.write(response)
        _access_log.info(
            "access",
            extra={
                "fields": {
                    "method": method,
                    "path": self.path,
                    "status": status,
                    "duration_ms": round(
                        (time.perf_counter() - started) * 1e3, 3
                    ),
                    "trace_id": trace_id,
                }
            },
        )

    def _stream_sse(self, status: int, stream: _SSEStream, trace_id: str) -> None:
        """Send headers, then write frames as they arrive until done.

        SSE has no Content-Length, so the response is delimited by closing
        the connection (``Connection: close``); a client hang-up simply
        ends the stream.
        """
        self.send_response(status)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.send_header("X-Trace-Id", trace_id)
        self.end_headers()
        self.close_connection = True
        try:
            for frame in stream.frames:
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away; nothing left to deliver

    def _route(self, method: str) -> Tuple[int, Any]:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        if not parts or parts[0] != "v1":
            return 404, {"error": f"unknown route {parsed.path!r}"}
        tail = parts[1:]

        if method == "GET" and tail == ["healthz"]:
            # Readiness, not just liveness: 503 while draining (or with
            # an unwritable ledger / a dead worker pool) tells load
            # balancers and the loadgen warmup gate to hold traffic.
            health = self.service.health()
            return (200 if health["ready"] else 503), health
        if method == "GET" and tail == ["schedulers"]:
            return 200, {"schedulers": available_schedulers()}
        if method == "GET" and tail == ["metrics"]:
            stats = self.service.stats()
            fmt = query.get("format", "json")
            if fmt == "prometheus":
                text = render_prometheus(
                    stats["metrics"], gauges=_prometheus_gauges(stats)
                )
                return 200, _PlainText(text)
            if fmt != "json":
                raise ServiceError(
                    f"unknown metrics format {fmt!r}; 'json' or 'prometheus'"
                )
            return 200, stats
        if method == "GET" and tail == ["slo"]:
            return 200, self.service.slo.snapshot()
        if method == "GET" and tail == ["tenants"]:
            return 200, {"tenants": self.service.admission.tenants.snapshot()}
        if method == "GET" and tail == ["admission"]:
            out = self.service.admission.stats()
            out["batching"] = self.service.batching_stats()
            return 200, out
        if method == "POST" and tail == ["schedule"]:
            requests = self._tagged_requests(self._read_json())
            if len(requests) != 1:
                raise ServiceError(
                    "POST /v1/schedule takes exactly one request; "
                    "use POST /v1/jobs for batches"
                )
            return 200, self.service.schedule(requests[0]).to_dict()
        if method == "POST" and tail == ["jobs"]:
            requests = self._tagged_requests(self._read_json())
            job_ids = self.service.submit_batch(requests)
            return 202, {"job_ids": job_ids}
        if method == "GET" and tail == ["jobs"]:
            records = self.service.jobs(state=query.get("state"))
            return 200, {
                "jobs": [r.to_dict(include_response=False) for r in records]
            }
        if method == "GET" and tail == ["events"]:
            timeout = _sse_timeout(query)
            types = None
            if "types" in query:
                types = tuple(t for t in query["types"].split(",") if t)
            try:
                replay = int(query.get("replay", 0))
            except ValueError:
                raise ServiceError(
                    f"invalid replay {query['replay']!r}"
                ) from None
            return 200, _SSEStream(
                _event_frames(self.service, types, timeout, replay=replay)
            )
        if method == "GET" and tail == ["runs"]:
            ledger = self.service.ledger
            try:
                limit = int(query.get("limit", 50))
            except ValueError:
                raise ServiceError(f"invalid limit {query['limit']!r}") from None
            rows = ledger.runs(
                algorithm=query.get("algorithm"),
                workflow=query.get("workflow"),
                fingerprint=query.get("fingerprint"),
                source=query.get("source"),
                limit=limit,
            )
            return 200, {
                "enabled": ledger.enabled,
                "runs": [r.to_dict() for r in rows],
            }
        if method == "GET" and len(tail) == 2 and tail[0] == "runs":
            try:
                row = self.service.ledger.run(int(tail[1]))
            except (KeyError, ValueError):
                return 404, {"error": f"no archived run {tail[1]!r}"}
            return 200, row.to_dict()
        if (
            method == "GET"
            and len(tail) == 3
            and tail[0] == "jobs"
            and tail[2] == "events"
        ):
            job_id = tail[1]
            timeout = _sse_timeout(query)
            self.service.job(job_id)  # 404 before headers when unknown

            def of_job(ev) -> bool:
                data = ev.data
                return (data.get("job_id") == job_id
                        or data.get("trace_id") == job_id)

            return 200, _SSEStream(_event_frames(
                self.service, JOB_EVENT_TYPES + (RUN_RECORDED,), timeout,
                match=of_job, until_finished=True,
            ))
        if len(tail) == 2 and tail[0] == "jobs":
            job_id = tail[1]
            if method == "GET":
                return 200, self.service.job(job_id).to_dict()
            if method == "DELETE":
                cancelled = self.service.cancel(job_id)
                return 200, {"job_id": job_id, "cancelled": cancelled}
        return 404, {"error": f"unknown route {method} {parsed.path!r}"}

    def _tagged_requests(self, payload: Any) -> Any:
        """Parse requests, applying ``X-Tenant`` / ``X-Priority`` headers.

        A header fills the field only where the request body left it at
        its default — an explicit body value wins, so batches can mix
        priorities while still sharing one tenant header.
        """
        requests = parse_requests(payload)
        tenant = self.headers.get("X-Tenant")
        priority = self.headers.get("X-Priority")
        if not tenant and not priority:
            return requests
        tagged = []
        for req in requests:
            updates: Dict[str, str] = {}
            if tenant and req.tenant == DEFAULT_TENANT:
                updates["tenant"] = tenant
            if priority and req.priority == DEFAULT_PRIORITY:
                updates["priority"] = priority
            tagged.append(replace(req, **updates) if updates else req)
        return tagged

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ServiceError("request body is empty")
        if length > _MAX_BODY_BYTES:
            raise ServiceError(
                f"request body exceeds {_MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc


class _Server(ThreadingHTTPServer):
    # The http.server default backlog of 5 drops connections under bursty
    # concurrent traffic (observed as client-side ECONNRESET at ~32
    # simultaneous POSTs); raise it to absorb accept spikes.
    request_queue_size = 128
    daemon_threads = True


class ServiceGateway:
    """An embeddable HTTP server bound to one :class:`SchedulingService`.

    The server thread is a daemon; call :meth:`shutdown` (or use the
    context manager) for a clean stop. ``port=0`` picks a free port —
    read it back from :attr:`address`.
    """

    def __init__(
        self,
        service: SchedulingService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        handler = type("_BoundHandler", (_Handler,), {"service": service})
        self._server = _Server((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound."""
        return self._server.server_address[0], self._server.server_port

    @property
    def url(self) -> str:
        """Base URL of the bound server, e.g. ``http://127.0.0.1:8080``."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceGateway":
        """Serve in a background daemon thread; returns self."""
        if self._thread is not None:
            raise ServiceError("gateway already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-gateway", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (blocks until shutdown)."""
        self._server.serve_forever()

    def shutdown(self) -> None:
        """Stop serving, close the socket, join the server thread."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ServiceGateway":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


def start_gateway(
    service: Optional[SchedulingService] = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    **service_kwargs: Any,
) -> ServiceGateway:
    """Start a background gateway; builds a service when none is given."""
    if service is None:
        service = SchedulingService(**service_kwargs)
    return ServiceGateway(service, host=host, port=port).start()


def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    max_workers: int = 4,
    cache_size: int = 256,
    cache_ttl: Optional[float] = None,
    ledger_path: Optional[str] = None,
    log_level: str = "info",
    log_json: bool = False,
    max_queue_depth: Optional[int] = None,
    job_timeout: Optional[float] = None,
    max_retries: int = 0,
    executor: str = "thread",
    nodes: Optional[str] = None,
    tenants_path: Optional[str] = None,
) -> None:  # pragma: no cover - blocking entry point, exercised via CLI
    """Run a gateway in the foreground until interrupted.

    ``ledger_path`` enables the persistent run ledger: every computed
    response is archived there and ``GET /v1/runs`` serves the archive.
    ``tenants_path`` loads per-tenant admission policies (JSON; see
    ``docs/ADMISSION.md``) — without it every request runs under the
    permissive default tenant. ``executor="process"`` computes in worker
    processes (see ``docs/PARALLEL.md``); ``executor="cluster"`` computes
    on the remote ``repro-exp worker`` nodes listed in ``nodes``
    (see ``docs/CLUSTER.md``). SIGTERM and SIGINT both trigger
    a graceful drain: the socket closes, in-flight jobs finish, then the
    process exits.
    """
    import signal

    from ..admission import TenantRegistry
    from ..obs.ledger import RunLedger

    configure_logging(level=log_level, json_mode=log_json)
    bus = EventBus()
    ledger = (
        RunLedger(ledger_path, bus=bus) if ledger_path is not None else None
    )
    tenants = (
        TenantRegistry.from_json_file(tenants_path)
        if tenants_path is not None else None
    )
    service = SchedulingService(
        max_workers=max_workers, cache_size=cache_size, cache_ttl=cache_ttl,
        ledger=ledger, events=bus, max_queue_depth=max_queue_depth,
        job_timeout=job_timeout, max_retries=max_retries, executor=executor,
        nodes=nodes, tenants=tenants,
    )
    gateway = ServiceGateway(service, host=host, port=port)

    def _sigterm(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    print(f"repro scheduling service listening on {gateway.url}")
    if executor == "cluster":
        alive = service.health()["worker_count"]
        print(f"cluster executor: {alive} node(s) [{nodes}]")
    print("endpoints: /v1/healthz /v1/schedulers /v1/metrics "
          "/v1/schedule /v1/jobs /v1/jobs/<id>/events /v1/events "
          "/v1/runs /v1/tenants /v1/admission /v1/slo  "
          "(metrics?format=prometheus)")
    if ledger is not None:
        print(f"run ledger: {ledger.path} ({ledger.count()} archived runs)")
    if tenants is not None:
        names = sorted(tenants.snapshot()["tenants"])
        print(f"tenants: {tenants_path} ({', '.join(names) or 'default only'})")
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:
        print("\ndraining: waiting for in-flight jobs", flush=True)
    finally:
        gateway.shutdown()
        service.close(wait=True)
        if ledger is not None:
            ledger.close()
        print("drained; bye", flush=True)
