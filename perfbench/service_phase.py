"""Service phases: ``repro-exp serve`` in its own process, driven over HTTP.

One client process (this one) sends a seeded, fixed sequence of
``POST /v1/schedule`` requests over at most ``nproc`` keep-alive
connections. The sequence mixes, in fixed counts per block of
:data:`BLOCK_SLOTS` slots (shuffled within the block):

* exact repeats of a recent request — cache reads;
* a recent spec with a new evaluation seed — served by family batching;
* fresh specs — schedule, replay and write a ledger row.

The last slot of every block is a ``GET /v1/metrics?format=prometheus``
scrape. A closed-loop phase gives capacity; an open-loop phase at a fixed
rate gives latency, timed from each request's due time. Both take whole
blocks per chunk, so every chunk holds the same count of each kind.

The shares put the median inside the cache-hit mode and the tail
percentile in the middle of the slow (fresh and new-seed) mode, away
from the step between the modes.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import FAMILIES, Outcome, Phase
from harness import due_times, open_loop_latency

#: Request kinds per block, shuffled: 15 hits, 1 new seed, 3 fresh specs;
#: then one scrape. Hits are fastest, then new-seed requests, then fresh
#: specs (they also plan). Of the 19 requests 4 (21 %) are slow, so the
#: median sits inside the hit mode and the p90 tail near the middle of
#: the slow mode, where it moves least from seed to seed.
BLOCK = ("hit",) * 15 + ("batched",) * 1 + ("fresh",) * 3
#: Slots per block: the requests, then the scrape.
BLOCK_SLOTS = len(BLOCK) + 1
#: Recent requests a repeat or a new-seed request may pick from.
RECENT = 6
#: Client-side timeout per request, seconds; a timeout is a failure.
REQUEST_TIMEOUT_S = 60.0
#: Budget positions fresh specs cycle through.
POSITIONS = (0.25, 0.5, 0.75)
#: Workflow size of the request specs, the same in every workload. Larger
#: specs make the slow mode, and so the tail, track the server's CPU speed
#: with amplification: at 60 tasks, on a shared 2-vCPU host, a slow spell
#: raised the p90 1.6-2x where in-process rates fell 15 %.
SPEC_TASKS = 30
#: Replications of a fresh spec and of a new-seed request.
FRESH_REPS, BATCHED_REPS = 5, 10
#: Request slots per round, whole blocks: closed loop, then open loop.
CLOSED_CHUNK, OPEN_CHUNK = BLOCK_SLOTS, 3 * BLOCK_SLOTS
#: Open-loop rate, requests/s: about half the closed-loop capacity measured
#: when the benchmark was defined (36 to 43 requests/s on 2 cores).
OPEN_RATE = 18.0
#: Fields that legitimately differ between a cache hit and its computation.
VOLATILE = ("cached", "elapsed_s", "stages")


class RequestMix:
    """The seeded request sequence (deterministic for a seed)."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed * 104729 + 17)
        self.n_fresh = 0
        self.fresh: List[dict] = []
        self.computed: List[dict] = []
        self.slot = 0
        self.block: List[str] = []

    def _fresh(self) -> dict:
        k = self.n_fresh
        self.n_fresh += 1
        body = {
            "workflow": {
                "family": FAMILIES[k % len(FAMILIES)],
                "n_tasks": SPEC_TASKS,
                "rng": self.rng.randrange(1 << 30),
                "sigma_ratio": 0.5,
            },
            "algorithm": "heft_budg",
            "budget": {"position": POSITIONS[(k // 9) % len(POSITIONS)]},
            "evaluation": {"n_reps": FRESH_REPS,
                           "seed": self.rng.randrange(1 << 30)},
        }
        self.fresh = (self.fresh + [body])[-RECENT:]
        self.computed = (self.computed + [body])[-RECENT:]
        return body

    def _batched(self) -> dict:
        base = self.rng.choice(self.fresh)
        body = dict(base)
        body["evaluation"] = {"n_reps": BATCHED_REPS,
                              "seed": self.rng.randrange(1 << 30)}
        self.computed = (self.computed + [body])[-RECENT:]
        return body

    def next(self):
        """``(kind, body)``; ``kind`` is hit / batched / fresh / scrape."""
        self.slot += 1
        if self.slot % BLOCK_SLOTS == 0:
            return "scrape", None
        if not self.block:
            self.block = list(BLOCK)
            self.rng.shuffle(self.block)
        kind = self.block.pop()
        if not self.fresh:
            kind = "fresh"
        if kind == "fresh":
            return kind, self._fresh()
        if kind == "batched":
            return kind, self._batched()
        return kind, self.rng.choice(self.computed)

    def take(self, n: int) -> List[tuple]:
        """The next ``n`` slots."""
        return [self.next() for _ in range(n)]


class Server:
    """A ``serve_launcher.py`` process on a free loopback port."""

    def __init__(self, root: Path, workdir: Path, trace: bool, tag: str) -> None:
        self.ledger = workdir / f"ledger-{tag}.db"
        self.spans = workdir / f"server-spans-{tag}.json" if trace else None
        for path in (self.ledger, self.spans):
            if path is not None and path.exists():
                path.unlink()
        cmd = [sys.executable, str(root / "perfbench" / "serve_launcher.py"),
               "--ledger", str(self.ledger)]
        if self.spans is not None:
            cmd += ["--spans", str(self.spans)]
        self._log = open(workdir / f"server-{tag}.log", "wb")
        self._out = b""
        self.proc = subprocess.Popen(
            cmd, cwd=str(root), stdout=subprocess.PIPE, stderr=self._log,
            env=dict(os.environ, PYTHONUNBUFFERED="1"),
        )
        try:
            self.url = self._read_url(deadline=time.monotonic() + 120.0)
        except BaseException:
            self.proc.kill()
            self.proc.wait(timeout=30)
            self.proc.stdout.close()
            self._log.close()
            raise
        host, port = self.url.split("//", 1)[1].split(":")
        self.host, self.port = host, int(port)

    def _read_line(self, needle: str, deadline: float) -> str:
        """The first unread line of the server's output containing ``needle``."""
        while time.monotonic() < deadline:
            lines = self._out.split(b"\n")
            for k, line in enumerate(lines[:-1]):
                text = line.decode("utf-8", "replace")
                if needle in text:
                    self._out = b"\n".join(lines[k + 1:])
                    return text
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                self._out += os.read(self.proc.stdout.fileno(), 4096)
        raise RuntimeError(f"server did not print {needle!r} in time")

    def _read_url(self, deadline: float) -> str:
        line = self._read_line("listening on ", deadline)
        return line.split("listening on ", 1)[1].strip()

    def mark(self) -> None:
        """Start the traced server's span dump here (after the warm-up)."""
        from serve_launcher import MARKED

        self.proc.send_signal(signal.SIGUSR1)
        self._read_line(MARKED, deadline=time.monotonic() + 30.0)

    def peak_rss_mb(self) -> float:
        """The server process's peak resident set, in MB."""
        from harness import peak_rss_mb
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> Optional[dict]:
        """SIGTERM, wait for the drain; returns the span dump when traced."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()
        if self.spans is not None and self.spans.exists():
            with open(self.spans, encoding="utf-8") as fh:
                return json.load(fh)
        return None


class Connection:
    """One keep-alive HTTP connection to the server."""

    def __init__(self, server: Server) -> None:
        self.server = server
        self.conn = self._connect()

    def _connect(self):
        return http.client.HTTPConnection(self.server.host, self.server.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def call(self, method: str, path: str, body: Optional[dict] = None):
        """``(status, payload bytes)``.

        A dropped socket raises: the request counts as failed, and the
        next call opens a new connection.
        """
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data is not None else {}
        try:
            self.conn.request(method, path, body=data, headers=headers)
            resp = self.conn.getresponse()
            return resp.status, resp.read()
        except BaseException:
            self.conn.close()
            raise

    def close(self) -> None:
        """Close the socket."""
        self.conn.close()


class Results:
    """Per-request records of one phase, and the cross-request checks."""

    def __init__(self, outcome: Outcome, first: Dict[str, dict]) -> None:
        self.outcome = outcome
        self.lock = threading.Lock()
        self.requests: List[dict] = []
        self.scrapes: List[float] = []
        #: requests the admission gate turned away (HTTP 402 / 429).
        self.refused = 0
        #: wall seconds spent sending (closed loop).
        self.wall = 0.0
        #: fingerprint -> first response seen, shared across phases.
        self.first = first

    def record(self, kind: str, status: int, payload: bytes, sent: float,
               done: float, due: Optional[float]) -> None:
        """Check one response and keep its timings."""
        entry = {"kind": kind, "sent": sent, "done": done, "due": due,
                 "ok": False, "cached": False, "server_wall": None, "stages": {}}
        key = stable = None
        if status != 200:
            problem = f"{kind}: HTTP {status}: {payload[:200]!r}"
        elif kind == "scrape":
            problem = "" if b"repro_" in payload else (
                "scrape: no repro_ series in the exposition")
        else:
            try:
                key, stable = _parse_evaluation(payload, entry)
                problem = ""
            except Exception as exc:  # a malformed body is a failed request
                problem = f"{kind}: malformed response: {type(exc).__name__}: {exc}"
        entry["ok"] = not problem
        with self.lock:
            self.outcome.attempted += 1
            if status in (402, 429):
                self.refused += 1
            if problem:
                self.outcome.fail(problem)
            if kind == "scrape":
                self.scrapes.append(done - sent)
                return
            if key is not None:
                first = self.first.setdefault(key, stable)
                if first is not stable and first != stable:
                    self.outcome.fail(
                        f"{kind}: response for {key} differs from its first computation")
                    entry["ok"] = False
            self.requests.append(entry)

    def failure(self, kind: str, exc: BaseException, sent: float, due) -> None:
        """A request that raised (timeout, refused connection)."""
        with self.lock:
            self.outcome.attempted += 1
            self.outcome.fail(f"{kind}: {type(exc).__name__}: {exc}")
            if kind != "scrape":
                self.requests.append({"kind": kind, "sent": sent, "done": None,
                                      "due": due, "ok": False, "cached": False,
                                      "server_wall": None, "stages": {}})


def _parse_evaluation(payload: bytes, entry: dict):
    """Check a ``/v1/schedule`` body and fill ``entry``'s timings from it;
    returns the request fingerprint and the fields a cache hit must repeat.
    Raises on any malformed body."""
    response = json.loads(payload)
    evaluation = response["evaluation"]
    if not isinstance(evaluation, dict) or evaluation.get("n_reps", 0) < 1:
        raise ValueError("response carries no evaluation")
    if len(evaluation.get("reps", ())) != evaluation["n_reps"]:
        raise ValueError("evaluation has the wrong number of reps")
    stages = response.get("stages") or {}
    entry["cached"] = bool(response.get("cached"))
    entry["server_wall"] = stages.get("wall_s")
    entry["stages"] = dict(stages.get("stages", {}))
    stable = {k: v for k, v in response.items() if k not in VOLATILE}
    return str(response["request_fingerprint"]), stable


def _send(conn: Connection, kind: str, body, results: Results, due=None) -> None:
    sent = time.perf_counter()
    try:
        if kind == "scrape":
            status, payload = conn.call("GET", "/v1/metrics?format=prometheus")
        else:
            status, payload = conn.call("POST", "/v1/schedule", body)
    except Exception as exc:  # refused, reset, timed out: a failed request
        results.failure(kind, exc, sent, due)
        return
    results.record(kind, status, payload, sent, time.perf_counter(), due)


def _drive(conns: List[Connection], work) -> None:
    """Run ``work(conn)`` on one thread per connection; join them all."""
    threads = [threading.Thread(target=work, args=(conn,)) for conn in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def closed_loop(conns: List[Connection], slots: List[tuple], results: Results) -> None:
    """Send ``slots`` as fast as the connections' waiting clients allow;
    adds the wall time to ``results.wall``."""
    lock = threading.Lock()
    todo = iter(slots)

    def work(conn: Connection) -> None:
        while True:
            with lock:
                slot = next(todo, None)
            if slot is None:
                return
            _send(conn, slot[0], slot[1], results)

    start = time.perf_counter()
    _drive(conns, work)
    results.wall += time.perf_counter() - start


def open_loop(conns: List[Connection], slots: List[tuple], rate: float,
              results: Results) -> None:
    """Send slot ``i`` at ``start + i / rate`` on the first free connection.

    Latencies are timed from the due times (see :func:`latencies`).
    """
    lock = threading.Lock()
    counter = iter(range(len(slots)))
    dues = due_times(time.perf_counter() + 0.05, rate, len(slots))

    def work(conn: Connection) -> None:
        while True:
            with lock:
                i = next(counter, None)
            if i is None:
                return
            delay = dues[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            _send(conn, slots[i][0], slots[i][1], results, due=dues[i])

    _drive(conns, work)


def phases(closed_conns: List[Connection], open_conns: List[Connection],
           mix: RequestMix, closed: Results, opened: Results) -> List[Phase]:
    """The closed- and open-loop phases: one chunk of request slots each
    per round, taken from ``mix`` in turn, over keep-alive connections
    that live for the whole run."""

    def closed_chunk(_item, _visit) -> None:
        closed_loop(closed_conns, mix.take(CLOSED_CHUNK), closed)

    def open_chunk(_item, _visit) -> None:
        open_loop(open_conns, mix.take(OPEN_CHUNK), OPEN_RATE, opened)

    return [Phase("closed", [None], closed_chunk), Phase("open", [None], open_chunk)]


def latencies(results: Results):
    """``(latencies, lateness)`` of the open-loop requests (failed ones: inf)."""
    lat, late = [], []
    for r in results.requests:
        if r["done"] is None or not r["ok"]:
            lat.append(float("inf"))
            continue
        latency, lateness = open_loop_latency(r["due"], r["sent"], r["done"])
        lat.append(latency)
        late.append(lateness)
    return lat, late


def warm(server: Server, mix: RequestMix) -> None:
    """Wait for readiness, then serve a few requests of every kind."""
    conn = Connection(server)
    try:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                status, _ = conn.call("GET", "/v1/healthz")
            except OSError:
                status = 0
            if status == 200:
                break
            if time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.05)
        results = Results(Outcome(), {})
        for kind, body in mix.take(BLOCK_SLOTS):
            _send(conn, kind, body, results)
        if results.outcome.failed:
            raise RuntimeError(f"warm-up failed: {results.outcome.problems[:3]}")
    finally:
        conn.close()
