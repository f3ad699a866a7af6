"""Persistent run ledger: every schedule/simulate/service run, archived.

The paper's evaluation (§V) compares makespan/cost/success-rate
distributions across algorithms and hundreds of stochastic runs — exactly
the longitudinal record a process throws away when it exits. The ledger
keeps it: one SQLite row per run (spec fingerprint, workflow family,
algorithm, budget, predicted vs. simulated makespan and cost, success
flag, Monte Carlo sample stats, trace id, wall-clock timings, package
version), written in WAL mode so concurrent writers — service worker
threads, a sweep process, the CLI — do not serialize each other.

Like the tracer, the ledger follows a null-object pattern: the
process-global default is a :class:`NullLedger` whose ``record`` is a
no-op, so instrumented paths cost one attribute check when disabled.
Enable archiving for a region with::

    from repro.obs.ledger import RunLedger, use_ledger

    with use_ledger(RunLedger("runs.db")):
        run_sweep(config)          # every point lands in runs.db

On top of the archive sit the regression helpers:
:func:`baseline_from_ledger` folds the latest runs into a per-group
baseline (stored in ``BENCH_*.json``), and :func:`compare_to_baseline`
re-measures the ledger against such a baseline — the ``repro-exp ledger
regress`` CI gate. :func:`compare_load_to_baseline` gates archived load
runs through the same core, under its own gate table. Simulated
makespans and costs are deterministic given the seeds, so baselines
transfer across machines.
"""

from __future__ import annotations

import json
import math
import sqlite3
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import (
    Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple,
)

from .events import RUN_RECORDED, EventBus

__all__ = [
    "RunRow",
    "LoadRunRow",
    "RunLedger",
    "NullLedger",
    "get_ledger",
    "set_ledger",
    "use_ledger",
    "baseline_from_ledger",
    "extract_baseline",
    "compare_to_baseline",
    "load_baseline_from_ledger",
    "extract_load_baseline",
    "compare_load_to_baseline",
    "welch_slowdown",
    "GroupDelta",
    "RegressionReport",
]

#: Schema history (tracked via SQLite ``PRAGMA user_version``):
#:
#: 1. initial layout
#: 2. fault-injection fields: ``outcome`` (success / failed /
#:    budget_exhausted / plain ``ok`` for non-fault runs) and ``n_faults``
#:    (injected faults that fired).
#: 3. the ``load_runs`` table: one row per archived load-generator
#:    replay (arrival config fingerprint, achieved vs offered rate,
#:    serialized per-stage quantile sketches, typed refusal counts,
#:    cost totals) — the load observatory's archive.
#:
#: Older databases are migrated in place on open (``ALTER TABLE`` adds the
#: new columns with their defaults); newer ones are rejected.
SCHEMA_VERSION = 3

_COLUMNS = (
    "recorded_at", "source", "fingerprint", "workflow", "family", "n_tasks",
    "algorithm", "budget", "sigma_ratio", "planned_makespan", "planned_cost",
    "within_budget_plan", "sim_makespan", "sim_cost", "success_rate",
    "n_reps", "n_vms", "sched_seconds", "elapsed_s", "trace_id", "version",
    "outcome", "n_faults", "extra",
)

_CREATE = f"""
CREATE TABLE IF NOT EXISTS runs (
    run_id             INTEGER PRIMARY KEY AUTOINCREMENT,
    recorded_at        REAL NOT NULL,
    source             TEXT NOT NULL,
    fingerprint        TEXT NOT NULL DEFAULT '',
    workflow           TEXT NOT NULL DEFAULT '',
    family             TEXT NOT NULL DEFAULT '',
    n_tasks            INTEGER NOT NULL DEFAULT 0,
    algorithm          TEXT NOT NULL DEFAULT '',
    budget             REAL NOT NULL DEFAULT 0.0,
    sigma_ratio        REAL NOT NULL DEFAULT 0.0,
    planned_makespan   REAL NOT NULL DEFAULT 0.0,
    planned_cost       REAL NOT NULL DEFAULT 0.0,
    within_budget_plan INTEGER NOT NULL DEFAULT 1,
    sim_makespan       REAL,
    sim_cost           REAL,
    success_rate       REAL,
    n_reps             INTEGER NOT NULL DEFAULT 0,
    n_vms              INTEGER NOT NULL DEFAULT 0,
    sched_seconds      REAL NOT NULL DEFAULT 0.0,
    elapsed_s          REAL NOT NULL DEFAULT 0.0,
    trace_id           TEXT NOT NULL DEFAULT '',
    version            TEXT NOT NULL DEFAULT '',
    outcome            TEXT NOT NULL DEFAULT 'ok',
    n_faults           INTEGER NOT NULL DEFAULT 0,
    extra              TEXT NOT NULL DEFAULT '{{}}'
);
CREATE INDEX IF NOT EXISTS idx_runs_algorithm   ON runs (algorithm);
CREATE INDEX IF NOT EXISTS idx_runs_workflow    ON runs (workflow);
CREATE INDEX IF NOT EXISTS idx_runs_fingerprint ON runs (fingerprint);
CREATE INDEX IF NOT EXISTS idx_runs_recorded_at ON runs (recorded_at);
"""

_LOAD_COLUMNS = (
    "recorded_at", "label", "config_fingerprint", "sequence_fingerprint",
    "process", "target", "executor", "n_requests", "n_ok", "n_cached",
    "n_rejected", "n_errors", "refusals", "offered_rps", "achieved_rps",
    "duration_s", "latency_mean_s", "latency_std_s", "p50_s", "p95_s",
    "p99_s", "cost_total", "stages", "sketches", "version", "extra",
)

_CREATE_LOAD = """
CREATE TABLE IF NOT EXISTS load_runs (
    load_id              INTEGER PRIMARY KEY AUTOINCREMENT,
    recorded_at          REAL NOT NULL,
    label                TEXT NOT NULL DEFAULT '',
    config_fingerprint   TEXT NOT NULL DEFAULT '',
    sequence_fingerprint TEXT NOT NULL DEFAULT '',
    process              TEXT NOT NULL DEFAULT 'poisson',
    target               TEXT NOT NULL DEFAULT 'inproc',
    executor             TEXT NOT NULL DEFAULT '',
    n_requests           INTEGER NOT NULL DEFAULT 0,
    n_ok                 INTEGER NOT NULL DEFAULT 0,
    n_cached             INTEGER NOT NULL DEFAULT 0,
    n_rejected           INTEGER NOT NULL DEFAULT 0,
    n_errors             INTEGER NOT NULL DEFAULT 0,
    refusals             TEXT NOT NULL DEFAULT '{}',
    offered_rps          REAL NOT NULL DEFAULT 0.0,
    achieved_rps         REAL NOT NULL DEFAULT 0.0,
    duration_s           REAL NOT NULL DEFAULT 0.0,
    latency_mean_s       REAL NOT NULL DEFAULT 0.0,
    latency_std_s        REAL NOT NULL DEFAULT 0.0,
    p50_s                REAL NOT NULL DEFAULT 0.0,
    p95_s                REAL NOT NULL DEFAULT 0.0,
    p99_s                REAL NOT NULL DEFAULT 0.0,
    cost_total           REAL NOT NULL DEFAULT 0.0,
    stages               TEXT NOT NULL DEFAULT '{}',
    sketches             TEXT NOT NULL DEFAULT '{}',
    version              TEXT NOT NULL DEFAULT '',
    extra                TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_load_runs_label
    ON load_runs (label);
CREATE INDEX IF NOT EXISTS idx_load_runs_config
    ON load_runs (config_fingerprint);
CREATE INDEX IF NOT EXISTS idx_load_runs_recorded_at
    ON load_runs (recorded_at);
"""


def _package_version() -> str:
    try:
        from repro import __version__

        return f"repro-{__version__}/py{sys.version_info[0]}.{sys.version_info[1]}"
    except Exception:  # pragma: no cover - import-order edge
        return f"py{sys.version_info[0]}.{sys.version_info[1]}"


@dataclass
class RunRow:
    """One archived run (see the module docstring for field semantics).

    ``sim_*`` fields are means over the run's Monte Carlo repetitions and
    stay ``None`` when the run was planned but never replayed. ``extra``
    carries free-form JSON diagnostics (e.g. the sweep runner's
    convergence series).
    """

    run_id: int = 0
    recorded_at: float = 0.0
    source: str = "service"
    fingerprint: str = ""
    workflow: str = ""
    family: str = ""
    n_tasks: int = 0
    algorithm: str = ""
    budget: float = 0.0
    sigma_ratio: float = 0.0
    planned_makespan: float = 0.0
    planned_cost: float = 0.0
    within_budget_plan: bool = True
    sim_makespan: Optional[float] = None
    sim_cost: Optional[float] = None
    success_rate: Optional[float] = None
    n_reps: int = 0
    n_vms: int = 0
    sched_seconds: float = 0.0
    elapsed_s: float = 0.0
    trace_id: str = ""
    version: str = ""
    outcome: str = "ok"
    n_faults: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    def group_key(self) -> str:
        """Baseline grouping identity: ``family/n_tasks/algorithm``."""
        return f"{self.family or self.workflow}/{self.n_tasks}/{self.algorithm}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (one line of ``repro-exp ledger show``)."""
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRow":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        names = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown run row fields: {sorted(unknown)}")
        return cls(**{k: data[k] for k in data})


@dataclass
class LoadRunRow:
    """One archived load-generator replay (see ``repro.loadgen``).

    ``stages`` maps stage name to ``{count, p50, p95, p99}`` percentile
    summaries; ``sketches`` holds the full serialized
    :class:`~repro.obs.sketch.QuantileSketch` per stage (plus the
    end-to-end ``request`` sketch), so archived runs merge and re-query
    exactly. ``latency_mean_s`` / ``latency_std_s`` are *exact* sample
    statistics over every completed request — the inputs to the Welch
    tail-latency gate, same machinery as the makespan gate.
    """

    load_id: int = 0
    recorded_at: float = 0.0
    label: str = ""
    config_fingerprint: str = ""
    sequence_fingerprint: str = ""
    process: str = "poisson"
    target: str = "inproc"
    executor: str = ""
    n_requests: int = 0
    n_ok: int = 0
    n_cached: int = 0
    n_rejected: int = 0
    n_errors: int = 0
    refusals: Dict[str, int] = field(default_factory=dict)
    offered_rps: float = 0.0
    achieved_rps: float = 0.0
    duration_s: float = 0.0
    latency_mean_s: float = 0.0
    latency_std_s: float = 0.0
    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0
    cost_total: float = 0.0
    stages: Dict[str, Dict[str, float]] = field(default_factory=dict)
    sketches: Dict[str, Any] = field(default_factory=dict)
    version: str = ""
    extra: Dict[str, Any] = field(default_factory=dict)

    def group_key(self) -> str:
        """Baseline grouping identity: the run's label (or config)."""
        return self.label or self.config_fingerprint

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LoadRunRow":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        names = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown load run fields: {sorted(unknown)}")
        return cls(**{k: data[k] for k in data})


class RunLedger:
    """SQLite-backed run archive (thread-safe; see module docstring).

    Parameters
    ----------
    path:
        Database file; ``":memory:"`` keeps the archive process-local
        (handy in tests). File databases are opened in WAL journal mode so
        independent writer *processes* append concurrently; within one
        process a single shared connection is serialized by a lock.
    bus:
        Optional :class:`~repro.obs.events.EventBus`; when set, every
        committed row is announced as a ``run.recorded`` event.
    """

    enabled = True

    def __init__(self, path: str = ":memory:", *, bus: Optional[EventBus] = None) -> None:
        self.path = path
        self.bus = bus
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            path, check_same_thread=False, timeout=30.0
        )
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            if path != ":memory:":
                # WAL lets a second process (CI sweep + service) append
                # while we read; busy_timeout rides out write bursts.
                self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA busy_timeout=30000")
            current = self._conn.execute("PRAGMA user_version").fetchone()[0]
            if current > SCHEMA_VERSION:
                raise ValueError(
                    f"ledger {path!r} has schema version {current}, "
                    f"this build expects <= {SCHEMA_VERSION}"
                )
            # IF NOT EXISTS: creates the current layout on a fresh file,
            # no-op on an existing one (which _migrate then upgrades).
            self._conn.executescript(_CREATE)
            self._conn.executescript(_CREATE_LOAD)
            if 0 < current < SCHEMA_VERSION:
                self._migrate(current)
            if current != SCHEMA_VERSION:
                self._conn.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
            self._conn.commit()

    def _migrate(self, current: int) -> None:
        """Upgrade an existing database from ``current`` to the latest schema.

        Each step is additive (``ALTER TABLE ... ADD COLUMN`` with a
        default), so v1 rows read back with the documented defaults and
        older readers are only stopped by the ``user_version`` bump.
        """
        if current <= 1:  # v1 -> v2: fault-injection outcome fields
            self._conn.execute(
                "ALTER TABLE runs ADD COLUMN outcome TEXT NOT NULL DEFAULT 'ok'"
            )
            self._conn.execute(
                "ALTER TABLE runs ADD COLUMN n_faults INTEGER NOT NULL DEFAULT 0"
            )
        # v2 -> v3 adds the load_runs table, which the _CREATE_LOAD
        # script above already created (IF NOT EXISTS) — nothing to
        # alter; the user_version bump alone stops older readers.

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def record(self, row: RunRow) -> int:
        """Commit one row; returns its ``run_id`` (also set on ``row``)."""
        if not row.recorded_at:
            row.recorded_at = time.time()
        if not row.version:
            row.version = _package_version()
        encoded = {
            "within_budget_plan": int(row.within_budget_plan),
            "extra": json.dumps(row.extra, sort_keys=True),
        }
        values = [encoded.get(col, getattr(row, col)) for col in _COLUMNS]
        with self._lock:
            cursor = self._conn.execute(
                f"INSERT INTO runs ({', '.join(_COLUMNS)}) "
                f"VALUES ({', '.join('?' * len(_COLUMNS))})",
                values,
            )
            self._conn.commit()
            row.run_id = int(cursor.lastrowid or 0)
        if self.bus is not None:
            self.bus.publish(
                RUN_RECORDED,
                run_id=row.run_id,
                source=row.source,
                algorithm=row.algorithm,
                workflow=row.workflow or row.family,
                fingerprint=row.fingerprint,
                trace_id=row.trace_id,
                sim_makespan=row.sim_makespan,
                sim_cost=row.sim_cost,
            )
        return row.run_id

    def record_load_run(self, row: LoadRunRow) -> int:
        """Commit one load-run row; returns its ``load_id``."""
        if not row.recorded_at:
            row.recorded_at = time.time()
        if not row.version:
            row.version = _package_version()
        encoded = {
            "refusals": json.dumps(row.refusals, sort_keys=True),
            "stages": json.dumps(row.stages, sort_keys=True),
            "sketches": json.dumps(row.sketches, sort_keys=True),
            "extra": json.dumps(row.extra, sort_keys=True),
        }
        values = [
            encoded.get(col, getattr(row, col)) for col in _LOAD_COLUMNS
        ]
        with self._lock:
            cursor = self._conn.execute(
                f"INSERT INTO load_runs ({', '.join(_LOAD_COLUMNS)}) "
                f"VALUES ({', '.join('?' * len(_LOAD_COLUMNS))})",
                values,
            )
            self._conn.commit()
            row.load_id = int(cursor.lastrowid or 0)
        if self.bus is not None:
            self.bus.publish(
                "load_run.recorded",
                load_id=row.load_id,
                label=row.label,
                config_fingerprint=row.config_fingerprint,
                n_requests=row.n_requests,
                achieved_rps=row.achieved_rps,
                p99_s=row.p99_s,
            )
        return row.load_id

    def prune(
        self,
        *,
        max_rows: Optional[int] = None,
        max_age_days: Optional[float] = None,
    ) -> int:
        """Delete old rows; returns how many were removed.

        ``max_age_days`` drops rows older than that many days;
        ``max_rows`` then keeps only the newest N. Both constraints may be
        combined; with neither, nothing is deleted. Both the ``runs`` table
        and the v3 ``load_runs`` table are pruned (``max_rows`` bounds each
        table independently). Long-lived service deployments call this
        periodically so ``runs.db`` stays bounded.
        """
        if max_rows is not None and max_rows < 0:
            raise ValueError(f"max_rows must be >= 0, got {max_rows}")
        if max_age_days is not None and max_age_days < 0:
            raise ValueError(f"max_age_days must be >= 0, got {max_age_days}")
        deleted = 0
        with self._lock:
            if max_age_days is not None:
                cutoff = time.time() - max_age_days * 86400.0
                for table in ("runs", "load_runs"):
                    cursor = self._conn.execute(
                        f"DELETE FROM {table} WHERE recorded_at < ?",
                        (cutoff,),
                    )
                    deleted += cursor.rowcount
            if max_rows is not None:
                for table, key in (("runs", "run_id"),
                                   ("load_runs", "load_id")):
                    cursor = self._conn.execute(
                        f"DELETE FROM {table} WHERE {key} NOT IN "
                        f"(SELECT {key} FROM {table} "
                        f"ORDER BY {key} DESC LIMIT ?)",
                        (int(max_rows),),
                    )
                    deleted += cursor.rowcount
            self._conn.commit()
        return deleted

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def run(self, run_id: int) -> RunRow:
        """The row with ``run_id``; raises ``KeyError`` when absent."""
        with self._lock:
            found = self._conn.execute(
                "SELECT * FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        if found is None:
            raise KeyError(f"no run {run_id} in ledger {self.path!r}")
        return self._decode(found)

    def runs(
        self,
        *,
        algorithm: Optional[str] = None,
        workflow: Optional[str] = None,
        fingerprint: Optional[str] = None,
        source: Optional[str] = None,
        since: Optional[float] = None,
        limit: int = 100,
    ) -> List[RunRow]:
        """Newest-first query over the archive.

        ``workflow`` matches either the workflow name or the family
        column; ``since`` is an epoch-seconds lower bound; ``limit <= 0``
        means unbounded.
        """
        clauses, params = ["1=1"], []
        if algorithm is not None:
            clauses.append("algorithm = ?")
            params.append(algorithm)
        if workflow is not None:
            clauses.append("(workflow = ? OR family = ?)")
            params.extend([workflow, workflow])
        if fingerprint is not None:
            clauses.append("fingerprint = ?")
            params.append(fingerprint)
        if source is not None:
            clauses.append("source = ?")
            params.append(source)
        if since is not None:
            clauses.append("recorded_at >= ?")
            params.append(since)
        sql = (
            f"SELECT * FROM runs WHERE {' AND '.join(clauses)} "
            "ORDER BY run_id DESC"
        )
        if limit > 0:
            sql += f" LIMIT {int(limit)}"
        with self._lock:
            found = self._conn.execute(sql, params).fetchall()
        return [self._decode(r) for r in found]

    def count(self) -> int:
        """Total archived runs."""
        with self._lock:
            return int(
                self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
            )

    def load_run(self, load_id: int) -> LoadRunRow:
        """The load run with ``load_id``; raises ``KeyError`` when absent."""
        with self._lock:
            found = self._conn.execute(
                "SELECT * FROM load_runs WHERE load_id = ?", (load_id,)
            ).fetchone()
        if found is None:
            raise KeyError(f"no load run {load_id} in ledger {self.path!r}")
        return self._decode_load(found)

    def load_runs(
        self,
        *,
        label: Optional[str] = None,
        config_fingerprint: Optional[str] = None,
        since: Optional[float] = None,
        limit: int = 100,
    ) -> List[LoadRunRow]:
        """Newest-first query over archived load runs (``limit <= 0`` = all)."""
        clauses, params = ["1=1"], []
        if label is not None:
            clauses.append("label = ?")
            params.append(label)
        if config_fingerprint is not None:
            clauses.append("config_fingerprint = ?")
            params.append(config_fingerprint)
        if since is not None:
            clauses.append("recorded_at >= ?")
            params.append(since)
        sql = (
            f"SELECT * FROM load_runs WHERE {' AND '.join(clauses)} "
            "ORDER BY load_id DESC"
        )
        if limit > 0:
            sql += f" LIMIT {int(limit)}"
        with self._lock:
            found = self._conn.execute(sql, params).fetchall()
        return [self._decode_load(r) for r in found]

    def load_count(self) -> int:
        """Total archived load runs."""
        with self._lock:
            return int(
                self._conn.execute(
                    "SELECT COUNT(*) FROM load_runs"
                ).fetchone()[0]
            )

    def writable(self) -> bool:
        """Whether the database currently accepts writes (healthz probe).

        Takes and immediately rolls back a write lock — cheap, and
        honest about read-only filesystems or a sibling process holding
        the database exclusively.
        """
        try:
            with self._lock:
                self._conn.execute("BEGIN IMMEDIATE")
                self._conn.execute("ROLLBACK")
            return True
        except sqlite3.Error:
            return False

    def group_stats(
        self, *, latest_per_group: int = 0
    ) -> Dict[str, Dict[str, float]]:
        """Per ``family/n_tasks/algorithm`` group means over the archive.

        ``latest_per_group`` keeps only each group's newest N rows (0 =
        all rows). Only rows with simulated results participate in the
        ``makespan``/``cost``/``success_rate`` means; the planned numbers
        average over every row.
        """
        grouped = _latest_per_group(self.runs(limit=0), latest_per_group)
        out: Dict[str, Dict[str, float]] = {}
        for key, bucket in sorted(grouped.items()):
            stats: Dict[str, float] = {
                "n_runs": float(len(bucket)),
                "planned_makespan": _mean(
                    [r.planned_makespan for r in bucket]
                ),
                "planned_cost": _mean([r.planned_cost for r in bucket]),
            }
            simulated = [r for r in bucket if r.sim_makespan is not None]
            if simulated:
                stats["makespan"] = _mean([r.sim_makespan for r in simulated])
                stats["cost"] = _mean(
                    [r.sim_cost for r in simulated if r.sim_cost is not None]
                )
                rates = [
                    r.success_rate
                    for r in simulated
                    if r.success_rate is not None
                ]
                if rates:  # no rate data at all must not read as 0% success
                    stats["success_rate"] = _mean(rates)
                pooled = _pool_sample_stats(
                    r.extra.get("makespan_stats") for r in simulated
                )
                if pooled is not None:
                    # Per-replication sample stats (written by sweeps and
                    # the service under extra["makespan_stats"]), pooled
                    # across rows — the inputs to the Welch gate.
                    stats["makespan_sample_mean"] = pooled[0]
                    stats["makespan_std"] = pooled[1]
                    stats["n_samples"] = float(pooled[2])
            out[key] = stats
        return out

    def _decode(self, found: sqlite3.Row) -> RunRow:
        data = dict(found)
        data["within_budget_plan"] = bool(data["within_budget_plan"])
        data["extra"] = json.loads(data["extra"]) if data["extra"] else {}
        return RunRow(**data)

    def _decode_load(self, found: sqlite3.Row) -> LoadRunRow:
        data = dict(found)
        for key in ("refusals", "stages", "sketches", "extra"):
            data[key] = json.loads(data[key]) if data[key] else {}
        return LoadRunRow(**data)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying connection; idempotent."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunLedger(path={self.path!r})"


class NullLedger:
    """Disabled ledger: the process-global default, every call a no-op."""

    enabled = False
    path = None
    bus = None

    def record(self, row: RunRow) -> int:
        """Discard the row."""
        return 0

    def record_load_run(self, row: LoadRunRow) -> int:
        """Discard the row."""
        return 0

    def prune(self, **kwargs: Any) -> int:
        """Nothing to prune."""
        return 0

    def run(self, run_id: int) -> RunRow:
        """Always absent."""
        raise KeyError(f"no run {run_id} (ledger disabled)")

    def runs(self, **query: Any) -> List[RunRow]:
        """Empty archive."""
        return []

    def load_run(self, load_id: int) -> LoadRunRow:
        """Always absent."""
        raise KeyError(f"no load run {load_id} (ledger disabled)")

    def load_runs(self, **query: Any) -> List[LoadRunRow]:
        """Empty archive."""
        return []

    def count(self) -> int:
        """Empty archive."""
        return 0

    def load_count(self) -> int:
        """Empty archive."""
        return 0

    def writable(self) -> bool:
        """Nothing to write to — trivially healthy."""
        return True

    def group_stats(self, **kwargs: Any) -> Dict[str, Dict[str, float]]:
        """Empty archive."""
        return {}

    def close(self) -> None:
        """Nothing to close."""


_NULL_LEDGER = NullLedger()
_current: Any = _NULL_LEDGER
_swap_lock = threading.Lock()


def get_ledger() -> Any:
    """The process-global ledger (a :class:`NullLedger` unless installed)."""
    return _current


def set_ledger(ledger: Optional[Any]) -> None:
    """Install ``ledger`` globally; ``None`` restores the null ledger."""
    global _current
    with _swap_lock:
        _current = ledger if ledger is not None else _NULL_LEDGER


class _UseLedger:
    __slots__ = ("_ledger", "_previous")

    def __init__(self, ledger: Any) -> None:
        self._ledger = ledger
        self._previous: Any = None

    def __enter__(self) -> Any:
        self._previous = get_ledger()
        set_ledger(self._ledger)
        return self._ledger

    def __exit__(self, *exc_info: Any) -> None:
        set_ledger(self._previous)


def use_ledger(ledger: Any) -> _UseLedger:
    """Scope-install a ledger: ``with use_ledger(RunLedger(path)): ...``."""
    return _UseLedger(ledger)


# ----------------------------------------------------------------------
# regression gate
# ----------------------------------------------------------------------
def _mean(values: Sequence[Optional[float]]) -> float:
    cleaned = [v for v in values if v is not None]
    return sum(cleaned) / len(cleaned) if cleaned else 0.0


def _latest_per_group(rows: Sequence[Any], latest: int) -> Dict[str, List[Any]]:
    """Bucket newest-first ``rows`` by ``group_key()``, keeping each
    group's newest ``latest`` rows (``latest <= 0`` keeps them all)."""
    grouped: Dict[str, List[Any]] = {}
    for row in rows:
        bucket = grouped.setdefault(row.group_key(), [])
        if latest <= 0 or len(bucket) < latest:
            bucket.append(row)
    return grouped


def _pool_sample_stats(
    per_row: Any,
) -> Optional[Tuple[float, float, int]]:
    """Pool per-row ``{mean, std, n}`` sample stats into ``(mean, std, N)``.

    Rows without stats (old databases, single-shot runs) are skipped; the
    pooled variance recombines each row's sum/sum-of-squares exactly, so
    pooling K rows of n reps equals one row of K·n reps.
    """
    parts = [
        s for s in per_row
        if isinstance(s, Mapping) and int(s.get("n", 0) or 0) >= 1
    ]
    if not parts:
        return None
    total_n = sum(int(s["n"]) for s in parts)
    mean = sum(float(s["mean"]) * int(s["n"]) for s in parts) / total_n
    if total_n < 2:
        return mean, 0.0, total_n
    # Σx² per row from (n-1)·var + n·mean²; then var of the union.
    sum_sq = sum(
        (int(s["n"]) - 1) * float(s.get("std", 0.0) or 0.0) ** 2
        + int(s["n"]) * float(s["mean"]) ** 2
        for s in parts
    )
    var = max((sum_sq - total_n * mean * mean) / (total_n - 1), 0.0)
    return mean, math.sqrt(var), total_n


def _t_quantile(p: float, df: float) -> float:
    """Upper ``p`` quantile of Student's t with ``df`` degrees of freedom.

    Cornish–Fisher expansion around the normal quantile — accurate to a
    few 1e-3 for df ≥ 3, plenty for a CI gate, and stdlib-only (no scipy).
    """
    z = statistics.NormalDist().inv_cdf(p)
    if df <= 0 or math.isinf(df):
        return z
    g1 = (z ** 3 + z) / 4.0
    g2 = (5 * z ** 5 + 16 * z ** 3 + 3 * z) / 96.0
    return z + g1 / df + g2 / df ** 2


def welch_slowdown(
    baseline: Tuple[float, float, int],
    current: Tuple[float, float, int],
    *,
    confidence: float = 0.95,
) -> Tuple[bool, float, float]:
    """One-sided Welch test for "current is slower than baseline".

    ``baseline``/``current`` are ``(mean, std, n)`` triples. Returns
    ``(significant, t_stat, t_crit)``: significant is True only when the
    current mean exceeds the baseline mean by more than sampling noise
    explains at the given one-sided confidence level. Degenerate inputs
    (n < 2 on either side, or zero variance on both) never test as
    significant — callers should fall back to a fixed threshold.
    """
    mb, sb, nb = baseline
    mc, sc, nc = current
    if nb < 2 or nc < 2:
        return False, 0.0, math.inf
    vb, vc = sb * sb / nb, sc * sc / nc
    se = math.sqrt(vb + vc)
    if se <= 0.0:  # both sides exactly constant: no noise model to test
        return False, 0.0, math.inf
    t_stat = (mc - mb) / se
    # Welch–Satterthwaite degrees of freedom.
    df = (vb + vc) ** 2 / (vb ** 2 / (nb - 1) + vc ** 2 / (nc - 1))
    t_crit = _t_quantile(confidence, df)
    return t_stat > t_crit, t_stat, t_crit


def _pool_load_rows(rows: Sequence[LoadRunRow]) -> Dict[str, float]:
    """Fold one group's load rows into baseline stats.

    Rates and percentiles are plain means over the rows; latency sample
    stats pool exactly via :func:`_pool_sample_stats` (each row carries
    the exact mean/std over its completed requests).
    """
    stats: Dict[str, float] = {
        "n_runs": float(len(rows)),
        "offered_rps": _mean([r.offered_rps for r in rows]),
        "achieved_rps": _mean([r.achieved_rps for r in rows]),
        "p50_s": _mean([r.p50_s for r in rows]),
        "p95_s": _mean([r.p95_s for r in rows]),
        "p99_s": _mean([r.p99_s for r in rows]),
        "cost_total": _mean([r.cost_total for r in rows]),
    }
    pooled = _pool_sample_stats(
        {"mean": r.latency_mean_s, "std": r.latency_std_s,
         "n": r.n_ok + r.n_cached}
        for r in rows
    )
    if pooled is not None:
        stats["latency_mean_s"] = pooled[0]
        stats["latency_std_s"] = pooled[1]
        stats["n_samples"] = float(pooled[2])
    return stats


def baseline_from_ledger(
    ledger: RunLedger, *, latest_per_group: int = 0
) -> Dict[str, Dict[str, float]]:
    """Fold the ledger into a baseline payload for ``BENCH_*.json``.

    The result maps ``family/n_tasks/algorithm`` group keys to their mean
    simulated makespan/cost and success rate — store it under a
    ``"ledger_baseline"`` key.
    """
    return {
        key: stats
        for key, stats in ledger.group_stats(
            latest_per_group=latest_per_group
        ).items()
        if "makespan" in stats
    }


def load_baseline_from_ledger(
    ledger: RunLedger, *, latest_per_group: int = 0
) -> Dict[str, Dict[str, float]]:
    """Fold archived load runs into a ``"load_baseline"`` payload.

    Groups by each row's label (or config fingerprint when unlabeled);
    ``latest_per_group`` keeps only each group's newest N rows.
    """
    grouped = _latest_per_group(ledger.load_runs(limit=0), latest_per_group)
    return {key: _pool_load_rows(rows) for key, rows in sorted(grouped.items())}


def _extract(
    document: Mapping[str, Any], key: str, required: str, *, bare: bool
) -> Dict[str, Dict[str, float]]:
    """The ``key`` groups of a ``BENCH_*.json`` document.

    ``bare`` also accepts the groups mapping itself. Raises ``ValueError``
    when there are no groups or one lacks the ``required`` stats key.
    """
    payload = document.get(key, document if bare else None)
    if not isinstance(payload, Mapping) or not payload:
        raise ValueError(f"baseline document has no {key!r} groups")
    for group, stats in payload.items():
        if not isinstance(stats, Mapping) or required not in stats:
            raise ValueError(
                f"baseline group {group!r} lacks a {required!r} entry — "
                f"not a {key}"
            )
    return {k: dict(v) for k, v in payload.items()}


def extract_baseline(document: Mapping[str, Any]) -> Dict[str, Dict[str, float]]:
    """The ledger baseline inside a ``BENCH_*.json`` document.

    Accepts either a document with a ``"ledger_baseline"`` key or a bare
    group → stats mapping. Raises ``ValueError`` when neither shape fits.
    """
    return _extract(document, "ledger_baseline", "makespan", bare=True)


def extract_load_baseline(
    document: Mapping[str, Any]
) -> Dict[str, Dict[str, float]]:
    """The ``"load_baseline"`` groups inside a ``BENCH_*.json`` document.

    Raises ``ValueError`` when the document has none (callers treat that
    as "no load gate configured", not an error).
    """
    return _extract(document, "load_baseline", "achieved_rps", bare=False)


@dataclass(frozen=True)
class _Check:
    """One row of a gate table: when a group's change in ``key`` regresses."""

    key: str
    #: ``+1`` when growth is worse (makespan, cost, p99), ``-1`` when a
    #: drop is (success rate, throughput).
    worse: int
    #: Fractional change against the baseline, else absolute points.
    relative: bool
    threshold: float
    #: Value read when a group's stats lack ``key``.
    default: float

    def regressed(self, change: float) -> bool:
        """Whether ``change`` is worse than the threshold allows."""
        return self.worse * change > self.threshold

    def describe(self) -> str:
        """The check as the report's summary line states it."""
        sign = "+" if self.worse > 0 else "-"
        unit = "%" if self.relative else "pts"
        return f"{self.key} {sign}{100 * self.threshold:.0f}{unit}"

    def cell(self, delta: "GroupDelta") -> str:
        """The report's value and change columns for ``delta``."""
        change = 100 * delta.change(self.key)
        shown = f"{change:+.2f}%" if self.relative else f"{change:+.1f}pts"
        return f" {delta.current[self.key]:>12.4f} {shown:>9s}"


@dataclass(frozen=True)
class _Gate:
    """A baseline kind's gate table.

    ``checks[0]`` names the stats key a group must carry to be compared.
    With ``stat=True`` a one-sided Welch test runs on the sample stats
    (``n_samples``, the first present ``welch_mean`` key, ``welch_std``).
    A conclusive test replaces the ``welch_replaces`` check, or adds a
    check on top of all of them when that is ``None``.
    """

    noun: str
    checks: Tuple[_Check, ...]
    welch_mean: Tuple[str, ...]
    welch_std: str
    welch_replaces: Optional[str]

    def sample_triple(
        self, stats: Mapping[str, float]
    ) -> Optional[Tuple[float, float, int]]:
        """``(mean, std, n)`` for the Welch test, if ``stats`` carry them."""
        n = int(stats.get("n_samples", 0) or 0)
        if n < 2 or self.welch_std not in stats:
            return None
        mean = next((stats[k] for k in self.welch_mean if k in stats), 0.0)
        return float(mean), float(stats[self.welch_std]), n


@dataclass(frozen=True)
class GroupDelta:
    """One baseline group re-measured against the current ledger.

    ``baseline`` and ``current`` hold the values of the gate's checked
    stats keys; ``absolute`` names the keys whose change is measured in
    absolute points rather than as a fraction.
    """

    group: str
    baseline: Dict[str, float]
    current: Dict[str, float]
    n_runs: int
    absolute: FrozenSet[str] = frozenset()
    #: Welch-test annotations; ``stat_tested`` stays False when either
    #: side lacked usable sample stats and the fixed threshold judged.
    stat_tested: bool = False
    t_stat: float = 0.0
    t_crit: float = 0.0

    def change(self, key: str) -> float:
        """Change of ``key`` from baseline to current.

        Absolute keys give the difference (-0.1 = 10 points fewer
        successes); the others the fractional change (+0.2 = 20% more),
        0 when the baseline is not positive.
        """
        base, cur = self.baseline[key], self.current[key]
        if key in self.absolute:
            return cur - base
        if base <= 0.0:
            return 0.0
        return cur / base - 1.0


@dataclass
class RegressionReport:
    """Outcome of :func:`compare_to_baseline` or
    :func:`compare_load_to_baseline` (drives the CI exit code)."""

    gate: _Gate
    stat: bool = False
    confidence: float = 0.95
    deltas: List[GroupDelta] = field(default_factory=list)
    regressions: List[GroupDelta] = field(default_factory=list)
    missing_groups: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no group regressed and at least one was compared."""
        return not self.regressions and bool(self.deltas)

    def render(self) -> str:
        """Human-readable table for the CLI, two columns per check."""
        checks = self.gate.checks
        lines = [
            f"{self.gate.noun:<40s}"
            + "".join(f" {c.key:>12s} {'Δ':>9s}" for c in checks)
            + "  verdict"
        ]
        for d in self.deltas:
            verdict = "REGRESSED" if d in self.regressions else "ok"
            if d.stat_tested:
                verdict += f" (t={d.t_stat:+.2f} vs {d.t_crit:.2f})"
            cells = "".join(c.cell(d) for c in checks)
            lines.append(f"{d.group:<40s}{cells}  {verdict}")
        blank = f" {'—':>12s} {'—':>9s}" * len(checks)
        for group in self.missing_groups:
            lines.append(f"{group:<40s}{blank}  missing from ledger")
        gates = [c.describe() for c in checks]
        if self.stat:
            welch = (f"Welch test on {self.gate.welch_mean[0]} at "
                     f"{100 * self.confidence:.0f}% one-sided confidence")
            if self.gate.welch_replaces is None:
                gates.append(welch)
            else:
                i = [c.key for c in checks].index(self.gate.welch_replaces)
                gates[i] = f"{welch} (fallback {gates[i]})"
        lines.append(
            f"{len(self.deltas)} {self.gate.noun}(s) compared, "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.missing_groups)} missing ({', '.join(gates)})"
        )
        return "\n".join(lines)


def _compare(
    baseline: Mapping[str, Mapping[str, float]],
    gate: _Gate,
    stats_at_depth: Callable[[int], Mapping[str, Mapping[str, float]]],
    *,
    stat: bool,
    confidence: float,
) -> RegressionReport:
    """Judge every ``baseline`` group under ``gate``.

    ``stats_at_depth(n)`` folds each group's newest ``n`` ledger rows
    (0 = all) into current stats; each group is re-measured at the depth
    its baseline averaged (``n_runs``). Groups absent from the ledger are
    reported as missing, not failed.
    """
    if not 0.5 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0.5, 1), got {confidence}")
    report = RegressionReport(gate, stat=stat, confidence=confidence)
    absolute = frozenset(c.key for c in gate.checks if not c.relative)
    stats_by_depth: Dict[int, Mapping[str, Mapping[str, float]]] = {}
    for group, base in sorted(baseline.items()):
        n_runs = int(base.get("n_runs", 0))
        if n_runs not in stats_by_depth:
            stats_by_depth[n_runs] = stats_at_depth(n_runs)
        current = stats_by_depth[n_runs].get(group)
        if current is None or gate.checks[0].key not in current:
            report.missing_groups.append(group)
            continue
        significant, t_stat, t_crit = False, 0.0, math.inf
        if stat:
            base_triple = gate.sample_triple(base)
            cur_triple = gate.sample_triple(current)
            if base_triple is not None and cur_triple is not None:
                significant, t_stat, t_crit = welch_slowdown(
                    base_triple, cur_triple, confidence=confidence
                )
        tested = math.isfinite(t_crit)
        delta = GroupDelta(
            group=group,
            baseline={c.key: float(base.get(c.key, c.default))
                      for c in gate.checks},
            current={c.key: float(current.get(c.key, c.default))
                     for c in gate.checks},
            n_runs=int(current.get("n_runs", 0)),
            absolute=absolute,
            stat_tested=tested,
            t_stat=t_stat,
            t_crit=t_crit if tested else 0.0,
        )
        report.deltas.append(delta)
        if significant or any(
            c.regressed(delta.change(c.key))
            for c in gate.checks
            if not (tested and c.key == gate.welch_replaces)
        ):
            report.regressions.append(delta)
    return report


def compare_to_baseline(
    ledger: RunLedger,
    baseline: Mapping[str, Mapping[str, float]],
    *,
    makespan_threshold: float = 0.10,
    cost_threshold: float = 0.10,
    success_threshold: float = 0.05,
    stat: bool = False,
    confidence: float = 0.95,
) -> RegressionReport:
    """Re-measure the ledger's latest runs against ``baseline`` groups.

    For every baseline group, the current value is the mean over the
    group's newest ``n_runs`` ledger rows (as many as the baseline itself
    averaged). A group regresses when its makespan grows by more than
    ``makespan_threshold`` (fractional), its cost by more than
    ``cost_threshold``, or its success rate drops by more than
    ``success_threshold`` (absolute points — the fault-resilience gate).
    Groups absent from the ledger are reported, not failed — the caller
    decides (the CLI fails only when *nothing* matched).

    ``stat=True`` replaces the fixed makespan threshold with a one-sided
    Welch test (:func:`welch_slowdown`) at ``confidence`` wherever both
    sides carry pooled Monte Carlo sample stats (``makespan_std`` /
    ``n_samples``, written by sweeps and the service): the gate then fails
    only on *statistically significant* slowdowns, so a noisy-but-flat
    group with wide replication variance no longer trips CI. Groups
    without sample stats on either side keep the fixed threshold. The
    cost and success gates are unchanged either way.
    """
    gate = _Gate(
        noun="group",
        checks=(  # key, worse, relative, threshold, default
            _Check("makespan", +1, True, makespan_threshold, 0.0),
            _Check("cost", +1, True, cost_threshold, 0.0),
            _Check("success_rate", -1, False, success_threshold, 1.0),
        ),
        welch_mean=("makespan_sample_mean", "makespan"),
        welch_std="makespan_std",
        welch_replaces="makespan",
    )
    return _compare(
        baseline, gate, lambda n: ledger.group_stats(latest_per_group=n),
        stat=stat, confidence=confidence,
    )


def compare_load_to_baseline(
    ledger: RunLedger,
    baseline: Mapping[str, Mapping[str, float]],
    *,
    rps_threshold: float = 0.15,
    p99_threshold: float = 0.25,
    stat: bool = False,
    confidence: float = 0.95,
) -> RegressionReport:
    """Re-measure archived load runs against ``baseline`` groups.

    A group regresses when its achieved throughput drops by more than
    ``rps_threshold`` (fractional) or its p99 grows by more than
    ``p99_threshold``. ``stat=True`` additionally runs the one-sided
    Welch test on the exact latency sample stats — a statistically
    significant mean-latency slowdown regresses even under the p99 cap,
    and mirrors the ``ledger regress --stat`` makespan contract.
    """
    gate = _Gate(
        noun="load group",
        checks=(  # key, worse, relative, threshold, default
            _Check("achieved_rps", -1, True, rps_threshold, 0.0),
            _Check("p99_s", +1, True, p99_threshold, 0.0),
        ),
        welch_mean=("latency_mean_s",),
        welch_std="latency_std_s",
        welch_replaces=None,
    )
    return _compare(
        baseline, gate,
        lambda n: load_baseline_from_ledger(ledger, latest_per_group=n),
        stat=stat, confidence=confidence,
    )
