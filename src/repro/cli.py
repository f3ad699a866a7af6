"""``repro-exp`` — command-line driver for the paper's experiments.

Examples::

    repro-exp fig1 --smoke                      # quick look at Figure 1
    repro-exp fig3 --tasks 90 --reps 25         # paper-scale Figure 3
    repro-exp table3a --repeats 5
    repro-exp table2
    repro-exp fig2 --csv out.csv                # raw records to CSV
    repro-exp ledger sweep --db runs.db --smoke # archive a sweep
    repro-exp ledger regress --db runs.db --baseline BENCH_PR3.json
    repro-exp faults --rates 0 0.1 --ledger faults.db  # resilience sweep
    repro-exp ledger prune --db runs.db --max-rows 10000
    repro-exp serve --tenants tenants.json      # multi-tenant admission
    repro-exp ledger estimate-error --db runs.db
    repro-exp trace --workers 4                 # trace with worker spans
    repro-exp worker --listen 0.0.0.0:9000      # join a cluster as a node
    repro-exp ledger sweep --workers host:9000,host:9001  # cluster sweep
    repro-exp slo --db runs.db                  # offline SLO burn rates
    repro-exp profile --reps 25 --out prof.txt  # sampling profiler

Every command's parser carries its runner (``run=``); :func:`main` parses,
calls it, and turns any :class:`~repro.errors.ReproError` into one
``error: …`` line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .errors import ReproError
from .experiments.config import ExperimentConfig
from .experiments.figures import figure1, figure2, figure3, figure4
from .experiments.report import (
    records_to_csv,
    render_cpu_table,
    render_figure,
)
from .experiments.tables import table2_rows, table3a, table3b
from .obs.ledger import RunLedger, use_ledger

__all__ = ["main", "build_parser"]

_FIGURES = {
    "fig1": (figure1, ("makespan", "cost", "n_vms")),
    "fig2": (figure2, ("makespan", "cost", "n_vms")),
    "fig3": (figure3, ("makespan", "valid", "cost")),
    "fig4": (figure4, ("makespan",)),
}

# command -> (builder, title, variants --refined adds)
_TABLE3 = {
    "table3a": (table3a, "Table III(a): CPU time vs budget",
                ("heft_budg_plus", "heft_budg_plus_inv", "cg_plus")),
    "table3b": (table3b, "Table III(b): CPU time vs size",
                ("heft_budg_plus", "heft_budg_plus_inv")),
}

# sweep-config flag dest -> the ExperimentConfig field it overrides
_CONFIG_FLAGS = {
    "tasks": "n_tasks",
    "instances": "n_instances",
    "reps": "n_reps",
    "budgets": "budgets_per_workflow",
    "sigma": "sigma_ratio",
    "seed": "seed",
    "families": "families",
    "algorithms": "algorithms",
}


def _command(sub, name: str, run, **kwargs) -> argparse.ArgumentParser:
    """Add sub-command ``name``, dispatched by :func:`main` to ``run``."""
    parser = sub.add_parser(name, **kwargs)
    parser.set_defaults(run=run)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-exp`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Regenerate the figures and tables of Caniou et al., "
        "IPDPSW 2018 (budget-aware workflow scheduling).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _FIGURES:
        p = _command(sub, name, _run_figure, help=f"regenerate paper {name}")
        _add_sweep_config_flags(p)
        p.add_argument("--csv", type=str, default=None,
                       help="also dump raw run records to this CSV file")
        p.add_argument("--ledger", type=str, default=None,
                       help="archive every sweep point into this SQLite "
                       "run ledger")

    _command(sub, "table2", _run_table2, help="print the platform constants")

    sigma = _command(
        sub, "sigma", _run_sigma,
        help="sigma-impact study (§V-B / extended version)",
    )
    sigma.add_argument("--tasks", type=int, default=90)
    sigma.add_argument("--reps", type=int, default=25)
    sigma.add_argument("--position", type=float, default=0.4,
                       help="budget position on [B_min, B_high] (0..1)")

    frontier = _command(
        sub, "frontier", _run_frontier,
        help="minimal budget to match the baseline makespan",
    )
    frontier.add_argument("--sizes", type=int, nargs="+", default=[30, 60, 90])

    for name in _TABLE3:
        p = _command(sub, name, _run_table3, help=f"regenerate paper {name}")
        p.add_argument("--repeats", type=int, default=3,
                       help="scheduling timing repetitions")
        if name == "table3a":
            p.add_argument("--tasks", type=int, default=90,
                           help="workflow size for table3a")
        p.add_argument("--refined", action="store_true",
                       help="include the (slow) refined variants")

    srv = _command(
        sub, "serve", _run_serve,
        help="run the scheduling service HTTP gateway",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8080)
    srv.add_argument("--workers", type=int, default=4,
                     help="worker threads for async jobs")
    srv.add_argument("--cache-size", type=int, default=256,
                     help="response cache capacity (0 disables)")
    srv.add_argument("--cache-ttl", type=float, default=None,
                     help="response cache TTL in seconds (default: forever)")
    srv.add_argument("--ledger", type=str, default=None,
                     help="archive every fresh schedule into this SQLite "
                     "run ledger (served at /v1/runs)")
    srv.add_argument("--max-queue-depth", type=int, default=None,
                     help="pending-job backlog bound; beyond it POST "
                     "/v1/jobs returns 429 (default: unbounded)")
    srv.add_argument("--job-timeout", type=float, default=None,
                     help="per-job wall-clock timeout in seconds")
    srv.add_argument("--max-retries", type=int, default=0,
                     help="transient-failure retries per async job "
                     "(exponential backoff with jitter)")
    srv.add_argument("--executor", choices=("thread", "process", "cluster"),
                     default="thread",
                     help="compute in worker threads (default), worker "
                     "processes (CPU-bound jobs off the GIL; see "
                     "docs/PARALLEL.md), or remote repro-exp worker nodes "
                     "(--nodes; see docs/CLUSTER.md)")
    srv.add_argument("--nodes", type=str, default=None,
                     help="cluster node list 'host:port,host:port' "
                     "(required with --executor cluster)")
    srv.add_argument("--tenants", type=str, default=None,
                     help="JSON file of per-tenant admission policies "
                     "(rate, concurrency, cost budget per window; see "
                     "docs/ADMISSION.md). Without it every request runs "
                     "under the permissive default tenant")
    _add_logging_flags(srv)

    wrk = _command(
        sub, "worker", _run_worker,
        help="run a long-lived cluster worker node (see docs/CLUSTER.md)",
    )
    wrk.add_argument("--listen", type=str, default="127.0.0.1:0",
                     help="host:port to listen on (port 0 picks a free "
                     "port, printed on startup)")
    wrk.add_argument("--slots", type=int, default=1,
                     help="advertised parallelism (shards executed "
                     "concurrently; scale out with more worker processes, "
                     "not more slots)")
    wrk.add_argument("--heartbeat", type=float, default=1.0,
                     help="seconds between heartbeat frames")
    wrk.add_argument("--token", type=str, default=None,
                     help="shared handshake token (coordinators must match)")

    sch = _command(
        sub, "schedule", _run_schedule,
        help="one-shot scheduling request, JSON response on stdout",
    )
    sch.add_argument("--request", type=str, default=None,
                     help="path to a JSON request file ('-' for stdin); "
                     "overrides the flags below")
    sch.add_argument("--family", default="montage",
                     help="workflow generator family")
    sch.add_argument("--tasks", type=int, default=90)
    sch.add_argument("--seed", type=int, default=1,
                     help="workflow generator seed")
    sch.add_argument("--sigma", type=float, default=0.5,
                     help="sigma/mean ratio")
    sch.add_argument("--algorithm", default="heft_budg")
    _add_budget_flags(sch)
    sch.add_argument("--reps", type=int, default=0,
                     help="stochastic evaluation repetitions")
    sch.add_argument("--no-schedule-payload", action="store_true",
                     help="omit the full schedule dict from the output")
    _add_logging_flags(sch)

    trc = _command(
        sub, "trace", _run_trace,
        help="run one schedule+simulate with tracing enabled and export a "
        "Perfetto-loadable .trace.json plus a JSONL decision log",
    )
    _add_single_run_flags(trc, n_default=50)
    trc.add_argument("--out", default="run.trace.json",
                     help="Chrome trace-event JSON output path "
                     "(open in ui.perfetto.dev)")
    trc.add_argument("--decisions", default=None,
                     help="decision-log JSONL path "
                     "(default: <out stem>.decisions.jsonl)")
    trc.add_argument("--gantt", action="store_true",
                     help="also print the ASCII Gantt of the simulated run")
    trc.add_argument("--workers", type=int, default=0,
                     help="also run the Monte Carlo replications sharded "
                     "across this many worker processes; their spans merge "
                     "back into the trace under the session's trace id "
                     "(0 = no parallel phase)")
    trc.add_argument("--reps", type=int, default=16,
                     help="Monte Carlo replications for the parallel phase "
                     "(only with --workers > 0)")

    slo = _command(
        sub, "slo", _run_slo,
        help="SLO report: per-stage streaming percentiles and multi-window "
        "burn rates, from a live service (--url) or a run ledger (--db)",
    )
    source = slo.add_mutually_exclusive_group(required=True)
    source.add_argument("--url", default=None,
                        help="base URL of a running service "
                        "(e.g. http://127.0.0.1:8080); reads GET /v1/slo")
    source.add_argument("--db", default=None,
                        help="ledger SQLite file; computes the report "
                        "offline from archived service rows")
    slo.add_argument("--limit", type=int, default=0,
                     help="with --db: scan only the newest N rows "
                     "(default: all)")
    slo.add_argument("--json", action="store_true",
                     help="emit the raw report as JSON instead of tables")

    prof = _command(
        sub, "profile", _run_profile,
        help="sampling profiler over one schedule+simulate run; prints the "
        "top frames and can write collapsed stacks for flamegraphs",
    )
    _add_single_run_flags(prof, n_default=90)
    prof.add_argument("--reps", type=int, default=25,
                      help="Monte Carlo replications to profile")
    prof.add_argument("--interval", type=float, default=0.005,
                      help="sampling period in seconds (default 5 ms)")
    prof.add_argument("--top", type=int, default=15,
                      help="rows in the top-frames table")
    prof.add_argument("--out", default=None,
                      help="write collapsed stacks (flamegraph.pl / "
                      "speedscope input) to this path")

    flt = _command(
        sub, "faults", _run_faults,
        help="resilience sweep: crash rates x recovery policies, success "
        "and budget-safety per cell",
    )
    flt.add_argument("--families", nargs="+", default=["montage"],
                     help="workflow generator families")
    flt.add_argument("--tasks", type=int, default=30, help="workflow size")
    flt.add_argument("--algorithms", nargs="+", default=["heft_budg"])
    flt.add_argument("--policies", nargs="+", default=["none", "remap"],
                     help="recovery policies ('none' measures the damage)")
    flt.add_argument("--rates", type=float, nargs="+", default=[0.0, 0.1],
                     help="VM crash rates per VM-hour")
    flt.add_argument("--runs", type=int, default=5,
                     help="fault-plan draws per cell")
    flt.add_argument("--seed", type=int, default=1)
    flt.add_argument("--position", type=float, default=0.5,
                     help="budget position on [B_min, B_high] (0..1)")
    flt.add_argument("--sigma", type=float, default=0.5,
                     help="sigma/mean ratio")
    flt.add_argument("--max-attempts", type=int, default=5,
                     help="executions per run (recoveries + 1)")
    flt.add_argument("--spot", action="store_true",
                     help="spot-market sweep: plan spot-first on discounted "
                     "preemptible capacity, inject correlated revocation "
                     "bursts (--rates become bursts/hour), recover via "
                     "checkpoints and on-demand fallback")
    flt.add_argument("--reserves", type=float, nargs="+", default=[0.0],
                     help="[--spot] contingency-reserve budget fractions "
                     "withheld from planning (0..1)")
    flt.add_argument("--discount", type=float, default=0.6,
                     help="[--spot] spot price discount off on-demand (0..1)")
    flt.add_argument("--warning", type=float, default=120.0,
                     help="[--spot] revocation warning lead time, seconds")
    flt.add_argument("--checkpoint-interval", type=float, default=None,
                     help="[--spot] checkpoint every N seconds of useful "
                     "work (omit to disable checkpointing)")
    flt.add_argument("--checkpoint-overhead", type=float, default=30.0,
                     help="[--spot] seconds billed per checkpoint flush")
    flt.add_argument("--max-replans", type=int, default=None,
                     help="cap accepted recoveries per run (default: "
                     "unlimited up to --max-attempts)")
    flt.add_argument("--ledger", type=str, default=None,
                     help="archive every run into this SQLite run ledger "
                     "(source='faults')")
    _add_node_workers_flag(flt)

    led = sub.add_parser(
        "ledger",
        help="query the persistent run ledger and gate regressions",
    )
    lsub = led.add_subparsers(dest="ledger_command", required=True)

    l_sweep = _command(
        lsub, "sweep", _run_ledger_sweep,
        help="run an experiment sweep, archiving every point",
    )
    _add_db_flag(l_sweep)
    _add_sweep_config_flags(l_sweep)
    l_sweep.add_argument("--families", nargs="+", default=None,
                         help="workflow families (default: config's)")
    l_sweep.add_argument("--algorithms", nargs="+", default=None,
                         help="algorithms (default: config's)")
    _add_node_workers_flag(l_sweep)

    l_list = _command(lsub, "list", _run_ledger_list,
                      help="newest archived runs")
    _add_db_flag(l_list)
    l_list.add_argument("--algorithm", default=None)
    l_list.add_argument("--workflow", default=None,
                        help="workflow name or family")
    l_list.add_argument("--source", default=None,
                        help="run source (service | sweep)")
    l_list.add_argument("--limit", type=int, default=20,
                        help="max rows (0 = all)")
    l_list.add_argument("--csv", type=str, default=None,
                        help="write the rows as CSV instead of a table")

    l_show = _command(lsub, "show", _run_ledger_show,
                      help="one archived run, as JSON")
    _add_db_flag(l_show)
    l_show.add_argument("run_id", type=int)

    l_cmp = _command(
        lsub, "compare", _run_ledger_compare,
        help="per family/n_tasks/algorithm group means",
    )
    _add_db_flag(l_cmp)
    l_cmp.add_argument("--latest", type=int, default=0,
                       help="only each group's newest N runs (0 = all)")

    l_base = _command(
        lsub, "baseline", _run_ledger_baseline,
        help="fold the ledger into a BENCH-style ledger_baseline JSON",
    )
    _add_db_flag(l_base)
    l_base.add_argument("--latest", type=int, default=0,
                        help="only each group's newest N runs (0 = all)")
    l_base.add_argument("--out", type=str, default=None,
                        help="write to this file instead of stdout")

    l_reg = _command(
        lsub, "regress", _run_ledger_regress,
        help="compare the ledger against a BENCH_*.json baseline; "
        "exit 1 on regression, 2 on no data",
    )
    _add_db_flag(l_reg)
    l_reg.add_argument("--baseline", required=True,
                       help="BENCH_*.json file with a ledger_baseline key")
    l_reg.add_argument("--threshold", type=float, default=0.10,
                       help="fractional makespan slowdown tolerated "
                       "(default: 0.10)")
    l_reg.add_argument("--cost-threshold", type=float, default=0.10,
                       help="fractional cost growth tolerated "
                       "(default: 0.10)")
    l_reg.add_argument("--success-threshold", type=float, default=0.05,
                       help="absolute success-rate drop tolerated "
                       "(default: 0.05)")
    l_reg.add_argument("--stat", action="store_true",
                       help="statistical gating: flag a makespan regression "
                       "only when a one-sided Welch test on the stored MC "
                       "sample stats finds a significant slowdown (groups "
                       "without stats fall back to --threshold)")
    l_reg.add_argument("--confidence", type=float, default=0.95,
                       help="confidence level for --stat (default: 0.95)")
    l_reg.add_argument("--rps-threshold", type=float, default=0.15,
                       help="fractional achieved-rate drop tolerated for "
                       "load_baseline groups (default: 0.15)")
    l_reg.add_argument("--p99-threshold", type=float, default=0.25,
                       help="fractional p99 latency growth tolerated for "
                       "load_baseline groups (default: 0.25)")

    l_prune = _command(
        lsub, "prune", _run_ledger_prune,
        help="delete old ledger rows to keep the database bounded",
    )
    _add_db_flag(l_prune)
    l_prune.add_argument("--max-rows", type=int, default=None,
                         help="keep only the newest N rows of each table")
    l_prune.add_argument("--max-age-days", type=float, default=None,
                         help="drop rows older than this many days")

    l_est = _command(
        lsub, "estimate-error", _run_ledger_estimate_error,
        help="summarize pre-admission estimate accuracy per algorithm "
        "(needs rows recorded by an admission-enabled service)",
    )
    _add_db_flag(l_est)
    l_est.add_argument("--limit", type=int, default=0,
                       help="scan only the newest N rows (default: all)")
    l_est.add_argument("--json", action="store_true",
                       help="emit the report as JSON instead of a table")

    ld = sub.add_parser(
        "load",
        help="seeded open-loop load generation (the load observatory)",
    )
    ldsub = ld.add_subparsers(dest="load_command", required=True)

    l_run = _command(
        ldsub, "run", _run_load_run,
        help="replay a seeded workload and archive the load_run",
    )
    _add_arrival_flags(l_run)
    l_run.add_argument("--target", default=None,
                       help="gateway base URL (default: in-process engine)")
    l_run.add_argument("--label", default=None,
                       help="ledger group label for this run")
    l_run.add_argument("--concurrency", type=int, default=8,
                       help="dispatch threads (default: 8)")
    l_run.add_argument("--no-pace", action="store_true",
                       help="ignore planned offsets; fire as fast as "
                       "the pool drains (throughput probe)")
    l_run.add_argument("--db", default=None,
                       help="archive the run into this ledger SQLite file")
    l_run.add_argument("--json", action="store_true",
                       help="print the full result as JSON")
    l_run.add_argument("--out", default=None,
                       help="also write the JSON result to this file")

    l_seq = _command(
        ldsub, "sequence", _run_load_sequence,
        help="plan the request sequence and print its fingerprint "
        "(no requests are sent)",
    )
    _add_arrival_flags(l_seq)
    l_seq.add_argument("--show", type=int, default=10,
                       help="print the first N planned arrivals "
                       "(default: 10; 0 = none)")
    l_seq.add_argument("--json", action="store_true",
                       help="dump every planned arrival as JSON lines")

    l_rep = _command(
        ldsub, "report", _run_load_report,
        help="render archived load runs as a standalone HTML report",
    )
    _add_db_flag(l_rep)
    l_rep.add_argument("--label", action="append", default=None,
                       help="only runs with this label (repeatable)")
    l_rep.add_argument("--limit", type=int, default=50,
                       help="newest N runs per query (default: 50)")
    l_rep.add_argument("--out", default="load_report.html",
                       help="output file (default: load_report.html)")
    l_rep.add_argument("--title", default="Load observatory report")

    dash = _command(
        sub, "dash", _run_dash,
        help="live terminal dashboard over a running gateway",
    )
    dash.add_argument("--url", default="http://127.0.0.1:8080",
                      help="gateway base URL (default: http://127.0.0.1:8080)")
    dash.add_argument("--interval", type=float, default=1.0,
                      help="refresh interval seconds (default: 1.0)")
    dash.add_argument("--iterations", type=int, default=None,
                      help="draw N frames then exit (default: until 'q')")
    dash.add_argument("--no-ansi", action="store_true",
                      help="plain frames without colour or screen clears "
                      "(CI logs)")
    dash.add_argument("--no-events", action="store_true",
                      help="skip the SSE event ticker subscription")
    return parser


def _add_sweep_config_flags(parser: argparse.ArgumentParser) -> None:
    """The :class:`ExperimentConfig` flags of the figures and
    ``ledger sweep``, read back by :func:`_config_from_args`."""
    parser.add_argument("--smoke", action="store_true",
                        help="down-scaled run (seconds instead of minutes)")
    parser.add_argument("--tasks", type=int, default=None,
                        help="workflow size (paper: 90)")
    parser.add_argument("--instances", type=int, default=None,
                        help="instances per family (paper: 5)")
    parser.add_argument("--reps", type=int, default=None,
                        help="stochastic repetitions per point (paper: 25)")
    parser.add_argument("--budgets", type=int, default=None,
                        help="budget grid points per workflow")
    parser.add_argument("--sigma", type=float, default=None,
                        help="sigma/mean ratio (paper: 0.25..1.0)")
    parser.add_argument("--seed", type=int, default=None)


def _add_node_workers_flag(parser: argparse.ArgumentParser) -> None:
    """The ``--workers`` process count or cluster node list of the sweeps."""
    parser.add_argument("--workers", type=str, default="0",
                        help="worker processes for the sweep, or a "
                        "'host:port,host:port' cluster node list (0 = "
                        "serial; results are bit-identical either way)")


def _add_db_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--db", default="runs.db",
                        help="ledger SQLite file (default: runs.db)")


def _add_logging_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log-level", default="info",
                        choices=("debug", "info", "warning", "error",
                                 "critical"),
                        help="structured logging threshold")
    parser.add_argument("--log-json", action="store_true",
                        help="emit logs as JSON lines instead of key=value")


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    """``--budget`` in dollars or ``--position`` on [B_min, B_high]."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--budget", type=float, default=None,
                       help="absolute budget in dollars")
    group.add_argument("--position", type=float, default=0.5,
                       help="budget position on [B_min, B_high] (0..1)")


def _add_single_run_flags(
    parser: argparse.ArgumentParser, *, n_default: int
) -> None:
    """The workflow, algorithm and budget flags of ``trace`` and ``profile``."""
    parser.add_argument("--workflow", default="montage",
                        help="workflow generator family")
    parser.add_argument("--n", type=int, default=n_default,
                        help="workflow size")
    parser.add_argument("--algo", default="heft_budg",
                        help="scheduling algorithm (see /v1/schedulers)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workflow generator seed")
    parser.add_argument("--sigma", type=float, default=0.5,
                        help="sigma/mean ratio")
    _add_budget_flags(parser)


def _add_arrival_flags(parser: argparse.ArgumentParser) -> None:
    """The arrival-process and spec-pool flags of ``load run`` and
    ``load sequence``, read back by :func:`_arrival_config_from_args`."""
    parser.add_argument("--process", default="poisson",
                        choices=("poisson", "mmpp", "trace"),
                        help="arrival process (default: poisson)")
    parser.add_argument("--rate", type=float, default=50.0,
                        help="long-run offered rate, requests/s (default: 50)")
    parser.add_argument("--requests", type=int, default=1000,
                        help="total planned requests (default: 1000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="sequence seed — same seed, same sequence")
    parser.add_argument("--burstiness", type=float, default=4.0,
                        help="mmpp burst:calm rate ratio (default: 4)")
    parser.add_argument("--mean-burst-s", type=float, default=2.0,
                        help="mmpp mean burst dwell (default: 2s)")
    parser.add_argument("--mean-calm-s", type=float, default=8.0,
                        help="mmpp mean calm dwell (default: 8s)")
    parser.add_argument("--batch-tail-alpha", type=float, default=0.0,
                        help="Pareto tail for batched arrivals "
                        "(0 disables; smaller = heavier tail)")
    parser.add_argument("--trace-file", default=None,
                        help="arrival offsets file for --process trace")
    parser.add_argument("--families", nargs="+", default=["montage", "ligo"],
                        help="workflow families in the spec pool")
    parser.add_argument("--n-tasks", nargs="+", type=int, default=[15],
                        help="workflow sizes in the spec pool")
    parser.add_argument("--algorithms", nargs="+", default=["heft_budg"],
                        help="algorithms in the spec pool")
    parser.add_argument("--budgets", nargs="+", type=float, default=[2.0],
                        help="budget positions in the spec pool")
    parser.add_argument("--spec-seeds", type=int, default=3,
                        help="workflow RNG seeds per pool entry (default: 3)")
    parser.add_argument("--reps", type=int, default=2,
                        help="Monte-Carlo reps per request (default: 2)")
    parser.add_argument("--tenants", default=None,
                        help="weighted tenant mix, 'name=w,name=w' "
                        "(default: one 'default' tenant)")
    parser.add_argument("--priorities", default=None,
                        help="weighted priority mix, 'name=w,name=w'")


def _print_json(obj, fh=None) -> None:
    """Indented, key-sorted JSON and a newline to ``fh`` (default stdout)."""
    fh = sys.stdout if fh is None else fh
    json.dump(obj, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _archived(path: Optional[str], job, describe=lambda result: ""):
    """``job()``, with every run it records archived into the ledger at
    ``path`` and then announced as ``archived N run(s)<describe> to path``.

    Without a ``path`` the job runs unrecorded and nothing is printed.
    """
    if path is None:
        return job()
    with RunLedger(path) as ledger:
        with use_ledger(ledger):
            result = job()
        print(f"archived {ledger.count()} run(s){describe(result)} to {path}")
    return result


def _existing_ledger(path: str) -> RunLedger:
    """The ledger at ``path`` for a command that reads or prunes one: a
    missing file is an error, never a fresh empty ledger left behind."""
    if not os.path.exists(path):
        raise ReproError(f"no such ledger: {path}")
    return RunLedger(path)


def _single_run_instance(args: argparse.Namespace):
    """``(workflow, budget)`` of a ``trace`` or ``profile`` run, from the
    flags of :func:`_add_single_run_flags`, on the paper's platform."""
    from .platform.cloud import PAPER_PLATFORM
    from .service.spec import BudgetSpec
    from .workflow.generators import generate

    wf = generate(args.workflow, args.n, rng=args.seed, sigma_ratio=args.sigma)
    budget_spec = (
        BudgetSpec(amount=args.budget) if args.budget is not None
        else BudgetSpec(position=args.position)
    )
    return wf, budget_spec.resolve(wf, PAPER_PLATFORM)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The sweep the flags of :func:`_add_sweep_config_flags` select:
    smoke or paper scale, with each given flag overriding its field."""
    overrides = {}
    for dest, field in _CONFIG_FLAGS.items():
        value = getattr(args, dest, None)
        if value is not None:
            overrides[field] = tuple(value) if isinstance(value, list) else value
    if args.smoke:
        return ExperimentConfig.smoke(**overrides)
    return ExperimentConfig.paper_scale(**overrides)


def _run_figure(args: argparse.Namespace) -> int:
    """``fig1`` … ``fig4``: run the sweep and render each panel's metric."""
    builder, metrics = _FIGURES[args.command]
    data = _archived(args.ledger, lambda: builder(_config_from_args(args)))
    for metric in metrics:
        print(render_figure(data, metric=metric))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            records_to_csv(data.records, fh)
        print(f"raw records written to {args.csv}")
    return 0


def _run_table2(args: argparse.Namespace) -> int:
    """``table2``: the platform constants."""
    for key, value in table2_rows():
        print(f"{key:>14s}: {value}")
    return 0


def _run_table3(args: argparse.Namespace) -> int:
    """``table3a`` / ``table3b``: scheduling CPU time vs budget or size."""
    builder, title, refined = _TABLE3[args.command]
    algorithms = ["minmin", "heft", "minmin_budg", "heft_budg", "bdt", "cg"]
    if args.refined:
        algorithms += refined
    kwargs = {"n_tasks": args.tasks} if "tasks" in args else {}
    table = builder(repeats=args.repeats, algorithms=algorithms, **kwargs)
    print(render_cpu_table(table, title=title))
    return 0


def _run_sigma(args: argparse.Namespace) -> int:
    """``sigma``: makespan and cost across sigma ratios."""
    from .experiments.sigma_study import render_sigma_study, sigma_study

    study = sigma_study(
        n_tasks=args.tasks, n_reps=args.reps, budget_position=args.position,
    )
    print(render_sigma_study(study))
    return 0


def _run_frontier(args: argparse.Namespace) -> int:
    """``frontier``: minimal budget to match the baseline makespan."""
    from .experiments.budget_frontier import frontier_study, render_frontier

    print(render_frontier(frontier_study(sizes=tuple(args.sizes))))
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """``serve``: run the HTTP gateway until interrupted."""
    from .service.http import serve

    serve(
        host=args.host, port=args.port, max_workers=args.workers,
        cache_size=args.cache_size, cache_ttl=args.cache_ttl,
        ledger_path=args.ledger,
        max_queue_depth=args.max_queue_depth,
        job_timeout=args.job_timeout, max_retries=args.max_retries,
        executor=args.executor, nodes=args.nodes,
        tenants_path=args.tenants,
        log_level=args.log_level, log_json=args.log_json,
    )
    return 0


def _run_schedule(args: argparse.Namespace) -> int:
    """The ``schedule`` subcommand: one request in, one JSON response out."""
    from .obs.logging import configure_logging
    from .service import SchedulingService

    configure_logging(level=args.log_level, json_mode=args.log_json)
    if args.request is not None:
        try:
            if args.request == "-":
                payload = json.load(sys.stdin)
            else:
                with open(args.request) as fh:
                    payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read request: {exc}") from exc
    else:
        payload = {
            "workflow": {
                "family": args.family, "n_tasks": args.tasks,
                "rng": args.seed, "sigma_ratio": args.sigma,
            },
            "algorithm": args.algorithm,
            "budget": (
                {"amount": args.budget} if args.budget is not None
                else {"position": args.position}
            ),
            "evaluation": {"n_reps": args.reps},
        }

    with SchedulingService(max_workers=1, cache_size=0) as svc:
        response = svc.schedule(payload)
    out = response.to_dict()
    if args.no_schedule_payload:
        out.pop("schedule")
    _print_json(out)
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    """The ``trace`` subcommand: one traced schedule+simulate, two files."""
    from .experiments.runner import replicate
    from .obs import Tracer, use_tracer
    from .obs.export import write_chrome_trace, write_decision_log
    from .platform.cloud import PAPER_PLATFORM
    from .rng import as_generator, spawn_seeds
    from .scheduling.registry import make_scheduler
    from .simulation.executor import evaluate_schedule

    wf, budget = _single_run_instance(args)
    tracer = Tracer()
    with use_tracer(tracer):
        with tracer.span("trace.session", workflow=args.workflow,
                         n_tasks=args.n, algorithm=args.algo,
                         budget=budget):
            result = make_scheduler(args.algo).schedule(
                wf, PAPER_PLATFORM, budget
            )
            run = evaluate_schedule(wf, PAPER_PLATFORM, result.schedule)
            if args.workers > 0 and args.reps > 0:
                with tracer.span("trace.replications",
                                 n_reps=args.reps, workers=args.workers):
                    replicate(
                        wf, PAPER_PLATFORM, result.schedule, budget,
                        args.reps,
                        seeds=spawn_seeds(as_generator(0), args.reps),
                        workers=args.workers,
                    )

    stem = args.out
    for suffix in (".trace.json", ".json"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
            break
    decisions_path = args.decisions or f"{stem}.decisions.jsonl"
    doc = write_chrome_trace(
        args.out, tracer, run,
        metadata={
            "workflow": args.workflow, "n_tasks": args.n,
            "algorithm": args.algo, "budget": budget,
            "makespan": run.makespan, "total_cost": run.total_cost,
        },
    )
    n_decisions = write_decision_log(decisions_path, tracer.decisions)

    if args.gantt:
        from .simulation.gantt import render_gantt

        print(render_gantt(run))
    print(f"algorithm       : {args.algo}")
    print(f"budget          : ${budget:.4f}")
    print(f"makespan        : {run.makespan:.1f}s on {run.n_vms} VMs "
          f"(cost ${run.total_cost:.4f})")
    print(f"trace id        : {tracer.trace_id}")
    if args.workers > 0:
        # Only spans a pool merged back carry a worker pid; too few reps to
        # shard leave the replications in this process.
        pids = [sp.attributes["worker_pid"] for sp in tracer.spans
                if "worker_pid" in sp.attributes]
        if pids:
            print(f"worker spans    : {len(pids)} merged from "
                  f"{len(set(pids))} worker process(es) ({args.reps} reps)")
        else:
            print(f"worker spans    : none; the {args.reps} reps ran "
                  f"in-process")
    print(f"trace           : {args.out} "
          f"({len(doc['traceEvents'])} events; open in ui.perfetto.dev)")
    print(f"decision log    : {decisions_path} ({n_decisions} records)")
    return 0


def _render_slo_report(report: dict) -> str:
    """Human tables for an SLO report (live snapshot or offline)."""
    lines: List[str] = []
    observed = report.get("observed", 0)
    failures = report.get("failures", 0)
    lines.append(f"requests observed : {observed} ({failures} failed)")
    stages = report.get("stages", {})
    if stages:
        lines.append("")
        lines.append(f"{'stage':<12s} {'count':>7s} {'p50':>10s} "
                     f"{'p95':>10s} {'p99':>10s}")
        for name, pcts in stages.items():
            lines.append(
                f"{name:<12.12s} {int(pcts.get('count', 0)):>7d} "
                f"{pcts.get('p50', 0.0):>10.4f} "
                f"{pcts.get('p95', 0.0):>10.4f} "
                f"{pcts.get('p99', 0.0):>10.4f}"
            )
    targets = report.get("targets", [])
    if targets:
        labels = list(targets[0].get("windows", {}))
        lines.append("")
        header = f"{'objective':<16s} {'target':>8s}"
        for label in labels:
            header += f" {'burn ' + label:>10s}"
        lines.append(header)
        for target in targets:
            row = f"{target['name']:<16.16s} {target['target']:>8.3f}"
            for label in labels:
                burn = target["windows"].get(label, {}).get("burn_rate", 0.0)
                row += f" {burn:>10.2f}"
            exhausted = [
                label for label in labels
                if target["windows"].get(label, {}).get("budget_exhausted")
            ]
            if exhausted:
                row += f"  ! budget exhausted ({', '.join(exhausted)})"
            lines.append(row)
    if not stages and not targets:
        lines.append("no data")
    return "\n".join(lines)


def _run_slo(args: argparse.Namespace) -> int:
    """The ``slo`` subcommand: burn rates + stage percentiles."""
    if args.url is not None:
        import urllib.error
        import urllib.request

        url = args.url.rstrip("/") + "/v1/slo"
        try:
            with urllib.request.urlopen(url, timeout=10.0) as resp:
                report = json.load(resp)
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot fetch {url}: {exc}") from exc
    else:
        from .obs.slo import report_from_rows

        with _existing_ledger(args.db) as ledger:
            rows = ledger.runs(source="service", limit=args.limit)
        if not rows:
            raise ReproError(f"no service rows in {args.db}")
        report = report_from_rows(rows)

    if args.json:
        _print_json(report)
    else:
        print(_render_slo_report(report))
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    """The ``profile`` subcommand: sample one schedule+simulate run."""
    from .obs.profiler import SamplingProfiler
    from .platform.cloud import PAPER_PLATFORM
    from .rng import as_generator, spawn_seeds
    from .scheduling.registry import make_scheduler
    from .simulation.executor import run_replications

    wf, budget = _single_run_instance(args)
    profiler = SamplingProfiler(interval_s=args.interval)
    with profiler:
        result = make_scheduler(args.algo).schedule(
            wf, PAPER_PLATFORM, budget
        )
        if args.reps > 0:
            seeds = spawn_seeds(as_generator(args.seed), args.reps)
            run_replications({
                "wf": wf, "platform": PAPER_PLATFORM,
                "schedule": result.schedule, "budget": budget,
                "seeds": seeds,
            })

    summary = profiler.to_dict()
    print(f"profiled        : {args.algo} on {args.workflow} "
          f"(n={args.n}, reps={args.reps})")
    print(f"samples         : {summary['n_samples']} stacks over "
          f"{summary['duration_s']:.2f}s "
          f"(interval {args.interval * 1e3:.1f} ms)")
    top = profiler.top(args.top)
    if top:
        print(f"\n{'self%':>6s} {'cum%':>6s} {'self':>6s} {'cum':>6s}  frame")
        for row in top:
            print(f"{row['self_pct']:>6.1f} {row['cumulative_pct']:>6.1f} "
                  f"{row['self']:>6d} {row['cumulative']:>6d}  "
                  f"{row['frame']}")
    else:
        print("no samples collected (run too short for the interval; "
              "raise --reps or lower --interval)")
    if args.out:
        n_lines = profiler.write_collapsed(args.out)
        print(f"\ncollapsed stacks: {args.out} ({n_lines} lines; feed to "
              f"flamegraph.pl or speedscope)")
    return 0


def _run_worker(args: argparse.Namespace) -> int:
    """The ``worker`` subcommand: serve shards until terminated.

    Prints a parseable ``worker listening on host:port`` line (flushed,
    so wrappers reading stdout see the bound port immediately — needed
    when ``--listen`` ends in ``:0``), then blocks. SIGTERM and SIGINT
    both shut the node down; the coordinator sees the connection drop
    and reassigns any in-flight shards.
    """
    import os
    import signal

    from .cluster.protocol import parse_address
    from .cluster.worker import ClusterWorker

    host, port = parse_address(args.listen)
    worker = ClusterWorker(
        host, port, slots=args.slots, heartbeat_s=args.heartbeat,
        token=args.token,
    )
    bound_host, bound_port = worker.start()
    print(
        f"worker listening on {bound_host}:{bound_port} "
        f"(pid {os.getpid()}, slots {args.slots})",
        flush=True,
    )

    def _shutdown(signum: int, frame: object) -> None:
        # First signal starts the drain; later ones (an impatient
        # supervisor re-sending SIGTERM) must not interrupt close().
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _shutdown)
    try:
        worker.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        worker.close()
        print("worker stopped", flush=True)
    return 0


def _run_faults(args: argparse.Namespace) -> int:
    """The ``faults`` subcommand: run and render a resilience sweep.

    ``--spot`` switches to the spot-market variant: ``--rates`` become
    correlated revocation bursts per hour, plans go spot-first, and the
    ``--reserves`` axis maps the contingency-reserve frontier. Exits 1
    when any completed run overspent its budget.
    """
    from .experiments.resilience import (
        render_resilience,
        resilience_sweep,
        spot_resilience_sweep,
    )

    kwargs = dict(
        families=tuple(args.families),
        n_tasks=args.tasks,
        algorithms=tuple(args.algorithms),
        policies=tuple(args.policies),
        n_runs=args.runs,
        budget_position=args.position,
        sigma_ratio=args.sigma,
        seed=args.seed,
        max_attempts=args.max_attempts,
        max_replans=args.max_replans,
        workers=args.workers,
    )
    if args.spot:
        from .faults.spot import CheckpointConfig
        from .platform.pricing import SpotMarket

        checkpoint = None
        if args.checkpoint_interval is not None:
            checkpoint = CheckpointConfig(
                interval_s=args.checkpoint_interval,
                overhead_s=args.checkpoint_overhead,
            )
        sweep = spot_resilience_sweep
        kwargs.update(
            preemption_rates=tuple(args.rates),
            reserves=tuple(args.reserves),
            warning_s=args.warning,
            checkpoint=checkpoint,
            market=SpotMarket.sample(rng=args.seed, discount=args.discount),
        )
    else:
        sweep = resilience_sweep
        kwargs["crash_rates"] = tuple(args.rates)

    def sweep_and_render():
        study = sweep(**kwargs)
        print(render_resilience(study))
        return study

    study = _archived(args.ledger, sweep_and_render)
    over = sum(p.n_over_budget for p in study.points)
    return 1 if over else 0


def _run_ledger_sweep(args: argparse.Namespace) -> int:
    """``ledger sweep``: run a sweep, archiving every point."""
    from .experiments.runner import run_sweep

    cfg = _config_from_args(args)
    _archived(
        args.db, lambda: run_sweep(cfg, workers=args.workers),
        describe=lambda records: f" ({len(records)} repetition records)",
    )
    return 0


def _run_ledger_list(args: argparse.Namespace) -> int:
    """``ledger list``: the newest archived runs, as a table or CSV."""
    with _existing_ledger(args.db) as ledger:
        rows = ledger.runs(
            algorithm=args.algorithm, workflow=args.workflow,
            source=args.source, limit=args.limit,
        )
        if args.csv:
            from .io import runs_to_csv

            with open(args.csv, "w", newline="") as fh:
                runs_to_csv(rows, fh)
            print(f"{len(rows)} run(s) written to {args.csv}")
            return 0
        print(f"{'id':>5s} {'source':<8s} {'algorithm':<16s} "
              f"{'workflow':<24s} {'budget':>9s} {'makespan':>9s} "
              f"{'cost':>9s} {'succ':>5s}")
        for r in rows:
            mk = f"{r.sim_makespan:.1f}" if r.sim_makespan is not None else "—"
            cost = f"{r.sim_cost:.4f}" if r.sim_cost is not None else "—"
            succ = (f"{r.success_rate:.2f}"
                    if r.success_rate is not None else "—")
            print(f"{r.run_id:>5d} {r.source:<8s} {r.algorithm:<16s} "
                  f"{(r.workflow or r.family):<24.24s} {r.budget:>9.4f} "
                  f"{mk:>9s} {cost:>9s} {succ:>5s}")
        print(f"{len(rows)} of {ledger.count()} run(s) in {args.db}")
    return 0


def _run_ledger_show(args: argparse.Namespace) -> int:
    """``ledger show``: one archived run, as JSON."""
    with _existing_ledger(args.db) as ledger:
        try:
            row = ledger.run(args.run_id)
        except KeyError as exc:
            raise ReproError(exc.args[0]) from None
    _print_json(row.to_dict())
    return 0


def _run_ledger_compare(args: argparse.Namespace) -> int:
    """``ledger compare``: per-group means."""
    with _existing_ledger(args.db) as ledger:
        stats = ledger.group_stats(latest_per_group=args.latest)
    print(f"{'group':<40s} {'n':>4s} {'makespan':>10s} "
          f"{'cost':>10s} {'success':>8s}")
    for group, s in stats.items():
        mk = f"{s['makespan']:.2f}" if "makespan" in s else "—"
        cost = f"{s['cost']:.4f}" if "cost" in s else "—"
        succ = (f"{s['success_rate']:.2f}"
                if "success_rate" in s else "—")
        print(f"{group:<40s} {int(s['n_runs']):>4d} {mk:>10s} "
              f"{cost:>10s} {succ:>8s}")
    print(f"{len(stats)} group(s)")
    return 0


def _run_ledger_baseline(args: argparse.Namespace) -> int:
    """``ledger baseline``: fold the ledger into a BENCH-style document."""
    from .obs.ledger import baseline_from_ledger, load_baseline_from_ledger

    with _existing_ledger(args.db) as ledger:
        baseline = baseline_from_ledger(ledger, latest_per_group=args.latest)
        load_baseline = load_baseline_from_ledger(
            ledger, latest_per_group=args.latest
        )
    doc = {"ledger_baseline": baseline}
    if load_baseline:
        doc["load_baseline"] = load_baseline
    if args.out:
        with open(args.out, "w") as fh:
            _print_json(doc, fh)
        print(f"{len(baseline)} run group(s) + {len(load_baseline)} "
              f"load group(s) written to {args.out}")
    else:
        _print_json(doc)
    if not baseline and not load_baseline:
        raise ReproError("no simulated or load runs in the ledger")
    return 0


def _run_ledger_prune(args: argparse.Namespace) -> int:
    """``ledger prune``: delete old rows to keep the database bounded."""
    if args.max_rows is None and args.max_age_days is None:
        raise ReproError("pass --max-rows and/or --max-age-days")
    with _existing_ledger(args.db) as ledger:
        deleted = ledger.prune(
            max_rows=args.max_rows, max_age_days=args.max_age_days
        )
        print(f"pruned {deleted} row(s); {ledger.count()} run(s) and "
              f"{ledger.load_count()} load run(s) left in {args.db}")
    return 0


def _run_ledger_estimate_error(args: argparse.Namespace) -> int:
    """``ledger estimate-error``: pre-admission estimate accuracy."""
    from .admission import estimate_error_report

    with _existing_ledger(args.db) as ledger:
        report = estimate_error_report(ledger, limit=args.limit)
    if args.json:
        _print_json(report)
    else:
        print(f"{'algorithm':<20s} {'n':>5s} {'cost MARE':>10s} "
              f"{'worst':>8s} {'dur MARE':>9s} {'worst':>8s} sources")
        for algorithm, entry in report.items():
            cm = (f"{entry['cost_mare']:.3f}"
                  if "cost_mare" in entry else "—")
            cw = (f"{entry['cost_worst']:+.2f}"
                  if "cost_worst" in entry else "—")
            dm = (f"{entry['duration_mare']:.3f}"
                  if "duration_mare" in entry else "—")
            dw = (f"{entry['duration_worst']:+.2f}"
                  if "duration_worst" in entry else "—")
            sources = ",".join(
                f"{k}:{v}" for k, v in entry["sources"].items()
            )
            print(f"{algorithm:<20.20s} {entry['n']:>5d} {cm:>10s} "
                  f"{cw:>8s} {dm:>9s} {dw:>8s} {sources}")
        print(f"{len(report)} algorithm(s) with reconciled estimates "
              f"in {args.db}")
    if not report:
        raise ReproError("no admission-reconciled rows in the ledger")
    return 0


def _run_ledger_regress(args: argparse.Namespace) -> int:
    """``ledger regress``: gate the ledger against a BENCH baseline;
    exit 1 on regression."""
    from functools import partial

    from .obs.ledger import (
        compare_load_to_baseline,
        compare_to_baseline,
        extract_baseline,
        extract_load_baseline,
    )

    try:
        with open(args.baseline) as fh:
            document = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot load baseline: {exc}") from exc
    # A BENCH document may carry a simulation baseline, a load
    # baseline, or both; gate every kind it has.
    gates = (
        (extract_baseline, partial(
            compare_to_baseline,
            makespan_threshold=args.threshold,
            cost_threshold=args.cost_threshold,
            success_threshold=args.success_threshold,
        )),
        (extract_load_baseline, partial(
            compare_load_to_baseline,
            rps_threshold=args.rps_threshold,
            p99_threshold=args.p99_threshold,
        )),
    )
    reports, errors = [], []
    with _existing_ledger(args.db) as ledger:
        for extract, compare in gates:
            try:
                baseline = extract(document)
            except ValueError as exc:
                errors.append(str(exc))
                continue
            reports.append(compare(ledger, baseline, stat=args.stat,
                                   confidence=args.confidence))
            print(reports[-1].render())
    if not reports:
        raise ReproError(f"cannot load baseline: {'; '.join(errors)}")
    if not any(report.deltas for report in reports):
        raise ReproError("no baseline group found in the ledger")
    return 0 if all(report.ok for report in reports) else 1


def _parse_mix(text: Optional[str], what: str) -> Optional[dict]:
    """``'name=w,name=w'`` → weighted-mix dict (None passes through)."""
    if text is None:
        return None
    mix = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, weight = part.partition("=")
        if not eq:
            raise ReproError(f"{what} entry {part!r} is not 'name=weight'")
        try:
            mix[name.strip()] = float(weight)
        except ValueError:
            raise ReproError(
                f"{what} weight in {part!r} is not a number"
            ) from None
    if not mix:
        raise ReproError(f"{what} mix is empty")
    return mix


def _arrival_config_from_args(args: argparse.Namespace):
    """Build an :class:`ArrivalConfig` from the shared ``load`` flags."""
    from .loadgen import ArrivalConfig
    from .loadgen.arrivals import load_trace_offsets

    kwargs = dict(
        process=args.process,
        rate=args.rate,
        n_requests=args.requests,
        seed=args.seed,
        burstiness=args.burstiness,
        mean_burst_s=args.mean_burst_s,
        mean_calm_s=args.mean_calm_s,
        batch_tail_alpha=args.batch_tail_alpha,
        families=tuple(args.families),
        n_tasks=tuple(args.n_tasks),
        algorithms=tuple(args.algorithms),
        budgets=tuple(args.budgets),
        spec_seeds=args.spec_seeds,
        n_reps=args.reps,
    )
    if args.trace_file:
        kwargs["trace_offsets"] = load_trace_offsets(args.trace_file)
    tenants = _parse_mix(args.tenants, "tenants")
    if tenants:
        kwargs["tenants"] = tenants
    priorities = _parse_mix(args.priorities, "priorities")
    if priorities:
        kwargs["priorities"] = priorities
    return ArrivalConfig(**kwargs)


def _run_load_sequence(args: argparse.Namespace) -> int:
    """``load sequence``: plan the arrivals and print their fingerprint."""
    from .loadgen import generate_sequence, sequence_fingerprint

    config = _arrival_config_from_args(args)
    planned = generate_sequence(config)
    if args.json:
        for p in planned:
            json.dump({"index": p.index, "offset_s": p.offset_s,
                       "fingerprint": p.fingerprint, "tenant": p.tenant,
                       "priority": p.priority}, sys.stdout,
                      sort_keys=True)
            print()
    print(f"config   {config.fingerprint()}")
    print(f"sequence {sequence_fingerprint(planned)}")
    print(f"{len(planned)} request(s) over "
          f"{planned[-1].offset_s if planned else 0.0:.2f}s "
          f"(offered {config.offered_rate:.1f} req/s)")
    for p in planned[:max(args.show, 0)]:
        print(f"  #{p.index:<5d} +{p.offset_s:8.3f}s "
              f"{p.fingerprint[:12]} {p.tenant}/{p.priority}")
    return 0


def _run_load_run(args: argparse.Namespace) -> int:
    """``load run``: replay a seeded workload, optionally archive it."""
    from .loadgen import LoadDriver

    config = _arrival_config_from_args(args)
    service = None
    target = args.target
    if target is None:
        from .service.engine import SchedulingService

        service = target = SchedulingService()
    try:
        driver = LoadDriver(
            target, concurrency=args.concurrency, pace=not args.no_pace
        )
        result = driver.run(config, label=args.label or "")
    finally:
        if service is not None:
            service.close()
    payload = result.to_dict()
    if args.out:
        with open(args.out, "w") as fh:
            _print_json(payload, fh)
    if args.json:
        _print_json(payload)
    else:
        pcts = result.percentiles()
        print(f"{result.n_requests} request(s) in "
              f"{result.duration_s:.2f}s — offered "
              f"{result.offered_rps:.1f} req/s, achieved "
              f"{result.achieved_rps:.1f} req/s")
        print("outcomes: " + ", ".join(
            f"{name}={count}"
            for name, count in sorted(result.outcomes.items())
        ))
        print(f"latency p50={pcts.get('p50', 0.0) * 1e3:.2f}ms "
              f"p95={pcts.get('p95', 0.0) * 1e3:.2f}ms "
              f"p99={pcts.get('p99', 0.0) * 1e3:.2f}ms  cost "
              f"{result.cost_total:.4f}")
        print(f"sequence {result.sequence_fp}")
    if args.db:
        with RunLedger(args.db) as ledger:
            load_id = ledger.record_load_run(result.to_row())
        print(f"archived load_run #{load_id} to {args.db}")
    return 0


def _run_load_report(args: argparse.Namespace) -> int:
    """``load report``: archived load runs as a standalone HTML page."""
    from .loadgen import write_load_report

    with _existing_ledger(args.db) as ledger:
        if args.label:
            rows = []
            for label in args.label:
                rows.extend(ledger.load_runs(label=label, limit=args.limit))
        else:
            rows = ledger.load_runs(limit=args.limit)
    if not rows:
        raise ReproError("no load runs in the ledger")
    path = write_load_report(rows, args.out, title=args.title)
    print(f"{len(rows)} load run(s) written to {path}")
    return 0


def _run_dash(args: argparse.Namespace) -> int:
    """The ``dash`` command: live terminal dashboard over a gateway."""
    from .loadgen import Dashboard

    dashboard = Dashboard(
        args.url, interval_s=args.interval, ansi=not args.no_ansi
    )
    frames = dashboard.run(
        iterations=args.iterations, events=not args.no_events
    )
    return 0 if frames > 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code.

    0 on success; 1 on a gate regression, an over-budget ``faults``
    sweep or a ``dash`` that drew no frame; 2 on bad input or any
    :class:`~repro.errors.ReproError`, reported as one ``error: …`` line
    on stderr.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
