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
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .experiments.config import ExperimentConfig
from .experiments.figures import (
    FIGURE_ALGORITHMS,
    figure1,
    figure2,
    figure3,
    figure4,
)
from .experiments.report import (
    records_to_csv,
    render_cpu_table,
    render_figure,
)
from .experiments.tables import table2_rows, table3a, table3b

__all__ = ["main", "build_parser"]

_FIGURES = {
    "fig1": (figure1, ("makespan", "cost", "n_vms")),
    "fig2": (figure2, ("makespan", "cost", "n_vms")),
    "fig3": (figure3, ("makespan", "valid", "cost")),
    "fig4": (figure4, ("makespan",)),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-exp`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Regenerate the figures and tables of Caniou et al., "
        "IPDPSW 2018 (budget-aware workflow scheduling).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _FIGURES:
        p = sub.add_parser(name, help=f"regenerate paper {name}")
        p.add_argument("--smoke", action="store_true",
                       help="down-scaled run (seconds instead of minutes)")
        p.add_argument("--tasks", type=int, default=None,
                       help="workflow size (paper: 90)")
        p.add_argument("--instances", type=int, default=None,
                       help="instances per family (paper: 5)")
        p.add_argument("--reps", type=int, default=None,
                       help="stochastic repetitions per point (paper: 25)")
        p.add_argument("--budgets", type=int, default=None,
                       help="budget grid points per workflow")
        p.add_argument("--sigma", type=float, default=None,
                       help="sigma/mean ratio (paper: 0.25..1.0)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--csv", type=str, default=None,
                       help="also dump raw run records to this CSV file")
        p.add_argument("--ledger", type=str, default=None,
                       help="archive every sweep point into this SQLite "
                       "run ledger")

    t2 = sub.add_parser("table2", help="print the platform constants")

    sigma = sub.add_parser(
        "sigma", help="sigma-impact study (§V-B / extended version)"
    )
    sigma.add_argument("--tasks", type=int, default=90)
    sigma.add_argument("--reps", type=int, default=25)
    sigma.add_argument("--position", type=float, default=0.4,
                       help="budget position on [B_min, B_high] (0..1)")

    frontier = sub.add_parser(
        "frontier", help="minimal budget to match the baseline makespan"
    )
    frontier.add_argument("--sizes", type=int, nargs="+", default=[30, 60, 90])

    for name in ("table3a", "table3b"):
        p = sub.add_parser(name, help=f"regenerate paper {name}")
        p.add_argument("--repeats", type=int, default=3,
                       help="scheduling timing repetitions")
        p.add_argument("--tasks", type=int, default=90,
                       help="workflow size for table3a")
        p.add_argument("--refined", action="store_true",
                       help="include the (slow) refined variants")

    srv = sub.add_parser(
        "serve", help="run the scheduling service HTTP gateway"
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

    wrk = sub.add_parser(
        "worker",
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

    sch = sub.add_parser(
        "schedule", help="one-shot scheduling request, JSON response on stdout"
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
    group = sch.add_mutually_exclusive_group()
    group.add_argument("--budget", type=float, default=None,
                       help="absolute budget in dollars")
    group.add_argument("--position", type=float, default=0.5,
                       help="budget position on [B_min, B_high] (0..1)")
    sch.add_argument("--reps", type=int, default=0,
                     help="stochastic evaluation repetitions")
    sch.add_argument("--no-schedule-payload", action="store_true",
                     help="omit the full schedule dict from the output")
    _add_logging_flags(sch)

    trc = sub.add_parser(
        "trace",
        help="run one schedule+simulate with tracing enabled and export a "
        "Perfetto-loadable .trace.json plus a JSONL decision log",
    )
    trc.add_argument("--workflow", default="montage",
                     help="workflow generator family")
    trc.add_argument("--n", type=int, default=50, help="workflow size")
    trc.add_argument("--algo", default="heft_budg",
                     help="scheduling algorithm (see /v1/schedulers)")
    trc.add_argument("--seed", type=int, default=1,
                     help="workflow generator seed")
    trc.add_argument("--sigma", type=float, default=0.5,
                     help="sigma/mean ratio")
    tgroup = trc.add_mutually_exclusive_group()
    tgroup.add_argument("--budget", type=float, default=None,
                        help="absolute budget in dollars")
    tgroup.add_argument("--position", type=float, default=0.5,
                        help="budget position on [B_min, B_high] (0..1)")
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

    slo = sub.add_parser(
        "slo",
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

    prof = sub.add_parser(
        "profile",
        help="sampling profiler over one schedule+simulate run; prints the "
        "top frames and can write collapsed stacks for flamegraphs",
    )
    prof.add_argument("--workflow", default="montage",
                      help="workflow generator family")
    prof.add_argument("--n", type=int, default=90, help="workflow size")
    prof.add_argument("--algo", default="heft_budg",
                      help="scheduling algorithm (see /v1/schedulers)")
    prof.add_argument("--seed", type=int, default=1,
                      help="workflow generator seed")
    prof.add_argument("--sigma", type=float, default=0.5,
                      help="sigma/mean ratio")
    pgroup = prof.add_mutually_exclusive_group()
    pgroup.add_argument("--budget", type=float, default=None,
                        help="absolute budget in dollars")
    pgroup.add_argument("--position", type=float, default=0.5,
                        help="budget position on [B_min, B_high] (0..1)")
    prof.add_argument("--reps", type=int, default=25,
                      help="Monte Carlo replications to profile")
    prof.add_argument("--interval", type=float, default=0.005,
                      help="sampling period in seconds (default 5 ms)")
    prof.add_argument("--top", type=int, default=15,
                      help="rows in the top-frames table")
    prof.add_argument("--out", default=None,
                      help="write collapsed stacks (flamegraph.pl / "
                      "speedscope input) to this path")

    flt = sub.add_parser(
        "faults",
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
    flt.add_argument("--workers", type=str, default="0",
                     help="worker processes for the sweep cells, or a "
                     "'host:port,host:port' cluster node list (0 = serial; "
                     "results are bit-identical either way)")

    led = sub.add_parser(
        "ledger",
        help="query the persistent run ledger and gate regressions",
    )
    lsub = led.add_subparsers(dest="ledger_command", required=True)

    def _db_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--db", default="runs.db",
                       help="ledger SQLite file (default: runs.db)")

    l_sweep = lsub.add_parser(
        "sweep", help="run an experiment sweep, archiving every point"
    )
    _db_flag(l_sweep)
    l_sweep.add_argument("--smoke", action="store_true",
                         help="down-scaled run (seconds instead of minutes)")
    l_sweep.add_argument("--tasks", type=int, default=None)
    l_sweep.add_argument("--instances", type=int, default=None)
    l_sweep.add_argument("--reps", type=int, default=None)
    l_sweep.add_argument("--budgets", type=int, default=None)
    l_sweep.add_argument("--sigma", type=float, default=None)
    l_sweep.add_argument("--seed", type=int, default=None)
    l_sweep.add_argument("--families", nargs="+", default=None,
                         help="workflow families (default: config's)")
    l_sweep.add_argument("--algorithms", nargs="+", default=None,
                         help="algorithms (default: config's)")
    l_sweep.add_argument("--workers", type=str, default="0",
                         help="worker processes for the sweep points, or a "
                         "'host:port,host:port' cluster node list (0 = "
                         "serial; results are bit-identical either way)")

    l_list = lsub.add_parser("list", help="newest archived runs")
    _db_flag(l_list)
    l_list.add_argument("--algorithm", default=None)
    l_list.add_argument("--workflow", default=None,
                        help="workflow name or family")
    l_list.add_argument("--source", default=None,
                        help="run source (service | sweep)")
    l_list.add_argument("--limit", type=int, default=20,
                        help="max rows (0 = all)")
    l_list.add_argument("--csv", type=str, default=None,
                        help="write the rows as CSV instead of a table")

    l_show = lsub.add_parser("show", help="one archived run, as JSON")
    _db_flag(l_show)
    l_show.add_argument("run_id", type=int)

    l_cmp = lsub.add_parser(
        "compare", help="per family/n_tasks/algorithm group means"
    )
    _db_flag(l_cmp)
    l_cmp.add_argument("--latest", type=int, default=0,
                       help="only each group's newest N runs (0 = all)")

    l_base = lsub.add_parser(
        "baseline",
        help="fold the ledger into a BENCH-style ledger_baseline JSON",
    )
    _db_flag(l_base)
    l_base.add_argument("--latest", type=int, default=0,
                        help="only each group's newest N runs (0 = all)")
    l_base.add_argument("--out", type=str, default=None,
                        help="write to this file instead of stdout")

    l_reg = lsub.add_parser(
        "regress",
        help="compare the ledger against a BENCH_*.json baseline; "
        "exit 1 on regression, 2 on no data",
    )
    _db_flag(l_reg)
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

    l_prune = lsub.add_parser(
        "prune", help="delete old ledger rows to keep the database bounded"
    )
    _db_flag(l_prune)
    l_prune.add_argument("--max-rows", type=int, default=None,
                         help="keep only the newest N rows")
    l_prune.add_argument("--max-age-days", type=float, default=None,
                         help="drop rows older than this many days")

    l_est = lsub.add_parser(
        "estimate-error",
        help="summarize pre-admission estimate accuracy per algorithm "
        "(needs rows recorded by an admission-enabled service)",
    )
    _db_flag(l_est)
    l_est.add_argument("--limit", type=int, default=0,
                       help="scan only the newest N rows (default: all)")
    l_est.add_argument("--json", action="store_true",
                       help="emit the report as JSON instead of a table")

    ld = sub.add_parser(
        "load",
        help="seeded open-loop load generation (the load observatory)",
    )
    ldsub = ld.add_subparsers(dest="load_command", required=True)

    def _arrival_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--process", default="poisson",
                       choices=("poisson", "mmpp", "trace"),
                       help="arrival process (default: poisson)")
        p.add_argument("--rate", type=float, default=50.0,
                       help="long-run offered rate, requests/s (default: 50)")
        p.add_argument("--requests", type=int, default=1000,
                       help="total planned requests (default: 1000)")
        p.add_argument("--seed", type=int, default=0,
                       help="sequence seed — same seed, same sequence")
        p.add_argument("--burstiness", type=float, default=4.0,
                       help="mmpp burst:calm rate ratio (default: 4)")
        p.add_argument("--mean-burst-s", type=float, default=2.0,
                       help="mmpp mean burst dwell (default: 2s)")
        p.add_argument("--mean-calm-s", type=float, default=8.0,
                       help="mmpp mean calm dwell (default: 8s)")
        p.add_argument("--batch-tail-alpha", type=float, default=0.0,
                       help="Pareto tail for batched arrivals "
                       "(0 disables; smaller = heavier tail)")
        p.add_argument("--trace-file", default=None,
                       help="arrival offsets file for --process trace")
        p.add_argument("--families", nargs="+", default=["montage", "ligo"],
                       help="workflow families in the spec pool")
        p.add_argument("--n-tasks", nargs="+", type=int, default=[15],
                       help="workflow sizes in the spec pool")
        p.add_argument("--algorithms", nargs="+", default=["heft_budg"],
                       help="algorithms in the spec pool")
        p.add_argument("--budgets", nargs="+", type=float, default=[2.0],
                       help="budget positions in the spec pool")
        p.add_argument("--spec-seeds", type=int, default=3,
                       help="workflow RNG seeds per pool entry (default: 3)")
        p.add_argument("--reps", type=int, default=2,
                       help="Monte-Carlo reps per request (default: 2)")
        p.add_argument("--tenants", default=None,
                       help="weighted tenant mix, 'name=w,name=w' "
                       "(default: one 'default' tenant)")
        p.add_argument("--priorities", default=None,
                       help="weighted priority mix, 'name=w,name=w'")

    l_run = ldsub.add_parser(
        "run", help="replay a seeded workload and archive the load_run"
    )
    _arrival_flags(l_run)
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

    l_seq = ldsub.add_parser(
        "sequence",
        help="plan the request sequence and print its fingerprint "
        "(no requests are sent)",
    )
    _arrival_flags(l_seq)
    l_seq.add_argument("--show", type=int, default=10,
                       help="print the first N planned arrivals "
                       "(default: 10; 0 = none)")
    l_seq.add_argument("--json", action="store_true",
                       help="dump every planned arrival as JSON lines")

    l_rep = ldsub.add_parser(
        "report",
        help="render archived load runs as a standalone HTML report",
    )
    l_rep.add_argument("--db", default="runs.db",
                       help="ledger SQLite file (default: runs.db)")
    l_rep.add_argument("--label", action="append", default=None,
                       help="only runs with this label (repeatable)")
    l_rep.add_argument("--limit", type=int, default=50,
                       help="newest N runs per query (default: 50)")
    l_rep.add_argument("--out", default="load_report.html",
                       help="output file (default: load_report.html)")
    l_rep.add_argument("--title", default="Load observatory report")

    dash = sub.add_parser(
        "dash",
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


def _add_logging_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log-level", default="info",
                        choices=("debug", "info", "warning", "error",
                                 "critical"),
                        help="structured logging threshold")
    parser.add_argument("--log-json", action="store_true",
                        help="emit logs as JSON lines instead of key=value")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.smoke() if args.smoke else ExperimentConfig.paper_scale()
    overrides = {}
    if args.tasks is not None:
        overrides["n_tasks"] = args.tasks
    if args.instances is not None:
        overrides["n_instances"] = args.instances
    if args.reps is not None:
        overrides["n_reps"] = args.reps
    if args.budgets is not None:
        overrides["budgets_per_workflow"] = args.budgets
    if args.sigma is not None:
        overrides["sigma_ratio"] = args.sigma
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    return cfg


def _run_schedule(args: argparse.Namespace) -> int:
    """The ``schedule`` subcommand: one request in, one JSON response out."""
    import json

    from .errors import ServiceError
    from .service import SchedulingService

    if args.request is not None:
        try:
            if args.request == "-":
                payload = json.load(sys.stdin)
            else:
                with open(args.request) as fh:
                    payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read request: {exc}", file=sys.stderr)
            return 2
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
        try:
            response = svc.schedule(payload)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    out = response.to_dict()
    if args.no_schedule_payload:
        out.pop("schedule")
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    """The ``trace`` subcommand: one traced schedule+simulate, two files."""
    from .errors import ReproError
    from .obs import Tracer, use_tracer
    from .obs.export import write_chrome_trace, write_decision_log
    from .platform.cloud import PAPER_PLATFORM
    from .scheduling.registry import make_scheduler
    from .service.spec import BudgetSpec
    from .simulation.executor import evaluate_schedule
    from .workflow.generators import generate

    try:
        wf = generate(args.workflow, args.n, rng=args.seed,
                      sigma_ratio=args.sigma)
        budget_spec = (
            BudgetSpec(amount=args.budget) if args.budget is not None
            else BudgetSpec(position=args.position)
        )
        budget = budget_spec.resolve(wf, PAPER_PLATFORM)
        tracer = Tracer()
        n_worker_spans = 0
        with use_tracer(tracer):
            with tracer.span("trace.session", workflow=args.workflow,
                             n_tasks=args.n, algorithm=args.algo,
                             budget=budget):
                result = make_scheduler(args.algo).schedule(
                    wf, PAPER_PLATFORM, budget
                )
                run = evaluate_schedule(wf, PAPER_PLATFORM, result.schedule)
                if args.workers > 0 and args.reps > 0:
                    n_worker_spans = _traced_replications(
                        tracer, wf, result.schedule, budget,
                        n_reps=args.reps, workers=args.workers,
                    )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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
        print(f"worker spans    : {n_worker_spans} merged from "
              f"{args.workers} worker process(es) ({args.reps} reps)")
    print(f"trace           : {args.out} "
          f"({len(doc['traceEvents'])} events; open in ui.perfetto.dev)")
    print(f"decision log    : {decisions_path} ({n_decisions} records)")
    return 0


def _traced_replications(tracer, wf, schedule, budget, *, n_reps: int,
                         workers: int) -> int:
    """Run the Monte Carlo replications on a worker pool under the trace.

    Shards exactly like :func:`repro.experiments.runner` does; each worker
    runs a worker-local tracer carrying the parent's trace id, and
    :meth:`repro.parallel.WorkerPool.map` merges the per-shard spans back
    into ``tracer``. Returns how many spans the merge added.
    """
    from .parallel import ShardPlan, WorkerPool
    from .platform.cloud import PAPER_PLATFORM
    from .rng import as_generator, spawn_seeds
    from .simulation.executor import run_replications

    seeds = spawn_seeds(as_generator(0), n_reps)
    plan = ShardPlan.plan(n_reps, workers)
    shard_tasks = [{
        "wf": wf,
        "platform": PAPER_PLATFORM,
        "schedule": schedule,
        "budget": budget,
        "seeds": list(shard.slice(seeds)),
        "validate_first": shard.start == 0,
    } for shard in plan.shards]
    before = len(tracer.spans)
    with tracer.span("trace.replications", n_reps=n_reps,
                     n_shards=len(plan.shards), workers=workers):
        if plan.is_serial:
            for task in shard_tasks:
                run_replications(task)
        else:
            with WorkerPool(workers) as pool:
                pool.map(run_replications, shard_tasks)
    return len(tracer.spans) - before - 1  # minus our own wrapper span


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
    import json

    if args.url is not None:
        import urllib.error
        import urllib.request

        url = args.url.rstrip("/") + "/v1/slo"
        try:
            with urllib.request.urlopen(url, timeout=10.0) as resp:
                report = json.load(resp)
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot fetch {url}: {exc}", file=sys.stderr)
            return 2
    else:
        from .obs.ledger import RunLedger
        from .obs.slo import report_from_rows

        with RunLedger(args.db) as ledger:
            rows = ledger.runs(source="service", limit=args.limit)
        report = report_from_rows(rows)
        if not rows:
            print(f"error: no service rows in {args.db}", file=sys.stderr)
            return 2

    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(_render_slo_report(report))
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    """The ``profile`` subcommand: sample one schedule+simulate run."""
    from .errors import ReproError
    from .obs.profiler import SamplingProfiler
    from .platform.cloud import PAPER_PLATFORM
    from .rng import as_generator, spawn_seeds
    from .scheduling.registry import make_scheduler
    from .service.spec import BudgetSpec
    from .simulation.executor import run_replications
    from .workflow.generators import generate

    try:
        wf = generate(args.workflow, args.n, rng=args.seed,
                      sigma_ratio=args.sigma)
        budget_spec = (
            BudgetSpec(amount=args.budget) if args.budget is not None
            else BudgetSpec(position=args.position)
        )
        budget = budget_spec.resolve(wf, PAPER_PLATFORM)
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
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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
    from .errors import ClusterProtocolError

    try:
        host, port = parse_address(args.listen)
    except ClusterProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    ``--reserves`` axis maps the contingency-reserve frontier.
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
    if args.ledger:
        from .obs.ledger import RunLedger, use_ledger

        with RunLedger(args.ledger) as ledger:
            with use_ledger(ledger):
                study = sweep(**kwargs)
            print(render_resilience(study))
            print(f"archived {ledger.count()} run(s) to {args.ledger}")
    else:
        study = sweep(**kwargs)
        print(render_resilience(study))
    over = sum(p.n_over_budget for p in study.points)
    return 1 if over else 0


def _run_ledger(args: argparse.Namespace) -> int:
    """The ``ledger`` subcommand group: archive, query, gate."""
    import json
    from functools import partial

    from .obs.ledger import (
        RunLedger,
        baseline_from_ledger,
        compare_load_to_baseline,
        compare_to_baseline,
        extract_baseline,
        extract_load_baseline,
        load_baseline_from_ledger,
        use_ledger,
    )

    cmd = args.ledger_command
    if cmd == "sweep":
        from dataclasses import replace

        from .experiments.runner import run_sweep

        cfg = _config_from_args(args)
        overrides = {}
        if args.families:
            overrides["families"] = tuple(args.families)
        if args.algorithms:
            overrides["algorithms"] = tuple(args.algorithms)
        if overrides:
            cfg = replace(cfg, **overrides)
        with RunLedger(args.db) as ledger:
            with use_ledger(ledger):
                records = run_sweep(cfg, workers=args.workers)
            n_runs = ledger.count()
        print(f"archived {n_runs} run(s) ({len(records)} repetition records) "
              f"to {args.db}")
        return 0

    with RunLedger(args.db) as ledger:
        if cmd == "list":
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

        if cmd == "show":
            try:
                row = ledger.run(args.run_id)
            except KeyError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            json.dump(row.to_dict(), sys.stdout, indent=2, sort_keys=True)
            print()
            return 0

        if cmd == "compare":
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

        if cmd == "baseline":
            baseline = baseline_from_ledger(
                ledger, latest_per_group=args.latest
            )
            doc = {"ledger_baseline": baseline}
            load_baseline = load_baseline_from_ledger(
                ledger, latest_per_group=args.latest
            )
            if load_baseline:
                doc["load_baseline"] = load_baseline
            if args.out:
                with open(args.out, "w") as fh:
                    json.dump(doc, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                print(f"{len(baseline)} run group(s) + {len(load_baseline)} "
                      f"load group(s) written to {args.out}")
            else:
                json.dump(doc, sys.stdout, indent=2, sort_keys=True)
                print()
            if not baseline and not load_baseline:
                print("error: no simulated or load runs in the ledger",
                      file=sys.stderr)
                return 2
            return 0

        if cmd == "prune":
            if args.max_rows is None and args.max_age_days is None:
                print("error: pass --max-rows and/or --max-age-days",
                      file=sys.stderr)
                return 2
            deleted = ledger.prune(
                max_rows=args.max_rows, max_age_days=args.max_age_days
            )
            print(f"pruned {deleted} run(s); {ledger.count()} left in "
                  f"{args.db}")
            return 0

        if cmd == "estimate-error":
            from .admission import estimate_error_report

            report = estimate_error_report(ledger, limit=args.limit)
            if args.json:
                json.dump(report, sys.stdout, indent=2, sort_keys=True)
                print()
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
                print("error: no admission-reconciled rows in the ledger",
                      file=sys.stderr)
                return 2
            return 0

        if cmd == "regress":
            try:
                with open(args.baseline) as fh:
                    document = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"error: cannot load baseline: {exc}", file=sys.stderr)
                return 2
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
                print(f"error: cannot load baseline: {'; '.join(errors)}",
                      file=sys.stderr)
                return 2
            if not any(report.deltas for report in reports):
                print("error: no baseline group found in the ledger",
                      file=sys.stderr)
                return 2
            return 0 if all(report.ok for report in reports) else 1

    return 1  # pragma: no cover - argparse guards subcommands


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
            raise SystemExit(
                f"error: {what} entry {part!r} is not 'name=weight'"
            )
        try:
            mix[name.strip()] = float(weight)
        except ValueError:
            raise SystemExit(
                f"error: {what} weight in {part!r} is not a number"
            ) from None
    if not mix:
        raise SystemExit(f"error: {what} mix is empty")
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


def _run_load(args: argparse.Namespace) -> int:
    """The ``load`` subcommand group: sequence, run, report."""
    import json

    from .errors import ServiceError

    cmd = args.load_command
    if cmd == "sequence":
        from .loadgen import generate_sequence, sequence_fingerprint

        try:
            config = _arrival_config_from_args(args)
            planned = generate_sequence(config)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
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

    if cmd == "run":
        from .loadgen import LoadDriver

        try:
            config = _arrival_config_from_args(args)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        service = None
        target = args.target
        if target is None:
            from .service.engine import SchedulingService

            service = SchedulingService()
            target = service
        driver = LoadDriver(
            target, concurrency=args.concurrency, pace=not args.no_pace
        )
        try:
            result = driver.run(config, label=args.label)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            if service is not None:
                service.close()
        payload = result.to_dict()
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        if args.json:
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            print()
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
            from .obs.ledger import RunLedger

            with RunLedger(args.db) as ledger:
                load_id = ledger.record_load_run(result.to_row())
            print(f"archived load_run #{load_id} to {args.db}")
        return 0

    if cmd == "report":
        from .loadgen import write_load_report
        from .obs.ledger import RunLedger

        with RunLedger(args.db) as ledger:
            if args.label:
                rows = []
                for label in args.label:
                    rows.extend(ledger.load_runs(
                        label=label, limit=args.limit
                    ))
            else:
                rows = ledger.load_runs(limit=args.limit)
        if not rows:
            print("error: no load runs in the ledger", file=sys.stderr)
            return 2
        path = write_load_report(rows, args.out, title=args.title)
        print(f"{len(rows)} load run(s) written to {path}")
        return 0

    return 1  # pragma: no cover - argparse guards subcommands


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
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command in _FIGURES:
        builder, metrics = _FIGURES[args.command]
        if args.ledger:
            from .obs.ledger import RunLedger, use_ledger

            with RunLedger(args.ledger) as ledger:
                with use_ledger(ledger):
                    data = builder(_config_from_args(args))
                print(f"archived {ledger.count()} run(s) to {args.ledger}")
        else:
            data = builder(_config_from_args(args))
        for metric in metrics:
            print(render_figure(data, metric=metric))
        if args.csv:
            with open(args.csv, "w", newline="") as fh:
                records_to_csv(data.records, fh)
            print(f"raw records written to {args.csv}")
        return 0

    if args.command == "table2":
        for key, value in table2_rows():
            print(f"{key:>14s}: {value}")
        return 0

    if args.command == "sigma":
        from .experiments.sigma_study import render_sigma_study, sigma_study

        study = sigma_study(
            n_tasks=args.tasks, n_reps=args.reps,
            budget_position=args.position,
        )
        print(render_sigma_study(study))
        return 0

    if args.command == "frontier":
        from .experiments.budget_frontier import frontier_study, render_frontier

        print(render_frontier(frontier_study(sizes=tuple(args.sizes))))
        return 0

    algorithms = ["minmin", "heft", "minmin_budg", "heft_budg", "bdt", "cg"]
    if args.command == "table3a":
        if args.refined:
            algorithms += ["heft_budg_plus", "heft_budg_plus_inv", "cg_plus"]
        table = table3a(
            n_tasks=args.tasks, repeats=args.repeats, algorithms=algorithms
        )
        print(render_cpu_table(table, title="Table III(a): CPU time vs budget"))
        return 0

    if args.command == "serve":
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

    if args.command == "worker":
        return _run_worker(args)

    if args.command == "schedule":
        from .obs.logging import configure_logging

        configure_logging(level=args.log_level, json_mode=args.log_json)
        return _run_schedule(args)

    if args.command == "trace":
        return _run_trace(args)

    if args.command == "slo":
        return _run_slo(args)

    if args.command == "profile":
        return _run_profile(args)

    if args.command == "faults":
        return _run_faults(args)

    if args.command == "ledger":
        return _run_ledger(args)

    if args.command == "load":
        return _run_load(args)

    if args.command == "dash":
        return _run_dash(args)

    if args.command == "table3b":
        if args.refined:
            algorithms += ["heft_budg_plus", "heft_budg_plus_inv"]
        table = table3b(repeats=args.repeats, algorithms=algorithms)
        print(render_cpu_table(table, title="Table III(b): CPU time vs size"))
        return 0

    return 1  # pragma: no cover - argparse guards commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
