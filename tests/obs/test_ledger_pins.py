"""Ledger storage pins: raw table tuples, decoded rows, counts, prune, events.

Fixed :class:`RunRow` and :class:`LoadRunRow` values go into a file
ledger; the test pins what lands on disk (every ``SELECT *`` column but
``version``, which carries the interpreter), what every read returns,
what ``prune`` deletes and what both tables announce on the bus. The
values were recorded from the two-table implementation, so any change to
the shared storage path that alters a stored byte, a decoded field or an
event payload shows up here.
"""

import sqlite3

from repro.obs.events import EventBus
from repro.obs.ledger import LoadRunRow, RunLedger, RunRow, _package_version

OLD, OLDER, LATER, LATEST = 1.2e9, 1.0e9, 3.0e9, 4.0e9


def run_rows():
    """Defaults, every field set, a planned-only row, an older replayed row."""
    return [
        RunRow(recorded_at=OLDER),
        RunRow(
            recorded_at=LATEST, source="sweep", fingerprint="f" * 64,
            workflow="montage-30", family="montage", n_tasks=30,
            algorithm="heft_budg", budget=12.5, sigma_ratio=0.25,
            planned_makespan=3600.5, planned_cost=11.75,
            within_budget_plan=False, sim_makespan=3700.25, sim_cost=12.0,
            success_rate=0.875, n_reps=8, n_vms=5, sched_seconds=0.125,
            elapsed_s=2.5, trace_id="trace-é", version="repro-pin/py3",
            outcome="budget_exhausted", n_faults=3,
            extra={"makespan_stats": {"mean": 3700.25, "std": 12.5, "n": 8},
                   "label": "montée", "series": [1, 2.5, None]},
        ),
        RunRow(
            recorded_at=LATER, source="cli", fingerprint="a" * 64,
            family="ligo", n_tasks=20, algorithm="minmin_budg", budget=3.0,
            planned_makespan=900.0, planned_cost=2.5,
            sim_makespan=None, sim_cost=None, success_rate=None,
            extra={"nested": {"a": [{"b": True}, {}]}},
        ),
        RunRow(
            recorded_at=OLD, source="service", fingerprint="b" * 64,
            workflow="cybershake-20", family="cybershake", n_tasks=20,
            algorithm="heft_budg", budget=4.0, sim_makespan=800.0,
            sim_cost=3.5, success_rate=1.0, n_reps=2,
        ),
    ]


def load_rows():
    """Defaults, one row with every field set, one labelled CI row."""
    return [
        LoadRunRow(recorded_at=OLDER),
        LoadRunRow(
            recorded_at=LATEST, label="charge-é", config_fingerprint="c" * 64,
            sequence_fingerprint="s" * 64, process="bursty", target="http",
            executor="thread", n_requests=40, n_ok=35, n_cached=4,
            n_rejected=3, n_errors=2, refusals={"queue_full": 2, "budget": 1},
            offered_rps=200.0, achieved_rps=187.5, duration_s=0.25,
            latency_mean_s=0.0125, latency_std_s=0.00625, p50_s=0.01,
            p95_s=0.02, p99_s=0.03, cost_total=42.5,
            stages={"admit": {"count": 35, "p50": 1e-05, "p95": 2e-05,
                              "p99": 3e-05},
                    "request": {"count": 35, "p50": 0.01, "p95": 0.02,
                                "p99": 0.03}},
            sketches={"admit": {"alpha": 0.01, "bins": {"-5": 3, "7": [1, 2]},
                                "zero": 0}},
            version="repro-pin/py3",
            extra={"n_stage_violations": 1, "note": "ünïcode"},
        ),
        LoadRunRow(
            recorded_at=LATER, label="ci-load", config_fingerprint="d" * 64,
            n_requests=40, n_ok=40, offered_rps=200.0, achieved_rps=199.0,
            p99_s=0.005,
        ),
    ]


def _norm(data):
    """``to_dict`` with the stamped package version replaced by a token."""
    out = dict(data)
    if out["version"] == _package_version():
        out["version"] = "<package>"
    return out


def _raw(path, table, key):
    conn = sqlite3.connect(path)
    try:
        cursor = conn.execute(f"SELECT * FROM {table} ORDER BY {key}")
        names = [d[0] for d in cursor.description]
        keep = [i for i, n in enumerate(names) if n != "version"]
        return [tuple(r[i] for i in keep) for r in cursor.fetchall()]
    finally:
        conn.close()


def _ids(rows, key):
    return [getattr(r, key) for r in rows]


def observe(tmp_path):
    """Everything the pins compare, from one fresh file ledger."""
    path = str(tmp_path / "pins.db")
    bus = EventBus()
    seen = {}
    with RunLedger(path, bus=bus) as ledger:
        seen["run_ids"] = [ledger.record(r) for r in run_rows()]
        seen["load_ids"] = [ledger.record_load_run(r) for r in load_rows()]
        seen["run_decoded"] = [
            _norm(ledger.run(i).to_dict()) for i in seen["run_ids"]
        ]
        seen["load_decoded"] = [
            _norm(ledger.load_run(i).to_dict()) for i in seen["load_ids"]
        ]
        seen["runs"] = {
            "default": _ids(ledger.runs(), "run_id"),
            "algorithm": _ids(ledger.runs(algorithm="heft_budg"), "run_id"),
            "workflow_name": _ids(ledger.runs(workflow="montage-30"),
                                  "run_id"),
            "workflow_family": _ids(ledger.runs(workflow="ligo"), "run_id"),
            "fingerprint": _ids(ledger.runs(fingerprint="b" * 64), "run_id"),
            "source": _ids(ledger.runs(source="service"), "run_id"),
            "since": _ids(ledger.runs(since=LATER), "run_id"),
            "limit_2": _ids(ledger.runs(limit=2), "run_id"),
            "limit_0": _ids(ledger.runs(limit=0), "run_id"),
            "limit_neg": _ids(ledger.runs(limit=-3), "run_id"),
            "combined": _ids(ledger.runs(algorithm="heft_budg",
                                         source="sweep", since=OLD),
                             "run_id"),
            "none": _ids(ledger.runs(workflow="nope"), "run_id"),
        }
        seen["runs_full"] = [
            _norm(r.to_dict()) for r in ledger.runs(workflow="cybershake")
        ]
        seen["load_runs"] = {
            "default": _ids(ledger.load_runs(), "load_id"),
            "label": _ids(ledger.load_runs(label="ci-load"), "load_id"),
            "config": _ids(ledger.load_runs(config_fingerprint="c" * 64),
                           "load_id"),
            "since": _ids(ledger.load_runs(since=LATER), "load_id"),
            "limit_1": _ids(ledger.load_runs(limit=1), "load_id"),
            "limit_0": _ids(ledger.load_runs(limit=0), "load_id"),
            "none": _ids(ledger.load_runs(label="nope"), "load_id"),
        }
        seen["counts"] = (ledger.count(), ledger.load_count())
        for name, call in (("run", ledger.run), ("load_run", ledger.load_run)):
            try:
                call(99)
            except KeyError as exc:
                seen[f"{name}_missing"] = str(exc).replace(path, "<db>")
        seen["raw_runs"] = _raw(path, "runs", "run_id")
        seen["raw_load_runs"] = _raw(path, "load_runs", "load_id")
        seen["prune_age"] = ledger.prune(max_age_days=1.0)
        seen["after_age"] = (_ids(ledger.runs(limit=0), "run_id"),
                             _ids(ledger.load_runs(limit=0), "load_id"))
        seen["prune_rows"] = ledger.prune(max_rows=1)
        seen["after_rows"] = (_ids(ledger.runs(limit=0), "run_id"),
                              _ids(ledger.load_runs(limit=0), "load_id"))
        seen["prune_none"] = ledger.prune()
    seen["events"] = [(e.type, e.data) for e in bus.history()]
    return seen


def _expected_decoded(rows, key):
    """The written rows as they should read back: ids set, version stamped."""
    return [
        dict(row.to_dict(), **{key: i},
             version=row.version or "<package>")
        for i, row in enumerate(rows, start=1)
    ]


def _typed(rows):
    return [[(k, type(v).__name__) for k, v in row.items()] for row in rows]


def test_round_trip_and_unknown_fields():
    for rows, cls, noun in ((run_rows(), RunRow, "run row"),
                            (load_rows(), LoadRunRow, "load run")):
        for row in rows:
            assert cls.from_dict(row.to_dict()) == row
        try:
            cls.from_dict({"bogus": 1, "also": 2})
        except ValueError as exc:
            assert str(exc) == f"unknown {noun} fields: ['also', 'bogus']"
        else:  # pragma: no cover - the pin itself
            raise AssertionError("unknown fields accepted")


def test_decoded_rows_match_what_was_written(tmp_path):
    seen = observe(tmp_path)
    want_runs = _expected_decoded(run_rows(), "run_id")
    want_loads = _expected_decoded(load_rows(), "load_id")
    assert seen["run_decoded"] == want_runs
    assert seen["load_decoded"] == want_loads
    # equality alone would let 1 stand in for True or 0 for 0.0
    assert _typed(seen["run_decoded"]) == _typed(want_runs)
    assert _typed(seen["load_decoded"]) == _typed(want_loads)
    assert seen["runs_full"] == [want_runs[3]]
    assert _typed(seen["runs_full"]) == _typed([want_runs[3]])


def test_storage_pins(tmp_path):
    seen = observe(tmp_path)
    for key in ("run_decoded", "load_decoded", "runs_full"):
        del seen[key]
    for key, want in EXPECTED.items():
        assert seen[key] == want, key
    assert set(seen) == set(EXPECTED)


EXPECTED = {'after_age': ([3, 2], [3, 2]),
            'after_rows': ([3], [3]),
            'counts': (4, 3),
            'events': [('run.recorded',
                        {'algorithm': '',
                         'fingerprint': '',
                         'run_id': 1,
                         'sim_cost': None,
                         'sim_makespan': None,
                         'source': 'service',
                         'trace_id': '',
                         'workflow': ''}),
                       ('run.recorded',
                        {'algorithm': 'heft_budg',
                         'fingerprint': 'ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff',
                         'run_id': 2,
                         'sim_cost': 12.0,
                         'sim_makespan': 3700.25,
                         'source': 'sweep',
                         'trace_id': 'trace-é',
                         'workflow': 'montage-30'}),
                       ('run.recorded',
                        {'algorithm': 'minmin_budg',
                         'fingerprint': 'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa',
                         'run_id': 3,
                         'sim_cost': None,
                         'sim_makespan': None,
                         'source': 'cli',
                         'trace_id': '',
                         'workflow': 'ligo'}),
                       ('run.recorded',
                        {'algorithm': 'heft_budg',
                         'fingerprint': 'bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb',
                         'run_id': 4,
                         'sim_cost': 3.5,
                         'sim_makespan': 800.0,
                         'source': 'service',
                         'trace_id': '',
                         'workflow': 'cybershake-20'}),
                       ('load_run.recorded',
                        {'achieved_rps': 0.0,
                         'config_fingerprint': '',
                         'label': '',
                         'load_id': 1,
                         'n_requests': 0,
                         'p99_s': 0.0}),
                       ('load_run.recorded',
                        {'achieved_rps': 187.5,
                         'config_fingerprint': 'cccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc',
                         'label': 'charge-é',
                         'load_id': 2,
                         'n_requests': 40,
                         'p99_s': 0.03}),
                       ('load_run.recorded',
                        {'achieved_rps': 199.0,
                         'config_fingerprint': 'dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd',
                         'label': 'ci-load',
                         'load_id': 3,
                         'n_requests': 40,
                         'p99_s': 0.005})],
            'load_ids': [1, 2, 3],
            'load_run_missing': '"no load run 99 in ledger \'<db>\'"',
            'load_runs': {'config': [2],
                          'default': [3, 2, 1],
                          'label': [3],
                          'limit_0': [3, 2, 1],
                          'limit_1': [3],
                          'none': [],
                          'since': [3, 2]},
            'prune_age': 3,
            'prune_none': 0,
            'prune_rows': 2,
            'raw_load_runs': [(1, 1000000000.0, '', '', '', 'poisson',
                               'inproc', '', 0, 0, 0, 0, 0, '{}', 0.0, 0.0,
                               0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, '{}', '{}',
                               '{}'),
                              (2, 4000000000.0, 'charge-é',
                               'cccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc',
                               'ssssssssssssssssssssssssssssssssssssssssssssssssssssssssssssssss',
                               'bursty', 'http', 'thread', 40, 35, 4, 3, 2,
                               '{"budget": 1, "queue_full": 2}', 200.0, 187.5,
                               0.25, 0.0125, 0.00625, 0.01, 0.02, 0.03, 42.5,
                               '{"admit": {"count": 35, "p50": 1e-05, "p95": '
                               '2e-05, "p99": 3e-05}, "request": {"count": '
                               '35, "p50": 0.01, "p95": 0.02, "p99": 0.03}}',
                               '{"admit": {"alpha": 0.01, "bins": {"-5": 3, '
                               '"7": [1, 2]}, "zero": 0}}',
                               '{"n_stage_violations": 1, "note": '
                               '"\\u00fcn\\u00efcode"}'),
                              (3, 3000000000.0, 'ci-load',
                               'dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd',
                               '', 'poisson', 'inproc', '', 40, 40, 0, 0, 0,
                               '{}', 200.0, 199.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                               0.005, 0.0, '{}', '{}', '{}')],
            'raw_runs': [(1, 1000000000.0, 'service', '', '', '', 0, '', 0.0,
                          0.0, 0.0, 0.0, 1, None, None, None, 0, 0, 0.0, 0.0,
                          '', 'ok', 0, '{}'),
                         (2, 4000000000.0, 'sweep',
                          'ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff',
                          'montage-30', 'montage', 30, 'heft_budg', 12.5,
                          0.25, 3600.5, 11.75, 0, 3700.25, 12.0, 0.875, 8, 5,
                          0.125, 2.5, 'trace-é', 'budget_exhausted', 3,
                          '{"label": "mont\\u00e9e", "makespan_stats": '
                          '{"mean": 3700.25, "n": 8, "std": 12.5}, "series": '
                          '[1, 2.5, null]}'),
                         (3, 3000000000.0, 'cli',
                          'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa',
                          '', 'ligo', 20, 'minmin_budg', 3.0, 0.0, 900.0, 2.5,
                          1, None, None, None, 0, 0, 0.0, 0.0, '', 'ok', 0,
                          '{"nested": {"a": [{"b": true}, {}]}}'),
                         (4, 1200000000.0, 'service',
                          'bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb',
                          'cybershake-20', 'cybershake', 20, 'heft_budg', 4.0,
                          0.0, 0.0, 0.0, 1, 800.0, 3.5, 1.0, 2, 0, 0.0, 0.0,
                          '', 'ok', 0, '{}')],
            'run_ids': [1, 2, 3, 4],
            'run_missing': '"no run 99 in ledger \'<db>\'"',
            'runs': {'algorithm': [4, 2],
                     'combined': [2],
                     'default': [4, 3, 2, 1],
                     'fingerprint': [4],
                     'limit_0': [4, 3, 2, 1],
                     'limit_2': [4, 3],
                     'limit_neg': [4, 3, 2, 1],
                     'none': [],
                     'since': [3, 2],
                     'source': [4, 1],
                     'workflow_family': [3],
                     'workflow_name': [2]}}
