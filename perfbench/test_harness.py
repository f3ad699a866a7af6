"""Tests of the benchmark's own arithmetic (no system under test needed).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_harness.py -q
"""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import Outcome, Phase, run_rounds  # noqa: E402
from harness import (  # noqa: E402
    SpanRecorder,
    due_times,
    layer_shares,
    open_loop_latency,
    percentile,
    samples_for_tail,
    self_times,
    self_times_by_root,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestPercentile:
    def test_interpolates_between_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5
        assert percentile(values, 75) == pytest.approx(3.25)

    def test_single_value(self):
        assert percentile([7.0], 95) == 7.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestTailRule:
    @pytest.mark.parametrize("p,expected", [
        (90.0, 100), (95.0, 200), (99.0, 1000), (99.9, 10000), (50.0, 20),
    ])
    def test_ten_samples_beyond_the_tail(self, p, expected):
        n = samples_for_tail(p)
        assert n == expected
        assert n * (1 - p / 100) >= 10 - 1e-9
        assert (n - 1) * (1 - p / 100) < 10

    def test_rejects_the_maximum(self):
        with pytest.raises(ValueError):
            samples_for_tail(100.0)


class TestOpenLoop:
    def test_due_times_follow_the_rate(self):
        assert due_times(10.0, 4.0, 3) == [10.0, 10.25, 10.5]
        with pytest.raises(ValueError):
            due_times(0.0, 0.0, 1)

    def test_latency_counts_from_due_time(self):
        # Due at 1.0, sent late at 1.3 (connection busy), done at 1.4:
        # the 0.3 s stall counts against the request.
        latency, lateness = open_loop_latency(1.0, 1.3, 1.4)
        assert latency == pytest.approx(0.4)
        assert lateness == pytest.approx(0.3)

    def test_early_send_has_no_lateness(self):
        latency, lateness = open_loop_latency(2.0, 1.999, 2.5)
        assert latency == pytest.approx(0.5)
        assert lateness == 0.0

    def test_done_before_sent_is_an_error(self):
        with pytest.raises(ValueError):
            open_loop_latency(1.0, 2.0, 1.5)


class TestSelfTime:
    def test_nested_spans(self):
        clock = FakeClock()
        rec = SpanRecorder(clock=clock)
        outer = rec.open("a.outer")          # 0 .. 10
        clock.now = 1.0
        inner = rec.open("b.inner")          # 1 .. 4
        clock.now = 2.0
        leaf = rec.open("c.leaf")            # 2 .. 3
        clock.now = 3.0
        rec.close(leaf)
        clock.now = 4.0
        rec.close(inner)
        clock.now = 6.0
        second = rec.open("b.inner")         # 6 .. 7
        clock.now = 7.0
        rec.close(second)
        clock.now = 10.0
        rec.close(outer)
        assert self_times(rec.spans) == pytest.approx(
            {"a.outer": 6.0, "b.inner": 3.0, "c.leaf": 1.0})

    def test_overlapping_children_count_once(self):
        spans = [
            ["p.parent", 0.0, 10.0, None, None, 0.0],
            ["t.child", 1.0, 5.0, 0, None, 0.0],
            ["t.child", 3.0, 6.0, 0, None, 0.0],
        ]
        assert self_times(spans)["p.parent"] == pytest.approx(5.0)

    def test_leaf_time_is_charged_to_the_open_span(self):
        clock = FakeClock()
        rec = SpanRecorder(clock=clock)
        index = rec.open("sim.execute")
        rec.leaf("sim.pool", 0.25)
        rec.leaf("sim.pool", 0.25)
        clock.now = 2.0
        rec.close(index)
        assert self_times(rec.spans)["sim.execute"] == pytest.approx(1.5)
        assert rec.leaves()["sim.pool"] == (0.5, 2)

    def test_range_restricts_to_a_phase(self):
        clock = FakeClock()
        rec = SpanRecorder(clock=clock)
        with rec.span("x.first"):
            clock.now = 1.0
        first = len(rec.spans)
        with rec.span("x.second"):
            clock.now = 3.0
        assert self_times(rec.spans, first) == {"x.second": 2.0}

    def test_grouped_by_root(self):
        spans = [
            ["bench.list", 0.0, 4.0, None, None, 0.0],
            ["sched.plan", 1.0, 3.0, 0, None, 0.0],
            ["bench.replay", 4.0, 9.0, None, None, 1.0],
            ["sim.execute", 5.0, 8.0, 2, None, 2.0],
        ]
        assert self_times_by_root(spans) == {
            "bench.list": {"bench.list": 2.0, "sched.plan": 2.0},
            "bench.replay": {"bench.replay": 1.0, "sim.execute": 1.0},
        }
        assert self_times_by_root(spans, 2) == {
            "bench.replay": {"bench.replay": 1.0, "sim.execute": 1.0}}

    def test_threads_keep_separate_stacks(self):
        rec = SpanRecorder()
        barrier = threading.Barrier(2)

        def work(name):
            with rec.span(f"{name}.root"):
                barrier.wait(timeout=5)
                with rec.span(f"{name}.child"):
                    pass

        threads = [threading.Thread(target=work, args=(n,)) for n in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)
        by_name = {s[0]: i for i, s in enumerate(rec.spans)}
        assert rec.spans[by_name["a.child"]][3] == by_name["a.root"]
        assert rec.spans[by_name["b.child"]][3] == by_name["b.root"]

    def test_request_ids_tag_spans(self):
        rec = SpanRecorder()
        rec.set_request("req-1")
        with rec.span("service.schedule"):
            pass
        rec.set_request(None)
        assert rec.spans[0][4] == "req-1"


class TestShares:
    def test_modules_and_other_partition_wall(self):
        shares = layer_shares({"sched.plan": 3.0, "sched.eval": 1.0,
                               "bench.list": 0.5}, {"sim.pool": 2.0}, 10.0)
        assert shares == pytest.approx({"sched": 0.4, "sim": 0.2, "other": 0.4})


class TestRounds:
    def test_rate_weights_every_item_once(self):
        clock = FakeClock()
        costs = {"a": [1.0, 3.0, 2.0], "b": [2.0, 2.0, 2.0]}
        calls = {"a": 0, "b": 0}

        def fn(item, visit):
            assert visit == calls[item]
            clock.now += costs[item][calls[item]]
            calls[item] += 1

        phase = Phase("p", ["a", "b"], fn, unit_per_item=4, per_round=2)
        run_rounds([phase], 7.0, 1, Outcome(), clock=clock)
        # Whole rounds of both items: 3 s, 8 s — past 7 s after two.
        assert [len(t) for t in phase.times] == [2, 2]
        # Mean of "a" is 2 s, of "b" 2 s: 8 units per 4 s.
        assert phase.rate() == pytest.approx(2.0)
        assert phase.n_units == 16

    def test_a_cycle_spans_rounds_and_always_completes(self):
        clock = FakeClock()
        seen = []

        def fn(item, visit):
            seen.append((item, visit))
            clock.now += 1.0

        phase = Phase("p", ["a", "b", "c"], fn, per_round=2)
        run_rounds([phase], 0.0, 1, Outcome(), clock=clock)
        # Two rounds: every item once, then the walk wraps around.
        assert sorted(seen[:3]) == [("a", 0), ("b", 0), ("c", 0)]
        assert seen[3][1] == 1 and len(seen) == 4

    def test_phases_interleave_round_by_round(self):
        seen = []
        clock = FakeClock()

        def tick(item, visit):
            seen.append((item, visit))
            clock.now += 1.0

        phases = [Phase(name, [name], tick) for name in ("x", "y")]
        run_rounds(phases, 3.0, 1, Outcome(), clock=clock)
        assert seen == [("x", 0), ("y", 0), ("x", 1), ("y", 1)]

    def test_equal_item_counts_walk_in_the_same_order(self):
        walks = {"p": [], "q": []}
        phases = [Phase(name, list(range(6)),
                        lambda item, visit, name=name: walks[name].append(item))
                  for name in ("p", "q")]
        run_rounds(phases, 0.0, 7, Outcome())
        assert walks["p"] == walks["q"]

    def test_done_extends_the_run(self):
        clock = FakeClock()
        calls = []

        def fn(item, visit):
            calls.append(visit)
            clock.now += 1.0

        run_rounds([Phase("p", ["a"], fn)], 0.0, 1, Outcome(), clock=clock,
                   done=lambda: len(calls) >= 3)
        assert calls == [0, 1, 2]

    def test_traced_rounds_report_first_visit_counts(self):
        clock = FakeClock()
        rec = SpanRecorder(clock=clock)

        def fn(item, visit):
            rec.count("work.units", 5)
            clock.now += 1.0

        phase = Phase("p", ["a"], fn)
        trace = run_rounds([phase], 2.0, 1, Outcome(), rec=rec, clock=clock)
        assert trace["p"]["first"] == {"work.units": 5}
        assert trace["p"]["leaves"]["work.units"] == (0.0, 10)
        assert trace["p"]["wall"] == pytest.approx(2.0)
        assert [s[0] for s in rec.spans] == ["bench.p", "bench.p"]

    def test_failures_are_counted(self):
        outcome = Outcome()

        def fn(item, visit):
            raise AssertionError("bad plan")

        phase = Phase("p", ["a"], fn)
        run_rounds([phase], 0.0, 1, outcome)
        assert (outcome.attempted, outcome.failed) == (1, 1)
        assert outcome.problems == ["AssertionError: bad plan"]


class TestResponseChecks:
    GOOD = {"request_fingerprint": "f1", "cached": False,
            "evaluation": {"n_reps": 2, "reps": [[1.0], [2.0]]},
            "stages": {"wall_s": 0.01, "stages": {"admit": 0.001}}}

    def record(self, payload, status=200, first=None):
        from service_phase import Results

        outcome = Outcome()
        results = Results(outcome, {} if first is None else first)
        results.record("fresh", status, payload, 1.0, 2.0, None)
        return outcome, results

    def test_a_good_response_passes(self):
        import json

        outcome, results = self.record(json.dumps(self.GOOD).encode())
        assert (outcome.attempted, outcome.failed) == (1, 0)
        assert results.requests[0]["ok"] and results.requests[0]["server_wall"] == 0.01

    @pytest.mark.parametrize("payload", [
        b"not json",
        b"[1, 2]",
        b'{"request_fingerprint": "f1"}',
        b'{"request_fingerprint": "f1", "evaluation": "none"}',
        b'{"evaluation": {"n_reps": 1, "reps": [[1.0]]}}',
        b'{"request_fingerprint": "f1", "evaluation": {"n_reps": 2, "reps": [[1.0]]}}',
        b'{"request_fingerprint": "f1", "evaluation": {"n_reps": 1, "reps": [[1.0]]},'
        b' "stages": {"stages": 3}}',
    ])
    def test_a_malformed_body_is_one_failed_request(self, payload):
        outcome, results = self.record(payload)
        assert (outcome.attempted, outcome.failed) == (1, 1)
        assert [r["ok"] for r in results.requests] == [False]

    def test_a_hit_must_equal_its_first_computation(self):
        import json

        first = {}
        self.record(json.dumps(self.GOOD).encode(), first=first)
        hit = dict(self.GOOD, cached=True, evaluation={"n_reps": 1, "reps": [[9.0]]})
        outcome, _ = self.record(json.dumps(hit).encode(), first=first)
        assert (outcome.attempted, outcome.failed) == (1, 1)

    def test_refusals_are_failures(self):
        outcome, results = self.record(b'{"error": "over budget"}', status=402)
        assert (outcome.attempted, outcome.failed, results.refused) == (1, 1, 1)


class TestSupervise:
    """``supervise.run`` returns only once every descendant has ended."""

    HERE = Path(__file__).resolve().parent

    def supervised(self, grandchild: str, grace_s: float) -> float:
        """Seconds ``supervise.run`` takes over a child that forks an
        orphan running ``grandchild`` and exits at once."""
        import subprocess
        import time

        child = ("import os, sys\n"
                 "if os.fork() == 0:\n"
                 "    os.execv(sys.executable, [sys.executable, '-c', sys.argv[1]])\n")
        body = (f"import sys; sys.path.insert(0, {str(self.HERE)!r}); import supervise\n"
                f"sys.exit(supervise.run([sys.executable, '-c', {child!r}, {grandchild!r}],"
                f" grace_s={grace_s}))\n")
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", body], check=True, timeout=60)
        return time.monotonic() - start

    def test_waits_for_an_orphaned_grandchild(self, tmp_path):
        flag = tmp_path / "done"
        self.supervised(f"import time; time.sleep(0.5); open({str(flag)!r}, 'w').close()",
                        grace_s=30.0)
        assert flag.exists()

    def test_kills_a_grandchild_that_outstays_the_grace(self):
        grandchild = ("import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); "
                      "time.sleep(60)")
        assert self.supervised(grandchild, grace_s=0.3) < 30.0


class TestReferenceScaling:
    def test_rates_scale_up_and_times_down_with_the_reference(self):
        from types import SimpleNamespace

        import run
        from reference import NOMINAL_S

        metrics = {name: {"value": 4.0, "unit": "x"} for name in run.SCALED}
        metrics["req_per_s"] = {"value": 4.0, "unit": "1/s"}
        bench = SimpleNamespace(metrics=metrics, samples={}, notes={},
                                reference=[1.5 * NOMINAL_S, 2.5 * NOMINAL_S])
        run.Bench.scale_to_reference(bench)
        assert metrics["reps_per_s"]["value"] == pytest.approx(8.0)
        assert metrics["latency_tail_s"]["value"] == pytest.approx(2.0)
        assert metrics["setup_s"]["value"] == pytest.approx(2.0)
        assert metrics["req_per_s"]["value"] == 4.0
        assert bench.notes["measured"]["reps_per_s"] == 4.0
