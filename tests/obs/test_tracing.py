"""Tracer: spans, nesting, decisions, counters, global install."""

import threading

import pytest

from repro.obs.tracing import (
    DecisionRecord,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)


class TestSpans:
    def test_span_records_duration_and_attributes(self):
        tracer = Tracer()
        with tracer.span("work", size=3) as span:
            span.set(extra="yes")
        assert len(tracer.spans) == 1
        recorded = tracer.spans[0]
        assert recorded.name == "work"
        assert recorded.attributes == {"size": 3, "extra": "yes"}
        assert recorded.duration_s >= 0.0
        assert recorded.end_s >= recorded.start_s

    def test_nesting_records_parent_id(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_span_to_dict_is_json_ready(self):
        tracer = Tracer()
        with tracer.span("x", k="v"):
            pass
        d = tracer.spans[0].to_dict()
        assert d["name"] == "x" and d["attributes"] == {"k": "v"}
        assert set(d) >= {"span_id", "parent_id", "start_s", "duration_s"}

    def test_max_spans_drops_overflow(self):
        tracer = Tracer(max_spans=2)
        for _ in range(4):
            with tracer.span("s"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped["spans"] == 2

    def test_thread_local_stacks(self):
        tracer = Tracer()
        parents = {}

        def worker(name):
            with tracer.span(name) as sp:
                parents[name] = sp.parent_id

        with tracer.span("main-root"):
            t = threading.Thread(target=worker, args=("threaded",))
            t.start()
            t.join()
        # The other thread's span must NOT adopt this thread's root.
        assert parents["threaded"] is None


class TestDecisionsAndCounters:
    def test_decide_appends(self):
        tracer = Tracer()
        tracer.decide(DecisionRecord(kind="host_selection", task="T1"))
        assert len(tracer.decisions) == 1
        assert tracer.decisions[0].task == "T1"

    def test_decision_to_dict_merges_extra(self):
        rec = DecisionRecord(
            kind="refine_move", task="T", round=3, extra={"from_vm": 2}
        )
        d = rec.to_dict()
        assert d["kind"] == "refine_move" and d["round"] == 3
        assert d["from_vm"] == 2

    def test_count_accumulates(self):
        tracer = Tracer()
        tracer.count("events")
        tracer.count("events", 4)
        assert tracer.counters["events"] == 5

    def test_clear_resets_everything(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.decide(DecisionRecord(kind="k", task="t"))
        tracer.count("c")
        tracer.clear()
        assert not tracer.spans and not tracer.decisions
        assert tracer.counters == {}

    def test_summary_aggregates_per_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("repeated"):
                pass
        summary = tracer.summary()
        assert summary["spans"]["repeated"]["count"] == 3
        assert summary["spans"]["repeated"]["total_s"] >= 0.0


class TestGlobalTracer:
    def test_default_is_null(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer)
        assert tracer.enabled is False

    def test_null_tracer_is_inert(self):
        null = NullTracer()
        with null.span("anything", a=1) as sp:
            sp.set(b=2)
        null.decide(DecisionRecord(kind="k", task="t"))
        null.count("c")
        assert null.summary()["n_decisions"] == 0

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        before = get_tracer()
        with use_tracer(tracer) as active:
            assert active is tracer
            assert get_tracer() is tracer
        assert get_tracer() is before

    def test_use_tracer_restores_on_exception(self):
        before = get_tracer()
        with pytest.raises(RuntimeError):
            with use_tracer(Tracer()):
                raise RuntimeError("boom")
        assert get_tracer() is before

    def test_set_tracer_none_restores_null(self):
        tracer = Tracer()
        set_tracer(tracer)
        assert get_tracer() is tracer
        set_tracer(None)
        assert isinstance(get_tracer(), NullTracer)
