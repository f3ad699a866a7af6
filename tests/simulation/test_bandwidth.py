"""Unit tests for the fluid-flow bandwidth pool."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.simulation.bandwidth import _EPS_BYTES, _EPS_TIME, FlowPool

from .reshare_pool import ReshareFlowPool


class TestInfiniteCapacity:
    def test_single_flow_at_cap(self):
        pool = FlowPool()
        pool.start("f", 1000.0, cap=100.0)
        assert pool.next_completion() == pytest.approx(10.0)
        done = pool.advance(10.0)
        assert done == [("f", None)]
        assert not pool

    def test_flows_do_not_interfere(self):
        pool = FlowPool()
        pool.start("a", 1000.0, cap=100.0)
        pool.start("b", 500.0, cap=100.0)
        assert pool.next_completion() == pytest.approx(5.0)
        done = pool.advance(5.0)
        assert [f for f, _ in done] == ["b"]
        assert pool.next_completion() == pytest.approx(10.0)

    def test_partial_advance(self):
        pool = FlowPool()
        pool.start("a", 1000.0, cap=100.0)
        assert pool.advance(4.0) == []
        assert pool.next_completion() == pytest.approx(10.0)

    def test_zero_byte_flow_completes_immediately(self):
        pool = FlowPool()
        pool.advance(3.0)
        pool.start("z", 0.0, cap=100.0)
        assert pool.next_completion() == 3.0
        assert pool.advance(3.0) == [("z", None)]

    def test_payload_returned(self):
        pool = FlowPool()
        pool.start("f", 10.0, cap=10.0, payload=("task", "x"))
        assert pool.advance(1.0) == [("f", ("task", "x"))]

    def test_tiny_residual_completes(self):
        """Regression: a residual whose finish-dt underflows the float clock
        must complete instead of stalling the simulation forever."""
        pool = FlowPool()
        pool.advance(568.0)
        pool.start("f", 5e-6, cap=1.25e8)  # finishes 4e-14s later
        t = pool.next_completion()
        done = pool.advance(t)
        assert [f for f, _ in done] == ["f"]


class TestFiniteCapacity:
    def test_two_flows_share_capacity(self):
        pool = FlowPool(capacity=100.0)
        pool.start("a", 1000.0, cap=100.0)
        pool.start("b", 1000.0, cap=100.0)
        # each gets 50 -> both complete at t=20
        assert pool.next_completion() == pytest.approx(20.0)

    def test_water_filling_respects_caps(self):
        pool = FlowPool(capacity=100.0)
        pool.start("small", 100.0, cap=10.0)   # capped at 10
        pool.start("large", 1000.0, cap=100.0)  # gets the remaining 90
        assert pool.next_completion() == pytest.approx(10.0)  # small: 100/10
        pool.advance(10.0)
        # large transferred 900 in 10s, 100 left at rate 100
        assert pool.next_completion() == pytest.approx(11.0)

    def test_rates_rebalance_after_completion(self):
        pool = FlowPool(capacity=100.0)
        pool.start("a", 500.0, cap=100.0)
        pool.start("b", 1000.0, cap=100.0)
        pool.advance(10.0)  # a done (50/s each)
        # b has 500 left, now alone at full 100/s
        assert pool.next_completion() == pytest.approx(15.0)

    def test_aggregate_throughput_bounded(self):
        pool = FlowPool(capacity=100.0)
        for i in range(10):
            pool.start(f"f{i}", 100.0, cap=100.0)
        # 1000 bytes total at aggregate 100/s -> exactly 10s
        assert pool.next_completion() == pytest.approx(10.0)


class TestErrors:
    def test_duplicate_flow_id(self):
        pool = FlowPool()
        pool.start("f", 10.0, cap=1.0)
        with pytest.raises(SimulationError):
            pool.start("f", 10.0, cap=1.0)

    def test_negative_bytes(self):
        with pytest.raises(SimulationError):
            FlowPool().start("f", -1.0, cap=1.0)

    def test_nonpositive_cap(self):
        with pytest.raises(SimulationError):
            FlowPool().start("f", 1.0, cap=0.0)

    def test_bad_capacity(self):
        with pytest.raises(SimulationError):
            FlowPool(capacity=0.0)

    def test_time_backwards(self):
        pool = FlowPool()
        pool.advance(5.0)
        with pytest.raises(SimulationError):
            pool.advance(4.0)

    def test_empty_pool_idle(self):
        pool = FlowPool()
        assert pool.next_completion() == math.inf
        assert pool.advance(100.0) == []


# ---------------------------------------------------------------------------
# Properties of the heap-ordered pool
# ---------------------------------------------------------------------------

_ID = st.integers(min_value=0, max_value=4)
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("start"), _ID,
            st.one_of(st.sampled_from([0.0, 1e-7, 100.0, 250.0]),
                      st.floats(min_value=0.0, max_value=1e4)),
            # 125 MB/s is the paper's link rate: late in a run, whole
            # small flows then fall inside the completion window.
            st.sampled_from([10.0, 100.0, 1.25e8]),
        ),
        st.tuples(st.just("cancel"), _ID),
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=1000.0)),
    ),
    max_size=40,
)


def _window(t):
    return _EPS_TIME * max(1.0, t)


class TestHeapProperties:
    @given(ops=_OPS)
    @settings(max_examples=300, deadline=None)
    def test_infinite_capacity_start_cancel_advance(self, ops):
        """Each flow is reported once, at ``start + nbytes/cap``, in
        insertion order among flows reported together; a cancelled flow
        is never reported, even once its id is reused and its stale heap
        entry surfaces."""
        pool = FlowPool()
        live = {}  # flow id -> (instance number, expected finish)
        instances = itertools.count()

        def check(t, done):
            reported = [k for _fid, k in done]
            assert reported == sorted(reported)  # insertion order
            finishes = []
            for fid, k in done:
                instance, expected = live.pop(fid)
                assert k == instance  # never a cancelled earlier instance
                assert t <= expected <= t + _window(t)
                finishes.append(expected)
            for _instance, expected in live.values():
                assert expected > t + _window(t)
            return finishes

        for op in ops:
            if op[0] == "start":
                _, fid, nbytes, cap = op
                if fid in live:
                    continue
                k = next(instances)
                pool.start(fid, nbytes, cap, payload=k)
                # A flow of at most _EPS_BYTES is done as it starts.
                finish = pool.now if nbytes <= _EPS_BYTES else pool.now + nbytes / cap
                live[fid] = (k, finish)
            elif op[0] == "cancel":
                assert pool.cancel(op[1]) == (op[1] in live)
                live.pop(op[1], None)
            else:
                due = pool.next_completion()
                before = pool.now
                t = min(pool.now + op[1], due)
                finishes = check(t, pool.advance(t))
                if finishes and t == due > before:
                    # not snapped: the earliest flow lands on its exact time
                    assert min(finishes) == t
            assert len(pool) == len(live)
        for _ in range(len(live)):  # each advance finishes at least one flow
            if not pool:
                break
            t = pool.next_completion()
            assert check(t, pool.advance(t))
        assert not live and not pool and pool.next_completion() == math.inf

    @given(
        sizes=st.lists(st.floats(min_value=1.0, max_value=1e4),
                       min_size=1, max_size=8),
        capacity=st.floats(min_value=10.0, max_value=500.0),
        cap=st.floats(min_value=1.0, max_value=1000.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_equal_caps_finish_at_processor_sharing_times(self, sizes, capacity, cap):
        """n flows with one cap, started together, finish at the closed
        form of processor sharing: while m flows are live each moves at
        ``min(cap, capacity/m)``, so the k-th smallest finishes at
        ``T_k = T_{k-1} + (s_k - s_{k-1}) / min(cap, capacity/(n-k+1))``."""
        pool = FlowPool(capacity=capacity)
        for i, size in enumerate(sizes):
            pool.start(i, size, cap=cap)
        n = len(sizes)
        expected = {}
        t_prev = s_prev = 0.0
        for k, i in enumerate(sorted(range(n), key=lambda i: sizes[i])):
            rate = min(cap, capacity / (n - k))
            t_prev += (sizes[i] - s_prev) / rate
            s_prev = sizes[i]
            expected[i] = t_prev
        reported = {}
        for _ in range(n):  # each advance finishes at least one flow
            if not pool:
                break
            t = pool.next_completion()
            done = [fid for fid, _ in pool.advance(t)]
            assert done == sorted(done)  # ties come back in insertion order
            reported.update((fid, t) for fid in done)
        assert set(reported) == set(range(n))
        for i in range(n):
            assert reported[i] == pytest.approx(expected[i], rel=1e-8)


# ---------------------------------------------------------------------------
# Differential: class counters against re-sharing every flow
# ---------------------------------------------------------------------------

_CAPACITY = st.floats(min_value=1.0, max_value=1e9)
_REL = 1e-12


def _close(a, b):
    return a == b or abs(a - b) <= _REL * max(abs(a), abs(b))


def _drive(ops, capacity, cap_of=lambda cap: cap):
    """Run ``ops`` on the pool under test and on the reference, in step.

    Both pools must report the same flows, in the same order, at the same
    times, and agree on the next completion within ``_REL``; a flow
    started on an idle pool has its finish equal to the bit. Each start
    tags the flow with a fresh instance number, so a cancelled flow whose
    id is reused and whose stale entry surfaces would be caught.
    """
    pool, ref = FlowPool(capacity), ReshareFlowPool(capacity)
    live = {}  # flow id -> instance number
    instances = itertools.count()

    def step(t):
        done = pool.advance(t)
        assert done == ref.advance(t)
        for fid, k in done:
            assert live.pop(fid) == k  # never a cancelled earlier instance
        assert len(pool) == len(ref) == len(live)
        return done

    def due():
        t, t_ref = pool.next_completion(), ref.next_completion()
        assert _close(t, t_ref), (t, t_ref)
        return t_ref

    for op in ops:
        if op[0] == "start":
            _, fid, nbytes, cap = op
            if fid in live:
                continue
            idle = not ref
            k = live[fid] = next(instances)
            pool.start(fid, nbytes, cap_of(cap), payload=k)
            ref.start(fid, nbytes, cap_of(cap), payload=k)
            if idle:  # nothing carried over from an earlier busy spell
                assert pool.next_completion() == ref.next_completion()
        elif op[0] == "cancel":
            assert pool.cancel(op[1]) == ref.cancel(op[1]) == (op[1] in live)
            live.pop(op[1], None)
        else:
            step(min(ref.now + op[1], due()))
    while live:  # each advance to the next completion finishes a flow
        assert step(due())
    assert not pool and pool.next_completion() == math.inf


class TestAgainstReshare:
    """The class-counter pool against the re-sharing reference
    (``reshare_pool.py``), on random start/cancel/advance sequences."""

    @given(ops=_OPS, capacity=_CAPACITY)
    @settings(max_examples=300, deadline=None)
    def test_mixed_caps(self, ops, capacity):
        _drive(ops, capacity)

    @given(ops=_OPS, capacity=_CAPACITY,
           cap=st.sampled_from([10.0, 100.0, 1.25e8]))
    @settings(max_examples=300, deadline=None)
    def test_equal_caps(self, ops, capacity, cap):
        _drive(ops, capacity, cap_of=lambda _cap: cap)
