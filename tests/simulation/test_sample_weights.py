"""``sample_weights`` draws all σ > 0 tasks in one vectorized call.

The reference is the per-task loop it replaced, kept here: each task's
:meth:`StochasticWeight.sample` in topological order from one generator.
The vectorized draw must return the same dict, key order and float bits
included, for any mix of σ = 0 and σ > 0 tasks and any kind of rng.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.rng import as_generator
from repro.simulation.executor import sample_weights
from repro.workflow.dag import Workflow


def per_task_sample(wf, rng):
    gen = as_generator(rng)
    return {tid: wf.task(tid).weight.sample(gen) for tid in wf.topological_order}


def as_bits(weights):
    return [(tid, float.hex(value)) for tid, value in weights.items()]


tasks = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=1e12),
        # σ/w̄ up to 3: some draws fall under the truncation floor
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
    ),
    min_size=1, max_size=40,
)


def rng_of(kind, seed):
    if kind == "int":
        return seed
    if kind == "seed_sequence":
        return np.random.SeedSequence(seed)
    return np.random.default_rng(seed)


@settings(max_examples=60, deadline=None)
@given(
    weights=tasks,
    chain=st.booleans(),
    kind=st.sampled_from(["int", "seed_sequence", "generator"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_vectorized_draw_equals_the_per_task_loop(weights, chain, kind, seed):
    # Ids out of insertion order, and (with ``chain``) edges that make the
    # topological order differ from the insertion order.
    n = len(weights)
    wf = Workflow.from_spec(
        "draw",
        [(f"t{(7 * i) % n:03d}-{i}", mean, ratio * mean)
         for i, (mean, ratio) in enumerate(weights)],
        [],
    ) if not chain else Workflow.from_spec(
        "draw",
        [(f"t{i}", mean, ratio * mean) for i, (mean, ratio) in enumerate(weights)],
        [(f"t{i}", f"t{i - 1}", 1.0) for i in range(1, n)],
    )
    drawn = sample_weights(wf, rng_of(kind, seed))
    assert as_bits(drawn) == as_bits(per_task_sample(wf, rng_of(kind, seed)))
    assert all(type(value) is float for value in drawn.values())


def test_a_shared_generator_advances_as_the_loop_does():
    """Successive draws from one generator stay in step with the loop."""
    wf = Workflow.from_spec(
        "two", [("a", 10.0, 5.0), ("b", 20.0, 0.0), ("c", 30.0, 30.0)],
        [("a", "c", 1.0)],
    )
    vectorized, loop = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(5):
        assert as_bits(sample_weights(wf, vectorized)) == as_bits(
            per_task_sample(wf, loop))
