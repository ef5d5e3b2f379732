"""``CommandQueue.submit_run``: one bulk fold, bitwise the per-item submits."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpusim.queues import CommandQueue, fold_sum

DURATION = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
)

# Work already on the queue before the run: (duration, not_before, kind).
PREFIX = st.lists(
    st.tuples(DURATION, st.floats(0.0, 1e5), st.sampled_from(("setup", "compute", "load"))),
    max_size=6,
)


def _queue(prefix):
    q = CommandQueue("gpu")
    for i, (duration, not_before, kind) in enumerate(prefix):
        q.submit_fast(f"p{i}", duration, not_before, kind)
    return q


def _state(q):
    kinds = ("setup", "compute", "load", "transform")
    return (
        q.free_at,
        len(q),
        q.busy_time_ms(),
        tuple(q.busy_time_ms(kind=k) for k in kinds),
        q.idle_time_ms(),
        q.busy_intervals(),
    )


@given(PREFIX, st.lists(DURATION, min_size=1, max_size=80), st.sampled_from(("compute", "load")))
# A left fold and a pairwise sum of these round differently.
@example([(0.3, 0.0, "compute")], [0.1] * 100, "compute")
@settings(max_examples=150, deadline=None)
def test_submit_run_matches_submit_fast_bitwise(prefix, durations, kind):
    ref, bulk = _queue(prefix), _queue(prefix)
    ref_ends, ref_busies = [], []
    ref_total = 0.0
    for i, d in enumerate(durations):
        start, end = ref.submit_fast(f"k{i}", d, 0.0, kind)
        ref_ends.append(end)
        ref_busies.append(end - start)
        ref_total += end - start

    ends, busies = bulk.submit_run("run", durations, kind)

    assert ends.tolist() == ref_ends
    assert busies.tolist() == ref_busies
    assert fold_sum(0.0, busies) == ref_total
    ref_state, bulk_state = _state(ref), _state(bulk)
    # Everything but the row count: the run is one coalesced row.
    assert bulk_state[0] == ref_state[0]
    assert bulk_state[2:] == ref_state[2:]
    assert bulk_state[1] == len(prefix) + 1
    assert bulk.events[-1].label == "run"
    assert bulk.events[-1].kind == kind


@given(PREFIX)
@settings(max_examples=30, deadline=None)
def test_empty_run_changes_nothing(prefix):
    q = _queue(prefix)
    before = _state(q)
    ends, busies = q.submit_run("empty", [], "compute")
    assert len(ends) == len(busies) == 0
    assert _state(q) == before


def test_negative_duration_raises_and_changes_nothing():
    q = _queue([(2.0, 1.0, "setup")])
    before = _state(q)
    with pytest.raises(ValueError):
        q.submit_run("bad", [1.0, -0.5, 2.0], "compute")
    assert _state(q) == before


def test_all_zero_run_adds_no_busy_interval():
    q = _queue([(2.0, 0.0, "setup")])
    q.submit_run("zeros", [0.0, 0.0, 0.0], "compute")
    assert q.busy_intervals() == [(0.0, 2.0)]
    assert q.busy_time_ms(kind="compute") == 0.0
    assert q.free_at == 2.0


def test_fold_sum_is_sequential():
    # Pairwise summation would round 1e16 + 1 + 1 differently.
    values = [1.0, 1.0] * 8
    assert fold_sum(1e16, values) == 1e16
    assert fold_sum(0.0, []) == 0.0
