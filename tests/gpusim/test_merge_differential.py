"""Differential tests: the one-pass session merge ≡ the sort-always merge.

:func:`merge_session_columns` builds a cell's columns from per-distinct-pair
blocks, skips the sort when the spliced samples are already chronological
and reads totals off the blocks' own running sums.  The oracle below is the
earlier body, which concatenated every session, always stable-sorted and
cumulative-summed; both must return the same columns bit for bit —
chronological sessions (zero idle gaps included, so a teardown and the next
allocation share an instant), sessions reusing one ``(times, deltas)``
pair, and overlapping sessions, which take the sort.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.timeline import MemoryTimeline, merge_session_columns, session_deltas


def _sort_always_merge(sessions):
    """The pre-one-pass ``merge_session_columns`` body, verbatim."""
    times_parts = [np.zeros(1, dtype=np.float64)]
    delta_parts = [np.zeros(1, dtype=np.int64)]
    for offset_ms, times, deltas, end_ms in sessions:
        times = np.asarray(times, dtype=np.float64)
        deltas = np.asarray(deltas, dtype=np.int64)
        times_parts.append(times + offset_ms)
        delta_parts.append(deltas)
        # Teardown: the session's contribution returns to zero at its end.
        times_parts.append(np.array([end_ms], dtype=np.float64))
        delta_parts.append(np.array([-int(deltas.sum())], dtype=np.int64))
    all_times = np.concatenate(times_parts)
    all_deltas = np.concatenate(delta_parts)
    order = np.lexsort((all_times,))  # stable: ties keep session order
    merged_times = all_times[order]
    totals = np.cumsum(all_deltas[order])
    if len(totals) and totals.min() < 0:
        raise ValueError("memory cannot be negative")
    return merged_times, totals


def _assert_bit_identical(sessions, *, sorted_expected):
    expected_times, expected_totals = _sort_always_merge(sessions)
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        times, totals = merge_session_columns(sessions)
    assert lexsort.called is not sorted_expected
    assert times.dtype == np.float64 and totals.dtype == np.int64
    assert times.tobytes() == expected_times.tobytes()
    assert totals.tobytes() == expected_totals.tobytes()


# A session body: (time_gap, value) record events; a zero gap makes a
# same-instant tie inside the session.
_EVENTS = st.lists(
    st.tuples(st.floats(0, 50), st.integers(0, 10**12)), min_size=1, max_size=12
)
# Idle gap before a session: zero half the time, so sessions touch.
_IDLE = st.one_of(st.just(0.0), st.floats(0, 20))


def _body(events):
    timeline = MemoryTimeline()
    t = 0.0
    for gap, value in events:
        t += gap
        timeline.record(t, value)
    times, deltas = session_deltas(timeline)
    return times, deltas, t


@given(st.lists(st.tuples(_EVENTS, _IDLE, st.floats(0, 20)), max_size=8))
@settings(max_examples=150, deadline=None)
def test_chronological_sessions(spec):
    sessions, clock = [], 0.0
    for events, idle, tail in spec:
        times, deltas, span = _body(events)
        start = clock + idle
        clock = start + span + tail
        sessions.append((start, times, deltas, clock))
    _assert_bit_identical(sessions, sorted_expected=True)


@given(
    st.lists(_EVENTS, min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 2), _IDLE), min_size=1, max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_sessions_reusing_one_pair(bodies, picks):
    # Replay splices the same episode arrays into many sessions.
    episodes = [_body(events) for events in bodies]
    sessions, clock = [], 0.0
    for pick, idle in picks:
        times, deltas, span = episodes[pick % len(episodes)]
        start = clock + idle
        clock = start + span
        sessions.append((start, times, deltas, clock))
    _assert_bit_identical(sessions, sorted_expected=True)


@given(
    st.lists(
        st.tuples(_EVENTS, st.floats(0, 0.99), st.floats(0.01, 20)),
        min_size=2,
        max_size=8,
    )
)
@settings(max_examples=150, deadline=None)
def test_overlapping_sessions_take_the_sort(spec):
    # Each later session starts strictly before the previous one ends, so
    # that teardown lands after the next session's first sample.
    sessions = []
    prev_start = prev_end = 0.0
    for k, (events, frac, tail) in enumerate(spec):
        times, deltas, span = _body(events)
        start = 0.0 if k == 0 else prev_start + frac * (prev_end - prev_start)
        end = start + span + tail
        sessions.append((start, times, deltas, end))
        prev_start, prev_end = start, end
    _assert_bit_identical(sessions, sorted_expected=False)


def test_no_sessions():
    _assert_bit_identical([], sorted_expected=True)
