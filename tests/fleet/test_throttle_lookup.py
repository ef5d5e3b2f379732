"""``Trace.state_at``'s segment lookup ≡ the linear window scan.

The reference is the scan ``state_at`` used before the segment table:
walk the start-sorted windows, and let every window open at the query time
overwrite the state, so the latest one wins.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.episode import EpisodeProvider
from repro.fleet.replay import replay_trace
from repro.fleet.trace import ThrottleWindow, Trace, TraceInvocation
from repro.runtime.scenario import Scenario

STATES = ("warm", "hot", "critical")


def _scan_state_at(windows, time_ms):
    state = "nominal"
    for window in windows:
        if window.start_ms > time_ms:
            break
        if time_ms < window.end_ms:
            state = window.state
    return state


def _trace(windows, invocations=()):
    return Trace(
        name="t", seed=0, duration_ms=100.0, invocations=list(invocations), throttle=windows
    )


# Start gaps of zero give equal starts; long lengths nest later windows.
_WINDOWS = st.lists(
    st.tuples(
        st.integers(0, 6).map(float),
        st.integers(1, 30).map(float),
        st.sampled_from(STATES),
    ),
    max_size=12,
)


@given(_WINDOWS, st.lists(st.floats(-5, 150), max_size=10))
@settings(max_examples=300, deadline=None)
def test_state_at_matches_scan(spec, extra):
    windows, start = [], 0.0
    for gap, length, state in spec:
        start += gap
        windows.append(ThrottleWindow(start, start + length, state))
    trace = _trace(windows)
    bounds = sorted({w.start_ms for w in windows} | {w.end_ms for w in windows})
    between = [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]
    for probe in bounds + between + extra + [-1.0, 1e9]:
        assert trace.state_at(probe) == _scan_state_at(windows, probe), probe


def test_replay_under_a_long_window_with_nested_short_ones():
    # A long warm spell with two short, later-starting windows inside it:
    # each short one wins while open, and warm resumes once it closes.
    windows = [
        ThrottleWindow(0.0, 30_000.0, "warm"),
        ThrottleWindow(5_000.0, 8_000.0, "critical"),
        ThrottleWindow(12_000.0, 13_000.0, "hot"),
    ]
    prefill = Scenario.prefill(1)
    arrivals = (1_000.0, 6_000.0, 9_000.0, 12_500.0, 20_000.0, 31_000.0)
    trace = _trace(windows, [TraceInvocation(t, "ViT", prefill, 1) for t in arrivals])
    trace.duration_ms = 40_000.0
    cell = replay_trace(trace, "OnePlus 12", "FlashMem")
    ordered = sorted(cell.outcomes, key=lambda o: o.index)
    states = [o.state for o in ordered]
    assert states == [_scan_state_at(windows, o.start_ms) for o in ordered]
    assert states == ["warm", "critical", "warm", "hot", "warm", "nominal"]
    naive = replay_trace(
        trace, "OnePlus 12", "FlashMem", provider=EpisodeProvider(memoize=False)
    )
    assert naive.canonical_json() == cell.canonical_json()
