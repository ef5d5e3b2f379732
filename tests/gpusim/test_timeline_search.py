"""Property tests: ``MemoryTimeline``'s binary search ≡ the sample scans.

``usage_at``, ``average_bytes(start_ms=...)`` and ``record``'s out-of-order
insert all locate a time with one bisect over ``samples``; the references
below are the linear scans they replaced.
"""

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.timeline import MemoryTimeline


def _scan_usage_at(samples, time_ms):
    usage = 0
    for t, v in samples:
        if t > time_ms:
            break
        usage = v
    return usage


def _scan_record(samples, time_ms, total_bytes):
    if samples and time_ms >= samples[-1][0]:
        samples.append((time_ms, total_bytes))
    else:
        idx = bisect.bisect_right([t for t, _ in samples], time_ms)
        samples.insert(idx, (time_ms, total_bytes))


def _scan_average(samples, start_ms, end_ms):
    total = 0.0
    prev_t, prev_v = start_ms, _scan_usage_at(samples, start_ms)
    vmin = vmax = prev_v
    for t, v in samples:
        if t <= start_ms:
            continue
        if t >= end_ms:
            break
        total += prev_v * (t - prev_t)
        prev_t, prev_v = t, v
        if v < vmin:
            vmin = v
        elif v > vmax:
            vmax = v
    total += prev_v * (end_ms - prev_t)
    return min(max(total / (end_ms - start_ms), vmin), vmax)


# Times on a coarse grid so records collide with existing samples (equal
# times must insert after the samples already there).
_TIMES = st.integers(0, 40).map(lambda k: k * 0.5)
_RECORDS = st.lists(st.tuples(_TIMES, st.integers(0, 10**9)), max_size=40)


@given(_RECORDS, st.lists(st.floats(-1, 25), max_size=20))
@settings(max_examples=200, deadline=None)
def test_search_matches_scans(records, probes):
    timeline = MemoryTimeline()
    reference = [(0.0, 0)]
    for time_ms, total_bytes in records:
        timeline.record(time_ms, total_bytes)
        _scan_record(reference, time_ms, total_bytes)
    assert timeline.samples == reference
    for probe in probes + [t for t, _ in records]:
        assert timeline.usage_at(probe) == _scan_usage_at(reference, probe)
        end_ms = reference[-1][0]
        if probe < end_ms:
            assert timeline.average_bytes(start_ms=probe) == _scan_average(
                reference, probe, end_ms
            )
