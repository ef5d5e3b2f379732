"""Simulation result containers: memory timeline and latency phases.

Every executor produces a :class:`RunResult`; the experiment drivers read
peak/average memory, phase latencies, and energy from it.  Multi-model runs
(Figure 6) concatenate per-model results into a shared timeline.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np


class MemoryTimeline:
    """Step-function record of total memory in use over simulated time."""

    def __init__(self) -> None:
        #: (time_ms, total_bytes) step samples, time-sorted.
        self.samples: List[Tuple[float, int]] = [(0.0, 0)]

    def _after(self, time_ms: float) -> int:
        """Index of the first sample later than ``time_ms`` (binary search).

        Samples are time-sorted and a sample ``(t, v)`` compares at or below
        the probe ``(time_ms, inf)`` exactly when ``t <= time_ms``, so a
        plain tuple bisect needs no ``key=``.
        """
        return bisect.bisect_right(self.samples, (time_ms, math.inf))

    def record(self, time_ms: float, total_bytes: int) -> None:
        """Append a sample; out-of-order times are inserted in place,
        after any samples at the same time."""
        if total_bytes < 0:
            raise ValueError("memory cannot be negative")
        if self.samples and time_ms >= self.samples[-1][0]:
            self.samples.append((time_ms, total_bytes))
        else:
            self.samples.insert(self._after(time_ms), (time_ms, total_bytes))

    @property
    def peak_bytes(self) -> int:
        return max(v for _, v in self.samples)

    def usage_at(self, time_ms: float) -> int:
        """Value of the last sample at or before ``time_ms`` (0 before any)."""
        idx = self._after(time_ms)
        return self.samples[idx - 1][1] if idx else 0

    def average_bytes(self, start_ms: float = 0.0, end_ms: Optional[float] = None) -> float:
        """Time-weighted average over [start, end] (end defaults to last sample).

        The result is clamped to the value range attained over the window: a
        true time-weighted mean lies between the minimum and maximum of the
        step function, but the float integral can drift an ulp past those
        bounds (e.g. a constant timeline averaging a hair above its peak).
        """
        if end_ms is None:
            end_ms = self.samples[-1][0]
        if end_ms <= start_ms:
            return float(self.usage_at(start_ms))
        total = 0.0
        samples = self.samples
        first = self._after(start_ms)
        prev_t, prev_v = start_ms, samples[first - 1][1] if first else 0
        vmin = vmax = prev_v
        for k in range(first, len(samples)):
            t, v = samples[k]
            if t >= end_ms:
                break
            total += prev_v * (t - prev_t)
            prev_t, prev_v = t, v
            if v < vmin:
                vmin = v
            elif v > vmax:
                vmax = v
        total += prev_v * (end_ms - prev_t)
        average = total / (end_ms - start_ms)
        if average > vmax:
            return float(vmax)
        if average < vmin:
            return float(vmin)
        return average

    def series(self, resolution_ms: float = 50.0, end_ms: Optional[float] = None) -> List[Tuple[float, int]]:
        """Resampled (time, bytes) series for plotting (Figure 6)."""
        if resolution_ms <= 0:
            raise ValueError("resolution must be positive")
        if end_ms is None:
            end_ms = self.samples[-1][0]
        out: List[Tuple[float, int]] = []
        t = 0.0
        while t <= end_ms:
            out.append((t, self.usage_at(t)))
            t += resolution_ms
        return out


# ------------------------------------------------------- columnar merging
_ZERO_TIME = np.zeros(1, dtype=np.float64)
_ZERO_DELTA = np.zeros(1, dtype=np.int64)


def session_deltas(timeline: MemoryTimeline) -> Tuple[np.ndarray, np.ndarray]:
    """A timeline's step samples as (times, deltas) columns.

    The first sample's delta is its absolute value, so ``np.cumsum(deltas)``
    reproduces the sample values exactly (values are integer byte counts and
    the deltas are int64 — the round trip is bit-exact).  This is the
    recording format multi-session merges consume: a session's contribution
    to a shared timeline is its delta train, offset to its start time.
    """
    samples = timeline.samples
    n = len(samples)
    times = np.fromiter((t for t, _ in samples), dtype=np.float64, count=n)
    values = np.fromiter((v for _, v in samples), dtype=np.int64, count=n)
    return times, np.diff(values, prepend=np.int64(0))


def merge_session_columns(
    sessions: Sequence[Tuple[float, np.ndarray, np.ndarray, float]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-session delta columns into one summed step function.

    ``sessions`` holds ``(offset_ms, times, deltas, end_ms)`` per session —
    ``times``/``deltas`` as produced by :func:`session_deltas`, ``offset_ms``
    the session's position on the shared clock, and ``end_ms`` the instant
    the session tears down.  Each session contributes its own step function
    between ``offset_ms`` and ``end_ms`` and *zero* outside that window: a
    teardown delta returning the session's running total to zero is emitted
    at ``end_ms``, so the merged floor drops only when a session actually
    ends — under concurrent sessions the remaining residents keep their
    bytes counted (the conditional form of the old absolute ``record(end,
    0)`` floor drop, which zeroed co-resident apps).

    The merge is one numpy pass.  Each distinct ``(times, deltas)`` pair is
    prepared once (replay splices a few hundred episodes into thousands of
    sessions).  The time blocks are concatenated with a teardown slot after
    each, the start offsets added with one ``np.repeat`` and the exact
    ``end_ms`` scattered into the teardown slots.  When one vectorised
    comparison finds the result chronological — as it is whenever sessions
    never overlap — every session starts from a zero floor, so the totals
    are the blocks' own running totals with a zero in each teardown slot:
    the int64 sums a cumulative sum of the concatenated deltas gives.
    Otherwise the samples are stable-sorted by time (``np.lexsort``) and
    the deltas cumulative-summed.  Stability extends the simulator's
    same-instant tie rule (engine ``build_timeline``) across session
    boundaries: within a session the original — already tie-resolved —
    sample order is preserved, and at a shared instant an earlier session's
    teardown free integrates before a later session's first allocation, so
    a back-to-back handoff is an exchange, not a transient double-residency.
    (On sorted input the stable sort is the identity, so both branches
    agree.)  Sessions must be supplied in start order.

    Returns ``(times, totals)`` columns; totals are exact int64 sums, and
    for non-overlapping sessions the columns are sample-for-sample what the
    seed per-``record`` merge loop produced.
    """
    # Keyed by object identity; each entry also holds the keyed objects, so
    # no id can be recycled mid-merge even if ``sessions`` builds them lazily.
    blocks: Dict[Tuple[int, int], _Block] = {}
    spliced: List[_Block] = []
    offsets: List[float] = [0.0]
    ends: List[float] = []
    for offset_ms, times, deltas, end_ms in sessions:
        key = (id(times), id(deltas))
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = _Block(times, deltas)
        spliced.append(block)
        offsets.append(offset_ms)
        ends.append(end_ms)
    # The leading (0 ms, 0 B) sample, then each block and its teardown slot.
    all_times = np.concatenate(
        [_ZERO_TIME] + [part for b in spliced for part in b.time_slots]
    )
    counts = np.array([1] + [b.slots for b in spliced], dtype=np.intp)
    all_times += np.repeat(np.array(offsets, dtype=np.float64), counts)
    all_times[np.cumsum(counts)[1:] - 1] = ends
    if np.all(all_times[1:] >= all_times[:-1]):
        if any(b.floor < 0 for b in blocks.values()):
            raise ValueError("memory cannot be negative")
        totals = np.concatenate(
            [_ZERO_DELTA] + [part for b in spliced for part in b.total_slots]
        )
        return all_times, totals
    all_deltas = np.concatenate(
        [_ZERO_DELTA] + [part for b in spliced for part in b.delta_slots]
    )
    order = np.lexsort((all_times,))  # stable: ties keep session order
    totals = np.cumsum(all_deltas[order])
    if totals.min() < 0:
        raise ValueError("memory cannot be negative")
    return all_times[order], totals


class _Block:
    """One distinct session body, prepared once per merge."""

    __slots__ = ("keep", "time_slots", "delta_slots", "total_slots", "slots", "floor")

    def __init__(self, times: Any, deltas: Any) -> None:
        self.keep = (times, deltas)  # pins the ids the merge keys on
        times = np.asarray(times, dtype=np.float64)
        deltas = np.asarray(deltas, dtype=np.int64)
        running = np.cumsum(deltas)
        # Teardown: the session's contribution returns to zero at its end.
        teardown = np.array([-int(deltas.sum())], dtype=np.int64)
        self.time_slots = (times, _ZERO_TIME)  # end_ms is scattered in later
        self.delta_slots = (deltas, teardown)
        self.total_slots = (running, _ZERO_DELTA)
        self.slots = len(times) + 1
        self.floor = int(running.min()) if len(running) else 0


def merge_sessions(
    sessions: Sequence[Tuple[float, np.ndarray, np.ndarray, float]],
) -> MemoryTimeline:
    """:func:`merge_session_columns`, materialized as a :class:`MemoryTimeline`."""
    merged_times, totals = merge_session_columns(sessions)
    timeline = MemoryTimeline()
    timeline.samples = list(zip(merged_times.tolist(), totals.tolist()))
    return timeline


@dataclass
class Phases:
    """Latency breakdown of one model run, in ms.

    ``load``      — disk -> unified memory time on the IO queue.
    ``transform`` — dedicated layout-transformation kernels (preloading path).
    ``execute``   — inference kernels (including embedded loads for FlashMem).
    ``setup``     — one-off GPU context/program setup.
    """

    setup: float = 0.0
    load: float = 0.0
    transform: float = 0.0
    execute: float = 0.0

    @property
    def init(self) -> float:
        """Initialization latency as the paper reports it (cold start)."""
        return self.setup + self.load + self.transform

    @property
    def total(self) -> float:
        return self.init + self.execute


@dataclass
class RunResult:
    """Outcome of simulating one model on one runtime."""

    model: str
    runtime: str
    device: str
    #: End-to-end wall-clock latency in ms (init + exec for preloaders;
    #: integrated for FlashMem).
    latency_ms: float
    phases: Phases
    memory: MemoryTimeline
    #: Peak bytes as accounted by the executor (UM + TM).
    peak_memory_bytes: int
    #: Time-weighted average bytes over the whole run.
    avg_memory_bytes: float
    energy_j: float = 0.0
    avg_power_w: float = 0.0
    #: Free-form executor details (preload ratio, plan stats, ...).
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def peak_memory_mb(self) -> float:
        return self.peak_memory_bytes / 1e6

    @property
    def avg_memory_mb(self) -> float:
        return self.avg_memory_bytes / 1e6

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.model}/{self.runtime}@{self.device}: "
            f"{self.latency_ms:.0f} ms, avg {self.avg_memory_mb:.0f} MB, "
            f"peak {self.peak_memory_mb:.0f} MB, {self.energy_j:.1f} J"
        )


def geo_mean(values: Sequence[float]) -> float:
    """Geometric mean (used for the paper's speedup/reduction summaries)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
