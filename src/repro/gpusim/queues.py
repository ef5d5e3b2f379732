"""Command queues and the two-resource overlap model.

Mobile GPUs expose independent command queues so transfers and compute can
proceed concurrently (paper §2.1).  The simulator models two serially-ordered
resources — the IO path (disk -> unified memory) and the GPU path (kernels,
including their embedded texture loads) — each as a :class:`CommandQueue`
with a busy-until clock and an event log.  Executors submit work items with
earliest-start constraints; the queue returns the completion time.

**Columnar storage.**  Events are held as parallel columns (label, start,
end, kind) with running busy-time accumulators updated at submit time, so
``busy_time_ms``/``idle_time_ms`` and the energy model's interval merge stop
re-walking per-event objects.  :class:`QueueEvent` rows are materialized
lazily (and cached) for callers that want the object view.

**Invariant.**  Because queues are in-order (an item starts at
``max(free_at, not_before)`` and ``free_at`` only moves forward), the event
columns are always start-sorted and pairwise disjoint: each start is >= the
previous end.  :meth:`CommandQueue.busy_intervals` exploits this to merge
busy spans in one pass without sorting — adjacent events coalesce exactly
when one starts the instant the previous ends.

**Bulk runs.**  :meth:`CommandQueue.submit_run` submits a back-to-back run
of items as one strict left-fold (``np.add.accumulate``, the sequential
recurrence — not ``np.sum``'s pairwise tree), so every end time and
accumulator is bitwise what the equivalent ``submit_fast`` calls produce.
The run is logged as ONE coalesced row; nothing in a ``RunResult`` reads
labels, and :meth:`~CommandQueue.busy_intervals` merges the back-to-back
rows into exactly that span anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def fold_sum(seed: float, values: np.ndarray) -> float:
    """``seed + values[0] + values[1] + ...`` added strictly left to right.

    Bitwise equal to a scalar ``acc += v`` loop, unlike ``np.sum``.
    """
    if not len(values):
        return seed
    return float(np.add.accumulate(np.concatenate(([seed], values)))[-1])


@dataclass(frozen=True)
class QueueEvent:
    """One completed work item on a queue."""

    label: str
    start_ms: float
    end_ms: float
    kind: str = "work"

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


class CommandQueue:
    """A serially-ordered execution resource with a columnar event log."""

    __slots__ = ("name", "_free_at", "_labels", "_starts", "_ends", "_kinds",
                 "_busy_total", "_busy_by_kind", "_events_cache")

    def __init__(self, name: str) -> None:
        self.name = name
        self._free_at = 0.0
        self._labels: List[str] = []
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._kinds: List[str] = []
        # Running totals, accumulated in submit order so they are bitwise
        # identical to summing event durations left-to-right.
        self._busy_total = 0.0
        self._busy_by_kind: Dict[str, float] = {}
        self._events_cache: Optional[List[QueueEvent]] = None

    @property
    def free_at(self) -> float:
        """Earliest time new work could start."""
        return self._free_at

    def __len__(self) -> int:
        return len(self._starts)

    @property
    def events(self) -> List[QueueEvent]:
        """The event log as (cached) :class:`QueueEvent` rows.

        Materialized on demand from the columns; treat as read-only.
        """
        cache = self._events_cache
        if cache is None or len(cache) != len(self._starts):
            cache = [
                QueueEvent(label=label, start_ms=start, end_ms=end, kind=kind)
                for label, start, end, kind in zip(
                    self._labels, self._starts, self._ends, self._kinds
                )
            ]
            self._events_cache = cache
        return cache

    def submit(self, label: str, duration_ms: float, *, not_before: float = 0.0, kind: str = "work") -> QueueEvent:
        """Enqueue a work item; returns its event (with start/end times).

        The item starts at ``max(queue free time, not_before)`` — queues are
        in-order, like real command queues without out-of-order execution.
        """
        start, end = self.submit_fast(label, duration_ms, not_before, kind)
        return QueueEvent(label=label, start_ms=start, end_ms=end, kind=kind)

    def submit_fast(self, label: str, duration_ms: float, not_before: float = 0.0,
                    kind: str = "work") -> Tuple[float, float]:
        """Hot-path submit: identical semantics, returns ``(start, end)``.

        Skips the :class:`QueueEvent` construction — executor inner loops
        only need the two floats.
        """
        if duration_ms < 0:
            raise ValueError("duration must be non-negative")
        start = max(self._free_at, not_before)
        end = start + duration_ms
        self._free_at = end
        self._labels.append(label)
        self._starts.append(start)
        self._ends.append(end)
        self._kinds.append(kind)
        busy = end - start
        self._busy_total += busy
        self._busy_by_kind[kind] = self._busy_by_kind.get(kind, 0.0) + busy
        return start, end

    def submit_run(self, label: str, durations: Sequence[float],
                   kind: str = "work") -> Tuple[np.ndarray, np.ndarray]:
        """Submit back-to-back items (no ``not_before``) as one fold.

        Equivalent to ``submit_fast(label_i, d, 0.0, kind)`` for each ``d``
        in ``durations`` — the same end times and ``free_at``/busy
        accumulators, bitwise — but logged as one coalesced
        ``(start_0, end_last)`` row labelled ``label``.  Returns the float64
        arrays ``(ends, busies)``, one entry per item, where ``busies[i]``
        is ``ends[i] - starts[i]`` (callers fold their own totals from it
        with :func:`fold_sum`).  An empty run changes nothing.
        """
        durs = np.asarray(durations, dtype=np.float64)
        if not len(durs):
            return durs, durs
        if (durs < 0).any():
            raise ValueError("duration must be non-negative")
        # submit_fast starts at max(free_at, 0.0) == free_at.
        ends = np.add.accumulate(np.concatenate(([self._free_at], durs)))
        busies = ends[1:] - ends[:-1]
        start, end = self._free_at, float(ends[-1])
        ends = ends[1:]
        self._free_at = end
        self._labels.append(label)
        self._starts.append(start)
        self._ends.append(end)
        self._kinds.append(kind)
        self._busy_total = fold_sum(self._busy_total, busies)
        self._busy_by_kind[kind] = fold_sum(self._busy_by_kind.get(kind, 0.0), busies)
        return ends, busies

    def advance_to(self, time_ms: float) -> None:
        """Force the queue idle until ``time_ms`` (barriers, model swaps)."""
        self._free_at = max(self._free_at, time_ms)

    def busy_time_ms(self, *, kind: Optional[str] = None) -> float:
        """Total busy time, optionally restricted to one event kind."""
        if kind is None:
            return self._busy_total
        return self._busy_by_kind.get(kind, 0.0)

    def idle_time_ms(self) -> float:
        """Gaps between events up to the queue's current horizon.

        Clamped at 0.0: ``advance_to`` can push ``free_at`` ahead of the
        submitted work (barriers), and accumulator rounding must never let
        the difference drift negative.
        """
        return max(0.0, self._free_at - self._busy_total)

    # ---------------------------------------------------------- replay API
    def replay_columns(self) -> Tuple[List[str], List[float], List[float], List[str]]:
        """The raw mutable columns ``(labels, starts, ends, kinds)``.

        For trusted bulk-append replay paths (steady-state iteration
        extrapolation in ``repro.runtime``): the caller must append rows
        that keep the class invariant (start-sorted, start >= previous end)
        and finish with :meth:`sync_clock`.
        """
        return self._labels, self._starts, self._ends, self._kinds

    def clock_state(self) -> Tuple[float, float, Dict[str, float]]:
        """Snapshot ``(free_at, busy_total, busy_by_kind)`` for a replay."""
        return self._free_at, self._busy_total, dict(self._busy_by_kind)

    def sync_clock(self, free_at: float, busy_total: float, busy_by_kind: Dict[str, float]) -> None:
        """Restore accumulator state after a bulk replay (see replay_columns)."""
        self._free_at = free_at
        self._busy_total = busy_total
        self._busy_by_kind = dict(busy_by_kind)

    def busy_intervals(self) -> List[Tuple[float, float]]:
        """Disjoint busy (start, end) intervals, merged in one pass.

        Relies on the class invariant (columns start-sorted and disjoint),
        so no sorting is needed; zero-duration events are skipped like the
        energy model always did.
        """
        merged: List[Tuple[float, float]] = []
        append = merged.append
        prev_start = prev_end = 0.0
        have = False
        for start, end in zip(self._starts, self._ends):
            if end <= start:  # zero-duration (e.g. instantaneous markers)
                continue
            if have and start <= prev_end:
                if end > prev_end:
                    prev_end = end
            else:
                if have:
                    append((prev_start, prev_end))
                prev_start, prev_end = start, end
                have = True
        if have:
            append((prev_start, prev_end))
        return merged


@dataclass
class DualQueue:
    """The IO + GPU queue pair every executor runs on."""

    io: CommandQueue = field(default_factory=lambda: CommandQueue("io"))
    gpu: CommandQueue = field(default_factory=lambda: CommandQueue("gpu"))

    @property
    def makespan_ms(self) -> float:
        """Completion time of all submitted work."""
        return max(self.io.free_at, self.gpu.free_at)

    def all_events(self) -> List[QueueEvent]:
        """Merged, time-ordered event log across both queues."""
        return sorted(self.io.events + self.gpu.events, key=lambda e: (e.start_ms, e.end_ms))
