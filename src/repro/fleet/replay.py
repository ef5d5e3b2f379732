"""Trace replay for one device × runtime cell: FIFO scheduling + SLO stats.

The device serves invocations one at a time (mobile GPUs don't space-share
DNNs): when it frees up, the highest-priority *arrived* request starts —
ties FIFO by arrival, then trace order.  Each invocation executes as the
episode matching the throttle state in force at its start, fetched from an
:class:`~repro.fleet.episode.EpisodeProvider` (memoized, or naive for the
benchmark baseline).

Latency is completion minus arrival — queueing wait included, which is what
an app observes.  The SLO target per invocation is ``slo_multiplier`` times
the *nominal* (unthrottled, no-queue) episode latency of the same work: an
invocation misses its SLO when queueing and thermal throttling together
stretch it past that budget.

The cell's memory timeline is the columnar merge of every session
(:func:`~repro.gpusim.timeline.merge_session_columns`); peak/average are
computed vectorized, and a SHA-256 over the merged columns makes whole-run
byte-identity checkable without shipping megabytes of samples around.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.fleet.episode import EpisodeProvider
from repro.fleet.trace import Trace
from repro.gpusim.timeline import merge_session_columns

#: Default latency budget: 3x the nominal solo episode latency.
DEFAULT_SLO_MULTIPLIER = 3.0


@dataclass(frozen=True)
class InvocationOutcome:
    """One scheduled invocation's timing and SLO verdict."""

    index: int
    model: str
    priority: int
    state: str
    arrival_ms: float
    start_ms: float
    end_ms: float
    slo_target_ms: float

    @property
    def latency_ms(self) -> float:
        """What the app observed: completion minus arrival (queueing included)."""
        return self.end_ms - self.arrival_ms

    @property
    def queue_ms(self) -> float:
        return self.start_ms - self.arrival_ms

    @property
    def slo_ok(self) -> bool:
        return self.latency_ms <= self.slo_target_ms


@dataclass
class CellResult:
    """Replay outcome of one trace on one device × runtime cell."""

    trace_name: str
    device: str
    runtime: str
    slo_multiplier: float
    outcomes: List[InvocationOutcome] = field(default_factory=list)
    episodes_simulated: int = 0
    invocations_replayed: int = 0
    energy_j: float = 0.0
    peak_bytes: int = 0
    avg_bytes: float = 0.0
    makespan_ms: float = 0.0
    #: SHA-256 over the merged (times, totals) columns — replay ≡ naive
    #: byte-identity is equality of this digest plus the outcome list.
    timeline_sha256: str = ""

    @property
    def invocations(self) -> int:
        return len(self.outcomes)

    def _latencies(self) -> List[float]:
        return sorted(o.latency_ms for o in self.outcomes)

    def percentile_ms(self, pct: float) -> float:
        """Nearest-rank percentile of observed latency."""
        latencies = self._latencies()
        if not latencies:
            return 0.0
        rank = max(1, int(np.ceil(pct / 100.0 * len(latencies))))
        return latencies[rank - 1]

    @property
    def p50_ms(self) -> float:
        return self.percentile_ms(50.0)

    @property
    def p99_ms(self) -> float:
        return self.percentile_ms(99.0)

    @property
    def slo_attainment(self) -> float:
        if not self.outcomes:
            return 1.0
        return sum(1 for o in self.outcomes if o.slo_ok) / len(self.outcomes)

    @property
    def device_hours(self) -> float:
        """Simulated device time this cell covers, in hours."""
        return self.makespan_ms / 3_600_000.0

    def canonical_json(self) -> str:
        """Exact (hex-float) serialization for byte-identity comparison."""
        payload: Dict[str, Any] = {
            "trace": self.trace_name,
            "device": self.device,
            "runtime": self.runtime,
            "slo_multiplier": float(self.slo_multiplier).hex(),
            "energy_j": float(self.energy_j).hex(),
            "peak_bytes": self.peak_bytes,
            "avg_bytes": float(self.avg_bytes).hex(),
            "makespan_ms": float(self.makespan_ms).hex(),
            "timeline_sha256": self.timeline_sha256,
            "outcomes": [
                [
                    o.index,
                    o.model,
                    o.priority,
                    o.state,
                    float(o.arrival_ms).hex(),
                    float(o.start_ms).hex(),
                    float(o.end_ms).hex(),
                    float(o.slo_target_ms).hex(),
                ]
                for o in self.outcomes
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def replay_trace(
    trace: Trace,
    device_name: str,
    runtime: str = "FlashMem",
    *,
    provider: Optional[EpisodeProvider] = None,
    slo_multiplier: float = DEFAULT_SLO_MULTIPLIER,
) -> CellResult:
    """Replay ``trace`` on one device under one runtime.

    ``provider`` defaults to a fresh memoized :class:`EpisodeProvider`;
    pass a shared one to reuse episodes across cells, or a
    ``memoize=False`` one for the naive baseline.
    """
    provider = provider if provider is not None else EpisodeProvider()
    simulated_before = provider.simulated
    replayed_before = provider.replayed
    result = CellResult(
        trace_name=trace.name,
        device=device_name,
        runtime=runtime,
        slo_multiplier=slo_multiplier,
    )
    invocations = trace.invocations
    n = len(invocations)
    heap: List[Any] = []  # (-priority, arrival_ms, seq)
    sessions = []
    next_arrival = 0
    free_at = 0.0
    while heap or next_arrival < n:
        now = free_at
        if not heap:
            now = max(free_at, invocations[next_arrival].arrival_ms)
        while next_arrival < n and invocations[next_arrival].arrival_ms <= now:
            inv = invocations[next_arrival]
            heapq.heappush(heap, (-inv.priority, inv.arrival_ms, next_arrival))
            next_arrival += 1
        _, _, index = heapq.heappop(heap)
        inv = invocations[index]
        start = max(now, inv.arrival_ms)
        state = trace.state_at(start)
        episode = provider.get(inv.model, device_name, runtime, inv.scenario, state)
        nominal = provider.get(inv.model, device_name, runtime, inv.scenario, "nominal")
        end = start + episode.latency_ms
        free_at = end
        sessions.append(episode.session(start))
        result.outcomes.append(
            InvocationOutcome(
                index=index,
                model=inv.model,
                priority=inv.priority,
                state=state,
                arrival_ms=inv.arrival_ms,
                start_ms=start,
                end_ms=end,
                slo_target_ms=slo_multiplier * nominal.latency_ms,
            )
        )
        result.energy_j += episode.energy_j

    result.episodes_simulated = provider.simulated - simulated_before
    result.invocations_replayed = provider.replayed - replayed_before
    result.makespan_ms = max(
        trace.duration_ms, max((o.end_ms for o in result.outcomes), default=0.0)
    )
    times, totals = merge_session_columns(sessions)
    result.peak_bytes = int(totals.max()) if len(totals) else 0
    if result.makespan_ms > 0 and len(times):
        # Step integral: totals[k] holds from times[k] to times[k+1], and the
        # final level (zero once every session tore down) to the makespan.
        held = np.diff(times)
        area = float(np.dot(totals[:-1], held))
        area += float(totals[-1]) * (result.makespan_ms - float(times[-1]))
        result.avg_bytes = area / result.makespan_ms
    # Hashed through the buffer protocol: the bytes ``tobytes()`` would
    # copy out of the (contiguous) columns.
    digest = hashlib.sha256()
    digest.update(times)
    digest.update(totals)
    result.timeline_sha256 = digest.hexdigest()
    return result
