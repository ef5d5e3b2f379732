"""Fleet traces: seeded multi-app traffic with throttle windows.

A trace is device- and runtime-independent: it records *what arrives when*
(model, scenario, priority) and *how hot the chassis is* (throttle windows
naming :data:`~repro.gpusim.device.THROTTLE_STATES` entries).  The replay
engine binds it to a concrete device × runtime cell.

Traces round-trip through JSON (``save``/``load``) so a generated trace can
be inspected, archived, and served back via ``repro serve-trace``.
"""

from __future__ import annotations

import bisect
import heapq
import json
import pathlib
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.gpusim.device import THROTTLE_STATES
from repro.runtime.scenario import Scenario

TRACE_SCHEMA_VERSION = 1

#: Default interactive mix: mostly small/medium vision + speech prefill,
#: with a slice of on-device LLM decode turns.  Weights are relative
#: arrival frequencies.
DEFAULT_MODEL_MIX: Tuple[Tuple[str, Scenario, int, float], ...] = (
    # (model, scenario, priority, weight)
    ("ViT", Scenario.prefill(1), 1, 3.0),
    ("ResNet50", Scenario.prefill(1), 1, 3.0),
    ("DepA-S", Scenario.prefill(1), 0, 2.0),
    ("Whisp-M", Scenario.prefill(1), 1, 1.5),
    ("SD-UNet", Scenario.prefill(1), 0, 0.5),
    ("GPTN-S", Scenario.decode(tokens=24, context_len=128), 1, 1.0),
    ("GPTN-S", Scenario.decode(tokens=64, context_len=256), 0, 0.5),
)


def scenario_from_key(key: Dict[str, Any]) -> Scenario:
    """Rebuild a :class:`Scenario` from its :meth:`~Scenario.cache_key`."""
    if key["kind"] == "prefill":
        return Scenario.prefill(int(key["iterations"]))
    return Scenario.decode(
        tokens=int(key["tokens"]), context_len=int(key.get("context_len", 0))
    )


@dataclass(frozen=True)
class TraceInvocation:
    """One app inference request arriving at the device."""

    arrival_ms: float
    model: str
    scenario: Scenario
    priority: int = 0  # higher = more urgent (interactive vs background)

    def to_json(self) -> Dict[str, Any]:
        return {
            "arrival_ms": self.arrival_ms,
            "model": self.model,
            "scenario": self.scenario.cache_key(),
            "priority": self.priority,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "TraceInvocation":
        return cls(
            arrival_ms=float(data["arrival_ms"]),
            model=str(data["model"]),
            scenario=scenario_from_key(data["scenario"]),
            priority=int(data.get("priority", 0)),
        )


@dataclass(frozen=True)
class ThrottleWindow:
    """A [start, end) window during which the SoC runs a throttle state."""

    start_ms: float
    end_ms: float
    state: str

    def __post_init__(self) -> None:
        if self.end_ms <= self.start_ms:
            raise ValueError("throttle window must have positive duration")
        if self.state not in THROTTLE_STATES:
            raise KeyError(
                f"unknown throttle state {self.state!r}; "
                f"available: {sorted(THROTTLE_STATES)}"
            )

    def to_json(self) -> Dict[str, Any]:
        return {"start_ms": self.start_ms, "end_ms": self.end_ms, "state": self.state}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ThrottleWindow":
        return cls(
            start_ms=float(data["start_ms"]),
            end_ms=float(data["end_ms"]),
            state=str(data["state"]),
        )


def _state_segments(
    windows: Sequence[ThrottleWindow],
) -> Tuple[List[float], List[str]]:
    """The throttle envelope as a step function: ``(bounds, states)``.

    ``states[j]`` is in force over ``[bounds[j], bounds[j + 1])`` (the last
    one, always "nominal", from ``bounds[-1]`` on); before ``bounds[0]``
    the state is "nominal".  Every start and end is a bound, so the set of
    open windows is constant within a segment, and the segment's state is
    that of the latest open window: a sweep over the bounds keeps the
    started windows in a max-heap by index and drops closed ones from its
    top.  ``windows`` must be sorted by start.
    """
    bounds = sorted({w.start_ms for w in windows} | {w.end_ms for w in windows})
    states: List[str] = []
    heap: List[Tuple[int, float]] = []  # (-index, end_ms) of started windows
    started = 0
    for bound in bounds:
        while started < len(windows) and windows[started].start_ms <= bound:
            heapq.heappush(heap, (-started, windows[started].end_ms))
            started += 1
        while heap and heap[0][1] <= bound:
            heapq.heappop(heap)
        states.append(windows[-heap[0][0]].state if heap else "nominal")
    return bounds, states


@dataclass
class Trace:
    """A seeded multi-app traffic trace plus its thermal envelope."""

    name: str
    seed: int
    duration_ms: float
    invocations: List[TraceInvocation] = field(default_factory=list)
    throttle: List[ThrottleWindow] = field(default_factory=list)

    def __post_init__(self) -> None:
        arrivals = [inv.arrival_ms for inv in self.invocations]
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ValueError("trace invocations must be sorted by arrival")
        starts = [w.start_ms for w in self.throttle]
        if any(b < a for a, b in zip(starts, starts[1:])):
            raise ValueError("throttle windows must be sorted by start")
        self._bounds, self._states = _state_segments(self.throttle)

    # ------------------------------------------------------------- queries
    def state_at(self, time_ms: float) -> str:
        """Throttle state in force at ``time_ms`` ("nominal" outside windows).

        Windows are half-open [start, end); later windows win on overlap
        (the governor's most recent decision).  One binary search over the
        segment table built at construction, so ``throttle`` is read as
        fixed once the trace exists.
        """
        segment = bisect.bisect_right(self._bounds, time_ms) - 1
        return self._states[segment] if segment >= 0 else "nominal"

    def factor_at(self, time_ms: float) -> float:
        return THROTTLE_STATES[self.state_at(time_ms)]

    @property
    def models(self) -> List[str]:
        return sorted({inv.model for inv in self.invocations})

    def describe(self) -> str:
        decode = sum(1 for inv in self.invocations if inv.scenario.is_decode)
        return (
            f"{self.name}: {len(self.invocations)} invocations over "
            f"{self.duration_ms / 1000:.0f}s ({decode} decode), "
            f"{len(self.models)} models, {len(self.throttle)} throttle windows"
        )

    # ---------------------------------------------------------- round trip
    def to_json(self) -> Dict[str, Any]:
        return {
            "version": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "invocations": [inv.to_json() for inv in self.invocations],
            "throttle": [w.to_json() for w in self.throttle],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Trace":
        version = int(data.get("version", 0))
        if version != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported trace version {version} "
                f"(this build reads version {TRACE_SCHEMA_VERSION})"
            )
        return cls(
            name=str(data["name"]),
            seed=int(data["seed"]),
            duration_ms=float(data["duration_ms"]),
            invocations=[TraceInvocation.from_json(i) for i in data["invocations"]],
            throttle=[ThrottleWindow.from_json(w) for w in data["throttle"]],
        )

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "Trace":
        return cls.from_json(json.loads(pathlib.Path(path).read_text()))


def generate_trace(
    *,
    seed: int = 0,
    duration_s: float = 600.0,
    rate_per_min: float = 30.0,
    mix: Optional[Sequence[Tuple[str, Scenario, int, float]]] = None,
    name: Optional[str] = None,
    invocations: Optional[int] = None,
) -> Trace:
    """Generate a seeded trace of multi-app traffic.

    Arrivals are a Poisson process at ``rate_per_min`` (exponential gaps);
    each arrival draws a (model, scenario, priority) from the weighted
    ``mix`` (default :data:`DEFAULT_MODEL_MIX`).  The thermal envelope
    alternates cool and throttled spells: each throttle window picks a
    sustained state (warm/hot/critical, biased toward warm) for a seeded
    duration — the same seed always produces the identical trace.

    ``invocations=`` overrides the duration-derived count: the trace keeps
    exactly that many arrivals (extending past ``duration_s`` if needed),
    which the throughput benchmarks use to pin trace size.
    """
    rng = random.Random(seed)
    duration_ms = duration_s * 1000.0
    gap_mean_ms = 60_000.0 / rate_per_min
    mix = tuple(mix if mix is not None else DEFAULT_MODEL_MIX)
    weights = [entry[3] for entry in mix]

    out: List[TraceInvocation] = []
    clock = 0.0
    while True:
        clock += rng.expovariate(1.0 / gap_mean_ms)
        if invocations is None:
            if clock >= duration_ms:
                break
        elif len(out) >= invocations:
            break
        model, scenario, priority, _ = rng.choices(mix, weights=weights, k=1)[0]
        out.append(
            TraceInvocation(
                arrival_ms=clock, model=model, scenario=scenario, priority=priority
            )
        )
    span_ms = max(duration_ms, out[-1].arrival_ms if out else 0.0)

    # Thermal envelope: alternate cool spells and throttled windows.
    windows: List[ThrottleWindow] = []
    t = rng.uniform(0.3, 0.7) * min(60_000.0, span_ms)
    states = ("warm", "warm", "hot", "critical")  # biased toward mild states
    while t < span_ms:
        length = rng.uniform(10_000.0, 60_000.0)
        windows.append(
            ThrottleWindow(
                start_ms=t,
                end_ms=min(t + length, span_ms),
                state=rng.choice(states),
            )
        )
        t += length + rng.uniform(15_000.0, 90_000.0)  # cool-down gap

    return Trace(
        name=name or f"trace-seed{seed}",
        seed=seed,
        duration_ms=span_ms,
        invocations=out,
        throttle=windows,
    )
