"""Episode memo: each distinct fleet episode is simulated exactly once.

An *episode* is one invocation's full simulation under a fixed
``(model, device, runtime, scenario, throttle-state)`` tuple.  A fleet trace
has thousands of invocations but only a handful of distinct episodes, so the
provider simulates each once — read-through to the persistent
:class:`~repro.core.store.ArtifactStore` (kind ``episode``) when one is
configured, exactly the compiled-model caching idiom in
:mod:`repro.experiments.common` — and answers every further invocation from
the memo.  Replay splices the cached columnar timeline at the invocation's
start offset, so a replayed session is bitwise-identical to re-simulating
(the simulator is deterministic and the columns are exact int64 deltas).

``memoize=False`` turns the provider into the naive engine (a fresh
simulation per invocation) — the A/B baseline the throughput benchmark and
the byte-identity tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.experiments import common
# Kept as a module attribute: perfbench/tracing.py times graph lowering by
# patching this name.
from repro.graph.lowering import eliminate_layout_ops  # noqa: F401
from repro.gpusim.device import THROTTLE_STATES, get_device
from repro.gpusim.timeline import RunResult, session_deltas
from repro.runtime.executor import FlashMemExecutor
from repro.runtime.frameworks import get_profile
from repro.runtime.preload import PreloadExecutor
from repro.runtime.scenario import Scenario


@dataclass(frozen=True)
class Episode:
    """One simulated invocation, stored in replayable columnar form."""

    model: str
    device: str
    runtime: str
    scenario: Scenario
    state: str
    latency_ms: float
    energy_j: float
    peak_bytes: int
    oom: bool
    #: Memory timeline as (times, deltas) columns (see ``session_deltas``).
    times: np.ndarray
    deltas: np.ndarray

    def session(self, start_ms: float) -> Tuple[float, np.ndarray, np.ndarray, float]:
        """This episode as a merge-ready session starting at ``start_ms``."""
        return (start_ms, self.times, self.deltas, start_ms + self.latency_ms)

    @classmethod
    def from_run(
        cls,
        result: RunResult,
        *,
        scenario: Scenario,
        state: str,
    ) -> "Episode":
        times, deltas = session_deltas(result.memory)
        return cls(
            model=result.model,
            device=result.device,
            runtime=result.runtime,
            scenario=scenario,
            state=state,
            latency_ms=result.latency_ms,
            energy_j=result.energy_j,
            peak_bytes=result.peak_memory_bytes,
            oom=bool(result.details.get("oom")),
            times=times,
            deltas=deltas,
        )


def episode_key(
    model: str, device_name: str, runtime: str, scenario: Scenario, state: str
) -> Dict[str, Any]:
    """Artifact-store address of one episode."""
    return {
        "kind": "episode",
        "model": model,
        "device": device_name,
        "runtime": runtime,
        "scenario": scenario.cache_key(),
        "throttle": state,
        "config": common.experiment_config_fingerprint(),
    }


class EpisodeProvider:
    """Read-through episode cache over the deterministic simulator.

    ``get`` answers from, in order: the in-process memo, the persistent
    artifact store (when :func:`repro.experiments.common.configure_cache`
    or a pool worker's read-through store is active), and a fresh
    simulation.  With ``memoize=False`` every ``get`` simulates — the naive
    per-invocation engine used as the benchmark baseline.
    """

    def __init__(self, *, memoize: bool = True) -> None:
        self.memoize = memoize
        self._memo: Dict[Tuple[Any, ...], Episode] = {}
        #: Full simulations performed by this provider.
        self.simulated = 0
        #: ``get`` calls answered without simulating (memo or store).
        self.replayed = 0

    def get(
        self,
        model: str,
        device_name: str,
        runtime: str,
        scenario: Scenario,
        state: str = "nominal",
    ) -> Episode:
        if state not in THROTTLE_STATES:
            raise KeyError(
                f"unknown throttle state {state!r}; "
                f"available: {sorted(THROTTLE_STATES)}"
            )
        if not self.memoize:
            self.simulated += 1
            return self._simulate(model, device_name, runtime, scenario, state)
        memo_key = (model, device_name, runtime, scenario, state)
        episode = self._memo.get(memo_key)
        if episode is not None:
            self.replayed += 1
            return episode
        store = common.cache_store()
        stored: Optional[Episode] = (
            store.load(episode_key(model, device_name, runtime, scenario, state))
            if store is not None
            else None
        )
        if stored is not None:
            self.replayed += 1
            self._memo[memo_key] = stored
            return stored
        self.simulated += 1
        episode = self._simulate(model, device_name, runtime, scenario, state)
        self._memo[memo_key] = episode
        if store is not None:
            store.save(episode_key(model, device_name, runtime, scenario, state), episode)
        return episode

    # ------------------------------------------------------------ simulate
    def _simulate(
        self,
        model: str,
        device_name: str,
        runtime: str,
        scenario: Scenario,
        state: str,
    ) -> Episode:
        device = get_device(device_name).throttled(state)
        if runtime == "FlashMem":
            # Plans are compiled offline for the nominal device (the
            # compile-time artifact); the throttle is a runtime condition
            # applied at execution.
            if scenario.is_decode:
                compiled = common.cached_decode_compile(
                    model, device_name, scenario.context_len
                )
            else:
                compiled = common.cached_compile(model, device_name)
            config = common.experiment_flashmem_config()
            executor = FlashMemExecutor(
                device, rewriting=config.use_kernel_rewriting
            )
            result = executor.run(
                compiled.graph, compiled.plan, compiled.bundle, scenario=scenario
            )
        else:
            profile = get_profile(runtime)
            if scenario.is_decode:
                graph = common.cached_decode_graph(model, scenario.context_len)
            elif runtime == "SMem":
                graph = common.cached_lowered_graph(model)
            else:
                graph = common.cached_graph(model)
            result = PreloadExecutor(profile, device).run(
                graph, scenario=scenario, check_support=False
            )
        return Episode.from_run(result, scenario=scenario, state=state)
