"""Shared infrastructure for the experiment drivers.

All drivers use one standard experiment configuration (solver budgets sized
for repeated runs) and two cache layers so Table 7, Table 8, Table 9, and
Figure 10 reuse each (model, device) compilation instead of re-solving:

- an in-process ``lru_cache`` layer (always on, exactly the seed behavior);
- an optional persistent :class:`~repro.core.store.ArtifactStore` layer,
  enabled via :func:`configure_cache`, that survives across processes —
  sweep workers and repeated CLI invocations load each other's compiled
  models and run results instead of re-solving.

Keys carry (model, device, config fingerprint) and the artifact schema
version, so a config or format change addresses fresh entries.
"""

from __future__ import annotations

import pathlib
from functools import lru_cache
from typing import Any, Dict, Optional, Union

from repro.capacity import cache as capacity_cache
from repro.capacity.model import LoadCapacityModel, analytic_capacity_model
from repro.core.config import FlashMemConfig
from repro.core.flashmem import CompiledModel, FlashMem
from repro.core.store import ArtifactStore, flashmem_config_fingerprint
from repro.gpusim import pricing
from repro.gpusim.device import get_device
from repro.gpusim.timeline import RunResult
from repro.graph.dag import Graph
from repro.graph.lowering import eliminate_layout_ops
from repro.graph.models import load_decode_model, load_model
from repro.opg.problem import OpgConfig
from repro.runtime.frameworks import get_profile
from repro.runtime.preload import ModelNotSupportedError, PreloadExecutor
from repro.runtime.scenario import Scenario

#: Default evaluation device (the paper's primary target).
DEFAULT_DEVICE = "OnePlus 12"

#: The canonical single-pass prefill scenario every legacy table/figure cell
#: runs under; sweep cache probes reuse it so their keys match the cells'.
PREFILL_ONCE = Scenario.prefill(1)

#: Stored in place of a result for (framework, model) pairs the framework
#: does not support — ``ArtifactStore`` cannot distinguish a stored None
#: from a miss.
_UNSUPPORTED = "__model-not-supported__"

#: The persistent artifact store, or None (in-process caching only).
_STORE: Optional[ArtifactStore] = None


def experiment_opg_config(**overrides) -> OpgConfig:
    """Solver settings sized for experiment sweeps (seconds, not minutes)."""
    base = dict(time_limit_s=3.0, max_nodes_per_window=500)
    base.update(overrides)
    return OpgConfig(**base)


def experiment_flashmem_config(**overrides) -> FlashMemConfig:
    """Standard experiment pipeline config; ``capacity_backend``/
    ``capacity_seed`` land on the :class:`FlashMemConfig`, everything else
    on its :class:`OpgConfig`."""
    fm_kwargs = {}
    for key in ("capacity_backend", "capacity_seed"):
        if key in overrides:
            fm_kwargs[key] = overrides.pop(key)
    return FlashMemConfig(opg=experiment_opg_config(**overrides), **fm_kwargs)


# --------------------------------------------------------- persistent layer
def configure_cache(cache_dir: Union[str, pathlib.Path, None]) -> Optional[ArtifactStore]:
    """Point the persistent artifact cache at ``cache_dir`` (None disables).

    Returns the active store.  The in-process ``lru_cache`` layer is
    unaffected: values computed under any store configuration are identical
    for identical keys.
    """
    global _STORE
    _STORE = ArtifactStore(cache_dir) if cache_dir is not None else None
    pricing.set_pricing_store(_STORE)
    capacity_cache.set_capacity_store(_STORE)
    return _STORE


def cache_store() -> Optional[ArtifactStore]:
    """The active persistent store, or None when disabled."""
    return _STORE


def swap_store(store: Optional[ArtifactStore]) -> Optional[ArtifactStore]:
    """Install ``store`` (may be None) and return the previous one.

    The inline sweep path uses this to scope its cache configuration to one
    run instead of leaking it into the calling process.
    """
    global _STORE
    previous = _STORE
    _STORE = store
    pricing.set_pricing_store(store)
    capacity_cache.set_capacity_store(store)
    return previous


def cache_stats() -> Dict[str, int]:
    """Persistent-store + pricing counters (store fields zero when disabled).

    Store traffic (``hits``/``misses``/``stores``/``corrupt``) comes from the
    :class:`ArtifactStore`; ``pricing_hits``/``pricing_misses`` count the
    in-process cost-table LRU across every simulated run this process made.
    """
    stats = (_STORE.stats.snapshot() if _STORE
             else {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0})
    stats["pricing_hits"] = pricing.STATS.table_hits
    stats["pricing_misses"] = pricing.STATS.table_misses
    stats["capacity_trains"] = capacity_cache.STATS["trains"]
    stats["capacity_store_hits"] = capacity_cache.STATS["store_hits"]
    return stats


def experiment_config_fingerprint() -> str:
    """Fingerprint of the standard experiment configuration."""
    return flashmem_config_fingerprint(experiment_flashmem_config())


def _store_load(key: Dict[str, Any]) -> Optional[Any]:
    return _STORE.load(key) if _STORE is not None else None


def _store_save(key: Dict[str, Any], value: Any) -> None:
    if _STORE is not None:
        _STORE.save(key, value)


def compile_key(
    model: str,
    device_name: str,
    context_len: int = 0,
    *,
    config: Optional[FlashMemConfig] = None,
) -> Dict[str, Any]:
    """Artifact address of one compilation.

    ``config=None`` fingerprints the standard experiment configuration, so
    experiment drivers, sweep workers, and service requests running default
    settings all address the *same* stored artifact; an explicit config
    (service requests with a custom solver budget) addresses its own entry.
    """
    fingerprint = (experiment_config_fingerprint() if config is None
                   else flashmem_config_fingerprint(config))
    key = {"kind": "compiled", "model": model, "device": device_name,
           "config": fingerprint}
    if context_len:
        key["context_len"] = int(context_len)
    return key


def flashmem_run_key(
    model: str, device_name: str, scenario: Scenario
) -> Dict[str, Any]:
    return {"kind": "flashmem-run", "model": model, "device": device_name,
            "scenario": scenario.cache_key(), "config": experiment_config_fingerprint()}


def framework_run_key(
    framework: str, model: str, device_name: str, scenario: Scenario
) -> Dict[str, Any]:
    return {"kind": "framework-run", "framework": framework, "model": model,
            "device": device_name, "scenario": scenario.cache_key()}


# ------------------------------------------------------------ cached cells
@lru_cache(maxsize=64)
def cached_graph(model: str) -> Graph:
    return load_model(model)


@lru_cache(maxsize=64)
def cached_lowered_graph(model: str) -> Graph:
    """The layout-eliminated graph SmartMem runs (pure, so shared)."""
    return eliminate_layout_ops(cached_graph(model))


@lru_cache(maxsize=16)
def cached_capacity(device_name: str, backend: str = "analytic") -> LoadCapacityModel:
    """Capacity model per (device, backend).

    ``gbt`` goes through the read-through capacity-model cache
    (:mod:`repro.capacity.cache`): trained once per device across
    processes sharing a store, warm-loaded everywhere else.
    """
    if backend == "gbt":
        return capacity_cache.trained_capacity_model(get_device(device_name))
    return analytic_capacity_model(get_device(device_name))


@lru_cache(maxsize=64)
def cached_compile(model: str, device_name: str) -> CompiledModel:
    """Full-pipeline FlashMem compilation, cached per (model, device)."""
    key = compile_key(model, device_name)
    stored = _store_load(key)
    if stored is not None:
        return stored
    fm = FlashMem(experiment_flashmem_config())
    compiled = fm.compile(
        cached_graph(model), get_device(device_name), capacity=cached_capacity(device_name)
    )
    _store_save(key, compiled)
    return compiled


@lru_cache(maxsize=256)
def flashmem_result(model: str, device_name: str, iterations: int = 1) -> RunResult:
    """Cached FlashMem prefill run (``iterations`` passes of the graph)."""
    scenario = Scenario.prefill(iterations)
    key = flashmem_run_key(model, device_name, scenario)
    stored = _store_load(key)
    if stored is not None:
        return stored
    fm = FlashMem(experiment_flashmem_config())
    result = fm.run(cached_compile(model, device_name), scenario=scenario)
    _store_save(key, result)
    return result


@lru_cache(maxsize=512)
def framework_result(
    framework: str, model: str, device_name: str, iterations: int = 1
) -> Optional[RunResult]:
    """Cached baseline prefill run; None when the framework lacks support.

    Baselines other than SmartMem execute the raw lowered graph (layout ops
    included); SmartMem — whose contribution is layout-transformation
    elimination — runs the layout-eliminated graph, like FlashMem.
    """
    scenario = Scenario.prefill(iterations)
    key = framework_run_key(framework, model, device_name, scenario)
    stored = _store_load(key)
    if stored is not None:
        return None if stored == _UNSUPPORTED else stored
    profile = get_profile(framework)
    graph = cached_lowered_graph(model) if framework == "SMem" else cached_graph(model)
    try:
        result: Optional[RunResult] = PreloadExecutor(profile, get_device(device_name)).run(
            graph, scenario=scenario
        )
    except ModelNotSupportedError:
        result = None
    _store_save(key, _UNSUPPORTED if result is None else result)
    return result


# ------------------------------------------------------------- decode cells
@lru_cache(maxsize=64)
def cached_decode_graph(model: str, context_len: int) -> Graph:
    return load_decode_model(model, context_len=context_len)


@lru_cache(maxsize=64)
def cached_decode_compile(model: str, device_name: str, context_len: int) -> CompiledModel:
    """Decode-phase compilation (weights resident, KV residency planned),
    cached per (model, device, prompt length)."""
    key = compile_key(model, device_name, context_len)
    stored = _store_load(key)
    if stored is not None:
        return stored
    fm = FlashMem(experiment_flashmem_config())
    compiled = fm.compile(
        cached_decode_graph(model, context_len),
        get_device(device_name),
        capacity=cached_capacity(device_name),
    )
    _store_save(key, compiled)
    return compiled


@lru_cache(maxsize=256)
def flashmem_decode_result(
    model: str, device_name: str, context_len: int, tokens: int
) -> RunResult:
    """Cached FlashMem autoregressive decode: ``tokens`` generated after a
    ``context_len``-token prompt, KV cache streamed per the residency plan."""
    scenario = Scenario.decode(tokens=tokens, context_len=context_len)
    key = flashmem_run_key(model, device_name, scenario)
    stored = _store_load(key)
    if stored is not None:
        return stored
    fm = FlashMem(experiment_flashmem_config())
    result = fm.run(cached_decode_compile(model, device_name, context_len), scenario=scenario)
    _store_save(key, result)
    return result


@lru_cache(maxsize=256)
def framework_decode_result(
    framework: str, model: str, device_name: str, context_len: int, tokens: int
) -> Optional[RunResult]:
    """Cached preloading-baseline decode (unbounded KV growth)."""
    scenario = Scenario.decode(tokens=tokens, context_len=context_len)
    key = framework_run_key(framework, model, device_name, scenario)
    stored = _store_load(key)
    if stored is not None:
        return None if stored == _UNSUPPORTED else stored
    profile = get_profile(framework)
    graph = cached_decode_graph(model, context_len)
    try:
        result: Optional[RunResult] = PreloadExecutor(profile, get_device(device_name)).run(
            graph, scenario=scenario, check_support=False
        )
    except ModelNotSupportedError:
        result = None
    _store_save(key, _UNSUPPORTED if result is None else result)
    return result


def clear_caches() -> None:
    """Drop all in-process cached compilations/results (tests use this for
    isolation).  The persistent store, if configured, is untouched."""
    for fn in (cached_graph, cached_lowered_graph, cached_capacity, cached_compile,
               flashmem_result, framework_result, cached_decode_graph, cached_decode_compile,
               flashmem_decode_result, framework_decode_result):
        fn.cache_clear()
    capacity_cache.clear_capacity_cache()
