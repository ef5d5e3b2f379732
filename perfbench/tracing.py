"""Span tracing around the public entry points of each ``repro`` layer.

Nothing under ``src/`` is instrumented.  Instead, :func:`traced` patches each
entry point *where its caller looks it up* (a module attribute or a class
method) with a wrapper that records a span, and restores the originals on
exit.  Spans nest per thread: each one knows its parent, and a span's self
time is its duration minus the time its direct children covered.  Spans are
aggregated in memory by name (count, total seconds, self seconds) and a few
result hooks count work where it happens (operators queried, plans solved,
proofs closed, bytes published).

Worker processes of the compile service are never traced; their compile
time reaches the benchmark through ``ServiceReply.wall_s``.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class _Span:
    """An open span: how much of it its finished children covered."""

    __slots__ = ("child_s",)

    def __init__(self) -> None:
        self.child_s = 0.0


class Tracer:
    """In-memory span aggregates and counters for one traced round."""

    def __init__(self) -> None:
        self.count: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``hook(tracer, args, kwargs,
        result)`` runs after each call to count work from the result."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = _Span()
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
                with self._lock:
                    self.count[name] += 1
                    self.total_s[name] += elapsed
                    self.self_s[name] += elapsed - span.child_s
            if hook is not None:
                with self._lock:
                    hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


# ---------------------------------------------------------------- result hooks
def _count_ops(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["capacity.queries"] += len(result)


def _fusion_report(tracer: Tracer, args, kwargs, result) -> None:
    report = result[2]
    tracer.counters["fusion.iterations"] += report.iterations
    tracer.counters["fusion.splits_applied"] += report.splits_applied


def _plan_stats(tracer: Tracer, args, kwargs, result) -> None:
    # One LC-OPG solve = one entry of AdaptiveFusionReport.solver_iterations:
    # summing here covers every solve, not just the final plan's stats.
    stats = result.stats
    for field, counter in (
        ("windows", "opg.windows"),
        ("windows_reused", "opg.windows_reused"),
        ("cp_windows", "opg.cp_windows"),
        ("nodes_explored", "opg.cp_nodes"),
        ("edf_calls", "opg.edf_calls"),
        ("heuristic_windows", "opg.heuristic_windows"),
        ("incremental_preloads", "opg.incremental_preloads"),
    ):
        tracer.counters[counter] += getattr(stats, field)


def _cp_status(tracer: Tracer, args, kwargs, result) -> None:
    if result.status.value == "OPTIMAL":
        tracer.counters["opg.cp_optimal"] += 1


def _prover_result(tracer: Tracer, args, kwargs, result) -> None:
    if result[1]:
        tracer.counters["opg.prover_proven"] += 1


def _store_loaded_one(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["store.loads"] += 1
    tracer.counters["store.load_hits"] += result is not None


def _store_loaded_many(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["store.loads"] += len(result)
    tracer.counters["store.load_hits"] += sum(v is not None for v in result)


def _store_saved(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["store.publish_bytes"] += result.stat().st_size


#: (module, attribute path, span name, result hook).  A dotted attribute is
#: a method patched on its class, so every instance picks it up.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.graph.models", "load_model", "graph.build", None),
    ("repro.experiments.common", "load_model", "graph.build", None),
    ("repro.experiments.common", "load_decode_model", "graph.build", None),
    ("repro.capacity.cache", "load_model", "graph.build", None),
    ("repro.core.flashmem", "eliminate_layout_ops", "graph.lower", None),
    ("repro.experiments.common", "eliminate_layout_ops", "graph.lower", None),
    ("repro.fleet.episode", "eliminate_layout_ops", "graph.lower", None),
    ("repro.capacity.model", "LoadCapacityModel.capacity_bytes_batch", "capacity.query", _count_ops),
    ("repro.capacity.cache", "trained_capacity_model", "capacity.train", None),
    ("repro.fusion.adaptive", "AdaptiveFusionPlanner.plan", "fusion.plan", _fusion_report),
    ("repro.opg.lcopg", "LcOpgSolver.solve", "opg.solve", _plan_stats),
    ("repro.opg.cpsat.search", "CpSolver.solve", "opg.cp", _cp_status),
    ("repro.opg.lcopg", "prove_window", "opg.prover", _prover_result),
    # LcOpgSolver binds this to ``self._edf`` at construction.
    ("repro.opg.lcopg", "edf_feasible", "opg.edf", None),
    ("repro.opg.lcopg", "greedy_schedule", "opg.greedy", None),
    ("repro.kernels.rewriter", "KernelRewriter.rewrite_graph", "kernels.rewrite", None),
    ("repro.runtime.executor", "FlashMemExecutor.run", "runtime.flashmem_run", None),
    ("repro.runtime.preload", "PreloadExecutor.run", "runtime.preload_run", None),
    ("repro.gpusim.pricing", "kernel_time_table", "gpusim.pricing", None),
    ("repro.gpusim.pricing", "flash_attention_time_table", "gpusim.pricing", None),
    ("repro.fleet.replay", "merge_session_columns", "gpusim.merge", None),
    ("repro.fleet.episode", "EpisodeProvider.get", "fleet.episode", None),
    ("repro.fleet.population", "replay_trace", "fleet.replay", None),
    ("repro.core.store", "ArtifactStore.load", "store.load", _store_loaded_one),
    ("repro.core.store", "ArtifactStore.load_many", "store.load", _store_loaded_many),
    ("repro.core.store", "ArtifactStore.save", "store.publish", _store_saved),
    ("repro.core.store", "ArtifactStore.publish_bytes", "store.publish", _store_saved),
)


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer``'s wrappers on every target; restore on exit.

    Pricing-table hits and misses are read from ``pricing.STATS`` across the
    traced window: every pricing call inside it goes through a wrapper.
    """
    from repro.gpusim import pricing

    undo: List[Tuple[Any, str, Any]] = []
    hits, misses = pricing.STATS.table_hits, pricing.STATS.table_misses
    try:
        for module_name, path, span, hook in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(span, getattr(owner, attr), hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        tracer.counters["gpusim.table_hits"] += pricing.STATS.table_hits - hits
        tracer.counters["gpusim.table_misses"] += pricing.STATS.table_misses - misses


def maybe_traced(tracer: Optional[Tracer]):
    """:func:`traced` when ``tracer`` is given, else a no-op context."""
    return traced(tracer) if tracer is not None else contextlib.nullcontext()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer figures of one traced round, by metric name."""
    t, s, n, c = tracer.total_s, tracer.self_s, tracer.count, tracer.counters
    return {
        "graph.build_s": t["graph.build"],
        "graph.lower_s": t["graph.lower"],
        "kernels.rewrite_s": t["kernels.rewrite"],
        "capacity.query_s": t["capacity.query"],
        "capacity.queries": c["capacity.queries"],
        "capacity.train_s": t["capacity.train"],
        "fusion.loop_self_s": s["fusion.plan"],
        "fusion.iterations": c["fusion.iterations"],
        "fusion.splits_applied": c["fusion.splits_applied"],
        "opg.solve_s": t["opg.solve"],
        "opg.cp_s": t["opg.cp"],
        "opg.prover_s": t["opg.prover"],
        "opg.edf_s": t["opg.edf"],
        "opg.greedy_s": t["opg.greedy"],
        "opg.solves": n["opg.solve"],
        "opg.cp_windows": c["opg.cp_windows"],
        "opg.cp_nodes": c["opg.cp_nodes"],
        "opg.prover_calls": n["opg.prover"],
        "opg.edf_calls": c["opg.edf_calls"],
        "opg.heuristic_windows": c["opg.heuristic_windows"],
        "opg.incremental_preloads": c["opg.incremental_preloads"],
        "opg.cp_optimal_ratio": _ratio(c["opg.cp_optimal"], n["opg.cp"]),
        "opg.prover_proven_ratio": _ratio(c["opg.prover_proven"], n["opg.prover"]),
        "opg.window_reuse_ratio": _ratio(c["opg.windows_reused"], c["opg.windows"]),
        "runtime.flashmem_run_s": t["runtime.flashmem_run"],
        "runtime.flashmem_runs": n["runtime.flashmem_run"],
        "runtime.preload_run_s": t["runtime.preload_run"],
        "runtime.preload_runs": n["runtime.preload_run"],
        "gpusim.pricing_s": t["gpusim.pricing"],
        "gpusim.pricing_hit_ratio": _ratio(
            c["gpusim.table_hits"], c["gpusim.table_hits"] + c["gpusim.table_misses"]
        ),
        "gpusim.merge_s": t["gpusim.merge"],
        "fleet.replay_self_s": s["fleet.replay"],
        "store.load_s": t["store.load"],
        "store.loads": c["store.loads"],
        "store.hit_ratio": _ratio(c["store.load_hits"], c["store.loads"]),
        "store.publish_s": t["store.publish"],
        "store.publish_bytes": c["store.publish_bytes"],
    }
