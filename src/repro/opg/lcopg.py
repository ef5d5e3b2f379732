"""LC-OPG: the Load-Capacity-aware Overlap Plan Generation solver (§3.2).

Orchestrates the full pipeline the paper describes:

1. **Process nodes** — materialise the OPG instance (weights, T(w), i_w,
   candidate layers, per-layer capacities C_l).
2. **Incremental scheduling** — slide a rolling window over the layer
   sequence; each window's weights are scheduled against the *remaining*
   per-layer budgets, keeping the active constraint set small and the
   solver runtime predictable.  A structural tier (reversed-time SRPT)
   certifies a window optimal without search when its schedule meets
   every deadline; only the other windows get a CP model.
3. **Tiered fallbacks (C4)** — on infeasibility or timeout: soft threshold
   adjustment (relax C_l), incremental preloading (move the largest
   offending weight into W), and finally the greedy heuristic backup.
4. **Hybrid execution mode** — when CP exceeds its window budget without an
   incumbent, the window switches to the greedy schedule outright.

The result is an :class:`~repro.opg.plan.OverlapPlan` with full provenance
(per-window solver statuses, fallback counts, timings — Table 4's columns).

**Window-level solve reuse.**  Offline-plan generation time is a
first-class metric (the paper budgets 150 s per model), and the dominant
cold-path cost is the adaptive-fusion loop re-running this solver from
scratch after every round of splits even though splits touch only a
handful of nodes.  The solver therefore fingerprints every rolling window
in *canonical coordinates* — weight identity is positional (names never
enter the key, so fusion renames alone cannot miss), candidate layers are
expressed as rank-in-window plus distance-to-consumer (so upstream edits
that shift or renumber absolute indices still match), and budgets are
keyed only at the layers the window can actually touch — and replays the
cached outcome (schedules, statuses, budget consumption, deferred
hand-offs) for windows whose fingerprint is unchanged.  Three further
properties make the fingerprints stable across adaptive-fusion
iterations: soft-threshold rescales are *scoped* to the window that
needs rescuing (one window's tier-1 round no longer perturbs every
downstream budget), the window partition snaps to the model's structural
period (so a split invalidates the containing block instead of shifting
every downstream window boundary), and periodic models make windows
translation-equivalent to *each other*, so replay fires within a single
cold solve as well as across iterations.  Replay applies the exact
mutation sequence a fresh solve would: scoped soft-round rescales first,
then per-layer chunk consumption, so downstream windows observe
identical budgets either way.  The invariant (and its wall-clock caveat)
is documented in DESIGN.md "compile-path performance";
``tests/fusion/test_adaptive_reuse_equivalence`` holds the reuse path to
byte-identical plans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.capacity.model import LoadCapacityModel
from repro.graph.dag import Graph
from repro.graph.ops import OpKind
from repro.opg.cpsat.model import CpModel, SolveStatus
from repro.opg.cpsat.search import CpSolver
from repro.opg.exact import edf_feasible, edf_feasible_reference, prove_window, srpt_window
from repro.opg.heuristics import Budgets, greedy_assign, greedy_schedule
from repro.opg.plan import KvResidencyPlan, OverlapPlan, PlanStats, WeightSchedule
from repro.opg.problem import OpgConfig, OpgProblem, WeightInfo, build_problem

#: Sentinel assignment for dedicated-transform (conv) weights.
DEDICATED = object()


def plan_kv_residency(graph, plan: OverlapPlan, device, config: OpgConfig) -> Optional[KvResidencyPlan]:
    """Grant the decode-phase KV caches a residency budget alongside weights.

    Runs *after* the weight plan is solved: the caches receive at most
    ``config.kv_budget_fraction`` of the device RAM budget, further capped
    by the RAM the weight plan leaves free (preloaded weights are the
    long-lived co-tenant).  The budget converts to a uniform per-cache cap
    of whole attention tiles — at least one, so the hot tile receiving
    appends can never spill mid-write.  Resident tiles live in texture
    memory when they fit beside the preload set in half the RAM budget
    (the texture pool's share), else in plain unified memory.

    Returns None for graphs without KV caches (prefill lowering).
    """
    caches = graph.kv_cache_specs()
    if not caches:
        return None
    tile_tokens = {n.spec.attrs["tile_tokens"] for n in graph.nodes()
                   if n.kind is OpKind.FLASH_ATTENTION}
    if len(tile_tokens) != 1:
        raise ValueError(f"expected one uniform tile_tokens, got {sorted(tile_tokens)}")
    tile = tile_tokens.pop()
    token_bytes = sum(c.token_bytes for c in caches)
    tile_bytes_all = token_bytes * tile
    ram = device.ram_budget_bytes
    headroom = max(0, ram - plan.preload_bytes)
    budget = min(int(ram * config.kv_budget_fraction), headroom)
    resident_tiles = max(1, budget // tile_bytes_all)
    resident_bytes = resident_tiles * tile_bytes_all
    texture = plan.preload_bytes + resident_bytes <= ram // 2
    return KvResidencyPlan(
        tile_tokens=tile,
        budget_bytes=max(budget, tile_bytes_all),
        resident_tiles=resident_tiles,
        texture=texture,
        token_bytes=token_bytes,
        caches=len(caches),
    )


@dataclass
class _WindowEntry:
    """Everything needed to patch one solved window into a new plan without
    re-solving.

    The entry is fully *positional*: ``assignments`` maps a weight's index
    in the window sequence to ``None`` for preload, the DEDICATED sentinel,
    or a rank-keyed chunk map, and ``deferred`` holds window indices in the
    original defer order (the rescue pass is order-sensitive for equal
    consumer layers).  Layer indices are stored as ranks into the window's
    canonical layer list (the sorted union of its streaming weights'
    candidate layers).  Together these let an entry recorded at one
    absolute position — under entirely different weight names — replay
    correctly after graph edits shift, re-number, or rename the window.

    ``soft_sensitive`` marks entries whose solve *read* the global
    soft-round quota (some weight was deferred before tier 1 ran); only
    those entries are pinned to the quota state they were recorded under
    (``soft_rounds_left``).  Quota-insensitive windows — the overwhelming
    majority — replay at any quota phase, which is what stops one early
    soft round from cascading misses through every downstream window.
    """

    status: SolveStatus
    soft_rounds: int
    heuristic_windows: int
    assignments: Dict[int, object]
    deferred: Tuple[int, ...]
    consumption: Tuple[Tuple[int, int], ...]
    soft_sensitive: bool = False
    soft_rounds_left: int = 0


class WindowCache:
    """FIFO-bounded fingerprint -> :class:`_WindowEntry` map with counters.

    Lives on the solver instance, so the cache spans every ``solve`` call
    made through that solver — in particular all adaptive-fusion iterations
    of one compile, which is where the hits come from.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[object, _WindowEntry]" = OrderedDict()

    def get(self, key: object) -> Optional[_WindowEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, key: object, entry: _WindowEntry) -> None:
        self._entries[key] = entry
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    # Soft-quota-aware addressing: quota-sensitive entries live under the
    # quota state they were recorded at, insensitive ones under ``None`` —
    # so variants for different quota phases coexist instead of thrashing
    # one slot, and a lookup counts exactly one hit or miss.
    def lookup(self, core_key: object, soft_rounds_left: int) -> Optional[_WindowEntry]:
        entry = self._entries.get((core_key, soft_rounds_left))
        if entry is None:
            entry = self._entries.get((core_key, None))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def store(self, core_key: object, entry: _WindowEntry) -> None:
        tag = entry.soft_rounds_left if entry.soft_sensitive else None
        self.put((core_key, tag), entry)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


#: Solves currently holding the collector off, and whether it was enabled
#: before the first of them; guarded by ``_GC_LOCK`` (solves may run on
#: several threads, and the collector switch is process-wide).
_GC_LOCK = threading.Lock()
_gc_pausers = 0
_gc_was_enabled = False


@contextlib.contextmanager
def _gc_paused():
    """Hold the cyclic garbage collector off for one timed solve.

    Window slices are wall-clock (remaining budget / remaining windows), and
    a full collection over a large heap stalls for tens of milliseconds:
    longer than a whole CP slice under a short budget.  The cut-off, and
    with it the plan, would then depend on the process's heap history.
    Reference counting still frees acyclic garbage; cycles wait until the
    last concurrent solve ends and the collector is restored.
    """
    global _gc_pausers, _gc_was_enabled
    with _GC_LOCK:
        if _gc_pausers == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_pausers += 1
    try:
        yield
    finally:
        with _GC_LOCK:
            _gc_pausers -= 1
            if _gc_pausers == 0 and _gc_was_enabled:
                gc.enable()


class LcOpgSolver:
    """Load-capacity-aware overlap planner.

    ``use_cp=False`` forces pure-heuristic mode (used by ablations and as
    the paper's hybrid fallback for pathological instances).
    ``exact_engine`` selects the EDF oracle/prover implementation: "fast"
    (incremental, numpy-backed — production) or "reference" (the seed
    pure-Python path, kept for differential tests and A/B benches).
    """

    def __init__(
        self,
        config: Optional[OpgConfig] = None,
        *,
        use_cp: bool = True,
        solver_factory=None,
        exact_engine: str = "fast",
    ) -> None:
        if exact_engine not in ("fast", "reference"):
            raise ValueError(f"unknown exact_engine {exact_engine!r}; use 'fast' or 'reference'")
        self.config = config or OpgConfig()
        self.use_cp = use_cp
        #: CpSolver-compatible factory ``(time_limit_s=, max_nodes=) -> solver``;
        #: benchmarks inject NaiveCpSolver here to A/B the seed architecture.
        #: ``config.portfolio >= 2`` selects the portfolio solver unless the
        #: caller injected a factory explicitly.
        if solver_factory is not None:
            self.solver_factory = solver_factory
        elif self.config.portfolio >= 2:
            from repro.opg.cpsat.portfolio import PortfolioCpSolver

            self.solver_factory = functools.partial(
                PortfolioCpSolver, k=self.config.portfolio
            )
        else:
            self.solver_factory = CpSolver
        self.exact_engine = exact_engine
        self._edf = edf_feasible if exact_engine == "fast" else edf_feasible_reference
        self.window_cache: Optional[WindowCache] = (
            WindowCache(self.config.window_cache_entries) if self.config.window_reuse else None
        )
        self._cache_config_key = self._config_key()
        #: (period, leader signature) detected on the first partition and
        #: pinned for the solver's lifetime, so every adaptive-fusion
        #: iteration snaps windows to the same structural grid.
        self._period: Optional[Tuple[int, Optional[Tuple]]] = None

    # ------------------------------------------------------------------ API
    def solve(
        self,
        graph: Graph,
        capacity_model: LoadCapacityModel,
        *,
        device_name: str = "",
        target_preload_ratio: Optional[float] = None,
    ) -> OverlapPlan:
        """Produce the overlap plan for ``graph``.

        ``target_preload_ratio`` optionally forces a fraction of weight
        bytes into W before streaming is planned (the Figure 8 trade-off
        knob).  When omitted it derives from λ: λ <= 0.9 is pure memory
        priority (no extra preload); λ -> 1 linearly approaches full
        preload, matching the paper's "higher preload ratio via larger λ".
        """
        with _gc_paused():
            return self._solve(graph, capacity_model, device_name, target_preload_ratio)

    def _solve(
        self,
        graph: Graph,
        capacity_model: LoadCapacityModel,
        device_name: str,
        target_preload_ratio: Optional[float],
    ) -> OverlapPlan:
        stats = PlanStats()
        t0 = time.perf_counter()
        problem = build_problem(graph, capacity_model, self.config)
        stats.process_nodes_s = time.perf_counter() - t0

        if target_preload_ratio is None:
            target_preload_ratio = max(0.0, (self.config.lam - 0.9) / 0.1)
        target_preload_ratio = min(1.0, max(0.0, target_preload_ratio))

        forced_preloads = self._select_extra_preloads(problem, target_preload_ratio)

        budgets = Budgets(
            problem.layer_capacity, problem.layer_m_peak, max_soft_rounds=self.config.max_soft_rounds
        )
        schedules: Dict[str, WeightSchedule] = {}
        statuses: List[SolveStatus] = []
        deadline = time.perf_counter() + self.config.time_limit_s

        windows = self._windows(problem)
        stats.windows = len(windows)
        deferred: List[WeightInfo] = []
        for window_index, window_weights in enumerate(windows):
            fingerprint = base = None
            if self.window_cache is not None:
                fingerprint, base = self._window_fingerprint(window_weights, budgets, forced_preloads)
                rounds_left = budgets.max_soft_rounds - budgets.soft_rounds_used
                entry = self.window_cache.lookup(fingerprint, rounds_left)
                if entry is not None:
                    self._replay_window(
                        problem, window_weights, entry, base, budgets, schedules, statuses, stats, deferred
                    )
                    continue
            remaining_windows = len(windows) - window_index
            remaining_time = max(0.05, deadline - time.perf_counter())
            window_limit = remaining_time / remaining_windows
            soft_before = budgets.soft_rounds_used
            rounds_left_before = budgets.max_soft_rounds - soft_before
            heuristic_before = stats.heuristic_windows
            deferred_before = len(deferred)
            assignments, status, soft_sensitive = self._solve_window(
                problem, window_weights, budgets, forced_preloads, window_limit, stats, deferred
            )
            statuses.append(status)
            deferred_names = {w.name for w in deferred}
            for w in window_weights:
                if w.name in deferred_names:
                    continue  # scheduled by the rescue pass below
                schedules[w.name] = self._make_schedule(problem, w, assignments.get(w.name))
            if self.window_cache is not None:
                self.window_cache.store(
                    fingerprint,
                    self._record_window(
                        window_weights,
                        assignments,
                        status,
                        base,
                        soft_rounds=budgets.soft_rounds_used - soft_before,
                        heuristic_delta=stats.heuristic_windows - heuristic_before,
                        deferred_names=tuple(w.name for w in deferred[deferred_before:]),
                        soft_sensitive=soft_sensitive,
                        soft_rounds_left=rounds_left_before,
                    ),
                )

        # Long-range rescue: weights too large for their CP window stream
        # across the extended horizon using whatever capacity the regular
        # schedule left behind; only what still does not fit is preloaded.
        rescue_start = time.perf_counter()
        for w in sorted(deferred, key=lambda w: w.consumer_layer):
            lo = max(0, w.consumer_layer - self.config.long_lookback)
            candidates = [l for l in range(lo, w.consumer_layer) if budgets.available(l) > 0]
            placed = greedy_assign(w, budgets, candidates=candidates)
            if placed is None:
                stats.incremental_preloads += 1
            schedules[w.name] = self._make_schedule(problem, w, placed)
        stats.greedy_s += time.perf_counter() - rescue_start

        stats.solve_s = time.perf_counter() - t0 - stats.process_nodes_s - stats.build_model_s
        status = self._aggregate_status(statuses)
        if status is SolveStatus.OPTIMAL and (
            stats.soft_threshold_rounds or stats.incremental_preloads or stats.heuristic_windows
        ):
            status = SolveStatus.FEASIBLE  # fallbacks fired: not a proven optimum
        stats.solver_status = status.value
        return OverlapPlan(
            model=graph.name,
            device=device_name,
            chunk_bytes=self.config.chunk_bytes,
            m_peak_bytes=self.config.m_peak_bytes,
            schedules=schedules,
            stats=stats,
        )

    # ------------------------------------------------------- window caching
    def _config_key(self) -> Tuple:
        """Everything in the solver setup that steers a window's solve —
        except ``time_limit_s``, which only shapes wall-clock cut-offs (the
        reuse invariant assumes node budgets bind; see DESIGN.md)."""
        items = []
        for f in dataclasses.fields(self.config):
            if f.name == "time_limit_s":
                continue
            value = getattr(self.config, f.name)
            if isinstance(value, frozenset):
                value = tuple(sorted(value))
            items.append((f.name, value))
        return (tuple(items), self.use_cp, self.exact_engine, self.solver_factory)

    @staticmethod
    def _canonical_layers(
        window_weights: Sequence[WeightInfo], forced_preloads: set
    ) -> Tuple[int, ...]:
        """Sorted union of the streaming weights' candidate layers.

        These are exactly the layers a window solve reads or writes: every
        capacity-bearing layer inside a weight's EDF segment is one of its
        candidates (candidate sets are "all capacity>0 layers in the
        lookback interval"), so layers outside this union either belong to
        other windows or can never receive chunks.
        """
        layer_set = set()
        for w in window_weights:
            if w.forced_preload or w.dedicated_transform or w.name in forced_preloads:
                continue
            layer_set.update(w.candidates)
        return tuple(sorted(layer_set))

    def _window_fingerprint(
        self,
        window_weights: Sequence[WeightInfo],
        budgets: Budgets,
        forced_preloads: set,
    ) -> Tuple[object, Tuple[int, ...]]:
        """Content-address one window; returns ``(key, base_layers)``.

        The key captures every input ``_solve_window`` reads, in *canonical
        coordinates*: weight identity is positional (window order is the
        deterministic ``(consumer_layer, name)`` sort, and every inner sort
        the solve performs is stable on that order, so names cannot steer
        the outcome), each candidate layer is identified by its rank in the
        window's layer union plus its distance to the weight's consumer,
        and budgets are keyed only at union layers.  Two windows that
        differ by a constant layer shift, by weight renames, or by graph
        edits that insert or delete layers the window never touches
        therefore hash identically, while anything the solve can observe
        (candidate sharing structure, every objective distance, raw
        capacity and M_peak at readable layers) still forces a miss when
        it changes.  The global soft-round quota is deliberately *not*
        part of the key: most windows never read it, and the cache pins
        only quota-sensitive entries to the quota state they were recorded
        under (see :class:`_WindowEntry`).
        """
        layers = self._canonical_layers(window_weights, forced_preloads)
        rank = {l: i for i, l in enumerate(layers)}
        weights_key = []
        for w in window_weights:
            streaming = not (
                w.forced_preload or w.dedicated_transform or w.name in forced_preloads
            )
            weights_key.append(
                (
                    w.nbytes,
                    w.total_chunks,
                    w.dedicated_transform,
                    not streaming,
                    tuple(rank[c] for c in w.candidates) if streaming else (),
                    tuple(w.consumer_layer - c for c in w.candidates) if streaming else (),
                )
            )
        budget_key = (
            tuple(budgets.capacity[l] for l in layers),
            tuple(budgets.m_peak[l] for l in layers),
        )
        return (tuple(weights_key), budget_key, self._cache_config_key), layers

    def _record_window(
        self,
        window_weights: Sequence[WeightInfo],
        assignments: Dict[str, object],
        status: SolveStatus,
        base: Tuple[int, ...],
        *,
        soft_rounds: int,
        heuristic_delta: int,
        deferred_names: Tuple[str, ...],
        soft_sensitive: bool,
        soft_rounds_left: int,
    ) -> _WindowEntry:
        rank = {l: i for i, l in enumerate(base)}
        position = {w.name: i for i, w in enumerate(window_weights)}
        deferred_set = set(deferred_names)
        rel_assignments: Dict[int, object] = {}
        consumption: List[Tuple[int, int]] = []
        for idx, w in enumerate(window_weights):
            if w.name in deferred_set:
                continue
            assignment = assignments.get(w.name)
            if isinstance(assignment, dict):
                rel = {rank[layer]: chunks for layer, chunks in assignment.items()}
                rel_assignments[idx] = rel
                consumption.extend(sorted(rel.items()))
            else:
                rel_assignments[idx] = assignment  # None (preload) or DEDICATED
        return _WindowEntry(
            status=status,
            soft_rounds=soft_rounds,
            heuristic_windows=heuristic_delta,
            assignments=rel_assignments,
            deferred=tuple(position[name] for name in deferred_names),
            consumption=tuple(consumption),
            soft_sensitive=soft_sensitive,
            soft_rounds_left=soft_rounds_left,
        )

    def _replay_window(
        self,
        problem: OpgProblem,
        window_weights: Sequence[WeightInfo],
        entry: _WindowEntry,
        base: Tuple[int, ...],
        budgets: Budgets,
        schedules: Dict[str, WeightSchedule],
        statuses: List[SolveStatus],
        stats: PlanStats,
        deferred: List[WeightInfo],
    ) -> None:
        """Patch a cached window into the plan being built: same mutation
        order as a fresh solve (window-scoped soft-round rescales, then
        chunk consumption), same outputs."""
        for _ in range(entry.soft_rounds):
            if not budgets.scale_capacity(self.config.soft_threshold_factor, layers=base):
                # Unreachable: quota-sensitive entries are pinned to the
                # quota state they were recorded under.
                raise RuntimeError("window replay exceeded the soft-round quota")
        for rank_idx, chunks in entry.consumption:
            budgets.consume(base[rank_idx], chunks)
        statuses.append(entry.status)
        stats.windows_reused += 1
        stats.soft_threshold_rounds += entry.soft_rounds
        stats.heuristic_windows += entry.heuristic_windows
        for idx in entry.deferred:
            deferred.append(window_weights[idx])
        deferred_set = set(entry.deferred)
        for idx, w in enumerate(window_weights):
            if idx in deferred_set:
                continue
            assignment = entry.assignments[idx]
            if isinstance(assignment, dict):
                assignment = {base[r]: chunks for r, chunks in assignment.items()}
            schedules[w.name] = self._make_schedule(problem, w, assignment)

    # ------------------------------------------------------------- internals
    def _select_extra_preloads(self, problem: OpgProblem, ratio: float) -> set:
        """Pick weights to pin into W until ``ratio`` of bytes are preloaded.

        Earliest consumers first: preloading them removes the start-of-run
        stall risk, which is where extra preload buys the most latency.
        """
        pinned = set(self.config.preload_hint_weights)
        if ratio <= 0.0:
            return pinned
        total = sum(w.nbytes for w in problem.weights)
        preloaded = sum(w.nbytes for w in problem.weights if w.forced_preload or w.name in pinned)
        for w in sorted(problem.weights, key=lambda w: w.consumer_layer):
            if preloaded >= ratio * total:
                break
            if w.forced_preload or w.name in pinned:
                continue
            pinned.add(w.name)
            preloaded += w.nbytes
        return pinned

    @staticmethod
    def _structure_sig(w: WeightInfo) -> Tuple:
        """Shift- and name-invariant structural signature of one weight,
        used to detect the model's repeating block period."""
        return (
            w.total_chunks,
            w.dedicated_transform,
            w.forced_preload,
            tuple(w.consumer_layer - c for c in w.candidates),
        )

    def _windows(self, problem: OpgProblem) -> List[List[WeightInfo]]:
        """Partition weights (consumer-layer order) into rolling windows of
        at most ``window_weights`` weights, snapped to the model's
        structural period.

        Counting weights rather than layers bounds each CP model's size
        directly, and makes the partition *insertion-invariant*: fusion
        splits insert layers but conserve the weight sequence, so every
        window outside the edited region keeps exactly its membership.

        On periodic models (transformer stacks), windows additionally snap
        to block boundaries: the smallest period ``p`` of the structural
        signature sequence is detected once per solver (and pinned for the
        whole adaptive-fusion loop so every iteration partitions the same
        way), window spans cover *two* periods (the lookback interaction
        radius is about one block, so cross-block coupling inside a window
        is preserved), and each boundary lands on the nearest occurrence of
        the period's leader signature.  That buys the reuse cache two
        properties a fixed-size partition cannot offer: a fusion split
        re-synchronises at the next block leader instead of shifting every
        downstream window boundary, and all clean block windows are
        translation-equivalent — under canonical fingerprints they hash
        identically, so replay fires even within a single cold solve.
        """
        ordered = sorted(problem.weights, key=lambda w: (w.consumer_layer, w.name))
        size = self.config.window_weights
        n = len(ordered)
        if n <= size:
            return [ordered] if ordered else []
        sig = [self._structure_sig(w) for w in ordered]
        detected = self._period
        if detected is None:
            period = 0
            for p in range(4, size + 1):
                matches = sum(1 for i in range(n - p) if sig[i] == sig[i + p])
                if matches >= 0.5 * (n - p):
                    period = p
                    break
            leader = None
            if period:
                counts: Dict[Tuple, int] = {}
                for i in range(n - period):
                    if sig[i] == sig[i + period]:
                        counts[sig[i]] = counts.get(sig[i], 0) + 1
                leader = max(counts.items(), key=lambda kv: kv[1])[0]
            detected = self._period = (period, leader)
        period, leader = detected
        if not period:
            return [ordered[i : i + size] for i in range(0, n, size)]
        span = min(2 * period, size)
        anchors = [i for i in range(n) if sig[i] == leader]
        if not anchors:
            return [ordered[i : i + size] for i in range(0, n, size)]
        windows = []
        start = 0
        while start < n:
            limit = start + span
            cut = max((a for a in anchors if start < a <= limit), default=None)
            if cut is None or cut <= start:
                cut = limit
            windows.append(ordered[start : min(cut, n)])
            start = min(cut, n)
        return windows

    def _solve_window(
        self,
        problem: OpgProblem,
        weights: Sequence[WeightInfo],
        budgets: Budgets,
        forced_preloads: set,
        time_limit_s: float,
        stats: PlanStats,
        deferred: List[WeightInfo],
    ) -> Tuple[Dict[str, Optional[Dict[int, int]]], SolveStatus, bool]:
        """Schedule one window with the tiered fallback protocol.

        Returns (assignments, status, soft_sensitive); an assignment of None
        means preload.  ``soft_sensitive`` is True when the solve's outcome
        could depend on the global soft-round quota — i.e. some weight was
        deferred before tier 1 ran, making the rescue loop's behaviour a
        function of the rounds remaining.  Windows where nothing is
        deferred never observe the quota (the rescue loop no-ops for any
        quota state), which the window cache exploits.
        """
        to_stream = [
            w
            for w in weights
            if not w.forced_preload and not w.dedicated_transform and w.name not in forced_preloads
        ]
        assignments: Dict[str, Optional[Dict[int, int]]] = {
            w.name: None for w in weights if w.forced_preload or w.name in forced_preloads
        }
        for w in weights:
            # Conv weights: stream the disk load, run a dedicated Winograd
            # transform at the consumer (no embedded segments to schedule).
            if w.dedicated_transform and w.name not in forced_preloads:
                assignments[w.name] = DEDICATED
        if not to_stream:
            return assignments, SolveStatus.OPTIMAL, False

        preload_set: set = set()

        def solo_fits(w: WeightInfo) -> bool:
            return sum(budgets.available(l) for l in w.candidates) >= w.total_chunks

        deferred_here: List[WeightInfo] = []

        def defer(w: WeightInfo) -> None:
            """C4 handoff: the weight leaves this window's CP model and is
            retried by the long-range rescue pass (then W if it still does
            not fit)."""
            preload_set.add(w.name)
            deferred_here.append(w)

        def pin_unfittable(candidates_pool: Sequence[WeightInfo]) -> None:
            for w in candidates_pool:
                if w.name not in preload_set and w.name not in assignments and not solo_fits(w):
                    defer(w)

        pin_unfittable(to_stream)
        # From here on the solve reads the soft-round quota iff something
        # was deferred (the tier-1 loop below no-ops otherwise).
        soft_sensitive = bool(deferred_here)

        def soft_rescuable() -> bool:
            """Whether relaxing C_l within the remaining quota could make
            some deferred weight fit (don't burn the global quota on
            hopeless cases like LM heads, which the long-range rescue
            handles instead)."""
            rounds_left = budgets.max_soft_rounds - budgets.soft_rounds_used
            if rounds_left <= 0:
                return False
            max_scale = self.config.soft_threshold_factor ** rounds_left
            for w in to_stream:
                if w.name not in preload_set:
                    continue
                aggregate = sum(budgets.available(l) for l in w.candidates)
                if aggregate and w.total_chunks <= aggregate * max_scale:
                    return True
            return False

        # Tier 1 (soft thresholding) rescues borderline weights before they
        # are pinned for good, quota permitting.  Rescales are scoped to
        # the layers this window can touch, so downstream windows' budgets
        # stay phase-free (see Budgets.scale_capacity).
        scope = sorted({c for w in to_stream for c in w.candidates})
        while soft_rescuable() and budgets.scale_capacity(
            self.config.soft_threshold_factor, layers=scope
        ):
            stats.soft_threshold_rounds += 1
            rescued = [w for w in to_stream if w.name in preload_set and solo_fits(w)]
            for w in rescued:
                preload_set.discard(w.name)
                deferred_here[:] = [d for d in deferred_here if d.name != w.name]

        cp_rounds = 0
        while True:
            streaming = [
                w for w in to_stream if w.name not in preload_set and w.name not in assignments
            ]
            if not streaming:
                break
            # Joint demand must actually pack into the candidate layers.
            # The EDF oracle decides this exactly (interval availability);
            # tier 2 defers the largest weights until the rest fit, so the
            # CP model is feasible by construction.
            while streaming:
                releases = {}
                packable = True
                for w in streaming:
                    avail = [l for l in w.candidates if budgets.available(l) > 0]
                    if not avail:
                        packable = False
                        break
                    releases[w.name] = min(avail)
                stats.edf_calls += 1
                if packable and self._edf(streaming, releases, budgets) is not None:
                    break
                defer(max(streaming, key=lambda w: w.nbytes))
                streaming = [w for w in streaming if w.name not in preload_set]
            if not streaming:
                break
            result = None
            if self.use_cp:
                result = self._cp_window(problem, streaming, budgets, time_limit_s, stats)
            if result is not None:
                placed, status = result
                assignments.update(placed)
                deferred.extend(deferred_here)
                return assignments, status, soft_sensitive
            cp_rounds += 1
            if cp_rounds <= 1 and len(streaming) > 1:
                # One more CP attempt after deferring the single largest
                # weight (CP timed out despite a packable window).
                defer(max(streaming, key=lambda w: w.nbytes))
                continue
            break

        # Tier 3: greedy heuristic backup for whatever is left.
        stats.heuristic_windows += 1
        leftover = [
            w for w in to_stream if w.name not in preload_set and w.name not in assignments
        ]
        greedy_start = time.perf_counter()
        greedy = greedy_schedule(problem, leftover, budgets)
        stats.greedy_s += time.perf_counter() - greedy_start
        assignments.update(greedy)
        deferred.extend(deferred_here)
        return assignments, SolveStatus.FEASIBLE, soft_sensitive

    def _cp_window(
        self,
        problem: OpgProblem,
        weights: Sequence[WeightInfo],
        budgets: Budgets,
        time_limit_s: float,
        stats: PlanStats,
    ) -> Optional[Tuple[Dict[str, Dict[int, int]], SolveStatus]]:
        """Solve one window: the structural tier first, then the CP model.

        Returns None when no feasible schedule was found (callers fall back);
        otherwise commits budgets and returns the placements.
        """
        placed = self._structural_window(weights, budgets)
        if placed is not None:
            stats.structural_windows += 1
            self._commit(placed, budgets)
            return placed, SolveStatus.OPTIMAL
        build_start = time.perf_counter()
        # Decision hints: an exact EDF packing (always jointly consistent,
        # so the first hinted descent lands on a complete solution), with a
        # latest-first greedy overlay where it succeeds (better distances).
        edf_releases = {}
        for w in weights:
            avail = [l for l in w.candidates if budgets.available(l) > 0]
            if not avail:
                stats.build_model_s += time.perf_counter() - build_start
                return None
            edf_releases[w.name] = min(avail)
        stats.edf_calls += 1
        hints: Optional[Dict[str, Dict[int, int]]] = self._edf(weights, edf_releases, budgets)
        if hints is None:
            stats.build_model_s += time.perf_counter() - build_start
            return None  # window is genuinely over-subscribed
        probe = Budgets(budgets.capacity, budgets.m_peak)
        greedy_hints: Dict[str, Optional[Dict[int, int]]] = {}
        greedy_ok = True
        for w in sorted(weights, key=lambda w: w.consumer_layer):
            greedy_hints[w.name] = greedy_assign(w, probe)
            if greedy_hints[w.name] is None:
                greedy_ok = False
        if greedy_ok:
            hints = {k: v for k, v in greedy_hints.items() if v is not None}
        # Per-weight latest feasible load layer (solo, against current
        # budgets): a valid upper bound for z_w that makes the objective
        # bound tight enough to *prove* optimality on uncontended windows.
        z_best: Dict[str, int] = {}
        solo_probe = Budgets(budgets.capacity, budgets.m_peak)
        for w in weights:
            solo = greedy_assign(w, solo_probe, commit=False)
            if solo:
                z_best[w.name] = min(solo)

        model = CpModel()
        x_vars: Dict[Tuple[str, int], object] = {}
        z_vars: Dict[str, object] = {}
        by_layer: Dict[int, List[Tuple[object, int]]] = {}
        for w in weights:
            candidates = [l for l in w.candidates if budgets.available(l) > 0]
            if not candidates:
                stats.build_model_s += time.perf_counter() - build_start
                return None  # cannot stream this weight against current budgets
            if sum(budgets.available(l) for l in candidates) < w.total_chunks:
                stats.build_model_s += time.perf_counter() - build_start
                return None  # aggregate capacity shortfall (paper: total chunk capacity)
            hint = hints.get(w.name) or {}
            terms = []
            for l in candidates:
                x = model.new_int(
                    0,
                    min(w.total_chunks, budgets.available(l)),
                    f"x[{w.name},{l}]",
                    hint=hint.get(l, 0),
                )
                x_vars[(w.name, l)] = x
                terms.append((x, 1))
                by_layer.setdefault(l, []).append((x, 1))
            z_hi = z_best.get(w.name, w.consumer_layer)
            z = model.new_int(
                min(candidates),
                z_hi,
                f"z[{w.name}]",
                hint=min(min(hint), z_hi) if hint else min(candidates),
            )
            z_vars[w.name] = z
            # C0 — completeness of allocation.
            model.add_sum_eq(terms, w.total_chunks, name=f"C0[{w.name}]")
            # C1 — loading distance implication.
            for l in candidates:
                model.add_implication(x_vars[(w.name, l)], 1, z, l, name=f"C1[{w.name},{l}]")
        # C2 / C3 — per-layer transform volume and load capacity.
        for l, terms in by_layer.items():
            model.add_sum_le(terms, budgets.m_peak[l], name=f"C2[{l}]")
            model.add_sum_le(terms, budgets.capacity[l], name=f"C3[{l}]")
        # Objective: minimise total loading distance sum(i_w - z_w).
        model.minimize(
            [(z, -1) for z in z_vars.values()],
            offset=sum(w.consumer_layer for w in weights),
        )
        stats.build_model_s += time.perf_counter() - build_start

        cp_start = time.perf_counter()
        solution = self.solver_factory(
            time_limit_s=time_limit_s * 0.7, max_nodes=self.config.max_nodes_per_window
        ).solve(model)
        stats.cp_solve_s += time.perf_counter() - cp_start
        stats.nodes_explored += solution.nodes_explored
        self._absorb_solver_stats(stats, solution)
        stats.cp_windows += 1
        if not solution.feasible:
            return None
        placed: Dict[str, Dict[int, int]] = {}
        for w in weights:
            assignment = {}
            for l in w.candidates:
                var = x_vars.get((w.name, l))
                if var is None:
                    continue
                chunks = solution.value_of(var)
                if chunks > 0:
                    assignment[l] = chunks
            placed[w.name] = assignment
        status = solution.status
        if status is SolveStatus.FEASIBLE and len(weights) <= self.config.prover_max_weights:
            # The chunk plateau keeps generic B&B from finishing; the exact
            # release-vector prover can close (or improve) the incumbent
            # when the incumbent is already near the solo lower bound
            # (wide gaps are combinatorial — not worth the budget).
            solo_bound = 0
            for w in weights:
                filled, best_l = 0, None
                for l in sorted(w.candidates, reverse=True):
                    if budgets.available(l) <= 0:
                        continue
                    filled += budgets.available(l)
                    best_l = l
                    if filled >= w.total_chunks:
                        break
                solo_bound += w.consumer_layer - (best_l if best_l is not None else w.consumer_layer)
            incumbent_obj = sum(
                w.consumer_layer - min(placed[w.name]) for w in weights if placed[w.name]
            )
            if incumbent_obj - solo_bound <= self.config.prover_max_gap:
                prover_start = time.perf_counter()
                improved, proven = prove_window(
                    weights,
                    budgets,
                    placed,
                    time_limit_s=min(0.5, time_limit_s * 0.3),
                    engine=self.exact_engine,
                )
                stats.exact_prover_s += time.perf_counter() - prover_start
                if proven:
                    placed = improved
                    status = SolveStatus.OPTIMAL
        self._commit(placed, budgets)
        return placed, status

    def _structural_window(
        self, weights: Sequence[WeightInfo], budgets: Budgets
    ) -> Optional[Dict[str, Dict[int, int]]]:
        """Placements certified optimal without search, or None.

        Reversed-time SRPT is optimal for the window with its deadlines
        dropped, so when it meets every deadline it is optimal as posed
        (see :func:`~repro.opg.exact.srpt_window` and DESIGN.md).
        """
        return srpt_window(weights, budgets)

    @staticmethod
    def _commit(placed: Dict[str, Dict[int, int]], budgets: Budgets) -> None:
        for assignment in placed.values():
            for l, chunks in assignment.items():
                budgets.consume(l, chunks)

    @staticmethod
    def _absorb_solver_stats(stats: PlanStats, solution) -> None:
        """Fold one CP solve's observability into the plan provenance."""
        sstats = solution.stats
        if sstats is None:
            return
        stats.propagations += sstats.propagations
        stats.prop_linear += sstats.linear_props
        stats.prop_implication += sstats.implication_props
        if sstats.queue_peak > stats.queue_peak:
            stats.queue_peak = sstats.queue_peak
        stats.time_propagate_s += sstats.time_propagate_s
        stats.time_branch_s += sstats.time_branch_s
        stats.time_bound_s += sstats.time_bound_s
        stats.window_stats.append(
            {"window": len(stats.window_stats), "status": solution.status.value, **sstats.as_dict()}
        )

    def _make_schedule(
        self, problem: OpgProblem, w: WeightInfo, assignment
    ) -> WeightSchedule:
        if assignment is DEDICATED:
            return WeightSchedule(
                weight=w.name,
                nbytes=w.nbytes,
                consumer_layer=w.consumer_layer,
                preloaded=False,
                load_layer=max(0, w.consumer_layer - problem.config.lookback),
                chunk_bytes=problem.config.chunk_bytes,
                total_chunks=w.total_chunks,
                dedicated_transform=True,
            )
        if not assignment:
            return WeightSchedule(
                weight=w.name,
                nbytes=w.nbytes,
                consumer_layer=w.consumer_layer,
                preloaded=True,
                chunk_bytes=problem.config.chunk_bytes,
                total_chunks=w.total_chunks,
            )
        return WeightSchedule(
            weight=w.name,
            nbytes=w.nbytes,
            consumer_layer=w.consumer_layer,
            preloaded=False,
            load_layer=min(assignment),
            transforms=dict(sorted(assignment.items())),
            chunk_bytes=problem.config.chunk_bytes,
            total_chunks=w.total_chunks,
        )

    @staticmethod
    def _aggregate_status(statuses: Sequence[SolveStatus]) -> SolveStatus:
        if not statuses:
            return SolveStatus.OPTIMAL
        if all(s is SolveStatus.OPTIMAL for s in statuses):
            return SolveStatus.OPTIMAL
        if any(s in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE) for s in statuses):
            return SolveStatus.FEASIBLE
        return SolveStatus.UNKNOWN
