"""The benchmark's three workloads, driven through the public ``repro`` API.

Each workload has a ``setup()`` paid once per run and a ``round()`` of
identical, cold work that ``run.py`` repeats; both return a :class:`Part`
and take the :class:`~tracing.Tracer` of a traced run (None otherwise),
which each installs around the calls it times.
A round starts from dropped in-process caches, so round two does exactly
the work round one did.  Outputs are checked after each round's timed
window, with properties that hold on every run of unchanged code: plans
validate against their own problem, nothing simulates out of memory, naive
and memoized replay agree byte for byte, and every reply for one key
carries the same plan bytes.  No plan digest or simulated number is pinned.

``README.md`` says what each end-to-end metric means on each workload.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import multiprocessing
import random
import shutil
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import FlashMem, Scenario, get_device
from repro.capacity.model import analytic_capacity_model
from repro.core.flashmem import CompiledModel
from repro.experiments import common
from repro.fleet import Trace, generate_trace, run_fleet
from repro.fleet.trace import DEFAULT_MODEL_MIX
from repro.gpusim import pricing
from repro.graph import models
from repro.opg.problem import OpgConfig, build_problem
from repro.opg.validate import validate_plan
from repro.service import CompileRequest, PlanCompilationService, ServiceError

from tracing import Tracer, maybe_traced

DEVICES = ("OnePlus 12", "Pixel 8")
PREFILL_ONCE = Scenario.prefill(1)


@dataclass
class Part:
    """What one setup or one round measured."""

    setup_s: float = 0.0
    timed_s: float = 0.0
    #: Operations completed, attempted and failed inside the timed window.
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    #: (simulated latency ms, simulated average memory MB, weight).
    sim: List[Tuple[float, float, int]] = field(default_factory=list)
    #: Outputs-check failures.
    errors: List[str] = field(default_factory=list)
    #: Workload-level per-layer figures (fleet, service).
    layer: Dict[str, float] = field(default_factory=dict)


def reset_caches() -> None:
    """Drop every in-process cache a round could warm."""
    pricing.clear_tables()
    common.clear_caches()


def plan_errors(label: str, compiled: CompiledModel, capacity, opg: OpgConfig) -> List[str]:
    problem = build_problem(compiled.graph, capacity, opg)
    return [f"{label}: {e}" for e in validate_plan(compiled.plan, problem)]


def nearest_rank(values: Sequence[float], pct: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def failure(label: str) -> str:
    return f"{label}: {traceback.format_exc(limit=3)}"


# ------------------------------------------------------------------ compile-zoo
class CompileZoo:
    """Cold graph build + ``FlashMem.compile`` of six models on two devices,
    then one simulated prefill pass per plan."""

    name = "compile-zoo"
    seed_use = "capacity_seed of the gbt capacity model (GPTN-S cells)"
    why = (
        "compiling is the cost users wait for and is mostly CP search; the "
        "models span periodic reuse (GPTN-2.7B), budget-sensitive solves "
        "(Whisp-M), conv+attention (SD-UNet), the slowest compile (DeepViT), "
        "a solver-free compile (ResNet50) and a trained capacity model (GPTN-S)"
    )
    #: Seconds of ``--seconds`` one round stands for (a round runs ~14 s on
    #: a 2-vCPU x86 VM).
    ROUND_S = 15.0
    MODELS = (
        ("GPTN-2.7B", "analytic"),
        ("Whisp-M", "analytic"),
        ("SD-UNet", "analytic"),
        ("DeepViT", "analytic"),
        ("ResNet50", "analytic"),
        ("GPTN-S", "gbt"),
    )

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed

    def config(self, backend: str):
        if backend == "gbt":
            return common.experiment_flashmem_config(
                capacity_backend="gbt", capacity_seed=self.seed
            )
        return common.experiment_flashmem_config()

    def setup(self, tracer: Optional[Tracer]) -> Part:
        return Part()

    def round(self, tracer: Optional[Tracer]) -> Part:
        reset_caches()
        with maybe_traced(tracer):
            part, done = self._compile_all()
        for model, device, fm, compiled, result in done:
            label = f"{model}@{device}"
            if result.details.get("oom"):
                part.errors.append(f"{label}: simulated prefill ran out of memory")
            capacity = fm.capacity_model(compiled.device)
            part.errors += plan_errors(label, compiled, capacity, fm.config.opg)
            part.sim.append((result.latency_ms, result.avg_memory_mb, 1))
        return part

    def _compile_all(self):
        part, done = Part(), []
        start = time.perf_counter()
        for device in DEVICES:  # gbt training: setup, off the clock
            FlashMem(self.config("gbt")).capacity_model(get_device(device))
        part.setup_s = time.perf_counter() - start

        start = time.perf_counter()
        for model, backend in self.MODELS:
            for device in DEVICES:
                part.attempted += 1
                fm = FlashMem(self.config(backend))
                try:
                    compiled = fm.compile(models.load_model(model), get_device(device))
                    result = fm.run(compiled, scenario=PREFILL_ONCE)
                except Exception:  # noqa: BLE001 — count it and go on
                    part.failed += 1
                    part.errors.append(failure(f"{model}@{device}"))
                    continue
                part.ops += 1
                done.append((model, device, fm, compiled, result))
        part.timed_s = time.perf_counter() - start
        return part, done


# ----------------------------------------------------------------- fleet-replay
class FleetReplay:
    """A seeded multi-app trace replayed over {OnePlus 12, Pixel 8} x
    {FlashMem, MNN, SMem} by ``run_fleet(jobs=1)``."""

    name = "fleet-replay"
    seed_use = "generate_trace seed (arrivals, model draws, throttle windows)"
    why = (
        "the simulator-host workload: episode simulation, session merging and "
        "replay on the clock; the added GPTN-1.3B decode and ViT x16 entries "
        "put the KV-tile decode and multi-pass prefill paths on it too"
    )
    MIX = DEFAULT_MODEL_MIX + (
        ("GPTN-1.3B", Scenario.decode(tokens=256, context_len=2048), 1, 0.25),
        ("ViT", Scenario.prefill(16), 0, 0.25),
    )
    RUNTIMES = ("FlashMem", "MNN", "SMem")
    ROUND_S = 10.0  # a round runs ~10 s
    #: Arrivals per simulated minute: FlashMem on Pixel 8 stays below
    #: saturation, so its percentiles do not grow with the trace length.
    RATE_PER_MIN = 12.0
    INVOCATIONS = 4000
    #: Head of the trace replayed naive vs memoized in the outputs check.
    CHECK_INVOCATIONS = 12

    def __init__(self, seed: int, scratch: str) -> None:
        self.trace = generate_trace(
            seed=seed, mix=self.MIX, rate_per_min=self.RATE_PER_MIN,
            invocations=self.INVOCATIONS,
        )
        self.checked = False

    @staticmethod
    def _compile(model: str, device: str, context_len: int) -> CompiledModel:
        """The plan of a prefill (``context_len`` 0) or decode graph."""
        if context_len:
            return common.cached_decode_compile(model, device, context_len)
        return common.cached_compile(model, device)

    def setup(self, tracer: Optional[Tracer]) -> Part:
        """Compile the trace's plans through ``experiments.common``."""
        part = Part()
        reset_caches()
        work = Counter((inv.model, inv.scenario) for inv in self.trace.invocations)
        targets = sorted({(model, scenario.context_len) for model, scenario in work})
        with maybe_traced(tracer):
            start = time.perf_counter()
            for device in DEVICES:
                for model, context_len in targets:
                    self._compile(model, device, context_len)
            part.setup_s = time.perf_counter() - start

        opg = common.experiment_flashmem_config().opg
        for device in DEVICES:
            capacity = common.cached_capacity(device)
            for (model, scenario), count in work.items():
                compiled = self._compile(model, device, scenario.context_len)
                part.errors += plan_errors(
                    f"{model}@{device} {scenario.describe()}", compiled, capacity, opg
                )
                if scenario.is_decode:
                    result = common.flashmem_decode_result(
                        model, device, scenario.context_len, scenario.tokens
                    )
                else:
                    result = common.flashmem_result(model, device, scenario.iterations)
                part.sim.append((result.latency_ms, result.avg_memory_mb, count))
        return part

    def round(self, tracer: Optional[Tracer]) -> Part:
        pricing.clear_tables()
        with maybe_traced(tracer):
            part, cells = self._replay_all()
        if not self.checked:
            self.checked = True
            part.errors += self._memo_check()
        outcomes = [o for c in cells if c.runtime == "FlashMem" for o in c.outcomes]
        simulated = sum(c.episodes_simulated for c in cells)
        replayed = sum(c.invocations_replayed for c in cells)
        part.layer = {
            "fleet.episodes_simulated": simulated,
            "fleet.episode_reuse_ratio": replayed / max(1, replayed + simulated),
            "fleet.slo_attainment": sum(o.slo_ok for o in outcomes) / max(1, len(outcomes)),
            "fleet.p50_ms": nearest_rank([o.latency_ms for o in outcomes], 50.0),
            "fleet.p99_ms": nearest_rank([o.latency_ms for o in outcomes], 99.0),
        }
        return part

    def _replay_all(self):
        cells = len(DEVICES) * len(self.RUNTIMES)
        part = Part(attempted=cells * len(self.trace.invocations))
        start = time.perf_counter()
        try:
            report = run_fleet(self.trace, DEVICES, self.RUNTIMES, jobs=1)
        except Exception:  # noqa: BLE001 — a failed replay fails its invocations
            part.failed = part.attempted
            part.errors.append(failure("run_fleet"))
            return part, []
        part.timed_s = time.perf_counter() - start
        part.ops = report.invocations
        return part, report.cells

    def _memo_check(self) -> List[str]:
        head = Trace(
            name=f"{self.trace.name}-head",
            seed=self.trace.seed,
            duration_ms=self.trace.duration_ms,
            invocations=self.trace.invocations[: self.CHECK_INVOCATIONS],
            throttle=self.trace.throttle,
        )
        memo = run_fleet(head, DEVICES, ("FlashMem",), jobs=1)
        naive = run_fleet(head, DEVICES, ("FlashMem",), jobs=1, memoize=False)
        return [
            f"{a.runtime}@{a.device}: memoized replay differs from naive replay"
            for a, b in zip(memo.cells, naive.cells)
            if a.canonical_json() != b.canonical_json()
        ]


# ---------------------------------------------------------------- service-storm
class ServiceStorm:
    """One closed-loop client sends bursts of 8 concurrent requests to a
    ``PlanCompilationService(workers=1)`` on a fresh store; the next burst
    goes out when all 8 replies are back."""

    name = "service-storm"
    seed_use = "Zipf request draws (which key each request names)"
    why = (
        "the one workload where store reads (warm hits), store writes "
        "(publishes after misses), coalescing and the pool all work; bursts "
        "make duplicates collapse the same way on every run"
    )
    #: Zipf rank order: by model size, so small models are requested most.
    KEYS = tuple(
        CompileRequest(model=model, device=device, lam=lam)
        for model in ("ResNet50", "DepA-S", "ViT", "GPTN-S", "SAM-2")
        for device in DEVICES
        for lam in (None, 0.5)
    )
    BURST = 8
    BURSTS = 120
    ZIPF_S = 1.0
    ROUND_S = 30.0  # a round runs ~20 s

    def __init__(self, seed: int, scratch: str) -> None:
        rng = random.Random(seed)
        weights = [1.0 / (rank + 1) ** self.ZIPF_S for rank in range(len(self.KEYS))]
        self.bursts = [
            rng.choices(self.KEYS, weights=weights, k=self.BURST) for _ in range(self.BURSTS)
        ]
        self.scratch = scratch

    def setup(self, tracer: Optional[Tracer]) -> Part:
        return Part()

    def round(self, tracer: Optional[Tracer]) -> Part:
        reset_caches()
        store = tempfile.mkdtemp(prefix="service-store-", dir=self.scratch)
        log = _ReplyLog()
        try:
            part, stats = asyncio.run(self._storm(store, tracer, log))
        finally:
            shutil.rmtree(store, ignore_errors=True)
        part.failed = part.attempted - len(log.records)
        part.ops = len(log.records)
        hits = [rec.ms for rec in log.records if rec.source == "store"]
        misses = [rec for rec in log.records if rec.source != "store"]
        leaders = [rec for rec in misses if not rec.coalesced]
        part.layer = {
            "service.coalesced_ratio": stats["coalesced"] / max(1, stats["requests"]),
            "service.store_hit_ratio": len(hits) / max(1, len(log.records)),
            "service.compiles": stats["compiles"],
            "service.batches": stats["batches"],
            "service.failures": stats["failures"],
            "service.pool_compile_s": sum(rec.wall_s for rec in leaders),
            "service.pool_overhead_ms_p50": nearest_rank(
                [rec.ms - rec.wall_s * 1000.0 for rec in leaders], 50.0
            ),
            "service.hit_ms_p50": nearest_rank(hits, 50.0),
            "service.hit_ms_p95": nearest_rank(hits, 95.0),
            "service.miss_ms_p50": nearest_rank([rec.ms for rec in misses], 50.0),
        }
        requests = Counter(rec.token for rec in log.records)
        for token, reply in log.first.items():
            label = f"{reply.request.label()} lam={reply.request.lam}"
            if len(log.plans[token]) != 1:
                part.errors.append(f"{label}: replies for one key carry different plans")
            config = reply.request.flashmem_config()
            capacity = analytic_capacity_model(reply.compiled.device)
            part.errors += plan_errors(label, reply.compiled, capacity, config.opg)
            result = FlashMem(config).run(reply.compiled, scenario=PREFILL_ONCE)
            part.sim.append((result.latency_ms, result.avg_memory_mb, requests[token]))
        return part

    async def _storm(self, store: str, tracer: Optional[Tracer], log: "_ReplyLog"):
        part = Part()
        start = time.perf_counter()
        service = PlanCompilationService(workers=1, cache_dir=store)
        try:
            # Started before tracing: the forked pool worker stays untraced.
            await service.start()
            part.setup_s = time.perf_counter() - start
            for burst in self.bursts:
                part.attempted += len(burst)
                with maybe_traced(tracer):
                    start = time.perf_counter()
                    done = await asyncio.gather(*(self._submit(service, r) for r in burst))
                    part.timed_s += time.perf_counter() - start
                log.add(d for d in done if d is not None)  # client think time
            stats = service.stats.snapshot()
        finally:
            await service.close()
            for child in multiprocessing.active_children():
                child.join(timeout=60)
        return part, stats

    @staticmethod
    async def _submit(service, request):
        start = time.perf_counter()
        try:
            reply = await service.submit(request)
        except ServiceError:
            return None
        return reply, (time.perf_counter() - start) * 1000.0


class _Record(NamedTuple):
    token: str  # the request's dedup token
    source: str
    coalesced: bool
    wall_s: float  # worker compile time
    ms: float  # request latency


class _ReplyLog:
    """What the client keeps of its replies: one record per reply, the plan
    digests seen per key, and the first reply per key (for validation).
    Later compiled models are dropped, so memory does not grow with the
    request count."""

    def __init__(self) -> None:
        self.records: List[_Record] = []
        self.plans: Dict[str, set] = {}
        self.first: Dict[str, object] = {}

    def add(self, replies) -> None:
        digests: Dict[int, str] = {}
        for reply, ms in replies:
            token = reply.request.dedup_token()
            self.records.append(_Record(token, reply.source, reply.coalesced, reply.wall_s, ms))
            key = id(reply.compiled)
            if key not in digests:
                digests[key] = hashlib.sha256(
                    reply.plan.canonical_json().encode()
                ).hexdigest()
            self.plans.setdefault(token, set()).add(digests[key])
            self.first.setdefault(token, reply)


WORKLOADS = {w.name: w for w in (CompileZoo, FleetReplay, ServiceStorm)}
