"""The plan-compilation daemon: queue → dedup → resident/batched lookup → pool → publish.

Dataflow of one batch (see DESIGN.md "Plan-compilation service"):

1. **queue** — ``submit()`` enqueues ``(request, future)`` pairs; the single
   drain task pulls one entry and then opportunistically drains everything
   already queued, so a burst of requests is processed as one batch.
2. **dedup** — each request's content address is computed once and
   requests are grouped by its fingerprint.  Duplicates of an *in-flight*
   compile attach to its waiter list; duplicates within the batch collapse
   into one group.  K identical concurrent requests therefore cost one
   lookup and at most one compile.
3. **resident/batched lookup** — deduplicated keys first consult the
   daemon's bounded in-memory LRU of decoded artifacts
   (:data:`RESIDENT_ARTIFACTS` entries); resident hits are served at once
   with no store read.  The rest resolve against the shared
   :class:`ArtifactStore` in one :meth:`~ArtifactStore.load_many` pass
   (off the event loop); hits are served immediately and become resident.
4. **pool** — misses fan out over the pre-warmed
   :class:`~repro.service.pool.CompilePool`; workers consult their private
   read-through stores and write results there (never to the shared store).
5. **publish** — the daemon, the single shared-store writer, copies each
   worker's already-pickled envelope bytes into the shared store
   (:meth:`ArtifactStore.publish_bytes`) and resolves every waiter with the
   same :class:`ServiceReply` payload.  The decoded model becomes resident.

Entries are content-addressed (the key folds in the full config fingerprint
and the artifact schema version), so a resident model can never be stale.
Every reply for one key shares one read-only :class:`CompiledModel`.

Plans served by any route are canonically byte-identical to a direct
``FlashMem.compile`` of the same request (``OverlapPlan.canonical_json``).
"""

from __future__ import annotations

import asyncio
import pathlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.flashmem import CompiledModel
from repro.core.store import ArtifactStore, stable_fingerprint
from repro.service.pool import CompilePool, raise_recursion_limit
from repro.service.request import CompileRequest
from repro.service.store import unpickle_envelope
from repro.sweep.runner import PathLike

#: Decoded artifacts the daemon keeps in memory (LRU by dedup token).  A
#: resident compiled model is about 2-3 MB, so this bounds residency near
#: 100 MB.
RESIDENT_ARTIFACTS = 32


class ServiceError(RuntimeError):
    """A request failed (bad model, compile error); the service keeps going."""


class ServiceClosed(ServiceError):
    """The request cannot be served because the service is shutting down."""


@dataclass
class ServiceStats:
    """Request-traffic accounting for one service instance."""

    requests: int = 0
    #: Requests that attached to an identical compile instead of paying one
    #: themselves (in-flight attach or same-batch collapse).
    coalesced: int = 0
    #: Requests served without compiling: resident or batched-lookup hits.
    store_hits: int = 0
    #: The subset of ``store_hits`` served from daemon memory (no store read).
    resident_hits: int = 0
    #: Compilations dispatched to the pool.
    compiles: int = 0
    failures: int = 0
    batches: int = 0
    max_batch: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "requests": self.requests, "coalesced": self.coalesced,
            "store_hits": self.store_hits, "resident_hits": self.resident_hits,
            "compiles": self.compiles,
            "failures": self.failures, "batches": self.batches,
            "max_batch": self.max_batch,
        }


@dataclass
class ServiceReply:
    """What one waiter receives: the artifact plus provenance."""

    request: CompileRequest
    compiled: CompiledModel
    #: "store" (resident or batched lookup hit), "compiled" (pool compile), or
    #: "worker-store" (worker's read-through store already had it).
    source: str
    #: True when this waiter attached to another request's compile/lookup.
    coalesced: bool
    #: Wall-clock the worker spent on the request (0 for store hits).
    wall_s: float = 0.0
    worker_pid: Optional[int] = None

    @property
    def plan(self):
        return self.compiled.plan


@dataclass
class _Inflight:
    """One dispatched compile and everyone waiting on it."""

    request: CompileRequest
    key: Dict[str, Any]
    waiters: List["asyncio.Future[ServiceReply]"] = field(default_factory=list)


class PlanCompilationService:
    """Async plan-compilation daemon (use as an async context manager).

    ``workers`` sizes the compile pool (0 = in-process inline mode);
    ``cache_dir`` roots the shared artifact store (None = no persistence:
    the service still coalesces and serves resident artifacts from memory).
    """

    def __init__(self, *, workers: int = 1, cache_dir: Optional[PathLike] = None,
                 max_batch: int = 64) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.pool = CompilePool(workers=workers, cache_dir=cache_dir)
        self.store: Optional[ArtifactStore] = (
            ArtifactStore(cache_dir) if cache_dir is not None else None
        )
        self.max_batch = max_batch
        self.stats = ServiceStats()
        self._queue: Optional[asyncio.Queue] = None
        self._inflight: Dict[str, _Inflight] = {}
        #: dedup token → decoded model; touched only on the event loop.
        self._resident: "OrderedDict[str, CompiledModel]" = OrderedDict()
        self._drainer: Optional[asyncio.Task] = None
        self._finishers: "set[asyncio.Task]" = set()
        self._closed = False

    # -------------------------------------------------------------- lifecycle
    async def __aenter__(self) -> "PlanCompilationService":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def start(self) -> None:
        """Prewarm the pool and start the drain task; idempotent."""
        if self._drainer is not None:
            return
        raise_recursion_limit()
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        await loop.run_in_executor(None, self.pool.prewarm)
        self._drainer = loop.create_task(self._drain_loop())

    async def close(self) -> None:
        """Stop draining, fail unresolved waiters, tear the pool down."""
        self._closed = True
        if self._drainer is not None:
            self._drainer.cancel()
            await asyncio.gather(self._drainer, return_exceptions=True)
            self._drainer = None
        for task in list(self._finishers):
            task.cancel()
        if self._finishers:
            await asyncio.gather(*self._finishers, return_exceptions=True)
        if self._queue is not None:
            while not self._queue.empty():
                _, fut = self._queue.get_nowait()
                if not fut.done():
                    fut.set_exception(ServiceClosed("service closed"))
        for entry in self._inflight.values():
            for fut in entry.waiters:
                if not fut.done():
                    fut.set_exception(ServiceClosed("service closed"))
        self._inflight.clear()
        self._resident.clear()
        await asyncio.get_running_loop().run_in_executor(None, self.pool.close)

    # ---------------------------------------------------------------- intake
    async def submit(self, request: CompileRequest) -> ServiceReply:
        """Enqueue one request and await its reply.

        Raises :class:`ServiceError` when the request itself fails and
        :class:`ServiceClosed` when the service shuts down first.
        """
        if self._closed or self._queue is None:
            raise ServiceClosed("service is not running")
        try:
            request = request.normalized()
        except KeyError as exc:  # unknown device — fail fast, never queue
            raise ServiceError(f"invalid request: {exc}") from None
        fut: "asyncio.Future[ServiceReply]" = asyncio.get_running_loop().create_future()
        await self._queue.put((request, fut))
        return await fut

    # ----------------------------------------------------------- drain/dedup
    async def _drain_loop(self) -> None:
        while True:
            batch: List[Tuple[CompileRequest, asyncio.Future]] = [await self._queue.get()]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                await self._process_batch(batch)
            except Exception as exc:  # noqa: BLE001 — the daemon must survive
                for _, fut in batch:
                    if not fut.done():
                        fut.set_exception(ServiceError(f"batch failed: {exc}"))

    async def _process_batch(self, batch: Sequence[Tuple[CompileRequest, asyncio.Future]]) -> None:
        self.stats.batches += 1
        self.stats.max_batch = max(self.stats.max_batch, len(batch))
        # Dedup pass: group by content-address token.  No awaits in this
        # loop — in-flight membership checks and attaches must be atomic
        # with respect to _finish() resolving entries.
        groups: Dict[str, List[asyncio.Future]] = {}
        leaders: Dict[str, Tuple[CompileRequest, Dict[str, Any]]] = {}
        for request, fut in batch:
            self.stats.requests += 1
            key = request.store_key()
            token = stable_fingerprint(key)  # == request.dedup_token()
            entry = self._inflight.get(token)
            if entry is not None:
                entry.waiters.append(fut)
                self.stats.coalesced += 1
                continue
            if token in groups:
                groups[token].append(fut)
                self.stats.coalesced += 1
            else:
                groups[token] = [fut]
                leaders[token] = (request, key)

        # Resident lookup: decoded artifacts already in daemon memory.
        tokens = []
        for token, (request, _) in leaders.items():
            compiled = self._resident.get(token)
            if compiled is None:
                tokens.append(token)
                continue
            self._resident.move_to_end(token)
            self.stats.store_hits += 1
            self.stats.resident_hits += 1
            self._resolve_waiters(groups[token], request, compiled, "store", 0.0, None)

        # Batched lookup: one load_many pass over the remaining keys, off
        # the event loop (unpickling compiled models is not cheap).
        loop = asyncio.get_running_loop()
        if self.store is not None and tokens:
            keys = [leaders[t][1] for t in tokens]
            values = await loop.run_in_executor(None, self.store.load_many, keys)
        else:
            values = [None] * len(tokens)

        for token, value in zip(tokens, values):
            request, key = leaders[token]
            waiters = groups[token]
            if value is not None:
                self.stats.store_hits += 1
                self._admit(token, value)
                self._resolve_waiters(waiters, request, value, "store", 0.0, None)
                continue
            entry = _Inflight(request=request, key=key, waiters=waiters)
            self._inflight[token] = entry
            self.stats.compiles += 1
            pool_future = asyncio.wrap_future(
                self.pool.submit(request.to_payload()), loop=loop
            )
            task = loop.create_task(self._finish(token, entry, pool_future))
            self._finishers.add(task)
            task.add_done_callback(self._finishers.discard)

    # ------------------------------------------------------- publish/resolve
    async def _finish(self, token: str, entry: _Inflight,
                      pool_future: "asyncio.Future[Dict[str, Any]]") -> None:
        loop = asyncio.get_running_loop()
        try:
            raw = await pool_future
            compiled = await loop.run_in_executor(None, self._publish, entry.key, raw)
        except (Exception, asyncio.CancelledError) as exc:
            self._inflight.pop(token, None)
            self.stats.failures += 1
            for fut in entry.waiters:
                if not fut.done():
                    fut.set_exception(ServiceError(
                        f"compile of {entry.request.label()} failed: "
                        f"{type(exc).__name__}: {exc}"
                    ))
            if isinstance(exc, asyncio.CancelledError):
                raise
            return
        # Waiters may still be attaching while _publish runs in the thread;
        # popping before resolving closes the window (later duplicates will
        # hit the freshly admitted resident entry instead).
        self._inflight.pop(token, None)
        self._admit(token, compiled)
        self._resolve_waiters(entry.waiters, entry.request, compiled,
                              raw["source"], raw["wall_s"], raw["pid"])

    def _publish(self, key: Dict[str, Any], raw: Dict[str, Any]) -> CompiledModel:
        """Materialize a worker reply; publish its bytes to the shared store.

        Runs in the default thread executor.  The daemon is the only shared-
        store writer: workers hand back either the private-store path of
        their pickled envelope (copied here byte-for-byte) or, store-less,
        the compiled model itself.
        """
        if raw["path"] is None:
            return raw["value"]
        blob = pathlib.Path(raw["path"]).read_bytes()
        if self.store is not None:
            shared_path = self.store.path_for(key)
            if pathlib.Path(raw["path"]) != shared_path:
                self.store.publish_bytes(key, blob)
        return unpickle_envelope(blob, key, self.store.schema if self.store else None)

    def _admit(self, token: str, compiled: CompiledModel) -> None:
        """Make ``compiled`` resident, evicting the least recently used."""
        self._resident[token] = compiled
        self._resident.move_to_end(token)
        while len(self._resident) > RESIDENT_ARTIFACTS:
            self._resident.popitem(last=False)

    def _resolve_waiters(self, waiters: List[asyncio.Future], request: CompileRequest,
                         compiled: CompiledModel, source: str, wall_s: float,
                         pid: Optional[int]) -> None:
        for i, fut in enumerate(waiters):
            if fut.done():
                continue
            fut.set_result(ServiceReply(
                request=request, compiled=compiled, source=source,
                coalesced=i > 0, wall_s=wall_s, worker_pid=pid,
            ))


def compile_many(requests: Sequence[CompileRequest], *, workers: int = 1,
                 cache_dir: Optional[PathLike] = None,
                 max_batch: int = 64) -> List[ServiceReply]:
    """One-shot convenience: serve ``requests`` on a temporary service.

    Spins a service up, submits everything concurrently (so duplicates
    coalesce exactly as they would against a long-running daemon), and
    tears it down.  The CLI's batch mode and the tests use this; the bench
    drives the service object directly to keep prewarm off the clock.
    """
    async def go() -> List[ServiceReply]:
        async with PlanCompilationService(
            workers=workers, cache_dir=cache_dir, max_batch=max_batch
        ) as svc:
            return list(await asyncio.gather(*(svc.submit(r) for r in requests)))

    return asyncio.run(go())
