"""Tests for the plan-compilation service: requests, stores, dedup, failures.

The coalescing tests drive the service in inline mode (``workers=0``),
where compiles run in-process — the seam that lets a test monkeypatch the
solver path and *count* invocations, proving K identical concurrent
requests cost exactly one compile.
"""

import asyncio
import pickle
import threading

import pytest

from repro.core.store import ArtifactStore, stable_fingerprint
from repro.experiments import common
from repro.service import (
    CompilePool,
    CompileRequest,
    PlanCompilationService,
    ReadThroughStore,
    ServiceClosed,
    ServiceError,
    compile_many,
    execute_compile,
)
from repro.service.request import DEFAULT_TIME_LIMIT_S


@pytest.fixture(autouse=True)
def _isolate_caches():
    common.clear_caches()
    yield
    common.clear_caches()
    common.swap_store(None)


# A tiny model keeps every compile in these tests well under a second.
MODEL = "ViT"


def _request(**overrides) -> CompileRequest:
    fields = {"model": MODEL, "device": "OnePlus 12", "time_limit_s": 0.5}
    fields.update(overrides)
    return CompileRequest(**fields)


class TestCompileRequest:
    def test_normalization_resolves_device_aliases(self):
        alias = CompileRequest(model=MODEL, device="oneplus12").normalized()
        canonical = CompileRequest(model=MODEL, device="OnePlus 12").normalized()
        assert alias == canonical
        assert alias.dedup_token() == canonical.dedup_token()

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError):
            CompileRequest(model=MODEL, device="Nokia 3310").normalized()

    def test_invalid_budgets_rejected_at_construction(self):
        with pytest.raises(ValueError):
            CompileRequest(model=MODEL, time_limit_s=0.0)
        with pytest.raises(ValueError):
            CompileRequest(model=MODEL, context_len=-1)

    def test_budget_axes_address_distinct_artifacts(self):
        base = _request().store_key()
        assert _request(time_limit_s=1.0).store_key() != base
        assert _request(lam=0.5).store_key() != base
        assert _request(context_len=128).store_key() != base
        assert _request(target_preload_ratio=0.4).store_key() != base
        assert _request().store_key() == base

    def test_default_request_addresses_experiment_artifacts(self):
        """A default-budget service shares the experiment pipeline's cache."""
        request = CompileRequest(model=MODEL).normalized()
        assert request.store_key() == common.compile_key(MODEL, "OnePlus 12")

    def test_payload_round_trip(self):
        request = _request(lam=0.7, context_len=64, target_preload_ratio=0.3)
        assert CompileRequest.from_payload(request.to_payload()) == request
        # Defaults are omitted from the wire form.
        assert CompileRequest(model=MODEL).to_payload() == {
            "model": MODEL, "device": "OnePlus 12",
        }
        with pytest.raises(ValueError):
            CompileRequest.from_payload({"device": "OnePlus 12"})

    def test_dedup_token_is_store_key_fingerprint(self):
        request = _request()
        assert request.dedup_token() == stable_fingerprint(request.store_key())

    def test_capacity_backend_axis(self):
        gbt = _request(capacity_backend="gbt")
        assert gbt.store_key() != _request().store_key()
        assert CompileRequest.from_payload(gbt.to_payload()) == gbt
        # The default backend is omitted from the wire form.
        assert "capacity_backend" not in _request().to_payload()
        with pytest.raises(ValueError):
            CompileRequest(model=MODEL, capacity_backend="xgboost")


class TestReadThroughStore:
    KEY = {"kind": "compiled", "model": MODEL, "device": "OnePlus 12", "config": "x"}

    def test_private_hit_without_touching_shared(self, tmp_path):
        store = ReadThroughStore(tmp_path / "private", tmp_path / "shared")
        store.save(self.KEY, {"v": 1})
        assert store.load(self.KEY) == {"v": 1}
        assert store.shared.stats.hits == 0
        assert not store.shared.contains(self.KEY)

    def test_shared_fallback_fills_private(self, tmp_path):
        store = ReadThroughStore(tmp_path / "private", tmp_path / "shared")
        store.shared.save(self.KEY, {"v": 2})
        assert store.load(self.KEY) == {"v": 2}
        # The fill is a byte copy: the next read is private-local.
        assert store.private.contains(self.KEY)
        assert (store.private.path_for(self.KEY).read_bytes()
                == store.shared.path_for(self.KEY).read_bytes())
        shared_hits = store.shared.stats.hits
        assert store.load(self.KEY) == {"v": 2}
        assert store.shared.stats.hits == shared_hits

    def test_writes_stay_private(self, tmp_path):
        store = ReadThroughStore(tmp_path / "private", tmp_path / "shared")
        store.save(self.KEY, {"v": 3})
        assert store.contains(self.KEY)
        assert not store.shared.contains(self.KEY)
        assert store.stats.stores == 1

    def test_miss_counts_once_at_facade(self, tmp_path):
        store = ReadThroughStore(tmp_path / "private", tmp_path / "shared")
        assert store.load(self.KEY) is None
        assert store.stats.misses == 1
        assert store.load_many([self.KEY, self.KEY]) == [None, None]


def _count_compiles(monkeypatch):
    """Wrap ``execute_compile`` where the pool worker resolves it."""
    from repro.service import pool as pool_mod
    from repro.service import request as request_mod

    calls = []
    real = request_mod.execute_compile

    def counting(request):
        calls.append(request)
        return real(request)

    monkeypatch.setattr(request_mod, "execute_compile", counting)
    return calls


class TestCoalescing:
    def test_k_identical_requests_cost_one_compile(self, monkeypatch, tmp_path):
        calls = _count_compiles(monkeypatch)
        requests = [_request() for _ in range(6)]
        replies = compile_many(requests, workers=0, cache_dir=tmp_path)
        assert len(calls) == 1
        canon = {r.plan.canonical_json() for r in replies}
        assert len(canon) == 1  # every waiter got the identical plan
        assert sum(r.coalesced for r in replies) == len(requests) - 1
        assert [r.source for r in replies] == ["compiled"] * len(requests)

    def test_served_plan_byte_identical_to_direct_compile(self, tmp_path):
        direct = execute_compile(_request())
        (reply,) = compile_many([_request()], workers=0, cache_dir=tmp_path)
        assert reply.plan.canonical_json() == direct.plan.canonical_json()

    def test_mixed_batch_compiles_each_unique_request_once(self, monkeypatch, tmp_path):
        calls = _count_compiles(monkeypatch)
        requests = [_request(), _request(lam=0.5), _request(), _request(lam=0.5)]
        replies = compile_many(requests, workers=0, cache_dir=tmp_path)
        assert len(calls) == 2
        assert sum(r.coalesced for r in replies) == 2

    def test_second_round_served_from_store(self, monkeypatch, tmp_path):
        calls = _count_compiles(monkeypatch)
        compile_many([_request()], workers=0, cache_dir=tmp_path)
        (reply,) = compile_many([_request()], workers=0, cache_dir=tmp_path)
        assert len(calls) == 1
        assert reply.source == "store"

    def test_storeless_service_still_coalesces(self, monkeypatch):
        calls = _count_compiles(monkeypatch)
        replies = compile_many([_request() for _ in range(4)], workers=0,
                               cache_dir=None)
        assert len(calls) == 1
        assert len({r.plan.canonical_json() for r in replies}) == 1

    def test_late_duplicate_attaches_to_inflight_compile(self, monkeypatch, tmp_path):
        """A request arriving while its twin compiles must not pay a second
        compile: it attaches to the in-flight entry's waiter list."""
        from repro.service import request as request_mod

        real = request_mod.execute_compile
        started = threading.Event()
        release = threading.Event()
        calls = []

        def gated(request):
            calls.append(request)
            started.set()
            release.wait(timeout=30)
            return real(request)

        monkeypatch.setattr(request_mod, "execute_compile", gated)

        async def go():
            async with PlanCompilationService(workers=0, cache_dir=tmp_path) as svc:
                first = asyncio.ensure_future(svc.submit(_request()))
                await asyncio.get_running_loop().run_in_executor(None, started.wait)
                # The compile is now in flight on the pool thread; this
                # duplicate lands in a later batch and must attach to it.
                second = asyncio.ensure_future(svc.submit(_request()))
                await asyncio.sleep(0.05)
                release.set()
                replies = await asyncio.gather(first, second)
                return replies, svc.stats.snapshot()

        (r1, r2), stats = asyncio.run(go())
        assert len(calls) == 1
        assert stats["coalesced"] == 1 and stats["compiles"] == 1
        assert r1.plan.canonical_json() == r2.plan.canonical_json()
        assert r2.coalesced


def _serve_sequentially(requests, **service_kwargs):
    """Serve ``requests`` one at a time on one service; errors are returned."""
    async def go():
        async with PlanCompilationService(workers=0, **service_kwargs) as svc:
            replies = []
            for request in requests:
                try:
                    replies.append(await svc.submit(request))
                except ServiceError as exc:
                    replies.append(exc)
            return replies, svc.stats.snapshot()

    return asyncio.run(go())


def _spy_load_many(monkeypatch):
    """Record the keys of every ``ArtifactStore.load_many`` call."""
    calls = []
    real = ArtifactStore.load_many

    def spying(self, keys):
        calls.append(list(keys))
        return real(self, keys)

    monkeypatch.setattr(ArtifactStore, "load_many", spying)
    return calls


class TestResidency:
    """Decoded artifacts stay in daemon memory: warm repeats read no store."""

    def test_repeat_is_served_from_memory(self, monkeypatch, tmp_path):
        loads = _spy_load_many(monkeypatch)
        (first, second), stats = _serve_sequentially(
            [_request(), _request()], cache_dir=tmp_path
        )
        assert len(loads) == 1  # the first request's miss only
        assert second.compiled is first.compiled
        assert (first.source, second.source) == ("compiled", "store")
        assert stats["resident_hits"] == 1 and stats["store_hits"] == 1
        assert stats["compiles"] == 1

    def test_lru_evicts_the_oldest_key(self, monkeypatch, tmp_path):
        from repro.service import daemon

        monkeypatch.setattr(daemon, "RESIDENT_ARTIFACTS", 2)
        a, b, c = _request(), _request(lam=0.5), _request(lam=0.7)
        loads = _spy_load_many(monkeypatch)
        replies, stats = _serve_sequentially([a, b, c, c, b, a, b], cache_dir=tmp_path)
        assert stats["compiles"] == 3
        # Only a (evicted when c arrived) goes back to the store, exactly
        # once; its return evicts c, the least recently used, so b stays.
        assert loads[3:] == [[a.store_key()]]
        assert stats["resident_hits"] == 3 and stats["store_hits"] == 4
        assert [r.source for r in replies[3:]] == ["store"] * 4
        assert replies[6].compiled is replies[1].compiled
        assert replies[5].compiled is not replies[0].compiled

    def test_failures_are_never_resident(self, tmp_path):
        bad = CompileRequest(model="NoSuchModel", time_limit_s=0.5)
        replies, stats = _serve_sequentially([bad, bad], cache_dir=tmp_path)
        assert all(isinstance(r, ServiceError) for r in replies)
        assert stats["failures"] == 2 and stats["compiles"] == 2
        assert stats["resident_hits"] == 0 and stats["store_hits"] == 0

    def test_every_route_serves_identical_plan_bytes(self, tmp_path):
        # The default budget compiles ViT as fast as 0.5 s does, with more
        # headroom before a host stall could cut a CP window.
        request = _request(time_limit_s=DEFAULT_TIME_LIMIT_S)
        (compiled, resident), _ = _serve_sequentially(
            [request, request], cache_dir=tmp_path
        )
        # A fresh service reloads from the store, then serves from memory.
        (reloaded, again), stats = _serve_sequentially(
            [request, request], cache_dir=tmp_path
        )
        assert stats["store_hits"] == 2 and stats["resident_hits"] == 1
        assert again.compiled is reloaded.compiled
        direct = execute_compile(request)
        assert (compiled.source, resident.source, reloaded.source) == (
            "compiled", "store", "store")
        canon = {r.plan.canonical_json() for r in (compiled, resident, reloaded, direct)}
        assert len(canon) == 1

    def test_storeless_service_serves_repeat_without_compiling(self, monkeypatch):
        calls = _count_compiles(monkeypatch)
        (first, second), stats = _serve_sequentially(
            [_request(), _request()], cache_dir=None
        )
        assert len(calls) == 1
        assert second.source == "store" and second.compiled is first.compiled
        assert stats["resident_hits"] == 1


class TestFailureInjection:
    def test_poisoned_request_fails_without_wedging_the_queue(self, tmp_path):
        """An unknown model fails its own waiters; the service keeps serving."""
        async def go():
            async with PlanCompilationService(workers=0, cache_dir=tmp_path) as svc:
                bad = svc.submit(CompileRequest(model="NoSuchModel",
                                                time_limit_s=0.5))
                good = svc.submit(_request())
                results = await asyncio.gather(bad, good, return_exceptions=True)
                follow_up = await svc.submit(_request(lam=0.9))
                return results, follow_up, svc.stats.snapshot()

        (bad_result, good_result), follow_up, stats = asyncio.run(go())
        assert isinstance(bad_result, ServiceError)
        assert "NoSuchModel" in str(bad_result)
        assert not isinstance(good_result, Exception)
        assert follow_up.plan is not None
        assert stats["failures"] == 1
        assert stats["requests"] == 3

    def test_poisoned_duplicates_all_observe_the_failure(self, tmp_path):
        async def go():
            async with PlanCompilationService(workers=0, cache_dir=tmp_path) as svc:
                bads = [svc.submit(CompileRequest(model="NoSuchModel",
                                                  time_limit_s=0.5))
                        for _ in range(3)]
                results = await asyncio.gather(*bads, return_exceptions=True)
                return results, svc.stats.snapshot()

        results, stats = asyncio.run(go())
        assert all(isinstance(r, ServiceError) for r in results)
        assert stats["failures"] == 1  # one compile failed, three waiters told

    def test_invalid_device_fails_fast_before_queueing(self, tmp_path):
        async def go():
            async with PlanCompilationService(workers=0, cache_dir=tmp_path) as svc:
                with pytest.raises(ServiceError, match="invalid request"):
                    await svc.submit(CompileRequest(model=MODEL,
                                                    device="Nokia 3310"))
                return svc.stats.snapshot()

        stats = asyncio.run(go())
        assert stats["requests"] == 0

    def test_submit_after_close_raises_service_closed(self, tmp_path):
        async def go():
            svc = PlanCompilationService(workers=0, cache_dir=tmp_path)
            async with svc:
                pass
            with pytest.raises(ServiceClosed):
                await svc.submit(_request())

        asyncio.run(go())


class TestInlinePoolHygiene:
    def test_inline_pool_scopes_and_restores_global_store(self, tmp_path):
        sentinel = ArtifactStore(tmp_path / "host")
        previous = common.swap_store(sentinel)
        assert previous is None
        try:
            with CompilePool(workers=0, cache_dir=tmp_path / "svc") as pool:
                pool.prewarm()
                assert common.cache_store() is not sentinel
            assert common.cache_store() is sentinel
        finally:
            common.swap_store(previous)

    def test_pool_close_on_exception_path(self, tmp_path):
        sentinel = common.cache_store()
        with pytest.raises(RuntimeError, match="boom"):
            with CompilePool(workers=0, cache_dir=tmp_path) as pool:
                pool.prewarm()
                raise RuntimeError("boom")
        assert common.cache_store() is sentinel


class TestProcessPoolService:
    """One end-to-end pass through the real process pool (slower: spawns)."""

    def test_worker_compiles_daemon_publishes(self, tmp_path):
        replies = compile_many(
            [_request(), _request()], workers=1, cache_dir=tmp_path
        )
        assert {r.source for r in replies} == {"compiled"}
        assert sum(r.coalesced for r in replies) == 1
        assert all(r.worker_pid is not None for r in replies)
        # The daemon published the worker's envelope into the shared store…
        shared = ArtifactStore(tmp_path)
        key = _request().normalized().store_key()
        assert shared.contains(key)
        # …byte-identical to the worker's private copy.
        worker_dir = tmp_path / "worker-local"
        private_copies = list(worker_dir.rglob(shared.path_for(key).name))
        assert len(private_copies) == 1
        assert private_copies[0].read_bytes() == shared.path_for(key).read_bytes()
        # A fresh service round trips it from the store without compiling.
        (warm,) = compile_many([_request()], workers=1, cache_dir=tmp_path)
        assert warm.source == "store"
        assert warm.plan.canonical_json() == replies[0].plan.canonical_json()
