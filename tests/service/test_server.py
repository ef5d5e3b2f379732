"""End-to-end socket-protocol tests: ``repro serve`` + client round trips.

These run a real daemon (in-process on the test's event loop — no
subprocess spawn cost) and exercise the JSON-lines protocol through
:class:`ServiceClient`, plus one true subprocess pass through the CLI's
``repro serve`` / ``repro compile --via-service`` path.
"""

import asyncio
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments import common
from repro.service.request import CompileRequest, execute_compile
from repro.service.server import ServiceClient, run_server


@pytest.fixture(autouse=True)
def _isolate_caches():
    common.clear_caches()
    yield
    common.clear_caches()
    common.swap_store(None)


REQUEST = CompileRequest(model="ViT", time_limit_s=0.5)


@pytest.fixture()
def served_socket(tmp_path):
    """A live daemon on a unix socket, served from a background thread."""
    socket_path = str(tmp_path / "svc.sock")
    ready = threading.Event()
    stop_holder = {}

    def serve():
        async def main():
            stop = asyncio.Event()
            stop_holder["stop"] = stop
            stop_holder["loop"] = asyncio.get_running_loop()
            await run_server(socket_path, workers=0,
                             cache_dir=str(tmp_path / "cache"),
                             ready=ready.set, stop=stop)

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(timeout=60), "service never came up"
    yield socket_path
    stop_holder["loop"].call_soon_threadsafe(stop_holder["stop"].set)
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestProtocol:
    def test_ping_stats_compile_round_trip(self, served_socket):
        with ServiceClient(served_socket) as client:
            assert client.ping()["ok"]
            response = client.compile(REQUEST)
            assert response["source"] == "compiled"
            assert response["solver_status"] in ("OPTIMAL", "FEASIBLE")
            stats = client.stats()["stats"]
            assert stats["requests"] == 1 and stats["compiles"] == 1
            assert client.compile(REQUEST)["source"] == "store"
            stats = client.stats()["stats"]
            assert stats["resident_hits"] == 1 and stats["compiles"] == 1

    def test_served_plan_matches_direct_compile(self, served_socket):
        direct = execute_compile(REQUEST)
        with ServiceClient(served_socket) as client:
            response = client.compile(REQUEST)
        served = response["plan"]
        served.pop("stats", None)
        expected = json.loads(direct.plan.to_json())
        expected.pop("stats", None)
        assert (json.dumps(served, sort_keys=True)
                == json.dumps(expected, sort_keys=True))

    def test_repeat_request_served_from_store(self, served_socket):
        with ServiceClient(served_socket) as client:
            assert client.compile(REQUEST)["source"] == "compiled"
            assert client.compile(REQUEST)["source"] == "store"

    def test_malformed_and_failing_requests_keep_connection_alive(self, served_socket):
        with ServiceClient(served_socket) as client:
            assert not client.request({"op": "no-such-op"})["ok"]
            assert not client.request({"op": "compile"})["ok"]  # lacks model
            bad = client.request({"op": "compile", "model": "NoSuchModel"})
            assert not bad["ok"] and "NoSuchModel" in bad["error"]
            # Same connection still serves real work afterwards.
            assert client.compile(REQUEST)["ok"]

    def test_concurrent_connections_coalesce(self, served_socket):
        results = []

        def one_client():
            with ServiceClient(served_socket) as client:
                results.append(client.compile(REQUEST))

        threads = [threading.Thread(target=one_client) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert len(results) == 4
        with ServiceClient(served_socket) as client:
            stats = client.stats()["stats"]
        # 4 requests, at most one compile; the rest coalesced or hit the
        # store (arrival timing decides which).
        assert stats["requests"] == 4
        assert stats["compiles"] <= 1
        assert stats["coalesced"] + stats["store_hits"] >= 3


class TestCliSubprocess:
    def test_serve_and_compile_via_service(self, tmp_path):
        """`repro serve` in a subprocess, `repro compile --via-service` client."""
        socket_path = str(tmp_path / "cli.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
             "--workers", "0", "--cache-dir", str(tmp_path / "cache")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            deadline = time.monotonic() + 120
            while not os.path.exists(socket_path):
                assert server.poll() is None, server.stdout.read()
                assert time.monotonic() < deadline, "socket never appeared"
                time.sleep(0.1)
            out_path = tmp_path / "plan.json"
            client = subprocess.run(
                [sys.executable, "-m", "repro", "compile", "ViT",
                 "--time-limit", "0.5", "--via-service", socket_path,
                 "--out", str(out_path)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert client.returncode == 0, client.stdout + client.stderr
            assert "served from compiled" in client.stdout
            plan = json.loads(out_path.read_text())
            assert plan["schedules"], "plan JSON should carry schedules"
        finally:
            server.terminate()
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
