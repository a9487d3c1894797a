"""Request coalescing under real concurrency.

The contract this file pins: N simultaneous identical queries cost one
compute round-trip and every caller gets byte-identical payloads.  It
is checked at three levels -- the :class:`SingleFlight` primitive under
asyncio, the full app under ``asyncio.gather``, and a real socket
server raced from a thread pool (the closest thing to production
traffic a unit suite can stage).
"""

import asyncio
import concurrent.futures
import json
import random
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    BackfillQueue,
    Histogram,
    LruCache,
    ServeApp,
    SingleFlight,
)
from repro.sweep import (
    ResultStore,
    SweepPoint,
    clear_memory_caches,
    point_key,
    run_point,
    simulation_count,
)


@pytest.fixture()
def store(tmp_path):
    clear_memory_caches()
    yield ResultStore(tmp_path / "store")
    clear_memory_caches()


class TestSingleFlight:
    def test_concurrent_identical_keys_share_one_factory_call(self):
        flight = SingleFlight()
        calls = []

        async def factory():
            calls.append(1)
            await asyncio.sleep(0.01)
            return "value"

        async def go():
            results = await asyncio.gather(*[
                flight.run("key", factory) for _ in range(8)
            ])
            return results

        results = asyncio.run(go())
        assert results == ["value"] * 8
        assert len(calls) == 1
        stats = flight.stats()
        assert stats["started"] == 1
        assert stats["coalesced"] == 7

    def test_distinct_keys_do_not_coalesce(self):
        flight = SingleFlight()
        calls = []

        async def factory(i):
            calls.append(i)
            return i

        async def go():
            return await asyncio.gather(*[
                flight.run(f"key-{i}", lambda i=i: factory(i))
                for i in range(4)
            ])

        assert asyncio.run(go()) == [0, 1, 2, 3]
        assert len(calls) == 4

    def test_failure_is_shared_then_retried(self):
        flight = SingleFlight()
        calls = []

        async def boom():
            calls.append(1)
            raise RuntimeError("nope")

        async def go():
            with pytest.raises(RuntimeError):
                await asyncio.gather(
                    flight.run("k", boom), flight.run("k", boom)
                )
            # The failed flight must be retired so the next caller
            # retries instead of inheriting a poisoned future forever.
            with pytest.raises(RuntimeError):
                await flight.run("k", boom)

        asyncio.run(go())
        assert len(calls) == 2

    def test_disabled_flag_runs_every_factory(self):
        flight = SingleFlight(enabled=False)
        calls = []

        async def factory():
            calls.append(1)
            await asyncio.sleep(0.01)
            return "v"

        async def go():
            await asyncio.gather(*[flight.run("k", factory) for _ in range(4)])

        asyncio.run(go())
        assert len(calls) == 4
        assert flight.stats()["coalesced"] == 0


class TestLruCache:
    def test_hit_miss_and_eviction_order(self):
        cache = LruCache(100, name="t")
        cache.put("a", b"a", 40)
        cache.put("b", b"b", 40)
        assert cache.get("a") == b"a"  # refresh a
        cache.put("c", b"c", 40)       # evicts b, the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") == b"a"
        assert cache.get("c") == b"c"
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        assert stats["bytes"] == 80
        assert stats["hits"] == 3 and stats["misses"] == 1

    def test_oversized_entries_rejected_not_cached(self):
        cache = LruCache(10, name="t")
        cache.put("big", b"x" * 11, 11)
        assert cache.get("big") is None
        assert cache.stats()["rejected"] == 1
        assert cache.stats()["entries"] == 0

    def test_replacement_updates_byte_accounting(self):
        cache = LruCache(100, name="t")
        cache.put("a", b"1", 30)
        cache.put("a", b"2", 50)
        assert cache.stats()["bytes"] == 50
        assert cache.get("a") == b"2"

    def test_oversized_replacement_releases_old_bytes(self):
        cache = LruCache(10, name="t")
        cache.put("a", b"1", 6)
        assert not cache.put("a", b"2", 20)
        assert cache.stats()["bytes"] == 0
        assert cache.stats()["entries"] == 0
        assert cache.put("b", b"3", 6)
        assert cache.get("b") == b"3"

    def test_concurrent_put_get_clear_keep_accounting(self):
        cache = LruCache(64, name="t")
        threads, rounds = 8, 3000
        barrier = threading.Barrier(threads)

        def worker(seed: int) -> int:
            rng = random.Random(seed)
            gets = 0
            barrier.wait(timeout=30)
            for i in range(rounds):
                key = rng.randrange(24)
                roll = rng.random()
                if roll < 0.5:
                    cache.put(key, i, rng.randrange(1, 17))
                elif roll < 0.99:
                    cache.get(key)
                    gets += 1
                else:
                    cache.clear()
            return gets

        # Switch threads as often as possible, so unguarded
        # read-modify-write steps would interleave.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(threads) as pool:
                gets = sum(pool.map(worker, range(threads), timeout=60))
        finally:
            sys.setswitchinterval(previous)
        live = sum(size for _, size in cache._entries.values())
        assert cache.bytes == live <= cache.max_bytes
        assert cache.hits + cache.misses == gets


class TestHistogram:
    def test_quantile_is_conservative_bucket_bound(self):
        h = Histogram(buckets=(0.01, 0.1, 1.0))
        for _ in range(99):
            h.observe(0.005)
        h.observe(0.5)
        assert h.quantile(0.5) == 0.01
        assert h.quantile(0.99) == 0.01
        assert h.quantile(1.0) == 1.0

    def test_empty_histogram_quantile(self):
        assert Histogram().quantile(0.5) is None


class TestBackfillQueue:
    def run_queue_test(self, coro):
        return asyncio.run(coro)

    def test_submit_is_idempotent_while_running(self):
        async def go():
            gate = threading.Event()
            loop = asyncio.get_running_loop()

            async def run_blocking(fn):
                return await loop.run_in_executor(None, fn)

            queue = BackfillQueue(run_blocking)
            job1, enq1 = queue.submit("k", "point", "d", gate.wait)
            job2, enq2 = queue.submit("k", "point", "d", gate.wait)
            assert enq1 and not enq2
            assert job1 is job2
            gate.set()
            assert await queue.drain(timeout=10.0)
            assert queue.get("k").state == "done"

        self.run_queue_test(go())

    def test_failed_jobs_record_error_and_retry(self):
        async def go():
            loop = asyncio.get_running_loop()

            async def run_blocking(fn):
                return await loop.run_in_executor(None, fn)

            queue = BackfillQueue(run_blocking)

            def boom():
                raise RuntimeError("disk on fire")

            job, _ = queue.submit("k", "point", "d", boom)
            await queue.drain(timeout=10.0)
            assert job.state == "failed"
            assert "disk on fire" in job.error
            # A later submit retries rather than serving the stale failure.
            job2, enqueued = queue.submit("k", "point", "d", lambda: None)
            assert enqueued and job2.attempts == 2
            await queue.drain(timeout=10.0)
            assert job2.state == "done"

        self.run_queue_test(go())


class TestAppCoalescing:
    def test_gathered_identical_queries_cost_one_store_read(self, store):
        """Warm store, cold cache: 8 concurrent queries, 1 flight."""
        point = SweepPoint(kernel="addblock", version="mmx64", way=2)
        run_point(point, store=store)
        app = ServeApp(store=store, workers=2)
        target = "/v1/point?kernel=addblock&version=mmx64&way=2"

        async def go():
            responses = await asyncio.gather(*[
                app.handle_request("GET", target) for _ in range(8)
            ])
            await app.shutdown()
            return responses

        responses = asyncio.run(go())
        bodies = {r.body for r in responses}
        assert len(bodies) == 1, "coalesced callers must see identical bytes"
        assert all(r.status == 200 for r in responses)
        stats = app.api.flight.stats()
        assert stats["started"] == 1
        assert stats["coalesced"] == 7

    def test_no_coalesce_flag_disables_single_flight(self, store):
        point = SweepPoint(kernel="addblock", version="mmx64", way=2)
        run_point(point, store=store)
        app = ServeApp(store=store, workers=2, coalesce=False)
        target = "/v1/point?kernel=addblock&version=mmx64&way=2"

        async def go():
            await asyncio.gather(*[
                app.handle_request("GET", target) for _ in range(4)
            ])
            await app.shutdown()

        asyncio.run(go())
        assert app.api.flight.stats()["started"] == 4


class ServerThread:
    """A real ServeApp on a real socket, on its own loop in a thread."""

    def __init__(self, app):
        self.app = app
        self.port = None
        self._stop = None
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            _, self.port = await self.app.start("127.0.0.1", 0)
            self._ready.set()
            await self._stop.wait()
            await self.app.shutdown(drain_timeout=60.0)

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10.0), "server failed to boot"
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60.0)

    def get(self, path):
        url = f"http://127.0.0.1:{self.port}{path}"
        try:
            with urllib.request.urlopen(url, timeout=30) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()


class TestSocketRace:
    def test_n_simultaneous_cold_queries_one_compute(self, store):
        """The headline guarantee, staged over a real socket.

        Eight threads fire the same cold query at once.  Exactly one
        simulation happens, every 202 names the same job, and once the
        backfill lands every caller reads byte-identical payloads.
        """
        app = ServeApp(store=store, workers=2)
        point = SweepPoint(kernel="addblock", version="mmx64", way=2)
        key = point_key(point)
        target = "/v1/point?kernel=addblock&version=mmx64&way=2"
        sims_before = simulation_count()

        with ServerThread(app) as server:
            barrier = threading.Barrier(8)

            def fire(_):
                barrier.wait(timeout=10.0)
                return server.get(target)

            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                first_wave = list(pool.map(fire, range(8)))

            # Every cold response is a 202 naming the same job id: the
            # content address, so any client can poll any other's job.
            assert {status for status, _ in first_wave} == {202}
            jobs = {json.loads(body)["job"] for _, body in first_wave}
            assert jobs == {key}

            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                _, body = server.get(f"/v1/jobs/{key}")
                if json.loads(body)["state"] in ("done", "failed"):
                    break
                time.sleep(0.05)
            assert json.loads(body)["state"] == "done"

            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                second_wave = list(pool.map(
                    lambda _: server.get(target), range(8)
                ))

        assert {status for status, _ in second_wave} == {200}
        bodies = {body for _, body in second_wave}
        assert len(bodies) == 1, "all callers must read identical bytes"
        assert simulation_count() - sims_before == 1, (
            "eight simultaneous identical queries must cost exactly one "
            "compute round-trip"
        )

    def test_keep_alive_serves_sequential_requests(self, store):
        app = ServeApp(store=store, workers=1)
        with ServerThread(app) as server:
            status1, _ = server.get("/healthz")
            status2, body = server.get("/metrics")
        assert (status1, status2) == (200, 200)
        assert json.loads(body)["schema"] == 1

    def test_http_errors_carry_json_bodies(self, store):
        app = ServeApp(store=store, workers=1)
        with ServerThread(app) as server:
            status, body = server.get("/v1/artifact/fig99")
            assert status == 404
            assert "unknown artifact" in json.loads(body)["error"]
            status, body = server.get("/v1/point?kernel=nope")
            assert status == 400
