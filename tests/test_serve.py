"""The serving layer end to end, without a socket.

Everything here drives :meth:`repro.serve.ServeApp.handle_request`
directly -- the same coroutine the HTTP framing calls -- so the suite
covers routing, caching, 202-and-poll backfill and batched re-timing
at full speed.  Socket-level behaviour (framing, concurrency across
real connections) lives in ``test_serve_coalesce.py``.
"""

import asyncio
import json
import time

import pytest

from repro.serve import ServeApp
from repro.sweep import (
    ResultStore,
    SweepPoint,
    clear_memory_caches,
    emulation_count,
    point_key,
    run_point,
    simulation_count,
)
from repro.sweep.store import MEMO

WARM_POINT = SweepPoint(kernel="addblock", version="mmx64", way=2)


def drive(app, *requests):
    """Run one or more requests to completion on a fresh event loop."""

    async def go():
        out = []
        for method, target, *body in requests:
            out.append(await app.handle_request(
                method, target, body[0] if body else b""
            ))
        await app.shutdown(drain_timeout=60.0)
        return out

    return asyncio.run(go())


async def poll_job(app, key, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        response = await app.handle_request("GET", f"/v1/jobs/{key}")
        state = json.loads(response.body)["state"]
        if state in ("done", "failed"):
            return state, json.loads(response.body)
        await asyncio.sleep(0.02)
    raise AssertionError(f"backfill {key} did not finish in {timeout}s")


@pytest.fixture()
def store(tmp_path):
    clear_memory_caches()
    yield ResultStore(tmp_path / "store")
    clear_memory_caches()


@pytest.fixture()
def warm_store(store):
    run_point(WARM_POINT, store=store)
    return store


def app_for(store, **kwargs):
    kwargs.setdefault("workers", 2)
    return ServeApp(store=store, **kwargs)


class TestPlumbing:
    def test_healthz(self, store):
        (r,) = drive(app_for(store), ("GET", "/healthz"))
        assert r.status == 200
        payload = json.loads(r.body)
        assert payload["status"] == "ok"
        assert payload["store"] == str(store.root)

    def test_metrics_schema_and_counters(self, warm_store):
        app = app_for(warm_store)
        _, _, r = drive(
            app,
            ("GET", "/v1/point?kernel=addblock&version=mmx64&way=2"),
            ("GET", "/v1/point?kernel=addblock&version=mmx64&way=2"),
            ("GET", "/metrics"),
        )
        m = json.loads(r.body)
        assert m["schema"] == 2
        assert m["counters"]["payload_cache_hits"] == 1
        assert m["counters"]["payload_cache_misses"] >= 1
        assert m["store"]["schema"] == 1
        assert m["store"]["records"] >= 1
        assert m["cache"]["payload"]["entries"] == 1
        # Latency histograms: per-endpoint, cumulative, +Inf-terminated.
        hist = m["latency_seconds"]["point"]
        assert hist["count"] == 2
        assert hist["buckets"]["+Inf"] == 2, "buckets are cumulative"
        assert m["requests_by_status"]["200"] >= 2

    def test_metrics_cache_shape(self, warm_store):
        """Schema 2: the response cache's stats, the trace counters and
        the process memo's stats -- the service keeps no record cache."""
        app = app_for(warm_store)
        _, r = drive(
            app,
            ("POST", "/v1/retime", json.dumps({
                "kernel": "addblock", "version": "mmx64",
                "variants": [{"way": 2}],
            }).encode()),
            ("GET", "/metrics"),
        )
        cache = json.loads(r.body)["cache"]
        assert cache["payload"] == app.payload_cache.stats()
        assert cache["trace"] == {"hits": 1, "misses": 0}
        assert cache["memo"] == MEMO.stats()
        assert cache["memo"]["entries"] >= 1

    def test_unknown_route_is_404(self, store):
        (r,) = drive(app_for(store), ("GET", "/nope"))
        assert r.status == 404
        assert "no route" in json.loads(r.body)["error"]

    def test_internal_errors_become_500(self, store):
        app = app_for(store)
        app.api.point = None  # force a TypeError inside routing
        (r,) = drive(app, ("GET", "/v1/point?kernel=addblock"))
        assert r.status == 500
        assert "internal error" in json.loads(r.body)["error"]

    def test_request_log_lines_are_json(self, store):
        lines = []
        app = app_for(store, log=lines.append)
        drive(app, ("GET", "/healthz"))
        (line,) = lines
        record = json.loads(line)
        assert record["method"] == "GET"
        assert record["path"] == "/healthz"
        assert record["status"] == 200
        assert "ms" in record and "source" in record


class TestArtifacts:
    def test_index_lists_registry(self, store):
        (r,) = drive(app_for(store), ("GET", "/v1/artifacts"))
        payload = json.loads(r.body)
        assert set(payload["artifacts"]) >= {
            "table1", "table2", "table3", "table4",
            "fig4", "fig5", "fig6", "fig7",
        }
        assert "fig4" in payload["golden_pinned"]

    def test_unknown_artifact_404(self, store):
        (r,) = drive(app_for(store), ("GET", "/v1/artifact/fig99"))
        assert r.status == 404

    def test_table_artifact_matches_golden_bytes_and_caches(self, store, goldens_dir=None):
        from pathlib import Path

        golden = (Path(__file__).parent / "goldens" / "table1.json").read_bytes()
        first, second = drive(
            app_for(store),
            ("GET", "/v1/artifact/table1"),
            ("GET", "/v1/artifact/table1"),
        )
        assert first.status == 200 and first.body == golden
        assert second.source == "cache" and second.body == golden

    def test_cold_grid_artifact_backfills_then_serves_golden(
        self, store, monkeypatch
    ):
        from pathlib import Path

        # As ``repro serve --store``: artefacts compose from the served store.
        monkeypatch.setenv("REPRO_STORE", str(store.root))
        app = app_for(store)

        async def go():
            cold = await app.handle_request("GET", "/v1/artifact/fig4")
            assert cold.status == 202
            body = json.loads(cold.body)
            assert body["status"] == "backfill"
            assert body["missing"] > 0
            assert body["poll"] == f"/v1/jobs/{body['job']}"
            state, _ = await poll_job(app, body["job"], timeout=300.0)
            assert state == "done"
            warm = await app.handle_request("GET", "/v1/artifact/fig4")
            await app.shutdown(drain_timeout=60.0)
            return warm

        warm = asyncio.run(go())
        golden = (Path(__file__).parent / "goldens" / "fig4.json").read_bytes()
        assert warm.status == 200
        assert warm.body == golden

    def test_artifacts_gate_and_backfill_the_process_store(
        self, store, tmp_path, monkeypatch
    ):
        """Artefacts compose from ``REPRO_STORE``, so that is the store an
        artefact request gates and backfills, whatever store the app
        answers points from: fig4 is computed once, into it alone."""
        from pathlib import Path

        process = ResultStore(tmp_path / "process")
        monkeypatch.setenv("REPRO_STORE", str(process.root))
        app = app_for(store)
        sims, emus = simulation_count(), emulation_count()

        async def go():
            cold = await app.handle_request("GET", "/v1/artifact/fig4")
            assert cold.status == 202
            state, _ = await poll_job(app, json.loads(cold.body)["job"], timeout=300.0)
            assert state == "done"
            warm = await app.handle_request("GET", "/v1/artifact/fig4")
            await app.shutdown(drain_timeout=60.0)
            return warm

        warm = asyncio.run(go())
        golden = (Path(__file__).parent / "goldens" / "fig4.json").read_bytes()
        assert warm.status == 200 and warm.body == golden
        assert (simulation_count() - sims, emulation_count() - emus) == (44, 44)
        assert list(store.iter_keys()) == []
        assert len(process) == 88

    def test_warm_artifact_request_keys_and_reads_each_record_once(
        self, store, monkeypatch, counted
    ):
        """The gate reads fig5v's kernel-timing records and memoises them,
        so the render answers them without keying or reading them again."""
        from repro.experiments import artifact_json
        from repro.experiments.artifacts import ARTIFACT_POINTS

        # As ``repro serve --store``: artefacts compose from the served store.
        monkeypatch.setenv("REPRO_STORE", str(store.root))
        expected = artifact_json("fig5v").encode("utf-8")
        grid = ARTIFACT_POINTS["fig5v"]()
        clear_memory_caches()  # as a server started on a full store
        counted.update(keys=0, reads=0)
        (response,) = drive(app_for(store), ("GET", "/v1/artifact/fig5v"))
        assert response.status == 200 and response.body == expected
        assert counted["keys"] == len(grid) == 275
        # Each kernel timing once, then 6 app profiles and 20 scalar-IPC mixes.
        assert counted["reads"] == len(grid) + 26

    def test_backfill_rewrites_records_removed_under_a_live_server(
        self, store, monkeypatch
    ):
        """fig7 reads fig4's grid, which this process holds once fig4 rendered."""
        import shutil
        from pathlib import Path

        from repro.experiments.artifacts import ARTIFACT_POINTS

        # As ``repro serve --store``: artefacts compose from the served store.
        monkeypatch.setenv("REPRO_STORE", str(store.root))
        app = app_for(store)
        keys = [point_key(p) for p in ARTIFACT_POINTS["fig7"]()]

        async def render(name):
            first = await app.handle_request("GET", f"/v1/artifact/{name}")
            if first.status != 202:
                return first, None
            state, _ = await poll_job(app, json.loads(first.body)["job"], timeout=300.0)
            assert state == "done"
            return await app.handle_request("GET", f"/v1/artifact/{name}"), first

        async def go():
            fig4, _ = await render("fig4")
            assert fig4.status == 200
            shutil.rmtree(store.root)
            fig7, backfill = await render("fig7")
            await app.shutdown(drain_timeout=60.0)
            return fig7, backfill

        fig7, backfill = asyncio.run(go())
        assert backfill is not None and json.loads(backfill.body)["missing"] == len(keys)
        assert store.missing(keys) == []
        golden = (Path(__file__).parent / "goldens" / "fig7.json").read_bytes()
        assert fig7.status == 200
        assert fig7.body == golden


class TestPoints:
    def test_warm_point_served_from_store_then_cache(self, warm_store):
        before = simulation_count()
        first, second = drive(
            app_for(warm_store),
            ("GET", "/v1/point?kernel=addblock&version=mmx64&way=2"),
            ("GET", "/v1/point?kernel=addblock&version=mmx64&way=2"),
        )
        assert first.status == 200 and first.source == "store"
        assert second.status == 200 and second.source == "cache"
        assert first.body == second.body
        assert simulation_count() == before, "warm queries must not simulate"
        payload = json.loads(first.body)
        assert payload["key"] == point_key(WARM_POINT)
        assert payload["timing"]["kernel"] == "addblock"

    def test_machine_param_resolves_version(self, warm_store):
        (r,) = drive(
            app_for(warm_store),
            ("GET", "/v1/point?kernel=addblock&machine=mmx64&way=2"),
        )
        assert r.status == 200
        assert json.loads(r.body)["key"] == point_key(WARM_POINT)

    def test_ablation_overrides_reach_the_key(self, warm_store):
        (r,) = drive(
            app_for(warm_store),
            ("GET", "/v1/point?kernel=addblock&version=mmx64&way=2"
                    "&core.rob_size=32"),
        )
        # Different resolved config, different content address: cold.
        assert r.status == 202

    def test_202_carries_retry_after(self, store):
        (r,) = drive(
            app_for(store),
            ("GET", "/v1/point?kernel=addblock&version=mmx64&way=4"),
        )
        assert r.status == 202
        # Well-behaved pollers need a server-suggested cadence; without
        # the header a 202 invites a tight polling loop.
        assert dict(r.headers).get("Retry-After") == "2"

    def test_cold_point_202_then_poll_then_warm(self, store):
        app = app_for(store)

        async def go():
            cold = await app.handle_request(
                "GET", "/v1/point?kernel=addblock&version=mmx64&way=4"
            )
            assert cold.status == 202
            body = json.loads(cold.body)
            key = point_key(
                SweepPoint(kernel="addblock", version="mmx64", way=4)
            )
            assert body["job"] == key, "job ids are the content addresses"
            state, done = await poll_job(app, key)
            assert state == "done"
            assert "hint" in done
            warm = await app.handle_request(
                "GET", "/v1/point?kernel=addblock&version=mmx64&way=4"
            )
            await app.shutdown(drain_timeout=60.0)
            return warm

        warm = asyncio.run(go())
        assert warm.status == 200
        assert store.missing([json.loads(warm.body)["key"]]) == []

    def test_unknown_job_404(self, store):
        (r,) = drive(app_for(store), ("GET", "/v1/jobs/deadbeef"))
        assert r.status == 404

    @pytest.mark.parametrize("query, fragment", [
        ("", "kernel"),
        ("kernel=nope", "unknown kernel"),
        ("kernel=addblock", "version"),
        ("kernel=addblock&machine=nope", "unknown machine"),
        ("kernel=addblock&version=mmx64&way=zero", "integers"),
        ("kernel=addblock&version=mmx64&way=0", "positive"),
        ("kernel=addblock&version=mmx64&way=2&core.rob_size=0", "rob_size"),
        ("kernel=addblock&version=mmx64&way=2&mem.l1.assoc=0", "l1.assoc"),
    ])
    def test_bad_point_requests_400(self, store, query, fragment):
        (r,) = drive(app_for(store), ("GET", f"/v1/point?{query}"))
        assert r.status == 400
        assert fragment in json.loads(r.body)["error"]


class TestRetime:
    def retime_body(self, ways, **extra):
        request = {
            "kernel": "addblock", "version": "mmx64",
            "variants": [{"way": w} for w in ways],
        }
        request.update(extra)
        return json.dumps(request).encode()

    def test_eight_variants_one_dispatch_under_a_second(
        self, warm_store, monkeypatch
    ):
        from repro.sweep import engine

        calls = []
        real = engine.simulate_trace_stack

        def counting(cols, configs):
            calls.append(len(configs))
            return real(cols, configs)

        monkeypatch.setattr(engine, "simulate_trace_stack", counting)
        emu_before = emulation_count()
        app = app_for(warm_store)
        started = time.monotonic()
        (r,) = drive(
            app,
            ("POST", "/v1/retime",
             self.retime_body([1, 2, 4, 8, 16, 32, 64, 128])),
        )
        elapsed = time.monotonic() - started
        assert r.status == 200
        payload = json.loads(r.body)
        assert payload["dispatches"] == 1
        assert calls == [8], "the whole stack must go through one dispatch"
        assert len(payload["results"]) == 8
        assert emulation_count() - emu_before <= 1, (
            "re-timing shares one trace; it must never re-emulate per "
            "variant"
        )
        assert elapsed < 1.0
        ways = [row["way"] for row in payload["results"]]
        assert ways == [1, 2, 4, 8, 16, 32, 64, 128]
        for row in payload["results"]:
            assert row["result"]["cycles"] > 0
            assert row["key"]

    def test_results_are_persisted_under_point_keys(self, warm_store):
        app = app_for(warm_store)
        (r,) = drive(app, ("POST", "/v1/retime", self.retime_body([4, 8])))
        keys = [row["key"] for row in json.loads(r.body)["results"]]
        assert warm_store.missing(keys) == []

    def test_repeat_request_hits_payload_cache(self, warm_store):
        app = app_for(warm_store)
        first, second = drive(
            app,
            ("POST", "/v1/retime", self.retime_body([2, 4])),
            ("POST", "/v1/retime", self.retime_body([2, 4])),
        )
        assert first.source == "compute"
        assert second.source == "cache"
        assert first.body == second.body

    #: Three variants; the first two name one point (the baseline
    #: machine spelt out), the third is an ablation.
    CROSS_MACHINE = json.dumps({
        "kernel": "addblock", "version": "mmx64",
        "variants": [
            {"way": 2}, {"way": 2, "machine": "mmx64"},
            {"way": 2, "core": {"rob_size": 32}},
        ],
    }).encode()

    def test_variants_may_cross_machines(self, warm_store):
        (r,) = drive(
            app_for(warm_store), ("POST", "/v1/retime", self.CROSS_MACHINE)
        )
        assert r.status == 200
        keys = [row["key"] for row in json.loads(r.body)["results"]]
        # Content addressing: naming the baseline machine explicitly
        # resolves to the same configuration, hence the same address;
        # an ablation override is a genuinely different configuration.
        assert keys[0] == keys[1]
        assert keys[2] != keys[0], "ablations must produce distinct addresses"

    def test_identical_variants_are_timed_once(self, warm_store, monkeypatch):
        from repro.sweep import engine

        calls = []
        real = engine.simulate_trace_stack

        def counting(cols, configs):
            calls.append(len(configs))
            return real(cols, configs)

        monkeypatch.setattr(engine, "simulate_trace_stack", counting)
        (r,) = drive(
            app_for(warm_store), ("POST", "/v1/retime", self.CROSS_MACHINE)
        )
        assert r.status == 200
        assert calls == [2], "one dispatch, each distinct configuration once"
        rows = json.loads(r.body)["results"]
        assert len(rows) == 3
        assert rows[0]["result"] == rows[1]["result"]

    def test_missing_trace_202s_with_trace_backfill(self, store):
        app = app_for(store)

        async def go():
            cold = await app.handle_request(
                "POST", "/v1/retime", self.retime_body([2, 4])
            )
            assert cold.status == 202
            body = json.loads(cold.body)
            state, _ = await poll_job(app, body["job"])
            assert state == "done"
            warm = await app.handle_request(
                "POST", "/v1/retime", self.retime_body([2, 4])
            )
            await app.shutdown(drain_timeout=60.0)
            return warm

        warm = asyncio.run(go())
        assert warm.status == 200
        assert len(json.loads(warm.body)["results"]) == 2

    def test_backfilled_trace_is_retimed_from_memory(self, store):
        """The backfill leaves its trace in the process memo, so the
        re-issued retime decodes nothing."""
        app = app_for(store)

        async def go():
            cold = await app.handle_request(
                "POST", "/v1/retime", self.retime_body([2])
            )
            assert cold.status == 202
            state, _ = await poll_job(app, json.loads(cold.body)["job"])
            assert state == "done"
            warm = await app.handle_request(
                "POST", "/v1/retime", self.retime_body([2])
            )
            assert warm.status == 200
            metrics = await app.handle_request("GET", "/metrics")
            await app.shutdown(drain_timeout=60.0)
            return json.loads(metrics.body)

        counters = asyncio.run(go())["counters"]
        assert counters["trace_cache_misses"] == 1
        assert counters["trace_cache_hits"] == 1

    @pytest.mark.parametrize("body, fragment", [
        (b"not json", "not valid JSON"),
        (b"[]", "JSON object"),
        (json.dumps({"kernel": "nope", "version": "x",
                     "variants": [{"way": 2}]}).encode(), "unknown kernel"),
        (json.dumps({"kernel": "addblock",
                     "variants": [{"way": 2}]}).encode(), "version"),
        (json.dumps({"kernel": "addblock", "version": "mmx64",
                     "variants": []}).encode(), "variants"),
        (json.dumps({"kernel": "addblock", "version": "mmx64",
                     "variants": [{"way": 0}]}).encode(), "way"),
        (json.dumps({"kernel": "addblock", "version": "mmx64",
                     "variants": [{"way": 2, "machine": "nope"}]}).encode(),
         "unknown machine"),
    ])
    def test_bad_retime_requests_400(self, store, body, fragment):
        (r,) = drive(app_for(store), ("POST", "/v1/retime", body))
        assert r.status == 400
        assert fragment in json.loads(r.body)["error"]

    def test_untimeable_override_is_400_and_server_lives(self, warm_store):
        """A zero ROB is refused when the variant is keyed, before any
        timing, and the next request is served as usual."""
        bad = json.dumps({
            "kernel": "addblock", "version": "mmx64",
            "variants": [{"way": 2, "core": {"rob_size": 0}}],
        }).encode()
        refused, served = drive(
            app_for(warm_store),
            ("POST", "/v1/retime", bad),
            ("POST", "/v1/retime", self.retime_body([2, 4])),
        )
        assert refused.status == 400
        assert "rob_size" in json.loads(refused.body)["error"]
        assert served.status == 200
        assert len(json.loads(served.body)["results"]) == 2

    def test_variant_cap_enforced(self, store):
        body = self.retime_body(range(1, 1030))
        (r,) = drive(app_for(store), ("POST", "/v1/retime", body))
        assert r.status == 400
        assert "1024" in json.loads(r.body)["error"]


class TestVlAxis:
    """The runtime-VL axis through the point and retime endpoints."""

    def test_point_vl_against_fixed_width_is_400_naming_axis(self, store):
        (r,) = drive(app_for(store), (
            "GET", "/v1/point?kernel=addblock&version=mmx64&way=2&vl=8",
        ))
        assert r.status == 400
        error = json.loads(r.body)["error"]
        assert "vl" in error and "mmx64" in error

    def test_point_vl_against_machine_alias_is_400(self, store):
        (r,) = drive(app_for(store), (
            "GET", "/v1/point?kernel=addblock&machine=mmx256&way=2&vl=8",
        ))
        assert r.status == 400
        assert "vl" in json.loads(r.body)["error"]

    def test_point_vl_must_be_integer(self, store):
        (r,) = drive(app_for(store), (
            "GET", "/v1/point?kernel=addblock&version=vla&way=2&vl=wide",
        ))
        assert r.status == 400
        assert "integer" in json.loads(r.body)["error"]

    def test_vla_point_embeds_vl_in_content_address(self, store):
        vl8 = SweepPoint(kernel="addblock", version="vla", way=2, vl=8)
        vl16 = SweepPoint(kernel="addblock", version="vla", way=2, vl=16)
        assert point_key(vl8) != point_key(vl16)
        run_point(vl8, store=store)
        (r,) = drive(app_for(store), (
            "GET", "/v1/point?kernel=addblock&version=vla&way=2&vl=8",
        ))
        assert r.status == 200
        payload = json.loads(r.body)
        assert payload["point"]["vl"] == 8
        assert payload["key"] == point_key(vl8)
        assert payload["timing"]["vl"] == 8

    def test_vla_point_defaults_vl_to_geometry_max(self, store):
        vl16 = SweepPoint(kernel="addblock", version="vla", way=2)
        run_point(vl16, store=store)
        (r,) = drive(app_for(store), (
            "GET", "/v1/point?kernel=addblock&version=vla&way=2",
        ))
        assert r.status == 200
        payload = json.loads(r.body)
        assert payload["point"]["vl"] == 16
        assert payload["key"] == point_key(vl16)

    def test_retime_vl_against_fixed_width_is_400_naming_axis(self, store):
        body = json.dumps({
            "kernel": "addblock", "version": "mmx64", "vl": 8,
            "variants": [{"way": 2}],
        }).encode()
        (r,) = drive(app_for(store), ("POST", "/v1/retime", body))
        assert r.status == 400
        assert "vl" in json.loads(r.body)["error"]

    def test_retime_vla_stack_carries_vl(self, store):
        run_point(SweepPoint(kernel="addblock", version="vla", way=2, vl=8),
                  store=store)
        body = json.dumps({
            "kernel": "addblock", "version": "vla", "vl": 8,
            "variants": [{"way": 2}, {"way": 4}],
        }).encode()
        (r,) = drive(app_for(store), ("POST", "/v1/retime", body))
        assert r.status == 200
        payload = json.loads(r.body)
        assert payload["vl"] == 8
        keys = [row["key"] for row in payload["results"]]
        assert keys[0] == point_key(
            SweepPoint(kernel="addblock", version="vla", way=2, vl=8)
        )
        assert store.missing(keys) == []

    def test_retime_different_vl_is_a_different_trace(self, store):
        run_point(SweepPoint(kernel="addblock", version="vla", way=2, vl=8),
                  store=store)
        run_point(SweepPoint(kernel="addblock", version="vla", way=2, vl=16),
                  store=store)
        bodies = [
            json.dumps({
                "kernel": "addblock", "version": "vla", "vl": vl,
                "variants": [{"way": 2}],
            }).encode()
            for vl in (8, 16)
        ]
        r8, r16 = drive(
            app_for(store),
            ("POST", "/v1/retime", bodies[0]),
            ("POST", "/v1/retime", bodies[1]),
        )
        assert r8.status == 200 and r16.status == 200
        assert (json.loads(r8.body)["trace_key"]
                != json.loads(r16.body)["trace_key"])


class TestShutdown:
    def test_shutdown_drains_inflight_backfills(self, store):
        """A restart must never half-lose a store write."""
        app = app_for(store)
        key = point_key(SweepPoint(kernel="addblock", version="mmx64", way=2))

        async def go():
            cold = await app.handle_request(
                "GET", "/v1/point?kernel=addblock&version=mmx64&way=2"
            )
            assert cold.status == 202
            # No polling: shutdown itself must wait for the write.
            await app.shutdown(drain_timeout=120.0)

        asyncio.run(go())
        assert store.missing([key]) == [], (
            "graceful shutdown returned before the backfill landed"
        )

    def test_shutdown_is_idempotent(self, store):
        app = app_for(store)

        async def go():
            await app.handle_request("GET", "/healthz")
            await app.shutdown()
            await app.shutdown()

        asyncio.run(go())
