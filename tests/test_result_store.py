"""Unit tests for the content-addressed result store.

Covers the properties the sweep engine's correctness rests on: stable
addressing across process restarts, invalidation when the configuration
fingerprint (or code version) changes, recovery from corrupted records,
safety under concurrent writers, and the maintenance verbs (merge, gc,
verify, export/import) the sharded-campaign workflow is built on.
"""

import concurrent.futures
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep import (
    ResultStore,
    SweepPoint,
    config_fingerprint,
    default_store,
    point_key,
    resolve_configs,
    run_point,
    simulation_count,
)
from repro.sweep.store import (
    canonical_json,
    code_version,
    payload_sha256,
    save_payload,
    stable_hash,
)
import dataclasses

from repro.machines import get_machine

POINT = SweepPoint("ycc", "mmx64", 2)


class TestStableAddressing:
    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_stable_hash_is_sha256_of_canonical_json(self):
        # Pinned literal: the scheme must never drift silently.
        assert stable_hash({"a": 1}) == (
            "015abd7f5cc57a2dd94b7590f04ad8084273905ee33ec5cebeae62276a97f862"
        )

    def test_key_stable_across_process_restarts(self):
        """A fresh interpreter (fresh PYTHONHASHSEED) derives the same key."""
        expected = point_key(POINT)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.sweep import SweepPoint, point_key;"
                "print(point_key(SweepPoint('ycc', 'mmx64', 2)))",
            ],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        assert out == expected

    def test_key_covers_every_axis(self):
        keys = {
            point_key(SweepPoint("ycc", "mmx64", 2)),
            point_key(SweepPoint("ycc", "mmx64", 2, seed=1)),
            point_key(SweepPoint("ycc", "mmx64", 4)),
            point_key(SweepPoint("ycc", "mmx128", 2)),
            point_key(SweepPoint("idct", "mmx64", 2)),
        }
        assert len(keys) == 5

    def test_override_spelling_is_canonical(self):
        """dict / tuple / ordering spellings address the same record."""
        a = SweepPoint("ycc", "mmx64", 2, core_overrides={"lanes": 2, "mem_ports": 1})
        b = SweepPoint(
            "ycc", "mmx64", 2,
            core_overrides=(("mem_ports", 1), ("lanes", 2)),
        )
        assert point_key(a) == point_key(b)


class TestInvalidation:
    def test_config_fingerprint_changes_key(self):
        base = point_key(POINT)
        ablated = point_key(
            SweepPoint("ycc", "mmx64", 2, core_overrides={"mem_ports": 4})
        )
        assert base != ablated

    def test_fingerprint_tracks_resolved_values(self):
        config, mem = resolve_configs(POINT)
        assert config_fingerprint(config, mem) != config_fingerprint(
            dataclasses.replace(config, rob_size=config.rob_size * 2), mem
        )

    def test_mem_fingerprint_tracks_nested_values(self):
        config = get_machine("vmmx128", 2).core
        mem = get_machine("vmmx128", 2).mem
        ablated, mem2 = resolve_configs(
            SweepPoint("ycc", "vmmx128", 2, mem_overrides={"l2.port_bytes": 8})
        )
        assert mem2.l2.port_bytes == 8
        assert config_fingerprint(config, mem) != config_fingerprint(config, mem2)

    def test_key_depends_on_code_version(self, monkeypatch):
        before = point_key(POINT)
        monkeypatch.setattr(
            "repro.sweep.store.code_version", lambda: "deadbeef"
        )
        assert point_key(POINT) != before

    def test_code_version_is_cached_and_hex(self):
        assert code_version() == code_version()
        int(code_version(), 16)
        assert len(code_version()) == 64


class TestRecords:
    def test_save_load_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = stable_hash({"n": 1})
        store.save(key, {"kind": "test", "payload": {"cycles": 42}})
        record = store.load(key)
        assert record["payload"] == {"cycles": 42}
        assert record["key"] == key
        assert key in store and len(store) == 1

    def test_missing_record_is_none(self, tmp_path):
        assert ResultStore(tmp_path).load(stable_hash("nope")) is None

    def test_corrupted_record_recovers(self, tmp_path):
        store = ResultStore(tmp_path)
        key = stable_hash({"n": 2})
        store.save(key, {"kind": "test", "payload": {"cycles": 1}})
        store.path_for(key).write_text('{"kind": "test", "payl')  # torn write
        assert store.load(key) is None
        assert not store.path_for(key).exists()  # quarantined
        store.save(key, {"kind": "test", "payload": {"cycles": 2}})
        assert store.load(key)["payload"] == {"cycles": 2}

    def test_binary_corrupted_record_recovers(self, tmp_path):
        store = ResultStore(tmp_path)
        key = stable_hash({"n": 3})
        store.save(key, {"kind": "test", "payload": {"cycles": 1}})
        store.path_for(key).write_bytes(b"\xff\xfe\x00garbage\x80")  # not UTF-8
        assert store.load(key) is None
        assert not store.path_for(key).exists()
        store.save(key, {"kind": "test", "payload": {"cycles": 3}})
        assert store.load(key)["payload"] == {"cycles": 3}

    def test_record_under_wrong_key_is_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        key_a, key_b = stable_hash("a"), stable_hash("b")
        store.save(key_a, {"kind": "test", "payload": {}})
        store.path_for(key_b).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key_b).write_bytes(store.path_for(key_a).read_bytes())
        assert store.load(key_b) is None

    def test_run_point_recomputes_after_corruption(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        from repro.sweep import clear_memory_caches

        clear_memory_caches()
        store = ResultStore(tmp_path)
        key = point_key(POINT)
        first = run_point(POINT, store)
        store.path_for(key).write_text("garbage")
        before = simulation_count()
        second = run_point(POINT, store)
        assert simulation_count() == before + 1
        assert second.result.cycles == first.result.cycles
        assert store.load(key) is not None  # re-persisted

    def test_unwritable_store_does_not_fail(self, tmp_path):
        # A regular file where a directory is needed blocks every write
        # (even for root, unlike permission bits); persistence must
        # degrade to a no-op rather than raise.
        obstruction = tmp_path / "obstruction"
        obstruction.write_text("not a directory")
        store = ResultStore(obstruction / "store")
        store.save(stable_hash("x"), {"kind": "test", "payload": {}})
        assert store.load(stable_hash("x")) is None


class TestConcurrency:
    def test_concurrent_writers_same_key(self, tmp_path):
        store = ResultStore(tmp_path)
        key = stable_hash("contended")

        def writer(i):
            for _ in range(25):
                store.save(key, {"kind": "test", "payload": {"writer": i}})
                record = store.load(key)
                # Readers racing writers must only ever see a complete
                # record from *some* writer, never a torn one.
                assert record is None or record["payload"]["writer"] in range(8)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(writer, range(8)))
        final = store.load(key)
        assert final is not None and "writer" in final["payload"]
        # No stray temporary files left behind.
        leftovers = list(store.path_for(key).parent.glob("*.tmp"))
        assert leftovers == []

    def test_concurrent_writers_distinct_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [stable_hash(f"k{i}") for i in range(32)]

        def writer(key):
            store.save(key, {"kind": "test", "payload": {"key": key}})
            return store.load(key)["payload"]["key"]

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            assert sorted(pool.map(writer, keys)) == sorted(keys)
        assert len(store) == 32


class TestTraceRecords:
    """The ``trace`` record kind: cached columnar dynamic traces."""

    def test_trace_payload_roundtrip(self, tmp_path):
        from repro.kernels.base import execute
        from repro.kernels.registry import KERNELS
        from repro.sweep.store import trace_from_payload, trace_to_payload

        cols = execute(KERNELS["addblock"], "mmx64", seed=0).trace.columns()
        store = ResultStore(tmp_path)
        key = stable_hash("trace-roundtrip")
        store.save(key, {"kind": "trace", "payload": trace_to_payload(cols)})
        loaded = trace_from_payload(store.load(key)["payload"])
        assert loaded == cols
        assert loaded.digest() == cols.digest()

    def test_malformed_trace_payload_is_none(self):
        from repro.sweep.store import trace_from_payload

        assert trace_from_payload(None) is None
        assert trace_from_payload({"format": "something-else"}) is None
        assert trace_from_payload(
            {"format": "columnar-trace/1", "codec": "zlib+b64", "data": "!!!"}
        ) is None

    def test_digest_mismatch_is_rejected(self, tmp_path):
        from repro.kernels.base import execute
        from repro.kernels.registry import KERNELS
        from repro.sweep.store import trace_from_payload, trace_to_payload

        cols = execute(KERNELS["addblock"], "mmx64", seed=0).trace.columns()
        payload = trace_to_payload(cols)
        payload["digest"] = "0" * 64
        assert trace_from_payload(payload) is None

    def test_warm_trace_store_skips_emulation(self, tmp_path, monkeypatch):
        """Re-timing on new configurations reuses the stored trace."""
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        from repro.sweep import (
            clear_memory_caches,
            emulation_count,
            run_point,
            trace_key,
        )

        clear_memory_caches()
        store = ResultStore(tmp_path)
        before = emulation_count()
        run_point(SweepPoint("addblock", "mmx64", 2), store)
        assert emulation_count() == before + 1
        assert store.load(trace_key(SweepPoint("addblock", "mmx64", 2))) is not None
        # Same trace, different machine width and an ablation override:
        # three more timings, zero further emulations -- even with every
        # in-process cache dropped (the store alone carries the trace).
        clear_memory_caches()
        run_point(SweepPoint("addblock", "mmx64", 4), store)
        run_point(SweepPoint("addblock", "mmx64", 8), store)
        run_point(
            SweepPoint("addblock", "mmx64", 2, core_overrides={"mem_ports": 4}),
            store,
        )
        assert emulation_count() == before + 1
        clear_memory_caches()

    def test_explicit_store_carries_trace_records(self, tmp_path, monkeypatch):
        """run_point with an explicit store writes the trace *there*.

        Regression: compute_point used to consult the global default
        store for traces regardless of the store the caller passed, so
        explicit-store callers never got warm-trace reuse (and leaked
        trace records into the default store).
        """
        monkeypatch.setenv("REPRO_STORE", "off")
        from repro.sweep import clear_memory_caches, emulation_count, run_point, trace_key

        clear_memory_caches()
        store = ResultStore(tmp_path)
        point = SweepPoint("addblock", "mmx64", 2)
        run_point(point, store)
        assert store.load(trace_key(point)) is not None
        clear_memory_caches()
        before = emulation_count()
        run_point(SweepPoint("addblock", "mmx64", 8), store)
        assert emulation_count() == before  # trace reused from tmp store
        # A trace that is only memo-warm (persistence was off when it
        # was emulated) must still be backfilled into an explicit store.
        from repro.sweep import acquire_trace

        other = SweepPoint("addblock", "vmmx64", 2)
        acquire_trace(other)  # store off: lands in the memo only
        backfill = ResultStore(tmp_path / "backfill")
        run_point(other, backfill)
        assert backfill.load(trace_key(other)) is not None
        clear_memory_caches()

    def test_pooled_sweep_reports_emulations(self, tmp_path, monkeypatch):
        """emulation_count() stays truthful across a process pool."""
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        from repro.sweep import clear_memory_caches, emulation_count, sweep

        clear_memory_caches()
        points = [
            SweepPoint("addblock", "mmx64", way) for way in (2, 4, 8)
        ] + [SweepPoint("addblock", "vmmx64", way) for way in (2, 4, 8)]
        before = emulation_count()
        report = sweep(points, jobs=2)
        assert report.simulated == 6
        # At least one emulation per (kernel, version) happened in the
        # workers and was reported back (the counter used to stay at 0
        # for pooled sweeps); racing workers may duplicate a few.
        assert 2 <= emulation_count() - before <= 6
        clear_memory_caches()

    def test_trace_identical_from_store_and_emulation(self, tmp_path, monkeypatch):
        """acquire_trace returns bit-identical traces warm and cold."""
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        from repro.sweep import acquire_trace, clear_memory_caches

        clear_memory_caches()
        store = ResultStore(tmp_path)
        point = SweepPoint("addblock", "vmmx64", 2)
        cold = acquire_trace(point, store)
        clear_memory_caches()  # force the store path
        warm = acquire_trace(point, store)
        assert warm == cold
        assert warm.digest() == cold.digest()
        clear_memory_caches()

    def test_timing_identical_from_cached_trace(self, tmp_path, monkeypatch):
        """A result re-timed from a cached trace matches the cold result."""
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        from repro.sweep import clear_memory_caches, run_point, trace_key

        clear_memory_caches()
        store = ResultStore(tmp_path)
        point = SweepPoint("comp", "vmmx128", 4)
        cold = run_point(point, store)
        # Drop the timing record but keep the trace, then recompute.
        store.path_for(point_key(point)).unlink()
        clear_memory_caches()
        warm = run_point(point, store)
        assert warm.result == cold.result
        assert store.load(trace_key(point)) is not None
        clear_memory_caches()


class TestVlTraceKeyBackCompat:
    """Growing the ``vl`` trace-key axis must not cool existing stores.

    The rule under test: fixed-width identities never mention ``vl``, so
    every record key a pre-VL-axis store was written under is the key
    the grown engine derives today -- a legacy campaign store replays
    with zero emulations and zero simulations.
    """

    LEGACY = [
        SweepPoint("addblock", "mmx64", 2),
        SweepPoint("addblock", "mmx64", 4),
        SweepPoint("ycc", "vmmx128", 2),
        SweepPoint("ycc", "mmx128", 2),
    ]

    def test_legacy_store_stays_warm_across_the_axis_growth(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        from repro.sweep import clear_memory_caches, emulation_count, sweep

        clear_memory_caches()
        sweep(self.LEGACY)
        # A fresh process over the same store: nothing recomputes.
        clear_memory_caches()
        before = emulation_count()
        report = sweep(self.LEGACY)
        assert report.simulated == 0
        assert emulation_count() == before
        clear_memory_caches()

    def test_legacy_keys_match_handwritten_pre_vl_identity(self):
        """The exact pre-VL-axis identity dicts still address records."""
        from repro.machines import find_geometry
        from repro.sweep import trace_key
        from repro.sweep.store import record_key

        for point in self.LEGACY:
            geometry = find_geometry(point.version)
            identity = {
                "kernel": point.kernel,
                "version": point.version,
                "seed": point.seed,
            }
            if geometry is not None:
                identity["geometry"] = geometry.to_dict()
            assert trace_key(point) == record_key("trace", identity)

    def test_legacy_point_payloads_have_no_vl_field(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        from repro.sweep import clear_memory_caches, run_point
        from repro.sweep.store import kernel_timing_to_dict

        clear_memory_caches()
        store = ResultStore(tmp_path)
        timing = run_point(self.LEGACY[0], store)
        assert "vl" not in self.LEGACY[0].as_dict()
        assert "vl" not in kernel_timing_to_dict(timing)
        clear_memory_caches()

    def test_vla_records_roundtrip_with_vl(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        from repro.sweep import clear_memory_caches, emulation_count, run_point, trace_key
        from repro.sweep.store import kernel_timing_from_dict, kernel_timing_to_dict

        clear_memory_caches()
        store = ResultStore(tmp_path)
        point = SweepPoint("addblock", "vla", 2, vl=8)
        cold = run_point(point, store)
        assert cold.vl == 8
        payload = kernel_timing_to_dict(cold)
        assert payload["vl"] == 8
        assert kernel_timing_from_dict(payload) == cold
        # Warm replay straight from disk: the vl-keyed trace is found.
        clear_memory_caches()
        before = emulation_count()
        warm = run_point(point, store)
        assert warm == cold
        assert emulation_count() == before
        assert store.load(trace_key(point)) is not None
        clear_memory_caches()


class TestDefaultStore:
    def test_env_redirect(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "redirected"))
        store = default_store()
        assert str(store.root) == str(tmp_path / "redirected")

    @pytest.mark.parametrize("value", ["", "off", "none", "0", "  OFF  "])
    def test_disabled_values(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", value)
        assert default_store() is None

    def test_simulation_works_without_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        from repro.sweep import clear_memory_caches, sweep

        clear_memory_caches()
        report = sweep([POINT])
        assert report.store_root is None
        assert report[POINT].result.cycles > 0
        clear_memory_caches()


class TestStoreScopedMemo:
    """The in-process memo answers only for the store that filled it."""

    def test_switching_stores_fills_the_new_store(self, tmp_path, monkeypatch):
        """Regression: memo hits used to skip the second store's writes.

        Regenerating fig6 into store A and then, in the same process,
        into store B left B without its ``app-profile`` and
        ``scalar-ipc`` records, so a fresh process on B re-ran a codec
        and the scalar-trace simulations.
        """
        from repro.apps import appmodel, runner
        from repro.experiments import artifact_json
        from repro.sweep import clear_memory_caches

        clear_memory_caches()
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "a"))
        first = artifact_json("fig6")
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "b"))
        assert artifact_json("fig6") == first
        fresh = ResultStore(tmp_path / "a").stats()["by_kind"]
        assert ResultStore(tmp_path / "b").stats()["by_kind"] == fresh
        # jpegdec's codec run also stores its partner jpegenc's profile.
        assert fresh == {
            "app-profile": 2, "kernel-timing": 24, "scalar-ipc": 3, "trace": 8,
        }

        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            runner, "_compute_app_profile", counted(runner._compute_app_profile)
        )
        monkeypatch.setattr(
            appmodel, "make_scalar_trace", counted(appmodel.make_scalar_trace)
        )
        clear_memory_caches()
        before = simulation_count()
        assert artifact_json("fig6") == first
        assert calls == []
        assert simulation_count() == before
        clear_memory_caches()

    def test_codec_run_stores_both_profiles(self, tmp_path, monkeypatch):
        from repro.apps import run_app_profile, runner
        from repro.sweep import clear_memory_caches

        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        clear_memory_caches()
        encoder = run_app_profile("jpegenc")
        stored = ResultStore(tmp_path).load(runner._profile_key("jpegdec", 0))
        assert stored is not None
        assert stored["kind"] == "app-profile"

        def no_codec(*args, **kwargs):
            raise AssertionError("the codec ran again")

        monkeypatch.setattr(runner, "_compute_app_profile", no_codec)
        decoder = run_app_profile("jpegdec")
        assert runner.profile_to_dict(decoder) == stored["payload"]
        clear_memory_caches()
        assert run_app_profile("jpegdec") == decoder
        assert run_app_profile("jpegenc") == encoder
        clear_memory_caches()


# ---------------------------------------------------------------------------
# Store maintenance: merge / gc / verify / export+import.
# ---------------------------------------------------------------------------

#: Small pool of JSON-stable payloads.  Keys are derived from payload
#: content (exactly like the real store's content addressing), so two
#: stores can only ever hold the *same* payload under a shared key --
#: which is what makes merging order-independent in the first place.
_PAYLOADS = st.dictionaries(
    keys=st.sampled_from(["cycles", "instructions", "n", "tag"]),
    values=st.one_of(st.integers(-1000, 1000), st.text("abcxyz", max_size=6)),
    min_size=1,
    max_size=3,
)


def _fill(store, payloads):
    """save_payload every payload under its content-derived key."""
    keys = []
    for payload in payloads:
        key = stable_hash(payload)
        save_payload(store, "test", key, payload)
        keys.append(key)
    return keys


def _payload_map(store):
    return {key: store.load(key)["payload"] for key in store.iter_keys()}


class TestMergeProperties:
    @given(a=st.lists(_PAYLOADS, max_size=6), b=st.lists(_PAYLOADS, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_merge_is_order_independent(self, a, b):
        """merge(A,B) and merge(B,A) yield the same key->payload map."""
        with tempfile.TemporaryDirectory() as tmp:
            store_a, store_b = ResultStore(tmp + "/a"), ResultStore(tmp + "/b")
            _fill(store_a, a)
            _fill(store_b, b)
            ab, ba = ResultStore(tmp + "/ab"), ResultStore(tmp + "/ba")
            ab.merge(store_a), ab.merge(store_b)
            ba.merge(store_b), ba.merge(store_a)
            expected = {**_payload_map(store_a), **_payload_map(store_b)}
            assert _payload_map(ab) == _payload_map(ba) == expected

    @given(a=st.lists(_PAYLOADS, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_merge_is_idempotent(self, a):
        with tempfile.TemporaryDirectory() as tmp:
            source, dest = ResultStore(tmp + "/src"), ResultStore(tmp + "/dst")
            _fill(source, a)
            first = dest.merge(source)
            before = _payload_map(dest)
            again = dest.merge(source)
            assert _payload_map(dest) == before
            assert again.merged == 0
            assert again.identical == first.merged

    def test_merge_into_itself_is_an_error(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="itself"):
            store.merge(ResultStore(tmp_path))

    def test_merge_surfaces_conflicts_and_keeps_ours(self, tmp_path):
        """Same key, different payload: ours wins, conflict reported."""
        ours, theirs = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        key = stable_hash("contended")
        save_payload(ours, "test", key, {"cycles": 1})
        save_payload(theirs, "test", key, {"cycles": 2})
        stats = ours.merge(theirs)
        assert stats.conflicts == [key]
        assert ours.load(key)["payload"] == {"cycles": 1}

    def test_merge_skips_corrupt_source_records(self, tmp_path):
        source, dest = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        good = stable_hash("good")
        save_payload(source, "test", good, {"n": 1})
        bad = stable_hash("bad")
        save_payload(source, "test", bad, {"n": 2})
        source.path_for(bad).write_text("{torn")
        stats = dest.merge(source)
        assert stats.merged == 1 and stats.corrupt == 1
        assert dest.load(good) is not None and dest.load(bad) is None
        # The corrupt record stays in the *source*: merge reads, it
        # never quarantines someone else's store.
        assert source.path_for(bad).exists()

    def test_merged_records_are_byte_identical(self, tmp_path):
        """Merge copies record files verbatim, not re-serialised."""
        source, dest = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        key = stable_hash({"n": 9})
        save_payload(source, "test", key, {"n": 9})
        dest.merge(source)
        assert dest.path_for(key).read_bytes() == source.path_for(key).read_bytes()


class TestGcProperties:
    @given(current=st.lists(_PAYLOADS, max_size=5), stale=st.lists(_PAYLOADS, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_gc_never_removes_current_code_records(self, current, stale):
        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore(tmp)
            current_keys = set(_fill(store, current))
            stale_keys = set()
            for payload in stale:
                key = stable_hash(("stale", canonical_json(payload)))
                store.save(key, {"kind": "test", "code": "f" * 64, "payload": payload})
                stale_keys.add(key)
            stats = store.gc()
            for key in current_keys:
                assert key in store
            for key in stale_keys:
                assert key not in store
            assert stats.kept == len(current_keys)
            assert stats.removed == len(stale_keys)
            assert code_version() in stats.kept_code_versions

    def test_gc_keep_code_versions_spares_listed_digests(self, tmp_path):
        store = ResultStore(tmp_path)
        key = stable_hash("old-but-kept")
        store.save(key, {"kind": "test", "code": "a" * 64, "payload": {}})
        assert store.gc(keep_code_versions=["a" * 64]).removed == 0
        assert key in store
        assert store.gc().removed == 1
        assert key not in store

    def test_gc_keeps_unstamped_unless_told(self, tmp_path):
        store = ResultStore(tmp_path)
        key = stable_hash("pre-maintenance")
        store.save(key, {"kind": "test", "payload": {"n": 1}})
        assert store.gc().removed == 0 and key in store
        assert store.gc(drop_unstamped=True).removed == 1 and key not in store

    def test_gc_dry_run_removes_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        key = stable_hash("doomed")
        store.save(key, {"kind": "test", "code": "b" * 64, "payload": {}})
        stats = store.gc(dry_run=True)
        assert stats.removed == 1 and key in store

    def test_gc_sweeps_stray_tmp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        key = stable_hash("x")
        save_payload(store, "test", key, {"n": 1})
        stray = store.path_for(key).parent / ".deadbeef-123.tmp"
        stray.write_text("killed writer")
        stats = store.gc()
        assert stats.tmp_removed == 1 and not stray.exists()


class TestMaintenanceIsNonDestructive:
    """Inspection verbs must never delete the corruption they find.

    ``load`` quarantines corrupt records so the *simulation* path can
    recompute them, but gc/stats/export/merge only inspect -- they read
    through ``peek`` and leave the evidence for ``verify`` to report.
    """

    @pytest.fixture()
    def corrupted(self, tmp_path):
        store = ResultStore(tmp_path)
        good = _fill(store, [{"n": 1}])[0]
        bad = stable_hash("doomed")
        save_payload(store, "test", bad, {"n": 2})
        store.path_for(bad).write_text("{torn")
        return store, good, bad

    def test_peek_does_not_quarantine(self, corrupted):
        store, _, bad = corrupted
        assert store.peek(bad) is None
        assert store.path_for(bad).exists()
        assert store.load(bad) is None  # load *does* quarantine
        assert not store.path_for(bad).exists()

    def test_gc_dry_run_leaves_corrupt_records(self, corrupted):
        store, _, bad = corrupted
        store.gc(dry_run=True)
        assert store.path_for(bad).exists()

    def test_gc_leaves_corrupt_records(self, corrupted):
        store, _, bad = corrupted
        store.gc()
        assert store.path_for(bad).exists()

    def test_stats_counts_corrupt_without_deleting(self, corrupted):
        store, _, bad = corrupted
        stats = store.stats()
        assert stats["records"] == 1 and stats["corrupt"] == 1
        assert store.path_for(bad).exists()

    def test_export_skips_corrupt_without_deleting(self, corrupted, tmp_path):
        store, good, bad = corrupted
        assert store.export(tmp_path / "x.tar.gz") == 1
        assert store.path_for(bad).exists()
        fresh = ResultStore(tmp_path / "fresh")
        fresh.import_(tmp_path / "x.tar.gz")
        assert list(fresh.iter_keys()) == [good]


class TestVerify:
    def test_clean_store_verifies(self, tmp_path):
        store = ResultStore(tmp_path)
        _fill(store, [{"n": i} for i in range(4)])
        report = store.verify()
        assert report.ok and report.checked == 4

    def test_verify_detects_payload_tampering(self, tmp_path):
        """Bit-rot that still parses as JSON: only the hash catches it."""
        import json

        store = ResultStore(tmp_path)
        key = _fill(store, [{"cycles": 42}])[0]
        record = json.loads(store.path_for(key).read_text())
        record["payload"]["cycles"] = 43
        store.path_for(key).write_text(json.dumps(record))
        report = store.verify()
        assert not report.ok
        assert report.problems[0][0] == key
        assert "hash mismatch" in report.problems[0][1]

    def test_verify_detects_unreadable_records(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _fill(store, [{"n": 1}])[0]
        store.path_for(key).write_text("{torn")
        report = store.verify()
        assert [key for key, _ in report.problems] == [key]

    def test_verify_checks_trace_digests(self, tmp_path):
        from repro.kernels.base import execute
        from repro.kernels.registry import KERNELS
        from repro.sweep.store import trace_to_payload

        cols = execute(KERNELS["addblock"], "mmx64", seed=0).trace.columns()
        store = ResultStore(tmp_path)
        payload = trace_to_payload(cols)
        payload["digest"] = "0" * 64
        # Bypass save_payload so the outer hash matches the (bad) trace
        # payload: only the embedded trace digest can catch this.
        store.save(
            key := stable_hash("bad-trace"),
            {"kind": "trace", "payload_sha256": payload_sha256(payload),
             "payload": payload},
        )
        report = store.verify()
        assert not report.ok and report.problems[0][0] == key

    def test_payload_stamp_matches_canonical_json(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _fill(store, [{"b": 1, "a": 2}])[0]
        record = store.load(key)
        assert record["payload_sha256"] == payload_sha256({"a": 2, "b": 1})
        assert record["code"] == code_version()


class TestExportImport:
    @given(payloads=st.lists(_PAYLOADS, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_is_payload_exact(self, payloads):
        with tempfile.TemporaryDirectory() as tmp:
            source = ResultStore(tmp + "/src")
            _fill(source, payloads)
            count = source.export(tmp + "/x.tar.gz")
            assert count == len(_payload_map(source))
            fresh = ResultStore(tmp + "/fresh")
            stats = fresh.import_(tmp + "/x.tar.gz")
            assert stats.imported == count and not stats.conflicts
            assert _payload_map(fresh) == _payload_map(source)
            # Byte-exact too: records travel verbatim.
            for key in source.iter_keys():
                assert fresh.path_for(key).read_bytes() == source.path_for(
                    key
                ).read_bytes()

    def test_export_is_deterministic(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        _fill(store, [{"n": i} for i in range(5)])
        store.export(tmp_path / "a.tar.gz")
        store.export(tmp_path / "b.tar.gz")
        assert (tmp_path / "a.tar.gz").read_bytes() == (
            tmp_path / "b.tar.gz"
        ).read_bytes()

    def test_import_rejects_foreign_members(self, tmp_path):
        """Traversal attempts and non-record members never extract."""
        import io
        import tarfile

        archive = tmp_path / "hostile.tar.gz"
        with tarfile.open(archive, "w:gz") as tar:
            for name in ("../../escape.json", "records/zz/nothex.json", "README"):
                raw = b"{}"
                info = tarfile.TarInfo(name)
                info.size = len(raw)
                tar.addfile(info, io.BytesIO(raw))
        store = ResultStore(tmp_path / "s")
        stats = store.import_(archive)
        assert stats.imported == 0 and stats.rejected == 3
        assert list(store.iter_keys()) == []

    def test_import_rejects_key_mismatch(self, tmp_path):
        """A record lying about its key is rejected, not stored."""
        import io
        import json
        import tarfile

        key = stable_hash("claimed")
        raw = json.dumps({"kind": "test", "payload": {}, "key": "0" * 64}).encode()
        archive = tmp_path / "liar.tar.gz"
        with tarfile.open(archive, "w:gz") as tar:
            info = tarfile.TarInfo(f"records/{key[:2]}/{key}.json")
            info.size = len(raw)
            tar.addfile(info, io.BytesIO(raw))
        stats = ResultStore(tmp_path / "s").import_(archive)
        assert stats.rejected == 1 and stats.imported == 0

    def test_import_existing_identical_is_noop(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        _fill(store, [{"n": 1}])
        store.export(tmp_path / "x.tar.gz")
        stats = store.import_(tmp_path / "x.tar.gz")
        assert stats.imported == 0 and stats.identical == 1
