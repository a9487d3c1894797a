"""The sweep engine is a pure execution substrate: same numbers, any path.

Pins the properties the refactor relies on:

* ``jobs=4`` produces byte-identical records to ``jobs=1``;
* both match the pre-existing serial ``simulate_kernel`` path;
* a warm store answers without re-simulating (simulation-count hook);
* the bounded in-process memo may evict freely without changing results,
  and its trace and record budgets never evict each other's entries;
* distinct seeds produce distinct records (no silent collision);
* a sweep times each distinct (trace content, configuration) once and
  encodes each distinct trace once, with records byte-identical to a
  per-point pass.
"""

import os
import subprocess
import sys

import pytest

from repro.sweep import (
    ResultStore,
    SweepPoint,
    clear_memory_caches,
    grid,
    point_key,
    simulation_count,
    sweep,
)
from repro.sweep import engine
from repro.sweep.store import (
    MEMO,
    MEMO_ENTRY_BYTES,
    MemoCache,
    canonical_json,
    kernel_timing_to_dict,
    memo_key,
    save_payload,
)
from repro.timing import simulator
from store_faults import record_bytes

#: A small but representative grid: two kernels, a 1-D and a 2-D ISA.
GRID = grid(("ycc", "addblock"), ("mmx64", "vmmx128"), (2, 4))

#: Four seeds of a kernel whose trace ignores its input data (ycc) and
#: of one whose control flow depends on it (ltppar).
SEEDS = (0, 1, 2, 3)
BUCKET_WAYS = (2, 4)
BUCKET_GRID = grid(("ycc", "ltppar"), ("mmx64", "vmmx128"), BUCKET_WAYS, SEEDS)

#: The bucket grid again under a set of lanes overrides.
ABLATION_GRID = BUCKET_GRID + [
    point
    for lanes in (1, 2, 8)
    for point in grid(("ycc", "ltppar"), ("mmx64", "vmmx128"), BUCKET_WAYS,
                      SEEDS, core_overrides={"lanes": lanes})
]


@pytest.fixture()
def isolated_store(tmp_path, monkeypatch):
    """Fresh store + cold in-process caches for every test."""
    store_dir = tmp_path / "store"
    monkeypatch.setenv("REPRO_STORE", str(store_dir))
    clear_memory_caches()
    yield store_dir
    clear_memory_caches()


def _record_bytes(report):
    """Canonical serialised form of every result, in point order."""
    return [
        canonical_json(kernel_timing_to_dict(report[point]))
        for point in report.points
    ]


class TestJobsParity:
    def test_parallel_matches_serial_byte_identical(self, tmp_path, isolated_store):
        serial = sweep(GRID, jobs=1, store=ResultStore(tmp_path / "serial"))
        clear_memory_caches()
        parallel = sweep(GRID, jobs=4, store=ResultStore(tmp_path / "parallel"))
        assert _record_bytes(serial) == _record_bytes(parallel)

    def test_parallel_store_files_byte_identical(self, tmp_path, isolated_store):
        stores = {}
        for name, jobs in (("serial", 1), ("parallel", 4)):
            store = ResultStore(tmp_path / name)
            sweep(GRID, jobs=jobs, store=store)
            stores[name] = {
                key: record_bytes(store, key) for key in store.iter_keys()
            }
            clear_memory_caches()
        assert stores["serial"] == stores["parallel"]

    def test_pool_emulates_each_trace_once(self, tmp_path, isolated_store):
        """Workers get whole trace groups, so no trace is made twice."""
        from repro.sweep import fig5_points

        report = sweep(fig5_points(), jobs=2, store=ResultStore(tmp_path / "s"))
        assert report.emulated == 44  # 11 kernels x 4 programs

    def test_pool_reports_the_serial_work(self, tmp_path, isolated_store):
        """A pooled multi-seed sweep makes the serial sweep's traces and
        distinct timings -- no content bucket split across workers."""
        points = grid(("ycc", "addblock", "ltppar"), ("mmx64", "vmmx128"),
                      (2, 4), (0, 1))
        serial = sweep(points, jobs=1, store=ResultStore(tmp_path / "serial"))
        clear_memory_caches()
        pooled = sweep(points, jobs=2, store=ResultStore(tmp_path / "pooled"))
        assert (serial.distinct_timings, serial.emulated) == (16, 12)
        assert (pooled.distinct_timings, pooled.emulated) == (16, 12)
        assert _record_bytes(serial) == _record_bytes(pooled)

    def test_engine_matches_simulate_kernel_path(self, isolated_store, monkeypatch):
        report = sweep(GRID, jobs=2)
        # The pre-existing serial path, with every cache defeated.
        monkeypatch.setenv("REPRO_STORE", "off")
        clear_memory_caches()
        for point in report.points:
            direct = simulator.simulate_kernel(
                point.kernel, point.version, point.way, point.seed
            )
            assert kernel_timing_to_dict(direct) == kernel_timing_to_dict(
                report[point]
            )


class TestWarmStore:
    def test_warm_sweep_performs_zero_simulations(self, isolated_store):
        cold = sweep(GRID)
        assert cold.simulated == len(GRID) and cold.cached == 0
        clear_memory_caches()
        before = simulation_count()
        warm = sweep(GRID)
        assert warm.simulated == 0 and warm.cached == len(GRID)
        assert simulation_count() == before
        assert _record_bytes(cold) == _record_bytes(warm)

    def test_warm_simulate_kernel_hits_store(self, isolated_store):
        sweep(GRID)
        clear_memory_caches()
        before = simulation_count()
        timing = simulator.simulate_kernel("ycc", "vmmx128", 2)
        assert timing.result.cycles > 0
        assert simulation_count() == before

    def test_sweep_publishes_into_memo(self, isolated_store):
        sweep(GRID)
        # No store lookup, no simulation: the memo already has it.
        before = simulation_count()
        simulator.simulate_kernel("addblock", "mmx64", 4)
        assert simulation_count() == before
        assert len(MEMO) >= len(GRID)


class TestBoundedMemo:
    def test_eviction_does_not_change_results(self, isolated_store, monkeypatch):
        reference = {
            point: kernel_timing_to_dict(
                simulator.simulate_kernel(point.kernel, point.version, point.way)
            )
            for point in GRID
        }
        monkeypatch.setattr(MEMO.records, "max_bytes", 2 * MEMO_ENTRY_BYTES)
        clear_memory_caches()
        for point in GRID:
            timing = simulator.simulate_kernel(
                point.kernel, point.version, point.way
            )
            assert kernel_timing_to_dict(timing) == reference[point]
            assert len(MEMO.records) <= 2
        # Revisit the first (long-evicted) point: still identical.
        first = GRID[0]
        timing = simulator.simulate_kernel(
            first.kernel, first.version, first.way
        )
        assert kernel_timing_to_dict(timing) == reference[first]

    def test_memo_respects_bound(self, isolated_store, monkeypatch):
        monkeypatch.setattr(MEMO.records, "max_bytes", 3 * MEMO_ENTRY_BYTES)
        clear_memory_caches()
        for point in GRID:
            simulator.simulate_kernel(point.kernel, point.version, point.way)
        assert len(MEMO.records) <= 3
        assert MEMO.records.bytes <= MEMO.records.max_bytes

    def test_filling_the_trace_budget_evicts_no_record(self):
        memo = MemoCache(record_bytes=4 * MEMO_ENTRY_BYTES, trace_bytes=100)
        records = [memo_key(None, "kernel-timing", i) for i in range(4)]
        for key in records:
            assert memo.put(key, "timing", MEMO_ENTRY_BYTES)
        for seed in range(10):
            assert memo.put(memo_key(None, "trace", ("ycc", "mmx64", seed)), seed, 40)
        assert all(memo.get(key) == "timing" for key in records)
        assert len(memo.traces) == 2 and memo.traces.evictions == 8
        assert memo.records.evictions == 0
        stats = memo.stats()
        assert stats["entries"] == 6 and stats["evictions"] == 8
        assert stats["bytes"] == 4 * MEMO_ENTRY_BYTES + 80
        assert stats["max_bytes"] == 4 * MEMO_ENTRY_BYTES + 100

    def test_a_trace_larger_than_its_budget_is_refused(self):
        memo = MemoCache(record_bytes=4 * MEMO_ENTRY_BYTES, trace_bytes=100)
        timing = memo_key(None, "kernel-timing", 0)
        trace = memo_key(None, "trace", ("ycc", "mmx64", 0))
        memo.put(timing, "timing", MEMO_ENTRY_BYTES)
        assert not memo.put(trace, "columns", 101)
        assert trace not in memo and memo.get(timing) == "timing"
        assert memo.stats()["rejected"] == 1
        assert memo.traces.bytes == 0


class TestSeedSeparation:
    def test_distinct_seeds_are_distinct_records(self, isolated_store):
        a = simulator.simulate_kernel("ycc", "mmx64", 2, seed=0)
        b = simulator.simulate_kernel("ycc", "mmx64", 2, seed=1)
        assert a.seed == 0 and b.seed == 1
        key0 = point_key(SweepPoint("ycc", "mmx64", 2, seed=0))
        key1 = point_key(SweepPoint("ycc", "mmx64", 2, seed=1))
        assert key0 != key1
        store = ResultStore(isolated_store)
        assert key0 in store and key1 in store


class TestCli:
    def _run(self, store_dir, *extra):
        env = dict(os.environ)
        env["REPRO_STORE"] = str(store_dir)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", "sweep",
             "--kernels", "ycc", "--isas", "mmx64,vmmx128", "--ways", "2",
             "--quiet", *extra],
            capture_output=True, text=True, env=env, check=True,
        ).stdout

    def test_cli_warm_run_simulates_nothing(self, tmp_path):
        store_dir = tmp_path / "cli-store"
        cold = self._run(store_dir)
        assert "2 simulated" in cold
        warm = self._run(store_dir)
        assert "0 simulated" in warm and "2 from store" in warm

    def test_cli_parallel_jobs_flag(self, tmp_path):
        out = self._run(tmp_path / "cli-par", "--jobs", "2")
        assert "2 simulated" in out

    def test_cli_grid_conflicts_with_axis_flags(self, capsys):
        from repro.__main__ import main

        assert main(["sweep", "--grid", "fig4", "--seeds", "0,1"]) == 1
        out = capsys.readouterr().out
        assert "--grid fig4 defines its own axes" in out and "--seeds" in out


@pytest.fixture(scope="module")
def distinct_traces():
    """Distinct per-seed trace digests of each (kernel, version), by execute."""
    from repro.kernels.base import execute
    from repro.kernels.registry import KERNELS

    return {
        (kernel, version): {
            execute(KERNELS[kernel], version, seed=seed).trace.columns().digest()
            for seed in SEEDS
        }
        for kernel, version in sorted({(p.kernel, p.version) for p in BUCKET_GRID})
    }


@pytest.fixture()
def encodes(monkeypatch):
    """Every trace the engine encodes, in call order."""
    calls = []
    real = engine.trace_to_payload

    def counting(cols):
        calls.append(cols)
        return real(cols)

    monkeypatch.setattr(engine, "trace_to_payload", counting)
    return calls


def _store_bytes(store):
    return {key: record_bytes(store, key) for key in store.iter_keys()}


def _timed_alone(point, store):
    """One point timed by itself: its own trace, its own configuration,
    one simulate_trace call -- the per-point reference the engine's
    grouped path must reproduce."""
    from repro.kernels.registry import KERNELS

    cols = engine.acquire_trace(point, store)
    config, mem = engine.resolve_configs(point)
    return simulator.KernelTiming(
        kernel=point.kernel,
        version=point.version,
        way=point.way,
        result=simulator.simulate_trace(cols, config, mem),
        batch=KERNELS[point.kernel].batch,
        seed=point.seed,
        machine=point.machine,
        vl=point.vl,
    )


class TestContentBuckets:
    def test_cold_sweep_times_each_distinct_question_once(
        self, tmp_path, isolated_store, distinct_traces, encodes
    ):
        contents = sum(len(digests) for digests in distinct_traces.values())
        assert contents == 10  # ycc: one per version; ltppar: one per seed
        report = sweep(BUCKET_GRID, store=ResultStore(tmp_path / "cold"))
        assert report.simulated == len(BUCKET_GRID) == 32
        assert report.distinct_timings == contents * len(BUCKET_WAYS) == 20
        assert len(encodes) == contents
        assert report.emulated == len(distinct_traces) * len(SEEDS) == 16
        assert report.summary().startswith(
            "32 points: 32 simulated (20 distinct timings), 16 emulated, "
        )

    def test_storeless_sweep_buckets_by_computed_digest(
        self, isolated_store, distinct_traces, encodes
    ):
        report = sweep(BUCKET_GRID, store=None)
        contents = sum(len(digests) for digests in distinct_traces.values())
        assert report.distinct_timings == contents * len(BUCKET_WAYS)
        assert encodes == []

    def test_records_match_per_point_pass_and_pool(self, tmp_path, isolated_store):
        swept = ResultStore(tmp_path / "swept")
        report = sweep(ABLATION_GRID, store=swept)
        assert report.simulated == len(ABLATION_GRID)
        assert report.distinct_timings < len(ABLATION_GRID)

        clear_memory_caches()
        per_point = ResultStore(tmp_path / "per-point")
        for point in ABLATION_GRID:
            timing = _timed_alone(point, per_point)
            save_payload(per_point, "kernel-timing", point_key(point),
                         kernel_timing_to_dict(timing))

        clear_memory_caches()
        pooled = ResultStore(tmp_path / "pooled")
        assert sweep(ABLATION_GRID, jobs=2, store=pooled).simulated == len(
            ABLATION_GRID
        )

        kinds = {swept.load(key)["kind"] for key in swept.iter_keys()}
        assert kinds == {"kernel-timing", "trace"}
        assert _store_bytes(swept) == _store_bytes(per_point)
        assert _store_bytes(swept) == _store_bytes(pooled)

    def test_shared_trace_stored_under_every_seed_key(
        self, tmp_path, isolated_store, encodes
    ):
        store = ResultStore(tmp_path / "traces")
        points = grid(("ycc",), ("mmx64",), (2,), SEEDS)
        assert engine.acquire_traces(points, store) == len(SEEDS)
        assert len(encodes) == 1
        keys = {engine.trace_key(p) for p in points}
        assert len(keys) == len(SEEDS)
        payloads = {canonical_json(store.load(key)["payload"]) for key in keys}
        assert len(payloads) == 1

    def test_override_types_are_timed_apart(self, isolated_store, monkeypatch):
        # The reference model times lanes=4 and lanes=4.0 differently,
        # so equal dataclasses must not share a timing.
        monkeypatch.setenv("REPRO_TIMING_REFERENCE", "1")
        points = [
            SweepPoint("ycc", "vmmx128", 2, core_overrides={"lanes": lanes})
            for lanes in (4, 4.0)
        ]
        batched = engine.compute_points(points, store=None)
        single = [_timed_alone(p, None) for p in points]
        assert [canonical_json(kernel_timing_to_dict(t)) for t in batched] == [
            canonical_json(kernel_timing_to_dict(t)) for t in single
        ]
