"""The sweep engine is a pure execution substrate: same numbers, any path.

Pins the properties the refactor relies on:

* ``jobs=4`` produces byte-identical records to ``jobs=1``;
* both match the pre-existing serial ``simulate_kernel`` path;
* a warm store answers without re-simulating (simulation-count hook);
* the bounded in-process memo may evict freely without changing results;
* distinct seeds produce distinct records (no silent collision).
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
from repro.sweep.store import (
    MEMO,
    MEMO_ENTRY_BYTES,
    canonical_json,
    kernel_timing_to_dict,
)
from repro.timing import simulator

#: A small but representative grid: two kernels, a 1-D and a 2-D ISA.
GRID = grid(("ycc", "addblock"), ("mmx64", "vmmx128"), (2, 4))


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
                key: store.path_for(key).read_bytes() for key in store.iter_keys()
            }
            clear_memory_caches()
        assert stores["serial"] == stores["parallel"]

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
        monkeypatch.setattr(MEMO, "max_bytes", 2 * MEMO_ENTRY_BYTES)
        clear_memory_caches()
        for point in GRID:
            timing = simulator.simulate_kernel(
                point.kernel, point.version, point.way
            )
            assert kernel_timing_to_dict(timing) == reference[point]
            assert len(MEMO) <= 2
        # Revisit the first (long-evicted) point: still identical.
        first = GRID[0]
        timing = simulator.simulate_kernel(
            first.kernel, first.version, first.way
        )
        assert kernel_timing_to_dict(timing) == reference[first]

    def test_memo_respects_bound(self, isolated_store, monkeypatch):
        monkeypatch.setattr(MEMO, "max_bytes", 3 * MEMO_ENTRY_BYTES)
        clear_memory_caches()
        for point in GRID:
            simulator.simulate_kernel(point.kernel, point.version, point.way)
        assert len(MEMO) <= 3


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
