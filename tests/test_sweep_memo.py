"""A sweep answers the timings this process already holds, unkeyed.

:func:`~repro.sweep.engine.sweep` answers every override-free point
whose timing the in-process memo holds for the sweep's store before it
keys anything, so a warm pass over the twelve artefacts -- whose grids
share one set of kernel-timing records -- keys and reads each record
once.  These tests pin that count and the contract around it: a
sharded sweep still keys and reads every point; overridden points and
other stores' entries are never answered from the memo; a record
damaged after this process read it is recomputed once the memo is
cleared; and a re-registered machine's points are keyed again.
"""

import dataclasses
import importlib.util
import pathlib

import pytest

from repro.experiments import ARTIFACT_DATA, artifact_json
from repro.experiments.artifacts import ARTIFACT_POINTS
from repro.machines import (
    MachineFamily,
    SimdGeometry,
    register_machine,
    unregister_machine,
)
from repro.machines.registry import MMX_CORE_SCALING, PAPER_MEM_SCALING
from repro.sweep import (
    ResultStore,
    SweepPoint,
    clear_memory_caches,
    dedupe,
    emulation_count,
    engine,
    grid,
    simulation_count,
    sweep,
)
from repro.sweep.store import memo_key, memoise
from store_faults import damage, drop

GRID = grid(("comp",), ("mmx64", "vmmx64"), (2, 4))


@pytest.fixture(autouse=True)
def cold_memo(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "default-store"))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    clear_memory_caches()
    yield
    clear_memory_caches()


@pytest.fixture
def counted():
    """Counts of ``point_key`` calls and store reads; zero them to start.

    Counted as ``benchmarks/bench_model_speed.py`` counts its warm
    paper pass.
    """
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_model_speed.py"
    spec = importlib.util.spec_from_file_location("bench_model_speed", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    with bench.key_and_read_counts() as counts:
        yield counts


def test_warm_paper_pass_keys_and_reads_each_record_once(
    tmp_path, monkeypatch, counted
):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "paper"))
    distinct = dedupe(p for build in ARTIFACT_POINTS.values() for p in build())
    sims, emus = simulation_count(), emulation_count()
    cold = {name: artifact_json(name) for name in ARTIFACT_DATA}
    assert len(cold) == 12
    assert simulation_count() - sims == len(distinct) == 363
    assert emulation_count() - emus == 44

    clear_memory_caches()
    counted.update(keys=0, reads=0)
    sims, emus = simulation_count(), emulation_count()
    warm = {name: artifact_json(name) for name in ARTIFACT_DATA}
    assert counted["keys"] == len(distinct)
    # 363 kernel timings, 20 scalar-IPC mixes and 6 app profiles.
    assert counted["reads"] == 389
    assert (simulation_count(), emulation_count()) == (sims, emus)
    assert warm == cold


def test_held_points_are_neither_keyed_nor_read(tmp_path, counted):
    store = ResultStore(tmp_path)
    sweep(GRID, store=store)
    counted.update(keys=0, reads=0)
    report = sweep(GRID, store=store)
    assert counted == {"keys": 0, "reads": 0}
    assert report.cached == len(GRID)
    assert set(report.sources) == {"store"}


def test_sharded_sweep_keys_and_reads_every_point(tmp_path, counted):
    """A campaign shard's store is its ground truth: with every timing
    held, a sharded sweep still reads each point, so it recomputes a
    record removed after this process read it."""
    store = ResultStore(tmp_path)
    sweep(GRID, store=store)
    keys = [engine.point_key(p) for p in GRID]
    drop(store, keys[0])
    counted.update(keys=0, reads=0)
    report = sweep(GRID, store=store, shard=(0, 1))
    assert counted == {"keys": len(GRID), "reads": len(GRID)}
    assert (report.cached, report.simulated) == (len(GRID) - 1, 1)
    assert store.missing(keys) == []


def test_overridden_points_are_never_answered_from_the_memo(tmp_path, counted):
    store = ResultStore(tmp_path)
    ablated = [
        SweepPoint("comp", "vmmx64", 2, core_overrides={"lanes": 4}),
        SweepPoint("comp", "vmmx64", 2, core_overrides={"lanes": 4.0}),
        SweepPoint("comp", "vmmx64", 2, mem_overrides={"main_latency": 400}),
    ]
    # Swept one at a time: ``lanes=4`` and ``lanes=4.0`` are equal points.
    first = [sweep([point], store=store)[point] for point in ablated]
    for point in ablated:
        memoise(memo_key(store, "kernel-timing", point), "held")
    counted.update(keys=0, reads=0)
    again = [sweep([point], store=store)[point] for point in ablated]
    assert counted == {"keys": len(ablated), "reads": len(ablated)}
    assert again == first


def test_a_memo_entry_answers_only_its_own_store(tmp_path):
    sweep(GRID, store=ResultStore(tmp_path / "a"))
    other = ResultStore(tmp_path / "b")
    report = sweep(GRID, store=other)
    assert report.simulated == len(GRID)
    assert other.missing([engine.point_key(p) for p in GRID]) == []
    assert sweep(GRID, store=other).simulated == 0


def test_a_damaged_record_keeps_its_answer_until_the_memo_is_cleared(tmp_path):
    store = ResultStore(tmp_path)
    sweep(GRID, store=store)
    damage(store, engine.point_key(GRID[0]), "garbage")
    assert sweep(GRID, store=store).simulated == 0
    clear_memory_caches()
    assert sweep(GRID, store=store).simulated == 1
    assert sweep(GRID, store=store).simulated == 0
    clear_memory_caches()
    assert sweep(GRID, store=store).simulated == 0
    assert store.verify().ok


def _family(**core):
    return MachineFamily(
        name="mmx64-memo-test",
        program="mmx64",
        geometry=SimdGeometry(8, 1, 1, 32, False),
        core_scaling=dataclasses.replace(MMX_CORE_SCALING, **core),
        mem_scaling=PAPER_MEM_SCALING,
        ways=(2,),
    )


@pytest.mark.parametrize("key_a_neighbour", [False, True])
def test_a_reregistered_machine_is_keyed_again(tmp_path, key_a_neighbour):
    """Held timings were made on the old machine; the new one re-keys.

    Keying another point on the new machine first must not let the held
    one through either.
    """
    store = ResultStore(tmp_path)
    point = SweepPoint("comp", "mmx64", 2, machine="mmx64-memo-test")
    register_machine(_family())
    try:
        assert sweep([point], store=store).simulated == 1
        register_machine(_family(branch_penalty=9), replace=True)
        if key_a_neighbour:
            engine.point_key(dataclasses.replace(point, kernel="addblock"))
        again = sweep([point], store=store)
    finally:
        unregister_machine("mmx64-memo-test")
    assert again.simulated == 1
