"""A sweep answers the timings this process already holds, unkeyed.

:func:`~repro.sweep.engine.sweep` answers every override-free point
whose timing the in-process memo holds for the sweep's store before it
keys anything, so a warm pass over the twelve artefacts -- whose grids
share one set of kernel-timing records -- keys and reads each record
once.  A cold pass does no work twice either: the traces fig4 emulates
stay in the memo's trace budget for every later artefact to re-time,
each kernel timing is keyed once, and each scalar mix's synthetic trace
is built once per composition that first prices it.  These tests pin
those counts and the contract around them: a sharded sweep still keys
and reads every point; overridden points and other stores' entries are
never answered from the memo; a record damaged after this process read
it is recomputed once the memo is cleared; a sweep without a store
answers the timings it holds too; and after any change to the machine
registry nothing memoised before answers -- a re-registered machine's
points are keyed again, by a sweep and by ``simulate_kernel``, and
scalar IPCs and compositions are made afresh.
"""

import dataclasses

import pytest

from repro.apps import app_timing, run_app_profile
from repro.apps.appmodel import scalar_ipc
from repro.experiments import ARTIFACT_DATA, artifact_json
from repro.experiments.artifacts import ARTIFACT_POINTS
from repro.machines import (
    MachineFamily,
    SimdGeometry,
    get_family,
    register_machine,
    unregister_machine,
)
from repro.machines.registry import MMX_CORE_SCALING, PAPER_MEM_SCALING
from repro.machines.scaling import ScalingCurve
from repro.sweep import (
    ResultStore,
    SweepPoint,
    clear_memory_caches,
    compute_points,
    dedupe,
    emulation_count,
    engine,
    grid,
    simulation_count,
    sweep,
)
from repro.sweep.store import MEMO, MEMO_ENTRY_BYTES, memo_key, memoise, trace_nbytes
from repro.timing.simulator import simulate_kernel
from store_faults import damage, drop

GRID = grid(("comp",), ("mmx64", "vmmx64"), (2, 4))


@pytest.fixture(autouse=True)
def cold_memo(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "default-store"))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    clear_memory_caches()
    yield
    clear_memory_caches()


#: ``counted`` after a sweep that keys, reads and computes nothing.
IDLE = {
    "keys": 0, "reads": 0, "simulate_kernel": 0, "scalar_ipc": 0,
    "decodes": 0, "scalar_traces": 0, "stacks": 0,
}


def test_cold_paper_pass_decodes_no_trace_and_keys_each_record_once(
    tmp_path, monkeypatch, counted
):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "paper"))
    sims, emus = simulation_count(), emulation_count()
    for name in ARTIFACT_DATA:
        artifact_json(name)
    assert (simulation_count() - sims, emulation_count() - emus) == (363, 44)
    # fig4 emulates 44 traces; every later artefact re-times them from
    # the memo's trace budget.
    assert counted["decodes"] == 0
    assert counted["keys"] == 363
    # Five scalar mixes, each built once by fig5 (2, 4 and 8-way, one
    # stack) and once by fig5x (16-way); fig6 and fig5v find them held.
    assert counted["scalar_traces"] == 10
    # 209 kernel-timing stacks and the 10 scalar-mix stacks.
    assert counted["stacks"] == 219
    assert counted["simulate_kernel"] == 0
    # The 44 seed-0 paper traces, held in the memo, weigh at most 32
    # bytes an instruction (81 in trace format 1).
    traces = {id(cols): cols for cols, _ in MEMO.traces.entries.values()}
    assert len(traces) == 44
    instructions = sum(len(cols) for cols in traces.values())
    assert sum(cols.nbytes for cols in traces.values()) <= 32 * instructions


def test_a_trace_shared_by_several_seeds_weighs_its_bytes_once():
    """A batch over data-independent control flow files one trace object
    under every seed's key; the memo charges its bytes once."""
    sweep(grid(("comp", "addblock"), ("mmx64", "vmmx64"), (2,), seeds=(0, 1, 2)))
    entries = [cols for cols, _ in MEMO.traces.entries.values()]
    distinct = {id(cols): cols for cols in entries}
    assert len(entries) == 12 and len(distinct) == 4
    weight = sum(trace_nbytes(cols) for cols in distinct.values())
    assert MEMO.traces.bytes == weight
    assert MEMO.stats()["bytes"] == weight + len(MEMO.records) * MEMO_ENTRY_BYTES
    for key in list(MEMO.traces.entries)[:-1]:
        MEMO.discard(key)
    assert MEMO.traces.bytes == trace_nbytes(entries[-1])


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
    counted.update(IDLE)
    sims, emus = simulation_count(), emulation_count()
    warm = {name: artifact_json(name) for name in ARTIFACT_DATA}
    assert counted["keys"] == len(distinct)
    # 363 kernel timings, 20 scalar-IPC mixes and 6 app profiles.
    assert counted["reads"] == 389
    # Every artefact reads its timings from its own sweep's report, and
    # each application composition fetches its mix's IPCs at every width
    # in one call: 6 applications in each of fig5, fig5x and fig5v, and
    # fig6's one.
    assert counted["simulate_kernel"] == 0
    assert counted["scalar_ipc"] == 19
    assert (simulation_count(), emulation_count()) == (sims, emus)
    assert warm == cold


def test_held_points_are_neither_keyed_nor_read(tmp_path, counted):
    store = ResultStore(tmp_path)
    sweep(GRID, store=store)
    counted.update(IDLE)
    report = sweep(GRID, store=store)
    assert counted == IDLE
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
    counted.update(IDLE)
    report = sweep(GRID, store=store, shard=(0, 1))
    assert counted == dict(IDLE, keys=len(GRID), reads=len(GRID), stacks=1)
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
    counted.update(IDLE)
    again = [sweep([point], store=store)[point] for point in ablated]
    assert counted == dict(IDLE, keys=len(ablated), reads=len(ablated))
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


def test_simulate_kernel_retimes_a_reregistered_machine():
    """``simulate_kernel`` answers from memory only while the machine
    resolves to the spec this process keyed the point on."""
    point = SweepPoint("idct", "mmx64", 2, machine="mmx64-memo-test")
    one = ScalingCurve.constant(1)
    register_machine(_family())
    try:
        before = simulate_kernel("idct", "mmx64", 2, machine="mmx64-memo-test")
        register_machine(_family(simd_issue=one, mem_ports=one), replace=True)
        after = simulate_kernel("idct", "mmx64", 2, machine="mmx64-memo-test")
        (fresh,) = compute_points([point])
    finally:
        unregister_machine("mmx64-memo-test")
    assert (before.result.cycles, after.result.cycles) == (9200, 11384)
    assert after.result == fresh.result


def test_a_storeless_sweep_answers_the_timings_it_holds(monkeypatch):
    """Without a store nothing is keyed, but a held timing still answers
    only while its machine resolves to the spec it was timed on."""
    monkeypatch.setenv("REPRO_STORE", "off")
    one = ScalingCurve.constant(1)
    sims, emus = simulation_count(), emulation_count()
    first = simulate_kernel("comp", "mmx64", 2)
    assert simulate_kernel("comp", "mmx64", 2) == first
    assert (simulation_count() - sims, emulation_count() - emus) == (1, 1)
    register_machine(_family())
    try:
        before = simulate_kernel("idct", "mmx64", 2, machine="mmx64-memo-test")
        sims = simulation_count()
        simulate_kernel("idct", "mmx64", 2, machine="mmx64-memo-test")
        assert simulation_count() == sims
        register_machine(_family(simd_issue=one, mem_ports=one), replace=True)
        after = simulate_kernel("idct", "mmx64", 2, machine="mmx64-memo-test")
    finally:
        unregister_machine("mmx64-memo-test")
    assert simulation_count() - sims == 1
    assert (before.result.cycles, after.result.cycles) == (9200, 11384)


def test_a_registry_change_retires_every_memoised_result():
    """Re-registering a family retires what the memo holds from before,
    scalar IPCs included: an answer after the change is what a cleared
    memo computes, and two identical compositions agree."""
    profile = run_app_profile("gsmdec")
    before = scalar_ipc(2, 25, 5)
    app_timing(profile, "mmx64", 2)
    original = get_family("mmx64")
    core = dataclasses.replace(
        original.core_scaling,
        rob_size=ScalingCurve.constant(4),
        mem_ports=ScalingCurve.constant(1),
    )
    register_machine(dataclasses.replace(original, core_scaling=core), replace=True)
    try:
        after = scalar_ipc(2, 25, 5)
        first = app_timing(profile, "mmx64", 2)
        second = app_timing(profile, "mmx64", 2)
        clear_memory_caches()
        fresh = scalar_ipc(2, 25, 5)
    finally:
        register_machine(original, replace=True)
    assert after != before
    assert after == fresh
    assert first == second
