"""The result store under abuse: damage, racing writers, killed writers.

Written against the store's verbs only; every on-disk detail lives in
``tests/store_faults.py``.  Each case ends with ``verify`` clean and pins
the recompute-on-miss contract: a record the store cannot vouch for is
a miss, the caller recomputes it exactly once, and the fresh record
answers from then on.
"""

import concurrent.futures
import os
import shutil
import signal
import subprocess
import sys

import pytest

from repro.sweep import (
    ResultStore,
    SweepPoint,
    clear_memory_caches,
    fig4_points,
    grid,
    point_key,
    run_point,
    simulation_count,
    sweep,
)
from repro.sweep.store import save_payload, stable_hash
from store_faults import DAMAGE_KINDS, damage, flip_length, segment_files

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

POINT = SweepPoint("ycc", "mmx64", 2)

#: The killed writer's grid: 22 trace and 66 timing saves, enough that
#: it is still writing when it is killed after its 20th.
KILL_GRID = dict(
    kernels=("ycc", "addblock", "comp", "rgb", "h2v2", "motion1", "motion2",
             "idct", "fdct", "ltpfilt", "ltppar"),
    versions=("mmx64", "vmmx128"),
    ways=(2, 4, 8),
)


@pytest.fixture()
def cold_caches():
    clear_memory_caches()
    yield
    clear_memory_caches()


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


#: Damage a read detects.  An ``edit`` still parses, so only the payload
#: hash in ``verify`` can find it (see ``test_edit_is_verify_s_to_find``).
READ_DETECTED = tuple(how for how in DAMAGE_KINDS if how != "edit")


class TestDamagedRecords:
    @pytest.mark.parametrize("how", READ_DETECTED)
    def test_damaged_record_is_recomputed_exactly_once(
        self, how, tmp_path, cold_caches
    ):
        store = ResultStore(tmp_path)
        first = run_point(POINT, store)
        key = point_key(POINT)
        damage(store, key, how)
        clear_memory_caches()
        assert store.peek(key) is None
        assert store.load(key) is None
        before = simulation_count()
        again = run_point(POINT, store)
        assert simulation_count() == before + 1
        assert again.result == first.result
        clear_memory_caches()
        assert run_point(POINT, store).result == first.result
        assert simulation_count() == before + 1
        report = store.verify()
        assert report.ok, report.summary()

    @pytest.mark.parametrize("how", DAMAGE_KINDS)
    def test_verify_names_every_damaged_key(self, how, tmp_path):
        store = ResultStore(tmp_path)
        keys = [stable_hash({"n": i}) for i in range(3)]
        for i, key in enumerate(keys):
            save_payload(store, "test", key, {"n": i})
        damage(store, keys[1], how)
        report = store.verify()
        assert [key for key, _ in report.problems] == [keys[1]]
        assert report.checked == 3

    def test_edit_is_verify_s_to_find(self, tmp_path):
        store = ResultStore(tmp_path)
        key = stable_hash("edited")
        save_payload(store, "test", key, {"n": 1})
        damage(store, key, "edit")
        assert store.peek(key) is not None
        assert "hash mismatch" in store.verify().problems[0][1]
        save_payload(store, "test", key, {"n": 1})
        assert store.verify().ok


_RACING_WRITER = """
import sys
from repro.sweep.store import ResultStore, save_payload, stable_hash

store = ResultStore(sys.argv[1])
for i in range(50):
    save_payload(store, "test", stable_hash({"abuse": i}),
                 {"n": i, "blob": "x" * (37 * i)})
"""


class TestRacingWriters:
    def test_four_processes_save_the_same_keys(self, tmp_path):
        root = tmp_path / "shared"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _RACING_WRITER, str(root)],
                env=_child_env(),
            )
            for _ in range(4)
        ]
        assert [proc.wait(timeout=120) for proc in procs] == [0] * 4
        store = ResultStore(root)
        for i in range(50):
            record = store.peek(stable_hash({"abuse": i}))
            assert record is not None
            assert record["payload"] == {"n": i, "blob": "x" * (37 * i)}
        assert len(store) == 50
        report = store.verify()
        assert report.ok and report.checked == 50, report.summary()


class TestThreadedWriters:
    def test_threads_share_one_segment_without_tearing(self, tmp_path):
        """Eight threads, a tiny switch interval: every frame lands whole."""
        store = ResultStore(tmp_path)
        keys = [stable_hash(("thread", i)) for i in range(400)]

        def save_then_read(key):
            save_payload(store, "test", key, {"key": key, "pad": "y" * 300})
            return store.peek(key)["payload"]["key"]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                read_back = list(pool.map(save_then_read, keys, timeout=120))
        finally:
            sys.setswitchinterval(previous)
        assert read_back == keys
        assert len(segment_files(store)) == 1
        report = store.verify()  # re-reads every frame header from disk
        assert report.ok and report.checked == len(keys), report.summary()


_KILLED_WRITER = """
import sys
import time
from repro.sweep import ResultStore, grid, sweep

real = ResultStore.save

def save(self, key, record):
    real(self, key, record)
    print(key, flush=True)
    time.sleep(0.02)

ResultStore.save = save
sweep(grid(*{grid}), jobs=1, store=ResultStore(sys.argv[1]))
print("done", flush=True)
"""


class TestKilledWriter:
    def test_sigkilled_writer_loses_no_acknowledged_record(
        self, tmp_path, cold_caches
    ):
        root = tmp_path / "store"
        axes = (KILL_GRID["kernels"], KILL_GRID["versions"], KILL_GRID["ways"])
        script = _KILLED_WRITER.format(grid=repr(axes))
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(root)],
            env=_child_env(), stdout=subprocess.PIPE, text=True,
        )
        acknowledged = []
        try:
            for line in proc.stdout:
                acknowledged.append(line.strip())
                if len(acknowledged) >= 20:
                    proc.send_signal(signal.SIGKILL)
                    break
            acknowledged += [line.strip() for line in proc.stdout]
        finally:
            proc.kill()
            proc.wait(timeout=60)
            proc.stdout.close()
        assert "done" not in acknowledged, "writer finished before the kill"
        assert len(acknowledged) >= 20

        store = ResultStore(root)
        for key in acknowledged:
            assert store.peek(key) is not None, key
        assert store.verify().ok
        kept = len(store)
        store.gc()
        report = store.verify()
        assert report.ok, report.summary()
        assert len(store) == kept
        assert all(store.peek(key) is not None for key in acknowledged)

        points = grid(*axes)
        missing = store.missing([point_key(p) for p in points])
        assert missing, "nothing left to resume"
        report = sweep(points, store=store)
        assert report.simulated == len(missing)
        assert store.missing([point_key(p) for p in points]) == []
        assert store.verify().ok


class TestRemovedRoot:
    def test_save_after_rmtree_reads_back(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root)
        old, new = stable_hash("before"), stable_hash("after")
        save_payload(store, "test", old, {"n": 1})
        assert store.peek(old)["payload"] == {"n": 1}
        shutil.rmtree(root)
        assert store.peek(old) is None and old not in store
        save_payload(store, "test", new, {"n": 2})
        assert store.peek(new)["payload"] == {"n": 2}
        assert list(store.iter_keys()) == [new]
        assert ResultStore(root).peek(new)["payload"] == {"n": 2}
        assert store.verify().ok


class TestBrokenFrameHeader:
    """Damage that hides keys: a frame length flipped mid-segment."""

    def test_hidden_keys_recompute_and_verify_names_the_segment(
        self, tmp_path, cold_caches
    ):
        store = ResultStore(tmp_path)
        points = grid(("ycc", "addblock"), ("mmx64", "vmmx128"), (2, 4))
        first = sweep(points, store=store)
        keys = [point_key(p) for p in points]
        (segment,) = segment_files(store)
        hidden = flip_length(store, keys[0])
        assert keys[0] in hidden and len(hidden) > 1  # mid-segment
        report = store.verify()
        assert [where for where, _ in report.problems] == [f"segments/{segment}"]
        assert "broken frame header" in report.problems[0][1]
        for key in keys:
            if key in hidden:
                assert key not in store and store.peek(key) is None
            else:
                assert store.peek(key) is not None

        clear_memory_caches()
        again = sweep(points, store=store)
        assert again.simulated == len(set(keys) & set(hidden))
        assert {p: t.result for p, t in again.results.items()} == {
            p: t.result for p, t in first.results.items()
        }
        # gc leaves the damaged segment in place, still reported.
        store.gc()
        report = store.verify()
        assert [where for where, _ in report.problems] == [f"segments/{segment}"]
        assert all(store.peek(key) is not None for key in keys)


class TestOneSegmentPerWriter:
    """Count gates: each writer process appends to one segment, and a
    warm pass writes nothing at all."""

    @pytest.mark.parametrize("jobs,most", [(1, 1), (2, 3)])
    def test_cold_sweep_segments_then_warm_writes_nothing(
        self, jobs, most, tmp_path, cold_caches
    ):
        store = ResultStore(tmp_path / "store")
        points = fig4_points()
        cold = sweep(points, jobs=jobs, store=store)
        assert cold.simulated == len(points)
        files = segment_files(store)
        assert 1 <= len(files) <= most
        if jobs == 1:
            assert len(files) == 1
        clear_memory_caches()
        warm = sweep(points, jobs=jobs, store=store)
        assert "points: 0 simulated" in warm.summary()
        assert segment_files(store) == files  # same names, same bytes
