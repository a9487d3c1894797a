"""Sharded campaign execution: partition, equivalence, resume.

The sharding layer must be invisible in the results: a campaign split
across N shards (each with its own store root), merged back together,
is byte-for-byte the store a single process would have produced, and
the trace-grouped assignment means the campaign as a whole emulates
each kernel exactly once.  An interrupted sweep restarted against its
store recomputes only what is genuinely missing: the store is its own
resume state.
"""

import pytest

from repro.sweep import (
    ResultStore,
    SweepInterrupted,
    SweepPoint,
    clear_memory_caches,
    dedupe,
    emulation_count,
    fig4_points,
    grid,
    parse_shard_spec,
    point_key,
    set_compute_budget,
    shard,
    shard_store_root,
    simulation_count,
    sweep,
    sweep_progress,
    trace_key,
)
from repro.sweep.points import reshard_keys, shard_assignment
from repro.sweep.store import canonical_json, kernel_timing_to_dict
from store_faults import drop, record_bytes

#: A multi-way grid whose points share traces across ways, so the
#: trace-exclusivity property is non-trivial to satisfy.
SMALL_GRID = grid(("ycc", "addblock"), ("mmx64", "vmmx128"), (2, 4, 8))


class TestShardAssignment:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 7])
    def test_shards_partition_exactly(self, count):
        """No loss, no overlap, for any shard count."""
        points = fig4_points()
        shards = [shard(points, index, count) for index in range(count)]
        merged = [p for piece in shards for p in piece]
        assert sorted(merged, key=repr) == sorted(dedupe(points), key=repr)
        assert sum(len(piece) for piece in shards) == len(dedupe(points))

    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_trace_groups_never_split(self, count):
        """A trace_key appears in exactly one shard: each kernel is
        emulated at most once across the whole campaign."""
        points = SMALL_GRID + fig4_points()
        key_sets = [
            {trace_key(p) for p in shard(points, index, count)}
            for index in range(count)
        ]
        for i in range(count):
            for j in range(i + 1, count):
                assert not key_sets[i] & key_sets[j]

    def test_assignment_is_deterministic(self):
        points = fig4_points()
        assert shard(points, 0, 3) == shard(points, 0, 3)
        assert shard(points, 2, 3) == shard(points, 2, 3)

    def test_shards_preserve_point_order(self):
        points = SMALL_GRID
        order = {p: i for i, p in enumerate(dedupe(points))}
        for index in range(3):
            positions = [order[p] for p in shard(points, index, 3)]
            assert positions == sorted(positions)

    def test_single_shard_is_identity(self):
        assert shard(SMALL_GRID, 0, 1) == dedupe(SMALL_GRID)

    def test_shards_are_balanced(self):
        """Greedy assignment keeps shard sizes within one trace group."""
        points = fig4_points()
        sizes = sorted(len(shard(points, i, 4)) for i in range(4))
        # fig4 trace groups are 1-2 points each; shards must not differ
        # by more than the largest group.
        assert sizes[-1] - sizes[0] <= 2

    @pytest.mark.parametrize(
        "index, count", [(3, 2), (2, 2), (-1, 2), (0, 0), (0, -1), (1, 1)]
    )
    def test_out_of_range_raises(self, index, count):
        with pytest.raises(ValueError):
            shard(SMALL_GRID, index, count)

    def test_bool_is_not_a_shard_index(self):
        with pytest.raises(ValueError):
            shard(SMALL_GRID, True, 2)


class TestShardSpecParsing:
    @pytest.mark.parametrize(
        "spec, expected",
        [("1/1", (0, 1)), ("1/4", (0, 4)), ("4/4", (3, 4)), (" 2/3 ", (1, 3))],
    )
    def test_valid_specs(self, spec, expected):
        assert parse_shard_spec(spec) == expected

    @pytest.mark.parametrize(
        "spec", ["3/2", "0/0", "0/2", "-1/2", "banana", "1/2/3", "/2", "1/", "1"]
    )
    def test_invalid_specs_name_the_flag(self, spec):
        with pytest.raises(ValueError, match="--shard"):
            parse_shard_spec(spec)


@pytest.fixture()
def cold_caches():
    clear_memory_caches()
    yield
    clear_memory_caches()


def _store_tree(store):
    """Every record's raw bytes, keyed by record key."""
    return {key: record_bytes(store, key) for key in store.iter_keys()}


class TestCrossShardEquivalence:
    @pytest.mark.parametrize("count", [2, 3])
    def test_sharded_merge_equals_single_process(
        self, count, tmp_path, monkeypatch, cold_caches
    ):
        """The merged campaign store is byte-for-byte the single-process
        store: every KernelTiming record, every trace record."""
        points = fig4_points()
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "single"))
        single_report = sweep(points)
        single = _store_tree(ResultStore(tmp_path / "single"))

        emulations_before = emulation_count()
        for index in range(count):
            clear_memory_caches()
            monkeypatch.setenv(
                "REPRO_STORE", str(shard_store_root(tmp_path / "campaign", index, count))
            )
            report = sweep(points, shard=(index, count))
            assert report.shard == (index, count)
            assert report.simulated == report.total
        # Trace-grouped assignment: the campaign emulated each kernel
        # exactly as often as the single process did.
        assert emulation_count() - emulations_before == single_report.emulated

        merged = ResultStore(tmp_path / "merged")
        for index in range(count):
            stats = merged.merge(
                ResultStore(shard_store_root(tmp_path / "campaign", index, count))
            )
            assert not stats.conflicts and not stats.corrupt
        assert _store_tree(merged) == single

        # The merged store replays the whole grid without touching the
        # simulator: zero simulations, zero emulations.
        clear_memory_caches()
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "merged"))
        warm = sweep(points)
        assert warm.simulated == 0 and warm.emulated == 0
        for point in points:
            assert canonical_json(
                kernel_timing_to_dict(warm[point])
            ) == canonical_json(kernel_timing_to_dict(single_report[point]))

    def test_shard_reports_cover_all_points(self, tmp_path, monkeypatch, cold_caches):
        """Union of per-shard reports is exactly the deduplicated grid."""
        points = SMALL_GRID
        seen = []
        for index in range(3):
            clear_memory_caches()
            monkeypatch.setenv(
                "REPRO_STORE", str(shard_store_root(tmp_path, index, 3))
            )
            seen.extend(sweep(points, shard=(index, 3)).points)
        assert sorted(seen, key=repr) == sorted(dedupe(points), key=repr)
        assert len(seen) == len(set(seen))


class TestResume:
    GRID = grid(("ycc", "addblock"), ("mmx64", "vmmx128"), (2, 4))

    def test_interrupted_sweep_resumes_without_recomputing(
        self, tmp_path, monkeypatch, cold_caches
    ):
        # Uninterrupted reference in a separate store.
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "reference"))
        reference = sweep(self.GRID)
        clear_memory_caches()

        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "campaign"))
        budget_before = set_compute_budget(3)
        try:
            with pytest.raises(SweepInterrupted):
                sweep(self.GRID)
        finally:
            set_compute_budget(budget_before)
        # The three completed points are already persisted.
        campaign = ResultStore(tmp_path / "campaign")
        persisted = [p for p in self.GRID if point_key(p) in campaign]
        assert len(persisted) == 3

        clear_memory_caches()
        before = simulation_count()
        report = sweep(self.GRID)
        # Only the remaining points were recomputed...
        assert simulation_count() - before == len(self.GRID) - 3
        assert report.simulated == len(self.GRID) - 3
        assert report.cached == 3
        # ...and the final results equal an uninterrupted run.
        for point in self.GRID:
            assert kernel_timing_to_dict(report[point]) == kernel_timing_to_dict(
                reference[point]
            )

    #: Three kernels x two ISAs x three ways: six trace groups.
    BUDGET_GRID = grid(("ycc", "addblock", "idct"), ("mmx64", "vmmx128"), (2, 4, 8))

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("budget", [1, 3])
    def test_budget_persists_exactly_its_prefix_at_any_jobs(
        self, tmp_path, cold_caches, jobs, budget
    ):
        """A sweep allowed K computed points persists exactly K, then
        dies; a restart computes only the rest.  Pooled workers hold
        forked copies of the budget, so the parent must trim before it
        hands out work."""
        points = self.BUDGET_GRID
        store = ResultStore(tmp_path / "campaign")
        previous = set_compute_budget(budget)
        try:
            with pytest.raises(SweepInterrupted):
                sweep(points, jobs=jobs, store=store)
        finally:
            set_compute_budget(previous)
        persisted = [p for p in points if point_key(p) in store]
        assert len(persisted) == budget
        assert sweep_progress(points, store=store).present == budget

        clear_memory_caches()
        before = simulation_count()
        report = sweep(points, jobs=jobs, store=store)
        assert simulation_count() - before == len(points) - budget
        assert report.simulated == len(points) - budget
        assert report.cached == budget
        assert sweep_progress(points, store=store).done

    def test_completed_campaign_resumes_as_pure_cache(
        self, tmp_path, monkeypatch, cold_caches
    ):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        sweep(self.GRID)
        clear_memory_caches()
        report = sweep(self.GRID)
        assert report.simulated == 0
        assert report.cached == report.total == len(dedupe(self.GRID))

    def test_checkpoint_is_store_subordinate(self, tmp_path, monkeypatch, cold_caches):
        """The store is the checkpoint: a point whose record was lost is
        recomputed, and nothing else is."""
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        sweep(self.GRID)
        store = ResultStore(tmp_path)
        victim = self.GRID[0]
        drop(store, point_key(victim))
        clear_memory_caches()
        before = simulation_count()
        report = sweep(self.GRID)
        assert simulation_count() - before == 1
        assert report.simulated == 1

    def test_budget_hook_restores(self):
        previous = set_compute_budget(5)
        assert set_compute_budget(previous) == 5

    def test_sharded_resume_checkpoints_are_distinct(
        self, tmp_path, monkeypatch, cold_caches
    ):
        """Shard 1's records never answer shard 2's points, even in one
        store."""
        points = self.GRID
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        sweep(points, shard=(0, 2))
        clear_memory_caches()
        report = sweep(points, shard=(1, 2))
        assert report.cached == 0
        assert report.simulated == report.total


def _vl_grid():
    """A grid mixing legacy fixed-width points with runtime-VL points
    at two vector lengths (distinct trace groups) plus tile points."""
    points = grid(("ycc", "addblock"), ("mmx64", "vmmx128"), (2, 4))
    for kernel in ("ycc", "addblock"):
        for vl in (8, 16):
            for way in (2, 4):
                points.append(
                    SweepPoint(kernel=kernel, version="vla", way=way, vl=vl)
                )
        points.append(SweepPoint(kernel=kernel, version="tile", way=4))
    return points


class TestVlAwareSharding:
    """The vl trace-key axis must flow through the partition functions
    without disturbing their purity or the trace-exclusivity property."""

    def test_shard_assignment_is_pure_with_vl_points(self):
        points = _vl_grid()
        assert shard_assignment(points, 3) == shard_assignment(points, 3)
        merged = [p for piece in shard_assignment(points, 3) for p in piece]
        assert sorted(merged, key=repr) == sorted(dedupe(points), key=repr)

    def test_vl_variants_are_distinct_trace_groups(self):
        """vla@8 and vla@16 emulate different dynamic traces, so the
        partitioner may place them on different hosts; all ways of one
        (kernel, vl) still travel together."""
        points = _vl_grid()
        assignment = shard_assignment(points, 4)
        for piece in assignment:
            keys = {trace_key(p) for p in piece}
            for other in assignment:
                if other is not piece:
                    assert not keys & {trace_key(p) for p in other}
        vl8 = SweepPoint(kernel="ycc", version="vla", way=2, vl=8)
        vl16 = SweepPoint(kernel="ycc", version="vla", way=2, vl=16)
        assert trace_key(vl8) != trace_key(vl16)
        homes = {
            trace_key(p): i
            for i, piece in enumerate(assignment)
            for p in piece
        }
        same_trace = SweepPoint(kernel="ycc", version="vla", way=4, vl=8)
        assert homes[trace_key(vl8)] == homes[trace_key(same_trace)]

    def test_reshard_keys_is_pure_with_vl_points(self):
        points = _vl_grid()
        keys = [point_key(p) for p in dedupe(points)[::2]]
        assert reshard_keys(points, keys, 2) == reshard_keys(points, keys, 2)
        survivors = [p for piece in reshard_keys(points, keys, 2) for p in piece]
        assert sorted(survivors, key=repr) == sorted(
            (p for p in dedupe(points) if point_key(p) in set(keys)), key=repr
        )

    def test_point_keys_distinguish_vl(self):
        a = SweepPoint(kernel="ycc", version="vla", way=2, vl=8)
        b = SweepPoint(kernel="ycc", version="vla", way=2, vl=16)
        assert point_key(a) != point_key(b)


class TestShardedSweepPoint:
    def test_sweep_with_shard_dedupes_first(self, tmp_path, monkeypatch, cold_caches):
        """Sharding applies to the deduplicated list, so duplicate
        spellings cannot unbalance or double-run a shard."""
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        doubled = SMALL_GRID + SMALL_GRID
        totals = 0
        for index in range(2):
            report = sweep(doubled, shard=(index, 2))
            totals += report.total
            clear_memory_caches()
        assert totals == len(dedupe(SMALL_GRID))

    def test_invalid_shard_rejected_by_sweep(self):
        with pytest.raises(ValueError):
            sweep(SMALL_GRID, shard=(5, 2))
