"""Tests for the cache hierarchy and branch predictor models."""

import pytest
from record_traces import trace_from_records

from repro.isa.opcodes import Category, FUClass
from repro.isa.trace import TraceRecord
from repro.timing.caches import BimodalPredictor, Cache, MemoryHierarchy
from repro.machines import get_machine
from repro.machines.spec import CacheConfig


def small_cache(size=1024, assoc=2, line=32):
    return Cache(CacheConfig(size=size, assoc=assoc, line=line, latency=3, ports=1, port_bytes=8))


class TestCache:
    def test_first_access_misses(self):
        c = small_cache()
        assert c.access(0, 4) == 1

    def test_repeat_access_hits(self):
        c = small_cache()
        c.access(0, 4)
        assert c.access(0, 4) == 0

    def test_same_line_hits(self):
        c = small_cache(line=32)
        c.access(0, 4)
        assert c.access(28, 4) == 0

    def test_access_spanning_lines(self):
        c = small_cache(line=32)
        assert c.access(30, 8) == 2  # touches two lines

    def test_lru_eviction(self):
        c = small_cache(size=128, assoc=2, line=32)  # 2 sets
        # Set 0 holds lines 0, 64, 128, ... ; fill both ways then evict.
        c.access(0, 1)
        c.access(128, 1)
        c.access(256, 1)     # evicts line 0
        assert c.access(0, 1) == 1

    def test_lru_promotes_on_hit(self):
        c = small_cache(size=128, assoc=2, line=32)
        c.access(0, 1)
        c.access(128, 1)
        c.access(0, 1)       # promote line 0
        c.access(256, 1)     # evicts 128, not 0
        assert c.access(0, 1) == 0
        assert c.access(128, 1) == 1

    def test_stats_track_accesses(self):
        c = small_cache()
        c.access(0, 4)
        c.access(0, 4)
        assert c.stats.accesses == 2
        assert c.stats.misses == 1
        assert c.stats.miss_rate == 0.5


class TestMemoryHierarchy:
    def test_l1_hit_latency(self):
        h = MemoryHierarchy(get_machine("mmx64", 2).mem)
        h.scalar_access(64, 4)
        result = h.scalar_access(64, 4)
        assert result.latency == h.config.l1.latency

    def test_l1_miss_goes_to_memory_first_touch(self):
        h = MemoryHierarchy(get_machine("mmx64", 2).mem)
        result = h.scalar_access(64, 4)
        assert result.latency >= h.config.main_latency

    def test_wide_access_occupies_more_port_cycles(self):
        h = MemoryHierarchy(get_machine("mmx64", 2).mem)
        narrow = h.scalar_access(64, 8)
        wide = h.scalar_access(64, 16)
        assert wide.occupancy == 2 * narrow.occupancy

    def test_vector_unit_stride_uses_port_width(self):
        h = MemoryHierarchy(get_machine("mmx64", 2).mem)  # 16-byte L2 port
        h.vector_access(0, 8, 16, 8)
        result = h.vector_access(0, 8, 16, 8)
        assert result.occupancy == 16 * 8 // 16

    def test_vector_strided_one_element_per_cycle(self):
        h = MemoryHierarchy(get_machine("mmx64", 2).mem)
        h.vector_access(0, 8, 16, 800)
        result = h.vector_access(0, 8, 16, 800)
        assert result.occupancy == 16

    def test_vector_strided_wide_rows_cost_two_elements(self):
        h = MemoryHierarchy(get_machine("mmx64", 2).mem)
        h.vector_access(0, 16, 16, 800)
        result = h.vector_access(0, 16, 16, 800)
        assert result.occupancy == 32

    def test_strided_bandwidth_scales_with_way(self):
        h2 = MemoryHierarchy(get_machine("mmx64", 2).mem)
        h8 = MemoryHierarchy(get_machine("mmx64", 8).mem)
        h2.vector_access(0, 8, 16, 800)
        h8.vector_access(0, 8, 16, 800)
        slow = h2.vector_access(0, 8, 16, 800).occupancy
        fast = h8.vector_access(0, 8, 16, 800).occupancy
        assert fast < slow

    def test_strided_access_does_not_pollute_gaps(self):
        h = MemoryHierarchy(get_machine("mmx64", 2).mem)
        h.vector_access(0, 8, 4, 1024)  # rows at 0, 1024, 2048, 3072
        misses_before = h.l2.stats.misses
        h.scalar_access(512, 4)          # the gap must still miss in L2
        h.scalar_access(512, 4)
        assert h.l2.stats.misses > misses_before

    def test_warm_resets_stats(self):
        h = MemoryHierarchy(get_machine("mmx64", 2).mem)
        t = trace_from_records([
            TraceRecord(
                name="ld", category=Category.SMEM, fu=FUClass.MEM,
                latency=0, addr=64, row_bytes=8,
            )
        ])
        h.warm(t)
        assert h.l1.stats.accesses == 0
        result = h.scalar_access(64, 8)
        assert result.latency == h.config.l1.latency  # warmed: L1 hit


class TestBimodalPredictor:
    def test_initial_prediction_is_taken(self):
        p = BimodalPredictor()
        assert p.predict_and_update(1, True)

    def test_loop_costs_one_miss_at_exit(self):
        p = BimodalPredictor()
        outcomes = [True] * 9 + [False]
        correct = [p.predict_and_update(5, t) for t in outcomes]
        assert correct.count(False) == 1
        assert not correct[-1]

    def test_learns_not_taken(self):
        p = BimodalPredictor()
        for _ in range(4):
            p.predict_and_update(3, False)
        assert p.predict_and_update(3, False)

    def test_sites_are_independent(self):
        p = BimodalPredictor()
        for _ in range(4):
            p.predict_and_update(1, False)
        assert p.predict_and_update(2, True)  # site 2 untouched

    def test_stats(self):
        p = BimodalPredictor()
        p.predict_and_update(1, True)
        p.predict_and_update(1, False)
        assert p.lookups == 2
        assert p.mispredicts == 1
