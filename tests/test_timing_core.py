"""Tests for the constraint-based out-of-order core model.

Hand-built micro-traces verify each binding constraint independently:
dependences, issue widths, FU pools, lane occupancy, memory ports, ROB,
physical registers, branch mispredictions and commit ordering.  They
run through :func:`repro.timing.simulate_trace`, so they exercise the
production engine.
"""

import dataclasses

import pytest

from repro.isa.opcodes import Category, FUClass
from repro.isa.trace import Trace, TraceRecord
from repro.machines import get_machine
from repro.timing import simulate_trace


def alu(dst, srcs=(), latency=1):
    return TraceRecord(
        name="alu", category=Category.SARITH, fu=FUClass.INT,
        latency=latency, dsts=(dst,), srcs=tuple(srcs),
    )


def simd(dst, srcs=(), rows=1, latency=1):
    return TraceRecord(
        name="vop", category=Category.VARITH, fu=FUClass.SIMD,
        latency=latency, dsts=(dst,), srcs=tuple(srcs), rows=rows,
    )


def load(dst, addr, nbytes=8, rows=1, stride=0, category=Category.SMEM):
    return TraceRecord(
        name="ld", category=category, fu=FUClass.MEM, latency=0,
        dsts=(dst,), addr=addr, row_bytes=nbytes, rows=rows, stride=stride,
    )


def branch(taken, site=1):
    return TraceRecord(
        name="br", category=Category.SCTRL, fu=FUClass.INT, latency=1,
        is_branch=True, taken=taken, pc=site,
    )


def run(records, isa="mmx64", way=2, warm=True, **overrides):
    config = get_machine(isa, way).core
    if overrides:
        config = dataclasses.replace(config, **overrides)
    trace = Trace()
    for r in records:
        trace.append(r)
    return simulate_trace(trace, config, warm=warm)


class TestDataflow:
    def test_independent_ops_run_at_width(self):
        n = 64
        result = run([alu(i + 1) for i in range(n)], way=2)
        # 2-wide: about n/2 cycles, plus pipeline ramp.
        assert result.cycles <= n / 2 + 8

    def test_serial_chain_runs_at_latency(self):
        n = 50
        records = [alu(1)] + [alu(i + 1, srcs=(i,)) for i in range(1, n)]
        result = run(records, way=8)
        assert result.cycles >= n  # one per cycle at best

    def test_long_latency_chain(self):
        n = 20
        records = [alu(1, latency=3)] + [
            alu(i + 1, srcs=(i,), latency=3) for i in range(1, n)
        ]
        result = run(records, way=8)
        assert result.cycles >= 3 * n

    def test_wider_machine_is_not_slower(self):
        records = [alu(i + 1) for i in range(200)]
        narrow = run(records, way=2).cycles
        wide = run(records, way=8).cycles
        assert wide <= narrow


class TestIssueConstraints:
    def test_int_fu_cap(self):
        # 2-way: 2 INT FUs; 100 independent ALU ops need >= 50 cycles.
        result = run([alu(i + 1) for i in range(100)], way=2)
        assert result.cycles >= 50

    def test_simd_issue_cap_vmmx(self):
        # 2-way VMMX: SIMD issue width 1 -> one vector op per cycle at best.
        records = [simd(i + 1) for i in range(40)]
        result = run(records, isa="vmmx64", way=2)
        assert result.cycles >= 40

    def test_mmx_simd_throughput_scales_with_way(self):
        records = [simd(i + 1) for i in range(160)]
        two = run(records, isa="mmx64", way=2).cycles
        eight = run(records, isa="mmx64", way=8).cycles
        assert eight < two


class TestVectorOccupancy:
    def test_rows_occupy_lanes(self):
        # VL=16 on 4 lanes + startup: >= 5 cycles per instruction.
        records = [simd(i + 1, rows=16) for i in range(20)]
        result = run(records, isa="vmmx64", way=2)
        assert result.cycles >= 20 * (16 // 4)

    def test_short_vl_cheaper_than_long_vl(self):
        short = run([simd(i + 1, rows=4) for i in range(30)], isa="vmmx64", way=2)
        long_ = run([simd(i + 1, rows=16) for i in range(30)], isa="vmmx64", way=2)
        assert short.cycles < long_.cycles

    def test_more_fu_groups_help(self):
        records = [simd(i + 1, rows=16) for i in range(30)]
        two = run(records, isa="vmmx64", way=2).cycles   # 1 group
        eight = run(records, isa="vmmx64", way=8).cycles  # 3 groups
        assert eight < two


class TestMemory:
    def test_port_contention(self):
        # 2-way MMX has one L1 port: N loads need >= N port cycles.
        records = [load(i + 1, 64 + 32 * i) for i in range(40)]
        result = run(records, way=2)
        assert result.cycles >= 40

    def test_more_ports_at_8_way(self):
        records = [load(i + 1, 64 + 32 * i) for i in range(40)]
        two = run(records, way=2).cycles
        eight = run(records, way=8).cycles
        assert eight < two

    def test_load_use_latency(self):
        records = [load(1, 64), alu(2, srcs=(1,))]
        result = run(records, way=2)
        assert result.cycles >= 1 + 3  # issue + L1 latency

    def test_vector_load_streams_rows(self):
        records = [
            load(i + 1, 4096 * i, nbytes=8, rows=16, stride=800,
                 category=Category.VMEM)
            for i in range(10)
        ]
        result = run(records, isa="vmmx64", way=2)
        assert result.cycles >= 10 * 16  # strided: one row per cycle

    def test_unit_stride_vector_load_faster_than_strided(self):
        unit = [
            load(i + 1, 2048 * i, nbytes=8, rows=16, stride=8,
                 category=Category.VMEM)
            for i in range(10)
        ]
        strided = [
            load(i + 1, 16384 * i, nbytes=8, rows=16, stride=800,
                 category=Category.VMEM)
            for i in range(10)
        ]
        fast = run(unit, isa="vmmx64", way=2).cycles
        slow = run(strided, isa="vmmx64", way=2).cycles
        assert fast < slow


class TestWindows:
    def test_rob_bounds_memory_level_parallelism(self):
        # Ten independent cold misses: with a large ROB their 500-cycle
        # latencies overlap; a tiny ROB serialises them behind commit.
        records = []
        for i in range(10):
            records.append(load(1000 + i, (1 << 20) + (1 << 14) * i))
            for j in range(40):
                records.append(alu(10_000 + 40 * i + j))
        small = run(records, way=2, warm=False, rob_size=8).cycles
        big = run(records, way=2, warm=False, rob_size=512).cycles
        assert small > 2 * big

    def test_phys_regs_limit_simd_inflight(self):
        records = [simd(i + 1, latency=3) for i in range(120)]
        tight = run(records, way=2, phys_simd_regs=34).cycles  # 2 in flight
        loose = run(records, way=2, phys_simd_regs=96).cycles
        assert tight > loose


class TestBranches:
    def test_mispredict_adds_refill_penalty(self):
        # Alternating taken/not-taken confuses the bimodal predictor.
        records = []
        for i in range(40):
            records.append(branch(taken=bool(i % 2), site=9))
            records.append(alu(i + 1))
        noisy = run(records, way=2).cycles
        steady = run(
            [branch(True, site=9) if i % 2 == 0 else alu(i) for i in range(2, 82)],
            way=2,
        ).cycles
        assert noisy > steady

    def test_mispredict_count_reported(self):
        records = [branch(taken=True, site=3) for _ in range(10)]
        records.append(branch(taken=False, site=3))
        result = run(records, way=2)
        assert result.branch_mispredicts == 1
        assert result.branch_lookups == 11


class TestAccounting:
    def test_category_cycles_sum_to_total(self):
        records = [alu(i + 1) for i in range(10)] + [
            simd(100 + i) for i in range(10)
        ]
        result = run(records, way=2)
        assert sum(result.cat_cycles.values()) == result.cycles

    def test_category_instruction_counts(self):
        records = [alu(i + 1) for i in range(7)] + [simd(50 + i) for i in range(3)]
        result = run(records, way=2)
        assert result.cat_instructions["sarith"] == 7
        assert result.cat_instructions["varith"] == 3
        assert result.instructions == 10

    def test_scalar_vector_split(self):
        records = [alu(i + 1) for i in range(5)] + [simd(50 + i) for i in range(5)]
        result = run(records, way=2)
        assert result.scalar_cycles + result.vector_cycles == result.cycles

    def test_ipc_positive(self):
        result = run([alu(i + 1) for i in range(10)], way=2)
        assert 0 < result.ipc <= 2.0

    def test_empty_trace(self):
        result = run([], way=2)
        assert result.cycles == 0
        assert result.instructions == 0

    def test_commit_is_monotonic_nondecreasing_total(self):
        # Total cycles never decrease when appending work.
        base = [alu(i + 1) for i in range(20)]
        longer = base + [alu(100 + i) for i in range(20)]
        assert run(longer, way=2).cycles >= run(base, way=2).cycles
