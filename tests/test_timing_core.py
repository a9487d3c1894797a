"""Tests for the constraint-based out-of-order core model.

Hand-built micro-traces verify each binding constraint independently:
dependences, issue widths, FU pools, lane occupancy, memory ports, ROB,
physical registers, branch mispredictions and commit ordering.  They
run through :func:`repro.timing.simulate_trace`, so they exercise the
production engine.
"""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.isa.opcodes import Category, FUClass
from repro.isa.trace import Trace, TraceRecord
from repro.machines import get_machine, machine_names
from repro.sweep.engine import compute_point
from repro.sweep.points import SweepPoint
from repro.timing import check_config, simulate_trace


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


def _replace_level(mem, level, **fields):
    return dataclasses.replace(
        mem, **{level: dataclasses.replace(getattr(mem, level), **fields)}
    )


class TestCheckConfig:
    """A configuration the model cannot time is refused, naming the field.

    Without the check the compiled kernel divides by zero on a zero ROB
    (a signal that kills the process) and reads empty port and unit pools
    on zero ports or groups, returning garbage cycle counts.
    """

    @pytest.mark.parametrize("core, mem, field", [
        ({"mem_ports": 0}, {}, "mem_ports"),
        ({"simd_fu_groups": 0}, {}, "simd_fu_groups"),
        ({}, {"l1.assoc": 0}, "l1.assoc"),
        ({}, {"l1.size": 1}, "l1.size"),
    ])
    def test_bad_override_raises_before_timing(self, core, mem, field):
        point = SweepPoint(
            kernel="addblock", version="mmx64", way=2,
            core_overrides=core, mem_overrides=mem,
        )
        with pytest.raises(ValueError, match=field):
            compute_point(point, store=None)

    def test_zero_rob_raises_instead_of_a_signal(self):
        """Run in a child: a regression dies by SIGFPE there, and fails
        this test by its return code instead of killing the suite."""
        script = textwrap.dedent("""
            import dataclasses
            from repro.kernels.base import execute
            from repro.kernels.registry import KERNELS
            from repro.machines import get_machine
            from repro.sweep.engine import compute_point
            from repro.sweep.points import SweepPoint
            from repro.timing.batch import BatchCoreModel

            point = SweepPoint(
                kernel="addblock", version="mmx64", way=2,
                core_overrides={"rob_size": 0},
            )
            try:
                compute_point(point, store=None)
            except ValueError as exc:
                assert "rob_size" in str(exc), exc
            else:
                raise SystemExit("compute_point accepted rob_size=0")

            machine = get_machine("mmx64", 2)
            core = dataclasses.replace(machine.core, rob_size=0)
            cols = execute(KERNELS["addblock"], "mmx64", 0).trace.columns()
            try:
                BatchCoreModel([(core, machine.mem)]).run(cols)
            except ValueError as exc:
                assert "rob_size" in str(exc), exc
            else:
                raise SystemExit("BatchCoreModel accepted rob_size=0")
        """)
        env = dict(os.environ)
        env.pop("REPRO_TIMING_REFERENCE", None)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])

    @pytest.mark.parametrize("fields, field", [
        ({"fetch_width": 0}, "fetch_width"),
        ({"commit_width": 0}, "commit_width"),
        ({"int_fus": 0}, "int_fus"),
        ({"fp_fus": 0}, "fp_fus"),
        ({"simd_issue": 0}, "simd_issue"),
        ({"lanes": 0.5}, "lanes"),
        ({"rob_size": math.nan}, "rob_size"),
        ({"rob_size": "32"}, "rob_size"),
        ({"branch_penalty": -1}, "branch_penalty"),
        ({"vector_startup": -1}, "vector_startup"),
    ])
    def test_core_fields(self, fields, field):
        machine = get_machine("vmmx128", 4)
        core = dataclasses.replace(machine.core, **fields)
        with pytest.raises(ValueError, match=field):
            check_config(core, machine.mem)

    @pytest.mark.parametrize("level, fields, field", [
        ("l1", {"ports": 0}, "l1.ports"),
        ("l2", {"ports": 0}, "l2.ports"),
        ("l2", {"port_bytes": 0}, "l2.port_bytes"),
        ("l2", {"line": 0}, "l2.line"),
        ("l2", {"size": 63}, "l2.size"),
        ("l1", {"latency": -1}, "l1.latency"),
    ])
    def test_level_fields(self, level, fields, field):
        machine = get_machine("vmmx128", 4)
        mem = _replace_level(machine.mem, level, **fields)
        with pytest.raises(ValueError, match=field):
            check_config(machine.core, mem)

    @pytest.mark.parametrize("fields, field", [
        ({"main_latency": -1}, "main_latency"),
        ({"strided_rows_per_cycle": 0}, "strided_rows_per_cycle"),
        ({"strided_rows_per_cycle": math.inf}, "strided_rows_per_cycle"),
    ])
    def test_hierarchy_fields(self, fields, field):
        machine = get_machine("vmmx128", 4)
        mem = dataclasses.replace(machine.mem, **fields)
        with pytest.raises(ValueError, match=field):
            check_config(machine.core, mem)

    def test_float_counts_and_one_set_caches_pass(self):
        machine = get_machine("vmmx128", 4)
        core = dataclasses.replace(machine.core, lanes=4.0, branch_penalty=0)
        mem = _replace_level(machine.mem, "l1", size=64 * 2, line=64, assoc=2)
        check_config(core, mem)

    @pytest.mark.parametrize("name", machine_names())
    def test_every_registered_machine_passes(self, name):
        for way in range(1, 17):
            machine = get_machine(name, way)
            check_config(machine.core, machine.mem)
