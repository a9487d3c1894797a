"""Differential tests: the compiled timing engine vs the reference model.

The production engine (:class:`repro.timing.batch.BatchCoreModel`, a C
constraint walk behind :func:`repro.timing.simulate_trace`) must produce
*identical* ``SimResult`` objects -- cycles, per-category attribution,
branch and cache statistics -- to the record-at-a-time reference,
:meth:`repro.timing.core.CoreModel.run`, on any trace.  Hypothesis
generates adversarial random traces mixing every instruction kind; a
second set of cases runs real emulated kernel traces through both.

``REPRO_TIMING_REFERENCE=1`` routes every simulation through the
reference, which is how any debugging session compares the two without
touching call sites.
"""

import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from record_traces import trace_from_records

from repro.isa.opcodes import Category, FUClass
from repro.isa.trace import TraceRecord
from repro.machines import get_machine
from repro.machines.spec import CacheConfig, MemHierConfig
from repro.timing import simulate_trace
from repro.timing.batch import BatchCoreModel
from repro.timing.core import REFERENCE_ENV, CoreModel


@st.composite
def random_trace(draw, max_len=110):
    """Traces mixing ALU, SIMD (incl. matrix rows), memory and branches."""
    n = draw(st.integers(5, max_len))
    kinds = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    records = []
    next_id = 1
    for kind in kinds:
        srcs = ()
        if next_id > 2 and draw(st.booleans()):
            srcs = (draw(st.integers(1, next_id - 1)),)
        if kind == 0:
            records.append(
                TraceRecord(
                    name="alu", category=Category.SARITH, fu=FUClass.INT,
                    latency=draw(st.sampled_from([1, 3])), dsts=(next_id,),
                    srcs=srcs,
                )
            )
            next_id += 1
        elif kind == 1:
            records.append(
                TraceRecord(
                    name="vop", category=Category.VARITH, fu=FUClass.SIMD,
                    latency=draw(st.sampled_from([1, 3])), dsts=(next_id,),
                    srcs=srcs, rows=draw(st.sampled_from([1, 4, 8, 16])),
                )
            )
            next_id += 1
        elif kind == 2:
            records.append(
                TraceRecord(
                    name="ld", category=Category.SMEM, fu=FUClass.MEM,
                    latency=0, dsts=(next_id,), srcs=srcs,
                    addr=64 + 32 * draw(st.integers(0, 400)), row_bytes=8,
                )
            )
            next_id += 1
        elif kind == 3:
            records.append(
                TraceRecord(
                    name="vld", category=Category.VMEM, fu=FUClass.MEM,
                    latency=0, dsts=(next_id,), srcs=srcs,
                    addr=4096 * draw(st.integers(0, 40)), row_bytes=8,
                    rows=draw(st.sampled_from([1, 8, 16])),
                    stride=draw(st.sampled_from([8, 800])),
                    is_store=draw(st.booleans()),
                )
            )
            next_id += 1
        else:
            records.append(
                TraceRecord(
                    name="br", category=Category.SCTRL, fu=FUClass.INT,
                    latency=1, srcs=srcs, is_branch=True,
                    taken=draw(st.booleans()), pc=draw(st.integers(1, 4)),
                )
            )
    return trace_from_records(records)


@st.composite
def tiny_level(draw, latency):
    """A cache level of 1-4 sets, small enough that traces evict."""
    n_sets = draw(st.integers(1, 4))
    assoc = draw(st.sampled_from([1, 2, 3]))
    line = draw(st.sampled_from([8, 32, 64]))
    return CacheConfig(
        size=n_sets * assoc * line, assoc=assoc, line=line, latency=latency,
        ports=draw(st.integers(1, 2)), port_bytes=draw(st.sampled_from([8, 16])),
    )


@st.composite
def tiny_hierarchy(draw):
    return MemHierConfig(
        l1=draw(tiny_level(latency=draw(st.sampled_from([0, 1, 3])))),
        l2=draw(tiny_level(latency=draw(st.sampled_from([6, 12])))),
        main_latency=draw(st.sampled_from([20, 500])),
        strided_rows_per_cycle=draw(st.sampled_from([1.0, 2.0])),
    )


@st.composite
def cache_walk_trace(draw, max_len=60):
    """Traces aimed at the cache and branch-predictor walks.

    Unaligned accesses that straddle lines, ``row_bytes`` from 0 to three
    of the widest lines, multi-row accesses at stride 0, negative strides
    and strides equal to and different from ``row_bytes``, memory records
    below address zero, non-memory records that carry an address (the
    warm touches them too), and branch sites that are sparse, negative
    or far apart across the whole int32 pc column.
    """
    n = draw(st.integers(1, max_len))
    sites = draw(
        st.lists(
            st.one_of(
                st.integers(-(2**31), 2**31 - 1),
                st.integers(2**31 - 4, 2**31 - 1),
                st.integers(-3, 3),
            ),
            min_size=1,
            max_size=5,
        )
    )
    records = []
    for i in range(n):
        srcs = (draw(st.integers(1, i)),) if i and draw(st.booleans()) else ()
        kind = draw(st.integers(0, 3))
        if kind < 2:
            row_bytes = draw(st.integers(0, 192))
            stride = draw(
                st.one_of(
                    st.just(0),
                    st.just(row_bytes),
                    st.integers(-300, -1),
                    st.integers(1, 300),
                )
            )
            records.append(
                TraceRecord(
                    name="ld", category=Category.VMEM if kind else Category.SMEM,
                    fu=FUClass.MEM, latency=0, dsts=(i + 1,), srcs=srcs,
                    addr=draw(st.integers(-256, 2048)), row_bytes=row_bytes,
                    rows=draw(st.integers(0, 4)), stride=stride,
                )
            )
        elif kind == 2:
            records.append(
                TraceRecord(
                    name="br", category=Category.SCTRL, fu=FUClass.INT,
                    latency=1, srcs=srcs, is_branch=True,
                    taken=draw(st.booleans()), pc=draw(st.sampled_from(sites)),
                )
            )
        else:
            records.append(
                TraceRecord(
                    name="alu", category=Category.SARITH, fu=FUClass.INT,
                    latency=1, dsts=(i + 1,), srcs=srcs,
                    addr=draw(st.one_of(st.just(-1), st.integers(0, 2048))),
                    row_bytes=draw(st.integers(0, 64)),
                    rows=draw(st.integers(1, 3)), stride=draw(st.integers(-64, 64)),
                )
            )
    return trace_from_records(records)


def engine_result(trace, core, mem, warm=True):
    """The compiled engine's result, even under REPRO_TIMING_REFERENCE=1."""
    with mock.patch.dict(os.environ):
        os.environ.pop(REFERENCE_ENV, None)
        return BatchCoreModel([(core, mem)]).run(trace, warm=warm)[0]


def reference_result(trace, core, mem, warm=True):
    model = CoreModel(core, mem)
    if warm:
        model.hier.warm(trace)
    return model.run(trace)


def both_results(trace, isa, way):
    machine = get_machine(isa, way)
    return (
        engine_result(trace, machine.core, machine.mem),
        reference_result(trace, machine.core, machine.mem),
    )


class TestDifferential:
    @given(trace=random_trace())
    @settings(max_examples=40, deadline=None)
    def test_columnar_equals_reference_mmx(self, trace):
        columnar, reference = both_results(trace, "mmx64", 2)
        assert columnar == reference

    @given(trace=random_trace())
    @settings(max_examples=40, deadline=None)
    def test_columnar_equals_reference_vmmx_wide(self, trace):
        columnar, reference = both_results(trace, "vmmx128", 8)
        assert columnar == reference

    @given(trace=random_trace(), way=st.sampled_from([2, 4, 8]))
    @settings(max_examples=25, deadline=None)
    def test_columnar_equals_reference_vmmx_all_ways(self, trace, way):
        columnar, reference = both_results(trace, "vmmx64", way)
        assert columnar == reference

    @pytest.mark.parametrize(
        "kernel,isa,way",
        [
            ("addblock", "mmx64", 2),
            ("addblock", "vmmx128", 8),
            ("comp", "vmmx64", 4),
            ("ycc", "mmx128", 2),
        ],
    )
    def test_real_kernel_traces_identical(self, kernel, isa, way):
        from repro.kernels.base import execute
        from repro.kernels.registry import KERNELS

        trace = execute(KERNELS[kernel], isa, seed=0).trace
        columnar, reference = both_results(trace, isa, way)
        assert columnar == reference


class TestCacheWalkDifferential:
    @given(
        trace=cache_walk_trace(),
        mem=tiny_hierarchy(),
        isa=st.sampled_from(["mmx64", "vmmx128"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_tiny_hierarchies_equal_reference(self, trace, mem, isa):
        """The kernel's warm, tag arrays and predictor against the
        oracle's, warm and cold, on hierarchies that evict constantly."""
        core = get_machine(isa, 2).core
        for warm in (True, False):
            engine = engine_result(trace, core, mem, warm=warm)
            assert engine == reference_result(trace, core, mem, warm=warm), warm


class TestCounterSpill:
    def test_high_latency_chain_exceeding_dense_window(self, monkeypatch):
        """Dependent cold misses push issue cycles far past the kernel's
        initial per-cycle counter window (4n + 2048 cycles); the widened
        re-runs must stay cycle-exact."""
        records = []
        for i in range(40):
            records.append(
                TraceRecord(
                    name="ld", category=Category.SMEM, fu=FUClass.MEM,
                    latency=0, dsts=(i + 1,), srcs=(i,) if i else (),
                    addr=(1 << 20) + (1 << 15) * i, row_bytes=8,
                )
            )
        trace = trace_from_records(records)
        monkeypatch.delenv(REFERENCE_ENV, raising=False)
        machine = get_machine("mmx64", 2)
        engine = simulate_trace(trace, machine.core, warm=False)
        reference = reference_result(trace, machine.core, machine.mem, warm=False)
        assert engine == reference
        assert engine.cycles > 40 * 400  # the chain really serialised
        assert engine.cycles > 4 * (4 * len(trace) + 2048)


class TestReferenceGate:
    def test_env_routes_run_through_reference(self, monkeypatch):
        """REPRO_TIMING_REFERENCE=1 makes simulate_trace use the
        reference model; by default it never does."""
        calls = []
        records = []
        records.append(
            TraceRecord(
                name="alu", category=Category.SARITH, fu=FUClass.INT,
                latency=1, dsts=(1,),
            )
        )
        trace = trace_from_records(records)
        config = get_machine("mmx64", 2).core
        original = CoreModel.run

        def spy(self, records):
            calls.append(1)
            return original(self, records)

        monkeypatch.setattr(CoreModel, "run", spy)
        monkeypatch.setenv(REFERENCE_ENV, "1")
        gated = simulate_trace(trace, config)
        assert calls == [1]
        monkeypatch.delenv(REFERENCE_ENV)
        assert simulate_trace(trace, config) == gated
        assert calls == [1]

    def test_gate_off_by_default(self):
        assert os.environ.get(REFERENCE_ENV) != "1"
