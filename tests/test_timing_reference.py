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

from repro.isa.opcodes import Category, FUClass
from repro.isa.trace import Trace, TraceRecord
from repro.machines import get_machine
from repro.timing import simulate_trace
from repro.timing.batch import BatchCoreModel
from repro.timing.core import REFERENCE_ENV, CoreModel


@st.composite
def random_trace(draw, max_len=110):
    """Traces mixing ALU, SIMD (incl. matrix rows), memory and branches."""
    n = draw(st.integers(5, max_len))
    kinds = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    trace = Trace()
    next_id = 1
    for kind in kinds:
        srcs = ()
        if next_id > 2 and draw(st.booleans()):
            srcs = (draw(st.integers(1, next_id - 1)),)
        if kind == 0:
            trace.append(
                TraceRecord(
                    name="alu", category=Category.SARITH, fu=FUClass.INT,
                    latency=draw(st.sampled_from([1, 3])), dsts=(next_id,),
                    srcs=srcs,
                )
            )
            next_id += 1
        elif kind == 1:
            trace.append(
                TraceRecord(
                    name="vop", category=Category.VARITH, fu=FUClass.SIMD,
                    latency=draw(st.sampled_from([1, 3])), dsts=(next_id,),
                    srcs=srcs, rows=draw(st.sampled_from([1, 4, 8, 16])),
                )
            )
            next_id += 1
        elif kind == 2:
            trace.append(
                TraceRecord(
                    name="ld", category=Category.SMEM, fu=FUClass.MEM,
                    latency=0, dsts=(next_id,), srcs=srcs,
                    addr=64 + 32 * draw(st.integers(0, 400)), row_bytes=8,
                )
            )
            next_id += 1
        elif kind == 3:
            trace.append(
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
            trace.append(
                TraceRecord(
                    name="br", category=Category.SCTRL, fu=FUClass.INT,
                    latency=1, srcs=srcs, is_branch=True,
                    taken=draw(st.booleans()), pc=draw(st.integers(1, 4)),
                )
            )
    return trace


def engine_result(trace, machine, warm=True):
    """The compiled engine's result, even under REPRO_TIMING_REFERENCE=1."""
    with mock.patch.dict(os.environ):
        os.environ.pop(REFERENCE_ENV, None)
        return BatchCoreModel([(machine.core, machine.mem)]).run(trace, warm=warm)[0]


def reference_result(trace, machine, warm=True):
    model = CoreModel(machine.core, machine.mem)
    if warm:
        model.hier.warm(trace)
    return model.run(trace)


def both_results(trace, isa, way):
    machine = get_machine(isa, way)
    return engine_result(trace, machine), reference_result(trace, machine)


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


class TestCounterSpill:
    def test_high_latency_chain_exceeding_dense_window(self, monkeypatch):
        """Dependent cold misses push issue cycles far past the kernel's
        initial per-cycle counter window (4n + 2048 cycles); the widened
        re-runs must stay cycle-exact."""
        trace = Trace()
        for i in range(40):
            trace.append(
                TraceRecord(
                    name="ld", category=Category.SMEM, fu=FUClass.MEM,
                    latency=0, dsts=(i + 1,), srcs=(i,) if i else (),
                    addr=(1 << 20) + (1 << 15) * i, row_bytes=8,
                )
            )
        monkeypatch.delenv(REFERENCE_ENV, raising=False)
        machine = get_machine("mmx64", 2)
        engine = simulate_trace(trace, machine.core, warm=False)
        reference = reference_result(trace, machine, warm=False)
        assert engine == reference
        assert engine.cycles > 40 * 400  # the chain really serialised
        assert engine.cycles > 4 * (4 * len(trace) + 2048)


class TestReferenceGate:
    def test_env_routes_run_through_reference(self, monkeypatch):
        """REPRO_TIMING_REFERENCE=1 makes simulate_trace use the
        reference model; by default it never does."""
        calls = []
        trace = Trace()
        trace.append(
            TraceRecord(
                name="alu", category=Category.SARITH, fu=FUClass.INT,
                latency=1, dsts=(1,),
            )
        )
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
