"""Property-based tests on the timing model.

Hypothesis generates small random traces; the model must satisfy basic
sanity laws regardless of the input: monotonicity in resources,
conservation of instruction counts, and cycle-attribution consistency.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from record_traces import trace_from_records

from repro.isa.opcodes import Category, FUClass
from repro.isa.trace import TraceRecord
from repro.machines import get_machine
from repro.timing import simulate_trace


@st.composite
def random_trace(draw, max_len=120):
    n = draw(st.integers(5, max_len))
    kinds = draw(
        st.lists(st.integers(0, 3), min_size=n, max_size=n)
    )
    records = []
    next_id = 1
    for i, kind in enumerate(kinds):
        srcs = ()
        if next_id > 2 and draw(st.booleans()):
            srcs = (draw(st.integers(1, next_id - 1)),)
        if kind == 0:
            records.append(
                TraceRecord(
                    name="alu", category=Category.SARITH, fu=FUClass.INT,
                    latency=1, dsts=(next_id,), srcs=srcs,
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
                    addr=64 + 32 * draw(st.integers(0, 200)), row_bytes=8,
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


def simulate(trace, isa="mmx64", way=2, **overrides):
    config = get_machine(isa, way).core
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return simulate_trace(trace, config)


class TestTimingLaws:
    @given(trace=random_trace())
    @settings(max_examples=25, deadline=None)
    def test_instruction_conservation(self, trace):
        result = simulate(trace)
        assert result.instructions == len(trace)
        assert sum(result.cat_instructions.values()) == len(trace)

    @given(trace=random_trace())
    @settings(max_examples=25, deadline=None)
    def test_cycle_attribution_sums_to_total(self, trace):
        result = simulate(trace)
        assert sum(result.cat_cycles.values()) == result.cycles

    @given(trace=random_trace())
    @settings(max_examples=20, deadline=None)
    def test_wider_never_slower(self, trace):
        narrow = simulate(trace, way=2).cycles
        wide = simulate(trace, way=8).cycles
        assert wide <= narrow

    @given(trace=random_trace())
    @settings(max_examples=20, deadline=None)
    def test_cycles_at_least_width_bound(self, trace):
        result = simulate(trace, way=2)
        assert result.cycles >= len(trace) / 2

    @given(trace=random_trace())
    @settings(max_examples=15, deadline=None)
    def test_bigger_rob_never_slower(self, trace):
        small = simulate(trace, rob_size=8).cycles
        large = simulate(trace, rob_size=1024).cycles
        assert large <= small

    @given(trace=random_trace())
    @settings(max_examples=15, deadline=None)
    def test_deterministic(self, trace):
        assert simulate(trace).cycles == simulate(trace).cycles


class TestFailureInjection:
    def test_broken_kernel_version_is_caught(self, monkeypatch):
        """simulate_kernel must refuse to time an incorrect kernel."""
        from repro.kernels import registry
        from repro.sweep import clear_memory_caches
        from repro.timing import simulator

        spec = registry.KERNELS["comp"]

        def broken(machine, wl):
            pass  # writes nothing: outputs stay zero -> mismatch

        patched = {**spec.versions, "mmx64": broken}
        monkeypatch.setattr(spec, "versions", patched)
        # Bypass both cache layers: the verification must actually run.
        monkeypatch.setenv("REPRO_STORE", "off")
        clear_memory_caches()
        with pytest.raises(AssertionError):
            simulator.simulate_kernel("comp", "mmx64", 2, seed=123)
        clear_memory_caches()

    def test_timing_handles_unknown_register_sources(self):
        """Sources never written (live-ins) must not crash the model."""
        t = trace_from_records([
            TraceRecord(
                name="alu", category=Category.SARITH, fu=FUClass.INT,
                latency=1, dsts=(10,), srcs=(999,),
            )
        ])
        assert simulate(t).cycles >= 1
