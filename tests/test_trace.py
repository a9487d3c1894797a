"""Tests for the columnar trace IR: records, builder, serialisation."""

import os
import subprocess
import sys

import numpy as np
from record_traces import trace_from_records

from repro.isa import opcodes as op
from repro.isa.opcodes import DESCRIPTORS, Category, FUClass
from repro.isa.trace import ColumnarTrace, Trace, TraceBuilder, TraceRecord, record


def rec(category=Category.SARITH, **kw):
    defaults = dict(name="op", fu=FUClass.INT, latency=1)
    defaults.update(kw)
    return TraceRecord(category=category, **defaults)


class TestTraceRecord:
    def test_defaults(self):
        r = rec()
        assert r.rows == 1
        assert not r.is_mem
        assert not r.is_branch

    def test_is_mem(self):
        assert rec(addr=100, row_bytes=8).is_mem
        assert not rec().is_mem

    def test_element_ops_follow_rows(self):
        assert rec(rows=16).element_ops == 16

    def test_vector_categories(self):
        assert Category.VMEM.is_vector
        assert Category.VARITH.is_vector
        assert not Category.SARITH.is_vector
        assert not Category.SMEM.is_vector
        assert not Category.SCTRL.is_vector


class TestTrace:
    def test_counts_by_category(self):
        t = trace_from_records([
            rec(Category.SARITH),
            rec(Category.SARITH),
            rec(Category.VMEM, addr=0, row_bytes=8),
        ])
        assert t.count() == 3
        assert t.count(Category.SARITH) == 2
        assert t.count(Category.VMEM) == 1
        assert t.count(Category.SCTRL) == 0

    def test_category_counts_keys(self):
        t = trace_from_records([rec()])
        counts = t.category_counts()
        assert set(counts) == {"smem", "sarith", "sctrl", "vmem", "varith"}

    def test_vector_fraction(self):
        t = trace_from_records([rec(Category.SARITH), rec(Category.VARITH)])
        assert t.vector_fraction() == 0.5

    def test_vector_fraction_empty(self):
        assert Trace().vector_fraction() == 0.0

    def test_iteration_order(self):
        t = trace_from_records([rec(name="first"), rec(name="second")])
        assert [r.name for r in t] == ["first", "second"]

    def test_summary_mentions_counts(self):
        t = trace_from_records([rec()], "demo")
        assert "demo" in t.summary()
        assert "sarith=1" in t.summary()


def demo_trace(n=7):
    records = [
        rec(name=f"op{i % 3}", dsts=(i + 1,), srcs=(i,) if i else ())
        for i in range(n)
    ]
    records.append(rec(Category.VMEM, name="vld", addr=4096, row_bytes=8, rows=16,
                       stride=800, fu=FUClass.MEM, latency=0, dsts=(100,)))
    records.append(rec(Category.SCTRL, name="br", is_branch=True, taken=True, pc=3))
    records.append(rec(Category.SMEM, name="st", fu=FUClass.MEM, latency=0,
                       addr=64, row_bytes=4, is_store=True, srcs=(2, 3)))
    return trace_from_records(records, "demo")


def demo_builder():
    """A builder holding one instruction of each kind, emitted by opcode."""
    t = Trace("demo")
    t.emit(op.LI, (1,))
    t.emit(op.ADD, (2,), (1,))
    t.emit(op.VLD, (100,), (2,), addr=4096, row_bytes=8, rows=16, stride=800)
    t.emit(op.BR, (), (2,), taken=True, pc=3)
    t.emit(op.STL, (), (2, 1), addr=64, row_bytes=4)
    return t


class TestOpcodeTable:
    def test_mnemonics_unique(self):
        mnemonics = [d[0] for d in DESCRIPTORS]
        assert len(set(mnemonics)) == len(mnemonics)

    def test_static_columns_expand_from_descriptors(self):
        records = list(demo_builder())
        assert [r.name for r in records] == ["li", "add", "vld", "br", "stl"]
        vld, br, st = records[2], records[3], records[4]
        assert (vld.category, vld.fu, vld.latency) == (Category.VMEM, FUClass.MEM, 0)
        assert (vld.rows, vld.stride) == (16, 800)
        assert br.is_branch and br.taken and br.pc == 3 and br.latency == 1
        assert st.is_store and not records[1].is_store
        assert records[1].latency == DESCRIPTORS[op.ADD][3]

    def test_pool_in_first_appearance_order(self):
        """The pool follows emission order, not opcode numbering."""
        t = Trace()
        t.emit(op.VEXT)
        t.emit(op.LI)
        t.emit(op.VEXT)
        cols = t.columns()
        assert op.LI < op.VEXT
        assert cols.mnemonics == ("vext", "li")
        assert cols.name_id.tolist() == [0, 1, 0]


class TestBuilderColumns:
    def test_trace_is_the_builder(self):
        assert Trace is TraceBuilder

    def test_columns_roundtrip_records(self):
        t = demo_builder()
        via_records = [trace_from_records(list(t)).record(i) for i in range(len(t))]
        assert via_records == list(t.records)

    def test_columns_memoised_until_append(self):
        t = demo_builder()
        assert t.columns() is t.columns()
        t.emit(op.ADD, (3,), (2,))
        assert len(t.columns()) == len(t)

    def test_csr_offsets_consistent(self):
        cols = demo_trace().columns()
        assert cols.src_off[0] == 0 and cols.dst_off[0] == 0
        assert cols.src_off[-1] == len(cols.src_ids)
        assert cols.dst_off[-1] == len(cols.dst_ids)
        assert len(cols.src_off) == len(cols) + 1

    def test_negative_indexing(self):
        t = demo_trace()
        assert t.records[-1].name == "st"
        assert t.records[-1].srcs == (2, 3)


class TestSerialisation:
    def test_roundtrip_identical_columns(self):
        cols = demo_trace().columns()
        back = ColumnarTrace.from_bytes(cols.to_bytes())
        assert back == cols
        for attr in ("category", "addr", "rows", "stride", "src_ids", "dst_ids"):
            assert np.array_equal(getattr(back, attr), getattr(cols, attr))
        assert back.mnemonics == cols.mnemonics
        assert back.name == cols.name

    def test_roundtrip_empty_trace(self):
        cols = Trace("empty").columns()
        back = ColumnarTrace.from_bytes(cols.to_bytes())
        assert len(back) == 0
        assert back == cols

    def test_digest_stable_within_process(self):
        assert demo_trace().columns().digest() == demo_trace().columns().digest()

    def test_digest_stable_across_processes(self):
        """A fresh interpreter (fresh hash seed) serialises identically."""
        tests = os.path.dirname(__file__)
        src = os.path.join(os.path.dirname(tests), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, tests, env.get("PYTHONPATH", "")])
        env["PYTHONHASHSEED"] = "random"
        script = (
            "import importlib.util; "
            f"spec = importlib.util.spec_from_file_location('tt', {__file__!r}); "
            "mod = importlib.util.module_from_spec(spec); "
            "spec.loader.exec_module(mod); "
            "print(mod.demo_trace().columns().digest())"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        assert out == demo_trace().columns().digest()

    def test_garbage_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            ColumnarTrace.from_bytes(b"definitely not a trace")
        with pytest.raises(ValueError):
            ColumnarTrace.from_bytes(demo_trace().columns().to_bytes()[:-3])

    def test_kernel_trace_roundtrip(self):
        """A real emulated kernel trace survives the binary round-trip."""
        from repro.kernels.base import execute
        from repro.kernels.registry import KERNELS

        cols = execute(KERNELS["addblock"], "vmmx64", seed=0).trace.columns()
        back = ColumnarTrace.from_bytes(cols.to_bytes())
        assert back == cols
        assert back.digest() == cols.digest()



# ---------------------------------------------------------------------------
# The narrow format: exact types, checked structure, store round trip.
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import pytest  # noqa: E402

from repro.sweep.store import trace_from_payload, trace_to_payload  # noqa: E402

_INT32 = st.integers(-(2**31), 2**31 - 1)
_INT16 = st.integers(-(2**15), 2**15 - 1)


@st.composite
def narrow_records(draw):
    """Record views whose every field fits its column: negative SSA ids
    (the synthetic scalar stream opens with 0, -1, ...), sparse ones,
    up to 255 sources or destinations, and repeated mnemonics with
    different descriptors."""
    ids = st.one_of(st.integers(-3, 40), _INT32)
    return TraceRecord(
        name=draw(st.sampled_from(["ld", "add", "vld"])),
        category=draw(st.sampled_from(list(Category))),
        fu=draw(st.sampled_from(list(FUClass))),
        latency=draw(st.integers(0, 5)),
        dsts=tuple(draw(st.lists(ids, max_size=3))),
        srcs=tuple(draw(st.lists(ids, max_size=3))),
        addr=draw(st.one_of(st.just(-1), _INT32)),
        row_bytes=draw(_INT16),
        rows=draw(_INT16),
        stride=draw(_INT32),
        is_store=draw(st.booleans()),
        is_branch=draw(st.booleans()),
        taken=draw(st.booleans()),
        pc=draw(_INT32),
    )


class TestNarrowFormat:
    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(narrow_records(), max_size=12), name=st.text(max_size=8))
    def test_store_payload_roundtrip(self, records, name):
        cols = trace_from_records(records, name)
        back = trace_from_payload(trace_to_payload(cols))
        assert back == cols
        assert list(back) == records
        assert back.digest() == cols.digest()

    def test_empty_trace_roundtrips_through_the_store(self):
        cols = trace_from_records([])
        assert len(cols.pool) == 0 and cols.nbytes == 0
        assert trace_from_payload(trace_to_payload(cols)) == cols

    def test_columns_hold_the_narrowest_exact_types(self):
        cols = demo_builder().columns()
        dtypes = {attr: getattr(cols, attr).dtype.str for attr in (
            "name_id", "addr", "stride", "pc", "row_bytes", "rows", "taken",
            "n_src", "n_dst", "src_ids", "dst_ids",
        )}
        assert dtypes == {
            "name_id": "<u2", "addr": "<i4", "stride": "<i4", "pc": "<i4",
            "row_bytes": "<i2", "rows": "<i2", "taken": "|b1", "n_src": "|u1",
            "n_dst": "|u1", "src_ids": "<i4", "dst_ids": "<i4",
        }
        assert not cols.addr.flags.writeable

    @pytest.mark.parametrize("field, value", [
        ("addr", 2**31), ("addr", -(2**31) - 1), ("stride", 2**31), ("pc", -(2**40)),
        ("row_bytes", 2**15), ("rows", -(2**15) - 1), ("dsts", (2**31,)),
        ("srcs", (-(2**31) - 1,)), ("srcs", tuple(range(256))), ("addr", 2**70),
    ])
    def test_a_value_that_does_not_fit_raises(self, field, value):
        with pytest.raises(ValueError):
            trace_from_records([rec(**{field: value})])
        builder = Trace()
        builder.emit(op.LDL, **{field: value})
        with pytest.raises(ValueError):
            builder.columns()

    def test_the_pool_keeps_one_row_per_distinct_descriptor(self):
        cols = trace_from_records([rec(latency=1), rec(latency=3), rec(latency=1)])
        assert cols.mnemonics == ("op", "op")
        assert cols.name_id.tolist() == [0, 1, 0]
        assert cols.latency.tolist() == [1, 3, 1]

    @pytest.mark.parametrize("columns, pool", [
        ({"n_src": [1, 1]}, None),                     # sums past its ids
        ({"src_ids": [1, 2]}, None),                   # ids past its counts
        ({"rows": [1]}, None),                         # a short column
        ({"name_id": [1, 0]}, None),                   # pool out of order
        ({"name_id": [0, 2]}, None),                   # past the pool
        ({}, [DESCRIPTORS[op.LI]]),                    # a row no one uses
    ])
    def test_a_malformed_structure_is_refused(self, columns, pool):
        ok = trace_from_records([rec(dsts=(1,)), rec(name="add", srcs=(1,))])
        fields = {attr: getattr(ok, attr) for attr in (
            "name_id", "addr", "stride", "pc", "row_bytes", "rows", "taken",
            "n_src", "n_dst", "src_ids", "dst_ids",
        )}
        fields.update(columns)
        rows = list(ok.pool) + (pool or [])
        with pytest.raises(ValueError):
            ColumnarTrace("bad", rows, **fields)


@st.composite
def emitted(draw):
    """One instruction's :meth:`TraceBuilder.emit` arguments: any opcode,
    negative and sparse SSA ids, up to three sources and one
    destination, and either every other field at its default (what a
    machine's prebuilt :func:`record` holds) or each drawn."""
    ids = st.one_of(st.integers(-3, 40), _INT32)
    fields = dict(
        op=draw(st.integers(0, len(DESCRIPTORS) - 1)),
        srcs=tuple(draw(st.lists(ids, max_size=3))),
        dsts=tuple(draw(st.lists(ids, max_size=1))),
    )
    if draw(st.booleans()):
        fields.update(
            addr=draw(st.one_of(st.just(-1), _INT32)), row_bytes=draw(_INT16),
            rows=draw(_INT16), stride=draw(_INT32), taken=draw(st.booleans()),
            pc=draw(_INT32),
        )
    return fields


class TestAppenders:
    @settings(max_examples=80, deadline=None)
    @given(instructions=st.lists(emitted(), max_size=20), name=st.text(max_size=8))
    def test_appenders_and_emit_build_the_same_trace(self, instructions, name):
        by_emit, by_appenders = Trace(name), Trace(name)
        put, put_ids = by_appenders.appenders()
        for fields in instructions:
            by_emit.emit(**fields)
            srcs, dsts = fields["srcs"], fields["dsts"]
            if "addr" in fields:
                put((
                    fields["op"], fields["addr"], fields["row_bytes"], fields["rows"],
                    fields["stride"], fields["pc"], fields["taken"], len(srcs), len(dsts),
                ))
            else:
                put(record(fields["op"], len(srcs), len(dsts)))
            put_ids(srcs + dsts)
        assert len(by_appenders) == len(by_emit) == len(instructions)
        assert by_appenders.columns().to_bytes() == by_emit.columns().to_bytes()
        assert list(by_appenders.records) == list(by_emit.records)
