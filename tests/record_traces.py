"""Build columnar traces from record views, for tests.

The emulation machines produce traces through
:meth:`repro.isa.trace.TraceBuilder.emit`, which takes an opcode id
whose static fields come from :data:`repro.isa.opcodes.DESCRIPTORS`.
Tests that need arbitrary instructions -- any mnemonic, category, unit
or latency -- describe them as :class:`~repro.isa.trace.TraceRecord`
rows and build the snapshot here.
"""

from typing import Iterable

from repro.isa.trace import ColumnarTrace, TraceRecord


def trace_from_records(records: Iterable[TraceRecord], name: str = "") -> ColumnarTrace:
    """The :class:`ColumnarTrace` holding ``records`` in order.

    Each distinct descriptor (mnemonic, category, unit, latency,
    ``is_store``, ``is_branch``) is one pool row, in first-appearance
    order, as a builder pools its opcodes, so the result serialises
    exactly like an emitted trace.  A field that does not fit its
    column raises :class:`ValueError`.
    """
    records = list(records)
    pool = {}
    name_id = [pool.setdefault(r.descriptor, len(pool)) for r in records]
    return ColumnarTrace(
        name,
        list(pool),
        name_id=name_id,
        addr=[r.addr for r in records],
        stride=[r.stride for r in records],
        pc=[r.pc for r in records],
        row_bytes=[r.row_bytes for r in records],
        rows=[r.rows for r in records],
        taken=[bool(r.taken) for r in records],
        n_src=[len(r.srcs) for r in records],
        n_dst=[len(r.dsts) for r in records],
        src_ids=[i for r in records for i in r.srcs],
        dst_ids=[i for r in records for i in r.dsts],
    )
