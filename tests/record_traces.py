"""Build columnar traces from record views, for tests.

The emulation machines produce traces through
:meth:`repro.isa.trace.TraceBuilder.emit`, which takes an opcode id
whose static fields come from :data:`repro.isa.opcodes.DESCRIPTORS`.
Tests that need arbitrary instructions -- any mnemonic, category, unit
or latency -- describe them as :class:`~repro.isa.trace.TraceRecord`
rows and build the snapshot here.
"""

from typing import Iterable

import numpy as np

from repro.isa.trace import CAT_CODE, FU_CODE, ColumnarTrace, TraceRecord


def _offsets(lengths) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def trace_from_records(records: Iterable[TraceRecord], name: str = "") -> ColumnarTrace:
    """The :class:`ColumnarTrace` holding ``records`` in order.

    Mnemonics are pooled in first-appearance order, as a builder pools
    them, so the result serialises exactly like an emitted trace.
    """
    records = list(records)
    pool = {}
    name_id = [pool.setdefault(r.name, len(pool)) for r in records]
    return ColumnarTrace(
        name,
        tuple(pool),
        name_id=np.asarray(name_id, dtype=np.uint32),
        category=np.asarray([CAT_CODE[r.category] for r in records], dtype=np.uint8),
        fu=np.asarray([FU_CODE[r.fu] for r in records], dtype=np.uint8),
        latency=np.asarray([r.latency for r in records], dtype=np.int32),
        addr=np.asarray([r.addr for r in records], dtype=np.int64),
        row_bytes=np.asarray([r.row_bytes for r in records], dtype=np.int32),
        rows=np.asarray([r.rows for r in records], dtype=np.int32),
        stride=np.asarray([r.stride for r in records], dtype=np.int64),
        pc=np.asarray([r.pc for r in records], dtype=np.int64),
        is_store=np.asarray([r.is_store for r in records], dtype=bool),
        is_branch=np.asarray([r.is_branch for r in records], dtype=bool),
        taken=np.asarray([r.taken for r in records], dtype=bool),
        src_off=_offsets([len(r.srcs) for r in records]),
        src_ids=np.asarray([i for r in records for i in r.srcs], dtype=np.int64),
        dst_off=_offsets([len(r.dsts) for r in records]),
        dst_ids=np.asarray([i for r in records for i in r.dsts], dtype=np.int64),
    )
