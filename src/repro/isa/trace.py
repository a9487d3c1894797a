"""Dynamic instruction traces: columnar structure-of-arrays IR.

The contract between the emulation machines (:mod:`repro.emu`) and the
timing model (:mod:`repro.timing`) is one dynamic instruction per slot:
category, functional unit, register dependences, memory footprint,
vector row count and branch outcome -- and nothing about values, which
the emulation machines have already computed.

Traces at the paper's scale are hundreds of thousands of dynamic
instructions, regenerated and re-timed for every design-space point, so
the representation is *columnar*: parallel NumPy arrays, one per field
(structure of arrays), rather than one Python object per instruction.

* :class:`TraceBuilder` (aliased :class:`Trace`, the name every machine
  and kernel uses) is the append-oriented producer.  ``emit`` records
  an opcode id and the fields that vary per execution -- registers,
  address, footprint, branch outcome; the fields fixed per opcode
  (mnemonic, category, FU, latency, ``is_store``, ``is_branch``) live
  once in :data:`repro.isa.opcodes.DESCRIPTORS` and are expanded when
  the builder is snapshotted.  No per-instruction object is ever
  constructed on the hot path.
* :class:`ColumnarTrace` is the frozen snapshot the timing core walks:
  exact-length arrays plus packed CSR-style src/dst SSA-id columns.  It
  serialises to a compact binary form (:meth:`ColumnarTrace.to_bytes`)
  that the content-addressed result store caches, letting sweeps re-time
  a stored trace without re-emulating the kernel.
* :class:`TraceRecord` remains as the *record view*: a thin materialised
  row used by tests, the disassembler and the reference timing model.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.opcodes import DESCRIPTORS, Category, FUClass

#: Stable category/FU codes used by the columnar encoding.  Order is part
#: of the serialised format -- append only.
CATEGORIES: Tuple[Category, ...] = tuple(Category)
CAT_CODE = {cat: code for code, cat in enumerate(CATEGORIES)}
FUNITS: Tuple[FUClass, ...] = tuple(FUClass)
FU_CODE = {fu: code for code, fu in enumerate(FUNITS)}

#: The static columns of :data:`repro.isa.opcodes.DESCRIPTORS`, indexed
#: by opcode id: :meth:`TraceBuilder.columns` expands each with one
#: take over the opcode column.
OP_MNEMONIC: Tuple[str, ...] = tuple(d[0] for d in DESCRIPTORS)
OP_CATEGORY = np.array([CAT_CODE[d[1]] for d in DESCRIPTORS], dtype=np.uint8)
OP_FU = np.array([FU_CODE[d[2]] for d in DESCRIPTORS], dtype=np.uint8)
OP_LATENCY = np.array([d[3] for d in DESCRIPTORS], dtype=np.int32)
OP_IS_STORE = np.array([d[4] for d in DESCRIPTORS], dtype=bool)
OP_IS_BRANCH = np.array([d[5] for d in DESCRIPTORS], dtype=bool)

#: Magic + version prefix of the binary trace serialisation.
TRACE_MAGIC = b"RPRTRC1\n"

#: (attribute, little-endian dtype) pairs, in serialisation order.  The
#: offset columns precede their id columns so lengths are recoverable.
_COLUMN_SPEC: Tuple[Tuple[str, str], ...] = (
    ("name_id", "<u4"),
    ("category", "u1"),
    ("fu", "u1"),
    ("latency", "<i4"),
    ("addr", "<i8"),
    ("row_bytes", "<i4"),
    ("rows", "<i4"),
    ("stride", "<i8"),
    ("pc", "<i8"),
    ("is_store", "u1"),
    ("is_branch", "u1"),
    ("taken", "u1"),
    ("src_off", "<i8"),
    ("src_ids", "<i8"),
    ("dst_off", "<i8"),
    ("dst_ids", "<i8"),
)


@dataclass(slots=True)
class TraceRecord:
    """One dynamic instruction (the materialised record view).

    ``rows`` is 1 for scalar and MMX instructions; for VMMX instructions it
    is the vector length (number of 64/128-bit matrix rows processed).
    ``stride`` is the byte distance between consecutive rows of a vector
    memory access; ``stride == row_bytes`` means unit-stride.
    """

    name: str
    category: Category
    fu: FUClass
    latency: int
    dsts: Tuple[int, ...] = ()
    srcs: Tuple[int, ...] = ()
    addr: int = -1
    row_bytes: int = 0
    rows: int = 1
    stride: int = 0
    is_store: bool = False
    is_branch: bool = False
    taken: bool = False
    pc: int = 0  # static-branch identity for the branch predictor

    @property
    def is_mem(self) -> bool:
        """Whether this record touches memory."""
        return self.addr >= 0

    @property
    def element_ops(self) -> int:
        """Number of element-row operations this instruction performs."""
        return self.rows


class _RecordSeq(Sequence):
    """Lazy sequence of :class:`TraceRecord` views over columnar storage."""

    __slots__ = ("_cols",)

    def __init__(self, cols: "ColumnarTrace") -> None:
        self._cols = cols

    def __len__(self) -> int:
        return len(self._cols)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._cols.record(i) for i in range(*index.indices(len(self)))]
        return self._cols.record(index)

    def __iter__(self) -> Iterator[TraceRecord]:
        for i in range(len(self)):
            yield self._cols.record(i)


class _TraceView:
    """Shared analytic API over the category column (builder + snapshot)."""

    def category_codes(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def counts(self) -> Counter:
        """Dynamic instruction counts keyed by :class:`Category`."""
        codes = self.category_codes()
        tally = np.bincount(codes, minlength=len(CATEGORIES))
        return Counter(
            {cat: int(tally[code]) for code, cat in enumerate(CATEGORIES) if tally[code]}
        )

    def count(self, category: Optional[Category] = None) -> int:
        """Total dynamic instructions, optionally for one category."""
        codes = self.category_codes()
        if category is None:
            return len(codes)
        return int(np.count_nonzero(codes == CAT_CODE[category]))

    def category_counts(self) -> dict:
        """Counts keyed by category value string (smem, sarith, ...)."""
        tally = np.bincount(self.category_codes(), minlength=len(CATEGORIES))
        return {cat.value: int(tally[code]) for code, cat in enumerate(CATEGORIES)}

    def vector_fraction(self) -> float:
        """Fraction of dynamic instructions in vector categories."""
        codes = self.category_codes()
        if len(codes) == 0:
            return 0.0
        vec = np.count_nonzero(codes == CAT_CODE[Category.VMEM])
        vec += np.count_nonzero(codes == CAT_CODE[Category.VARITH])
        return vec / len(codes)

    def summary(self) -> str:
        """One-line human-readable summary of the stream."""
        counts = self.counts
        parts = ", ".join(
            f"{cat.value}={counts[cat]}" for cat in CATEGORIES if counts[cat]
        )
        name = getattr(self, "name", "") or "anon"
        return f"Trace({name}: {len(self)} instrs; {parts})"


class ColumnarTrace(_TraceView):
    """Frozen structure-of-arrays snapshot of a dynamic trace.

    All per-record columns have exactly ``len(self)`` entries; the packed
    ``src_ids``/``dst_ids`` columns are indexed CSR-style through the
    ``src_off``/``dst_off`` offset columns (record ``i`` reads slots
    ``off[i]:off[i+1]``).  Mnemonics are pooled: ``name_id`` indexes the
    ``mnemonics`` tuple.
    """

    __slots__ = ("name", "mnemonics") + tuple(name for name, _ in _COLUMN_SPEC)

    def __init__(self, name: str, mnemonics: Tuple[str, ...], **columns) -> None:
        self.name = name
        self.mnemonics = tuple(mnemonics)
        for attr, _ in _COLUMN_SPEC:
            setattr(self, attr, columns[attr])

    def __len__(self) -> int:
        return len(self.category)

    def category_codes(self) -> np.ndarray:
        return self.category

    def columns(self) -> "ColumnarTrace":
        """Uniform access point shared with :class:`TraceBuilder`."""
        return self

    # -- record views ------------------------------------------------------

    def record(self, i: int) -> TraceRecord:
        """Materialise one :class:`TraceRecord` row view."""
        n = len(self)
        original = i
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"trace index {original} out of range")
        so, se = int(self.src_off[i]), int(self.src_off[i + 1])
        do, de = int(self.dst_off[i]), int(self.dst_off[i + 1])
        return TraceRecord(
            name=self.mnemonics[self.name_id[i]],
            category=CATEGORIES[self.category[i]],
            fu=FUNITS[self.fu[i]],
            latency=int(self.latency[i]),
            dsts=tuple(int(x) for x in self.dst_ids[do:de]),
            srcs=tuple(int(x) for x in self.src_ids[so:se]),
            addr=int(self.addr[i]),
            row_bytes=int(self.row_bytes[i]),
            rows=int(self.rows[i]),
            stride=int(self.stride[i]),
            is_store=bool(self.is_store[i]),
            is_branch=bool(self.is_branch[i]),
            taken=bool(self.taken[i]),
            pc=int(self.pc[i]),
        )

    @property
    def records(self) -> _RecordSeq:
        """Lazy record-view sequence (tests, disassembler)."""
        return _RecordSeq(self)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return (
            self.name == other.name
            and self.mnemonics == other.mnemonics
            and all(
                np.array_equal(getattr(self, attr), getattr(other, attr))
                for attr, _ in _COLUMN_SPEC
            )
        )

    #: Structurally comparable but backed by mutable arrays: explicitly
    #: unhashable (key memos by (kernel, version, seed) or ``digest()``).
    __hash__ = None

    # -- binary serialisation ---------------------------------------------

    def to_bytes(self) -> bytes:
        """Compact deterministic binary form (little-endian columns).

        Layout: magic, 4-byte header length, canonical-JSON header
        (name, mnemonic pool, column lengths), then each column's raw
        little-endian bytes in :data:`_COLUMN_SPEC` order.  The encoding
        is byte-stable across processes and platforms, so its digest can
        address the content store.
        """
        header = {
            "name": self.name,
            "mnemonics": list(self.mnemonics),
            "n": len(self),
            "n_src": int(len(self.src_ids)),
            "n_dst": int(len(self.dst_ids)),
        }
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        parts = [TRACE_MAGIC, struct.pack("<I", len(blob)), blob]
        for attr, dtype in _COLUMN_SPEC:
            arr = np.ascontiguousarray(getattr(self, attr))
            parts.append(arr.astype(dtype, copy=False).tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ColumnarTrace":
        """Inverse of :meth:`to_bytes` (raises ``ValueError`` on garbage)."""
        if not data.startswith(TRACE_MAGIC):
            raise ValueError("not a serialised columnar trace")
        pos = len(TRACE_MAGIC)
        if len(data) < pos + 4:
            raise ValueError("truncated columnar trace")
        (hlen,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if len(data) < pos + hlen:
            raise ValueError("truncated columnar trace")
        header = json.loads(data[pos: pos + hlen].decode("utf-8"))
        pos += hlen
        n = int(header["n"])
        lengths = {
            "src_off": n + 1,
            "dst_off": n + 1,
            "src_ids": int(header["n_src"]),
            "dst_ids": int(header["n_dst"]),
        }
        columns = {}
        for attr, dtype in _COLUMN_SPEC:
            count = lengths.get(attr, n)
            dt = np.dtype(dtype)
            nbytes = count * dt.itemsize
            if pos + nbytes > len(data):
                raise ValueError("truncated columnar trace")
            raw = np.frombuffer(data, dtype=dt, count=count, offset=pos).copy()
            pos += nbytes
            if attr in ("is_store", "is_branch", "taken"):
                raw = raw.astype(bool)
            columns[attr] = raw
        if pos != len(data):
            raise ValueError("trailing bytes after columnar trace")
        return cls(header["name"], tuple(header["mnemonics"]), **columns)

    def digest(self) -> str:
        """SHA-256 of the serialised form (stable across processes)."""
        return hashlib.sha256(self.to_bytes()).hexdigest()

    def content_digest(self) -> str:
        """SHA-256 of the serialised form with the name neutralised.

        :meth:`digest` covers the trace *name* (``kernel/version``),
        which is part of the store payload; this digest covers only the
        dynamic instruction stream, so two differently-named traces with
        identical content compare equal.  The differential suites use it
        to pin e.g. the VLA-at-VL-8 stream against MMX64's.
        """
        stripped = ColumnarTrace(
            "", self.mnemonics,
            **{attr: getattr(self, attr) for attr, _ in _COLUMN_SPEC},
        )
        return stripped.digest()


class TraceBuilder(_TraceView):
    """Append-oriented columnar trace producer.

    ``emit`` is the hot path: it appends an opcode id (an index into
    :data:`repro.isa.opcodes.DESCRIPTORS`) and the instruction's dynamic
    fields onto Python list columns.  :meth:`columns` converts them to
    exact-length NumPy arrays, expands the static columns (category,
    FU, latency, ``is_store``, ``is_branch``) from the opcode column and
    pools the mnemonics in first-appearance order; the snapshot is
    memoised until the next ``emit``.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._ops: List[int] = []
        self._addr: List[int] = []
        self._rowb: List[int] = []
        self._rows: List[int] = []
        self._stride: List[int] = []
        self._pc: List[int] = []
        self._taken: List[bool] = []
        self._src_off: List[int] = [0]
        self._src_ids: List[int] = []
        self._dst_off: List[int] = [0]
        self._dst_ids: List[int] = []
        self._snapshot: Optional[ColumnarTrace] = None
        # Bound append methods: one attribute lookup per *builder*, not
        # per emitted instruction.
        self._ops_append = self._ops.append
        self._addr_append = self._addr.append
        self._rowb_append = self._rowb.append
        self._rows_append = self._rows.append
        self._stride_append = self._stride.append
        self._pc_append = self._pc.append
        self._taken_append = self._taken.append
        self._src_off_append = self._src_off.append
        self._dst_off_append = self._dst_off.append

    def emit(
        self,
        op: int,
        dsts: Tuple[int, ...] = (),
        srcs: Tuple[int, ...] = (),
        addr: int = -1,
        row_bytes: int = 0,
        rows: int = 1,
        stride: int = 0,
        taken: bool = False,
        pc: int = 0,
    ) -> None:
        """Append one dynamic instruction: opcode id plus dynamic fields."""
        self._ops_append(op)
        self._addr_append(addr)
        self._rowb_append(row_bytes)
        self._rows_append(rows)
        self._stride_append(stride)
        self._pc_append(pc)
        self._taken_append(taken)
        if srcs:
            self._src_ids.extend(srcs)
        self._src_off_append(len(self._src_ids))
        if dsts:
            self._dst_ids.extend(dsts)
        self._dst_off_append(len(self._dst_ids))

    def columns(self) -> ColumnarTrace:
        """The current contents as exact-length NumPy columns (memoised)."""
        n = len(self._ops)
        if self._snapshot is not None and len(self._snapshot) == n:
            return self._snapshot
        ops = np.asarray(self._ops, dtype=np.intp)
        # The pool holds the mnemonics in first-appearance order, which
        # keeps ``to_bytes()`` independent of the opcode numbering.
        pooled = list(dict.fromkeys(self._ops))
        name_of_op = np.zeros(len(OP_MNEMONIC), dtype=np.uint32)
        name_of_op[pooled] = np.arange(len(pooled), dtype=np.uint32)
        self._snapshot = ColumnarTrace(
            self.name,
            tuple(OP_MNEMONIC[op] for op in pooled),
            name_id=name_of_op[ops],
            category=OP_CATEGORY[ops],
            fu=OP_FU[ops],
            latency=OP_LATENCY[ops],
            addr=np.asarray(self._addr, dtype=np.int64),
            row_bytes=np.asarray(self._rowb, dtype=np.int32),
            rows=np.asarray(self._rows, dtype=np.int32),
            stride=np.asarray(self._stride, dtype=np.int64),
            pc=np.asarray(self._pc, dtype=np.int64),
            is_store=OP_IS_STORE[ops],
            is_branch=OP_IS_BRANCH[ops],
            taken=np.asarray(self._taken, dtype=bool),
            src_off=np.asarray(self._src_off, dtype=np.int64),
            src_ids=np.asarray(self._src_ids, dtype=np.int64),
            dst_off=np.asarray(self._dst_off, dtype=np.int64),
            dst_ids=np.asarray(self._dst_ids, dtype=np.int64),
        )
        return self._snapshot

    # -- stream API --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ops)

    def category_codes(self) -> np.ndarray:
        return self.columns().category

    @property
    def records(self) -> _RecordSeq:
        """Lazy record-view sequence over the current contents."""
        return _RecordSeq(self.columns())

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)


#: The name the emulation machines, kernels and tests use.
Trace = TraceBuilder
