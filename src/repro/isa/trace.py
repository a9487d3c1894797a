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
  and kernel uses) is the append-oriented producer.  It holds one
  record per instruction -- an opcode id and the fields that vary per
  execution -- plus its register ids, which the machines append through
  its bound appenders (``emit`` is the keyword front end); the fields
  fixed per opcode (mnemonic, category, FU, latency, ``is_store``,
  ``is_branch``) live once in :data:`repro.isa.opcodes.DESCRIPTORS`.
  An instruction whose fields are fixed appends a record tuple built
  once per opcode.
* :class:`ColumnarTrace` is the frozen snapshot the timing core walks.
  It holds only what varies, each column in the narrowest exact fixed
  type: a per-trace descriptor *pool* (one row per distinct opcode, in
  first-appearance order) indexed by a ``uint16`` column, int32
  addresses, strides and pcs, int16 row widths and row counts, the
  branch outcome, uint8 source and destination counts, and the packed
  int32 SSA ids those counts index.  It serialises to a compact binary
  form (:meth:`ColumnarTrace.to_bytes`) that the content-addressed
  result store caches, letting sweeps re-time a stored trace without
  re-emulating the kernel.
* :class:`TraceRecord` remains as the *record view*: a thin materialised
  row used by tests, the disassembler and the reference timing model.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.opcodes import DESCRIPTORS, Category, Descriptor, FUClass

#: Stable category/FU codes used by the columnar encoding.  Order is part
#: of the in-memory pool tables -- append only.
CATEGORIES: Tuple[Category, ...] = tuple(Category)
CAT_CODE = {cat: code for code, cat in enumerate(CATEGORIES)}
FUNITS: Tuple[FUClass, ...] = tuple(FUClass)
FU_CODE = {fu: code for code, fu in enumerate(FUNITS)}

#: Magic + version prefix of the binary trace serialisation.
TRACE_MAGIC = b"RPRTRC2\n"

#: Per-instruction columns: (attribute, little-endian dtype).
_COLUMN_SPEC: Tuple[Tuple[str, str], ...] = (
    ("name_id", "<u2"),
    ("addr", "<i4"),
    ("stride", "<i4"),
    ("pc", "<i4"),
    ("row_bytes", "<i2"),
    ("rows", "<i2"),
    ("taken", "|b1"),
    ("n_src", "u1"),
    ("n_dst", "u1"),
)
#: The packed SSA-id columns, each with the count column indexing it.
_ID_SPEC: Tuple[Tuple[str, str], ...] = (("src_ids", "n_src"), ("dst_ids", "n_dst"))
_ID_DTYPE = "<i4"

_DTYPES: Dict[str, np.dtype] = {
    attr: np.dtype(dtype) for attr, dtype in _COLUMN_SPEC
}
_DTYPES.update((attr, np.dtype(_ID_DTYPE)) for attr, _ in _ID_SPEC)

#: Serialisation order: widest columns first, so every column of an
#: encoding whose first column is 4-byte aligned is aligned too.
_SERIAL_ORDER: Tuple[str, ...] = tuple(
    sorted(_DTYPES, key=lambda attr: -_DTYPES[attr].itemsize)
)


def _narrow(values: Any, dtype: np.dtype, what: str) -> np.ndarray:
    """``values`` as a contiguous array of ``dtype``; never truncated.

    An array already of ``dtype`` is taken as it is (copied only if it is
    not contiguous).  Anything else must hold integers (or booleans)
    that ``dtype`` represents exactly; otherwise :class:`ValueError`.
    """
    try:
        arr = np.asarray(values)
    except OverflowError:
        raise ValueError(f"column {what} holds a value outside int64") from None
    if arr.ndim != 1:
        raise ValueError(f"column {what} must be one-dimensional")
    if arr.dtype == dtype:
        return np.ascontiguousarray(arr)
    if arr.size == 0:
        return np.zeros(0, dtype=dtype)
    if arr.dtype.kind not in "biu":
        raise ValueError(f"column {what} must hold integers, not {arr.dtype}")
    lo, hi = int(arr.min()), int(arr.max())
    if dtype.kind == "b":
        least, most = 0, 1
    else:
        info = np.iinfo(dtype)
        least, most = int(info.min), int(info.max)
    if lo < least or hi > most:
        raise ValueError(
            f"column {what} holds values in [{lo}, {hi}], outside {dtype.name}"
        )
    return arr.astype(dtype)


def _descriptor(row: Sequence[Any]) -> Descriptor:
    """One pool row, checked: ``(mnemonic, Category, FUClass, latency,
    is_store, is_branch)``, the shape of the ``DESCRIPTORS`` rows."""
    try:
        mnemonic, category, fu, latency, is_store, is_branch = row
    except (TypeError, ValueError):
        raise ValueError(f"pool row {row!r} is not a 6-field descriptor") from None
    if (
        not isinstance(mnemonic, str)
        or not isinstance(category, Category)
        or not isinstance(fu, FUClass)
        or not isinstance(latency, (int, np.integer))
        or isinstance(latency, bool)
        or not -(2**63) <= latency < 2**63
    ):
        raise ValueError(f"pool row {row!r} is not a valid descriptor")
    return (mnemonic, category, fu, int(latency), bool(is_store), bool(is_branch))


@functools.lru_cache(maxsize=256)
def _pool_tables(pool: Tuple[Descriptor, ...]) -> Tuple[Any, ...]:
    """The mnemonics and the read-only per-row tables of a checked pool:
    category and unit codes, latency, ``is_store``, ``is_branch``.
    Traces of one program share their pool, and so these tables."""
    tables = (
        np.array([CAT_CODE[row[1]] for row in pool], dtype=np.uint8),
        np.array([FU_CODE[row[2]] for row in pool], dtype=np.uint8),
        np.array([row[3] for row in pool], dtype=np.int64),
        np.array([row[4] for row in pool], dtype=bool),
        np.array([row[5] for row in pool], dtype=bool),
    )
    for table in tables:
        table.flags.writeable = False
    return (tuple(row[0] for row in pool),) + tables


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

    @property
    def descriptor(self) -> Descriptor:
        """The static fields, as one pool row."""
        return (
            self.name, self.category, self.fu, self.latency,
            self.is_store, self.is_branch,
        )


class _RecordSeq(Sequence):
    """Lazy sequence of :class:`TraceRecord` views over columnar storage."""

    __slots__ = ("_cols",)

    def __init__(self, cols: "ColumnarTrace") -> None:
        self._cols = cols

    def __len__(self) -> int:
        return len(self._cols)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1:
                return list(self._cols.iter_records(start, stop))
            return [self._cols.record(i) for i in range(start, stop, step)]
        return self._cols.record(index)

    def __iter__(self) -> Iterator[TraceRecord]:
        return self._cols.iter_records()


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


def _dense(*columns: np.ndarray) -> Tuple[int, int]:
    """``(base, span)`` indexing every value of ``columns`` as ``value -
    base`` into an array of ``span`` slots, or ``(0, -1)`` when that
    array would be sparse (more than four slots a value, plus 1,024)."""
    present = [column for column in columns if len(column)]
    if not present:
        return 0, 0
    lo = min(int(column.min()) for column in present)
    span = max(int(column.max()) for column in present) - lo + 1
    count = sum(len(column) for column in present)
    return (lo, span) if span <= 4 * count + 1024 else (0, -1)


class ColumnarTrace(_TraceView):
    """Frozen structure-of-arrays snapshot of a dynamic trace.

    ``pool`` holds one descriptor row ``(mnemonic, category, fu, latency,
    is_store, is_branch)`` per distinct opcode, in first-appearance
    order, every row used; ``name_id`` indexes it.  The other
    per-instruction columns are the dynamic fields (see
    :data:`_COLUMN_SPEC`).  ``src_ids``/``dst_ids`` pack every
    instruction's SSA register ids in order; record ``i`` owns
    ``n_src[i]``/``n_dst[i]`` of them.

    The constructor narrows each column to its exact type (a value that
    does not fit raises :class:`ValueError`, never truncates), checks
    the structure -- every column has its declared length, each count
    column sums to its id column's length, the pool is in
    first-appearance order -- and makes every array read-only, so the
    compiled timing kernel can index by the counts without checking
    them.  The static columns (``category``, ``fu``, ``latency``,
    ``is_store``, ``is_branch``) and the CSR offsets (``src_off``,
    ``dst_off``) stay readable, computed on access.
    """

    __slots__ = (
        ("name", "pool", "mnemonics", "op_category", "op_fu", "op_latency",
         "op_is_store", "op_is_branch", "_facts")
        + tuple(_DTYPES)
    )

    def __init__(self, name: str, pool: Sequence[Sequence[Any]], **columns) -> None:
        self.name = name
        self.pool = tuple(_descriptor(row) for row in pool)
        (self.mnemonics, self.op_category, self.op_fu, self.op_latency,
         self.op_is_store, self.op_is_branch) = _pool_tables(self.pool)
        for attr, dtype in _DTYPES.items():
            if attr not in columns:
                raise ValueError(f"missing column {attr}")
            setattr(self, attr, _narrow(columns[attr], dtype, attr))
        self._check()
        for attr in _DTYPES:
            getattr(self, attr).flags.writeable = False
        self._facts: Dict[str, Any] = {}

    def _check(self) -> None:
        n = len(self.name_id)
        for attr, _ in _COLUMN_SPEC:
            if len(getattr(self, attr)) != n:
                raise ValueError(
                    f"column {attr} has {len(getattr(self, attr))} entries, not {n}"
                )
        for ids, counts in _ID_SPEC:
            total = int(getattr(self, counts).sum(dtype=np.int64))
            if total != len(getattr(self, ids)):
                raise ValueError(
                    f"{counts} sums to {total}, but {ids} holds "
                    f"{len(getattr(self, ids))} ids"
                )
        if n == 0:
            if self.pool:
                raise ValueError("an empty trace has an empty pool")
            return
        seen = np.maximum.accumulate(self.name_id)
        if (
            self.name_id[0] != 0
            or int(seen[-1]) != len(self.pool) - 1
            or (n > 1 and int((seen[1:] - seen[:-1]).max()) > 1)
        ):
            raise ValueError(
                "the pool must list its rows in first-appearance order, "
                "each used by some instruction"
            )

    def __len__(self) -> int:
        return len(self.name_id)

    # -- static columns, looked up through the pool -------------------------

    @property
    def category(self) -> np.ndarray:
        return self.op_category[self.name_id]

    @property
    def fu(self) -> np.ndarray:
        return self.op_fu[self.name_id]

    @property
    def latency(self) -> np.ndarray:
        return self.op_latency[self.name_id]

    @property
    def is_store(self) -> np.ndarray:
        return self.op_is_store[self.name_id]

    @property
    def is_branch(self) -> np.ndarray:
        return self.op_is_branch[self.name_id]

    @property
    def src_off(self) -> np.ndarray:
        """CSR offsets of ``src_ids``: record ``i`` reads ``off[i]:off[i+1]``."""
        return np.concatenate(([0], np.cumsum(self.n_src, dtype=np.int64)))

    @property
    def dst_off(self) -> np.ndarray:
        """CSR offsets of ``dst_ids``."""
        return np.concatenate(([0], np.cumsum(self.n_dst, dtype=np.int64)))

    @property
    def nbytes(self) -> int:
        """In-memory footprint: the columns and the pool tables."""
        total = sum(getattr(self, attr).nbytes for attr in _DTYPES)
        tables = (self.op_category, self.op_fu, self.op_latency,
                  self.op_is_store, self.op_is_branch)
        return total + sum(table.nbytes for table in tables)

    def category_codes(self) -> np.ndarray:
        return self.category

    def columns(self) -> "ColumnarTrace":
        """Uniform access point shared with :class:`TraceBuilder`."""
        return self

    # -- facts of the frozen trace, computed once ----------------------------

    def _fact(self, name: str, compute):
        facts = self._facts
        if name not in facts:
            facts[name] = compute()
        return facts[name]

    def category_instructions(self) -> Dict[str, int]:
        """Instructions per category value, in first-occurrence order.

        That is the order of the pool's categories, as each pool row
        first appears after the rows before it.  Shared: do not mutate.
        """
        def compute():
            counts = np.bincount(self.name_id, minlength=len(self.pool)).tolist()
            tally: Dict[str, int] = {}
            for row, count in zip(self.pool, counts):
                tally[row[1].value] = tally.get(row[1].value, 0) + count
            return tally
        return self._fact("category_instructions", compute)

    def register_ids(self) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """``(src_ids, dst_ids, base, n_regs)`` for a flat scoreboard.

        Every id satisfies ``0 <= id - base < n_regs``.  Emulated traces
        number their ids densely, and synthetic ones from a negative
        start, so these are the id columns themselves; sparse
        (hand-built) ids are renumbered densely from zero once.
        Dependences only ever compare ids for equality.
        """
        def compute():
            base, span = _dense(self.src_ids, self.dst_ids)
            if span >= 0:
                return self.src_ids, self.dst_ids, base, span
            unique, dense = np.unique(
                np.concatenate([self.src_ids, self.dst_ids]), return_inverse=True
            )
            dense = dense.astype(np.int32)
            n_src = len(self.src_ids)
            return dense[:n_src], dense[n_src:], 0, len(unique)
        return self._fact("register_ids", compute)

    def branch_sites(self) -> Tuple[np.ndarray, int, int]:
        """``(site, base, n_sites)`` for a flat branch-predictor table.

        Every branch ``i`` satisfies ``0 <= site[i] - base < n_sites``,
        and two branches share a slot exactly when they share a pc.
        ``site`` is the pc column itself unless the pcs are sparse
        (hand-built traces), which are numbered densely once.
        """
        def compute():
            branches = self.is_branch
            pcs = self.pc[branches]
            base, span = _dense(pcs)
            if span >= 0:
                return self.pc, base, span
            unique, dense = np.unique(pcs, return_inverse=True)
            site = np.zeros(len(self), dtype=np.int32)
            site[branches] = dense
            return site, 0, len(unique)
        return self._fact("branch_sites", compute)

    def pointers(self) -> Dict[str, int]:
        """The data address of every column, pool table and id or site
        array the compiled timing kernel reads in place, taken once.

        The constructor checked, narrowed and froze each column, and the
        trace holds every array these point into (``src_ids``,
        ``dst_ids`` and ``site`` are :meth:`register_ids` and
        :meth:`branch_sites`), so a holder of the trace may pass them
        as raw pointers.
        """
        def compute():
            src_ids, dst_ids, _, _ = self.register_ids()
            arrays = {attr: getattr(self, attr) for attr in _DTYPES}
            arrays.update(
                src_ids=src_ids, dst_ids=dst_ids, site=self.branch_sites()[0],
                op_fu=self.op_fu, op_latency=self.op_latency,
                op_is_branch=self.op_is_branch,
            )
            return {name: array.ctypes.data for name, array in arrays.items()}
        return self._fact("pointers", compute)

    # -- record views ------------------------------------------------------

    def record(self, i: int) -> TraceRecord:
        """Materialise one :class:`TraceRecord` row view."""
        n = len(self)
        original = i
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"trace index {original} out of range")
        return next(self.iter_records(i, i + 1))

    def iter_records(self, start: int = 0, stop: Optional[int] = None) -> Iterator[TraceRecord]:
        """Record views of instructions ``start:stop``, in order."""
        stop = len(self) if stop is None else stop
        s = int(self.n_src[:start].sum(dtype=np.int64))
        d = int(self.n_dst[:start].sum(dtype=np.int64))
        window = slice(start, stop)
        src = self.src_ids[s: s + int(self.n_src[window].sum(dtype=np.int64))].tolist()
        dst = self.dst_ids[d: d + int(self.n_dst[window].sum(dtype=np.int64))].tolist()
        pool = self.pool
        s = d = 0
        for op, addr, row_bytes, rows, stride, taken, pc, ns, nd in zip(
            self.name_id[window].tolist(), self.addr[window].tolist(),
            self.row_bytes[window].tolist(), self.rows[window].tolist(),
            self.stride[window].tolist(), self.taken[window].tolist(),
            self.pc[window].tolist(), self.n_src[window].tolist(),
            self.n_dst[window].tolist(),
        ):
            name, category, fu, latency, is_store, is_branch = pool[op]
            yield TraceRecord(
                name, category, fu, latency, tuple(dst[d: d + nd]),
                tuple(src[s: s + ns]), addr, row_bytes, rows, stride,
                is_store, is_branch, taken, pc,
            )
            s += ns
            d += nd

    @property
    def records(self) -> _RecordSeq:
        """Lazy record-view sequence (tests, disassembler)."""
        return _RecordSeq(self)

    def __iter__(self) -> Iterator[TraceRecord]:
        return self.iter_records()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return (
            self.name == other.name
            and self.pool == other.pool
            and all(
                np.array_equal(getattr(self, attr), getattr(other, attr))
                for attr in _DTYPES
            )
        )

    #: Structurally comparable but backed by arrays: explicitly
    #: unhashable (key memos by (kernel, version, seed) or ``digest()``).
    __hash__ = None

    # -- binary serialisation ---------------------------------------------

    def to_bytes(self) -> bytes:
        """Compact deterministic binary form (little-endian columns).

        Layout: magic, 4-byte header length, canonical-JSON header (name,
        descriptor pool with categories and units by value, instruction
        and id counts) padded with spaces so the columns start 8-byte
        aligned, then each column's raw little-endian bytes, widest
        first (:data:`_SERIAL_ORDER`).  The encoding is byte-stable
        across processes and platforms, so its digest can address the
        content store.
        """
        return self._encode(self.name)

    def _encode(self, name: str) -> bytes:
        header = {
            "name": name,
            "pool": [
                [mnemonic, category.value, fu.value, latency, is_store, is_branch]
                for mnemonic, category, fu, latency, is_store, is_branch in self.pool
            ],
            "n": len(self),
            "n_src": len(self.src_ids),
            "n_dst": len(self.dst_ids),
        }
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        blob += b" " * (-(len(TRACE_MAGIC) + 4 + len(blob)) % 8)
        parts = [TRACE_MAGIC, struct.pack("<I", len(blob)), blob]
        parts.extend(getattr(self, attr).tobytes() for attr in _SERIAL_ORDER)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ColumnarTrace":
        """Inverse of :meth:`to_bytes` (raises ``ValueError`` on garbage).

        The columns are read-only views of ``data``, not copies.  The
        constructor's checks run on them, so a payload whose counts do
        not match its id columns is refused like any other garbage.
        """
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
        try:
            name = header["name"]
            n = int(header["n"])
            lengths = {"src_ids": int(header["n_src"]), "dst_ids": int(header["n_dst"])}
            pool = [
                (mnemonic, Category(category), FUClass(fu), latency, is_store, is_branch)
                for mnemonic, category, fu, latency, is_store, is_branch in header["pool"]
            ]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed columnar trace header: {exc!r}") from None
        if min(n, *lengths.values()) < 0:
            raise ValueError("negative length in columnar trace header")
        columns = {}
        for attr in _SERIAL_ORDER:
            dtype = _DTYPES[attr]
            count = lengths.get(attr, n)
            nbytes = count * dtype.itemsize
            if pos + nbytes > len(data):
                raise ValueError("truncated columnar trace")
            column = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
            columns[attr] = column if column.flags.aligned else column.copy()
            pos += nbytes
        if pos != len(data):
            raise ValueError("trailing bytes after columnar trace")
        return cls(name, pool, **columns)

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
        return hashlib.sha256(self._encode("")).hexdigest()


def _first_appearance(values: np.ndarray) -> np.ndarray:
    """The distinct ``values`` (unsigned, at most 16 bits) in the order
    they first appear: a stable (radix) sort ranks them, and each
    value's first index orders the distinct ones."""
    if not len(values):
        return values
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    first = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    return ranked[first][np.argsort(order[first])]


#: The builder's one record layout, a tuple per instruction: opcode,
#: addr, row_bytes, rows, stride, pc, taken, number of sources, number of
#: destinations.  The instruction's register ids, its sources and then
#: its destinations, go to a second list.
_RECORD_FIELDS = ("op", "addr", "row_bytes", "rows", "stride", "pc", "taken", "n_src", "n_dst")
_WIDTH = len(_RECORD_FIELDS)


def record(op: int, n_src: int, n_dst: int) -> Tuple[int, ...]:
    """The record of an instruction whose every field but the opcode and
    its operand counts takes its default (no memory access, one row, not
    a branch), in :class:`TraceBuilder`'s layout.  A machine builds it
    once per opcode and appends it as it is."""
    return (op, -1, 0, 1, 0, 0, False, n_src, n_dst)


class TraceBuilder(_TraceView):
    """Append-oriented columnar trace producer.

    It holds one record per instruction (a tuple of the
    :data:`_RECORD_FIELDS`, its opcode id indexing
    :data:`repro.isa.opcodes.DESCRIPTORS`) in one list and the
    instructions' register ids in another.  :meth:`appenders` hands out
    the two lists' bound ``append`` and ``extend``: the emulation
    machines append each instruction through them from the intrinsic's
    own frame, most as a :func:`record` built once per opcode.
    :meth:`emit` is the keyword front end to the same layout, for tests
    and hand-built traces.  :meth:`columns` converts the records once,
    pools the opcodes that occur in first-appearance order and narrows
    every column to its exact type; the snapshot is memoised until the
    next record.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._records: List[Tuple[Any, ...]] = []
        self._ids: List[int] = []
        self._snapshot: Optional[ColumnarTrace] = None

    def appenders(self) -> Tuple[Any, Any]:
        """``(put, put_ids)``: ``put(record)`` appends one instruction's
        record, ``put_ids(ids)`` its source ids and then its destination
        ids, as many as the record counts."""
        return self._records.append, self._ids.extend

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
        self._records.append(
            (op, addr, row_bytes, rows, stride, pc, taken, len(srcs), len(dsts))
        )
        self._ids.extend(srcs)
        self._ids.extend(dsts)

    def columns(self) -> ColumnarTrace:
        """The current contents as a narrow :class:`ColumnarTrace` (memoised).

        Raises :class:`ValueError` if a field does not fit its column.
        """
        n = len(self)
        if self._snapshot is not None and len(self._snapshot) == n:
            return self._snapshot
        records = self._records
        try:
            # Most records are a machine's prebuilt tuples, shared by
            # identity: convert each distinct record object once, then
            # lay the fields out field-major, so each field's range check
            # and narrowing reads one contiguous row.
            _, first, which = np.unique(
                np.fromiter(map(id, records), np.int64, n),
                return_index=True, return_inverse=True,
            )
            distinct = np.fromiter(
                itertools.chain.from_iterable(map(records.__getitem__, first.tolist())),
                np.int64, len(first) * _WIDTH,
            ).reshape(-1, _WIDTH)
            fields = distinct[which.reshape(-1)].T.copy()
            ids = np.array(self._ids, dtype=np.int64)
        except OverflowError:
            raise ValueError("an emitted field holds a value outside int64") from None
        # Each record's ids are its sources, then its destinations.
        n_src, per_record = fields[-2], fields[-2] + fields[-1]
        starts = np.repeat(np.cumsum(per_record) - per_record, per_record)
        is_src = np.arange(len(ids)) - starts < np.repeat(n_src, per_record)
        columns = {
            "src_ids": _narrow(ids[is_src], _DTYPES["src_ids"], "src_ids"),
            "dst_ids": _narrow(ids[~is_src], _DTYPES["dst_ids"], "dst_ids"),
        }
        for attr, field in zip(_RECORD_FIELDS[1:], fields[1:]):
            columns[attr] = _narrow(field, _DTYPES[attr], attr)
        # The pool holds the opcodes in first-appearance order, which
        # keeps ``to_bytes()`` independent of the opcode numbering.
        ops = fields[0].astype(np.uint16)
        pooled = _first_appearance(ops)
        name_of_op = np.zeros(len(DESCRIPTORS), dtype=np.uint16)
        name_of_op[pooled] = np.arange(len(pooled), dtype=np.uint16)
        columns["name_id"] = name_of_op[ops]
        self._snapshot = ColumnarTrace(
            self.name, [DESCRIPTORS[op] for op in pooled.tolist()], **columns
        )
        return self._snapshot

    # -- stream API --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

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
